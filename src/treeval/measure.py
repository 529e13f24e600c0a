"""The canonical measure on completions: average truth over extensions.

The measure of a formula over a structure is computed by splitting all
binder polynomials (the determining extension), enumerating every
structure extension to that field, evaluating the formula in each, and
averaging.  All identities (complement, inclusion-exclusion, weighting
through an intermediate field, invariance) are consequences of the
uniform-fiber property of restriction maps and are checked exactly.
"""

from __future__ import annotations

from fractions import Fraction

from treeval.errors import PreconditionError
from treeval.formulas import BinderRoots, FAnd, FNot, FOr, binder_polynomials, evaluate
from treeval.numfield import (
    DEFAULT_DEGREE_BOUND,
    DEFAULT_FIELD_CAP,
    FieldEmbedding,
    NumberField,
    identity_embedding,
    splitting_field,
)
from treeval.polys import QQ, Poly
from treeval.ratfunc import RatFuncField
from treeval.structures import (
    TP0Structure,
    enumerate_structure_extensions,
    residue_extension_rac,
    structure_extends,
)


class DeterminingExtension:
    """A normal extension of the structure constants splitting all binders.

    ``roots`` maps each binder's coefficient tuple (constant first) to
    its roots in the field, in the order `formulas.field_roots` returns
    them.
    """

    __slots__ = ("base_structure", "field", "emb", "roots")

    def __init__(self, base_structure, field, emb, roots=None):
        self.base_structure = base_structure
        self.field = field
        self.emb = emb
        self.roots = roots or {}


class MeasureResult:
    __slots__ = ("value", "witness_extension", "tally")

    def __init__(self, value: Fraction, witness_extension, tally):
        self.value = value
        self.witness_extension = witness_extension
        self.tally = tally

    def __repr__(self):
        k, n = self.tally
        return f"MeasureResult({k}/{n} = {self.value})"


def determining_extension(
    formulas_list,
    S: TP0Structure,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
    field_cap: int = DEFAULT_FIELD_CAP,
) -> DeterminingExtension:
    """The splitting field of all binder polynomials over the constants.

    Truth of the given formulas in any model above the structure is
    decided by the induced structure on this field: once the binders
    split, every atom's arguments are field elements.
    """
    base = S.constants()
    polys = []
    for f in formulas_list:
        for q in binder_polynomials(f):
            if q.degree > degree_bound:
                from treeval.errors import ResourceBoundError

                raise ResourceBoundError(
                    f"binder degree {q.degree} exceeds bound {degree_bound}"
                )
            if q not in polys:
                polys.append(q)
    if not polys:
        return DeterminingExtension(S, base, identity_embedding(base))
    product = Poly.one(QQ)
    for q in polys:
        product = product * q
    data = splitting_field(
        product, base=base, degree_bound=max(product.degree, 1), field_cap=field_cap
    )
    L = data.field
    roots = {}
    for q in polys:
        qL = q.map_coeffs(L, L.coerce)
        own = [r for r in data.roots if qL.evaluate(r).is_zero()]
        # field_roots lists roots by their linear factors x - r
        own.sort(key=lambda r: (-r).key())
        roots[q.coeffs] = own
    return DeterminingExtension(S, L, data.base_embedding, roots)


def map_bindings(bindings: dict, S: TP0Structure, emb: FieldEmbedding, target_field):
    """Transport parameter bindings along the constants embedding."""
    out = {}
    for name, val in (bindings or {}).items():
        if S.is_function_field():
            x = S.field.coerce(val)
            out[name] = x.scale_coeffs(lambda c: emb(c), target_field)
        else:
            out[name] = emb(S.field.coerce(val))
    return out


def measure_over(
    phi, bindings, S: TP0Structure, L: NumberField, emb: FieldEmbedding, roots=None
) -> MeasureResult:
    """The measure computed over a given normal extension of the constants.

    The binders must split in L (otherwise evaluation raises); the result
    does not depend on the choice of L by the uniform-fiber property.
    ``roots`` holds binder roots already known in L (as on
    `DeterminingExtension`); the others are split once, at first use,
    for all members together.
    """
    exts = enumerate_structure_extensions(S, L, emb)
    target_field = exts.members[0].field if exts.members else L
    mapped = map_bindings(bindings, S, emb, target_field)
    table = BinderRoots(target_field, roots)
    true_count = 0
    for m in exts.members:
        if evaluate(phi, m, mapped, roots=table):
            true_count += 1
    total = len(exts.members)
    det = DeterminingExtension(S, L, emb, roots)
    return MeasureResult(Fraction(true_count, total), det, (true_count, total))


def measure(
    phi,
    bindings,
    S: TP0Structure,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
    field_cap: int = DEFAULT_FIELD_CAP,
) -> MeasureResult:
    """The canonical measure of the formula over the structure."""
    det = determining_extension([phi], S, degree_bound, field_cap)
    return measure_over(phi, bindings, S, det.field, det.emb, det.roots)


def measure_stable_under(
    phi, bindings, S: TP0Structure, L_alt: NumberField, emb_alt: FieldEmbedding
) -> bool:
    """Whether recomputing over a larger determining extension agrees."""
    return measure(phi, bindings, S).value == measure_over(
        phi, bindings, S, L_alt, emb_alt
    ).value


def check_axioms(S: TP0Structure, phi, psi, bindings=None) -> dict:
    """Exact verification of the measure identities on one instance.

    Returns a report dict mapping identity names to booleans:
    complement, inclusion_exclusion, positivity, certainty, weighting.
    """
    report = {}
    det = determining_extension([phi, psi], S)
    over = (S, det.field, det.emb, det.roots)
    m_phi = measure_over(phi, bindings, *over)
    m_not = measure_over(FNot(phi), bindings, *over)
    report["complement"] = m_phi.value + m_not.value == 1

    m_psi = measure_over(psi, bindings, *over)
    m_or = measure_over(FOr(phi, psi), bindings, *over)
    m_and = measure_over(FAnd(phi, psi), bindings, *over)
    report["inclusion_exclusion"] = (
        m_phi.value + m_psi.value == m_or.value + m_and.value
    )

    report["positivity"] = (m_phi.value > 0) == (m_phi.tally[0] > 0)
    report["certainty"] = (m_phi.value == 1) == (
        m_phi.tally[0] == m_phi.tally[1]
    )
    report["weighting"] = _check_weighting(phi, bindings, S, det, m_phi.value)
    return report


def _check_weighting(phi, bindings, S, det, base_value) -> bool:
    """P(phi|K), given as base_value, equals the average of P(phi|L_i)
    over the extensions L_i, each measured on its own."""
    exts = enumerate_structure_extensions(S, det.field, det.emb)
    target_field = exts.members[0].field
    mapped = map_bindings(bindings, S, det.emb, target_field)
    total = Fraction(0)
    for m in exts.members:
        total += measure(phi, mapped, m).value
    return total / len(exts.members) == base_value


def isomorphism_invariance(phi, bindings, S1: TP0Structure, S2: TP0Structure, transport) -> bool:
    """P(phi(a)|S1) = P(phi(f(a))|S2) for a structure isomorphism f.

    ``transport`` maps binding values from S1's field to S2's field.
    """
    b2 = {k: transport(v) for k, v in (bindings or {}).items()}
    return measure(phi, bindings, S1).value == measure(phi, b2, S2).value


def invariance_under_closed_residue_extension(
    phi, bindings, S_K: TP0Structure, S_L: TP0Structure
) -> bool:
    """Equality of measures along an extension with relatively algebraically
    closed residue extensions at every node (parameters from the base)."""
    if S_L.is_function_field() and S_L.field.coeff_field == S_K.field:
        for n in S_K.tree.nodes_sorted():
            hK, hL = S_K.assignment[n], S_L.assignment[n]
            if not residue_extension_rac(hK, hL):
                raise PreconditionError(
                    f"residue extension at {n!r} not relatively algebraically closed"
                )
        lifted = {}
        for name, val in (bindings or {}).items():
            lifted[name] = S_L.field.coerce(S_K.field.coerce(val))
    elif S_K == S_L:
        lifted = dict(bindings or {})
    else:
        raise PreconditionError("unsupported extension shape for the hypothesis")
    return measure(phi, bindings, S_K).value == measure(phi, lifted, S_L).value

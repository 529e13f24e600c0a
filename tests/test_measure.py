"""Measure golden values, axioms, stability, and residue-extension invariance."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from test_formulas import close_formula, formulas as formula_bodies
from treeval.formulas import BinderSplitError, FNot, evaluate, field_roots, parse
from treeval.funcfield import GaussHandle, trivial_gauss
from treeval.measure import (
    check_axioms,
    determining_extension,
    invariance_under_closed_residue_extension,
    isomorphism_invariance,
    measure,
    measure_over,
    measure_stable_under,
)
from treeval.numfield import NumberField, QQ_FIELD, rational_embedding, splitting_field
from treeval.padic import padic_handle_on_Q, trivial_handle
from treeval.polys import QQ, Poly
from treeval.ratfunc import RatFuncField
from treeval.structures import TP0Structure, enumerate_structure_extensions
from treeval.trees import FiniteTree


def P(*cs):
    return Poly(QQ, [Fraction(c) for c in cs])


PHI_ALIGNED = parse(
    "exists x root [1,0,1] : ((x - 2 in m[a]) & (x - 5 in m[b]))"
)
PHI_SINGLE = parse("exists x root [1,0,1] : x - 2 in m[a]")


def two_prime_structure():
    tree = FiniteTree.flat("_", ["a", "b"])
    return TP0Structure(
        tree,
        QQ_FIELD,
        {
            "_": trivial_handle(QQ_FIELD),
            "a": padic_handle_on_Q(5),
            "b": padic_handle_on_Q(13),
        },
    )


def single_prime_structure():
    tree = FiniteTree.flat("_", ["a"])
    return TP0Structure(
        tree,
        QQ_FIELD,
        {"_": trivial_handle(QQ_FIELD), "a": padic_handle_on_Q(5)},
    )


def test_golden_half():
    res = measure(PHI_ALIGNED, {}, two_prime_structure())
    assert res.value == Fraction(1, 2)
    assert res.tally == (2, 4)
    assert res.witness_extension.field.degree == 2


def test_golden_certain():
    res = measure(PHI_SINGLE, {}, single_prime_structure())
    assert res.value == 1
    assert res.tally == (2, 2)


def test_endpoints():
    S = two_prime_structure()
    assert measure(parse("0 = 0"), {}, S).value == 1
    assert measure(parse("1 = 0"), {}, S).value == 0


def test_stability_under_larger_extension():
    S = two_prime_structure()
    data = splitting_field(P(1, 0, 1) * P(-2, 0, 1))  # Q(i, sqrt2)
    assert data.field.degree == 4
    assert measure_stable_under(PHI_ALIGNED, {}, S, data.field, data.base_embedding)
    alt = measure_over(PHI_ALIGNED, {}, S, data.field, data.base_embedding)
    assert alt.value == Fraction(1, 2)
    # true tallies over the quartic: 2 extensions of each prime, fibers of
    # size one over the Q(i) tallies
    assert alt.tally == (2, 4)


def test_stability_tautology():
    S = two_prime_structure()
    data = splitting_field(P(-3, 0, 1))
    assert measure_stable_under(parse("0 = 0"), {}, S, data.field, data.base_embedding)


def test_axioms_report():
    S = two_prime_structure()
    psi = parse("exists x root [1,0,1] : x - 5 in m[b]")
    report = check_axioms(S, PHI_ALIGNED, psi)
    assert all(report.values()), report


def test_axioms_with_parameters():
    S = single_prime_structure()
    phi = parse("exists x root [1,0,1] : x - $c in m[a]")
    psi = parse("$c in O[a]")
    report = check_axioms(S, phi, psi, {"c": Fraction(2)})
    assert all(report.values()), report


def test_complement_on_half():
    S = two_prime_structure()
    m1 = measure(PHI_ALIGNED, {}, S)
    m2 = measure(FNot(PHI_ALIGNED), {}, S)
    assert m1.value == m2.value == Fraction(1, 2)


def gauss_lift_structure(S_K):
    QT = RatFuncField(S_K.field)
    assignment = {}
    for n, h in S_K.assignment.items():
        assignment[n] = (
            trivial_gauss(QT) if h.is_trivial() else GaussHandle(h, QT)
        )
    return TP0Structure(S_K.tree, QT, assignment)


def test_key_technical_invariance():
    S_K = two_prime_structure()
    S_L = gauss_lift_structure(S_K)
    assert invariance_under_closed_residue_extension(PHI_ALIGNED, {}, S_K, S_L)
    assert invariance_under_closed_residue_extension(PHI_SINGLE, {}, S_K, S_L)
    m = measure(PHI_ALIGNED, {}, S_L)
    assert m.value == Fraction(1, 2)


def test_key_technical_with_parameters():
    S_K = single_prime_structure()
    S_L = gauss_lift_structure(S_K)
    phi = parse("exists x root [1,0,1] : x - $c in m[a]")
    assert invariance_under_closed_residue_extension(
        phi, {"c": Fraction(2)}, S_K, S_L
    )


def test_isomorphism_invariance():
    from treeval.numfield import automorphisms
    from treeval.padic import pushforward
    from treeval.structures import enumerate_structure_extensions

    S = two_prime_structure()
    GAUSSI = NumberField(P(1, 0, 1), label="Q(i)")
    emb = rational_embedding(GAUSSI)
    members = enumerate_structure_extensions(S, GAUSSI, emb).members
    sigma = [s for s in automorphisms(GAUSSI) if not s.is_identity()][0]
    S1 = members[0]
    S2 = TP0Structure(
        S1.tree,
        S1.field,
        {
            n: (h if h.is_trivial() else pushforward(h, sigma))
            for n, h in S1.assignment.items()
        },
    )
    phi = parse("exists y root [1,0,1] : ((y - $a in m[a]) | (y + $a in m[b]))")
    assert isomorphism_invariance(
        phi, {"a": GAUSSI.gen}, S1, S2, transport=sigma
    )


def test_measure_on_trivial_structure():
    tree = FiniteTree.flat("_", ["a"])
    S = TP0Structure(
        tree,
        QQ_FIELD,
        {"_": trivial_handle(QQ_FIELD), "a": trivial_handle(QQ_FIELD)},
    )
    # over the trivial ring everything nonzero is a unit
    assert measure(parse("exists x root [1,0,1] : x in O[a]"), {}, S).value == 1
    assert measure(parse("exists x root [1,0,1] : x in m[a]"), {}, S).value == 0


def test_determining_extension_identity_for_qf():
    S = two_prime_structure()
    det = determining_extension([parse("5 in m[a]")], S)
    assert det.field == QQ_FIELD
    assert det.emb.is_identity()


def test_determining_extension_roots_in_field_roots_order():
    S = two_prime_structure()
    phi = parse(
        "exists x root [1,0,1] : exists y root [-2,0,1] : x - y in m[a]"
    )
    det = determining_extension([phi, PHI_SINGLE], S)
    assert det.field.degree == 4
    assert set(det.roots) == {P(1, 0, 1).coeffs, P(-2, 0, 1).coeffs}
    for key, roots in det.roots.items():
        assert roots == field_roots(det.field, Poly(QQ, key))


@given(formula_bodies)
@settings(max_examples=25, deadline=None)
def test_shared_root_table_matches_member_evaluation(body):
    phi = close_formula(body)
    S = two_prime_structure()
    bindings = {"u": Fraction(3), "w": Fraction(1, 5)}
    det = determining_extension([phi], S)
    members = enumerate_structure_extensions(S, det.field, det.emb).members
    count = sum(evaluate(phi, m, bindings) for m in members)
    assert measure(phi, bindings, S).tally == (count, len(members))
    unseeded = measure_over(phi, bindings, S, det.field, det.emb)
    assert unseeded.tally == (count, len(members))


def test_measure_over_raises_when_binder_does_not_split():
    S = two_prime_structure()
    GAUSSI = NumberField(P(1, 0, 1), label="Q(i)")
    phi = parse("exists x root [-2,0,1] : x in m[a]")
    with pytest.raises(BinderSplitError):
        measure_over(phi, {}, S, GAUSSI, rational_embedding(GAUSSI))


def test_measure_factors_the_binder_once(monkeypatch):
    import treeval.numfield as numfield

    original = numfield.factor_over_field
    calls = []

    def counting(K, f):
        calls.append(f)
        return original(K, f)

    S = two_prime_structure()
    phi = parse("exists x root [1,0,1] : x - 2 in m[a]")
    monkeypatch.setattr(numfield, "factor_over_field", counting)
    assert measure(phi, {}, S).tally == (4, 4)
    # the split of x^2 + 1 over Q; the members reuse its roots
    assert len(calls) == 1

"""Valuation handles on number fields: trivial and p-adic.

A p-adic handle is one extension of v_p (normalized with v(p) = 1) to a
number field, backed by an exact local-factor certificate.  Handles of
one (field, p) family are enumerated once, separated, fingerprinted,
and canonically ordered by (e, f, fingerprint, chain data); they are
identified by their index in that order.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from treeval.errors import PreconditionError, UnsupportedHandleError
from treeval.gf import FF, FFElem, GF
from treeval.maclane import LocalFactor, decompose, separate
from treeval.numfield import (
    FieldElement,
    FieldEmbedding,
    NumberField,
    relative_automorphisms,
)
from treeval.polys import INF, QQ, Poly, vp_fraction

PIN_PRECISION = 20


class Membership(enum.Enum):
    IN_MAXIMAL_IDEAL = "in_maximal_ideal"
    UNIT = "unit"
    OUTSIDE = "outside_ring"


class ValueVec:
    """Valuation value: lexicographically ordered tuple, or infinity at 0."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = None if entries is None else tuple(entries)

    @staticmethod
    def infinite() -> "ValueVec":
        return ValueVec(None)

    @staticmethod
    def of(x) -> "ValueVec":
        return ValueVec((Fraction(x),))

    def is_infinite(self) -> bool:
        return self.entries is None

    def __eq__(self, other):
        return isinstance(other, ValueVec) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __lt__(self, other):
        if self.is_infinite():
            return False
        if other.is_infinite():
            return True
        return self.entries < other.entries

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __add__(self, other):
        if self.is_infinite() or other.is_infinite():
            return ValueVec.infinite()
        return ValueVec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def sign(self) -> int:
        """-1, 0, +1 against the zero vector; infinity counts as positive."""
        if self.is_infinite():
            return 1
        zero = tuple(Fraction(0) for _ in self.entries)
        if self.entries == zero:
            return 0
        return 1 if self.entries > zero else -1

    def first(self) -> Fraction:
        if self.is_infinite():
            raise ValueError("infinite value")
        return self.entries[0]

    def __repr__(self):
        return "v(inf)" if self.is_infinite() else f"v{self.entries}"


class ResidueField:
    """Descriptor of a residue field: finite, number, or rational function."""

    __slots__ = ("kind", "char", "finite", "number_field", "constants", "variable")

    def __init__(self, kind, char, finite=None, number_field=None, constants=None, variable=None):
        self.kind = kind
        self.char = char
        self.finite = finite
        self.number_field = number_field
        self.constants = constants
        self.variable = variable

    @staticmethod
    def finite_field(gf: FF) -> "ResidueField":
        return ResidueField("finite", gf.p, finite=gf)

    @staticmethod
    def number(nf: NumberField) -> "ResidueField":
        return ResidueField("number", 0, number_field=nf)

    @staticmethod
    def rational_function(constants, variable="t") -> "ResidueField":
        char = constants.p if isinstance(constants, FF) else 0
        return ResidueField(
            "rational_function", char, constants=constants, variable=variable
        )

    def __eq__(self, other):
        return (
            isinstance(other, ResidueField)
            and self.kind == other.kind
            and self.char == other.char
            and self.finite == other.finite
            and self.number_field == other.number_field
            and self.constants == other.constants
        )

    def __repr__(self):
        if self.kind == "finite":
            return f"Residue({self.finite!r})"
        if self.kind == "number":
            return f"Residue({self.number_field.label})"
        return f"Residue({self.constants!r}({self.variable}))"


class ValuationHandle:
    """One valuation ring on a number field: trivial or p-adic."""

    __slots__ = ("kind", "field", "prime", "index", "factor")

    def __init__(self, kind, field, prime=None, index=None, factor=None):
        self.kind = kind
        self.field = field
        self.prime = prime
        self.index = index
        self.factor = factor

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, ValuationHandle)
            and self.kind == other.kind
            and self.field == other.field
            and self.prime == other.prime
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.kind, self.field.minpoly.coeffs, self.prime, self.index))

    def __repr__(self):
        if self.kind == "trivial":
            return f"trivial({self.field.label})"
        return (
            f"padic({self.field.label}, p={self.prime}, "
            f"e={self.e}, f={self.f}, #{self.index})"
        )

    def is_trivial(self) -> bool:
        return self.kind == "trivial"

    @property
    def e(self) -> int:
        return 1 if self.is_trivial() else self.factor.e

    @property
    def f(self) -> int:
        return 1 if self.is_trivial() else self.factor.f

    # -- semantics ---------------------------------------------------------------

    def value(self, x) -> ValueVec:
        x = self.field.coerce(x)
        if x.is_zero():
            return ValueVec.infinite()
        if self.is_trivial():
            return ValueVec.of(0)
        return ValueVec.of(self.factor.value_of_poly(x.rep))

    def membership(self, x) -> Membership:
        s = self.value(x).sign()
        if s > 0:
            return Membership.IN_MAXIMAL_IDEAL
        if s == 0:
            return Membership.UNIT
        return Membership.OUTSIDE

    def residue(self, x):
        """Residue of x: a field element (trivial) or FFElem (p-adic)."""
        x = self.field.coerce(x)
        if self.is_trivial():
            return x
        v = self.value(x)
        if v.sign() < 0:
            raise PreconditionError("element outside the valuation ring")
        return self.factor.reduce_poly(x.rep)

    def fingerprint(self) -> FFElem | None:
        """Residue of the field generator, if it is integral here."""
        if self.is_trivial():
            return None
        gen = self.field.gen
        v = self.value(gen)
        if v.sign() < 0:
            return self.factor.kf.zero
        return self.factor.reduce_poly(gen.rep)

    def residue_generator_lift(self) -> FieldElement:
        """A unit of the field whose residue generates the residue field."""
        if self.is_trivial():
            return self.field.gen
        gen_res = self.factor.kf.gen if self.factor.f > 1 else self.factor.kf.one
        lift = self.factor.lift_residue(gen_res)
        return FieldElement(self.field, lift % self.field.minpoly)

    def uniformizer(self) -> FieldElement:
        """An element of value exactly 1/e."""
        if self.is_trivial():
            raise PreconditionError("trivial valuation has no uniformizer")
        K, p, e = self.field, self.prime, self.e
        for _ in range(64):
            stage = (
                self.factor._terminal if self.factor.exact else self.factor._pair[1]
            )
            gens = [(Fraction(1), K.coerce(p))]
            for s in stage.stages():
                elem = FieldElement(K, s.phi % K.minpoly)
                val = self.value(elem)
                if val.is_infinite():
                    continue
                gens.append((val.first(), elem))
            nums = [int(lam * e) for lam, _ in gens]
            g = 0
            for n in nums:
                import math

                g = math.gcd(g, n)
            if g == 1:
                coefs = _int_combination(nums, 1)
                out = K.one
                for c, (_, elem) in zip(coefs, gens):
                    if c:
                        out = out * elem**c
                assert self.value(out) == ValueVec.of(Fraction(1, e))
                return out
            if self.factor.exact:
                raise ArithmeticError("value group not realized by chain keys")
            self.factor._step()
        raise ArithmeticError("uniformizer search did not converge")

    def separating_element(self) -> FieldElement:
        """Element with strictly larger value here than at any sibling."""
        if self.is_trivial():
            raise PreconditionError("trivial valuation needs no separation")
        key = self.factor.current_key()
        return FieldElement(self.field, key % self.field.minpoly)

    def pin(self, precision: int = PIN_PRECISION) -> tuple[int, int]:
        """(integer encoding of the key coefficients mod p^k, k)."""
        if self.is_trivial():
            raise PreconditionError("trivial valuation has no pin")
        self.factor.improve_to(Fraction(precision))
        key = self.factor.current_key()
        m = self.prime**precision
        acc = 0
        for i in range(key.degree):  # monic: leading coefficient omitted
            c = key[i]
            num, den = c.numerator, c.denominator
            acc += ((num * pow(den, -1, m)) % m) * (m**i)
        return acc, precision


def _int_combination(nums: list[int], target: int) -> list[int]:
    """Integers c with sum c_i nums_i = target (gcd must divide target)."""
    import math

    g = 0
    for n in nums:
        g = math.gcd(g, n)
    if g == 0 or target % g != 0:
        raise ArithmeticError("target not in the generated group")
    coefs = [0] * len(nums)
    g_cur = nums[0]
    coefs[0] = 1
    for i in range(1, len(nums)):
        if g_cur != 0 and target % g_cur == 0:
            break
        a, b = g_cur, nums[i]
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        # old_r = old_s * a + old_t * b
        if old_r < 0:
            old_r, old_s, old_t = -old_r, -old_s, -old_t
        coefs = [c * old_s for c in coefs]
        coefs[i] = old_t
        g_cur = old_r
    scale = target // g_cur
    return [c * scale for c in coefs]


def trivial_handle(field: NumberField) -> ValuationHandle:
    return ValuationHandle("trivial", field)


_FAMILY_CACHE: dict = {}


def padic_handles(field: NumberField, p: int) -> list[ValuationHandle]:
    """All extensions of v_p to the field, canonically ordered and separated."""
    key = (field.minpoly.coeffs, p)
    hit = _FAMILY_CACHE.get(key)
    if hit is not None:
        return hit
    factors = decompose(field.minpoly, p)
    separate(factors)
    handles = [
        ValuationHandle("padic", field, prime=p, index=None, factor=w)
        for w in factors
    ]

    def order_key(h):
        fp = h.fingerprint()
        return (h.e, h.f, fp.key() if fp is not None else (), h.factor._terminal.chain_signature())

    handles.sort(key=order_key)
    for i, h in enumerate(handles):
        h.index = i
    _FAMILY_CACHE[key] = handles
    return handles


def padic_handle_on_Q(p: int, field=None) -> ValuationHandle:
    """The v_p handle on QQ (or on a degree-1 field)."""
    from treeval.numfield import QQ_FIELD

    field = field or QQ_FIELD
    if field.degree != 1:
        raise ValueError("use padic_handles for bigger fields")
    return padic_handles(field, p)[0]


def restrict_handle(w: ValuationHandle, emb: FieldEmbedding) -> ValuationHandle:
    """The restriction of a handle on emb.target to emb.source."""
    if w.field != emb.target:
        raise PreconditionError("handle does not live on the embedding target")
    K = emb.source
    if w.is_trivial():
        return trivial_handle(K)
    cands = padic_handles(K, w.prime)
    if len(cands) == 1:
        return cands[0]
    for v in cands:
        z = v.separating_element()
        if w.value(emb(z)) == v.value(z):
            return v
    raise PreconditionError("no restriction found (separation failure)")


def extends(w: ValuationHandle, v: ValuationHandle, emb: FieldEmbedding) -> bool:
    """Whether w on emb.target restricts to v on emb.source."""
    return restrict_handle(w, emb) == v


def extend_valuation(
    v: ValuationHandle, L: NumberField, emb: FieldEmbedding
) -> list[ValuationHandle]:
    """All extensions of v along emb to L, in canonical order."""
    if v.field != emb.source:
        raise PreconditionError("handle does not live on the embedding source")
    if emb.target != L:
        raise PreconditionError("embedding target mismatch")
    if v.is_trivial():
        return [trivial_handle(L)]
    return [
        w for w in padic_handles(L, v.prime) if restrict_handle(w, emb) == v
    ]


def count_extensions(v, L, emb) -> int:
    return len(extend_valuation(v, L, emb))


def pushforward(w: ValuationHandle, sigma: FieldEmbedding) -> ValuationHandle:
    """The handle w o sigma^{-1} for an automorphism sigma of w.field."""
    if w.is_trivial():
        return w
    L = w.field
    if sigma.source != L or sigma.target != L:
        raise PreconditionError("pushforward needs an automorphism of the field")
    siblings = padic_handles(L, w.prime)
    if len(siblings) == 1:
        return siblings[0]
    for u in siblings:
        z = u.separating_element()
        # (sigma . w)(z) = w(sigma^{-1}(z)); test against u's own value
        if w.value(_apply_inverse(sigma, z)) == u.value(z):
            return u
    raise PreconditionError("pushforward not found among siblings")


def _apply_inverse(sigma: FieldEmbedding, x: FieldElement) -> FieldElement:
    """sigma^{-1}(x) for an automorphism sigma, via linear algebra."""
    from treeval.numfield import automorphisms

    L = sigma.source
    for tau in automorphisms(L):
        if sigma(tau.image) == L.gen:
            return tau(x)
    raise ArithmeticError("automorphism has no inverse in the group")


def galois_orbit_check(
    v: ValuationHandle, L: NumberField, emb: FieldEmbedding
) -> bool:
    """Transitivity of Aut(L/K) on the extension set, checked exhaustively."""
    exts = extend_valuation(v, L, emb)
    if not exts:
        return False
    efs = {(w.e, w.f) for w in exts}
    if len(efs) != 1:
        return False
    auts = relative_automorphisms(L, emb)
    orbit = {pushforward(exts[0], s) for s in auts}
    return orbit == set(exts)

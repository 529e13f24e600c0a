"""Gauss and composed (rank-2) valuations on rational function fields F(t).

A Gauss handle extends a valuation w on the constant field F to F(t) by
v(sum a_i t^i) = min_i w(a_i); its residue field is (res w)(t).  A
composed handle refines a Gauss handle by a place of that residue
field: a monic irreducible polynomial over the residue constants, or
the degree place at infinity.  Membership is decided by rank-2
lexicographic values.

Only constant-field extensions F(t) -> L(t) are supported for
extension counting; these cover every residue-extension shape the
counting identities are stated for.
"""

from __future__ import annotations

from fractions import Fraction

from treeval.errors import PreconditionError, UnsupportedHandleError
from treeval.gf import FF, GF, map_poly_along, poly_factor, relative_minpoly_with_embedding
from treeval.numfield import (
    FieldEmbedding,
    NumberField,
    extend_by_irreducible,
    factor_over_field,
    relative_automorphisms,
    relative_minimal_polynomial,
)
from treeval.padic import (
    Membership,
    ValuationHandle,
    ValueVec,
    extend_valuation,
    restrict_handle,
    trivial_handle,
)
from treeval.polys import INF, Poly
from treeval.ratfunc import (
    RatFunc,
    RatFuncField,
    ord_at_infinity,
    ord_at_place,
)


class Place:
    """A place of k(t) over the constants k: a monic irreducible, or t=inf."""

    __slots__ = ("kind", "poly")

    def __init__(self, kind: str, poly: Poly | None = None):
        if kind not in ("poly", "inf"):
            raise ValueError("place kind must be 'poly' or 'inf'")
        if kind == "poly":
            if poly is None or poly.degree < 1 or not poly.is_monic():
                raise ValueError("finite place needs a monic nonconstant polynomial")
        self.kind = kind
        self.poly = poly

    @staticmethod
    def infinite() -> "Place":
        return Place("inf")

    @staticmethod
    def finite(poly: Poly) -> "Place":
        return Place("poly", poly)

    def degree(self) -> int:
        return 1 if self.kind == "inf" else self.poly.degree

    def ord(self, x: RatFunc) -> int:
        if x.is_zero():
            raise ValueError("zero has infinite order")
        if self.kind == "inf":
            return ord_at_infinity(x)
        return ord_at_place(x, self.poly)

    def __eq__(self, other):
        return (
            isinstance(other, Place)
            and self.kind == other.kind
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.kind, None if self.poly is None else self.poly.coeffs))

    def __repr__(self):
        return "Place(inf)" if self.kind == "inf" else f"Place({self.poly!r})"


def function_field(constants: NumberField, variable: str = "t") -> RatFuncField:
    return RatFuncField(constants, variable)


class GaussHandle:
    """Gauss extension of a constant-field valuation to F(t)."""

    __slots__ = ("base", "field")

    def __init__(self, base: ValuationHandle, field: RatFuncField):
        if base.field != field.coeff_field:
            raise PreconditionError("base valuation must live on the constants")
        self.base = base
        self.field = field

    def __eq__(self, other):
        return (
            isinstance(other, GaussHandle)
            and self.base == other.base
            and self.field == other.field
        )

    def __hash__(self):
        return hash(("gauss", self.base))

    def __repr__(self):
        return f"Gauss({self.base!r})"

    def is_trivial(self) -> bool:
        return self.base.is_trivial()

    @property
    def e(self) -> int:
        return self.base.e

    @property
    def f(self) -> int:
        return self.base.f

    def _poly_value(self, f: Poly):
        v = INF
        for c in f.coeffs:
            cv = self.base.value(c)
            if not cv.is_infinite():
                fv = cv.first()
                if v is INF or fv < v:
                    v = fv
        return v

    def value(self, x) -> ValueVec:
        x = self.field.coerce(x)
        if x.is_zero():
            return ValueVec.infinite()
        return ValueVec.of(self._poly_value(x.num) - self._poly_value(x.den))

    def membership(self, x) -> Membership:
        s = self.value(x).sign()
        if s > 0:
            return Membership.IN_MAXIMAL_IDEAL
        if s == 0:
            return Membership.UNIT
        return Membership.OUTSIDE

    def residue_constants(self):
        """The constant field of the residue field: a GF or a NumberField."""
        if self.base.is_trivial():
            return self.field.coeff_field
        return self.base.factor.kf

    def residue(self, x) -> RatFunc:
        """Residue in (res w)(t) of a unit (or maximal-ideal element)."""
        x = self.field.coerce(x)
        v = self.value(x)
        if v.sign() < 0:
            raise PreconditionError("element outside the Gauss valuation ring")
        if self.base.is_trivial():
            return x
        target = RatFuncField(self.residue_constants(), self.field.variable)
        if v.sign() > 0:
            return target.zero
        pi = self.base.uniformizer()
        e = self.base.e

        def reduce_poly(f: Poly) -> Poly:
            m = self._poly_value(f)
            scale = pi ** (-int(m * e))
            return Poly(
                target.coeff_field,
                [self.base.residue(c * scale) for c in f.coeffs],
            )

        vn, vd = self._poly_value(x.num), self._poly_value(x.den)
        numr = reduce_poly(x.num)
        denr = reduce_poly(x.den)
        if vn != vd:
            raise PreconditionError("not a unit")
        return RatFunc(target, numr, denr)

    def residue_characteristic(self) -> int:
        if self.base.is_trivial():
            return 0
        return self.base.prime


class ComposedHandle:
    """Composition of a Gauss handle with a place of its residue field."""

    __slots__ = ("coarse", "place")

    def __init__(self, coarse: GaussHandle, place: Place):
        if place.kind == "poly" and place.poly.field != coarse.residue_constants():
            raise PreconditionError(
                "place polynomial must live over the residue constants"
            )
        self.coarse = coarse
        self.place = place

    def __eq__(self, other):
        return (
            isinstance(other, ComposedHandle)
            and self.coarse == other.coarse
            and self.place == other.place
        )

    def __hash__(self):
        return hash(("composed", self.coarse, self.place))

    def __repr__(self):
        return f"Composed({self.coarse!r}, {self.place!r})"

    @property
    def field(self) -> RatFuncField:
        return self.coarse.field

    def value(self, x) -> ValueVec:
        """Rank-2 lexicographic value (coarse value, fine order of residue)."""
        x = self.field.coerce(x)
        if x.is_zero():
            return ValueVec.infinite()
        if self.coarse.is_trivial():
            return ValueVec((Fraction(0), Fraction(self.place.ord(x))))
        v1 = self.coarse.value(x).first()
        e = self.coarse.base.e
        pi = self.coarse.base.uniformizer()
        unit = x * self.field.coerce(pi ** (-int(v1 * e)))
        res = self.coarse.residue(unit)
        return ValueVec((v1, Fraction(self.place.ord(res))))

    def membership(self, x) -> Membership:
        s = self.value(x).sign()
        if s > 0:
            return Membership.IN_MAXIMAL_IDEAL
        if s == 0:
            return Membership.UNIT
        return Membership.OUTSIDE

    def div_valuation(self) -> Place:
        """The place on res(coarse) whose composition with coarse is self."""
        return self.place

    def residue_characteristic(self) -> int:
        if self.coarse.is_trivial():
            return 0
        return self.coarse.base.prime


def trivial_gauss(field: RatFuncField) -> GaussHandle:
    return GaussHandle(trivial_handle(field.coeff_field), field)


def is_normal_over(L: NumberField, emb: FieldEmbedding) -> bool:
    """Whether L is normal over the embedded subfield emb.source."""
    if L.degree % emb.source.degree != 0:
        return False
    rel = L.degree // emb.source.degree
    return len(relative_automorphisms(L, emb)) == rel


def gauss_extend(
    h: GaussHandle, L_const: NumberField, emb: FieldEmbedding
) -> list[GaussHandle]:
    """All extensions of a Gauss handle along the constant extension.

    Constant-field Gauss handles exhaust the extensions of h to L(t):
    they form a nonempty set of the size of one automorphism orbit, and
    the orbit of any single extension is everything.
    """
    if not is_normal_over(L_const, emb):
        raise PreconditionError("constant extension must be normal")
    big = RatFuncField(L_const, h.field.variable)
    return [GaussHandle(w, big) for w in extend_valuation(h.base, L_const, emb)]


def _induced_residue_embedding(
    base_small: ValuationHandle, base_big: ValuationHandle, emb: FieldEmbedding
):
    """Image of the small residue generator under the valuation-induced map."""
    u = base_small.residue_generator_lift()
    return base_big.residue(emb(u))


def fine_place_factors(
    fine: ComposedHandle, chosen_coarse: GaussHandle, emb: FieldEmbedding
) -> list[Place]:
    """The places over fine.place in the residue field of the chosen coarse
    extension, in canonical order."""
    if fine.place.kind == "inf":
        return [Place.infinite()]
    g = fine.place.poly
    if fine.coarse.is_trivial():
        if not chosen_coarse.is_trivial():
            raise PreconditionError("coarse extension of a trivial handle is trivial")
        gL = emb.map_poly(g)
        return [
            Place.finite(h) for h, _ in factor_over_field(emb.target, gL)
        ]
    img = _induced_residue_embedding(fine.coarse.base, chosen_coarse.base, emb)
    big_kf = chosen_coarse.base.factor.kf
    gL = map_poly_along(g, img, big_kf)
    return [Place.finite(h) for h, _ in poly_factor(gL)]


def count_fine_extensions(
    fine: ComposedHandle,
    L_const: NumberField,
    emb: FieldEmbedding,
    chosen_coarse: GaussHandle,
) -> int:
    """Number of composed extensions of ``fine`` below the chosen coarse
    extension; independent of which coarse extension was chosen."""
    coarse_exts = gauss_extend(fine.coarse, L_const, emb)
    if chosen_coarse not in coarse_exts:
        raise PreconditionError("chosen handle does not extend the coarse handle")
    return len(fine_place_factors(fine, chosen_coarse, emb))


def compose_extensions(
    fine: ComposedHandle, chosen_coarse: GaussHandle, emb: FieldEmbedding
) -> list[ComposedHandle]:
    """The composed extensions of ``fine`` lying below ``chosen_coarse``."""
    return [
        ComposedHandle(chosen_coarse, pl)
        for pl in fine_place_factors(fine, chosen_coarse, emb)
    ]


def restrict_place(
    fine: ComposedHandle, base_handle: GaussHandle, emb: FieldEmbedding
) -> Place:
    """The place below fine.place along the residue extension induced by emb.

    ``fine`` lives over L(t); ``base_handle`` is the restriction of its
    coarse handle to F(t) (F = emb.source).
    """
    if fine.place.kind == "inf":
        return Place.infinite()
    h = fine.place.poly
    if fine.coarse.is_trivial():
        if h.degree == 1:
            # root in L; restrict by its minimal polynomial over F
            root = -h.coeffs[0]
            return Place.finite(relative_minimal_polynomial(root, emb))
        M, embLM, root = extend_by_irreducible(emb.target, h)
        return Place.finite(
            relative_minimal_polynomial(root, embLM.compose(emb))
        )
    small_kf = base_handle.base.factor.kf
    img = _induced_residue_embedding(base_handle.base, fine.coarse.base, emb)
    big_kf = fine.coarse.base.factor.kf
    if h.degree == 1:
        rho = -h.coeffs[0]
        return Place.finite(relative_minpoly_with_embedding(rho, small_kf, img))
    # pass to a splitting field of h over the big residue field
    ext = GF(big_kf.p, big_kf.m * h.degree)
    from treeval.gf import embedding_generator_image, poly_roots

    lift_gen = embedding_generator_image(big_kf.p, big_kf.m, ext.m)
    h_ext = map_poly_along(h, lift_gen, ext)
    rho = poly_roots(h_ext)[0]
    img_ext = _embed_via(img, lift_gen, ext)
    return Place.finite(relative_minpoly_with_embedding(rho, small_kf, img_ext))


def _embed_via(elem, gen_image, big):
    acc = big.zero
    for digit in reversed(elem.vec):
        acc = acc * gen_image + big.coerce(digit)
    return acc


def restrict_ff_handle(handle, emb: FieldEmbedding):
    """Restrict a handle on L(t) to F(t) along the constant embedding."""
    small_field = RatFuncField(emb.source, handle.field.variable)
    if isinstance(handle, GaussHandle):
        return GaussHandle(restrict_handle(handle.base, emb), small_field)
    if isinstance(handle, ComposedHandle):
        base_coarse = GaussHandle(
            restrict_handle(handle.coarse.base, emb), small_field
        )
        return ComposedHandle(base_coarse, restrict_place(handle, base_coarse, emb))
    raise UnsupportedHandleError(f"cannot restrict {handle!r}")


def ff_handle_extends(handle_L, handle_F, emb: FieldEmbedding) -> bool:
    """Whether a handle on L(t) restricts to a handle on F(t)."""
    if isinstance(handle_L, GaussHandle) and isinstance(handle_F, GaussHandle):
        return restrict_handle(handle_L.base, emb) == handle_F.base
    if isinstance(handle_L, ComposedHandle) and isinstance(handle_F, ComposedHandle):
        if restrict_handle(handle_L.coarse.base, emb) != handle_F.coarse.base:
            return False
        base_coarse = GaussHandle(
            handle_F.coarse.base, RatFuncField(emb.source, handle_F.field.variable)
        )
        return restrict_place(handle_L, base_coarse, emb) == handle_F.place
    return False


# -- the join lattice on the supported fragment ------------------------------------


def handle_contains(a, b) -> bool:
    """Whether the valuation ring of a contains that of b (same field)."""
    if isinstance(a, ValuationHandle) and isinstance(b, ValuationHandle):
        if a.field != b.field:
            raise UnsupportedHandleError("handles on different fields")
        if a.is_trivial():
            return True
        return a == b
    kinds = (GaussHandle, ComposedHandle)
    if isinstance(a, kinds) and isinstance(b, kinds):
        if a.field != b.field:
            raise UnsupportedHandleError("handles on different fields")
        if isinstance(a, GaussHandle):
            if a.is_trivial():
                return True
            if isinstance(b, GaussHandle):
                return a == b
            return b.coarse == a
        # a composed
        if isinstance(b, ComposedHandle):
            return a == b
        return False
    raise UnsupportedHandleError(
        f"unsupported handle pair: {type(a).__name__}, {type(b).__name__}"
    )


def overring_chain(h) -> list:
    """The over-rings of h within the supported family, smallest first."""
    if isinstance(h, ValuationHandle):
        if h.is_trivial():
            return [h]
        return [h, trivial_handle(h.field)]
    if isinstance(h, GaussHandle):
        if h.is_trivial():
            return [h]
        return [h, trivial_gauss(h.field)]
    if isinstance(h, ComposedHandle):
        return [h] + overring_chain(h.coarse)
    raise UnsupportedHandleError(f"unsupported handle {h!r}")


def join(a, b):
    """Least upper bound of two handles in the ring order (same field)."""
    for candidate in overring_chain(a):
        if handle_contains(candidate, b):
            return candidate
    raise UnsupportedHandleError("no join in the supported fragment")

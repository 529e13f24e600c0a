"""Number fields QQ(alpha) with a single generator, and their maps.

Fields are always presented tower-free: QQ[x]/(minpoly) with a monic
irreducible minpoly over QQ.  Extensions built here (splitting fields,
composita) search for a primitive element alpha + k*beta and certify it
exactly, so every downstream module sees one generator.
"""

from __future__ import annotations

from fractions import Fraction

from treeval.errors import PreconditionError, ResourceBoundError
from treeval.polys import QQ, Poly, lagrange_interpolate, resultant
from treeval.qfactor import factor_over_Q, is_irreducible_over_Q

DEFAULT_DEGREE_BOUND = 6
DEFAULT_FIELD_CAP = 64


class FieldElement:
    """Element of a NumberField, represented by its residue polynomial."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep: Poly):
        self.field = field
        self.rep = rep % field.minpoly if rep.degree >= field.degree else rep

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.coerce(other)
        return (
            isinstance(other, FieldElement)
            and self.field.minpoly == other.field.minpoly
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.field.minpoly.coeffs, self.rep.coeffs))

    def __repr__(self):
        return f"<{self.rep!r} in {self.field.label}>"

    def is_zero(self):
        return self.rep.is_zero()

    def is_rational(self):
        return self.rep.degree <= 0

    def as_rational(self) -> Fraction:
        if self.rep.degree > 0:
            raise ValueError("element is not rational")
        return self.rep[0]

    def _coerced(self, other):
        if isinstance(other, (int, Fraction)):
            return self.field.coerce(other)
        if isinstance(other, FieldElement):
            return other
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.rep + o.rep)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, -self.rep)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, (self.rep * o.rep) % self.field.minpoly)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * self.field.inv(o)

    def __rtruediv__(self, other):
        return self.field.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.field.inv(self) ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def key(self):
        """Canonical sort key (degree-padded coefficient tuple)."""
        return tuple(self.rep[i] for i in range(self.field.degree))


class NumberField:
    """QQ[x]/(minpoly) with minpoly monic irreducible over QQ."""

    def __init__(self, minpoly: Poly, label: str = "K", check=True):
        if not minpoly.is_monic() or minpoly.degree < 1:
            raise ValueError("minpoly must be monic of degree >= 1")
        if check and minpoly.degree > 1 and not is_irreducible_over_Q(minpoly):
            raise ValueError("minpoly is not irreducible over QQ")
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self.label = label
        self.char = 0
        self.zero = FieldElement(self, Poly.zero(QQ))
        self.one = FieldElement(self, Poly.one(QQ))
        self.gen = FieldElement(self, Poly.x(QQ))

    def __repr__(self):
        return f"NumberField({self.label}, deg {self.degree})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly.coeffs)

    def coerce(self, x) -> FieldElement:
        if isinstance(x, FieldElement):
            if x.field.minpoly == self.minpoly:
                return x
            if x.is_rational():
                return self.coerce(x.as_rational())
            raise TypeError("cannot coerce across distinct number fields")
        if isinstance(x, (int, Fraction)):
            return FieldElement(self, Poly.const(QQ, Fraction(x)))
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def elem(self, coeffs) -> FieldElement:
        return FieldElement(self, Poly(QQ, [Fraction(c) for c in coeffs]))

    def inv(self, a: FieldElement) -> FieldElement:
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        g, s, _ = a.rep.xgcd(self.minpoly)
        if g.degree != 0:
            raise ArithmeticError("minpoly not irreducible")
        return FieldElement(self, s.scale(QQ.inv(g[0])) % self.minpoly)

    def is_rational_field(self) -> bool:
        return self.degree == 1


QQ_FIELD = NumberField(Poly.x(QQ), label="Q", check=False)


class FieldEmbedding:
    """Field embedding determined by the image of the source generator."""

    __slots__ = ("source", "target", "image")

    def __init__(self, source: NumberField, target: NumberField, image, check=True):
        self.source = source
        self.target = target
        self.image = target.coerce(image)
        if check:
            val = source.minpoly.map_coeffs(
                target, target.coerce
            ).evaluate(self.image)
            if not val.is_zero():
                raise ValueError("image of generator is not a root of minpoly")

    def __call__(self, elem) -> FieldElement:
        elem = self.source.coerce(elem)
        acc = self.target.zero
        for c in reversed(elem.rep.coeffs):
            acc = acc * self.image + self.target.coerce(c)
        return acc

    def map_poly(self, f: Poly) -> Poly:
        """Map a polynomial over the source field coefficient-wise."""
        return Poly(self.target, [self(c) for c in f.coeffs], normalize=False)

    def compose(self, earlier: "FieldEmbedding") -> "FieldEmbedding":
        """self o earlier (earlier applies first)."""
        if earlier.target != self.source:
            raise ValueError("embeddings do not compose")
        return FieldEmbedding(
            earlier.source, self.target, self(earlier.image), check=False
        )

    def is_identity(self) -> bool:
        return self.source == self.target and self.image == self.target.gen

    def __eq__(self, other):
        return (
            isinstance(other, FieldEmbedding)
            and self.source == other.source
            and self.target == other.target
            and self.image == other.image
        )

    def __hash__(self):
        return hash((self.source.minpoly.coeffs, self.image.key()))

    def __repr__(self):
        return f"Embedding({self.source.label} -> {self.target.label}, gen -> {self.image.rep!r})"


def identity_embedding(field: NumberField) -> FieldEmbedding:
    return FieldEmbedding(field, field, field.gen, check=False)


def rational_embedding(field: NumberField) -> FieldEmbedding:
    """The unique embedding of QQ into any number field."""
    return FieldEmbedding(QQ_FIELD, field, field.zero, check=False)


# -- linear algebra over QQ -----------------------------------------------------


def solve_linear_qq(vectors: list[tuple], target: tuple):
    """Coefficients c with sum c_i * vectors[i] = target, or None."""
    ncols = len(vectors)
    nrows = len(target)
    mat = [
        [Fraction(vectors[c][r]) for c in range(ncols)] + [Fraction(target[r])]
        for r in range(nrows)
    ]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        for r in range(nrows):
            if r != row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
    for r in range(row, nrows):
        if mat[r][-1] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = mat[r][-1]
    return sol


def minimal_polynomial(a: FieldElement) -> Poly:
    """Monic minimal polynomial of a over QQ (degree divides field degree)."""
    field = a.field
    n = field.degree
    powers = [field.one]
    for _ in range(n):
        powers.append(powers[-1] * a)
    vecs = []
    for k in range(1, n + 1):
        vecs = [p.key() for p in powers[:k]]
        sol = solve_linear_qq(vecs, powers[k].key())
        if sol is not None:
            return Poly(QQ, [-c for c in sol] + [Fraction(1)])
    raise ArithmeticError("no minimal polynomial found")  # unreachable


def relative_minimal_polynomial(a: FieldElement, emb: FieldEmbedding) -> Poly:
    """Minimal polynomial of a over the embedded subfield emb.source."""
    M = a.field
    F = emb.source
    if emb.target != M:
        raise ValueError("embedding target must be the element's field")
    n = M.degree
    fdeg = F.degree
    base_images = [emb(FieldElement(F, Poly.monomial(QQ, Fraction(1), i))) for i in range(fdeg)]
    powers = [M.one]
    for _ in range(n):
        powers.append(powers[-1] * a)
    for k in range(1, n + 1):
        vecs = []
        for j in range(k):
            for b in base_images:
                vecs.append((powers[j] * b).key())
        sol = solve_linear_qq(vecs, powers[k].key())
        if sol is not None:
            coeffs = []
            for j in range(k):
                block = sol[j * fdeg : (j + 1) * fdeg]
                coeffs.append(FieldElement(F, Poly(QQ, block)))
            coeffs = [-c for c in coeffs] + [F.one]
            return Poly(F, coeffs)
    raise ArithmeticError("no relative minimal polynomial found")  # unreachable


# -- factorization over a number field ------------------------------------------


def _norm_polynomial(K: NumberField, f: Poly) -> Poly:
    """Res_y(minpoly(y), f(x) with alpha -> y), computed by interpolation."""
    A = K.minpoly
    target_degree = A.degree * f.degree
    pts = []
    x0 = 0
    while len(pts) < target_degree + 1:
        # f with alpha replaced by y, evaluated at x = x0: a poly in y
        acc = Poly.zero(QQ)
        power = Fraction(1)
        for c in f.coeffs:
            acc = acc + c.rep.scale(power)
            power *= x0
        pts.append((Fraction(x0), resultant(A, acc)))
        x0 = -x0 + (1 if x0 <= 0 else 0)
    return lagrange_interpolate(QQ, pts)


def factor_over_field(K: NumberField, f: Poly) -> list[tuple[Poly, int]]:
    """Irreducible factorization of f over K: [(monic factor, multiplicity)]."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if K.is_rational_field():
        fq = Poly(QQ, [c.as_rational() for c in f.coeffs])
        return [
            (g.map_coeffs(K, K.coerce), m) for g, m in factor_over_Q(fq)
        ]
    out = []
    for g, mult in f.squarefree_decomposition():
        for irr in _factor_squarefree_over_field(K, g):
            out.append((irr, mult))
    out.sort(key=lambda fm: (fm[0].degree, [c.key() for c in fm[0].coeffs]))
    return out


def _factor_squarefree_over_field(K: NumberField, g: Poly) -> list[Poly]:
    if g.degree <= 1:
        return [g.monic()]
    alpha = K.gen
    for s in _shift_candidates():
        shifted = g.shift(alpha * (-s)) if s else g
        norm = _norm_polynomial(K, shifted)
        if norm.gcd(norm.derivative()).degree == 0:
            break
    else:
        raise ArithmeticError("no squarefree norm found")  # practically unreachable
    out = []
    h = shifted
    for H, _ in factor_over_Q(norm):
        if h.degree == 0:
            break
        HK = H.map_coeffs(K, K.coerce)
        cand = h.gcd(HK)
        if cand.degree > 0:
            out.append(cand.monic())
            h = h // cand
    if s:
        # undo the substitution x -> x - s*alpha
        out = [q.shift(alpha * s).monic() for q in out]
    return out


def _shift_candidates():
    yield 0
    k = 1
    while k <= 40:
        yield k
        yield -k
        k += 1


def roots_in_field(K: NumberField, f: Poly) -> list[FieldElement]:
    """Roots of f (over K) in K, canonical order, no multiplicity."""
    roots = [
        -g.coeffs[0] for g, _ in factor_over_field(K, f) if g.degree == 1
    ]
    roots.sort(key=lambda r: r.key())
    return roots


# -- primitive elements and splitting fields -------------------------------------


class SplittingData:
    """Result of a splitting-field computation."""

    __slots__ = ("field", "roots", "base_embedding")

    def __init__(self, field, roots, base_embedding):
        self.field = field
        self.roots = roots
        self.base_embedding = base_embedding


def extend_by_irreducible(L: NumberField, g: Poly, field_cap=DEFAULT_FIELD_CAP):
    """Adjoin a root of the monic irreducible g over L.

    Returns (M, emb L->M, beta) with M = QQ(gamma) single-generator and
    beta a root of g in M.  gamma = beta + s*alpha for a small certified s.
    """
    if g.degree < 2:
        raise ValueError("use roots_in_field for linear polynomials")
    new_degree = L.degree * g.degree
    if new_degree > field_cap:
        raise ResourceBoundError(
            f"extension degree {new_degree} exceeds the field cap {field_cap}"
        )
    if L.is_rational_field():
        gq = Poly(QQ, [c.as_rational() for c in g.coeffs])
        M = NumberField(gq, label=f"{L.label}-ext{gq.degree}", check=False)
        emb = FieldEmbedding(L, M, M.zero, check=False)
        return M, emb, M.gen
    alpha = L.gen
    A = L.minpoly
    for s in _shift_candidates():
        shifted = g.shift(alpha * (-s))
        C = _norm_polynomial(L, shifted)
        if C.gcd(C.derivative()).degree != 0:
            continue
        # C is irreducible (norm of an irreducible with squarefree norm)
        M = NumberField(C, label=f"{L.label}-ext{C.degree}", check=False)
        gamma = M.gen
        # alpha's image: common root of A and g~(gamma - s*z) over M
        AM = A.map_coeffs(M, M.coerce)
        H = Poly.zero(M)
        lin = Poly(M, [gamma, M.coerce(-s)])  # gamma - s*z as poly in z
        for j, c in enumerate(g.coeffs):
            cz = c.rep.map_coeffs(M, M.coerce)  # alpha -> z
            H = H + cz * lin**j
        d = AM.gcd(H)
        if d.degree != 1:
            continue
        alpha_img = -d.coeffs[0] / d.coeffs[1]
        emb = FieldEmbedding(L, M, alpha_img)
        beta = gamma - emb(alpha) * s
        gm = emb.map_poly(g)
        if not gm.evaluate(beta).is_zero():
            continue
        return M, emb, beta
    raise ArithmeticError("no primitive element found")  # practically unreachable


def splitting_field(
    f: Poly,
    base: NumberField = QQ_FIELD,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
    field_cap: int = DEFAULT_FIELD_CAP,
) -> SplittingData:
    """Splitting field of f over the base, with all roots and the embedding.

    f may be given over QQ or over the base field.  The returned field is
    normal over the base; roots are listed in canonical order and their
    count equals the degree of the squarefree part of f.
    """
    if f.is_zero():
        raise ValueError("cannot split the zero polynomial")
    if f.degree > degree_bound:
        raise ResourceBoundError(
            f"degree {f.degree} exceeds the splitting bound {degree_bound}"
        )
    if f.field is QQ or isinstance(f.coeffs[0], Fraction):
        f = f.map_coeffs(base, base.coerce)
    L = base
    emb = identity_embedding(base)
    roots: list[FieldElement] = []
    pending: list[Poly] = []
    for g, _ in factor_over_field(base, f):
        if g.degree == 1:
            roots.append(-g.coeffs[0])
        else:
            pending.append(g)
    while pending:
        pending.sort(key=lambda q: (q.degree, [c.key() for c in q.coeffs]))
        g = pending.pop(0)
        M, step, beta = extend_by_irreducible(L, g, field_cap=field_cap)
        roots = [step(r) for r in roots] + [beta]
        emb = step.compose(emb)
        # g is irreducible, hence separable: only its cofactor by x - beta
        # is left to split over M.
        cofactor, rem = step.map_poly(g).divmod(Poly(M, [-beta, M.one]))
        if not rem.is_zero():
            raise ArithmeticError("adjoined element is not a root of its polynomial")
        old_pending = [step.map_poly(q) for q in pending]
        pending = []
        if cofactor.degree == 1:
            roots.append(-cofactor.coeffs[0])
        else:
            old_pending.append(cofactor)
        for q in old_pending:
            for h, _ in factor_over_field(M, q):
                if h.degree == 1:
                    roots.append(-h.coeffs[0])
                else:
                    pending.append(h)
        L = M
    roots.sort(key=lambda r: r.key())
    return SplittingData(L, roots, emb)


# -- automorphisms ----------------------------------------------------------------


_AUT_CACHE: dict = {}


def automorphisms(L: NumberField) -> list[FieldEmbedding]:
    """All automorphisms of L over QQ; requires L normal over QQ."""
    key = L.minpoly.coeffs
    hit = _AUT_CACHE.get(key)
    if hit is not None:
        return hit
    rts = roots_in_field(L, L.minpoly.map_coeffs(L, L.coerce))
    if len(rts) != L.degree:
        raise PreconditionError(
            f"{L.label} is not normal over QQ "
            f"({len(rts)} of {L.degree} conjugates present)"
        )
    auts = [FieldEmbedding(L, L, r, check=False) for r in rts]
    _AUT_CACHE[key] = auts
    return auts


def relative_automorphisms(L: NumberField, emb: FieldEmbedding) -> list[FieldEmbedding]:
    """Automorphisms of L fixing the embedded image of emb.source pointwise."""
    if emb.target != L:
        raise ValueError("embedding target must be L")
    fixed = emb.image
    return [s for s in automorphisms(L) if s(fixed) == fixed]


def is_normal(L: NumberField) -> bool:
    if L.is_rational_field():
        return True
    return len(roots_in_field(L, L.minpoly.map_coeffs(L, L.coerce))) == L.degree

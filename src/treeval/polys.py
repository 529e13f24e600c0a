"""Dense univariate polynomials over an arbitrary coefficient field.

A coefficient field is any object exposing ``zero``, ``one``,
``coerce(x)``, and ``inv(a)``; elements must support ``+ - * ==`` among
themselves.  ``fractions.Fraction`` elements satisfy this with the
:data:`QQ` descriptor below; finite fields and number fields provide
their own descriptors.

Coefficients are stored constant term first with no trailing zeros, so
``Poly(QQ, [1, 0, 1])`` is ``x^2 + 1``.
"""

from __future__ import annotations

from fractions import Fraction


class _PlusInfinity:
    """Order-absorbing +infinity used for valuations of zero."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("treeval-+inf")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __neg__(self):
        raise ArithmeticError("cannot negate +inf")


INF = _PlusInfinity()


def vp_int(n: int, p: int):
    """p-adic valuation of a nonzero integer; INF for 0."""
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(q: Fraction, p: int):
    """p-adic valuation of a rational, INF for 0."""
    if q == 0:
        return INF
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


class RationalField:
    """Field descriptor for `fractions.Fraction`."""

    zero = Fraction(0)
    one = Fraction(1)
    char = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def inv(self, a):
        return 1 / a

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class Poly:
    """Immutable dense polynomial over a fixed coefficient field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs, normalize=True):
        self.field = field
        cs = [field.coerce(c) for c in coeffs]
        if normalize:
            while cs and cs[-1] == field.zero:
                cs.pop()
        self.coeffs = tuple(cs)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(field) -> "Poly":
        return Poly(field, [])

    @staticmethod
    def one(field) -> "Poly":
        return Poly(field, [field.one])

    @staticmethod
    def x(field) -> "Poly":
        return Poly(field, [field.zero, field.one])

    @staticmethod
    def const(field, c) -> "Poly":
        return Poly(field, [c])

    @staticmethod
    def monomial(field, c, n: int) -> "Poly":
        return Poly(field, [field.zero] * n + [c])

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == self.field.zero:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs], normalize=False)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        zero = self.field.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def scale(self, c) -> "Poly":
        c = self.field.coerce(c)
        return Poly(self.field, [a * c for a in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading()
        if lc == self.field.one:
            return self
        return self.scale(self.field.inv(lc))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        db = other.degree
        lc = other.leading()
        inv_lc = None if lc == field.one else field.inv(lc)
        quo = [field.zero] * max(0, len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == field.zero:
                continue
            q = c if inv_lc is None else c * inv_lc
            quo[i - db] = q
            for j, b in enumerate(other.coeffs):
                rem[i - db + j] = rem[i - db + j] - q * b
        return Poly(field, quo), Poly(field, rem[:db])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd via the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def xgcd(self, other: "Poly") -> tuple["Poly", "Poly", "Poly"]:
        """Return (g, s, t) monic with s*self + t*other = g."""
        field = self.field
        r0, r1 = self, other
        s0, s1 = Poly.one(field), Poly.zero(field)
        t0, t1 = Poly.zero(field), Poly.one(field)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero() or r0.is_monic():
            return r0, s0, t0
        lc_inv = field.inv(r0.leading())
        return r0.scale(lc_inv), s0.scale(lc_inv), t0.scale(lc_inv)

    def derivative(self) -> "Poly":
        field = self.field
        out = [field.coerce(i) * c for i, c in enumerate(self.coeffs) if i > 0]
        return Poly(field, out)

    def evaluate(self, point):
        """Horner evaluation; the point must multiply with coefficients."""
        if not self.coeffs:
            zero = self.field.zero
            return zero * point if not isinstance(point, (int, Fraction)) else zero
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * point + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(self.field, c)
        return acc

    def shift(self, c) -> "Poly":
        """self(x + c)."""
        return self.compose(Poly(self.field, [c, self.field.one]))

    def map_coeffs(self, target_field, fn) -> "Poly":
        return Poly(target_field, [fn(c) for c in self.coeffs])

    # -- field-characteristic-0 helpers ---------------------------------------

    def squarefree_decomposition(self) -> list[tuple["Poly", int]]:
        """Yun's algorithm (characteristic 0): [(g_i, i)] with prod g_i^i = monic(self)."""
        f = self.monic()
        if f.degree <= 0:
            return []
        out = []
        df = f.derivative()
        a = f.gcd(df)
        b = f // a
        c = df // a
        d = c - b.derivative()
        i = 1
        while b.degree > 0:
            g = b.gcd(d)
            if g.degree > 0:
                out.append((g.monic(), i))
            b = b // g
            c = d // g
            d = c - b.derivative()
            i += 1
        return out


def resultant(f: Poly, g: Poly):
    """Resultant of two polynomials over a field, exact.

    Euclidean recursion: res(f,g) = (-1)^(mn) lc(g)^(m - deg r) res(g, r)
    for r = f mod g.
    """
    field = f.field
    if f.is_zero() or g.is_zero():
        return field.zero
    m, n = f.degree, g.degree
    if n == 0:
        c = g.coeffs[0]
        acc = field.one
        for _ in range(m):
            acc = acc * c
        return acc
    if m == 0:
        c = f.coeffs[0]
        acc = field.one
        for _ in range(n):
            acc = acc * c
        return acc
    r = f % g
    if r.is_zero():
        return field.zero
    lc = g.leading()
    acc = resultant(g, r)
    for _ in range(m - r.degree):
        acc = acc * lc
    if (m * n) % 2 == 1:
        acc = -acc
    return acc


def discriminant(f: Poly):
    """disc(f) = (-1)^(m(m-1)/2) res(f, f') / lc(f)."""
    field = f.field
    m = f.degree
    if m < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = resultant(f, f.derivative())
    r = r * field.inv(f.leading())
    if (m * (m - 1) // 2) % 2 == 1:
        r = -r
    return r


def lagrange_interpolate(field, points) -> Poly:
    """Unique polynomial through [(x_i, y_i)], x_i distinct field scalars."""
    result = Poly.zero(field)
    xs = [field.coerce(x) for x, _ in points]
    for i, (_, yi) in enumerate(points):
        num = Poly.one(field)
        den = field.one
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * Poly(field, [-xj, field.one])
            den = den * (xs[i] - xj)
        result = result + num.scale(field.coerce(yi) * field.inv(den))
    return result

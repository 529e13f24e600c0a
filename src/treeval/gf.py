"""Finite fields F_{p^m} with a deterministic canonical modulus, and
exact factorization in F_{p^m}[x] on an integer-backed kernel.

The modulus for F_{p^m} is the lexicographically least monic irreducible
of degree m over F_p, where candidates x^m + c_{m-1} x^{m-1} + ... + c_0
are ordered by the integer c_0 + c_1 p + ... + c_{m-1} p^{m-1}.  This
makes residue fingerprints and sibling orderings reproducible across
runs and serializable.

Elements are coefficient tuples over F_p (constant first).

``poly_factor``, ``poly_roots`` and ``poly_is_irreducible`` take and
return ``Poly`` over ``FF``.  Each call converts its input once into
plain Python data and runs on the field's kernel (``FF.kernel``), then
converts the factors back.  Over F_p a polynomial is a list of ints mod
p, handled by the int-list helpers (``_zmul``, ``_zdivmod_monic``, ...)
that ``qfactor`` also lifts with.  Over F_{p^m}, m > 1, it is a list of
m-tuples of ints; coefficient products are accumulated unreduced and
reduced once against the modulus by ``FF._reduce``.  Divisors are kept
monic, so an inverse is computed only to make a gcd remainder monic.

The kernel runs a squarefree decomposition, distinct-degree splitting
and Cantor-Zassenhaus equal-degree splitting (von zur Gathen and Shoup,
"Computing Frobenius maps and factoring polynomials", 1992) with trial
polynomials from a fixed-seed generator, so every run does the same
work; irreducibility is Ben-Or's test.  Factorization into monic
irreducibles is unique and the result is sorted by (degree, coefficient
key), so the output depends neither on the representation nor on which
trial polynomial split a factor.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from treeval.errors import ResourceBoundError
from treeval.polys import Poly

# Equal-degree splitting gives up after this many trial polynomials.
EDF_MAX_TRIALS = 100_000


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- int-list polynomials over Z/m (constant first, no trailing zeros) ---------
# F_p[x] in the factoring kernel; qfactor also lifts over Z/p^k with them.


def _ztrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _zmul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _ztrim([c % m for c in out])


def _zadd(a, b, m):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % m
    return _ztrim(out)


def _zsub(a, b, m):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % m
    return _ztrim(out)


def _zscale(a, c, m):
    return _ztrim([x * c % m for x in a])


def _zdivmod_monic(a, b, m):
    """Divide by a monic divisor b over Z/m."""
    assert b and b[-1] % m == 1
    rem = list(a)
    db = len(b) - 1
    low = b[:-1]
    quo = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % m
        if c:
            quo[i - db] = c
            for j, y in enumerate(low, i - db):
                rem[j] -= c * y
    return _ztrim(quo), _ztrim([x % m for x in rem[:db]])


def _zxgcd(a, b, p):
    """Monic gcd g over F_p with s*a + t*b = g; returns (g, s, t)."""
    r0, s0, t0 = _ztrim([c % p for c in a]), [1], []
    r1, s1, t1 = _ztrim([c % p for c in b]), [], [1]
    while r1:
        u = pow(r1[-1], -1, p)
        r1, s1, t1 = _zscale(r1, u, p), _zscale(s1, u, p), _zscale(t1, u, p)
        q, r = _zdivmod_monic(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zsub(s0, _zmul(q, s1, p), p)
        t0, t1 = t1, _zsub(t0, _zmul(q, t1, p), p)
    if r0 and r0[-1] != 1:
        u = pow(r0[-1], -1, p)
        r0, s0, t0 = _zscale(r0, u, p), _zscale(s0, u, p), _zscale(t0, u, p)
    return r0, s0, t0


class FFElem:
    """Element of F_{p^m}: tuple of ints in [0, p), constant first."""

    __slots__ = ("field", "vec")

    def __init__(self, field, vec):
        self.field = field
        self.vec = tuple(vec)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.field.coerce(other)
        return (
            isinstance(other, FFElem)
            and self.field == other.field
            and self.vec == other.vec
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.vec))

    def __repr__(self):
        return f"FF({self.field.p}^{self.field.m}:{','.join(map(str, self.vec))})"

    def is_zero(self):
        return all(c == 0 for c in self.vec)

    def __add__(self, other):
        other = self.field.coerce(other)
        p = self.field.p
        return FFElem(self.field, [(a + b) % p for a, b in zip(self.vec, other.vec)])

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElem(self.field, [(-a) % p for a in self.vec])

    def __sub__(self, other):
        return self + (-self.field.coerce(other))

    def __rsub__(self, other):
        return self.field.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.coerce(other)
        if not isinstance(other, FFElem):
            return NotImplemented
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        f = self.field
        if n < 0:
            return f.inv(self) ** (-n)
        result = f.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def key(self):
        """Canonical sort key."""
        return self.vec


class FF:
    """The finite field F_{p^m} on the canonical modulus."""

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.m = m
        self.char = p
        self.size = p**m
        self.modulus = _canonical_modulus(p, m)
        # x^m = -sum(r * x^j): the nonzero terms (j, r) that _reduce folds in
        self._fold = tuple((j, r) for j, r in enumerate(self.modulus) if r)
        self.zero = FFElem(self, [0] * m)
        self.one = FFElem(self, [1 % p] + [0] * (m - 1))
        self.gen = FFElem(self, [0, 1] + [0] * (m - 2)) if m >= 2 else self.one
        self.kernel = _PrimeKernel(self) if m == 1 else _ExtKernel(self)

    def __repr__(self):
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other):
        return isinstance(other, FF) and self.p == other.p and self.m == other.m

    def __hash__(self):
        return hash(("FF", self.p, self.m))

    def coerce(self, x) -> FFElem:
        if isinstance(x, FFElem):
            if x.field is self or x.field == self:
                return FFElem(self, x.vec)
            raise TypeError(f"element of {x.field} in {self}")
        if isinstance(x, int):
            return FFElem(self, [x % self.p] + [0] * (self.m - 1))
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def elem(self, vec) -> FFElem:
        vec = list(vec)
        if len(vec) > self.m:
            raise ValueError(f"vector of length {len(vec)} in {self!r}")
        vec = vec + [0] * (self.m - len(vec))
        return FFElem(self, [c % self.p for c in vec])

    def _reduce(self, v: list[int]) -> tuple[int, ...]:
        """Reduce an int list (powers of the generator, length at least m)
        modulo p and the modulus; overwrites v."""
        p, m = self.p, self.m
        for i in range(len(v) - 1, m - 1, -1):
            c = v[i] % p
            if c:
                low = i - m
                for j, r in self._fold:
                    v[low + j] -= c * r
        return tuple([c % p for c in v[:m]])

    def _vmul(self, a: tuple, b: tuple) -> tuple[int, ...]:
        v = [0] * (2 * self.m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    v[j] += x * y
        return self._reduce(v)

    def _vinv(self, a: tuple) -> tuple[int, ...]:
        _, s, _ = _zxgcd(a, list(self.modulus) + [1], self.p)
        return tuple(s) + (0,) * (self.m - len(s))

    def _mul(self, a: FFElem, b: FFElem) -> FFElem:
        if self.m == 1:
            return FFElem(self, [(a.vec[0] * b.vec[0]) % self.p])
        return FFElem(self, self._vmul(a.vec, b.vec))

    def inv(self, a: FFElem) -> FFElem:
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero in finite field")
        if self.m == 1:
            return FFElem(self, [pow(a.vec[0], -1, self.p)])
        return FFElem(self, self._vinv(a.vec))

    def elements(self):
        """All elements in canonical (tuple-lexicographic) order."""
        for vec in itertools.product(range(self.p), repeat=self.m):
            yield FFElem(self, vec)


@lru_cache(maxsize=None)
def GF(p: int, m: int = 1) -> FF:
    return FF(p, m)


@lru_cache(maxsize=None)
def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Non-leading coefficients of the canonical modulus of F_{p^m}."""
    if m == 1:
        return (0,)
    kernel = GF(p, 1).kernel
    for n in range(p**m):
        digits = []
        k = n
        for _ in range(m):
            digits.append(k % p)
            k //= p
        if kernel.is_irreducible(digits + [1]):
            return tuple(digits)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# -- the factoring kernel ---------------------------------------------------------


class _Kernel:
    """Factoring in F_q[x] on plain Python coefficients.

    A subclass fixes the coefficient representation and supplies the
    ring primitives.  Polynomials are lists, constant first, with no
    trailing zeros; every divisor handed to ``divmod`` must be monic.
    """

    def __init__(self, field: FF):
        self.field = field
        self.p = field.p
        self.q = field.size

    def rem(self, a, b):
        return self.divmod(a, b)[1]

    def mulmod(self, a, b, f):
        return self.rem(self.mul(a, b), f)

    def quo(self, a, b):
        return self.divmod(a, b)[0]

    def powmod(self, a, n: int, f):
        """a^n mod the monic f."""
        result = self.one
        base = self.rem(a, f)
        while n:
            if n & 1:
                result = self.mulmod(result, base, f)
            n >>= 1
            if n:
                base = self.mulmod(base, base, f)
        return result

    def gcd(self, a, b):
        """Monic gcd by the Euclidean algorithm on monic remainders."""
        a = self.monic(a)
        while b:
            b = self.monic(b)
            a, b = b, self.rem(a, b)
        return a

    def is_irreducible(self, f) -> bool:
        """Ben-Or: a reducible f has an irreducible factor of degree
        d <= deg f / 2, and then gcd(f, x^(q^d) - x) != 1."""
        n = len(f) - 1
        if n <= 0:
            return False
        f = self.monic(f)
        h = self.x
        for _ in range(n // 2):
            h = self.powmod(h, self.q, f)
            if len(self.gcd(f, self.sub(h, self.x))) > 1:
                return False
        return True

    def factor(self, f) -> list:
        """[(monic irreducible, multiplicity)] of f, deg f >= 1, unsorted."""
        out = []
        for g, k in self.squarefree(self.monic(f)):
            for part, d in self.distinct_degree(g):
                out.extend((irr, k) for irr in self.equal_degree_split(part, d))
        return out

    def squarefree(self, f) -> list:
        """[(g, k)] with prod g^k = f for monic f; characteristic-p
        algorithm, taking p-th roots of parts that are p-th powers."""
        p = self.p
        out: dict = {}

        def merge(g, k):
            if len(g) > 1:
                out[k] = self.mul(out[k], g) if k in out else g

        def sff(f, outer):
            df = self.derivative(f)
            if not df:
                sff(self.pth_root(f), outer * p)
                return
            c = self.gcd(f, df)
            w = self.quo(f, c)
            i = 1
            while len(w) > 1:
                y = self.gcd(w, c)
                merge(self.quo(w, y), outer * i)
                i += 1
                w = y
                c = self.quo(c, y)
            if len(c) > 1:
                sff(self.pth_root(c), outer * p)

        sff(f, 1)
        return [(g, k) for k, g in sorted(out.items())]

    def pth_root(self, f):
        """g with g(x^p) = f, for f with zero derivative."""
        return [self.root_p(c) for c in f[:: self.p]]

    def distinct_degree(self, f) -> list:
        """Split a monic squarefree f into products of irreducibles of equal degree."""
        out = []
        x = self.x
        h = x
        rest = f
        d = 0
        while len(rest) > 1:
            d += 1
            if 2 * d > len(rest) - 1:
                out.append((rest, len(rest) - 1))
                break
            h = self.powmod(h, self.q, rest)
            g = self.gcd(rest, self.sub(h, x))
            if len(g) > 1:
                out.append((g, d))
                rest = self.quo(rest, g)
                h = self.rem(h, rest)
        return out

    def equal_degree_split(self, f, d: int) -> list:
        """Factor monic squarefree f whose irreducible factors all have degree d."""
        if len(f) - 1 == d:
            return [f]
        work = [f]
        done = []
        trials = 0
        state = 0
        while work:
            g = work.pop()
            if len(g) - 1 == d:
                done.append(g)
                continue
            while True:
                if trials >= EDF_MAX_TRIALS:
                    raise ResourceBoundError(
                        f"gf.poly_factor: equal-degree splitting over {self.field!r} "
                        f"found no split in {EDF_MAX_TRIALS} trial polynomials"
                    )
                trials += 1
                a, state = self.trial(state, len(g) - 1)
                if len(a) <= 1:
                    continue
                split = self.gcd(g, self.splitter(a, g, d))
                if 1 < len(split) < len(g):
                    break
            work.append(split)
            work.append(self.quo(g, split))
        return done

    def splitter(self, a, g, d: int):
        """A polynomial whose gcd with g likely splits g: the trace of a
        over F_2 in characteristic 2, else a^((q^d - 1)/2) - 1."""
        if self.p == 2:
            t = self.rem(a, g)
            acc = t
            for _ in range(self.field.m * d - 1):
                t = self.mulmod(t, t, g)
                acc = self.add(acc, t)
            return acc
        return self.sub(self.powmod(a, (self.q**d - 1) // 2, g), self.one)

    def trial(self, state: int, n: int):
        """A pseudo-random polynomial of degree < n and the next state of
        the generator (Knuth's MMIX linear congruential generator), so
        every run tries the same sequence."""
        coeffs = []
        for _ in range(n):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            coeffs.append(self.elem((state >> 16) % self.q))
        return self.trim(coeffs), state


class _PrimeKernel(_Kernel):
    """F_p[x] as lists of ints in [0, p)."""

    def __init__(self, field: FF):
        super().__init__(field)
        self.one = [1]
        self.x = [0, 1]

    def from_poly(self, f: Poly) -> list[int]:
        return [c.vec[0] for c in f.coeffs]

    def to_poly(self, a) -> Poly:
        return Poly(self.field, a)

    def elem(self, r: int) -> int:
        return r

    def root_p(self, c: int) -> int:
        return c

    def trim(self, a):
        return _ztrim(a)

    def mul(self, a, b):
        return _zmul(a, b, self.p)

    def add(self, a, b):
        return _zadd(a, b, self.p)

    def sub(self, a, b):
        return _zsub(a, b, self.p)

    def divmod(self, a, b):
        return _zdivmod_monic(a, b, self.p)

    def monic(self, a):
        if not a or a[-1] == 1:
            return a
        return _zscale(a, pow(a[-1], -1, self.p), self.p)

    def derivative(self, a):
        p = self.p
        return _ztrim([i * c % p for i, c in enumerate(a)][1:])


class _ExtKernel(_Kernel):
    """F_{p^m}[x], m > 1, as lists of m-tuples of ints in [0, p)."""

    def __init__(self, field: FF):
        super().__init__(field)
        self.m = field.m
        self.zero = field.zero.vec
        self.one = [field.one.vec]
        self.x = [self.zero, field.one.vec]

    def from_poly(self, f: Poly) -> list[tuple]:
        return [c.vec for c in f.coeffs]

    def to_poly(self, a) -> Poly:
        return Poly(self.field, [FFElem(self.field, c) for c in a])

    def elem(self, r: int) -> tuple:
        vec = []
        for _ in range(self.m):
            r, c = divmod(r, self.p)
            vec.append(c)
        return tuple(vec)

    def root_p(self, c: tuple) -> tuple:
        return (FFElem(self.field, c) ** (self.q // self.p)).vec

    def trim(self, a):
        while a and a[-1] == self.zero:
            a.pop()
        return a

    def _product(self, a, b) -> list[list[int]]:
        """Coefficients of a*b as unreduced int lists of length 2m - 1."""
        w = 2 * self.m - 1
        rows = [[0] * w for _ in range(len(a) + len(b) - 1)]
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                row = rows[j]
                for s, xs in enumerate(x):
                    if xs:
                        for t, yt in enumerate(y, s):
                            row[t] += xs * yt
        return rows

    def _divide(self, rows, b, quo=None):
        """Remainder of unreduced rows by the monic b, reduced; rows are
        overwritten and quotient coefficients stored into quo if given."""
        db = len(b) - 1
        zero = self.zero
        reduce = self.field._reduce
        for i in range(len(rows) - 1, db - 1, -1):
            c = reduce(rows[i])
            if c != zero:
                if quo is not None:
                    quo[i - db] = c
                for j, y in zip(range(i - db, i), b):
                    row = rows[j]
                    for s, cs in enumerate(c):
                        if cs:
                            for t, yt in enumerate(y, s):
                                row[t] -= cs * yt
        return self.trim([reduce(row) for row in rows[:db]])

    def mul(self, a, b):
        if not a or not b:
            return []
        reduce = self.field._reduce
        return self.trim([reduce(row) for row in self._product(a, b)])

    def mulmod(self, a, b, f):
        if not a or not b:
            return []
        return self._divide(self._product(a, b), f)

    def add(self, a, b):
        return self._combine(a, b, 1)

    def sub(self, a, b):
        return self._combine(a, b, -1)

    def _combine(self, a, b, sign):
        p, zero = self.p, self.zero
        n = max(len(a), len(b))
        a = a + [zero] * (n - len(a))
        b = b + [zero] * (n - len(b))
        return self.trim(
            [tuple((u + sign * v) % p for u, v in zip(x, y)) for x, y in zip(a, b)]
        )

    def divmod(self, a, b):
        db = len(b) - 1
        if len(a) <= db:
            return [], list(a)
        pad = [0] * (self.m - 1)
        quo = [self.zero] * (len(a) - db)
        rem = self._divide([list(c) + pad for c in a], b, quo)
        return quo, rem

    def monic(self, a):
        if not a or a[-1] == self.one[0]:
            return a
        field = self.field
        u = field._vinv(a[-1])
        return [field._vmul(c, u) for c in a]

    def derivative(self, a):
        p = self.p
        return self.trim([tuple(i * u % p for u in c) for i, c in enumerate(a)][1:])


# -- polynomial algorithms over F_q -------------------------------------------


def poly_is_irreducible(f: Poly) -> bool:
    """Irreducibility over F_q."""
    kernel = f.field.kernel
    return kernel.is_irreducible(kernel.from_poly(f))


def poly_factor(f: Poly) -> list[tuple[Poly, int]]:
    """Full factorization over F_q: list of (monic irreducible, multiplicity).

    Deterministic: factors are sorted by (degree, coefficient key).
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    kernel = f.field.kernel
    result = kernel.factor(kernel.from_poly(f))
    result.sort(key=lambda gk: (len(gk[0]), gk[0]))
    return [(kernel.to_poly(g), k) for g, k in result]


def poly_roots(f: Poly) -> list[FFElem]:
    """Roots in F_q in canonical order, without multiplicity."""
    roots = []
    for g, _ in poly_factor(f):
        if g.degree == 1:
            roots.append(-g.coeffs[0])
    roots.sort(key=lambda e: e.key())
    return roots


# -- embeddings and relative minimal polynomials -------------------------------


@lru_cache(maxsize=None)
def embedding_generator_image(p: int, a: int, b: int) -> FFElem:
    """Canonical image of the generator of F_{p^a} under F_{p^a} -> F_{p^b}.

    The image is the least root (canonical element order) of the modulus
    of F_{p^a} inside F_{p^b}.  Requires a | b.
    """
    if b % a != 0:
        raise ValueError(f"no embedding F_{p}^{a} -> F_{p}^{b}")
    small, big = GF(p, a), GF(p, b)
    if a == 1:
        return big.one
    if a == b:
        return big.gen
    mod_small = Poly(
        big, [big.coerce(c) for c in small.modulus] + [big.one]
    )
    roots = poly_roots(mod_small)
    if not roots:
        raise RuntimeError("modulus has no root in extension field")
    return roots[0]


def embed(elem: FFElem, big: FF) -> FFElem:
    """Map an element along the canonical embedding into a bigger field."""
    small = elem.field
    if small.p != big.p or big.m % small.m != 0:
        raise ValueError("no embedding between these fields")
    if small.m == big.m:
        return big.coerce(elem)
    img = embedding_generator_image(small.p, small.m, big.m)
    acc = big.zero
    for c in reversed(elem.vec):
        acc = acc * img + big.coerce(c)
    return acc


def map_poly_along(f: Poly, gen_image: FFElem, big: FF) -> Poly:
    """Map a polynomial over F_{p^a} into F_{p^b}[x], sending the
    generator of the coefficient field to ``gen_image``."""
    out = []
    for c in f.coeffs:
        acc = big.zero
        for digit in reversed(c.vec):
            acc = acc * gen_image + big.coerce(digit)
        out.append(acc)
    return Poly(big, out)


def relative_minpoly(a: FFElem, sub_m: int) -> Poly:
    """Minimal polynomial of a over the canonical subfield F_{p^sub_m}.

    Returned over GF(p, sub_m); computed from the Frobenius orbit of a
    under x -> x^(p^sub_m).
    """
    field = a.field
    p = field.p
    if field.m % sub_m != 0:
        raise ValueError("not a subfield")
    sub = GF(p, sub_m)
    q = p**sub_m
    # orbit of a under Frobenius^sub_m
    orbit = [a]
    cur = a**q
    while cur != a:
        orbit.append(cur)
        cur = cur**q
    # product of (x - b) over the orbit, coefficients lie in the subfield
    prod = Poly.one(field)
    for b in orbit:
        prod = prod * Poly(field, [-b, field.one])
    # rewrite coefficients as subfield elements
    img = embedding_generator_image(p, sub_m, field.m) if sub_m > 1 else field.one
    out = []
    for c in prod.coeffs:
        out.append(_express_over_subfield(c, sub, img))
    return Poly(sub, out)


def relative_minpoly_with_embedding(a: FFElem, sub: FF, sub_gen_image: FFElem) -> Poly:
    """Minimal polynomial of a over the subfield spanned by sub_gen_image.

    Unlike :func:`relative_minpoly`, the subfield embedding is the
    explicitly given one (e.g. induced by a valuation), not the
    canonical one.
    """
    field = a.field
    sub_basis = []
    acc = field.one
    for _ in range(sub.m):
        sub_basis.append(acc)
        acc = acc * sub_gen_image
    powers = [field.one]
    for k in range(1, field.m + 1):
        powers.append(powers[-1] * a)
        vecs = [(powers[j] * b).vec for j in range(k) for b in sub_basis]
        sol = _solve_fp(field.p, vecs, powers[k].vec)
        if sol is not None:
            coeffs = [
                -sub.elem(sol[j * sub.m : (j + 1) * sub.m]) for j in range(k)
            ]
            return Poly(sub, coeffs + [sub.one])
    raise ValueError("no relative minimal polynomial found")


def _express_over_subfield(c: FFElem, sub: FF, gen_image: FFElem) -> FFElem:
    """Write c in F_{p^b} as an element of the subfield F_{p^a} (must lie there)."""
    field = c.field
    if sub.m == 1:
        if any(x != 0 for x in c.vec[1:]):
            raise ValueError("element not in prime subfield")
        return sub.coerce(c.vec[0])
    # solve sum_i y_i * gen_image^i = c with y_i in F_p, i < sub.m
    basis = []
    acc = field.one
    for _ in range(sub.m):
        basis.append(acc.vec)
        acc = acc * gen_image
    sol = _solve_fp(field.p, basis, c.vec)
    if sol is None:
        raise ValueError("element not in subfield")
    return sub.elem(sol)


def _solve_fp(p, basis_rows, target):
    """Solve sum x_i * basis_rows[i] = target over F_p; rows are int tuples."""
    ncols = len(target)
    nrows = len(basis_rows)
    # build augmented matrix of the transposed system
    mat = [[basis_rows[r][c] % p for r in range(nrows)] + [target[c] % p]
           for c in range(ncols)]
    rank_cols = []
    row = 0
    for col in range(nrows):
        piv = None
        for r in range(row, ncols):
            if mat[r][col] % p != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = pow(mat[row][col], -1, p)
        mat[row] = [(v * inv) % p for v in mat[row]]
        for r in range(ncols):
            if r != row and mat[r][col] % p != 0:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[row])]
        rank_cols.append(col)
        row += 1
    # check consistency
    for r in range(row, ncols):
        if mat[r][-1] % p != 0:
            return None
    sol = [0] * nrows
    for r, col in enumerate(rank_cols):
        sol[col] = mat[r][-1] % p
    return sol

"""Reference F_q[x] factoring on the generic ``Poly`` over ``FFElem``.

This is the factoring pipeline ``treeval.gf`` used before its
integer-backed kernel, kept verbatim (apart from names) so tests can
require the kernel to return exactly the same factorizations and
irreducibility verdicts.  It is slow and used by tests only.
"""

from __future__ import annotations

from treeval.gf import FFElem
from treeval.polys import Poly


def ref_poly_powmod(base: Poly, n: int, mod: Poly) -> Poly:
    result = Poly.one(base.field)
    base = base % mod
    while n:
        if n & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        n >>= 1
    return result


def ref_poly_is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test over F_q."""
    field = f.field
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    q = field.size
    x = Poly.x(field)
    xq = x
    for _ in range(n):
        xq = ref_poly_powmod(xq, q, f)
    if xq != x % f:
        return False
    for d in _prime_divisors(n):
        e = n // d
        xe = x
        for _ in range(e):
            xe = ref_poly_powmod(xe, q, f)
        if f.gcd(xe - x).degree != 0:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    p = f.field.char
    out: dict[int, Poly] = {}

    def merge(g: Poly, mult: int):
        if g.degree > 0:
            out[mult] = out[mult] * g if mult in out else g

    def sff(f: Poly, outer: int):
        df = f.derivative()
        if df.is_zero():
            sff(_pth_root_poly(f), outer * p)
            return
        c = f.gcd(df)
        w = f // c
        i = 1
        while w.degree > 0:
            y = w.gcd(c)
            merge(w // y, outer * i)
            i += 1
            w = y
            c = c // y
        if c.degree > 0:
            sff(_pth_root_poly(c), outer * p)

    sff(f.monic(), 1)
    return [(g, m) for m, g in sorted(out.items())]


def _pth_root_poly(f: Poly) -> Poly:
    field = f.field
    p = field.char
    root_pow = field.size // p
    return Poly(field, [f[i] ** root_pow for i in range(0, f.degree + 1, p)])


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    field = f.field
    q = field.size
    out = []
    x = Poly.x(field)
    h = x
    rest = f
    d = 0
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            out.append((rest, rest.degree))
            break
        h = ref_poly_powmod(h, q, rest)
        g = rest.gcd(h - x)
        if g.degree > 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
    return out


def _equal_degree_split(f: Poly, d: int) -> list[Poly]:
    field = f.field
    if f.degree == d:
        return [f]
    q = field.size
    p = field.char
    work = [f]
    done: list[Poly] = []
    trial = 0
    while work:
        g = work.pop()
        if g.degree == d:
            done.append(g)
            continue
        split = None
        while split is None:
            if trial > 100000:
                raise RuntimeError("equal-degree splitting did not converge")
            a = _trial_poly(field, trial, g.degree)
            trial += 1
            if a.degree <= 0:
                continue
            if p == 2:
                t = a % g
                acc = t
                for _ in range(field.m * d - 1):
                    t = (t * t) % g
                    acc = acc + t
                cand = g.gcd(acc)
            else:
                b = ref_poly_powmod(a, (q**d - 1) // 2, g)
                cand = g.gcd(b - Poly.one(field))
            if 0 < cand.degree < g.degree:
                split = cand
        work.append(split)
        work.append(g // split)
    return done


def _trial_poly(field, index: int, degmax: int) -> Poly:
    deg_bound = max(2, degmax)
    q = field.size
    coeffs = []
    k = index + q
    while k:
        k, r = divmod(k, q)
        vec = []
        for _ in range(field.m):
            vec.append(r % field.p)
            r //= field.p
        coeffs.append(FFElem(field, vec))
        if len(coeffs) >= deg_bound:
            break
    return Poly(field, coeffs)


def ref_poly_factor(f: Poly) -> list[tuple[Poly, int]]:
    """Factorization over F_q sorted by (degree, coefficient key)."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    result: list[tuple[Poly, int]] = []
    f = f.monic()
    if f.degree == 0:
        return []
    for g, mult in _squarefree_decomposition(f):
        for part, d in _distinct_degree(g):
            for irr in _equal_degree_split(part, d):
                result.append((irr.monic(), mult))
    result.sort(key=lambda fm: (fm[0].degree, [c.key() for c in fm[0].coeffs]))
    return result

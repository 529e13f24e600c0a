"""Exact factorization of univariate polynomials over QQ.

Small-degree strategy: squarefree decomposition, reduction to a monic
integral model, factorization modulo a well-chosen small prime,
Hensel lifting to a Mignotte-style coefficient bound, and Zassenhaus
subset recombination.  No LLL-class machinery; inputs are desk scale
(norm polynomials of degree a few dozen at most).
"""

from __future__ import annotations

import math
from fractions import Fraction

from treeval.gf import (
    GF,
    _zadd,
    _zdivmod_monic,
    _zmul,
    _zsub,
    _ztrim,
    _zxgcd,
    is_prime,
    poly_factor,
)
from treeval.polys import QQ, Poly


def _hensel_step(f, g, h, s, t, m):
    """One quadratic Hensel step: from mod m data to mod m*m.

    Requires f = g*h (mod m), s*g + t*h = 1 (mod m), f and h monic,
    deg s < deg h, deg t < deg g.  Returns (g*, h*, s*, t*).
    """
    mm = m * m
    e = _zsub(f, _zmul(g, h, mm), mm)
    q, r = _zdivmod_monic(_zmul(s, e, mm), h, mm)
    g1 = _zadd(_zadd(g, _zmul(t, e, mm), mm), _zmul(q, g, mm), mm)
    h1 = _zadd(h, r, mm)
    b = _zsub(_zadd(_zmul(s, g1, mm), _zmul(t, h1, mm), mm), [1], mm)
    c, d = _zdivmod_monic(_zmul(s, b, mm), h1, mm)
    s1 = _zsub(s, d, mm)
    t1 = _zsub(_zsub(t, _zmul(t, b, mm), mm), _zmul(c, g1, mm), mm)
    return g1, h1, s1, t1


def _lift_pair(f, g, h, p, k):
    """Lift f = g*h (mod p) to mod p^(2^ceil) >= p^k; returns (g, h, modulus)."""
    one, s, t = _zxgcd(g, h, p)
    assert one == [1], "factors not coprime mod p"
    m = p
    while m < p**k:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m = m * m
    return g, h, m


def _hensel_lift_list(f, factors, p, k):
    """Lift the coprime factorization f = prod(factors) (mod p) to mod p^k.

    f monic integral; factors monic mod p.  Binary splitting keeps the
    two-factor Hensel step as the only lifting primitive.
    """
    if len(factors) == 1:
        m = p**k
        return [[c % m for c in f]]
    half = len(factors) // 2
    left, right = factors[:half], factors[half:]
    g = [1]
    for fac in left:
        g = _zmul(g, fac, p)
    h = [1]
    for fac in right:
        h = _zmul(h, fac, p)
    gl, hl, m = _lift_pair(f, g, h, p, k)
    out = []
    out += _hensel_lift_list(gl, left, p, k)
    out += _hensel_lift_list(hl, right, p, k)
    return out


def _centered(c: int, m: int) -> int:
    c %= m
    return c - m if 2 * c > m else c


def _int_poly_divides(g: list[int], f: list[int]) -> bool:
    """Exact division test over Z with g monic."""
    rem = list(f)
    dg = len(g) - 1
    if dg > len(rem) - 1:
        return False
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c:
            for j, y in enumerate(g):
                rem[i - dg + j] -= c * y
    return all(v == 0 for v in rem[:dg])


def _int_poly_div(f: list[int], g: list[int]) -> list[int]:
    rem = list(f)
    dg = len(g) - 1
    quo = [0] * (len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        quo[i - dg] = c
        if c:
            for j, y in enumerate(g):
                rem[i - dg + j] -= c * y
    return quo


def _zassenhaus_monic(f: list[int]) -> list[list[int]]:
    """Factor a monic squarefree integral polynomial into monic Z factors."""
    n = len(f) - 1
    if n <= 1:
        return [list(f)]

    # choose a prime keeping f squarefree with the fewest modular factors
    best = None
    tried = 0
    p = 2
    while tried < 6:
        p += 1
        while not is_prime(p):
            p += 1
        fp = GF(p, 1)
        fbar = Poly(fp, [fp.coerce(c) for c in f])
        if fbar.degree != n:
            continue
        if fbar.gcd(fbar.derivative()).degree != 0:
            continue
        fac = poly_factor(fbar)
        tried += 1
        if best is None or len(fac) < len(best[1]):
            best = (p, fac)
        if len(fac) == 1:
            break
        if p > 2000:
            raise RuntimeError("no usable prime found for factorization")
    p, fac = best
    if len(fac) == 1:
        return [list(f)]

    # Mignotte-style bound on factor coefficients
    norm = math.isqrt(sum(c * c for c in f)) + 1
    bound = (2**n) * norm
    k = 1
    while p**k < 2 * bound + 1:
        k += 1
    modular = [[c.vec[0] for c in g.coeffs] for g, _ in fac]
    lifted = _hensel_lift_list([c % p**k for c in f], modular, p, k)
    m = p**k

    # subset recombination with centered products
    result = []
    remaining = list(range(len(lifted)))
    current = list(f)
    size = 1
    import itertools

    while 2 * size <= len(remaining):
        found = False
        for combo in itertools.combinations(remaining, size):
            prod = [1]
            for i in combo:
                prod = _zmul(prod, lifted[i], m)
            cand = _ztrim([_centered(c, m) for c in prod])
            if not cand or cand[-1] != 1:
                continue
            if _int_poly_divides(cand, current):
                result.append(cand)
                current = _int_poly_div(current, cand)
                remaining = [i for i in remaining if i not in combo]
                found = True
                break
        if not found:
            size += 1
    if len(current) > 1:
        result.append(current)
    return result


def factor_over_Q(f: Poly) -> list[tuple[Poly, int]]:
    """Irreducible factorization over QQ.

    Returns [(monic irreducible, multiplicity)] in a canonical order;
    the product of the factors (with multiplicity) times ``f.leading()``
    equals ``f``.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    out: list[tuple[Poly, int]] = []
    for g, mult in f.squarefree_decomposition():
        for irr in _factor_squarefree_monic(g):
            out.append((irr, mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def is_irreducible_over_Q(f: Poly) -> bool:
    if f.degree <= 0:
        return False
    fac = factor_over_Q(f)
    return len(fac) == 1 and fac[0][1] == 1


def _factor_squarefree_monic(g: Poly) -> list[Poly]:
    """Factor a monic squarefree polynomial over QQ."""
    if g.degree <= 1:
        return [g]
    # monic integral model: G(y) = c^n g(y/c) with c the lcm of denominators
    c = 1
    for coef in g.coeffs:
        c = c * coef.denominator // math.gcd(c, coef.denominator)
    n = g.degree
    G = [int(g[i] * c ** (n - i)) for i in range(n + 1)]
    factors = _zassenhaus_monic(G)
    out = []
    cfrac = Fraction(c)
    for H in factors:
        d = len(H) - 1
        coeffs = [Fraction(H[i]) * cfrac ** (i - d) for i in range(d + 1)]
        out.append(Poly(QQ, coeffs))
    return out


def roots_in_Q(f: Poly) -> list[Fraction]:
    """Rational roots of f, each listed once, in increasing order."""
    roots = [
        -g.coeffs[0] for g, _ in factor_over_Q(f) if g.degree == 1
    ]
    return sorted(roots)

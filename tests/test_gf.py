"""Finite fields: canonical moduli, field laws, factorization, embeddings."""

import pytest
from hypothesis import given, settings, strategies as st

import treeval.gf as gf
from gf_reference import ref_poly_factor, ref_poly_is_irreducible
from treeval.cli import main as cli_main
from treeval.errors import ResourceBoundError
from treeval.gf import (
    GF,
    Poly,
    embed,
    embedding_generator_image,
    is_prime,
    poly_factor,
    poly_is_irreducible,
    poly_roots,
    relative_minpoly,
)


def test_canonical_modulus_f4():
    # candidates x^2, x^2+1=(x+1)^2, x^2+x, then x^2+x+1
    f4 = GF(2, 2)
    assert f4.modulus == (1, 1)


def test_canonical_modulus_f25():
    f25 = GF(5, 2)
    # x^2 + c0 must be irreducible: c0 = 2 gives x^2 + 2, and -2 = 3 is not
    # a QR mod 5, so x^2 + 2 is irreducible; check nothing smaller works:
    # x^2, x^2+1 = (x+2)(x+3), so modulus = x^2 + 2
    assert f25.modulus == (2, 0)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 2), (5, 2), (13, 1), (7, 3)])
def test_field_laws(p, m):
    f = GF(p, m)
    elems = list(f.elements()) if f.size <= 130 else [
        f.elem([i % p, (i * 3 + 1) % p] + [0] * (m - 2)) for i in range(10)
    ]
    for a in elems[:12]:
        for b in elems[:12]:
            assert (a + b) - b == a
            assert a * b == b * a
            if not b.is_zero():
                assert (a * b) * f.inv(b) == a
    one = f.one
    for a in elems[:12]:
        assert a * one == a


def test_frobenius_is_additive():
    f = GF(3, 3)
    a = f.elem([1, 2, 0])
    b = f.elem([2, 2, 1])
    assert (a + b) ** 3 == a**3 + b**3


def test_factor_over_f5():
    f5 = GF(5, 1)
    x2p1 = Poly(f5, [1, 0, 1])
    fac = poly_factor(x2p1)
    assert len(fac) == 2
    roots = poly_roots(x2p1)
    assert sorted(r.vec[0] for r in roots) == [2, 3]


def test_factor_over_f7_inert():
    f7 = GF(7, 1)
    assert poly_is_irreducible(Poly(f7, [1, 0, 1]))


def test_factor_multiplicities():
    f3 = GF(3, 1)
    x = Poly.x(f3)
    f = (x + Poly.one(f3)) ** 3 * (x**2 + Poly.one(f3))
    fac = poly_factor(f)
    rebuilt = Poly.one(f3)
    for g, m in fac:
        rebuilt = rebuilt * g**m
    assert rebuilt == f.monic()
    assert sorted(m for _, m in fac) == [1, 3]


def test_factor_pth_power():
    f2 = GF(2, 1)
    x = Poly.x(f2)
    f = (x**2 + x + Poly.one(f2)) ** 2
    fac = poly_factor(f)
    assert fac == [(x**2 + x + Poly.one(f2), 2)]


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 2), (2, 4)])
def test_factor_over_extension_fields(p, m):
    fq = GF(p, m)
    g = fq.gen
    x = Poly.x(fq)
    f = (x - Poly.const(fq, g)) * (x - Poly.const(fq, g * g)) * (
        x**2 + Poly.const(fq, g) * x + Poly.one(fq)
    )
    fac = poly_factor(f)
    rebuilt = Poly.one(fq)
    for h, mult in fac:
        rebuilt = rebuilt * h**mult
    assert rebuilt == f.monic()


def test_t2_minus_2_over_f5_vs_f25():
    f5 = GF(5, 1)
    assert poly_is_irreducible(Poly(f5, [3, 0, 1]))  # t^2 - 2 == t^2 + 3 mod 5
    f25 = GF(5, 2)
    img = Poly(f25, [f25.coerce(3), f25.zero, f25.one])
    fac = poly_factor(img)
    assert len(fac) == 2 and all(g.degree == 1 for g, _ in fac)


def test_embedding_consistency():
    small, big = GF(2, 2), GF(2, 4)
    img = embedding_generator_image(2, 2, 4)
    # image must be a root of the F_4 modulus x^2+x+1
    assert img * img + img + big.one == big.zero
    a, b = small.gen, small.gen + small.one
    assert embed(a * b, big) == embed(a, big) * embed(b, big)
    assert embed(a + b, big) == embed(a, big) + embed(b, big)


def test_relative_minpoly():
    big = GF(2, 4)
    # an element of the F_4 subfield has degree <= 2 over F_4... check over F_2:
    a = big.gen
    mp = relative_minpoly(a, 1)
    assert mp.degree in (1, 2, 4)
    assert mp.evaluate(a).is_zero() or mp.map_coeffs(
        big, lambda c: embed(c, big)
    ).evaluate(a).is_zero()
    # over the F_4 subfield the generator of F_16 has degree 2
    mp4 = relative_minpoly(a, 2)
    assert mp4.degree == 2


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]


# Canonical moduli of every F_{p^m}, m > 1, that the acceptance suite builds.
ACCEPTANCE_MODULI = {
    (2, 2): (1, 1), (2, 4): (1, 1, 0, 0), (3, 2): (1, 0), (3, 4): (2, 1, 0, 0),
    (5, 2): (2, 0), (7, 2): (1, 0), (7, 4): (1, 1, 0, 0), (11, 2): (1, 0),
    (13, 2): (2, 0), (13, 4): (2, 0, 0, 0), (17, 2): (3, 0), (17, 4): (3, 0, 0, 0),
    (19, 2): (1, 0), (23, 2): (1, 0), (23, 4): (2, 1, 0, 0), (29, 2): (2, 0),
    (31, 2): (1, 0), (37, 2): (2, 0), (37, 4): (2, 0, 0, 0), (41, 2): (3, 0),
    (43, 2): (1, 0), (43, 4): (3, 1, 0, 0), (47, 2): (1, 0), (47, 4): (5, 1, 0, 0),
}


def test_acceptance_moduli_unchanged():
    for (p, m), modulus in ACCEPTANCE_MODULI.items():
        assert GF(p, m).modulus == modulus, (p, m)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert GF(p, 1).modulus == (0,)


# -- the factoring kernel against the generic Poly reference ---------------------

REF_FIELDS = [(p, m) for p in (2, 3, 5, 7, 47) for m in (1, 2, 3, 4)]


def _elem(F, r):
    vec = []
    for _ in range(F.m):
        r, c = divmod(r, F.p)
        vec.append(c)
    return F.elem(vec)


def _monic(F, degree, index):
    """The index-th monic polynomial of the given degree (base-q digits)."""
    coeffs = []
    for _ in range(degree):
        index, r = divmod(index, F.size)
        coeffs.append(_elem(F, r))
    return Poly(F, coeffs + [F.one])


@st.composite
def factoring_inputs(draw):
    p, m = draw(st.sampled_from(REF_FIELDS))
    F = GF(p, m)
    q = F.size
    # The reference is slow over large fields, and in characteristic 2 over
    # F_8 and F_16 its trial sequence can need thousands of rounds to split
    # a product of two irreducibles of degree >= 2; keep those inputs small.
    small = q <= 64 and not (p == 2 and m > 2)
    elem = st.integers(0, q - 1).map(lambda r: _elem(F, r))
    nonzero = st.integers(1, q - 1).map(lambda r: _elem(F, r))

    def any_poly(max_degree):
        d = draw(st.integers(1, max_degree))
        return Poly(F, draw(st.lists(elem, min_size=d, max_size=d)) + [draw(nonzero)])

    kind = draw(st.sampled_from(["random", "repeated", "pth_power", "equal_degree"]))
    if kind == "random":
        f = any_poly(6 if small else 3)
    elif kind == "repeated":
        f = Poly.one(F)
        for _ in range(draw(st.integers(1, 3))):
            f = f * any_poly(2 if small else 1) ** draw(st.integers(1, 3))
    elif kind == "pth_power":
        f = any_poly(2 if small else 1) ** p
        if p <= 7:  # times a cofactor, so a p-th power is only part of f
            f = f * any_poly(2 if small else 1)
    else:
        d = draw(st.integers(1, 3 if small else 1 if p == 2 else 2))
        count = draw(st.integers(2, 3))
        index = draw(st.integers(0, q**d - 1))
        irreducibles = []
        while len(irreducibles) < count and index < q**d:
            g = _monic(F, d, index)
            if ref_poly_is_irreducible(g):
                irreducibles.append(g)
            index += 1
        f = Poly.const(F, draw(nonzero))
        for g in irreducibles:
            f = f * g
    return f


@settings(max_examples=80, deadline=None)
@given(factoring_inputs())
def test_kernel_matches_reference(f):
    assert poly_factor(f) == ref_poly_factor(f)
    assert poly_is_irreducible(f) == ref_poly_is_irreducible(f)


def test_equal_degree_bound_raises_resource_error(monkeypatch):
    monkeypatch.setattr(gf, "EDF_MAX_TRIALS", 0)
    f5 = GF(5, 1)
    with pytest.raises(ResourceBoundError, match=r"gf\.poly_factor.* 0 trial"):
        poly_factor(Poly(f5, [1, 0, 1]))  # (x - 2)(x - 3) needs a split


def test_equal_degree_bound_is_cli_exit_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(gf, "EDF_MAX_TRIALS", 0)
    sentence = tmp_path / "snt.txt"
    sentence.write_text("Q: [1,0,1]\nbottom char 5\nnode a char 5 : x - 2 = 0\n")
    assert cli_main(["decide", str(sentence)]) == 3
    err = capsys.readouterr().err
    assert "gf.poly_factor" in err and "Traceback" not in err

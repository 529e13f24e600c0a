"""Number field arithmetic, splitting fields, and automorphism groups."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeval.errors import PreconditionError, ResourceBoundError
from treeval.numfield import (
    QQ_FIELD,
    FieldEmbedding,
    NumberField,
    automorphisms,
    factor_over_field,
    identity_embedding,
    is_normal,
    minimal_polynomial,
    rational_embedding,
    relative_automorphisms,
    relative_minimal_polynomial,
    roots_in_field,
    splitting_field,
)
from treeval.polys import QQ, Poly


def P(*cs):
    return Poly(QQ, [Fraction(c) for c in cs])


GAUSS = NumberField(P(1, 0, 1), label="Q(i)")
SQRT2 = NumberField(P(-2, 0, 1), label="Q(sqrt2)")
BIQUAD = NumberField(P(1, 0, -10, 0, 1), label="Q(sqrt2+sqrt3)")


def test_gaussian_arithmetic():
    i = GAUSS.gen
    assert i * i == GAUSS.coerce(-1)
    assert (1 + i) * (1 - i) == GAUSS.coerce(2)
    assert (i + 1) / (i - 1) == -i
    assert GAUSS.inv(i) == -i


small_elems = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=2,
    max_size=2,
)


@given(small_elems, small_elems, small_elems)
@settings(max_examples=50, deadline=None)
def test_field_axioms_gauss(a, b, c):
    x, y, z = GAUSS.elem(a), GAUSS.elem(b), GAUSS.elem(c)
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    if not y.is_zero():
        assert (x / y) * y == x


def test_minimal_polynomial():
    assert minimal_polynomial(GAUSS.gen) == P(1, 0, 1)
    assert minimal_polynomial(GAUSS.coerce(Fraction(3, 2))) == P(Fraction(-3, 2), 1)
    # sqrt2 + sqrt3 inside the biquadratic field is the generator
    assert minimal_polynomial(BIQUAD.gen) == P(1, 0, -10, 0, 1)
    # sqrt2 = gen*(gen^2 - 9)/2 has minpoly x^2 - 2
    g = BIQUAD.gen
    sqrt2 = g * (g * g - 9) / 2
    assert minimal_polynomial(sqrt2) == P(-2, 0, 1)


def test_minimal_polynomial_degree_divides():
    for coeffs in ([1, 2, 0, 1], [0, 0, 1, 0], [5], [2, 1, 1, 1]):
        mp = minimal_polynomial(BIQUAD.elem(coeffs))
        assert BIQUAD.degree % mp.degree == 0
        assert mp.is_monic()


def test_factor_over_gauss():
    f = P(1, 0, 1).map_coeffs(GAUSS, GAUSS.coerce)
    fac = factor_over_field(GAUSS, f)
    assert len(fac) == 2 and all(g.degree == 1 for g, _ in fac)
    roots = roots_in_field(GAUSS, f)
    assert GAUSS.gen in roots and -GAUSS.gen in roots


def test_factor_irreducible_over_extension():
    f = P(-3, 0, 1).map_coeffs(SQRT2, SQRT2.coerce)
    fac = factor_over_field(SQRT2, f)
    assert len(fac) == 1 and fac[0][0].degree == 2


def test_splitting_field_x2p1():
    data = splitting_field(P(1, 0, 1))
    assert data.field.degree == 2
    assert len(data.roots) == 2
    assert data.roots[0] == -data.roots[1]


def test_splitting_field_biquadratic():
    data = splitting_field(P(-2, 0, 1) * P(-3, 0, 1))
    assert data.field.degree == 4
    assert len(data.roots) == 4
    f = (P(-2, 0, 1) * P(-3, 0, 1)).map_coeffs(data.field, data.field.coerce)
    for r in data.roots:
        assert f.evaluate(r).is_zero()


def test_splitting_field_degree_bound():
    with pytest.raises(ResourceBoundError):
        splitting_field(P(1, 1, 0, 0, 0, 0, 0, 1), degree_bound=6)


def test_splitting_over_extension_base():
    data = splitting_field(P(-3, 0, 1), base=SQRT2)
    assert data.field.degree == 4
    assert data.base_embedding.source == SQRT2


# Field minpolys and root keys recorded from the splitting procedure that
# factored each adjoined polynomial in full over the new field; splitting
# only its cofactor by the adjoined root must reproduce them exactly.
SPLITTING_PINS = {
    "x^3-2": (
        P(-2, 0, 0, 1),
        (108, 0, 0, 0, 0, 0, 1),
        [
            (0, "-1/2", 0, 0, "-1/36", 0),
            (0, 0, 0, 0, "1/18", 0),
            (0, "1/2", 0, 0, "-1/36", 0),
        ],
    ),
    "x^4-2": (
        P(-2, 0, 0, 0, 1),
        (2500, 0, 0, 0, 28, 0, 0, 0, 1),
        [
            (0, "-41/120", 0, 0, 0, "1/240", 0, 0),
            (0, "-19/60", 0, 0, 0, "-1/120", 0, 0),
            (0, "19/60", 0, 0, 0, "1/120", 0, 0),
            (0, "41/120", 0, 0, 0, "-1/240", 0, 0),
        ],
    ),
    "x^3-x-1": (
        P(-1, -1, 0, 1),
        (23, 0, 9, 0, -6, 0, 1),
        [
            ("-2/9", "-1/2", "5/18", 0, "-1/18", 0),
            ("-2/9", "1/2", "5/18", 0, "-1/18", 0),
            ("4/9", 0, "-5/9", 0, "1/9", 0),
        ],
    ),
    "x^3-3x+1": (
        P(1, -3, 0, 1),
        (1, -3, 0, 1),
        [(-2, 0, 1), (0, 1, 0), (2, -1, -1)],
    ),
}


@pytest.mark.parametrize("name", sorted(SPLITTING_PINS))
def test_splitting_field_pins(name):
    f, minpoly, root_keys = SPLITTING_PINS[name]
    data = splitting_field(f)
    assert data.field.minpoly == P(*minpoly)
    assert [r.key() for r in data.roots] == [
        tuple(Fraction(c) for c in key) for key in root_keys
    ]
    assert data.base_embedding.source == QQ_FIELD
    fL = f.map_coeffs(data.field, data.field.coerce)
    assert all(fL.evaluate(r).is_zero() for r in data.roots)


def test_splitting_field_rejects_a_wrong_adjoined_root(monkeypatch):
    import treeval.numfield as numfield

    original = numfield.extend_by_irreducible

    def off_by_one(L, g, field_cap):
        M, emb, beta = original(L, g, field_cap=field_cap)
        return M, emb, beta + 1

    monkeypatch.setattr(numfield, "extend_by_irreducible", off_by_one)
    with pytest.raises(ArithmeticError):
        splitting_field(P(1, 0, 1))


def test_automorphisms_gauss():
    auts = automorphisms(GAUSS)
    assert len(auts) == 2
    images = sorted(a.image.key() for a in auts)
    assert images == sorted([GAUSS.gen.key(), (-GAUSS.gen).key()])


def test_automorphisms_klein():
    auts = automorphisms(BIQUAD)
    assert len(auts) == 4
    # group table: closed under composition, all elements order <= 2
    for s in auts:
        for t in auts:
            comp = s.compose(t)
            assert any(comp == u for u in auts)
        ss = s.compose(s)
        assert ss.is_identity()


def test_automorphisms_rational():
    assert len(automorphisms(QQ_FIELD)) == 1


def test_not_normal_rejected():
    cubic = NumberField(P(-2, 0, 0, 1), label="Q(cbrt2)")
    assert not is_normal(cubic)
    with pytest.raises(PreconditionError):
        automorphisms(cubic)


def test_relative_automorphisms():
    data = splitting_field(P(-2, 0, 1) * P(-3, 0, 1))
    L = data.field
    # embed Q(sqrt2) into L
    r2 = [r for r in data.roots if minimal_polynomial(r) == P(-2, 0, 1)]
    emb = FieldEmbedding(SQRT2, L, r2[0])
    rel = relative_automorphisms(L, emb)
    assert len(rel) == 2
    # identity relative to the full field
    assert len(relative_automorphisms(L, identity_embedding(L))) == 1
    # relative to QQ: everything
    assert len(relative_automorphisms(L, rational_embedding(L))) == 4


def test_minpoly_invariant_under_automorphism():
    auts = automorphisms(BIQUAD)
    a = BIQUAD.elem([1, 2, 0, 1])
    mp = minimal_polynomial(a)
    for s in auts:
        assert minimal_polynomial(s(a)) == mp


def test_relative_minimal_polynomial():
    data = splitting_field(P(-2, 0, 1) * P(-3, 0, 1))
    L = data.field
    r2 = [r for r in data.roots if minimal_polynomial(r) == P(-2, 0, 1)][0]
    r3 = [r for r in data.roots if minimal_polynomial(r) == P(-3, 0, 1)][0]
    emb = FieldEmbedding(SQRT2, L, r2)
    mp = relative_minimal_polynomial(r3, emb)
    assert mp.degree == 2
    # x^2 - 3 over Q(sqrt2)
    assert mp.coeffs[0] == SQRT2.coerce(-3) and mp.coeffs[1] == SQRT2.zero


def test_embedding_roundtrip():
    data = splitting_field(P(1, 0, 1))
    L, emb = data.field, data.base_embedding
    x = QQ_FIELD.coerce(Fraction(7, 3))
    assert rational_embedding(L)(x) == L.coerce(Fraction(7, 3))
    assert emb(QQ_FIELD.coerce(5)) == L.coerce(5)

"""Parser round trips, grammar errors, and exact evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeval.errors import ParseError, PreconditionError
from treeval.formulas import (
    BinderRoots,
    BinderSplitError,
    FAnd,
    FEqZero,
    FExistsRoot,
    FIn,
    FNot,
    FOr,
    TAdd,
    TDiv,
    TMul,
    TNeg,
    TNum,
    TParam,
    TPow,
    TSub,
    TVar,
    binder_polynomials,
    evaluate,
    field_roots,
    mentioned_nodes,
    parameters,
    parse,
    print_formula,
)
from treeval.numfield import NumberField, QQ_FIELD, rational_embedding
from treeval.padic import padic_handle_on_Q, trivial_handle
from treeval.polys import QQ, Poly
from treeval.structures import TP0Structure, enumerate_structure_extensions
from treeval.trees import FiniteTree


def P(*cs):
    return Poly(QQ, [Fraction(c) for c in cs])


GAUSSI = NumberField(P(1, 0, 1), label="Q(i)")


def test_parse_binder():
    f = parse("exists x root [1,0,1] : (x - 2) in m[a]")
    assert isinstance(f, FExistsRoot)
    assert f.poly_qq() == P(1, 0, 1)
    assert isinstance(f.body, FIn)
    assert f.body.sort == "m" and f.body.node == "a"


def test_unbound_variable_is_an_error():
    with pytest.raises(ParseError):
        parse("~( (y) in O[b] )")


def test_conjunction_of_binders():
    f = parse(
        "(exists x root [1,0,1]: x-2 in m[a]) & (exists x root [1,0,1]: x-5 in m[b])"
    )
    assert isinstance(f, FAnd)
    assert isinstance(f.left, FExistsRoot) and isinstance(f.right, FExistsRoot)
    assert binder_polynomials(f) == [P(1, 0, 1), P(1, 0, 1)]
    assert mentioned_nodes(f) == {"a", "b"}


def test_non_monic_binder_rejected():
    with pytest.raises(ParseError):
        parse("exists x root [1,0,2] : x = 0")


def test_unknown_node_rejected_with_node_set():
    with pytest.raises(ParseError):
        parse("exists x root [1,0,1] : x in O[zzz]", nodes={"a", "b"})


def test_parameters_and_rationals():
    f = parse("exists x root [1/2, -3/2, 1] : x - $c = 0")
    assert parameters(f) == {"c"}
    assert f.poly_qq() == Poly(QQ, [Fraction(1, 2), Fraction(-3, 2), Fraction(1)])


terms = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=0, max_value=9).map(TNum),
        st.just(TVar("x")),
        st.sampled_from(["u", "w"]).map(TParam),
        st.tuples(terms, terms).map(lambda ab: TAdd(*ab)),
        st.tuples(terms, terms).map(lambda ab: TSub(*ab)),
        st.tuples(terms, terms).map(lambda ab: TMul(*ab)),
        st.tuples(terms, terms).map(lambda ab: TDiv(*ab)),
        terms.map(TNeg),
        st.tuples(terms, st.integers(min_value=0, max_value=4)).map(
            lambda be: TPow(*be)
        ),
    )
)

formulas = st.deferred(
    lambda: st.one_of(
        terms.map(FEqZero),
        st.tuples(terms, st.sampled_from(["O", "m"]), st.sampled_from(["a", "b"])).map(
            lambda tsn: FIn(*tsn)
        ),
        formulas.map(FNot),
        st.tuples(formulas, formulas).map(lambda ab: FAnd(*ab)),
        st.tuples(formulas, formulas).map(lambda ab: FOr(*ab)),
    )
)


def close_formula(f):
    return FExistsRoot("x", (Fraction(1), Fraction(0), Fraction(1)), f)


@given(formulas)
@settings(max_examples=80, deadline=None)
def test_print_parse_roundtrip(body):
    f = close_formula(body)
    printed = print_formula(f)
    assert parse(printed) == f


def structure_v5_v13():
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


def extensions_to_gauss():
    S = structure_v5_v13()
    return enumerate_structure_extensions(
        S, GAUSSI, rational_embedding(GAUSSI)
    ).members


def test_trivial_atoms():
    S = structure_v5_v13()
    assert evaluate(parse("0 = 0"), S)
    assert not evaluate(parse("1 = 0"), S)
    assert evaluate(parse("5 in m[a]"), S)
    assert not evaluate(parse("5 in m[b]"), S)
    assert evaluate(parse("5 in O[b]"), S)
    assert not evaluate(parse("1/5 in O[a]"), S)


def test_division_by_zero_totalized():
    S = structure_v5_v13()
    assert not evaluate(parse("1/0 = 0"), S)
    assert not evaluate(parse("1/0 in O[a]"), S)
    assert evaluate(parse("~(1/0 = 0)"), S)


def test_binder_requires_split():
    S = structure_v5_v13()
    with pytest.raises(BinderSplitError):
        evaluate(parse("exists x root [1,0,1] : x - 2 in m[a]"), S)


def test_unreached_binder_is_not_split():
    # x^2 + 1 does not split over Q; the left disjunct settles the value first
    S = structure_v5_v13()
    assert evaluate(parse("0 = 0 | exists x root [1,0,1] : x = 0"), S)


def test_root_table_splits_each_binder_once(monkeypatch):
    import treeval.formulas as formulas_module

    calls = []

    def counting_field_roots(field, qpoly):
        calls.append(qpoly)
        return field_roots(field, qpoly)

    phi = parse(
        "(exists x root [1,0,1] : exists y root [1,0,1] : x - y in m[a])"
        " & (exists x root [1,0,1] : x - 5 in m[b])"
    )
    members = extensions_to_gauss()
    expected = [evaluate(phi, m) for m in members]
    monkeypatch.setattr(formulas_module, "field_roots", counting_field_roots)
    table = BinderRoots(members[0].field)
    assert [evaluate(phi, m, roots=table) for m in members] == expected
    assert calls == [P(1, 0, 1)]


def test_root_table_on_another_field_is_rejected():
    m = extensions_to_gauss()[0]
    with pytest.raises(PreconditionError):
        evaluate(parse("exists x root [1,0,1] : x = 0"), m, roots=BinderRoots(QQ_FIELD))


def test_golden_gauss_evaluation():
    phi = parse("exists x root [1,0,1] : x - 2 in m[a]")
    results = []
    for m in extensions_to_gauss():
        results.append(evaluate(phi, m))
    # every extension satisfies it: one of the two roots has residue 2 mod 5
    assert all(results)


def test_golden_two_prime_alignment():
    phi = parse("exists x root [1,0,1] : ((x - 2 in m[a]) & (x - 5 in m[b]))")
    values = [evaluate(phi, m) for m in extensions_to_gauss()]
    assert sorted(values) == [False, False, True, True]


def test_evaluation_invariant_under_automorphism():
    from treeval.numfield import automorphisms
    from treeval.padic import pushforward

    phi = parse("exists x root [1,0,1] : ((x - 2 in m[a]) & (x - 5 in m[b]))")
    for m in extensions_to_gauss():
        val = evaluate(phi, m)
        for sigma in automorphisms(GAUSSI):
            pushed = TP0Structure(
                m.tree,
                m.field,
                {
                    n: (h if h.is_trivial() else pushforward(h, sigma))
                    for n, h in m.assignment.items()
                },
            )
            assert evaluate(phi, pushed) == val


@given(formulas)
@settings(max_examples=25, deadline=None)
def test_boolean_identities(body):
    f = close_formula(body)
    S = extensions_to_gauss()[0]
    bindings = {"u": Fraction(3), "w": Fraction(1, 5)}
    v = evaluate(f, S, bindings)
    assert evaluate(FNot(FNot(f)), S, bindings) == v
    assert evaluate(FOr(f, FNot(f)), S, bindings) is True
    assert evaluate(FAnd(f, FNot(f)), S, bindings) is False
    # De Morgan
    g = close_formula(FNot(body))
    assert evaluate(FNot(FAnd(f, g)), S, bindings) == evaluate(
        FOr(FNot(f), FNot(g)), S, bindings
    )


def test_evaluation_on_function_field():
    from treeval.funcfield import ComposedHandle, GaussHandle, Place, trivial_gauss
    from treeval.gf import GF
    from treeval.ratfunc import RatFuncField

    QT = RatFuncField(QQ_FIELD)
    tree = FiniteTree.chain(["_", "g", "c"])
    F5 = GF(5, 1)
    G5 = GaussHandle(padic_handle_on_Q(5), QT)
    S = TP0Structure(
        tree,
        QT,
        {
            "_": trivial_gauss(QT),
            "g": G5,
            "c": ComposedHandle(G5, Place.finite(Poly(F5, [0, 1]))),
        },
    )
    assert evaluate(parse("$t in m[c]"), S, {"t": QT.gen})
    assert evaluate(parse("$t in O[g]"), S, {"t": QT.gen})
    assert not evaluate(parse("$t in m[g]"), S, {"t": QT.gen})
    assert evaluate(parse("5 in m[g]"), S)

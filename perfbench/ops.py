"""In-process operations of the `extensions` and `measure` workloads.

`build` turns the plain descriptions of `corpora` into treeval inputs (the
set-up) and pairs each with a check.  Operations call the library through
module attributes, so the tracer's wrappers see them.  Checks run after
every timed operation of a pass, so the oracles never warm a cache the
library uses before the library does.
"""

from __future__ import annotations

import importlib
from fractions import Fraction

from treeval.decide import PsiSentence
from treeval.funcfield import ComposedHandle, GaussHandle, Place, trivial_gauss
from treeval.gf import GF, Poly as GFPoly
from treeval.polys import QQ, Poly
from treeval.ratfunc import RatFuncField
from treeval.trees import CharFunction, FiniteTree

import corpora

# The package namespace rebinds `treeval.measure` to the function of that
# name, so the modules are taken from the import system.
decide, formulas, measure, numfield, padic, structures = (
    importlib.import_module("treeval." + name)
    for name in ("decide", "formulas", "measure", "numfield", "padic", "structures")
)

AXIOMS = {"complement", "inclusion_exclusion", "positivity", "certainty", "weighting"}


class Op:
    """One benchmark operation: `run` is timed, `check(result)` returns an
    error message or None."""

    __slots__ = ("desc", "run", "check")

    def __init__(self, desc, run, check):
        self.desc, self.run, self.check = desc, run, check


def _poly(coeffs) -> Poly:
    return Poly(QQ, [Fraction(c) for c in coeffs])


def _q_structure(parent: dict, primes: dict) -> structures.TP0Structure:
    QQF = numfield.QQ_FIELD
    assignment = {"_": padic.trivial_handle(QQF)}
    for n in parent:
        p = primes.get(n)
        assignment[n] = padic.trivial_handle(QQF) if p is None else padic.padic_handle_on_Q(p)
    return structures.TP0Structure(FiniteTree("_", parent), QQF, assignment)


def _flat(primes) -> structures.TP0Structure:
    names = corpora.node_names(len(primes))
    return _q_structure({n: "_" for n in names}, dict(zip(names, primes)))


class _Expected:
    """Extension data of (field, p): the Dedekind oracle where p does not
    divide the index of Z[x]/(minpoly), the recorded golden elsewhere."""

    def __init__(self, goldens: dict):
        self.goldens = goldens

    def ef_pairs(self, fi: int, p: int) -> list:
        from oracles import dedekind_ef_pairs, index_is_divisible

        label, coeffs = corpora.FIELDS[fi]
        f = _poly(coeffs)
        if index_is_divisible(f, p):
            return [tuple(ef) for ef in self.goldens[f"{label}|{p}"]]
        return dedekind_ef_pairs(f, p)

    def count(self, fi: int, p: int) -> int:
        return len(self.ef_pairs(fi, p))


def extension_ops(descs, goldens) -> list[Op]:
    fields = [numfield.NumberField(_poly(c), label=l) for l, c in corpora.FIELDS]
    embs = [numfield.rational_embedding(L) for L in fields]
    qt = RatFuncField(numfield.QQ_FIELD)
    expected = _Expected(goldens["extensions"])
    ops = []
    for desc in descs:
        kind, fi = desc[0], desc[1]
        L, emb = fields[fi], embs[fi]
        if kind == "extend":
            p = desc[2]
            v = padic.padic_handle_on_Q(p)

            def run(v=v, L=L, emb=emb):
                return padic.extend_valuation(v, L, emb)

            def check(exts, fi=fi, p=p):
                got = sorted((w.e, w.f) for w in exts)
                want = sorted(expected.ef_pairs(fi, p))
                return None if got == want else f"(e,f) {got} != {want}"

        elif kind == "enumerate":
            shape, primes = desc[2], desc[3]
            parent, slots = corpora.SHAPES[shape]
            S = _q_structure(
                parent, {n: primes[s] for n, s in slots.items() if s is not None}
            )

            def run(S=S, L=L, emb=emb):
                return structures.enumerate_structure_extensions(S, L, emb)

            def check(exts, fi=fi, primes=primes):
                want = 1
                for p in primes:
                    want *= expected.count(fi, p)
                n = len(exts.members)
                if n != want or len({hash(m) for m in exts.members}) != n:
                    return f"{n} members, expected {want} distinct"
                return None

        else:
            lift, primes = desc[2], desc[3]
            S_K = _flat(primes)
            assignment = {"_": trivial_gauss(qt)}
            for n, p in zip(corpora.node_names(2), primes):
                g = GaussHandle(S_K.assignment[n], qt)
                if lift == "composed" and n == "a":
                    g = ComposedHandle(g, Place.finite(GFPoly(GF(p, 1), [0, 1])))
                assignment[n] = g
            S_L = structures.TP0Structure(S_K.tree, qt, assignment)

            def run(S_K=S_K, S_L=S_L, L=L, emb=emb):
                return structures.fiber_report(S_K, S_L, L, emb)

            def check(rep, fi=fi, primes=primes):
                want = expected.count(fi, primes[0]) * expected.count(fi, primes[1])
                if not rep.uniform or any(s != rep.ratio for s in rep.sizes):
                    return f"fibers not uniform: {rep.sizes}"
                if rep.total_small != want:
                    return f"{rep.total_small} small extensions, expected {want}"
                return None

        ops.append(Op(desc, run, check))
    return ops


def measure_ops(descs, goldens) -> list[Op]:
    ops = []
    for desc in descs:
        kind = desc[0]
        if kind in ("measure", "axioms"):
            primes, phi_text = desc[1], desc[2]
            S = _flat(primes)
            nodes = set(S.tree.nodes)
            phi = formulas.parse(phi_text, nodes=nodes)
            bindings = {"c": Fraction(desc[-1])}
            if kind == "measure":
                want = goldens["measure"][corpora.measure_key(primes, phi_text)]

                def run(phi=phi, bindings=bindings, S=S):
                    return measure.measure(phi, bindings, S)

                def check(res, want=want):
                    k, n = res.tally
                    if f"{k}/{n}" != want or res.value != Fraction(k, n):
                        return f"value {res.value} tally {k}/{n}, expected {want}"
                    return None

            else:
                psi = formulas.parse(desc[3], nodes=nodes)

                def run(phi=phi, psi=psi, bindings=bindings, S=S):
                    return measure.check_axioms(S, phi, psi, bindings)

                def check(report):
                    if set(report) != AXIOMS or not all(report.values()):
                        return f"axiom report {report}"
                    return None

        else:
            binder, node_specs = desc[1], desc[2]
            names = [name for name, _, _ in node_specs]
            tree = FiniteTree.flat("_", names)
            chars = {name: corpora.SENTENCE_CHARS[k] for name, k, _ in node_specs}
            chi = CharFunction(tree, {"_": 0, **chars})
            conditions = {
                name: formulas.parse(
                    corpora.sentence_condition(k, c, name), free_vars={"x"}, nodes={name}
                )
                for name, k, c in node_specs
            }
            psi = PsiSentence(_poly(corpora.BINDERS[binder]), conditions)
            want = {
                name: goldens["decide"][corpora.sentence_key(binder, k, c)]
                for name, k, c in node_specs
            }

            def run(psi=psi, tree=tree, chi=chi):
                return decide.decide_psi(psi, tree, chi)

            def check(verdict, psi=psi, want=want):
                got = {n: v.satisfiable for n, v in verdict.per_node.items()}
                if got != want or verdict.consistent != all(want.values()):
                    return f"verdict {verdict.consistent} {got}, expected {want}"
                if verdict.consistent and not formulas.evaluate(
                    psi.as_formula(), verdict.witness_structure
                ):
                    return "witness does not satisfy the sentence"
                return None

        ops.append(Op(desc, run, check))
    return ops


def build(workload: str, seed: int, goldens: dict) -> list[Op]:
    if workload == "extensions":
        return extension_ops(corpora.extensions_corpus(seed), goldens)
    return measure_ops(corpora.measure_corpus(seed), goldens)

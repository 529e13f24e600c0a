"""Record the expected outputs the benchmark checks against.

Run only on a commit whose outputs are trusted (every golden here was
recorded with the acceptance suite passing); a later change that alters
any output must fail the benchmark, not re-record it.

    python3 perfbench/record_goldens.py      # rewrites perfbench/goldens.json

Recorded: the (e, f) pairs of every corpus (field, prime) pair where the
prime divides the index (the Dedekind oracle covers the rest); the exact
measure of every instance the `measure` generator can produce; the
per-node verdict of every sentence condition it can produce; and the exit
code and stdout of every request of the CLI corpus.
"""

from __future__ import annotations

import json
import shutil
import sys

from worker import GOLDENS, WORK, cli_requests, write_cli_corpus  # sets sys.path

import corpora  # noqa: E402
import ops  # noqa: E402
from oracles import index_is_divisible  # noqa: E402


def extension_goldens() -> dict:
    out = {}
    for fi, (label, coeffs) in enumerate(corpora.FIELDS):
        L = ops.numfield.NumberField(ops._poly(coeffs), label=label)
        emb = ops.numfield.rational_embedding(L)
        for p in corpora.PRIMES:
            if index_is_divisible(L.minpoly, p):
                exts = ops.padic.extend_valuation(ops.padic.padic_handle_on_Q(p), L, emb)
                out[f"{label}|{p}"] = sorted([w.e, w.f] for w in exts)
    return out


def measure_goldens() -> dict:
    out = {}
    for i in range(50):
        for c1 in range(0, 7):
            for c2 in range(1, 7) if i % 2 else (1,):
                primes, phi_text, _ = corpora.formula_instance(i, c1, c2)
                S = ops._flat(primes)
                phi = ops.formulas.parse(phi_text, nodes=set(S.tree.nodes))
                k, n = ops.measure.measure(phi, {}, S).tally
                out[corpora.measure_key(primes, phi_text)] = f"{k}/{n}"
    return out


def decide_goldens() -> dict:
    out = {}
    tree = ops.FiniteTree.flat("_", ["a"])
    for binder, coeffs in enumerate(corpora.BINDERS):
        for k, char in enumerate(corpora.SENTENCE_CHARS):
            for c in range(10):
                key = corpora.sentence_key(binder, k, c)
                if key in out:
                    continue
                cond = ops.formulas.parse(
                    corpora.sentence_condition(k, c, "a"), free_vars={"x"}, nodes={"a"}
                )
                psi = ops.PsiSentence(ops._poly(coeffs), {"a": cond})
                chi = ops.CharFunction(tree, {"_": 0, "a": char})
                out[key] = ops.decide.decide_psi(psi, tree, chi).per_node["a"].satisfiable
    return out


def cli_goldens() -> dict:
    directory = WORK / "record-cli"
    shutil.rmtree(directory, ignore_errors=True)
    write_cli_corpus(directory)
    try:
        fake = {"cli": {corpora.cli_request_key(a): None for a in corpora.CLI_REQUESTS}}
        out = {}
        for req in cli_requests(corpora.CLI_REQUESTS, directory, fake):
            code, stdout = req.run()
            out[corpora.cli_request_key(req.desc)] = {
                "exit": code, "stdout": stdout.decode("utf-8"),
            }
        return out
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main() -> int:
    goldens = {
        "extensions": extension_goldens(),
        "measure": measure_goldens(),
        "decide": decide_goldens(),
        "cli": cli_goldens(),
    }
    GOLDENS.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print({k: len(v) for k, v in goldens.items()}, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

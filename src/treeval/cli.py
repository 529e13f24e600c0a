"""Command-line entry point for reproducible batch runs.

Commands: extensions, measure, decide, fibers, smooth, parse.
Exit codes: 0 success, 2 parse error, 3 resource bound, 4 precondition
failure, 5 internal invariant violation (a falsified identity on a
valid instance, distinguished so harnesses can treat it as a theorem
failure rather than bad input).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from treeval.errors import (
    InvariantViolation,
    ParseError,
    PreconditionError,
    ResourceBoundError,
    UnsupportedHandleError,
)

EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_PRECONDITION = 4
EXIT_INVARIANT = 5


def _base_embedding(S, L):
    """Embedding of the structure constants into L (canonical root)."""
    from treeval.numfield import (
        FieldEmbedding,
        identity_embedding,
        rational_embedding,
        roots_in_field,
    )

    K = S.constants()
    if K.degree == 1:
        return rational_embedding(L) if L.degree > 1 or L != K else identity_embedding(K)
    if K == L:
        return identity_embedding(K)
    rts = roots_in_field(L, K.minpoly.map_coeffs(L, L.coerce))
    if not rts:
        raise PreconditionError("structure constants do not embed into the field")
    return FieldEmbedding(K, L, rts[0])


def cmd_extensions(args) -> int:
    from treeval.fileio import handle_str, load_field, load_structure
    from treeval.structures import enumerate_structure_extensions

    S = load_structure(args.structure)
    L = load_field(args.field)
    if L.degree > args.degree_bound:
        raise ResourceBoundError(
            f"target degree {L.degree} exceeds --degree-bound {args.degree_bound}"
        )
    emb = _base_embedding(S, L)
    exts = enumerate_structure_extensions(S, L, emb)
    for i, m in enumerate(exts.members):
        parts = " ".join(
            f"{n}=[{handle_str(m.assignment[n], args.precision)}]"
            for n in m.tree.nodes_sorted()
        )
        print(f"extension {i}: {parts}")
    print(f"count={len(exts.members)}")
    return 0


def cmd_measure(args) -> int:
    from treeval.fileio import load_formula, load_structure
    from treeval.measure import measure

    S = load_structure(args.structure)
    phi = load_formula(args.formula, nodes=set(S.tree.nodes))
    res = measure(phi, {}, S, degree_bound=args.degree_bound)
    k, n = res.tally
    label = res.witness_extension.field.label
    print(f"value={k}/{n} extensions={n} true={k} field={label}")
    return 0


def cmd_decide(args) -> int:
    from treeval.decide import decide_psi
    from treeval.fileio import load_sentence, structure_text

    psi, tree, chi = load_sentence(args.sentence)
    verdict = decide_psi(psi, tree, chi)
    print(f"consistent={'true' if verdict.consistent else 'false'}")
    for node in sorted(verdict.per_node):
        nv = verdict.per_node[node]
        print(f"node {node}: satisfiable={'true' if nv.satisfiable else 'false'}")
    if verdict.consistent and verdict.witness_structure is not None:
        out = args.witness_out or (args.sentence + ".witness")
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(structure_text(verdict.witness_structure, args.precision))
        print(f"witness={out}")
    return 0


def cmd_fibers(args) -> int:
    from treeval.fileio import load_field, load_structure
    from treeval.structures import fiber_report

    S_K = load_structure(args.base_structure)
    S_L = load_structure(args.over_structure)
    Kp = load_field(args.kprime)
    emb = _base_embedding(S_K, Kp)
    report = fiber_report(S_K, S_L, Kp, emb)
    sizes = ",".join(str(s) for s in report.sizes)
    print(
        f"fibers=[{sizes}] uniform={'true' if report.uniform else 'false'} "
        f"ratio={report.ratio}"
    )
    if not report.uniform:
        raise InvariantViolation("restriction fibers are not uniform")
    return 0


def cmd_smooth(args) -> int:
    from treeval.fileio import load_choice_system

    system = load_choice_system(args.system)
    for x in system.poset.elements:
        n = system.check_smooth_at(x)
        print(f"smooth[{x}]={'none' if n is None else n}")
    full = frozenset(system.poset.elements)
    sizes = system.fiber_sizes(full, frozenset())
    print(f"total={sizes[0] if sizes else 0}")
    return 0


def cmd_parse(args) -> int:
    from treeval.fileio import load_formula
    from treeval.formulas import print_formula

    phi = load_formula(args.formula)
    print(print_formula(phi))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treeval",
        description="Exact arithmetic for trees of valuation rings.",
    )
    ap.add_argument(
        "--degree-bound",
        type=int,
        default=6,
        help="maximum binder/extension degree (default 6)",
    )
    ap.add_argument(
        "--precision",
        type=int,
        default=20,
        help="p-adic digits for serialized handle pins (default 20)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extensions", help="list structure extensions to a field")
    p.add_argument("structure")
    p.add_argument("field")
    p.set_defaults(fn=cmd_extensions)

    p = sub.add_parser("measure", help="measure a formula over a structure")
    p.add_argument("structure")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("decide", help="decide a root-bounded sentence")
    p.add_argument("sentence")
    p.add_argument("--witness-out", default=None)
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("fibers", help="fiber report for a restriction map")
    p.add_argument("base_structure")
    p.add_argument("over_structure")
    p.add_argument("kprime")
    p.set_defaults(fn=cmd_fibers)

    p = sub.add_parser("smooth", help="smoothness report for a choice system")
    p.add_argument("system")
    p.set_defaults(fn=cmd_smooth)

    p = sub.add_parser("parse", help="echo a formula in canonical form")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_parse)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceBoundError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (PreconditionError, UnsupportedHandleError) as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except FileNotFoundError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

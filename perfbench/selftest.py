"""Self-test of the benchmark's output checks.

For each workload, a few operations run once against the recorded
goldens (error rate 0) and once with one planted wrong expected value
(error rate above 0).  Exits 0 when every check behaves.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

from worker import GOLDENS, WORK, check_ops, cli_requests, run_ops, write_cli_corpus

import corpora  # noqa: E402
import ops  # noqa: E402


def error_rate(op_list) -> float:
    results, _, _ = run_ops(op_list)
    return len(check_ops(op_list, results)) / len(op_list)


def planted(goldens, section, key, value) -> dict:
    out = copy.deepcopy(goldens)
    if key not in out[section]:
        raise KeyError(f"no golden {section}/{key} to plant over")
    out[section][key] = value
    return out


def main() -> int:
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    fi = [label for label, _ in corpora.FIELDS].index("Q(sqrt5)")
    ext = [("extend", fi, 2), ("extend", 0, 5), ("enumerate", fi, 0, (2, 3))]
    first = next(d for d in corpora.measure_corpus(0) if d[0] == "measure")
    decide = next(d for d in corpora.measure_corpus(0) if d[0] == "decide")
    name, k, c = decide[2][0]
    cli = [("parse", "half.txt"), ("smooth", "cs2.txt")]
    directory = WORK / "selftest-cli"
    shutil.rmtree(directory, ignore_errors=True)
    write_cli_corpus(directory)
    cases = [
        ("extensions: wrong (e,f) golden", lambda g: ops.extension_ops(ext, g),
         ("extensions", "Q(sqrt5)|2", [[1, 1], [1, 1]])),
        ("measure: wrong measure value", lambda g: ops.measure_ops([first, decide], g),
         ("measure", corpora.measure_key(first[1], first[2]), "9/9")),
        ("measure: wrong decide verdict", lambda g: ops.measure_ops([first, decide], g),
         ("decide", corpora.sentence_key(decide[1], k, c),
          not goldens["decide"][corpora.sentence_key(decide[1], k, c)])),
        ("cli-cold: wrong stdout", lambda g: cli_requests(cli, directory, g),
         ("cli", corpora.cli_request_key(cli[0]), {"exit": 0, "stdout": "wrong\n"})),
        ("cli-cold: wrong exit code", lambda g: cli_requests(cli, directory, g),
         ("cli", corpora.cli_request_key(cli[1]),
          dict(goldens["cli"][corpora.cli_request_key(cli[1])], exit=4))),
    ]
    ok = True
    try:
        for label, build, plant in cases:
            clean = error_rate(build(goldens))
            bad = error_rate(build(planted(goldens, *plant)))
            passed = clean == 0 and bad > 0
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {label}: error_rate {clean:g} -> {bad:g}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

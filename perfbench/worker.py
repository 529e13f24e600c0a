"""One pass of a workload in a fresh Python process.

A pass sets up (imports treeval and builds the seeded inputs; for
`cli-cold` only writes the file corpus), runs every operation of the
corpus once in a closed loop with one caller, checks every output, and
prints a JSON summary as the last line of standard output.  Because the
process is fresh, the library's module caches start empty, as in a
user's batch.

    python3 perfbench/worker.py --workload measure --seed 1 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDENS = HERE / "goldens.json"
CHILD_TIMEOUT_S = 60

sys.path.insert(1, str(SRC))
sys.path.append(str(ROOT / "tests"))  # oracles.py, imported read-only

from calibrate import Calibrator  # noqa: E402
from tracer import COUNTED, Tracer, install, layer_totals  # noqa: E402


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_ops(ops, tracer=None, cpu_clock=time.process_time, calibrator=None):
    """Run each op once; returns (results, wall seconds per op, CPU seconds
    per op).  An op that raises yields its exception as the result, which
    no check accepts.  A calibrator samples the machine's speed between
    operations, outside their timings."""
    results, wall, cpu = [], [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op, tracer.active = i, True
        cpu0, start = cpu_clock(), clock()
        try:
            result = op.run()
        except Exception as exc:  # recorded as a failed operation
            result = exc
        wall.append(clock() - start)
        cpu.append(cpu_clock() - cpu0)
        if tracer is not None:
            tracer.active = False
        results.append(result)
        if calibrator is not None:
            calibrator.tick()
    return results, wall, cpu


def check_ops(ops, results) -> list[str]:
    failures = []
    for op, result in zip(ops, results):
        if isinstance(result, BaseException):
            msg = f"raised {type(result).__name__}: {result}"
        else:
            try:
                msg = op.check(result)
            except Exception as exc:  # a malformed result fails its check
                msg = f"check raised {type(exc).__name__}: {exc}"
        if msg is not None:
            failures.append(f"{op.desc}: {msg}")
    return failures


def inproc_pass(workload, seed, goldens, traced, setup_only) -> dict:
    start = time.perf_counter()
    import ops as ops_mod  # imports treeval

    ops = ops_mod.build(workload, seed, goldens)
    out = {"setup_s": time.perf_counter() - start}
    calibrator = Calibrator()
    if setup_only:
        out["kernel"] = calibrator.finish()
        return out
    tracer = None
    if traced:
        tracer = Tracer()
        install(tracer)
    results, wall, cpu = run_ops(ops, tracer, calibrator=calibrator)
    out.update(
        kernel=calibrator.finish(),
        wall=wall,
        cpu=cpu,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        failures=check_ops(ops, results),
    )
    if tracer is not None:
        calls, self_s = layer_totals(tracer.spans)
        out["layers"] = {"calls": calls, "self_s": self_s, "counts": tracer.counts}
        out["spans"] = tracer.spans
    return out


class CliRequest:
    """One `python -m treeval.cli` child; the result is (exit code, stdout)."""

    __slots__ = ("desc", "cmd", "cwd", "env", "want")

    def __init__(self, args, cmd, cwd, env, want):
        self.desc, self.cmd, self.cwd, self.env, self.want = args, cmd, cwd, env, want

    def run(self):
        proc = subprocess.run(
            self.cmd, cwd=self.cwd, env=self.env, capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def check(self, result):
        code, stdout = result
        if code != self.want["exit"]:
            return f"exit {code}, expected {self.want['exit']}"
        if stdout != self.want["stdout"].encode():
            return f"stdout {stdout!r} differs from the recorded output"
        return None


def cli_requests(requests, cwd, goldens, spans_dir=None) -> list[CliRequest]:
    import corpora

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    out = []
    for i, args in enumerate(requests):
        if spans_dir is None:
            cmd = [sys.executable, "-m", "treeval.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_dir / f"{i}.json"), *args]
        want = goldens["cli"][corpora.cli_request_key(args)]
        out.append(CliRequest(args, cmd, cwd, env, want))
    return out


def write_cli_corpus(directory: Path) -> None:
    import corpora

    directory.mkdir(parents=True)
    for name, text in corpora.CLI_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def cli_pass(seed, goldens, traced, setup_only) -> dict:
    """The set-up builds the seeded request list and the child commands.
    The file corpus is written after it, untimed: it is the same for every
    seed, and the time to create its files drifts on a shared VM by a
    factor of two, independently of the CPU speed calibrate.py measures."""
    import corpora

    directory = WORK / f"cli-{os.getpid()}"
    spans_dir = directory / "spans" if traced else None
    start = time.perf_counter()
    reqs = cli_requests(corpora.cli_corpus(seed), directory, goldens, spans_dir)
    out = {"setup_s": time.perf_counter() - start}
    calibrator = Calibrator()
    if setup_only:
        out["kernel"] = calibrator.finish()
        return out
    shutil.rmtree(directory, ignore_errors=True)
    try:
        write_cli_corpus(directory)
        if traced:
            spans_dir.mkdir()
        results, wall, cpu = run_ops(reqs, cpu_clock=_children_cpu, calibrator=calibrator)
        out.update(
            kernel=calibrator.finish(),
            wall=wall,
            cpu=cpu,
            rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            failures=check_ops(reqs, results),
        )
        if traced:
            out.update(_merge_child_traces(spans_dir, len(reqs)))
        return out
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _merge_child_traces(spans_dir: Path, n: int) -> dict:
    """Sum the children's layer totals; renumber their spans into one list."""
    calls, self_s = layer_totals([])
    counts, spans = dict.fromkeys(COUNTED, 0), []
    for op in range(n):
        path = spans_dir / f"{op}.json"
        if not path.exists():  # the child failed before writing; already a failure
            continue
        child = json.loads(path.read_text(encoding="utf-8"))
        c, s = layer_totals(child["spans"])
        for k in c:
            calls[k] += c[k]
            self_s[k] += s[k]
        for k, v in child["counts"].items():
            counts[k] += v
        base = len(spans)
        spans.extend(
            (name, a, b, None if parent is None else parent + base, op)
            for name, a, b, parent, _ in child["spans"]
        )
    return {"layers": {"calls": calls, "self_s": self_s, "counts": counts}, "spans": spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["extensions", "measure", "cli-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="write the spans of a traced pass here")
    args = ap.parse_args(argv)
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    if args.workload == "cli-cold":
        out = cli_pass(args.seed, goldens, args.trace, args.setup_only)
    else:
        out = inproc_pass(args.workload, args.seed, goldens, args.trace, args.setup_only)
    spans = out.pop("spans", None)
    if spans is not None and args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

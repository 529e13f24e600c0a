"""The treeval benchmark: one workload, untraced or traced.

    python3 perfbench/run.py --workload extensions --seed 1 --seconds 30 --trace 0

Each pass is a fresh worker process (`worker.py`) that sets up, runs the
whole seeded corpus once and checks every output.  Passes repeat until
about `--seconds` of operations have been timed (the run stops when one
more pass would overshoot by more than half a pass) and at least MIN_OPS
operations have run.  Every time reported is scaled to a nominal
machine speed measured during the pass (calibrate.py).  `--trace 0`
reports the end-to-end metrics; `--trace 1` alternates untraced and
traced passes and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  `--workload all` runs the three workloads in turn
and prefixes each metric with its workload.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import factor
from tracer import COUNTED, SPANNED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("extensions", "measure", "cli-cold")
MIN_OPS = 110  # so the p90 latency has at least ten samples above it
MIN_TRACED_PASSES = 2  # the count metrics must repeat exactly between them
SETUP_EXTRA = 3  # set-up-only workers after each pass; setup_s is the median
DEADLINE_S = 120  # no pass starts later than this after the run began
LIMIT_S = 170  # a worker still running this long after the run began is killed

# Entry points each workload must reach (the layer-to-end-to-end map of
# README.md).  A zero count means a wrapper missed a binding.
REQUIRED = {
    "extensions": (
        "gf.poly_factor", "maclane.decompose", "padic.padic_handles",
        "padic.extend_valuation", "numfield.automorphisms", "funcfield.gauss_extend",
        "structures.enumerate_structure_extensions", "structures.fiber_report",
        "trees.ChoiceSystem.fiber_sizes", "polys.Poly.divmod", "gf.FF.inv",
    ),
    "measure": (
        "numfield.factor_over_field", "qfactor.factor_over_Q", "numfield.splitting_field",
        "formulas.evaluate", "measure.measure_over", "measure.check_axioms",
        "structures.enumerate_structure_extensions", "decide.decide_psi",
    ),
    "cli-cold": (
        "cli.import", "cli.main", "formulas.parse", "fileio.parse_structure",
        "numfield.splitting_field", "decide.decide_psi",
    ),
}
RATIOS = (
    "padic.padic_handles.miss_ratio",
    "numfield.factor_over_field.calls_per_op",
    "structures.enumerate_structure_extensions.calls_per_op",
)


class WorkerError(Exception):
    pass


def run_worker(workload, seed, *flags, began):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    # A session of its own, so that a timeout also ends the worker's CLI children.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(began + LIMIT_S - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise WorkerError(f"worker timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.splitlines()[-1])


def run_passes(workload, seed, seconds, began, flags_for=lambda i: (), min_passes=1,
               setup_extra=0):
    """Passes until about `seconds` of timed operations and MIN_OPS
    operations; returns the passes and every set-up time measured.  The
    set-up-only workers run between passes, so that the set-up samples are
    spread over the run like the passes."""
    passes, setups = [], []
    while True:
        p = run_worker(workload, seed, *flags_for(len(passes)), began=began)
        passes.append(p)
        setups.append(p["setup_s"] * factor(p["kernel"]))
        for _ in range(setup_extra):
            s = run_worker(workload, seed, "--setup-only", began=began)
            setups.append(s["setup_s"] * factor(s["kernel"]))
        timed = sum(sum(p["wall"]) for p in passes)
        ops = sum(len(p["wall"]) for p in passes)
        enough = (
            timed + timed / len(passes) / 2 >= seconds
            and ops >= MIN_OPS
            and len(passes) >= min_passes
        )
        if enough or time.monotonic() > began + DEADLINE_S:
            return passes, setups


def quantile(values, q) -> float:
    """The Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, with the weights of the Beta((n+1)q, (n+1)(1-q))
    density over each rank's slice of [0, 1].  Where the tail is sparse
    it moves much less between runs than a single order statistic."""
    xs, steps = sorted(values), 8
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((j + 0.5) / (n * steps) for j in range(n * steps))]
    top = max(logs)
    dens = [math.exp(x - top) for x in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def scaled(p, key="wall") -> list[float]:
    """A pass's per-operation times, scaled by the machine's speed during
    the pass (calibrate.py)."""
    f = factor(p["kernel"])
    return [x * f for x in p[key]]


def end_to_end(workload, passes, setups) -> tuple[dict, dict]:
    """The end-to-end metrics, from scaled times; the notes give the
    unscaled values."""
    lat = [x for p in passes for x in scaled(p)]
    raw = [x for p in passes for x in p["wall"]]
    ops = len(lat)
    p90 = quantile(lat, 0.9)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / sum(lat), "1/s"),
        "latency_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "cpu_ms_per_op": (sum(sum(scaled(p, "cpu")) for p in passes) / ops * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    raw_cpu = sum(x for p in passes for x in p["cpu"]) / ops * 1e3
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"unscaled {ops / sum(raw):.6g}; time scaled by {sum(lat) / sum(raw):.4g}",
        "latency_p50_ms": f"{ops} samples; unscaled {quantile(raw, 0.5) * 1e3:.6g}",
        "latency_p90_ms": f"{ops} samples, {sum(x > p90 for x in lat)} above; unscaled "
                          f"{quantile(raw, 0.9) * 1e3:.6g}",
        "cpu_ms_per_op": f"unscaled {raw_cpu:.6g}",
        "peak_rss_mb": "median over passes" + (", largest child" if workload == "cli-cold" else ""),
    }
    return metrics, notes


def layer_metrics(p) -> dict:
    layers, ops = p["layers"], len(p["wall"])
    f = factor(p["kernel"])
    calls = layers["calls"]
    m = {}
    for name in SPANNED:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = layers["self_s"][name] * f
    for name in COUNTED:
        m[f"{name}.calls"] = layers["counts"][name]
    handles = calls["padic.padic_handles"]
    m["padic.padic_handles.miss_ratio"] = calls["maclane.decompose"] / handles if handles else 0.0
    m["numfield.factor_over_field.calls_per_op"] = calls["numfield.factor_over_field"] / ops
    m["structures.enumerate_structure_extensions.calls_per_op"] = (
        calls["structures.enumerate_structure_extensions"] / ops
    )
    return m


def per_layer(workload, untraced, traced) -> tuple[dict, list[str]]:
    if not traced:
        raise WorkerError(f"no traced pass finished within {DEADLINE_S} s")
    per_pass = [layer_metrics(p) for p in traced]
    errors = []
    if len(traced) < MIN_TRACED_PASSES:
        errors.append(f"only {len(traced)} traced pass: the counts cannot be compared")
    exact = [k for k in per_pass[0] if k.endswith(".calls") or k in RATIOS]
    for k in exact:
        values = [m[k] for m in per_pass]
        if len(set(values)) != 1:
            errors.append(f"{k} differs between traced passes of one seed: {values}")
    for name in REQUIRED[workload]:
        if per_pass[0][f"{name}.calls"] == 0:
            errors.append(f"{name} recorded no calls on {workload}: a binding was missed")
    metrics = {}
    for k in per_pass[0]:
        if k in exact:
            metrics[k] = (per_pass[0][k], "count" if k.endswith(".calls") else "ratio")
        else:
            metrics[k] = (statistics.median(m[k] for m in per_pass), "s")

    def rate(ps):
        return statistics.median(len(p["wall"]) / sum(scaled(p)) for p in ps)

    metrics["trace.overhead_ratio"] = (rate(traced) / rate(untraced), "ratio")
    return metrics, errors


def run_workload(workload, seed, seconds, trace) -> dict:
    """Run one workload, print its metric lines and return its result."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    began = time.monotonic()
    if trace:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(exist_ok=True)

        def flags(i):  # untraced and traced passes alternate
            return ("--trace", "--spans-out", str(spans_dir / f"{tag}-pass{i}.json")) if i % 2 else ()

        passes, _ = run_passes(
            workload, seed, seconds, began, flags, min_passes=2 * MIN_TRACED_PASSES
        )
        metrics, errors = per_layer(workload, passes[0::2], passes[1::2])
        notes = {}
    else:
        passes, setups = run_passes(workload, seed, seconds, began, setup_extra=SETUP_EXTRA)
        metrics, notes = end_to_end(workload, passes, setups)
        errors = []

    attempted = sum(len(p["wall"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"workload={workload} seed={seed} trace={trace} "
          f"passes={len(passes)} operations={attempted}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"error_rate = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} failed)")
    for msg in (failures + errors)[:20]:
        print(f"FAIL {msg}")
    result = {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(
        json.dumps({"result": result, "passes": passes}) + "\n"
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "treeval" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a "
                  "treeval checkout", file=sys.stderr)
            return 2
    for d in (ROOT / "src" / "treeval", HERE):
        compileall.compile_dir(str(d), quiet=1)
    compileall.compile_file(str(ROOT / "tests" / "oracles.py"), quiet=1)
    WORK.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""magiclab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload enumerate-nd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each iteration runs worker.py in a fresh interpreter with the checkout's
src/ on PYTHONPATH, in a scratch directory of its own under .perfbench/ and
with MAGICLAB_BASE_CACHE pointing there, so no in-process cache carries over,
nothing depends on the caller's working directory and the repository's
data/bases/ is never read or written.  Iterations repeat until the next one
would end after --seconds; every metric is the median over iterations.

The speed of the shared host drifts by up to a third over seconds to
minutes, and the workloads slow down with it.  So each worker times a fixed
calibration loop just before and just after its timed phase, and run.py
scales every timing of that worker by REFERENCE_LOOP_S over the faster of
the two loops: timings are reported at the speed of a host that runs the
loop in REFERENCE_LOOP_S.  The table before the result line shows the scale
factors.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1
each iteration is four fresh interpreters: the workload untraced, the
workload traced, and the non-degenerate enumeration behind
search.parallel_speedup at thread budgets 2 and 1; the order of the four is
reversed every other iteration.  The run reports the per-layer metrics, plus
the tracing overhead: traced minus untraced wall_s.  The spans of the traced
iterations are written to .perfbench/trace-<workload>-seed<seed>.json when
the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 whenever that line is
printed, also when an output failed its check or a worker ran out of time
(then metrics is empty); it is 2 when the checkout has no magiclab sources,
and 1 when the harness itself broke.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("enumerate-nd", "enumerate-all", "fixed-graph", "witness")
# A run must end within 180 s; a worker still going at this point is killed
# and counts as one failed operation.
HARD_LIMIT_S = 160.0

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "call_ms.p50": "ms",
    "call_ms.p90": "ms",
}
LAYER_UNITS = {
    "search.enumerate_sr.s": "s",
    "search.quotient.self_s": "s",
    "search.enumerate_sr.budget1_s": "s",
    "search.parallel_speedup": "x",
    "search.emitted": "count",
    "search.find_labelings.sr_s": "s",
    "search.find_labelings.dm_s": "s",
    "search.find_labelings.found": "count",
    "labelings.verify.us_per_pair": "us",
    "labelings.label_graph.us_per_pair": "us",
    "quotients.round_trip.us_per_pair": "us",
    "graphs.canonical_code.us_per_graph": "us",
    "graphs.canonical_code.calls": "count",
    "graphs.is_vertex_transitive.us_per_class": "us",
    "graphs.automorphism_group.ms": "ms",
    "merges.witness.cold_ms": "ms",
    "merges.witness.warm_ms": "ms",
    "merges.extend_by_w4.us_per_step": "us",
    "merges.base_cache.build_s": "s",
    "merges.base_cache.writes": "count",
    "trace.overhead_s": "s",
    "trace.harness_self_s": "s",
}
# Calibration loop seconds of the host the timings are scaled to; about the
# reference machine's usual speed (README.md).
REFERENCE_LOOP_S = 0.015
TIME_UNITS = {"s", "ms", "us"}

# Iteration kinds of a traced run: (traced, thread budget of the speed-up
# enumeration, or 0 for the workload itself).
TRACE_KINDS = {
    "plain": (False, 0),
    "traced": (True, 0),
    "budget2": (False, 2),
    "budget1": (False, 1),
}


class HarnessError(RuntimeError):
    """The worker broke in a way that says nothing about magiclab's outputs."""


def _worker(workload, seed, iteration, kind, scale, alter_expected, hard_deadline):
    """One iteration in a fresh interpreter; None when it ran out of time."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["MAGICLAB_BASE_CACHE"] = os.path.join(workdir, "bases")
    traced, budget = TRACE_KINDS[kind]
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--iteration", str(iteration),
        "--trace", str(int(traced)),
        "--scale", scale,
        "--budget", str(budget),
    ]
    if alter_expected:
        cmd.append("--alter-expected")
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned)],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, hard_deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload, seed, seconds, trace, scale="full", alter_expected=False) -> dict:
    """Iterate one workload for about `seconds` and aggregate the iterations.

    When a worker runs out of time before the first complete iteration, the
    result has no metrics and the timeout counts as a failed operation.
    """
    start = time.monotonic()
    soft, hard = start + seconds, start + HARD_LIMIT_S
    kinds = list(TRACE_KINDS) if trace else ["plain"]
    runs = {kind: [] for kind in kinds}
    timed_out = 0
    iteration = 0
    while not timed_out:
        began = time.monotonic()
        for kind in kinds if iteration % 2 == 0 else kinds[::-1]:
            res = _worker(workload, seed, iteration, kind, scale, alter_expected, hard)
            if res is None:
                timed_out += 1
                break
            res["scale"] = REFERENCE_LOOP_S / res["loop_s"]
            runs[kind].append(res)
        else:
            iteration += 1
        now = time.monotonic()
        if now + (now - began) > soft:
            break

    done = [r for rs in runs.values() for r in rs]
    attempted = sum(r["attempted"] for r in done) + timed_out
    failures = [f"{op}: {why}" for r in done for op, why in r["failures"].items()]
    failures += [f"worker still running after {HARD_LIMIT_S:.0f} s"] * timed_out
    med = statistics.median

    def scaled(rs, key):
        """Median of one timing over iterations, each at reference speed."""
        return med(r[key] * r["scale"] for r in rs)

    if not iteration:
        metrics, units = {}, {}
    elif trace:
        traced, plain = runs["traced"], runs["plain"]
        metrics = {
            name: med(
                r["layers"][name] * (r["scale"] if LAYER_UNITS[name] in TIME_UNITS else 1)
                for r in traced
            )
            for name in LAYER_UNITS
            if name in traced[0]["layers"]
        }
        budget1_s = scaled(runs["budget1"], "wall_s")
        metrics["search.enumerate_sr.budget1_s"] = budget1_s
        metrics["search.parallel_speedup"] = budget1_s / scaled(runs["budget2"], "wall_s")
        metrics["trace.overhead_s"] = scaled(traced, "wall_s") - scaled(plain, "wall_s")
        metrics["trace.harness_self_s"] = scaled(traced, "harness_self_s")
        metrics = {name: metrics[name] for name in LAYER_UNITS}
        units = LAYER_UNITS
        WORK.mkdir(exist_ok=True)
        trace_file = WORK / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps([s for r in traced for s in r["spans"]]))
    else:
        plain = runs["plain"]
        calls = [1e3 * s * r["scale"] for r in plain for s in r["call_seconds"]]
        metrics = {
            "wall_s": scaled(plain, "wall_s"),
            "cpu_s": scaled(plain, "cpu_s"),
            "items_per_s": med(r["items"] / (r["wall_s"] * r["scale"]) for r in plain),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
            "setup_s": scaled(plain, "setup_s"),
            "call_ms.p50": _percentile(calls, 50),
            "call_ms.p90": _percentile(calls, 90),
        }
        units = E2E_UNITS
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "iterations": iteration,
        "call_samples": sum(len(r["call_seconds"]) for r in runs["plain"]),
        "scales": [r["scale"] for r in done],
        "raw_wall_s": med(r["wall_s"] for r in runs["plain"]) if runs["plain"] else None,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _print_summary(res):
    print(
        f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
        f"nproc {os.cpu_count()}  iterations {res['iterations']}"
    )
    for name, m in res["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    ratio = res["failed"] / max(res["attempted"], 1)
    print(f"  {'fail_ratio':<42} {ratio:>14.6g} 1  ({res['failed']} of {res['attempted']} operations)")
    if not res["trace"]:
        print(f"  {'call_ms samples':<42} {res['call_samples']:>14d} count")
    if res["scales"]:
        print(
            f"  timings scaled to reference speed by {min(res['scales']):.3f} to "
            f"{max(res['scales']):.3f}; unscaled wall_s median {res['raw_wall_s']:.6g} s"
        )
    for line in res["failures"][:10]:
        print(f"  FAILED {line}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the harness self-test only.
    ap.add_argument("--scale", choices=("full", "small"), default="full", help=argparse.SUPPRESS)
    ap.add_argument("--alter-expected", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "magiclab" / "__init__.py").is_file():
        print(f"no magiclab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = [
            measure(n, args.seed, args.seconds, args.trace, args.scale, args.alter_expected)
            for n in names
        ]
    except HarnessError as exc:
        print(f"benchmark harness failed: {exc}", file=sys.stderr)
        return 1
    for res in results:
        _print_summary(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One timed iteration of a workload, in a fresh interpreter.

run.py starts this script once per iteration, so magiclab's in-process
caches and the peak-RSS high-water mark start empty every time.  It prints
one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def calibration_loop_s() -> float:
    """Seconds of a fixed pure-Python integer loop, the best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--iteration", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "small"), required=True)
    ap.add_argument("--alter-expected", action="store_true")
    # Nonzero: run the non-degenerate enumeration behind
    # search.parallel_speedup at this thread budget instead of the workload.
    ap.add_argument("--budget", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    import magiclab

    # An installed copy must not stand in for the checkout's sources.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.dirname(os.path.abspath(magiclab.__file__)) != os.path.join(src, "magiclab"):
        print(f"magiclab imported from {magiclab.__file__}, not {src}", file=sys.stderr)
        return 2

    import layers
    from tracing import Tracer
    from workloads import WORKLOADS, speedup_workload

    run_id = f"{args.workload}-{args.seed}-{args.iteration}-{os.getpid()}"
    tracer = Tracer(run_id, enabled=bool(args.trace))
    wl = speedup_workload(args.workload, args.budget) if args.budget else WORKLOADS[args.workload]
    inp = wl.prepare(args.seed, args.iteration, args.scale, args.alter_expected)

    # Set-up ends here: interpreter start, imports and inputs.
    ready = time.monotonic()
    loop_before = calibration_loop_s()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer.span(f"workload.{args.workload}"):
        raw = wl.run(inp, tracer)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    call_seconds = list(tracer.call_seconds)
    # The faster of the two: a thread the library left running can slow
    # only the second.
    loop_s = min(loop_before, calibration_loop_s())

    outcome = wl.check(inp, raw)
    result = {
        "setup_s": ready - args.spawned_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "items": outcome.items,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "call_seconds": call_seconds,
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["harness_self_s"] = tracer.self_time(0)
        result["layers"] = layers.measure(
            inp, outcome, tracer, args.seed, args.iteration, os.getcwd()
        )
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at reduced size, untraced and traced, and checks that
each metric BENCHMARK.json names appears with its unit; that an expected
count altered on purpose makes the run report failed operations; that a
worker out of time still gives a result, with a failed operation; that the
seed fixes the inputs and seed 0 keeps the family numbering; and that run.py
refuses a directory without the magiclab sources.  Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def _result(*args) -> dict:
    code, lines, err = _run(ROOT, *args, "--seed", "1", "--seconds", "1", "--scale", "small")
    if code != 0 or not lines:
        raise AssertionError(f"run.py {' '.join(args)} exited {code}: {err[-1000:]}")
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys {sorted(res)}")
    return res


def check_metrics() -> list[str]:
    problems = []
    for wl in SPEC["workloads"]:
        name = wl["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = _result("--workload", name, "--trace", str(trace))
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
            for k, v in res["metrics"].items():
                value = v["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{name} trace {trace}: {k} = {value!r}")
                elif group == "end_to_end" and value <= 0:
                    problems.append(f"{name}: end-to-end metric {k} = {value}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{name} trace {trace}: {res['failed']} of {res['attempted']} failed")
        altered = _result("--workload", name, "--trace", "0", "--alter-expected")
        if altered["correct"] or altered["failed"] < 1:
            problems.append(f"{name}: an altered expected count was not reported as failed")
    return problems


def check_seeds() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    wl = WORKLOADS["fixed-graph"]

    def graphs(seed, iteration):
        return [case[1] for case in wl.prepare(seed, iteration, "small", False).cases]

    problems = []
    if graphs(5, 0) != graphs(5, 0):
        problems.append("the same seed gave different fixed-graph inputs")
    if graphs(5, 0) == graphs(6, 0):
        problems.append("different seeds gave the same fixed-graph inputs")
    family = [make() for _, make, *_ in wl.cases["small"]]
    if graphs(0, 3) != family:
        problems.append("seed 0 did not keep the family numbering")
    return problems


def check_timeout() -> list[str]:
    """A worker killed at the hard limit is a failed operation, not a crash."""
    import run

    saved = run.HARD_LIMIT_S
    run.HARD_LIMIT_S = 0.5
    try:
        res = run.measure("witness", 1, 1, 0, scale="small")
    finally:
        run.HARD_LIMIT_S = saved
    if res["failed"] < 1 or res["failed"] > res["attempted"] or res["metrics"]:
        return [f"a timed-out run reported {res['failed']} of {res['attempted']} failed"]
    return []


def check_refuses_bare_directory() -> list[str]:
    """run.py must fail, printing no result, where only the benchmark is."""
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = _run(
            bare, "--workload", "witness", "--seed", "1", "--seconds", "1", "--trace", "0"
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"run.py in a directory without sources exited {code} with {lines[-1:]}"]
    return []


def main() -> int:
    problems = check_seeds() + check_timeout() + check_refuses_bare_directory()
    problems += check_metrics()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

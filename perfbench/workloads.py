"""The benchmark's four workloads.

Each workload makes its inputs from the seed and the iteration number, calls
magiclab's public functions inside the timed phase, and afterwards checks
every output against known answers.  A wrong answer, an exception or a hit
time limit marks the operation as failed, so it is never reported as a fast
run.

Every workload has two sizes: "full" is what the benchmark measures and
"small" is the reduced size the harness self-test runs.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

from magiclab.families import cartesian_cycles, wreath
from magiclab.graphs import Graph, apply_permutation, are_isomorphic
from magiclab.labelings import (
    is_degenerate,
    is_distance_magic,
    is_self_reverse,
    label_graph,
    label_graph_to_json,
)
from magiclab.merges import witness, witness_non_wreath, witness_nondegenerate
from magiclab.search import SearchOptions, enumerate_sr, find_labelings

# A search that runs this long is stopped by the library and counted as failed.
CALL_LIMIT_S = 120.0

# Published rows (#SR, #gr, #VT) of non-degenerate self-reverse classes;
# below order 16 there are none.
TABLE1 = {
    **{n: (0, 0, 0) for n in range(12, 16)},
    16: (48, 1, 1),
    17: (0, 0, 0),
    18: (136, 2, 1),
    19: (0, 0, 0),
    20: (66, 2, 1),
}

# Rows with degenerate classes allowed: the non-degenerate count plus the
# (n/2 - 1)!/2 degenerate classes, which all live on the wreath graph.
ALL_ROWS = {
    8: (1 + 3, 1, 1),
    14: (0 + 360, 1, 1),
    16: (48 + 2520, 1, 1),
}

# sha256 (first 16 hex digits) of the sorted label-graph JSON of the classes
# enumerate_sr returns, by (flags, order).  Label graphs do not depend on
# vertex numbering, so the fixed-graph workload checks its searches against
# these same digests: a family graph that is the only graph of its order
# carrying such labelings must give exactly the enumerator's classes.
DIGESTS = {
    **{("nd", n): "e3b0c44298fc1c14" for n in range(12, 16)},
    ("nd", 16): "844dc19fb3ce6846",
    ("nd", 17): "e3b0c44298fc1c14",
    ("nd", 18): "9251917324468ff0",
    ("nd", 19): "e3b0c44298fc1c14",
    ("nd", 20): "6256c6b78de88248",
    ("all", 8): "abc9660da8be5abe",
    ("all", 10): "46182dd0adbe0f3e",
    ("all", 12): "9c2d7d5cac7180aa",
    ("all", 14): "cfe441eb659fddf6",
    ("all", 16): "7457ed93fbbc4537",
}
NO_CLASSES = "e3b0c44298fc1c14"


def classes_digest(pairs) -> str:
    text = "\n".join(sorted(label_graph_to_json(label_graph(g, l)) for g, l in pairs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def seeded_rng(*parts) -> random.Random:
    """A generator fixed by its parts; string seeds do not depend on the
    interpreter's hash seed."""
    return random.Random(":".join(map(str, parts)))


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return apply_permutation(g, perm)


@dataclass
class Outcome:
    """What one timed run produced, after its checks."""

    attempted: int = 0
    items: int = 0
    failures: dict = field(default_factory=dict)  # operation -> reason
    pairs: list = field(default_factory=list)  # outputs, for the traced replay

    def fail(self, op, reason: str):
        self.failures.setdefault(str(op), reason)


class EnumerateWorkload:
    """enumerate_sr over a range of orders, checked row by row."""

    def __init__(self, nondegenerate, thread_budget, orders, rows, digest_tag):
        self.nondegenerate = nondegenerate
        self.thread_budget = thread_budget
        self.orders = orders
        self.rows = rows
        self.digest_tag = digest_tag

    def prepare(self, seed, iteration, scale, alter_expected):
        orders = list(self.orders[scale])
        rows = {n: self.rows[n] for n in orders}
        if alter_expected:
            sr, gr, vt = rows[orders[0]]
            rows[orders[0]] = (sr + 1, gr, vt)
        opts = SearchOptions(
            require_nondegenerate=self.nondegenerate,
            thread_budget=self.thread_budget,
            time_limit=CALL_LIMIT_S,
        )
        return SimpleNamespace(orders=orders, rows=rows, opts=opts)

    def run(self, inp, tracer):
        out = {}
        for n in inp.orders:
            try:
                out[n] = tracer.call("search.enumerate_sr", enumerate_sr, n, inp.opts)
            except Exception as exc:  # counted as a failed operation
                out[n] = exc
        return out

    def check(self, inp, raw) -> Outcome:
        oc = Outcome(attempted=len(inp.orders))
        for n, res in raw.items():
            if isinstance(res, Exception):
                oc.fail(n, f"raised {res!r}")
                continue
            pairs, rep = res
            row = (rep.sr_count, rep.iso_class_count, rep.vt_count)
            if not rep.complete:
                oc.fail(n, "hit the time limit")
            elif row != inp.rows[n]:
                oc.fail(n, f"row {row} != expected {inp.rows[n]}")
            elif len(pairs) != rep.sr_count:
                oc.fail(n, f"{len(pairs)} pairs for {rep.sr_count} classes")
            elif classes_digest(pairs) != DIGESTS[(self.digest_tag, n)]:
                oc.fail(n, "returned classes differ from the reference")
            else:
                oc.items += len(pairs)
                oc.pairs.extend(pairs)
        return oc


FIXED_MODES = {
    "sr": SearchOptions(require_self_reverse=True, time_limit=CALL_LIMIT_S),
    "dm": SearchOptions(require_self_reverse=False, time_limit=CALL_LIMIT_S),
}


class FixedGraphWorkload:
    """Exhaustive find_labelings on family graphs under a seeded numbering."""

    name = "fixed-graph"
    # (graph name, constructor, mode, expected number of classes, digest).
    # Up to order 16 the wreath graph is the only graph with self-reverse
    # classes (criterion 3), so its searches must return the enumerator's
    # classes and the odd-order cycle products none; wreath(5) and wreath(6)
    # have no distance magic classes beyond the self-reverse ones.
    cases = {
        "full": [
            ("wreath(6)", lambda: wreath(6), "sr", 60, DIGESTS[("all", 12)]),
            ("cartesian_cycles(3,5)", lambda: cartesian_cycles(3, 5), "sr", 0, NO_CLASSES),
            ("wreath(6)", lambda: wreath(6), "dm", 60, DIGESTS[("all", 12)]),
        ],
        "small": [
            ("wreath(5)", lambda: wreath(5), "sr", 12, DIGESTS[("all", 10)]),
            ("cartesian_cycles(3,3)", lambda: cartesian_cycles(3, 3), "sr", 0, NO_CLASSES),
            ("wreath(5)", lambda: wreath(5), "dm", 12, DIGESTS[("all", 10)]),
        ],
    }

    def prepare(self, seed, iteration, scale, alter_expected):
        cases = []
        for i, (gname, make, mode, expected, digest) in enumerate(self.cases[scale]):
            g = make()
            # Seed 0 keeps the family's own numbering.
            if seed != 0:
                g = relabel(g, seeded_rng(self.name, seed, iteration, i))
            if alter_expected and i == 0:
                expected += 1
            cases.append((f"{gname}/{mode}", g, mode, expected, digest))
        return SimpleNamespace(cases=cases)

    def run(self, inp, tracer):
        out = []
        for key, g, mode, _, _ in inp.cases:
            try:
                out.append(
                    tracer.call(f"search.find_labelings.{mode}", find_labelings, g, FIXED_MODES[mode])
                )
            except Exception as exc:  # counted as a failed operation
                out.append(exc)
        return out

    def check(self, inp, raw) -> Outcome:
        oc = Outcome(attempted=len(inp.cases))
        for (key, g, mode, expected, digest), res in zip(inp.cases, raw):
            if isinstance(res, Exception):
                oc.fail(key, f"raised {res!r}")
                continue
            pairs = [(g, l) for l in res]
            bad = [
                l
                for l in res
                if not is_distance_magic(g, l)
                or (mode == "sr" and not is_self_reverse(g, l))
            ]
            if len(res) != expected:
                oc.fail(key, f"{len(res)} classes != expected {expected}")
            elif bad:
                oc.fail(key, f"{len(bad)} labelings fail the predicates")
            elif classes_digest(pairs) != digest:
                oc.fail(key, "returned classes differ from the reference")
            else:
                oc.items += 1
                oc.pairs.extend(pairs)
        return oc


def witness_expected(fname: str, n: int) -> bool:
    """Which orders have a witness (acceptance criterion 6)."""
    if fname == "witness":
        return (n % 2 == 0 and n >= 6) or (n % 2 == 1 and n >= 21)
    if fname == "witness_nondegenerate":
        return n >= 23 or n in (8, 16, 18, 20, 21)
    return n >= 18 and n not in (19, 22)


class WitnessWorkload:
    """The three witness functions over a range of orders, twice: first from
    an empty base cache, which builds and writes the bases, then reading them
    back."""

    name = "witness"
    functions = {
        "witness": witness,
        "witness_nondegenerate": witness_nondegenerate,
        "witness_non_wreath": witness_non_wreath,
    }
    orders = {"full": range(5, 61), "small": range(5, 25)}

    def prepare(self, seed, iteration, scale, alter_expected):
        calls = [(f, n) for n in self.orders[scale] for f in self.functions]
        passes = {}
        for name in ("cold", "warm"):
            order = list(calls)
            if seed != 0:
                seeded_rng(self.name, seed, iteration, name).shuffle(order)
            passes[name] = order
        flip = calls[0] if alter_expected else None
        cache = os.environ["MAGICLAB_BASE_CACHE"]
        os.makedirs(cache, exist_ok=True)
        if os.listdir(cache):
            raise RuntimeError(f"base cache {cache} is not empty")
        return SimpleNamespace(passes=passes, flip=flip, cache=cache)

    def run(self, inp, tracer):
        out = []
        for pass_name, order in inp.passes.items():
            with tracer.span(f"merges.pass.{pass_name}"):
                for fname, n in order:
                    before = len(os.listdir(inp.cache)) if tracer.enabled else 0
                    try:
                        res = tracer.call(f"merges.{fname}", self.functions[fname], n)
                    except Exception as exc:  # counted as a failed operation
                        res = exc
                    if tracer.enabled and len(os.listdir(inp.cache)) > before:
                        tracer.spans[-1]["wrote_base"] = True
                    out.append((pass_name, fname, n, res))
        return out

    def check(self, inp, raw) -> Outcome:
        oc = Outcome(attempted=len(raw))
        for pass_name, fname, n, res in raw:
            op = f"{pass_name}:{fname}({n})"
            if isinstance(res, Exception):
                oc.fail(op, f"raised {res!r}")
                continue
            expect = witness_expected(fname, n) != ((fname, n) == inp.flip)
            if (res is not None) != expect:
                oc.fail(op, "presence differs from criterion 6")
                continue
            if res is not None:
                g, l = res
                ok = (
                    g.n == n
                    and g.is_connected()
                    and g.is_regular(4)
                    and is_distance_magic(g, l)
                    and is_self_reverse(g, l)
                )
                if fname != "witness":
                    ok = ok and not is_degenerate(g, l)
                if fname == "witness_non_wreath" and n % 2 == 0:
                    ok = ok and not are_isomorphic(g, wreath(n // 2))
                if not ok:
                    oc.fail(op, "returned pair fails verification")
                    continue
                if pass_name == "cold":
                    oc.pairs.append(res)
            oc.items += 1
        return oc


WORKLOADS = {
    "enumerate-nd": EnumerateWorkload(
        nondegenerate=True,
        thread_budget=2,
        orders={"full": [17, 19, 20], "small": range(16, 18)},
        rows=TABLE1,
        digest_tag="nd",
    ),
    "enumerate-all": EnumerateWorkload(
        nondegenerate=False,
        thread_budget=1,
        orders={"full": [16], "small": [8, 14]},
        rows=ALL_ROWS,
        digest_tag="all",
    ),
    "fixed-graph": FixedGraphWorkload(),
    "witness": WitnessWorkload(),
}

# The small non-degenerate enumeration that stands in for enumerate_sr on a
# workload that does not call it.
SEARCH_PROBE_ORDERS = range(12, 17)


def speedup_workload(workload: str, thread_budget: int) -> EnumerateWorkload:
    """Non-degenerate enumerate_sr at the given thread budget, on the orders
    whose budget-1 and budget-2 times give search.parallel_speedup:
    enumerate-nd's own orders there, the search probe's elsewhere."""
    if workload == "enumerate-nd":
        orders = WORKLOADS[workload].orders
    else:
        orders = {"full": SEARCH_PROBE_ORDERS, "small": SEARCH_PROBE_ORDERS}
    return EnumerateWorkload(True, thread_budget, orders, TABLE1, "nd")

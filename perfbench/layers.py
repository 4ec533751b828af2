"""Per-layer numbers for the traced run.

The traced run first times the workload with a span around each public call.
It then replays the workload's outputs through each layer's public
functions, one span per replayed phase.  A layer the workload does not call
at all (the merges on an enumeration, say) is measured on a small fixed
probe, so every per-layer metric is reported on every workload; README.md
lists which source each metric takes.
"""

from __future__ import annotations

import os
import time

from magiclab.families import wreath
from magiclab.graphs import GraphError, automorphism_group, canonical_code, is_vertex_transitive
from magiclab.labelings import is_degenerate, is_distance_magic, is_self_reverse, label_graph
from magiclab.merges import extend_by_w4
from magiclab.quotients import SOLID, lift, quotient
from magiclab.search import SearchOptions, enumerate_sr, find_labelings

from workloads import FIXED_MODES, SEARCH_PROBE_ORDERS, WitnessWorkload, relabel, seeded_rng

# Listing a group is exponential in the twin classes of a wreath graph.
AUT_MAX_ORDER = 20
VT_MAX_ORDER = 32
PROBE_OPTS = SearchOptions(require_nondegenerate=True, thread_budget=2)
PROBE_WITNESS = [
    ("witness", 6),
    ("witness_nondegenerate", 18),
    ("witness_non_wreath", 20),
    ("witness_nondegenerate", 26),
]
EXTEND_PAIRS = 4
EXTEND_STEPS = 3


def _timed(tracer, name, fn):
    with tracer.span(name):
        start = time.perf_counter()
        out = fn()
    return out, time.perf_counter() - start


def replay(pairs, tracer, rng) -> dict:
    """Time each layer's public functions on the given outputs.

    canonical_code, is_vertex_transitive and automorphism_group run on fresh
    relabelled copies, so the canonical-form cache misses as it does on new
    graphs.
    """
    out = {"pairs": len(pairs)}

    def build_label_graphs():
        for g, l in pairs:
            label_graph(g, l).to_graph()

    _, out["label_graph_s"] = _timed(tracer, "replay.labelings.label_graph", build_label_graphs)

    def verify():
        flags = []
        for g, l in pairs:
            g.is_regular(4)
            g.is_connected()
            is_distance_magic(g, l)
            sr = is_self_reverse(g, l)
            flags.append(sr and not is_degenerate(g, l))
        return flags

    nondeg_sr, out["verify_s"] = _timed(tracer, "replay.labelings.verify", verify)

    copies = [relabel(g, rng) for g, _ in pairs]
    codes, out["canon_s"] = _timed(
        tracer, "replay.graphs.canonical_code", lambda: [canonical_code(h) for h in copies]
    )
    out["canon_calls"] = len(copies)
    classes = {}
    for code, (g, _) in zip(codes, pairs):
        classes.setdefault(code, g)
    vt_graphs = [relabel(g, rng) for g in classes.values() if g.n <= VT_MAX_ORDER]
    _, out["vt_s"] = _timed(
        tracer,
        "replay.graphs.is_vertex_transitive",
        lambda: [is_vertex_transitive(h) for h in vt_graphs],
    )
    out["vt_classes"] = len(vt_graphs)
    out["classify_s"] = out["canon_s"] + out["vt_s"]

    aut_graphs = [relabel(g, rng) for g in classes.values() if g.n <= AUT_MAX_ORDER]

    def list_groups():
        listed = 0
        for h in aut_graphs:
            try:
                automorphism_group(h)
                listed += 1
            except GraphError:  # group too large to list; documented limit
                pass
        return listed

    out["aut_classes"], out["aut_s"] = _timed(
        tracer, "replay.graphs.automorphism_group", list_groups
    )

    out["simple"] = [p for p, ok in zip(pairs, nondeg_sr) if ok]
    return out


def _extensible_edge(g, l):
    """A solid quotient edge a-b with semiedges at both ends and b - a = 4:
    where extend_by_w4 can merge in the next 8-vertex block."""
    q = quotient(g, l)
    for a, b, color in sorted(q.edges):
        if color == SOLID and a > 0 and b - a == 4 and a in q.semiedges and b in q.semiedges:
            return a, b
    return None


def _extend_steps(pairs, tracer):
    """Seconds and number of extend_by_w4 steps along a few chains."""
    total, steps = 0.0, 0
    starts = []
    for g, l in pairs:
        if not is_self_reverse(g, l) or is_degenerate(g, l):
            continue
        edge = _extensible_edge(g, l)
        if edge is not None:
            starts.append((g, l, edge))
        if len(starts) == EXTEND_PAIRS:
            break
    for g, l, edge in starts:
        for _ in range(EXTEND_STEPS):
            with tracer.span("replay.merges.extend_by_w4"):
                t = time.perf_counter()
                g, l = extend_by_w4(g, l, *edge)
                total += time.perf_counter() - t
            steps += 1
            edge = _extensible_edge(g, l)
            if edge is None:
                break
    return total, steps


def _merges_probe(tracer, workdir):
    """Cold then warm witness calls on a fresh base cache of their own."""
    cache = os.path.join(workdir, "probe-bases")
    os.makedirs(cache)
    saved = os.environ["MAGICLAB_BASE_CACHE"]
    os.environ["MAGICLAB_BASE_CACHE"] = cache
    try:
        got, cold, warm, build = [], [], [], 0.0
        for durations in (cold, warm):
            for fname, n in PROBE_WITNESS:
                before = len(os.listdir(cache))
                res = tracer.call(f"probe.merges.{fname}", WitnessWorkload.functions[fname], n)
                durations.append(tracer.call_seconds[-1])
                if len(os.listdir(cache)) > before:
                    build += durations[-1]
                if res is not None and durations is cold:
                    got.append(res)
        return got, cold, warm, build, len(os.listdir(cache))
    finally:
        os.environ["MAGICLAB_BASE_CACHE"] = saved


def _enumerate(tracer, span, orders, opts):
    """Seconds and returned pairs of enumerate_sr over the orders."""
    start, pairs = time.perf_counter(), []
    for n in orders:
        pairs += tracer.call(span, enumerate_sr, n, opts)[0]
    return time.perf_counter() - start, pairs


def measure(inp, outcome, tracer, seed, iteration, workdir) -> dict:
    """The per-layer metrics of one traced run, in the units README.md gives,
    except those run.py derives from other iterations."""
    rng = seeded_rng("replay", seed, iteration)
    m = {}

    # search: enumerate_sr as the workload calls it, or the probe.
    work = replay(outcome.pairs, tracer, rng)
    if tracer.count("search.enumerate_sr"):
        enum_s, enum_pairs, enum_work = tracer.total("search.enumerate_sr"), outcome.pairs, work
    else:
        enum_s, enum_pairs = _enumerate(
            tracer, "probe.search.enumerate_sr", SEARCH_PROBE_ORDERS, PROBE_OPTS
        )
        enum_work = replay(enum_pairs, tracer, rng)
    m["search.enumerate_sr.s"] = enum_s
    m["search.quotient.self_s"] = enum_s - (
        enum_work["label_graph_s"] + enum_work["verify_s"] + enum_work["classify_s"]
    )
    m["search.emitted"] = len(enum_pairs)

    # search.enumerate_sr.budget1_s and search.parallel_speedup come from
    # enumerations in fresh interpreters of their own; run.py adds them.

    # search: find_labelings on a fixed graph.
    if tracer.count("search.find_labelings.sr"):
        found = len(outcome.pairs)
    else:
        found = 0
        for mode in ("sr", "dm"):
            g = relabel(wreath(5), rng)
            found += len(
                tracer.call(f"search.find_labelings.{mode}", find_labelings, g, FIXED_MODES[mode])
            )
    m["search.find_labelings.sr_s"] = tracer.total("search.find_labelings.sr")
    m["search.find_labelings.dm_s"] = tracer.total("search.find_labelings.dm")
    m["search.find_labelings.found"] = found

    # labelings, quotients, graphs: the replay of the outputs.
    pairs = max(work["pairs"], 1)
    m["labelings.verify.us_per_pair"] = 1e6 * work["verify_s"] / pairs
    m["labelings.label_graph.us_per_pair"] = 1e6 * work["label_graph_s"] / pairs
    # quotient needs a non-degenerate self-reverse pair.  The fixed-graph
    # classes have none, so that workload uses the enumeration probe's.
    simple = work["simple"] or enum_work["simple"]
    _, rt_s = _timed(
        tracer, "replay.quotients.round_trip", lambda: [lift(quotient(g, l)) for g, l in simple]
    )
    m["quotients.round_trip.us_per_pair"] = 1e6 * rt_s / len(simple)
    m["graphs.canonical_code.us_per_graph"] = 1e6 * work["canon_s"] / max(work["canon_calls"], 1)
    m["graphs.canonical_code.calls"] = work["canon_calls"]
    m["graphs.is_vertex_transitive.us_per_class"] = 1e6 * work["vt_s"] / max(work["vt_classes"], 1)
    m["graphs.automorphism_group.ms"] = 1e3 * work["aut_s"] / max(work["aut_classes"], 1)

    # merges: the witness passes, or the probe.
    passes = {s["name"]: s["id"] for s in tracer.spans if s["name"].startswith("merges.pass.")}
    if passes:
        cold_calls = [s for s in tracer.spans if s["parent"] == passes["merges.pass.cold"]]
        warm_calls = [s for s in tracer.spans if s["parent"] == passes["merges.pass.warm"]]
        cold = [s["end"] - s["start"] for s in cold_calls]
        warm = [s["end"] - s["start"] for s in warm_calls]
        build = sum(s["end"] - s["start"] for s in cold_calls if s.get("wrote_base"))
        writes = len(os.listdir(inp.cache))
        merge_pairs = outcome.pairs
    else:
        merge_pairs, cold, warm, build, writes = _merges_probe(tracer, workdir)
    ext_s, steps = _extend_steps(merge_pairs, tracer)
    m["merges.witness.cold_ms"] = 1e3 * sum(cold) / len(cold)
    m["merges.witness.warm_ms"] = 1e3 * sum(warm) / len(warm)
    m["merges.extend_by_w4.us_per_step"] = 1e6 * ext_s / max(steps, 1)
    m["merges.base_cache.build_s"] = build
    m["merges.base_cache.writes"] = writes
    return m

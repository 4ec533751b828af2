"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them live).
Criteria are exact; the stated runtime budgets are asserted with the
generous limits they were specified with.
"""

import hashlib
import time

from magiclab.cli import TABLE1_EXPECTED
from magiclab.families import (
    cartesian_cycles,
    circulant,
    wreath,
    wreath_degenerate_labeling,
    wreath_natural_labeling,
    wreath_non_sr_labeling,
    wreath_nondegenerate_labeling,
)
from magiclab.graphs import are_isomorphic, canonical_code, is_edge_transitive
from magiclab.labelings import (
    are_equivalent,
    is_degenerate,
    is_distance_magic,
    is_self_reverse,
    label_graph,
    label_graph_to_json,
)
from magiclab.merges import (
    make_cyclet,
    merge,
    cyclet_from_quotient_edge,
    merged_labeling,
    witness,
    witness_non_wreath,
    witness_nondegenerate,
)
from magiclab.quotients import lift, quotient
from magiclab.search import (
    SearchOptions,
    enumerate_dm,
    enumerate_sr,
    find_labelings,
    table1_report,
)

from enumerations import nd_enumeration
from oracle import (
    lg_connected,
    lg_degenerate,
    lg_self_reverse,
    naive_dm_label_graphs,
)

def _report(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_table1_small_orders():
    start = time.monotonic()
    table = table1_report(16, 22, SearchOptions(require_nondegenerate=True, thread_budget=8))
    elapsed = time.monotonic() - start
    got = {n: (sr, gr, vt) for n, sr, gr, vt in table.rows}
    expected = {n: TABLE1_EXPECTED[n] for n in range(16, 23)}
    _report(
        "criterion 1",
        got == expected and table.complete and elapsed < 600,
        f"table 16..22 = {sorted(got.items())} in {elapsed:.1f}s (budget 600s)",
    )


def test_criterion_2_table1_order_23():
    _, rep = nd_enumeration(23)
    elapsed = rep.elapsed
    got = (rep.sr_count, rep.iso_class_count, rep.vt_count)
    _report(
        "criterion 2",
        got == TABLE1_EXPECTED[23] and elapsed < 3600,
        f"order 23 = {got} in {elapsed:.1f}s (budget 3600s)",
    )


# sha256 over label_graph_to_json of each sorted order-24 pair, one per line
ORDER_24_DIGEST = "7221795b5925327a5bd7884d643923d7bf949905466c05ce5c529b9e7182f7e4"


def test_criterion_2_stretch_order_24():
    pairs, rep = nd_enumeration(24)
    got = (rep.sr_count, rep.iso_class_count, rep.vt_count)
    h = hashlib.sha256()
    for g, l in pairs:
        h.update(label_graph_to_json(label_graph(g, l)).encode() + b"\n")
    _report(
        "criterion 2 (stretch)",
        got == TABLE1_EXPECTED[24] and h.hexdigest() == ORDER_24_DIGEST,
        f"order 24 = {got}, digest {h.hexdigest()[:12]}",
    )


def test_criterion_3_small_order_exclusivity():
    start = time.monotonic()
    nondeg_hits = {}
    ok = True
    detail = []
    for n in range(5, 17):
        pairs, _ = enumerate_sr(n, SearchOptions(require_nondegenerate=False))
        if n % 2 == 1:
            ok = ok and not pairs
            continue
        if n >= 6 and not pairs:
            ok = False
            detail.append(f"no classes at even order {n}")
        m = n // 2
        for g, l in pairs:
            if not (3 <= m <= 8 and are_isomorphic(g, wreath(m))):
                ok = False
                detail.append(f"non-wreath graph at order {n}")
                break
        nondeg_hits[n] = sum(1 for g, l in pairs if not is_degenerate(g, l))
    hits = {n for n, c in nondeg_hits.items() if c > 0}
    elapsed = time.monotonic() - start
    ok = ok and hits == {8, 16}
    _report(
        "criterion 3",
        ok and elapsed < 120,
        f"orders<=16 wreath-only, nondegenerate hits at {sorted(hits)} "
        f"in {elapsed:.1f}s (budget 120s) {'; '.join(detail)}",
    )


def test_criterion_4_wreath_labeling_suite():
    start = time.monotonic()
    for m in range(3, 21):
        g, l = wreath(m), wreath_natural_labeling(m)
        assert is_distance_magic(g, l) and is_self_reverse(g, l) and is_degenerate(g, l)
    for m in (4, 8, 12, 16, 20):
        g = wreath(m)
        ld = wreath_degenerate_labeling(m)
        assert is_distance_magic(g, ld) and is_self_reverse(g, ld) and is_degenerate(g, ld)
        ln = wreath_nondegenerate_labeling(m)
        assert is_distance_magic(g, ln) and is_self_reverse(g, ln) and not is_degenerate(g, ln)
    for m in (8, 12, 16, 20):
        g, lt = wreath(m), wreath_non_sr_labeling(m)
        assert is_distance_magic(g, lt) and not is_self_reverse(g, lt)
    for m in (3, 5, 6, 7):
        g = wreath(m)
        labelings = find_labelings(g, SearchOptions(require_self_reverse=False))
        assert labelings
        for l in labelings:
            assert is_self_reverse(g, l) and is_degenerate(g, l)
            sums = [l.labels[i] + l.labels[m + i] for i in range(m)]
            assert all(sums[(i + 2) % m] == -sums[i] for i in range(m))
            assert all(sums[(i + 4) % m] == sums[i] for i in range(m))
    elapsed = time.monotonic() - start
    _report("criterion 4", elapsed < 120, f"wreath suite m=3..20 in {elapsed:.1f}s (budget 120s)")


def test_criterion_5_merge_suite():
    start = time.monotonic()
    w3 = wreath(3)
    c = make_cyclet(w3, (0, 1, 5, 4))
    m12 = merge(w3, c, w3, c)
    ok = m12.n == 12 and m12.is_regular(4)
    pairs, _ = enumerate_dm(12, SearchOptions(require_self_reverse=False))
    nonwreath = {
        canonical_code(g) for g, _ in pairs if not are_isomorphic(g, wreath(6))
    }
    ok = ok and len(nonwreath) == 1 and canonical_code(m12) in nonwreath

    g, l = wreath(4), wreath_nondegenerate_labeling(4)
    c1 = cyclet_from_quotient_edge(g, l, 3, 7)
    c2 = cyclet_from_quotient_edge(g, l, 1, 5)
    m16 = merge(g, c1, g, c2)
    lab = merged_labeling(g, l, g, l)
    ok = ok and are_isomorphic(m16, wreath(8))
    ok = ok and is_distance_magic(m16, lab) and is_self_reverse(m16, lab)
    ok = ok and not is_degenerate(m16, lab)
    elapsed = time.monotonic() - start
    _report("criterion 5", ok and elapsed < 60, f"merge identities in {elapsed:.1f}s (budget 60s)")


def test_criterion_6_theorem_witnesses():
    start = time.monotonic()
    ok = True
    problems = []
    for n in range(5, 61):
        expect_sr = (n % 2 == 0 and n >= 6) or (n % 2 == 1 and n >= 21)
        expect_nd = n >= 23 or n in (8, 16, 18, 20, 21)
        expect_nw = n >= 18 and n not in (19, 22)

        w = witness(n)
        if (w is not None) != expect_sr:
            ok = False
            problems.append(f"witness({n}) presence")
        elif w is not None:
            g, l = w
            if not (g.n == n and g.is_connected() and g.is_regular(4)
                    and is_distance_magic(g, l) and is_self_reverse(g, l)):
                ok = False
                problems.append(f"witness({n}) verification")

        w = witness_nondegenerate(n)
        if (w is not None) != expect_nd:
            ok = False
            problems.append(f"witness_nondegenerate({n}) presence")
        elif w is not None:
            g, l = w
            if not (g.n == n and g.is_connected() and g.is_regular(4)
                    and is_distance_magic(g, l) and is_self_reverse(g, l)
                    and not is_degenerate(g, l)):
                ok = False
                problems.append(f"witness_nondegenerate({n}) verification")

        w = witness_non_wreath(n)
        if (w is not None) != expect_nw:
            ok = False
            problems.append(f"witness_non_wreath({n}) presence")
        elif w is not None:
            g, l = w
            wreathy = g.n % 2 == 0 and are_isomorphic(g, wreath(g.n // 2))
            if not (g.n == n and g.is_connected() and g.is_regular(4)
                    and is_distance_magic(g, l) and is_self_reverse(g, l)
                    and not wreathy):
                ok = False
                problems.append(f"witness_non_wreath({n}) verification")
    elapsed = time.monotonic() - start
    _report(
        "criterion 6",
        ok and elapsed < 300,
        f"witness triple over n=5..60 in {elapsed:.1f}s (budget 300s) {problems[:3]}",
    )


def test_criterion_7_quotient_round_trip():
    start = time.monotonic()
    total = 0
    for n in range(8, 21):
        pairs, _ = enumerate_sr(n, SearchOptions(require_nondegenerate=True))
        for g, l in pairs:
            g2, l2 = lift(quotient(g, l))
            assert are_isomorphic(g, g2)
            assert are_equivalent(g, l, g2, l2)
            total += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 7",
        total == 1 + 48 + 136 + 66,
        f"{total} round trips over orders 8..20 in {elapsed:.1f}s",
    )


def test_criterion_8_named_graphs():
    start = time.monotonic()
    ok = True
    for g in (
        circulant(24, [1, 5, -1, -5]),
        circulant(30, [1, 4, -1, -4]),
        cartesian_cycles(3, 6),
    ):
        t = time.monotonic()
        found = find_labelings(
            g,
            SearchOptions(require_self_reverse=True, time_limit=600),
            max_results=1,
        )
        per_graph = time.monotonic() - t
        ok = ok and len(found) == 1 and is_self_reverse(g, found[0]) and per_graph < 600
    ok = ok and is_edge_transitive(circulant(24, [1, 5, -1, -5]))
    ok = ok and not is_edge_transitive(cartesian_cycles(3, 6))
    elapsed = time.monotonic() - start
    _report("criterion 8", ok, f"named-graph checks in {elapsed:.1f}s (budget 600s/graph)")


def test_criterion_9_oracle_and_threads():
    start = time.monotonic()
    ok = True
    for n in (6, 8, 10, 12):
        naive = naive_dm_label_graphs(n)
        sr = {e for e in naive if lg_self_reverse(e) and lg_connected(e, n)}
        sr_nd = {e for e in sr if not lg_degenerate(e)}
        for flag, expected in ((False, sr), (True, sr_nd)):
            pairs, _ = enumerate_sr(n, SearchOptions(require_nondegenerate=flag))
            got = set()
            for g, l in pairs:
                from magiclab.labelings import label_graph
                got.add(frozenset(label_graph(g, l).edges))
            ok = ok and got == expected
        reference = None
        for budget in (1, 2, 8):
            pairs, rep = enumerate_sr(n, SearchOptions(thread_budget=budget))
            sig = [(tuple(g.edges()), l.labels) for g, l in pairs]
            if reference is None:
                reference = (sig, rep)
            else:
                ok = ok and sig == reference[0] and rep == reference[1]
    elapsed = time.monotonic() - start
    _report(
        "criterion 9",
        ok and elapsed < 300,
        f"oracle equality and thread determinism n=6..12 in {elapsed:.1f}s (budget 300s)",
    )

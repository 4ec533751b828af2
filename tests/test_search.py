import functools
import hashlib
import random
import time
from enum import IntEnum
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiclab import graphs, search

from magiclab.families import cartesian_cycles, circulant, wreath
from magiclab.graphs import (
    Graph,
    apply_permutation,
    are_isomorphic,
    automorphism_group,
    canonical_code,
)
from magiclab.labelings import (
    _ascending_pair,
    is_degenerate,
    is_distance_magic,
    is_self_reverse,
    label_graph,
    label_graph_to_json,
    labeling_to_json,
    pairing_kernel,
)
from magiclab.merges import MergeError, witness_non_wreath
from magiclab.quotients import QuotientError, QuotientGraph, lift, quotient
from magiclab.search import (
    EnumerationReport,
    SearchError,
    SearchOptions,
    SearchTimeLimit,
    enumerate_dm,
    enumerate_sr,
    find_labelings,
    iter_sr_pairs,
    table1_report,
    _DMSearch,
    _involutions_with_pairing,
    _InvolutionSearch,
    _PlacementSearch,
    _QuotientSearch,
    _verify_emission,
)

from enumerations import nd_enumeration
from oracle import (
    lg_connected,
    lg_degenerate,
    lg_self_reverse,
    naive_dm_label_graphs,
)


def lg_edges(g, l):
    return frozenset(label_graph(g, l).edges)


@functools.lru_cache(maxsize=None)
def quotient_search(n):
    """One full quotient search at order n and its emitted quotients,
    shared by the tests below so that tier-1 runs each order once."""
    qs = _QuotientSearch(n)
    return qs, tuple(qs.run())


def quotient_run(n):
    """(nodes, emitted quotients) of quotient_search(n)."""
    qs, emitted = quotient_search(n)
    return qs.nodes, emitted


def renumbered(g, seed):
    """g itself for seed None, else g with its vertices shuffled by
    random.Random(seed)."""
    if seed is None:
        return g
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return apply_permutation(g, perm)


SR = SearchOptions(require_self_reverse=True)
DM = SearchOptions(require_self_reverse=False)
ND = SearchOptions(require_self_reverse=True, require_nondegenerate=True)


class TestEnumerateSrSmall:
    def test_counts_16_and_17(self):
        _, rep16 = enumerate_sr(16, SearchOptions(require_nondegenerate=True))
        assert (rep16.sr_count, rep16.iso_class_count, rep16.vt_count) == (48, 1, 1)
        _, rep17 = enumerate_sr(17, SearchOptions(require_nondegenerate=True))
        assert rep17.sr_count == 0

    def test_every_emission_passes_predicates(self):
        pairs, _ = enumerate_sr(14, SearchOptions(require_nondegenerate=False))
        assert pairs
        for g, l in pairs:
            assert g.is_connected()
            assert g.is_regular(4)
            assert is_distance_magic(g, l)
            assert is_self_reverse(g, l)

    def test_emissions_are_distinct_label_graphs(self):
        # no stream repeats a label graph, so nothing is deduplicated
        for pairs, rep in (
            enumerate_sr(16, SearchOptions(require_nondegenerate=True)),
            enumerate_sr(14, SearchOptions(require_nondegenerate=False)),
            enumerate_dm(12),
        ):
            keys = {lg_edges(g, l) for g, l in pairs}
            assert len(keys) == rep.sr_count == len(pairs)

    def test_outputs_digest(self):
        # sha256 over label_graph_to_json of each sorted output pair, one per
        # line; computed before the quotient search emitted quotients
        h = hashlib.sha256()
        for pairs, _ in (enumerate_sr(14, SearchOptions()), enumerate_dm(12)):
            for g, l in pairs:
                h.update(label_graph_to_json(label_graph(g, l)).encode() + b"\n")
        assert h.hexdigest() == "c465ecd3846bc8a6db24f50a29071488baac53e0d236a03762f9cca6ba5f83fc"

    @pytest.mark.parametrize("n", [16, 18, 20, 21])  # orders 17 and 19 emit none
    def test_emitted_quotients_round_trip(self, n):
        _, emitted = quotient_run(n)
        assert emitted
        for q in emitted:
            assert quotient(*lift(q)) == q

    def test_sorted_output(self):
        pairs, _ = enumerate_sr(12, SearchOptions())
        keys = [tuple(sorted(lg_edges(g, l))) for g, l in pairs]
        assert keys == sorted(keys)

    def test_rejects_missing_self_reverse_flag(self):
        with pytest.raises(SearchError):
            enumerate_sr(12, SearchOptions(require_self_reverse=False))

    def test_order_too_small(self):
        with pytest.raises(SearchError):
            enumerate_sr(4)

    def test_degenerate_cap_checked_before_search(self):
        # the order-22 quotient search alone takes seconds
        for run in (lambda: enumerate_sr(22), lambda: next(iter_sr_pairs(22))):
            start = time.monotonic()
            with pytest.raises(SearchError, match="capped at order 20"):
                run()
            assert time.monotonic() - start < 1.0

    def test_odd_order_above_cap_is_searched(self):
        # odd orders have no degenerate classes, so the cap does not apply
        _, rep = enumerate_sr(21, SearchOptions(time_limit=0.05))
        assert not rep.complete


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_matches_naive_oracle(self, n):
        naive = naive_dm_label_graphs(n)
        sr = {e for e in naive if lg_self_reverse(e) and lg_connected(e, n)}
        sr_nd = {e for e in sr if not lg_degenerate(e)}
        for flag, expected in ((False, sr), (True, sr_nd)):
            pairs, _ = enumerate_sr(n, SearchOptions(require_nondegenerate=flag))
            assert {lg_edges(g, l) for g, l in pairs} == expected

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_enumerate_dm_matches_naive_oracle(self, n):
        naive = {e for e in naive_dm_label_graphs(n) if lg_connected(e, n)}
        pairs, _ = enumerate_dm(n)
        assert {lg_edges(g, l) for g, l in pairs} == naive


class TestThreadDeterminism:
    @pytest.mark.parametrize("n", [12, 14])
    def test_reports_and_results_identical(self, n):
        reference = None
        for budget in (1, 2, 8):
            pairs, rep = enumerate_sr(
                n, SearchOptions(require_nondegenerate=False, thread_budget=budget)
            )
            sig = [(tuple(g.edges()), l.labels) for g, l in pairs]
            if reference is None:
                reference = (sig, rep)
            else:
                assert sig == reference[0]
                assert rep == reference[1]


class TestEnumerateDm:
    def test_order_12_unique_nonwreath(self):
        pairs, _ = enumerate_dm(12)
        nonwreath = {
            canonical_code(g) for g, _ in pairs if not are_isomorphic(g, wreath(6))
        }
        assert len(nonwreath) == 1

    def test_order_14_unique_nonwreath(self):
        pairs, _ = enumerate_dm(14)
        nonwreath = {
            canonical_code(g) for g, _ in pairs if not are_isomorphic(g, wreath(7))
        }
        assert len(nonwreath) == 1

    def test_cap(self):
        with pytest.raises(SearchError):
            enumerate_dm(18)

    @pytest.mark.parametrize("n, raw, rejected", [(12, 124, 10), (14, 1094, 122)])
    def test_reject_profile(self, n, raw, rejected):
        # the search emits distance magic 4-regular label graphs; the only
        # ones verification rejects are the disconnected ones
        opts = SearchOptions(require_self_reverse=False)
        emitted = list(_DMSearch(n).run())
        rejects = [(g, l) for g, l in emitted if not _verify_emission(g, l, opts)]
        for g, l in rejects:
            assert g.is_regular(4) and is_distance_magic(g, l)
            assert not g.is_connected()
        assert (len(emitted), len(rejects)) == (raw, rejected)
        assert raw - rejected == enumerate_dm(n)[1].sr_count

    @pytest.mark.parametrize("n", [10, 12])
    @pytest.mark.parametrize("bad", ["drop", "repeat"])
    def test_bad_snapshot_rejected(self, n, bad):
        # no label graph checks the search's pairs before _collect: a
        # snapshot that drops one label edge, or repeats one in place of
        # another, leaves two vertices of degree 3, and verification must
        # keep none of its pairs
        class BadSnapshot(_DMSearch):
            def _snapshot(self):
                labs = self.labs
                edges = [(labs[p], labs[q]) for p, c in enumerate(self.chosen) for q, _ in c[1]]
                edges = edges[1:] + (edges[1:2] if bad == "repeat" else [])
                return _ascending_pair(self.n, edges)

        emitted = list(BadSnapshot(n).run())
        assert len(emitted) == TestSearchWork.DM_STREAMS[n][1]
        pairs, rep = search._collect(n, emitted, DM, None)
        assert pairs == [] and rep.sr_count == 0

    def test_bad_quotient_snapshot_raises(self, monkeypatch):
        # the one quotient of order 8 has a semiedge; with it dropped, lift
        # validates the quotient and the enumeration fails loudly
        class BadSnapshot(_QuotientSearch):
            def _snapshot(self):
                q = super()._snapshot()
                assert q.semiedges
                return QuotientGraph(q.n, q.edges, sorted(q.semiedges)[1:], q.central)

        monkeypatch.setattr(search, "_QuotientSearch", BadSnapshot)
        with pytest.raises(QuotientError, match="semiedge"):
            enumerate_sr(8, ND)


@st.composite
def chooser_inputs(draw):
    """A position's later candidates shaped like the searches': magnitudes
    never increase (the all-labelings search has ties, x before -x), an
    optional trailing 0 for the central vertex; the signs the look-ahead
    allows each and whether it may be left out; and the position's own
    label and state (cap, b, semi_slots), whose two buckets' targets are
    often reachable."""
    mags = sorted(draw(st.lists(st.integers(1, 12), max_size=7)), reverse=True)
    vals = [draw(st.sampled_from((1, -1))) * x for x in mags]
    if draw(st.booleans()):
        vals.append(0)
    k = len(vals)
    signs = [draw(st.sampled_from([(1,), (-1,), (1, -1)])) for _ in range(k)]
    skips = [draw(st.booleans()) for _ in range(k)]

    def reachable():
        taken = [draw(st.sampled_from((0,) + signs[ci])) for ci in range(k)]
        target = sum(sig * x for sig, x in zip(taken, vals)) + draw(st.sampled_from((0, 0, 1, -2)))
        return sum(map(bool, taken)), target

    (c0, t0), (c1, t1) = reachable(), reachable()
    cap = draw(st.one_of(st.just(c0), st.just(c1 + 1), st.integers(0, 4)))
    b = -t0  # cap edges balancing b hit t0, a semiedge and cap - 1 edges t1
    return vals, signs, skips, t1 + b, cap, b, draw(st.sampled_from((1, 5)))


def brute_force_choices(cand, vals, signs, skips, wants):
    """Every pick hitting a want, found by walking all decisions depth
    first: candidates in list order, each taken with its signs in order
    before it is left out, and left out only if its skip flag allows."""

    def walk(ci, picks):
        if ci == len(cand):
            yield picks
            return
        for sig in signs[ci]:
            yield from walk(ci + 1, picks + ((cand[ci], sig),))
        if skips[ci]:
            yield from walk(ci + 1, picks)

    value = dict(zip(cand, vals))
    return [
        (tag, picks)
        for tag, need, target in wants
        for picks in walk(0, ())
        if len(picks) == need and sum(sig * value[q] for q, sig in picks) == target
    ]


class TestSubsetChoices:
    """A position's entries at its state are the balancing subsets of two
    subset walks; filtering them by the sign and must-pick masks of the scan
    gives exactly the walk over the allowed decisions, and each choice
    carries the state deltas its picks add."""

    @settings(max_examples=400, deadline=None)
    @given(chooser_inputs())
    def test_matches_brute_force(self, inputs):
        vals, signs, skips, lab, cap, b, semi_slots = inputs
        k, B = len(vals), 1000
        W = 2 * B + 1
        # position 0 of a search whose k later positions all sit at state
        # 0, where each one's row holds its verdict
        qs = object.__new__(_QuotientSearch)
        qs.labs, qs.B, qs.W, qs.L2, qs.semi_slots = [lab, *vals], B, W, 2 * k, semi_slots
        qs.st = [cap * W + b + B] + [0] * k
        qs.rows = [[
            [(1 in sig) << j | (-1 in sig) << j + k | (not skip) << j + 2 * k]
            for j, (sig, skip) in enumerate(zip(signs, skips))
        ]]
        recs = [(q, x, (1, -1)) for q, x in enumerate(vals, 1)]
        qs.walks = [(recs, [sum(map(abs, vals[:ci])) for ci in range(k + 1)])]
        qs.entries = [{}]
        got = qs._choices(0)
        assert qs._choices(0) == got and list(qs.entries[0]) == [qs.st[0]]
        wants = [(0, cap, -b), (1, cap - semi_slots, lab - b)]
        want = brute_force_choices(range(1, k + 1), vals, signs, skips, wants)
        assert [(semi, picks) for semi, picks, _ in got] == want
        for _, picks, deltas in got:
            assert deltas == tuple((q, sig * lab - W) for q, sig in picks)


class TestLookAheadRows:
    """Both label-graph searches tabulate their look-ahead verdicts at the
    ends of the test intervals only; each entry must equal the predicate at
    its own balance, encoded as the int the chooser ORs: bit j for sign +1,
    bit j + L for sign -1, bit j + 2L for a forced pick."""

    @staticmethod
    def check_rows(qs, signs, semiedge):
        labs, m, W, B = qs.labs, qs.m, qs.W, qs.B
        L = m + qs.central
        bounds = search._bound_table([abs(x) for x in labs])
        for p, a in enumerate(labs):
            rows = qs.rows[p]
            assert len(rows) == L - p - 1
            for j, row in enumerate(rows[:m - p - 1]):
                q = p + 1 + j
                lab = labs[q]
                assert row[:W] == [0] * W  # full
                for cap in range(1, 5):
                    tests = search._look_ahead(a, lab, bounds[p][q], cap, signs, semiedge)
                    want = [search._verdict(j, L, tests, b) for b in range(-B, B + 1)]
                    assert row[cap * W:(cap + 1) * W] == want, (p, q, cap)
                    own = 1 << j | (-1 in signs) << j + L | 1 << j + 2 * L
                    assert all(v == -1 or v & ~own == 0 for v in want)
        return bounds

    @pytest.mark.parametrize("n", range(5, 25))
    def test_rows_match_predicate(self, n):
        qs = _QuotientSearch(n)
        self.check_rows(qs, (1, -1), True)
        if qs.central:
            # the central vertex: nothing to do with two edges, else one
            # verdict for every balance, sign +1 only
            m, W = qs.m, qs.W
            L = m + 1
            for p in range(m):
                j = m - p - 1
                row = qs.rows[p][-1]
                assert row[:3 * W] == [0] * (3 * W)
                for cap in (3, 4):
                    v = row[cap * W]
                    assert row[cap * W:(cap + 1) * W] == [v] * W
                    assert v == -1 or v & ~(1 << j | 1 << j + 2 * L) == 0 and v & 1 << j

    @pytest.mark.parametrize("n", range(5, 17))
    def test_dm_rows_match_predicate(self, n):
        # sign +1 and no semiedge; also the rule stated directly: q can be
        # picked when |b + a| fits in its c - 1 largest future neighbors,
        # and must be when |b| does not fit in c of them
        dms = _DMSearch(n)
        bounds = self.check_rows(dms, (1,), False)
        W, B, L = dms.W, dms.B, dms.m
        for p, a in enumerate(dms.labs):
            for j, row in enumerate(dms.rows[p]):
                bound = bounds[p][p + 1 + j]
                for cap in range(1, 5):
                    for b in range(-B, B + 1):
                        pick, skip = abs(b + a) <= bound[cap - 1], abs(b) <= bound[cap]
                        want = 1 << j | (not skip) << j + 2 * L if pick else 0 if skip else -1
                        assert row[cap * W + b + B] == want, (p, j, cap, b)


class TestSearchWork:
    """Node counts and raw emission streams of the two searches sharing
    the subset walk, pinned before the walk's results were memoized: a
    cheaper chooser must keep the search tree and every raw emission in
    order."""

    QUOTIENT_NODES = {16: 1096, 17: 3672, 18: 6176, 19: 22225, 20: 35488}

    @pytest.mark.parametrize("n", sorted(QUOTIENT_NODES))
    def test_quotient_search_nodes(self, n):
        assert quotient_run(n)[0] == self.QUOTIENT_NODES[n]

    def test_quotient_stream_order_21(self):
        # the only odd order with emissions that is cheap to run, so the one
        # stream pin covering the central vertex; none of the 57 lifts is
        # rejected, so this is also the non-degenerate stream of iter_sr_pairs
        nodes, emitted = quotient_run(21)
        h = hashlib.sha256()
        for q in emitted:
            h.update(label_graph_to_json(label_graph(*lift(q))).encode() + b"\n")
        assert (nodes, len(emitted), h.hexdigest()) == (
            157356, 57, "1a9e5cccb29a43500d145815ab016cba12fb4b6e6a54c2c85775370c8126b82f"
        )

    def test_sr_stream_order_16(self):
        # sha256 over label_graph_to_json of each pair, one per line, in
        # stream order: the 48 lifts, then the 2,520 closed-form classes
        h = hashlib.sha256()
        count = 0
        for g, l in iter_sr_pairs(16, SR):
            h.update(label_graph_to_json(label_graph(g, l)).encode() + b"\n")
            count += 1
        assert (count, h.hexdigest()) == (
            2568, "fb619ed1eb77d3664957b3dcb14fe4750836ae44085a1b5272551aa3857d5fdc"
        )

    @pytest.mark.parametrize("n, opts", [(14, SR), (16, SR), (18, ND)])
    def test_report_counts_every_code(self, n, opts):
        # the report reuses one code per wreath order; counting a code per
        # pair must give the same row
        pairs, rep = enumerate_sr(n, opts)
        vt = {canonical_code(g): graphs.is_vertex_transitive(g) for g, _ in pairs}
        assert (rep.iso_class_count, rep.vt_count) == (len(vt), sum(vt.values()))

    # (states keyed, entries at them) by the searches above: a position's
    # entries at a state are built on the first node there; its states are
    # ints below 5 * W
    STATE_ENTRIES = {20: (112, 609), 21: (126, 784)}

    @pytest.mark.parametrize("n", sorted(STATE_ENTRIES))
    def test_state_entries_built(self, n):
        qs = quotient_search(n)[0]
        assert all(set(table) <= set(range(5 * qs.W)) for table in qs.entries)
        built = sum(map(len, qs.entries)), sum(len(e) for t in qs.entries for e in t.values())
        assert built == self.STATE_ENTRIES[n]

    # (report row, full canonical-form searches) of classifications run with
    # an empty certificate memo: one search per isomorphism class, the other
    # graphs taking their code from the memo
    CLASSIFICATION = {
        ("sr", 16): ((2568, 1, 1), 1),
        ("nd", 18): ((136, 2, 1), 2),
        ("nd", 20): ((66, 2, 1), 2),
        ("nd", 21): ((57, 7, 0), 7),
        ("dm", 14): ((972, 2, 1), 2),
    }

    @pytest.mark.parametrize("kind, n", sorted(CLASSIFICATION))
    def test_classification_searches(self, monkeypatch, kind, n):
        if kind == "nd":
            stream = map(lift, quotient_run(n)[1])
        monkeypatch.setattr(graphs, "_certificates", {})
        fresh = functools.lru_cache(maxsize=4096)(graphs._canonical_data.__wrapped__)
        monkeypatch.setattr(graphs, "_canonical_data", fresh)
        calls = []
        ir_search = graphs._ir_search
        monkeypatch.setattr(graphs, "_ir_search", lambda *args: calls.append(1) or ir_search(*args))
        if kind == "nd":
            _, rep = search._collect(n, stream, ND, None)
        else:
            _, rep = enumerate_sr(n, SR) if kind == "sr" else enumerate_dm(n, DM)
        row = (rep.sr_count, rep.iso_class_count, rep.vt_count)
        assert (row, len(calls)) == self.CLASSIFICATION[kind, n]

    # (nodes, raw emissions, sha256 over label_graph_to_json of each, in order)
    DM_STREAMS = {
        10: (331, 12, "e440810b86cf5710cd9984e7d8ff3b7e4544873c997525a0185aa37e725892b7"),
        11: (734, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        12: (3236, 124, "e783ca77485a923d841c3bd86cc3bcaa16fc3ca8612ff78fabb05a6f36b9d213"),
        13: (7970, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        14: (43049, 1094, "0290cbdb19b8fee5faf9fcb51effca2365714417a20078c3edf18d8d18b16042"),
    }

    @pytest.mark.parametrize("n", sorted(DM_STREAMS))
    def test_dm_search_stream(self, n):
        dms = _DMSearch(n)
        h = hashlib.sha256()
        count = 0
        for g, l in dms.run():
            h.update(label_graph_to_json(label_graph(g, l)).encode() + b"\n")
            count += 1
        assert (dms.nodes, count, h.hexdigest()) == self.DM_STREAMS[n]


class TestFindLabelings:
    def test_k5_empty(self):
        k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert find_labelings(k5, SearchOptions(require_self_reverse=False)) == []

    def test_wreath3_unique_class(self):
        labs = find_labelings(wreath(3), SearchOptions(require_self_reverse=False))
        assert len(labs) == 1

    def test_wreath6_sr_count_matches_closed_form(self):
        labs = find_labelings(wreath(6), SearchOptions(require_self_reverse=True))
        assert len(labs) == 60  # (6-1)!/2 circular magnitude arrangements

    def test_sr_mode_agrees_with_dm_mode_filter(self):
        g = wreath(5)
        via_dm = {
            lg_edges(g, l)
            for l in find_labelings(g, SearchOptions(require_self_reverse=False))
            if is_self_reverse(g, l)
        }
        via_sr = {
            lg_edges(g, l)
            for l in find_labelings(g, SearchOptions(require_self_reverse=True))
        }
        assert via_sr == via_dm

    def test_named_graphs_have_sr_labelings(self):
        for g in (cartesian_cycles(3, 6), circulant(24, [1, 5, -1, -5])):
            found = find_labelings(
                g, SearchOptions(require_self_reverse=True), max_results=1
            )
            assert len(found) == 1
            assert is_self_reverse(g, found[0])

    def test_results_verified_and_deduplicated(self):
        g = wreath(6)
        labs = find_labelings(g, SearchOptions(require_self_reverse=True))
        keys = {lg_edges(g, l) for l in labs}
        assert len(keys) == len(labs)
        for l in labs[:10]:
            assert is_distance_magic(g, l)

    @pytest.mark.parametrize("max_results", [0, -3, float("nan"), 1.5, True])
    def test_rejects_max_results_below_one(self, max_results):
        # a cap that is not an int of at least 1 (a bool included) is refused
        with pytest.raises(SearchError):
            find_labelings(
                wreath(4), SearchOptions(require_self_reverse=False), max_results=max_results
            )

    def test_order_33_witness_has_sr_labeling(self):
        # Aut has order 32, so the partner involutions are cheap to list
        # although the graph has more than 32 vertices
        g, _ = witness_non_wreath(33)
        (l,) = find_labelings(g, SearchOptions(require_self_reverse=True), max_results=1)
        assert is_distance_magic(g, l) and is_self_reverse(g, l)

    def test_first_classes_of_circulant_24(self):
        # the first three classes in search order, pinned: a capped search
        # returns a prefix of the stream, so a reordering changes them
        found = find_labelings(
            circulant(24, [1, 5, -1, -5]), SearchOptions(require_self_reverse=True), max_results=3
        )
        assert [l.labels for l in found] == [
            (23, -23, 17, 11, -13, 21, -19, -1, 7, -15, 9, 3,
             -5, 5, -3, -9, 15, -7, 1, 19, -21, 13, -11, -17),
            (23, -23, 17, 13, 1, 19, -21, 11, -5, -15, -3, -7,
             9, -9, 7, 3, 15, 5, -11, 21, -19, -1, -13, -17),
            (23, -23, 17, 13, -11, 19, -21, -1, 7, -15, 9, 5,
             -3, 3, -5, -9, 15, -7, 1, 21, -19, 11, -13, -17),
        ]

    def test_capped_outputs_digest(self):
        # sha256 over labeling_to_json of find_labelings(g, opts, max_results=k)
        # for every k up to the class count, on wreath(4) and wreath(5) in
        # both numberings and both modes; computed before the searches
        # skipped conjugate involutions and twin swaps
        h = hashlib.sha256()
        for make in (lambda: wreath(4), lambda: wreath(5)):
            for seed in (None, 7):
                g = renumbered(make(), seed)
                for opts in (SR, DM):
                    total = len(find_labelings(g, opts))
                    assert total
                    for k in range(1, total + 1):
                        found = find_labelings(g, opts, max_results=k)
                        assert len(found) == k
                        for l in found:
                            h.update(labeling_to_json(l).encode() + b"\n")
                        h.update(b"\n")
        assert h.hexdigest() == "a837b463ad00b1fb6b53da12a8f73bc661a897c7ad4487f296d93abb7e08b967"

    # Graphs by name: wreath6 under renumbering 7, and two twin-free graphs,
    # cc35 (cartesian_cycles(3, 5)) and wnw18 (the graph of
    # witness_non_wreath(18)), in their own numbering and under renumbering 7.
    OUTPUT_GRAPHS = {
        "wreath6": lambda: renumbered(wreath(6), 7),
        "cc35": lambda: cartesian_cycles(3, 5),
        "cc35-7": lambda: renumbered(cartesian_cycles(3, 5), 7),
        "wnw18": lambda: witness_non_wreath(18)[0],
        "wnw18-7": lambda: renumbered(witness_non_wreath(18)[0], 7),
    }

    # sha256 over labeling_to_json of each labeling of the sorted output, one
    # per line.  wreath6 was computed before the searches skipped conjugate
    # involutions and twin swaps, the twin-free graphs before the involution
    # search pruned the centralizer of its partner map.
    FULL_OUTPUT_DIGESTS = {
        ("wreath6", "sr"): "5f88f52b3e99c03a6dc22d5253f1e26408b9dd41290b1437ef57f9ef7e4a2688",
        ("wreath6", "dm"): "077f19a63a798a2ef80b001788b4f04092d08eedef53762686d44462c444b299",
        ("cc35", "sr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("cc35", "dm"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("cc35-7", "sr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("cc35-7", "dm"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("wnw18", "sr"): "7c5849e1e9085015c7b7c41b23fef5a6608895be4574a62320652dc50be1055f",
        ("wnw18", "dm"): "fa871408f1887d2bc96b8d343624306e6d10ee6369e4a332fafa9e7f3f3e926b",
        ("wnw18-7", "sr"): "855bc425c2cf4cfb1d83f3fb41910e28f401882dfafed6185560bbeddb1041ac",
        ("wnw18-7", "dm"): "30feb6707a24cb8527e52538d7d6d889c1041924ab66e873488f8fef410fcef0",
    }

    @pytest.mark.parametrize("name, mode", sorted(FULL_OUTPUT_DIGESTS))
    def test_full_outputs_digest(self, name, mode):
        g = self.OUTPUT_GRAPHS[name]()
        h = hashlib.sha256()
        for l in find_labelings(g, SR if mode == "sr" else DM):
            h.update(labeling_to_json(l).encode() + b"\n")
        assert h.hexdigest() == self.FULL_OUTPUT_DIGESTS[name, mode]

    # sha256 over labeling_to_json of find_labelings(g, opts, max_results=k)
    # for k = 1, 2, 3, a blank line after each; computed before the
    # involution search pruned the centralizer of its partner map
    FIRST_OUTPUT_DIGESTS = {
        ("cc35", "sr"): "6a3cf5192354f71615ac51034b3e97c20eda99643fcaf5bbe6d41ad59bd12167",
        ("cc35", "dm"): "6a3cf5192354f71615ac51034b3e97c20eda99643fcaf5bbe6d41ad59bd12167",
        ("cc35-7", "sr"): "6a3cf5192354f71615ac51034b3e97c20eda99643fcaf5bbe6d41ad59bd12167",
        ("cc35-7", "dm"): "6a3cf5192354f71615ac51034b3e97c20eda99643fcaf5bbe6d41ad59bd12167",
        ("wnw18", "sr"): "30f261cd3ca16ee480241526914dd5091fdf067cc5a80ac063707e038d4cdcaf",
        ("wnw18", "dm"): "a5642b6921b4d5487cdcb3f141d96ddec8c4f2bdf2d9e1cc685844bd5b8b618b",
        ("wnw18-7", "sr"): "ad79333206c6dbe146a4d64bb023abd22d9887c373d7b44433bdc62abfeeb09d",
        ("wnw18-7", "dm"): "3d2d1227e06e7fc09ef5e8f1c9936d20c749e3335456852360dbbb6cc3fb2d94",
    }

    @pytest.mark.parametrize("name, mode", sorted(FIRST_OUTPUT_DIGESTS))
    def test_first_outputs_digest(self, name, mode):
        g = self.OUTPUT_GRAPHS[name]()
        h = hashlib.sha256()
        for k in (1, 2, 3):
            for l in find_labelings(g, SR if mode == "sr" else DM, max_results=k):
                h.update(labeling_to_json(l).encode() + b"\n")
            h.update(b"\n")
        assert h.hexdigest() == self.FIRST_OUTPUT_DIGESTS[name, mode]

    def test_disconnected_graph_needs_connectivity_flag_off(self):
        w3 = wreath(3)
        g = Graph(12, w3.edges() + [(u + 6, v + 6) for u, v in w3.edges()])
        assert find_labelings(g) == []
        assert find_labelings(g, SR) == []
        loose = find_labelings(g, SearchOptions(require_self_reverse=False, require_connected=False))
        assert len(loose) == 10
        assert all(is_distance_magic(g, l) for l in loose)

    def test_work_counts(self, monkeypatch):
        # one involution search per conjugacy class whose balance system
        # admits a labeling, each emitting one labeling per label graph, and
        # twins placed one way: wreath(6) searches 1 of its 4 classes and
        # emits 60 and 120 raw labelings for its 60 classes, against 23,040
        # over 45 involutions and 3,840 placements when every involution,
        # every member of each centralizer and every twin swap is searched
        runs = []

        class Counted(_InvolutionSearch):
            def run(self):
                runs.append(0)
                for l in super().run():
                    runs[-1] += 1
                    yield l

        monkeypatch.setattr(search, "_InvolutionSearch", Counted)
        assert len(find_labelings(wreath(6), SR)) == 60
        assert (len(runs), sum(runs)) == (1, 60)
        assert sum(1 for _ in _PlacementSearch(wreath(6)).run()) == 120

    @pytest.mark.parametrize(
        "make, seed",
        [(lambda: wreath(6), None), (lambda: wreath(8), None), (lambda: cartesian_cycles(3, 6), 7)],
        ids=["wreath6", "wreath8", "cc36-7"],
    )
    def test_nondegenerate_is_filtered_self_reverse(self, make, seed):
        # the partner maps skipped under the non-degenerate flag give
        # degenerate labelings only, so the classes and their
        # representatives are those of the self-reverse search
        g = renumbered(make(), seed)
        kept = [l for l in find_labelings(g, SR) if not is_degenerate(g, l)]
        assert find_labelings(g, ND) == kept

    def test_degenerate_partner_maps_not_searched(self, monkeypatch):
        # two of the four partner-map classes of wreath(6) and of wreath(8)
        # put both members of a pair next to a vertex of another pair; of
        # the other two, the balance system rules out both on wreath(6) and
        # one on wreath(8)
        runs, degenerate, no_kernel = [], [], []

        class Counted(_InvolutionSearch):
            def run(self):
                runs.append(self)
                yield from super().run()

        def count(log, f, bad):
            def counted(g, s):
                out = f(g, s)
                log.append(out is bad)
                return out
            return counted

        monkeypatch.setattr(search, "_InvolutionSearch", Counted)
        monkeypatch.setattr(
            search, "pairing_is_degenerate", count(degenerate, search.pairing_is_degenerate, True)
        )
        monkeypatch.setattr(search, "pairing_kernel", count(no_kernel, search.pairing_kernel, None))
        for k, classes, dropped in ((6, 0, 2), (8, 48, 1)):
            for log in (runs, degenerate, no_kernel):
                log.clear()
            assert len(find_labelings(wreath(k), ND)) == classes
            assert (len(degenerate), sum(degenerate)) == (4, 2)
            assert sum(no_kernel) == dropped
            assert len(runs) == 2 - dropped

    @pytest.mark.parametrize(
        "make, dead",
        [
            (lambda: wreath(6), [0, 1, 2]),
            (lambda: cartesian_cycles(3, 5), [0]),
            (lambda: cartesian_cycles(3, 6), [0, 1, 3]),
            (lambda: witness_non_wreath(18)[0], [0, 1, 2]),
        ],
        ids=["wreath6", "cc35", "cc36", "wnw18"],
    )
    def test_partner_maps_without_kernel_emit_nothing(self, monkeypatch, make, dead):
        # the partner maps whose balance system forces a label 0 or two
        # equal magnitudes are not searched by find_labelings; searched
        # anyway, they emit nothing, after one node
        g = make()
        group = automorphism_group(g)
        sigmas = _involutions_with_pairing(g, group)
        assert [i for i, s in enumerate(sigmas) if pairing_kernel(g, s) is None] == dead
        for i in dead:
            s = _InvolutionSearch(g, sigmas[i], group)
            assert list(s.run()) == [] and s.nodes == 1
        built = []
        monkeypatch.setattr(
            search, "_InvolutionSearch", lambda g, s, *a: built.append(s) or _InvolutionSearch(g, s, *a)
        )
        find_labelings(g, SR)
        assert built == [s for i, s in enumerate(sigmas) if i not in dead]

    @pytest.mark.parametrize(
        "make, sizes",
        [
            (lambda: wreath(6), [24, 12, 8, 1]),
            (lambda: cartesian_cycles(3, 6), [3, 9, 1, 3]),
            (lambda: cartesian_cycles(3, 5), [15]),
        ],
        ids=["wreath6", "cc36", "cc35"],
    )
    def test_one_involution_per_conjugacy_class(self, make, sizes):
        # brute-force conjugation over the listed group: the representatives
        # are pairwise non-conjugate, and their classes cover every candidate
        # partner map, each represented by its first member
        g = make()
        group = automorphism_group(g)
        want_fixed = g.n % 2
        candidates = [
            s for s in group
            if all(s[s[v]] == v for v in range(g.n))
            and sum(s[v] == v for v in range(g.n)) == want_fixed
        ]

        def conjugate(a, s):
            img = [0] * g.n
            for v in range(g.n):
                img[a[v]] = a[s[v]]
            return tuple(img)

        reps = _involutions_with_pairing(g, group)
        classes = [{conjugate(a, s) for a in group} for s in reps]
        assert [len(c) for c in classes] == sizes
        assert set().union(*classes) == set(candidates)
        assert sum(sizes) == len(candidates)
        assert reps == [next(s for s in candidates if s in c) for c in classes]

    def test_matches_quotient_enumeration_on_fixed_graph(self):
        # dual-route check: classes on C3 x C6 from the fixed-graph search
        # equal the order-18 enumeration restricted to that graph
        g18 = cartesian_cycles(3, 6)
        direct = {
            lg_edges(g18, l)
            for l in find_labelings(
                g18,
                SearchOptions(require_self_reverse=True, require_nondegenerate=True),
            )
        }
        pairs, _ = enumerate_sr(18, SearchOptions(require_nondegenerate=True))
        via_enum = {
            lg_edges(g, l) for g, l in pairs if are_isomorphic(g, g18)
        }
        assert direct == via_enum

    @pytest.mark.parametrize(
        "n, graphs, opts",
        [
            (16, 1, ND), (18, 2, ND), (20, 2, ND), (21, 7, ND), (23, 80, ND), (24, 9, ND),
            (10, 1, DM), (12, 2, DM), (14, 2, DM),
        ],
        ids=["16-1", "18-2", "20-2", "21-7", "23-80", "24-9", "dm-10", "dm-12", "dm-14"],
    )
    def test_fixed_graph_route_matches_enumeration(self, n, graphs, opts):
        # dual-route check on every graph of the order: the classes the
        # fixed-graph search finds on it equal the enumerator's on it; under
        # DM, the all-labelings search against the label-set enumerator.  A
        # label graph is isomorphic to its graph, so the classes of
        # non-isomorphic graphs are disjoint: a pair's graph is searched when
        # its class is not yet found, and searching exactly one graph per
        # isomorphism class and finding every class checks each graph
        if opts is DM:
            pairs, rep = enumerate_dm(n, DM)
        elif n >= 23:
            pairs, rep = nd_enumeration(n)
        else:
            pairs, rep = search._collect(n, map(lift, quotient_run(n)[1]), ND, None)
        found, searched = set(), 0
        for g, l in pairs:
            if lg_edges(g, l) not in found:
                searched += 1
                found.update(lg_edges(g, x) for x in find_labelings(g, opts))
        assert rep.iso_class_count == searched == graphs
        assert found == {lg_edges(g, l) for g, l in pairs}


class TestFixedGraphStreams:
    """The raw emission order of the two fixed-graph searches, before
    verification and deduplication: sha256 over labeling_to_json of each
    emitted labeling, one per line.  Renumbering 7 shuffles the vertices
    with random.Random(7).  cc35 is cartesian_cycles(3, 5), with no classes,
    and wnw18 the graph of witness_non_wreath(18), with 102 classes in each
    mode; both are twin-free.  The placement (DM) streams were pinned once
    the search skipped twin swaps: wreath(5) emits 24 labelings, wnw18 272.
    The involution (SR) streams were pinned once the search ran one
    involution per conjugacy class and one labeling per orbit of its
    centralizer: wreath(5) emits 12 labelings, wnw18 102, one per class."""

    DIGESTS = {
        ("wreath5", None, "sr"): "9f2da2a2269f6dcd8c595cd2b0f02106ad67d97d73780b23998c37565ff99c2e",
        ("wreath5", None, "dm"): "34d4e27e3d689490e04b9ff18795dece8c654426a7c492703aa1e0761cfb0353",
        ("wreath5", 7, "sr"): "c672a908258b97ac038972ba026ae628a505db1ea62f132f9e429b4996b8f7e5",
        ("wreath5", 7, "dm"): "112ce40e9095553260df787b9a28af270b6eb39ceb1bc228591aeb6ef76b0cc3",
        ("cc35", None, "sr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("cc35", None, "dm"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("cc35", 7, "sr"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("cc35", 7, "dm"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("wnw18", None, "sr"): "00f98f4aed6f18a5b60fb8a3c3b16fb75614d4edbe358403bfb69c592ce55c62",
        ("wnw18", None, "dm"): "b1579f7cef26f8a367e167c8965ccf1d2dc063c2789180b82f1ba481d904b448",
        ("wnw18", 7, "sr"): "c377bd84e8121bbf0f40c6013af724690b1a15d4b5287f9e839f37b7c24d1276",
        ("wnw18", 7, "dm"): "22eac36d38200ae3979e660b14ea94b3b82c0b7e296fd52afc61f2ddb5f716e4",
    }
    GRAPHS = {
        "wreath5": lambda: wreath(5),
        "cc35": lambda: cartesian_cycles(3, 5),
        "wnw18": lambda: witness_non_wreath(18)[0],
    }

    @pytest.mark.parametrize("name, seed, mode", sorted(DIGESTS, key=str))
    def test_stream_digest(self, name, seed, mode):
        g = renumbered(self.GRAPHS[name](), seed)
        if mode == "sr":
            group = automorphism_group(g)
            searches = [_InvolutionSearch(g, s, group) for s in _involutions_with_pairing(g, group)]
        else:
            searches = [_PlacementSearch(g)]
        h = hashlib.sha256()
        for search in searches:
            for l in search.run():
                h.update(labeling_to_json(l).encode() + b"\n")
        assert h.hexdigest() == self.DIGESTS[name, seed, mode]

    # _InvolutionSearch nodes over every partner map, as (before, after)
    # the search forced the cells its balance system fixes; a partner map
    # without a kernel takes one node
    NODES = {
        ("wreath5", None): (101, 67),
        ("wreath5", 7): (77, 42),
        ("cc35", None): (78, 1),
        ("cc35", 7): (146, 1),
        ("wnw18", None): (175_918, 4_391),
        ("wnw18", 7): (68_647, 2_903),
    }

    @pytest.mark.parametrize("name, seed", sorted(NODES, key=str))
    def test_involution_nodes(self, name, seed):
        g = renumbered(self.GRAPHS[name](), seed)
        group = automorphism_group(g)
        nodes = 0
        for sigma in _involutions_with_pairing(g, group):
            s = _InvolutionSearch(g, sigma, group)
            for _ in s.run():
                pass
            nodes += s.nodes
        assert nodes == self.NODES[name, seed][1]

    @pytest.mark.parametrize(
        "make, seed",
        [
            (lambda: wreath(5), None),
            (lambda: wreath(6), None),
            (lambda: cartesian_cycles(3, 6), 7),
            (lambda: witness_non_wreath(18)[0], None),
        ],
        ids=["wreath5", "wreath6", "cc36-7", "wnw18"],
    )
    def test_one_labeling_per_label_graph(self, make, seed):
        # labelings with one partner map and one label graph differ by a
        # member of the partner map's centralizer, so each involution search
        # emits every label graph once; together they give the classes
        g = renumbered(make(), seed)
        group = automorphism_group(g)
        union = set()
        for sigma in _involutions_with_pairing(g, group):
            keys = [lg_edges(g, l) for l in _InvolutionSearch(g, sigma, group).run()]
            assert len(keys) == len(set(keys))
            union.update(keys)
        assert union == {lg_edges(g, l) for l in find_labelings(g, SR)}


class TestLazyStream:
    def test_prefix_of_full_run(self):
        stream = iter_sr_pairs(12, SearchOptions(require_nondegenerate=False))
        first = next(stream)
        assert is_distance_magic(first[0], first[1])

    def test_rejects_non_sr_options(self):
        with pytest.raises(SearchError):
            next(iter_sr_pairs(12, SearchOptions(require_self_reverse=False)))

    def test_arguments_checked_at_call(self):
        # the error comes from the call, not from the first next()
        with pytest.raises(SearchError, match="float"):
            iter_sr_pairs(16.0)
        with pytest.raises(SearchError, match="self-reverse flag"):
            iter_sr_pairs(12, SearchOptions(require_self_reverse=False))


class TestTimeLimit:
    def test_partial_report_flagged(self):
        _, rep = enumerate_sr(22, SearchOptions(require_nondegenerate=True, time_limit=0.05))
        assert not rep.complete
        assert rep.elapsed < 1.0

    @pytest.mark.parametrize(
        "make, flags",
        [
            (lambda: circulant(30, [1, 4, -1, -4]), {"require_self_reverse": True}),
            # no twins and no classes: nothing is skipped, and the placement
            # search runs about 1-2 s to the end
            (lambda: cartesian_cycles(4, 4), {"require_self_reverse": False}),
        ],
        ids=["circulant30-sr", "cc44-dm"],
    )
    def test_fixed_graph_search_raises_promptly(self, make, flags):
        g = make()
        start = time.monotonic()
        with pytest.raises(SearchTimeLimit):
            find_labelings(g, SearchOptions(time_limit=0.05, **flags))
        assert time.monotonic() - start < 1.0

    def test_deadline_covers_classification(self, monkeypatch):
        # the fake clock stands still during the search and advances 1 s per
        # canonical code, so the 2.5 s limit runs out while classifying; the
        # 136 order-18 classes lie on two graphs, neither a wreath graph, so
        # every pair computes its own code
        clock = [100.0]
        starts = []

        def slow_canonical_code(g):
            starts.append(clock[0])
            clock[0] += 1.0
            return canonical_code(g)

        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        monkeypatch.setattr(search, "canonical_code", slow_canonical_code)
        pairs, rep = enumerate_sr(18, SearchOptions(require_nondegenerate=True, time_limit=2.5))
        assert not rep.complete
        assert len(pairs) == rep.sr_count == 136
        assert starts and max(starts) <= 102.5
        assert len(starts) < len(pairs)

    def test_nan_time_limit_rejected(self):
        # nan compares false with everything, so its deadline never passes
        with pytest.raises(SearchError):
            SearchOptions(time_limit=float("nan"))

    def test_bad_options(self):
        with pytest.raises(SearchError):
            SearchOptions(time_limit=-1)
        with pytest.raises(SearchError):
            SearchOptions(thread_budget=0)
        with pytest.raises(SearchError):
            SearchOptions(valence=3)
        for bad in ({"time_limit": True}, {"time_limit": "5"}, {"time_limit": 0},
                    {"thread_budget": True}, {"thread_budget": 1.5}, {"thread_budget": "2"},
                    {"thread_budget": None}, {"require_nondegenerate": "false"},
                    {"require_self_reverse": 1}, {"require_connected": None},
                    {"require_nondegenerate": 0}, {"valence": 4.0}, {"valence": "4"}):
            with pytest.raises(SearchError):
                SearchOptions(**bad)
        assert SearchOptions(time_limit=2, thread_budget=3).time_limit == 2
        assert SearchOptions(time_limit=0.5).time_limit == 0.5


class TestOrderType:
    @pytest.mark.parametrize("bad", [16.0, 21.0, True, "16"])
    def test_non_integer_orders_rejected(self, bad):
        name = type(bad).__name__
        with pytest.raises(SearchError, match=name):
            enumerate_sr(bad, ND)
        with pytest.raises(SearchError, match=name):
            next(iter_sr_pairs(bad, ND))
        with pytest.raises(SearchError, match=name):
            enumerate_dm(bad, DM)

    def test_int_subclasses_rejected(self):
        # an order or a count is exactly an int everywhere, as for Graph
        # and Labeling; the search and merges entry points accepted these
        class Order(IntEnum):
            N = 16

        calls = [
            lambda: enumerate_sr(Order.N, ND),
            lambda: enumerate_dm(Order.N, DM),
            lambda: table1_report(Order.N, 17),
            lambda: SearchOptions(thread_budget=Order.N),
            lambda: find_labelings(wreath(4), max_results=Order.N),
        ]
        for call in calls:
            with pytest.raises(SearchError, match="must be int, got Order"):
                call()
        with pytest.raises(MergeError, match="order must be int, got Order"):
            witness_non_wreath(Order.N)


class TestTable1:
    def test_rows_16_17(self):
        table = table1_report(16, 17)
        assert table.rows == [(16, 48, 1, 1), (17, 0, 0, 0)]
        assert table.complete

    def test_small_order_golden_values(self):
        # orders 5..15: no odd-order classes exist, even orders carry only
        # the wreath classes; values frozen from a verified run
        table = table1_report(5, 15)
        got = {n: sr for n, sr, _, _ in table.rows}
        assert all(got[n] == 0 for n in range(5, 16, 2))
        assert got[8] == 1
        assert got[6] == got[10] == got[12] == got[14] == 0

    def test_text_rendering(self):
        table = table1_report(16, 16)
        text = table.to_text()
        assert "#SR" in text and " 48 " in text + " "

    def test_bad_range(self):
        with pytest.raises(SearchError):
            table1_report(4, 10)
        for bad in ((16.0, 17), (16, 17.0)):
            with pytest.raises(SearchError, match="float"):
                table1_report(*bad)

    def test_one_deadline_for_the_table(self, monkeypatch):
        # every order takes 0.2 s of a fake clock; each gets the time left
        # of one 0.5 s budget, and the order with none left is a zero row
        clock = [100.0]
        limits = []

        def fake_enumerate_sr(n, opts):
            limits.append(opts.time_limit)
            clock[0] += 0.2
            return [], EnumerationReport(n, 1, 1, 1, True)

        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        monkeypatch.setattr(search, "enumerate_sr", fake_enumerate_sr)
        table = table1_report(16, 21, SearchOptions(time_limit=0.5))
        assert limits == pytest.approx([0.5, 0.3, 0.1])
        assert table.rows == [(16, 1, 1, 1), (17, 1, 1, 1), (18, 1, 1, 1), (19, 0, 0, 0)]
        assert not table.complete
        limits.clear()
        assert table1_report(16, 18).complete and limits == [None] * 3


class TestReportSemantics:
    def test_equality_ignores_elapsed(self):
        a = EnumerationReport(10, 1, 1, 1, True, elapsed=0.5)
        b = EnumerationReport(10, 1, 1, 1, True, elapsed=9.9)
        assert a == b

    @pytest.mark.parametrize("run", [lambda: enumerate_sr(12), lambda: enumerate_dm(8)],
                             ids=["sr", "dm"])
    def test_elapsed_covers_search_setup(self, monkeypatch, run):
        # the search builds its tables before its first node; the report's
        # wall time includes them
        table = search._bound_table
        monkeypatch.setattr(search, "_bound_table", lambda mags: time.sleep(0.3) or table(mags))
        start = time.monotonic()
        _, rep = run()
        assert 0.3 <= rep.elapsed <= time.monotonic() - start

    def test_counts_monotone(self):
        for n in (12, 16, 18):
            _, rep = enumerate_sr(n, SearchOptions(require_nondegenerate=True))
            assert rep.sr_count >= rep.iso_class_count >= rep.vt_count >= 0

    @pytest.mark.parametrize("pairs", [
        lambda: list(search._sr_candidates(12, SR, None)),
        lambda: list(search._sr_candidates(16, SR, None)),
        lambda: enumerate_dm(12)[0],
    ], ids=["sr12", "sr16", "dm12"])
    def test_sort_by_neighbors_is_sort_by_edges(self, pairs):
        # _collect sorts kept pairs by neighbor tuples; on 4-regular graphs
        # of one order that is the edge-list (label graph) order
        pairs = pairs()
        assert len(pairs) > 50 and all(g.is_regular(4) for g, _ in pairs)
        random.Random(len(pairs)).shuffle(pairs)
        by_edges = sorted(pairs, key=lambda p: p[0].edges())
        assert sorted(pairs, key=lambda p: p[0].neighbors) == by_edges

    def test_sort_by_neighbors_needs_equal_degrees(self):
        # the precondition: on graphs of unequal degrees the orders differ
        path, star = Graph(3, [(0, 1), (1, 2)]), Graph(3, [(0, 1), (0, 2)])
        assert path.edges() > star.edges()
        assert path.neighbors < star.neighbors


class TestSpecInvariants:
    def test_degenerate_implies_wreath_over_all_dm(self):
        # every degenerate self-reverse instance among all distance magic
        # label graphs of orders <= 14 lives on a wreath graph
        for n in (8, 10, 12, 14):
            pairs, _ = enumerate_dm(n)
            m = n // 2
            for g, l in pairs:
                if is_self_reverse(g, l) and is_degenerate(g, l):
                    assert are_isomorphic(g, wreath(m))

    def test_connectivity_flag(self):
        kept, _ = enumerate_sr(16, SearchOptions(require_nondegenerate=True))
        loose, loose_rep = enumerate_sr(
            16,
            SearchOptions(require_nondegenerate=True, require_connected=False),
        )
        assert len(loose) > len(kept)
        assert any(not g.is_connected() for g, _ in loose)
        assert all(g.is_connected() for g, _ in kept)
        # some disconnected covers have a twin at every vertex, yet are no
        # wreath graph: each must still be classified by its own code
        _, all_rep = enumerate_sr(16, SearchOptions(require_connected=False))
        for rep, row in ((loose_rep, (66, 2, 2)), (all_rep, (2586, 2, 2))):
            assert (rep.sr_count, rep.iso_class_count, rep.vt_count) == row

    def test_counts_follow_existence_theorem(self):
        # nondegenerate classes exist exactly at 8, 16, 18 within 5..18
        for n in range(5, 19):
            _, rep = enumerate_sr(n, SearchOptions(require_nondegenerate=True))
            assert (rep.sr_count > 0) == (n in (8, 16, 18))

    def test_enumerate_dm_16_unique_nonwreath(self):
        # every graph here has 16 vertices and valence 4, so are_isomorphic
        # with wreath(8) is equality of canonical codes
        pairs, rep = enumerate_dm(16)
        assert (rep.sr_count, rep.iso_class_count, rep.vt_count) == (11744, 2, 1)
        # sha256 over label_graph_to_json of each sorted pair, one per line
        h = hashlib.sha256()
        for g, l in pairs:
            h.update(label_graph_to_json(label_graph(g, l)).encode() + b"\n")
        assert h.hexdigest() == "2b98fc54da68ff8ebd6106b6ec9ca00232f337dffbbb298ae27d5d502e177cbb"
        w8 = canonical_code(wreath(8))
        nonwreath = {canonical_code(g) for g, _ in pairs} - {w8}
        assert len(nonwreath) == 1
        # piggyback on the expensive run: degenerate self-reverse instances
        # at order 16 also live on the wreath graph only
        for g, l in pairs:
            if is_self_reverse(g, l) and is_degenerate(g, l):
                assert canonical_code(g) == w8

    def test_reverse_equivalence_over_all_dm(self):
        from magiclab.labelings import are_equivalent
        for n in (8, 10, 12):
            pairs, _ = enumerate_dm(n)
            for g, l in pairs:
                assert are_equivalent(g, l, g, l.reverse()) == is_self_reverse(g, l)

import hashlib
import os
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiclab.families import (
    wreath,
    wreath_natural_labeling,
    wreath_nondegenerate_labeling,
)
from magiclab.graphs import (
    Graph,
    are_isomorphic,
    canonical_code,
    connected_components,
    graph_to_json,
)
from magiclab.labelings import (
    is_degenerate,
    is_distance_magic,
    is_self_reverse,
    label_graph,
    label_graph_to_json,
    labeling_to_json,
)
from magiclab import merges
from magiclab.merges import (
    BASE_ORDERS,
    Cyclet,
    MergeError,
    align_cyclets,
    check_merge_conditions,
    cyclet_from_quotient_edge,
    extend_by_w4,
    make_cyclet,
    merge,
    merged_labeling,
    witness,
    witness_non_wreath,
    witness_nondegenerate,
    _find_base,
)
from magiclab.quotients import SOLID, quotient
from magiclab.search import SearchOptions, enumerate_dm, iter_sr_pairs

CHECKOUT = Path(__file__).resolve().parents[1]


def w4_pair():
    return wreath(4), wreath_nondegenerate_labeling(4)


class TestCyclets:
    def test_w3_example(self):
        # (x0, x1, y2, y1) with x_i -> i and y_i -> 3+i
        c = make_cyclet(wreath(3), (0, 1, 5, 4))
        assert len(c) == 4

    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert make_cyclet(g, (0, 1, 2)).vertices == (0, 1, 2)

    def test_nonadjacent_rejected(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(MergeError):
            make_cyclet(c4, (0, 2, 1, 3))

    def test_repeats_rejected(self):
        g = wreath(3)
        with pytest.raises(MergeError):
            make_cyclet(g, (0, 1, 0, 4))

    def test_too_short_rejected(self):
        with pytest.raises(MergeError):
            make_cyclet(wreath(3), (0, 1))


class TestMerge:
    def test_w3_w3_gives_order_12_quasi_wreath(self):
        w3 = wreath(3)
        c = make_cyclet(w3, (0, 1, 5, 4))
        merged = merge(w3, c, w3, c)
        assert merged.n == 12
        assert merged.is_regular(4)
        assert merged.is_connected()
        assert not are_isomorphic(merged, wreath(6))

    def test_w4_w4_gives_w8(self):
        g, l = w4_pair()
        c1 = cyclet_from_quotient_edge(g, l, 3, 7)
        c2 = cyclet_from_quotient_edge(g, l, 1, 5)
        merged = merge(g, c1, g, c2)
        assert are_isomorphic(merged, wreath(8))

    def test_degree_preservation(self):
        w3, w5 = wreath(3), wreath(5)
        c1 = make_cyclet(w3, (0, 1, 5, 4))
        c2 = make_cyclet(w5, (0, 1, 7, 6))
        merged = merge(w3, c1, w5, c2)
        assert all(merged.degree(v) == 4 for v in range(merged.n))

    def test_length_mismatch(self):
        w3 = wreath(3)
        tri = Graph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(MergeError):
            merge(w3, make_cyclet(w3, (0, 1, 5, 4)), tri, make_cyclet(tri, (0, 1, 2)))

    def test_added_edges_form_two_cycles_for_even_length(self):
        w3 = wreath(3)
        c = make_cyclet(w3, (0, 1, 5, 4))
        merged = merge(w3, c, w3, c)
        new_edges = set(merged.edges()) - set(
            (u, v) if u < v else (v, u)
            for u, v in (
                [(a, b) for a, b in wreath(3).edges()]
                + [(a + 6, b + 6) for a, b in wreath(3).edges()]
            )
        )
        cross = Graph(12, new_edges)
        comps = [c for c in connected_components(cross) if len(c) > 1]
        assert len(comps) == 2
        for comp in comps:
            assert len(comp) == 4

    def test_odd_cyclet_single_cycle(self):
        # pentagon cyclets in two 4-regular circulants
        from magiclab.families import circulant
        g = circulant(5, [1, 2, -1, -2])
        c = make_cyclet(g, (0, 1, 2, 3, 4))
        merged = merge(g, c, g, c)
        new_edges = [e for e in merged.edges() if (e[0] < 5) != (e[1] < 5)]
        ring = Graph(10, new_edges)
        assert all(ring.degree(v) == 2 for v in range(10))
        assert ring.is_connected()


class TestMergeConditions:
    def test_w4_pair_report(self):
        g, l = w4_pair()
        c1 = cyclet_from_quotient_edge(g, l, 3, 7)
        c2 = cyclet_from_quotient_edge(g, l, 1, 5)
        report = check_merge_conditions(g, l, c1, g, l, c2)
        assert report.balanced
        assert report.alternating
        assert report.sums_match
        assert not report.sr_condition_i  # needs length 4 mod 8, length >= 12
        assert report.sr_condition_ii
        assert report.mergeable

    def test_odd_length_rejected(self):
        from magiclab.families import circulant
        g = circulant(5, [1, 2, -1, -2])
        from magiclab.labelings import Labeling
        l = Labeling([-4, -2, 0, 2, 4])
        c = make_cyclet(g, (0, 1, 2))
        with pytest.raises(MergeError):
            check_merge_conditions(g, l, c, g, l, c)

    def test_merged_labeling_formula(self):
        g, l = w4_pair()
        lab = merged_labeling(g, l, g, l)
        # first block unchanged, second block shifted outward by 8
        assert lab.labels[:8] == l.labels
        assert lab.labels[8:] == tuple(x + 8 if x >= 0 else x - 8 for x in l.labels)

    def test_merged_labeling_needs_balance(self):
        g = Graph(8, [(a, 4 + b) for a in range(4) for b in range(4)])
        from magiclab.labelings import Labeling
        sided = Labeling([1, 3, 5, 7, -1, -3, -5, -7])
        with pytest.raises(MergeError):
            merged_labeling(g, sided, g, sided)

    def test_w4_w4_merged_labeling_properties(self):
        g, l = w4_pair()
        c1 = cyclet_from_quotient_edge(g, l, 3, 7)
        c2 = cyclet_from_quotient_edge(g, l, 1, 5)
        merged = merge(g, c1, g, c2)
        lab = merged_labeling(g, l, g, l)
        assert is_distance_magic(merged, lab)
        assert is_self_reverse(merged, lab)
        assert not is_degenerate(merged, lab)
        q = quotient(merged, lab)
        assert q.edge_color(11, 15) == SOLID
        assert 11 in q.semiedges and 15 in q.semiedges

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(min_value=3, max_value=7),
        k=st.integers(min_value=3, max_value=7),
        i=st.integers(min_value=0, max_value=6),
        j=st.integers(min_value=0, max_value=6),
    )
    def test_natural_wreath_merges_are_distance_magic(self, m, k, i, j):
        # cyclet (x_i, x_{i+1}, y_{i+2}, y_{i+1}) at non-wrapping positions
        # is alternating with opposing sums (0, -4, 0, -4) on any wreath,
        # so any two such cyclets merge
        g, h = wreath(m), wreath(k)
        lg, lh = wreath_natural_labeling(m), wreath_natural_labeling(k)
        i %= m - 2
        j %= k - 2
        c = make_cyclet(g, (i, i + 1, m + i + 2, m + i + 1))
        c2 = make_cyclet(h, (j, j + 1, k + j + 2, k + j + 1))
        report = check_merge_conditions(g, lg, c, h, lh, c2)
        assert report.mergeable
        merged = merge(g, c, h, c2)
        lab = merged_labeling(g, lg, h, lh)
        assert merged.is_regular(4)
        assert is_distance_magic(merged, lab)

    def test_sr_condition_yields_self_reverse_merge(self):
        # all same-difference solid quotient edge pairs of the order-8 block
        g, l = w4_pair()
        q = quotient(g, l)
        solids = [(a, b) for a, b, c in q.edges if c == SOLID]
        for a, b in solids:
            for a2, b2 in solids:
                if b - a != b2 - a2:
                    continue
                c1 = cyclet_from_quotient_edge(g, l, a, b)
                c2 = cyclet_from_quotient_edge(g, l, a2, b2)
                report = check_merge_conditions(g, l, c1, g, l, c2)
                assert report.mergeable and report.sr_condition_ii
                merged = merge(g, c1, g, c2)
                lab = merged_labeling(g, l, g, l)
                assert is_distance_magic(merged, lab)
                assert is_self_reverse(merged, lab)

    def test_align_cyclets_finds_workable_orientation(self):
        g, l = w4_pair()
        c1 = cyclet_from_quotient_edge(g, l, 3, 7)
        base = cyclet_from_quotient_edge(g, l, 1, 5)
        scrambled = Cyclet(base.vertices[2:] + base.vertices[:2], 8)
        found = align_cyclets(g, l, c1, g, l, scrambled)
        assert found
        assert all(
            check_merge_conditions(g, l, c1, g, l, c).mergeable for c in found
        )


class TestQuotientEdgeCyclets:
    def test_w4_edge_3_7(self):
        g, l = w4_pair()
        c = cyclet_from_quotient_edge(g, l, 3, 7)
        labels = tuple(l.label(v) for v in c.vertices)
        assert labels == (3, 7, -7, -3)

    def test_dashed_edge_rejected(self):
        g, l = w4_pair()
        with pytest.raises(MergeError):
            cyclet_from_quotient_edge(g, l, 1, 7)

    def test_missing_edge_rejected(self):
        g, l = w4_pair()
        with pytest.raises(MergeError):
            cyclet_from_quotient_edge(g, l, 3, 11)

    def test_output_satisfies_symmetry_condition(self):
        g, l = w4_pair()
        for a, b in ((3, 7), (1, 5)):
            c = cyclet_from_quotient_edge(g, l, a, b)
            us = c.vertices
            assert us[2] == l.partner(us[1]) and us[3] == l.partner(us[0])


class TestExtension:
    def test_w4_to_w8(self):
        g, l = w4_pair()
        g2, l2 = extend_by_w4(g, l, 3, 7)
        assert g2.n == 16
        assert are_isomorphic(g2, wreath(8))
        assert is_distance_magic(g2, l2) and is_self_reverse(g2, l2)
        assert not is_degenerate(g2, l2)

    def test_iteration_adds_8_each_time(self):
        g, l = w4_pair()
        a, b = 3, 7
        for step in range(1, 4):
            g, l = extend_by_w4(g, l, a, b)
            assert g.n == 8 + 8 * step
            assert g.is_connected()
            assert not is_degenerate(g, l)
            a, b = g.n - 8 + 3, g.n - 8 + 7

    def test_wrong_difference_rejected(self):
        g, l = w4_pair()
        with pytest.raises(MergeError):
            extend_by_w4(g, l, 5, 7)


class TestWitnesses:
    def test_witness_presence_pattern(self):
        assert witness(19) is None
        assert witness(5) is None
        w = witness(29)
        assert w is not None and w[0].n == 29
        g, l = witness(6)
        assert are_isomorphic(g, wreath(3))

    def test_witness_verified_properties(self):
        for n in (6, 12, 21, 27, 29):
            w = witness(n)
            if w is None:
                continue
            g, l = w
            assert g.is_connected() and g.is_regular(4)
            assert is_distance_magic(g, l) and is_self_reverse(g, l)

    def test_nondegenerate_pattern(self):
        assert witness_nondegenerate(17) is None
        assert witness_nondegenerate(22) is None
        g, l = witness_nondegenerate(8)
        assert are_isomorphic(g, wreath(4))
        assert not is_degenerate(g, l)

    def test_non_wreath_pattern(self):
        assert witness_non_wreath(16) is None
        assert witness_non_wreath(19) is None
        assert witness_non_wreath(22) is None
        g, l = witness_non_wreath(18)
        assert not are_isomorphic(g, wreath(9))
        assert is_self_reverse(g, l)

    def test_small_orders_rejected(self):
        with pytest.raises(MergeError):
            witness(4)

    # sha256 over one line per call, for n = 5..60 and the three functions in
    # turn: "name(n):" then "-" for None or the graph and labeling JSON
    OUTPUTS_DIGEST = "dbb0328538b712ef90d951939b15e5b4475ede170d795b68d398f836deae97a0"

    def test_outputs_digest(self):
        h = hashlib.sha256()
        for n in range(5, 61):
            for fn in (witness, witness_nondegenerate, witness_non_wreath):
                pair = fn(n)
                line = f"{fn.__name__}({n}):" + (
                    "-" if pair is None else graph_to_json(pair[0]) + labeling_to_json(pair[1])
                )
                h.update(line.encode() + b"\n")
        assert h.hexdigest() == self.OUTPUTS_DIGEST

    def test_one_chain_per_order(self, monkeypatch):
        # 102 calls over 5..60 ask for a chain, at 41 distinct orders
        merges._chain_witness.cache_clear()
        built = []
        extend = merges._extend_chain
        monkeypatch.setattr(merges, "_extend_chain", lambda g, *a: built.append(g.n) or extend(g, *a))
        for n in range(5, 61):
            for fn in (witness, witness_nondegenerate, witness_non_wreath):
                fn(n)
        info = merges._chain_witness.cache_info()
        assert (len(built), info.misses, info.hits) == (41, 41, 61)

    @pytest.mark.parametrize("bad", [21.0, 24.0, True, "21"])
    def test_non_integer_orders_rejected(self, bad):
        for fn in (witness, witness_nondegenerate, witness_non_wreath):
            with pytest.raises(MergeError, match=type(bad).__name__):
                fn(bad)

    @pytest.mark.parametrize("n", [66, 130])
    def test_non_wreath_beyond_canonical_limit(self, n):
        g, l = witness_non_wreath(n)
        assert g.n == n and g.is_connected() and g.is_regular(4)
        assert is_distance_magic(g, l) and is_self_reverse(g, l)
        assert not is_degenerate(g, l)
        assert 1 in Counter(g.neighbors).values()  # a vertex without a twin


class TestIsWreath:
    """The twin test against an isomorphism test with wreath(n / 2)."""

    def graphs(self):
        yield from (wreath(m) for m in range(3, 13))
        pairs, _ = enumerate_dm(12, SearchOptions(require_self_reverse=False))
        yield from (g for g, _ in pairs)
        for n in (16, 18, 20):
            yield from (g for g, _ in iter_sr_pairs(n, SearchOptions(require_nondegenerate=True)))

    def test_agrees_with_isomorphism(self):
        verdicts = Counter()
        for g in self.graphs():
            verdict = merges._is_wreath(g)
            assert verdict == are_isomorphic(g, wreath(g.n // 2))
            verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]


class TestChainsAvoidWreaths:
    """Why no extension chain ends on a wreath graph, the case the twin
    test in _chain_witness only guards.  A merge changes the neighbourhoods
    of the four cyclet vertices only, and every block vertex keeps at least
    2 block neighbours, so a base vertex off every cyclet keeps its
    neighbourhood and no vertex can become its twin.  Each base has twinless
    vertices off the cyclet of its first extensible edge, and from the
    second step on every step picks the newest block's edge (N - 5, N - 1),
    N the order before the step: the block's {3, 7} shifted, the same local
    merge 8 labels higher each time, so no base vertex is on a later cyclet.
    A base that stops satisfying this fails here."""

    @pytest.mark.parametrize("order", BASE_ORDERS)
    def test_base_vertex_off_every_cyclet_stays_twinless(self, order):
        g, l = _find_base(order)
        cyclet = cyclet_from_quotient_edge(g, l, *merges._extensible_edge(quotient(g, l)))
        twins = Counter(g.neighbors)
        kept = [v for v in range(g.n) if v not in cyclet.vertices and twins[g.neighbors[v]] == 1]
        assert kept
        h, lh = merges._extend_chain(g, l, 1)
        for _ in range(2):
            n = h.n
            assert merges._extensible_edge(quotient(h, lh)) == (n - 5, n - 1)
            h, lh = merges._extend_chain(h, lh, 1)
        twins = Counter(h.neighbors)
        assert all(h.neighbors[v] == g.neighbors[v] and twins[h.neighbors[v]] == 1 for v in kept)


class TestChainRetry:
    """There is no retry: a chain that ends on a wreath graph raises at
    once, without enumerating its order again."""

    @pytest.fixture
    def warm_cache(self):
        merges._find_base(18)
        # the chains below run under a patched _is_wreath: keep their
        # results out of the shared chain memo
        merges._chain_witness.cache_clear()
        yield
        merges._chain_witness.cache_clear()

    def test_all_chains_rejected_raise_after_one_pass(self, warm_cache, monkeypatch):
        seen = []
        real = merges._is_wreath

        def rejects_order_26(g):
            if g.n == 26:
                seen.append(g)
                return True
            return real(g)

        passes = []
        real_pairs = merges._search.iter_sr_pairs

        def counted_pairs(*args):
            passes.append(args[0])
            return real_pairs(*args)

        monkeypatch.setattr(merges, "_is_wreath", rejects_order_26)
        monkeypatch.setattr(merges._search, "iter_sr_pairs", counted_pairs)
        with pytest.raises(MergeError, match="wreath"):
            witness_non_wreath(26)
        assert passes == [] and len(seen) == 1


class TestMergeIdentitiesAgainstEnumeration:
    def test_w3_w3_is_the_unique_nonwreath_order_12(self):
        w3 = wreath(3)
        c = make_cyclet(w3, (0, 1, 5, 4))
        merged = merge(w3, c, w3, c)
        pairs, _ = enumerate_dm(12, SearchOptions(require_self_reverse=False))
        nonwreath = {
            canonical_code(g)
            for g, _ in pairs
            if not are_isomorphic(g, wreath(6))
        }
        assert len(nonwreath) == 1
        assert canonical_code(merged) in nonwreath


class TestEmissionOrder:
    """The search's emission order is part of its output: the first
    extensible instance of each order is a witness base.  Sorted-set
    checks cannot see a reordering; these can."""

    # sha256 over graph_to_json + labeling_to_json of each order's base
    BASE_DIGESTS = {
        18: "c06d4e628bf7afeb598352a83fbdd0f099b17a8010249d7e253a4d35e131cfbf",
        20: "776314cfcfbd5ec149573881cecb1f5f6744f52d9905bd3b0eaafcc5c768b504",
        21: "abd32845cac72bfed2dc6e4332212ca60c173fbd1d432521bfa394bbe6506cfa",
        23: "67dd9d1bc2c0ed4c1cec005579ee8dcdc052e9f7f33200d0a2ef3d1c5aed5e82",
        24: "9369ded18fdc36ef83c8dcbbd80e47da5fa26e8cfd039ac13030828bf318cbf6",
        25: "680739146a0056a88b45aade3310f99a4a51db2f2283ccdaa8957f81ba510e3e",
        27: "2c8ca4371eefb4c2f8bc7ac19a3c442e2782004c7f1134964400860623750e91",
        30: "d860649f4ac9023b56377d426ccff54f1ea1eded7bfcbe038a2da1b09df7f97b",
    }

    @pytest.mark.parametrize("order", BASE_ORDERS)
    def test_find_base_matches_committed_base(self, order):
        g, l = _find_base(order)
        text = graph_to_json(g) + labeling_to_json(l)
        assert hashlib.sha256(text.encode()).hexdigest() == self.BASE_DIGESTS[order]

    # sha256 over label_graph_to_json of each emitted pair, one per line, in
    # emission order
    STREAM_DIGESTS = {
        16: "290fca3643734bbf2b0527946fd12935a3956b562b5152592622d5114e81e40c",
        18: "1655a393930bc46acaa21238d2ac84ae09071473ed12a42c6b13c223470f45bf",
        20: "ae107d41e16336e6c89cb628bc002ec30edfe7df07058c6762c0a6fbeefc0445",
    }

    @pytest.mark.parametrize("n", sorted(STREAM_DIGESTS))
    def test_nondegenerate_stream_digest(self, n):
        h = hashlib.sha256()
        for g, l in iter_sr_pairs(n, SearchOptions(require_nondegenerate=True)):
            h.update(label_graph_to_json(label_graph(g, l)).encode() + b"\n")
        assert h.hexdigest() == self.STREAM_DIGESTS[n]


class TestBaseCache:
    def test_default_cache_ignores_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        merges._find_base.cache_clear()
        merges._chain_witness.cache_clear()
        g, l = witness(21)
        assert g.n == 21 and is_self_reverse(g, l)
        assert os.listdir(tmp_path) == []
        assert not (CHECKOUT / "data").exists()

import hashlib
import json
import os
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

COMMITTED_BASES = Path(__file__).resolve().parents[1] / "data" / "bases"


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
    extensible instance of each order is a cached witness base.  Sorted-set
    checks cannot see a reordering; these can."""

    @pytest.mark.parametrize("order", BASE_ORDERS)
    def test_find_base_matches_committed_base(self, order):
        g, l = _find_base(order)
        got = {
            "graph": json.loads(graph_to_json(g)),
            "labeling": json.loads(labeling_to_json(l)),
        }
        committed = json.loads((COMMITTED_BASES / f"base_{order}.json").read_text())
        assert got == committed

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
        monkeypatch.delenv("MAGICLAB_BASE_CACHE", raising=False)
        g, l = witness(21)
        assert g.n == 21 and is_self_reverse(g, l)
        assert not (tmp_path / "data").exists()

    def test_cold_build_leaves_only_bases(self, tmp_path, monkeypatch):
        cache = tmp_path / "bases"
        monkeypatch.setenv("MAGICLAB_BASE_CACHE", str(cache))
        witness(21)
        assert sorted(os.listdir(cache)) == ["base_21.json"]
        assert json.loads((cache / "base_21.json").read_text()) == json.loads(
            (COMMITTED_BASES / "base_21.json").read_text()
        )

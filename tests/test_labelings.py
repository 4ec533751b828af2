from collections import Counter

import pytest

from magiclab.families import (
    wreath,
    wreath_natural_labeling,
    wreath_non_sr_labeling,
    wreath_nondegenerate_labeling,
)
from magiclab.graphs import Graph
from magiclab.labelings import (
    LabelGraph,
    Labeling,
    LabelingError,
    are_equivalent,
    bipartition,
    is_alternating,
    is_balanced,
    is_degenerate,
    is_distance_magic,
    is_link,
    is_self_reverse,
    label_graph,
    label_graph_from_json,
    label_graph_to_json,
    label_set,
    labeling_from_json,
    labeling_to_json,
    linear_dependencies,
    pair_partition,
    pairing_kernel,
    self_reverse_by_pair_structure,
    to_classical,
)
from magiclab.search import SearchOptions, enumerate_dm, find_labelings, iter_sr_pairs


def k5() -> Graph:
    return Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


class TestLabelSet:
    def test_values(self):
        assert label_set(4) == (-3, -1, 1, 3)
        assert label_set(5) == (-4, -2, 0, 2, 4)
        assert label_set(1) == (0,)

    def test_zero_order_rejected(self):
        with pytest.raises(LabelingError):
            label_set(0)

    @pytest.mark.parametrize("n, kind", [(True, "bool"), (2.5, "float"), (3.0, "float"), ("3", "str")])
    def test_order_is_an_exact_int(self, n, kind):
        # label_set(True) returned (0,), and a float raised a bare TypeError
        with pytest.raises(LabelingError, match=f"order must be int, got {kind}"):
            label_set(n)

    def test_negation_closed(self):
        for n in range(1, 20):
            s = set(label_set(n))
            assert {-x for x in s} == s
            assert (0 in s) == (n % 2 == 1)


class TestLabelingBasics:
    def test_bijection_enforced(self):
        with pytest.raises(LabelingError):
            Labeling([1, 1, -3, 3])
        with pytest.raises(LabelingError):
            Labeling([0, 2, -2, 4])  # wrong parity for n=4

    def test_to_classical(self):
        l = Labeling([-3, -1, 1, 3])
        assert to_classical(l) == (1, 2, 3, 4)
        n21 = Labeling(list(range(-20, 21, 2)))
        assert to_classical(n21)[n21.vertex_of(0)] == 11

    def test_json_round_trip(self):
        l = wreath_natural_labeling(4)
        assert labeling_from_json(labeling_to_json(l)) == l

    @pytest.mark.parametrize("text", [
        '{"order": 3, "labels": [-2.5, "0", 2.9]}',
        '{"order": 3, "labels": [-2, 0, 2.0]}',
        '{"order": 3, "labels": [-2, false, 2]}',
        '{"order": 3.0, "labels": [-2, 0, 2]}',
        '{"order": "3", "labels": [-2, 0, 2]}',
    ])
    def test_json_integers_are_strict(self, text):
        with pytest.raises(LabelingError):
            labeling_from_json(text)

    @pytest.mark.parametrize("labels, kind", [
        ([True, -1], "bool"),
        ([1.0, -1.0], "float"),
        ([-1, 1.0], "float"),
        ([3, -1, 1, -3.0], "float"),
        ([-2, False, 2], "bool"),
    ])
    def test_labels_are_exact_ints(self, labels, kind):
        # equal to a bijection onto the labels, but written as true or 1.0
        # they would not load back through labeling_from_json
        with pytest.raises(LabelingError, match=f"got {kind}"):
            Labeling(labels)
        exact = Labeling([int(x) for x in labels])
        assert labeling_from_json(labeling_to_json(exact)) == exact

    def test_partner(self):
        l = wreath_natural_labeling(3)
        assert l.partner(0) == 3  # label 1 pairs with -1
        assert all(l.partner(l.partner(v)) == v for v in range(6))

    def test_central_vertex_is_its_own_partner(self):
        l = Labeling([-2, 0, 2])
        assert l.partner(1) == 1
        assert l.central_vertex() == 1

    @pytest.mark.parametrize("labels", [
        (1, -1),
        (3, -5, 1, 5, -1, -3),
        (0,),
        (-2, 4, 0, -4, 2),
        (6, -2, 4, -6, 0, 2, -4),
    ])
    def test_partners_map_each_vertex_to_its_negated_label(self, labels):
        for l in (Labeling(labels), Labeling(labels).reverse()):
            assert len(l.partners) == l.n
            assert all(l.partners[v] == l.vertex_of(-l.label(v)) for v in range(l.n))
            assert all(l.partner(v) == l.partners[v] for v in range(l.n))
            c = l.central_vertex()
            assert (c is None) == (l.n % 2 == 0)
            assert c is None or l.partners[c] == c

    def test_vertex_of_a_missing_label(self):
        # raised a bare KeyError
        l = Labeling([1, -1])
        for lab in (5, 0, 2):
            with pytest.raises(LabelingError, match=f"carries label {lab}"):
                l.vertex_of(lab)
        assert (l.vertex_of(1), l.vertex_of(-1)) == (0, 1)

    def test_pair_partition(self):
        l = wreath_natural_labeling(3)
        part = pair_partition(l)
        assert part.central is None
        assert part.pairs == ((0, 3), (1, 4), (2, 5))
        odd = Labeling([4, -4, 2, -2, 0])
        p = pair_partition(odd)
        assert p.central == 4 and len(p.pairs) == 2


class TestDistanceMagic:
    def test_natural_wreath(self):
        assert is_distance_magic(wreath(3), wreath_natural_labeling(3))

    def test_k5_never(self):
        # the neighbor sum at v equals -label(v), which cannot vanish everywhere
        import itertools
        for perm in itertools.permutations(label_set(5)):
            assert not is_distance_magic(k5(), Labeling(perm))

    def test_nondegenerate_w4(self):
        assert is_distance_magic(wreath(4), wreath_nondegenerate_labeling(4))

    def test_reverse_preserves(self):
        g = wreath(5)
        l = wreath_natural_labeling(5)
        assert l.reverse().reverse() == l
        assert l.reverse().labels[0] == -1
        assert is_distance_magic(g, l.reverse())


class TestSelfReverse:
    def test_natural_wreaths(self):
        for m in range(3, 9):
            assert is_self_reverse(wreath(m), wreath_natural_labeling(m))

    def test_tweak_not_self_reverse(self):
        assert not is_self_reverse(wreath(8), wreath_non_sr_labeling(8))

    def test_w4_nondegenerate(self):
        assert is_self_reverse(wreath(4), wreath_nondegenerate_labeling(4))

    def test_agrees_with_pair_structure(self):
        cases = [
            (wreath(4), wreath_nondegenerate_labeling(4)),
            (wreath(8), wreath_non_sr_labeling(8)),
            (wreath(8), wreath_nondegenerate_labeling(8)),
            (wreath(5), wreath_natural_labeling(5)),
        ]
        # every distance magic class of order 12, and the odd order-21
        # classes, whose central vertex is a partition set of its own
        cases += enumerate_dm(12)[0]
        cases += iter_sr_pairs(21, SearchOptions(require_nondegenerate=True))
        verdicts = Counter()
        for g, l in cases:
            verdict = is_self_reverse(g, l)
            assert verdict == self_reverse_by_pair_structure(g, l)
            verdicts[verdict, g.n] += 1
        assert verdicts == {(True, 8): 1, (False, 16): 1, (True, 16): 1, (True, 10): 1,
                            (True, 12): 60, (False, 12): 54, (True, 21): 57}


class TestDegeneracy:
    def test_natural_is_degenerate(self):
        assert is_degenerate(wreath(3), wreath_natural_labeling(3))

    def test_w4_formula_not_degenerate(self):
        assert not is_degenerate(wreath(4), wreath_nondegenerate_labeling(4))

    def test_w8_formula_not_degenerate(self):
        assert not is_degenerate(wreath(8), wreath_nondegenerate_labeling(8))


class TestPairingKernel:
    def test_linear_dependencies(self):
        # 2 (1, 1) = (2, 0) + (0, 2), 0 = nothing, 2 (3, -1) = 3 (2, 0) - (0, 2)
        got = linear_dependencies([(2, 0), (0, 2), (1, 1), (0, 0), (3, -1)])
        assert got == [None, None, ({0: 1, 1: 1}, 2), ({}, 1), ({0: 3, 1: -1}, 2)]

    def test_cycles_and_a_wreath(self):
        c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        c8 = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
        # C6, pairs (i, i+3): vertex 0 sees 1 (first of pair 1) and 5 (second
        # of pair 2), so x1 - x2 = 0; likewise x0 + x2 = 0 and x1 - x0 = 0,
        # which only x = 0 solves
        assert pairing_kernel(c6, [(v + 3) % 6 for v in range(6)]) is None
        # C8, pairs (i, 7-i): -x0 + x1 = 0, x0 + x2 = 0, x1 + x3 = 0 and
        # x2 - x3 = 0 give the rows (1), (1), (-1), (-1): one magnitude
        assert pairing_kernel(c8, [7 - v for v in range(8)]) is None
        # wreath(4), pairs (i, i+4): every neighbor pair is a full block, so
        # M = 0 and each pair takes any label
        rows = pairing_kernel(wreath(4), [(v + 4) % 8 for v in range(8)])
        assert rows == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    def test_labeling_is_a_kernel_vector(self):
        g, l = wreath(8), wreath_nondegenerate_labeling(8)
        part = [l.partner(v) for v in range(g.n)]
        rows = pairing_kernel(g, part)
        x = [l.label(u) for u in range(g.n) if part[u] > u]
        *basis, last = linear_dependencies([*zip(*rows), x])
        assert basis == [None] * len(rows[0]) and last is not None


class TestEquivalence:
    def test_reflexive(self):
        g, l = wreath(3), wreath_natural_labeling(3)
        assert are_equivalent(g, l, g, l)

    def test_reverse_equivalent_iff_self_reverse(self):
        for g, l in [
            (wreath(3), wreath_natural_labeling(3)),
            (wreath(8), wreath_nondegenerate_labeling(8)),
            (wreath(8), wreath_non_sr_labeling(8)),
        ]:
            assert are_equivalent(g, l, g, l.reverse()) == is_self_reverse(g, l)

    def test_reverse_equivalence_over_enumerated_labelings(self):
        # exhaustive over the fixed wreath graphs of order <= 14
        for m in (3, 5, 6, 7):
            g = wreath(m)
            for l in find_labelings(g, SearchOptions(require_self_reverse=False)):
                assert are_equivalent(g, l, g, l.reverse()) == is_self_reverse(g, l)

    def test_degenerate_vs_nondegenerate_never_equivalent(self):
        g = wreath(8)
        from magiclab.families import wreath_degenerate_labeling
        assert not are_equivalent(
            g, wreath_degenerate_labeling(8), g, wreath_nondegenerate_labeling(8)
        )

    def test_order_mismatch(self):
        with pytest.raises(LabelingError):
            are_equivalent(
                wreath(3), wreath_natural_labeling(3),
                wreath(4), wreath_natural_labeling(4),
            )


class TestLabelGraph:
    def test_contains_natural_edge(self):
        lg = label_graph(wreath(3), wreath_natural_labeling(3))
        assert (1, 3) in lg.edges

    def test_edge_count_matches(self):
        g, l = wreath(5), wreath_natural_labeling(5)
        assert len(label_graph(g, l).edges) == g.edge_count

    def test_magic_at_label_level(self):
        g, l = wreath(6), wreath_natural_labeling(6)
        lg = label_graph(g, l)
        sums: dict[int, int] = {}
        for a, b in lg.edges:
            sums[a] = sums.get(a, 0) + b
            sums[b] = sums.get(b, 0) + a
        assert all(v == 0 for v in sums.values())

    def test_to_graph_round_trip(self):
        g, l = wreath(4), wreath_nondegenerate_labeling(4)
        lg = label_graph(g, l)
        g2, l2 = lg.to_graph()
        assert label_graph(g2, l2) == lg

    def test_to_graph_numbers_by_ascending_label(self):
        # vertex v carries the v-th smallest label, and every pair of one
        # order shares that order's one Labeling
        (g1, l1), (g2, l2) = (LabelGraph(6, e).to_graph() for e in ([(-5, 5)], [(3, -1)]))
        assert l1 is l2 and l1.labels == label_set(6)
        assert (g1.edges(), g2.edges()) == ([(0, 5)], [(2, 4)])

    @pytest.mark.parametrize("text", [
        '{"order": 4.0, "edges": [[-3, 1]]}',
        '{"order": 4, "edges": [[-3, 1.0]]}',
        '{"order": 4, "edges": [["-3", 1]]}',
        '{"order": 4, "edges": [[true, 1]]}',
        '{"order": 4, "edges": [[-3, 1, 3]]}',
    ])
    def test_json_integers_are_strict(self, text):
        with pytest.raises(LabelingError):
            label_graph_from_json(text)

    @pytest.mark.parametrize("n, edges, kind", [
        (4, [(True, 3), (-1, -3)], "bool"),
        (4, [(1.0, 3), (-1, -3)], "float"),
        (4, [(-1, 3), (-3, 1.0)], "float"),
        (5, [(4, -4), (False, 2)], "bool"),
        (True, [], "bool"),
        (4.0, [(1, 3)], "float"),
    ])
    def test_labels_are_exact_ints(self, n, edges, kind):
        # equal to labels of the set, but written as true or 1.0 they would
        # not load back through label_graph_from_json
        with pytest.raises(LabelingError, match=f"got {kind}"):
            LabelGraph(n, edges)
        exact = LabelGraph(int(n), [(int(a), int(b)) for a, b in edges])
        assert label_graph_from_json(label_graph_to_json(exact)) == exact


class TestBipartitionAndLinks:
    def test_even_split(self):
        l = wreath_natural_labeling(4)
        a, b = bipartition(l)
        assert len(a) == len(b) == 4

    def test_odd_split(self):
        l = Labeling([4, -4, 2, -2, 0])
        a, b = bipartition(l)
        assert len(a) == 3 and len(b) == 2
        assert l.vertex_of(0) in a

    def test_natural_positive_side(self):
        a, _ = bipartition(wreath_natural_labeling(3))
        assert a == (0, 1, 2)

    def test_links(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        l = Labeling([3, 1, -1, -3])
        assert not is_link(g, l, (0, 1))  # labels 3, 1
        assert is_link(g, l, (1, 2))      # labels 1, -1
        assert not is_link(g, l, (2, 3))  # labels -1, -3
        assert is_link(g, l, (3, 0))      # labels -3, 3
        with pytest.raises(LabelingError):
            is_link(g, l, (0, 2))

    def test_link_needs_an_edge_in_range(self):
        # vertex -1 must not wrap to vertex 5, a neighbor of 0
        g, l = wreath(3), wreath_natural_labeling(3)
        with pytest.raises(LabelingError):
            is_link(g, l, (-1, 0))

    def test_zero_counts_nonnegative(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (0, 2), (2, 4)])
        l = Labeling([0, -2, 2, -4, 4])
        assert not is_link(g, l, (0, 2))
        assert is_link(g, l, (0, 1))


class TestBalance:
    def test_natural_wreaths_balanced(self):
        for m in range(3, 11):
            assert is_balanced(wreath(m), wreath_natural_labeling(m))

    def test_sided_k44_unbalanced(self):
        g = Graph(8, [(a, 4 + b) for a in range(4) for b in range(4)])
        l = Labeling([1, 3, 5, 7, -1, -3, -5, -7])
        assert not is_balanced(g, l)

    def test_balanced_needs_even_degree(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(LabelingError):
            is_balanced(g, Labeling([-1, 1]))

    def test_balanced_implies_even_order(self):
        for m in (3, 4, 5, 6):
            g, l = wreath(m), wreath_natural_labeling(m)
            if is_balanced(g, l):
                assert g.n % 2 == 0


class TestAlternating:
    def test_w4_quotient_cyclet(self):
        g = wreath(4)
        l = wreath_nondegenerate_labeling(4)
        verts = (l.vertex_of(3), l.vertex_of(7), l.vertex_of(-7), l.vertex_of(-3))
        # independent check: evaluate the link flags directly
        flags = [is_link(g, l, (verts[i], verts[(i + 1) % 4])) for i in range(4)]
        assert flags == [False, True, False, True]
        assert is_alternating(g, l, verts)

    def test_consecutive_links_fail(self):
        # square whose labels alternate sign around the cycle: every edge a link
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        l = Labeling([3, -1, 1, -3])
        assert is_link(g, l, (0, 1)) and is_link(g, l, (1, 2))
        assert not is_alternating(g, l, (0, 1, 2, 3))

    def test_length_two_rejected(self):
        g = wreath(4)
        l = wreath_nondegenerate_labeling(4)
        with pytest.raises(LabelingError):
            is_alternating(g, l, (0, 1))

    def test_odd_length_rejected(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        l = Labeling([-2, 0, 2])
        with pytest.raises(LabelingError):
            is_alternating(g, l, (0, 1, 2))

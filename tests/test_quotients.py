import pytest

from magiclab.families import wreath, wreath_natural_labeling, wreath_nondegenerate_labeling
from magiclab.graphs import are_isomorphic
from magiclab.labelings import are_equivalent, is_distance_magic, is_self_reverse
from magiclab.quotients import (
    DASHED,
    SOLID,
    QuotientError,
    QuotientGraph,
    export_dot,
    lift,
    quotient,
    quotient_from_json,
    quotient_to_json,
)
from magiclab.search import SearchOptions, enumerate_sr

# Quotient of an order-21 instance: central vertex 0 with two solid edges,
# every other vertex balancing its solid neighbors against its dashed ones.
ODD21_EDGES = [
    (0, 2, SOLID), (0, 18, SOLID),
    (2, 8, SOLID), (2, 10, SOLID), (2, 18, DASHED),
    (4, 8, SOLID), (4, 12, DASHED), (4, 16, DASHED), (4, 20, SOLID),
    (6, 10, DASHED), (6, 14, SOLID), (6, 16, SOLID), (6, 20, DASHED),
    (8, 12, SOLID), (8, 18, DASHED),
    (10, 14, DASHED), (10, 18, SOLID),
    (12, 16, SOLID), (12, 20, DASHED),
    (14, 16, DASHED), (14, 20, SOLID),
]


def w4_quotient() -> QuotientGraph:
    return quotient(wreath(4), wreath_nondegenerate_labeling(4))


class TestQuotientConstruction:
    def test_w4_structure(self):
        q = w4_quotient()
        assert q.vertices == (1, 3, 5, 7)
        assert q.semiedges == frozenset({1, 3, 5, 7})
        colors = {(a, b): c for a, b, c in q.edges}
        assert colors == {
            (1, 3): SOLID, (1, 5): SOLID, (3, 7): SOLID, (5, 7): SOLID,
            (1, 7): DASHED, (3, 5): DASHED,
        }

    def test_degenerate_rejected(self):
        with pytest.raises(QuotientError):
            quotient(wreath(3), wreath_natural_labeling(3))

    def test_non_tetravalent_rejected(self):
        from magiclab.graphs import Graph
        from magiclab.labelings import Labeling
        square = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(QuotientError):
            quotient(square, Labeling([1, 3, -1, -3]))

    def test_odd_order_central_vertex(self):
        q = QuotientGraph(21, ODD21_EDGES, semiedges=(), central=True)
        q.validate()
        g, l = lift(q)
        assert g.n == 21 and g.is_regular(4) and g.is_connected()
        assert is_distance_magic(g, l) and is_self_reverse(g, l)
        q2 = quotient(g, l)
        assert q2 == q
        central_edges = [(a, b) for a, b, c in q2.edges if 0 in (a, b)]
        assert sorted(central_edges) == [(0, 2), (0, 18)]

    @pytest.mark.parametrize("args, named", [
        ((8, [], (), "no"), "central flag must be bool, got str"),
        ((8, [(1, 3, 1)]), "edge color must be str, got int"),
        ((8, [(1, 3.0, SOLID)]), "label must be int, got float"),
        ((8, [(1, True, SOLID)]), "label must be int, got bool"),
        ((8, [], ("1",)), "semiedge label must be int, got str"),
        (("8",), "order must be int, got str"),
    ])
    def test_arguments_are_not_coerced(self, args, named):
        with pytest.raises(QuotientError, match=named):
            QuotientGraph(*args)

    # one input per structural invariant that validate checks before degrees
    @pytest.mark.parametrize("args, named", [
        ((8, [], (), True), "central flag must match order parity"),
        ((8, [(1, 9, SOLID)]), r"edge \(1,9\) has a non-vertex endpoint"),
        ((8, [(3, 3, SOLID)]), "loop at quotient vertex 3"),
        ((8, [(1, 3, "dotted")]), "unknown edge color 'dotted'"),
        ((8, [(1, 3, SOLID), (1, 3, DASHED)]), "parallel quotient edges between 1 and 3"),
        ((8, [], (2,)), "semiedge at non-vertex 2"),
        ((9, [], (0,), True), "the central vertex cannot carry a semiedge"),
    ], ids=["parity", "endpoint", "loop", "color", "parallel", "semiedge", "central-semiedge"])
    def test_validate_names_the_broken_invariant(self, args, named):
        with pytest.raises(QuotientError, match=named):
            QuotientGraph(*args).validate()


class TestLift:
    def test_w4_round_trip(self):
        q = w4_quotient()
        g, l = lift(q)
        assert are_isomorphic(g, wreath(4))
        assert quotient(g, l) == q

    def test_unbalanced_rejected(self):
        q = QuotientGraph(
            8,
            [(1, 3, SOLID), (1, 5, SOLID), (3, 7, SOLID), (5, 7, SOLID),
             (1, 7, SOLID), (3, 5, SOLID)],
            semiedges=(1, 3, 5, 7),
            central=False,
        )
        with pytest.raises(QuotientError):
            lift(q)

    def test_wrong_degree_rejected(self):
        q = QuotientGraph(8, [(1, 3, SOLID)], semiedges=(1, 3), central=False)
        with pytest.raises(QuotientError):
            lift(q)

    def test_central_must_be_solid(self):
        q = QuotientGraph(21, [(0, 2, DASHED)] + ODD21_EDGES[1:], semiedges=(), central=True)
        with pytest.raises(QuotientError):
            lift(q)

    def test_round_trip_over_enumeration(self):
        for n in (8, 16, 18):
            pairs, _ = enumerate_sr(n, SearchOptions(require_nondegenerate=True))
            for g, l in pairs:
                g2, l2 = lift(quotient(g, l))
                assert are_isomorphic(g, g2)
                assert are_equivalent(g, l, g2, l2)

    def test_lift_may_be_disconnected(self):
        # two disjoint order-8 quotient blocks, the second shifted by 8:
        # every invariant holds, yet the cover falls apart
        block = [
            (1, 3, SOLID), (1, 5, SOLID), (3, 7, SOLID), (5, 7, SOLID),
            (1, 7, DASHED), (3, 5, DASHED),
        ]
        shifted = [(a + 8, b + 8, c) for a, b, c in block]
        q = QuotientGraph(16, block + shifted,
                          semiedges=(1, 3, 5, 7, 9, 11, 13, 15), central=False)
        q.validate()
        g, l = lift(q)
        assert not g.is_connected()
        assert is_distance_magic(g, l) and is_self_reverse(g, l)


class TestJson:
    def test_round_trip(self):
        q = w4_quotient()
        assert quotient_from_json(quotient_to_json(q)) == q

    def test_fields(self):
        import json
        data = json.loads(quotient_to_json(w4_quotient()))
        assert data["n"] == 8
        assert data["vertices"] == [1, 3, 5, 7]
        assert data["central"] is False
        assert ["1", "3"] not in data["edges"]  # labels stay integers

    @pytest.mark.parametrize("text", [
        '{"n": 8.0, "edges": []}',
        '{"n": "8", "edges": []}',
        '{"n": 8, "edges": [[1, 3.0, "solid"]]}',
        '{"n": 8, "edges": [[1, false, "solid"]]}',
        '{"n": 8, "edges": [[0, "a"]]}',
        '{"n": 8, "edges": [[1, 3, "solid", 5]]}',
        '{"n": 8, "edges": [], "semiedges": [1.5]}',
    ])
    def test_json_integers_are_strict(self, text):
        with pytest.raises(QuotientError):
            quotient_from_json(text)

    def test_central_and_colors_are_strict(self):
        import json
        data = json.loads(quotient_to_json(QuotientGraph(21, ODD21_EDGES, central=True)))
        assert quotient_from_json(json.dumps(data)).central is True
        for central in ("no", 0, 1, None):
            with pytest.raises(QuotientError, match="central"):
                quotient_from_json(json.dumps({**data, "central": central}))
        with pytest.raises(QuotientError, match="color"):
            quotient_from_json('{"n": 8, "edges": [[1, 3, 1]]}')


class TestDot:
    def test_w4_shape(self):
        dot = export_dot(w4_quotient())
        assert dot.count("_se_") == 8  # 4 anchor declarations + 4 anchor edges
        assert dot.count("[style=solid]") == 4
        assert dot.count("[style=dashed]") == 6  # 2 dashed edges + 4 semiedges

    def test_no_semiedges_no_anchors(self):
        q = QuotientGraph(
            8,
            [(1, 3, SOLID), (3, 5, SOLID), (5, 7, SOLID), (1, 7, SOLID),
             (1, 5, DASHED), (3, 7, DASHED)],
            semiedges=(1, 3, 5, 7),
            central=False,
        )
        # strip semiedges: structurally invalid, but export is total
        bare = QuotientGraph(8, q.edges, semiedges=(), central=False)
        assert "_se_" not in export_dot(bare)

    def test_deterministic(self):
        q = w4_quotient()
        assert export_dot(q) == export_dot(w4_quotient())

    def test_central_double_circle(self):
        q = QuotientGraph(21, ODD21_EDGES, semiedges=(), central=True)
        assert '"0" [shape=doublecircle];' in export_dot(q)

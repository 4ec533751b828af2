import copy
import hashlib
import pickle
import random
import time
from functools import lru_cache
from itertools import combinations, islice, permutations
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magiclab.graphs as graphs
from magiclab.graphs import (
    Graph,
    GraphError,
    apply_permutation,
    are_isomorphic,
    automorphism_group,
    canonical_code,
    connected_components,
    graph_from_json,
    graph_to_json,
    group_order,
    induced_subgraph,
    is_edge_transitive,
    is_vertex_transitive,
    new_graph,
    vertex_orbit_representatives,
    _canonical_data,
)
from magiclab.families import cartesian_cycles, circulant, direct_cycles, wreath
from magiclab.labelings import LabelGraph, Labeling
from magiclab.quotients import SOLID, QuotientGraph, lift
from magiclab.search import _QuotientSearch, enumerate_dm


def k44() -> Graph:
    return Graph(8, [(a, 4 + b) for a in range(4) for b in range(4)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def praeger_xu(r: int) -> Graph:
    """The Praeger-Xu graph C(2, r, 2): vertex 4i + x stands for (i, x), i mod
    r and x mod 4, and (i, x) ~ (i + 1, (2x + y) mod 4) for y in {0, 1}.
    Tetravalent, twin-free, |Aut| = 2^r * 2r for r >= 5."""
    return Graph(4 * r, [
        (4 * i + x, 4 * ((i + 1) % r) + (2 * x + y) % 4)
        for i in range(r) for x in range(4) for y in (0, 1)
    ])


def renumbered(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return apply_permutation(g, perm)


# one small instance of each value type, and the names its guard must hold:
# every slot, a method name and a name the class does not have
VALUES = {
    "Graph": (lambda: wreath(3), ["n", "neighbors", "_hash", "edges", "extra"]),
    "Labeling": (lambda: Labeling([3, -1, 1, -3]), ["n", "labels", "partners", "_pos", "extra"]),
    "LabelGraph": (lambda: LabelGraph(4, [(3, -1), (1, -3)]), ["n", "edges", "_key", "extra"]),
    "QuotientGraph": (
        lambda: QuotientGraph(8, [(1, 3, SOLID)], (5,)),
        ["n", "edges", "semiedges", "central", "_key", "extra"],
    ),
}


class RefineBudget:
    """Counts graphs._refine calls and raises past the bound, so a search
    that does not prune fails fast instead of running to the end."""

    def __init__(self, monkeypatch):
        self.calls, self.bound = 0, 0
        refine = graphs._refine

        def counted(*args):
            self.calls += 1
            if self.calls > self.bound:
                raise AssertionError(f"more than {self.bound} refinements")
            return refine(*args)

        monkeypatch.setattr(graphs, "_refine", counted)

    def start(self, bound: int):
        self.calls, self.bound = 0, bound


class TestConstruction:
    def test_triangle(self):
        g = new_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert all(g.degree(v) == 2 for v in range(3))

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            new_graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            new_graph(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        g = new_graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_wreath4_is_k44(self):
        assert are_isomorphic(wreath(4), k44())

    def test_equal_edges_equal_graphs(self):
        # labeled value semantics: the same edge set, in any order and with
        # duplicates, is one value, hash and dict key
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        h = Graph(4, [(3, 2), (0, 1), (2, 1), (1, 0)])
        assert g == h and hash(g) == hash(h)
        assert len({g: 1, h: 2}) == 1

    def test_unequal_graphs(self):
        assert Graph(2, []) != Graph(3, [])
        g, h = Graph(4, [(0, 1), (2, 3)]), Graph(4, [(0, 2), (1, 3)])
        assert (g.n, g.edge_count) == (h.n, h.edge_count) and g != h

    def test_edges_sorted_and_normalised(self):
        raw = [(3, 1), (0, 2), (2, 0), (1, 0), (3, 2), (1, 3)]
        g = Graph(4, raw)
        assert g.edges() == sorted({(min(e), max(e)) for e in raw})

    def test_json_round_trip(self):
        g = wreath(5)
        assert graph_from_json(graph_to_json(g)) == g
        edges = graph_to_json(g)
        assert edges.index("[0, 1]") < edges.index("[0, 4]") < edges.index("[1, 2]")

    @pytest.mark.parametrize("text", [
        '{"order": 3.9, "edges": []}',
        '{"order": "3", "edges": []}',
        '{"order": true, "edges": []}',
        '{"order": 3, "edges": [[0, 1.0]]}',
        '{"order": 3, "edges": [[0, false]]}',
        '{"order": 3, "edges": [[0, 1, 2]]}',
        '{"order": 3, "edges": [[0]]}',
        '{"order": 3, "edges": ["01"]}',
    ])
    def test_json_integers_are_strict(self, text):
        with pytest.raises(GraphError):
            graph_from_json(text)

    @pytest.mark.parametrize(
        "kind, name", [(kind, name) for kind, (_, names) in VALUES.items() for name in names]
    )
    def test_immutable_after_construction(self, kind, name):
        # deleting the last slot reopened every copy of the guard for
        # assignment: `del g._hash; g.n = 99` changed a Graph
        make = VALUES[kind][0]
        value = make()
        for _ in range(2):
            with pytest.raises(AttributeError, match=f"{kind} is immutable"):
                setattr(value, name, ())
            with pytest.raises(AttributeError, match=f"{kind} is immutable"):
                delattr(value, name)
        fresh = make()
        assert value == fresh and hash(value) == hash(fresh)
        assert all(getattr(value, slot) == getattr(fresh, slot) for slot in type(value).__slots__)

    @pytest.mark.parametrize("kind", sorted(VALUES))
    def test_copies_and_pickles_stay_frozen(self, kind):
        value = VALUES[kind][0]()
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value) and type(twin) is type(value)
            with pytest.raises(AttributeError, match="immutable"):
                twin.n = 99

    @pytest.mark.parametrize("v", [-1, 6])
    def test_vertex_queries_out_of_range(self, v):
        # -1 read vertex 5's neighbors (degree 4, a component holding -1)
        # and 6 raised IndexError
        g = wreath(3)
        with pytest.raises(GraphError):
            g.degree(v)
        with pytest.raises(GraphError):
            g.component_of(v)
        assert g.degree(5) == 4 and g.component_of(5) == list(range(6))


class TestBasicQueries:
    def test_regularity(self):
        assert wreath(5).is_regular(4)
        assert cycle(3).is_regular(2)
        assert not path(3).is_regular(2)

    def test_connectivity(self):
        assert wreath(4).is_connected()
        two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not two_triangles.is_connected()
        assert not direct_cycles(4, 4).is_connected()

    def test_connectivity_counts_one_component(self):
        # is_connected counts the reached vertices; connected_components
        # lists them, and the two must agree
        w3 = wreath(3)
        two_wreaths = Graph(12, w3.edges() + [(u + 6, v + 6) for u, v in w3.edges()])
        cases = [Graph(1, []), Graph(2, []), two_wreaths]
        cases += [g for g, _ in enumerate_dm(12)[0]]
        lifts = [lift(q)[0] for q in _QuotientSearch(16).run()]
        assert len(lifts) == 66
        assert sum(not g.is_connected() for g in lifts) == 18
        for g in cases + lifts:
            assert g.is_connected() == (len(connected_components(g)) == 1)
        assert Graph(1, []).is_connected() and not two_wreaths.is_connected()
        # the one exception: the empty graph is vacuously connected, with
        # no component
        assert Graph(0, []).is_connected() and connected_components(Graph(0, [])) == []

    def test_components(self):
        comps = connected_components(direct_cycles(4, 4))
        assert len(comps) == 2
        sub = induced_subgraph(direct_cycles(4, 4), comps[0])
        assert sub.is_connected() and sub.is_regular(4)

    @pytest.mark.parametrize("vertices", [[0, 0, 1], [-1, 0], [0, 6]])
    def test_induced_subgraph_checks_vertices(self, vertices):
        # a repeated vertex gave a spurious isolated vertex, and -1 read
        # vertex 5's neighbors
        with pytest.raises(GraphError):
            induced_subgraph(wreath(3), vertices)

    def test_has_edge_out_of_range(self):
        g = wreath(3)
        assert g.has_edge(5, 0)
        assert not g.has_edge(-1, 0) and not g.has_edge(0, 6) and not g.has_edge(6, 0)


class TestCanonicalForm:
    def test_invariant_under_permutation(self):
        rng = random.Random(7)
        for g in (wreath(4), wreath(6), cycle(9), circulant(10, [1, 3, -1, -3])):
            code = canonical_code(g)
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_code(apply_permutation(g, perm)) == code

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_graphs_invariant(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        possible = list(combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(possible), max_size=len(possible))) if possible else []
        g = Graph(n, edges)
        perm = data.draw(st.permutations(list(range(n))))
        assert canonical_code(apply_permutation(g, perm)) == canonical_code(g)

    def test_distinguishes_c6_from_two_triangles(self):
        two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert canonical_code(cycle(6)) != canonical_code(two_triangles)

    def test_agrees_with_brute_force(self):
        # canonical-code equality must match exhaustive permutation search
        rng = random.Random(11)
        for _ in range(24):
            n = rng.randint(1, 7)
            pool = list(combinations(range(n), 2))
            g = Graph(n, [e for e in pool if rng.random() < 0.45])
            h = Graph(n, [e for e in pool if rng.random() < 0.45])
            brute = any(
                all(
                    g.has_edge(u, v) == h.has_edge(p[u], p[v])
                    for u, v in combinations(range(n), 2)
                )
                for p in permutations(range(n))
            )
            assert are_isomorphic(g, h) == brute
            assert brute == (canonical_code(g) == canonical_code(h))

    def test_wreath_large_orders(self):
        # twin reduction keeps wreath canonicalization cheap at high order
        assert are_isomorphic(wreath(30), wreath(30))
        assert not are_isomorphic(wreath(30), circulant(60, [1, 7, -1, -7]))

    def test_order_limit(self):
        with pytest.raises(GraphError):
            canonical_code(Graph(65, []))

    def test_orbit_pruning_bounds_refinements(self, monkeypatch):
        # the full refinement tree has 25 nodes for wreath(8) and 127 for C3 x C6
        calls = []
        refine = graphs._refine
        monkeypatch.setattr(graphs, "_refine", lambda *args: calls.append(1) or refine(*args))
        for seed in range(20):
            perm = list(range(16))
            random.Random(seed).shuffle(perm)
            calls.clear()
            _canonical_data.__wrapped__(apply_permutation(wreath(8), perm))
            assert len(calls) <= 12
        calls.clear()
        _canonical_data.__wrapped__(cartesian_cycles(3, 6))
        assert len(calls) <= 63

    def test_cache_is_bounded(self):
        # a spider with legs 1, 2, 3 has no nontrivial automorphism, so every
        # renumbering is a distinct graph value and a distinct cache key;
        # canonical_code takes their code from the certificate memo, so the
        # group queries are what fill the cache
        spider = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        graphs = {apply_permutation(spider, p) for p in islice(permutations(range(7)), 4200)}
        assert len(graphs) == 4200
        assert {group_order(g) for g in graphs} == {1}
        assert len({canonical_code(g) for g in graphs}) == 1
        assert _canonical_data.cache_info().currsize <= 4096


class TestPruningAtEveryLevel:
    """Orbit pruning below the root: graphs whose vertex stabilizers are
    large, with no twins to reduce, cost few refinements."""

    def test_praeger_xu_group_orders(self, monkeypatch):
        budget = RefineBudget(monkeypatch)
        for r in range(4, 17):
            budget.start(3_000)
            order = group_order(renumbered(praeger_xu(r), r))
            assert order == (384 if r == 4 else 2**r * 2 * r)

    def test_praeger_xu_16(self, monkeypatch):
        budget = RefineBudget(monkeypatch)
        g = renumbered(praeger_xu(16), 0)
        assert g.is_regular(4) and g.is_connected()
        budget.start(3_000)
        _canonical_data.__wrapped__(g)
        start = time.process_time()
        h = renumbered(praeger_xu(16), 1)
        assert is_vertex_transitive(h) and is_edge_transitive(h)
        assert time.process_time() - start < 1.0
        assert canonical_code(h) == canonical_code(g)

    def test_complete_graph(self, monkeypatch):
        budget = RefineBudget(monkeypatch)
        k12 = Graph(12, combinations(range(12), 2))
        budget.start(200)
        code = _canonical_data.__wrapped__(k12)[0]
        # no twins; every row is adjacent to all positions but its own
        rows = [(1 << 12) - 1 - (1 << (11 - i)) for i in range(12)]
        assert code == bytes([12, 12] + [1] * 12) + b"".join(r.to_bytes(2, "big") for r in rows)
        assert group_order(k12) == factorial(12)
        k8 = Graph(8, combinations(range(8), 2))
        assert group_order(k8) == factorial(8) == len(automorphism_group(k8))


class TestCanonicalFormAgainstNetworkx:
    """canonical_code against an independent isomorphism test, on every
    enumerated graph of orders 12 and 14 and every non-degenerate
    self-reverse class of orders 16..21."""

    @staticmethod
    def enumerated_graphs():
        from magiclab.search import SearchOptions, enumerate_dm, iter_sr_pairs

        graphs = []
        for n in (12, 14):
            pairs, _ = enumerate_dm(n, SearchOptions(require_self_reverse=False))
            graphs += [g for g, _ in pairs]
        for n in range(16, 22):
            graphs += [g for g, _ in iter_sr_pairs(n, SearchOptions(require_nondegenerate=True))]
        return graphs

    def test_codes_match_isomorphism(self):
        nx = pytest.importorskip("networkx")

        def to_nx(g):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            return h

        rng = random.Random(5)
        reps: dict[bytes, Graph] = {}
        for g in self.enumerated_graphs():
            code = canonical_code(g)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_code(apply_permutation(g, perm)) == code
            rep = reps.setdefault(code, g)
            assert nx.is_isomorphic(to_nx(rep), to_nx(g))
        assert len(reps) == 2 + 2 + 1 + 2 + 2 + 7
        for a, b in combinations(reps.values(), 2):
            if a.n == b.n:
                assert not nx.is_isomorphic(to_nx(a), to_nx(b))


class TestAutomorphisms:
    def test_c5_has_10(self):
        assert len(automorphism_group(cycle(5))) == 10

    def test_k44_brute_force_count(self):
        # independent oracle: filter all 8! permutations by adjacency
        g = k44()
        count = 0
        for p in permutations(range(8)):
            if all(g.has_edge(p[u], p[v]) for u, v in g.edges()):
                count += 1
        assert count == 1152
        assert len(automorphism_group(g)) == 1152

    def test_single_edge_has_2(self):
        assert len(automorphism_group(Graph(2, [(0, 1)]))) == 2

    def test_group_closure(self):
        for g in (cycle(5), wreath(3), path(4)):
            group = set(automorphism_group(g))
            assert tuple(range(g.n)) in group
            assert _divides(len(group), g.n)
            for p in list(group)[:20]:
                inv = [0] * g.n
                for v in range(g.n):
                    inv[p[v]] = v
                assert tuple(inv) in group
            sample = sorted(group)[:12]
            for p in sample:
                for q in sample:
                    assert tuple(p[q[v]] for v in range(g.n)) in group

    def test_listing_limit_counts_vertex_images(self):
        # order 40 but a group of 160: the limit counts the listing, not the order
        g = circulant(40, [1, 9, -1, -9])
        group = automorphism_group(g)
        assert len(group) == len(set(group)) == group_order(g) == 160
        assert all(g.has_edge(p[u], p[v]) for p in group for u, v in g.edges())
        # 32 vertices times 2^21 automorphisms is over the limit
        with pytest.raises(GraphError, match="too large to list"):
            automorphism_group(wreath(16))

    def test_all_elements_preserve_adjacency(self):
        g = wreath(4)
        for p in automorphism_group(g):
            assert all(g.has_edge(p[u], p[v]) for u, v in g.edges())


# legs of lengths 1, 2 and 3: the smallest asymmetric tree, whose root
# partition is already discrete
SPIDER = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])


@st.composite
def small_graphs(draw):
    kind = draw(st.sampled_from(["random", "edgeless", "twins", "asymmetric"]))
    if kind == "asymmetric":
        return apply_permutation(SPIDER, draw(st.permutations(range(7))))
    n = draw(st.integers(min_value=0, max_value=7))
    if kind == "edgeless":
        return Graph(n, [])
    if kind == "twins" and n >= 2:
        # vertex v copies the neighbourhood of v % k, so every class has open twins
        k = draw(st.integers(min_value=1, max_value=n - 1))
        base = set(draw(st.lists(st.sampled_from(list(combinations(range(k), 2)))))) if k > 1 else set()
        return Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                         if (u % k, v % k) in base or (v % k, u % k) in base])
    pairs = list(combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs))) if pairs else [])


class TestAutomorphismsAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(g=SPIDER, seed=0)
    @example(g=Graph(0, []), seed=0)
    @example(g=Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4)]), seed=1)
    @example(g=Graph(6, [(a, b) for a in range(3) for b in range(3, 6)]), seed=2)
    def test_group_and_code(self, g, seed):
        brute = sorted(
            p for p in permutations(range(g.n))
            if all(g.has_edge(p[u], p[v]) for u, v in g.edges())
        )
        assert automorphism_group(g) == brute
        assert group_order(g) == len(brute)
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        assert canonical_code(apply_permutation(g, perm)) == canonical_code(g)


class TestPinnedOutputs:
    """Canonical codes and group queries, pinned by digests computed before
    the search was orbit-pruned."""

    @staticmethod
    def family_graphs():
        fam = [wreath(k) for k in range(3, 13)] + [
            circulant(24, [1, 5, -1, -5]),
            circulant(30, [1, 4, -1, -4]),
            cartesian_cycles(3, 5),
            cartesian_cycles(3, 6),
            cartesian_cycles(4, 4),
        ]
        rng = random.Random(3)
        renumbered = []
        for g in fam:
            perm = list(range(g.n))
            rng.shuffle(perm)
            renumbered.append(apply_permutation(g, perm))
        return fam + renumbered

    def test_codes_digest(self):
        from magiclab.search import SearchOptions, enumerate_dm, enumerate_sr

        dm, _ = enumerate_dm(12, SearchOptions(require_self_reverse=False))
        sr, _ = enumerate_sr(14, SearchOptions())
        h = hashlib.sha256()
        for g in [g for g, _ in dm] + [g for g, _ in sr] + self.family_graphs():
            h.update(canonical_code(g))
        assert h.hexdigest() == "be674126e841673a73a4e707c1e13309b4980f90147b260f618a620862941090"

    def test_groups_digest(self):
        h = hashlib.sha256()
        for g in self.family_graphs():
            facts = [group_order(g), vertex_orbit_representatives(g)]
            if g.n <= 32:
                facts += [is_vertex_transitive(g), is_edge_transitive(g)]
            if facts[0] <= 200_000:
                facts.append(automorphism_group(g))
            h.update(repr(facts).encode())
        assert h.hexdigest() == "f3a1ff504fce9f8823022d4974bdc56b553c814a9d69d73fa14e38465947b8d3"


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty certificate memo and canonical-data cache for one test; the
    list returned gets an entry for each full canonical-form search."""
    monkeypatch.setattr(graphs, "_certificates", {})
    monkeypatch.setattr(
        graphs, "_canonical_data", lru_cache(maxsize=4096)(_canonical_data.__wrapped__)
    )
    searches = []
    ir_search = graphs._ir_search
    monkeypatch.setattr(graphs, "_ir_search", lambda *args: searches.append(1) or ir_search(*args))
    return searches


class TestCertificateMemo:
    """canonical_code takes the code of an isomorphic graph searched before
    from the certificate of its first leaf, and falls back to the search."""

    @staticmethod
    def pinned_graphs():
        from magiclab.search import SearchOptions, enumerate_dm, enumerate_sr

        dm, _ = enumerate_dm(12, SearchOptions(require_self_reverse=False))
        sr, _ = enumerate_sr(14, SearchOptions())
        return [g for g, _ in dm] + [g for g, _ in sr] + TestPinnedOutputs.family_graphs()

    def test_cold_and_warm_codes_agree(self, cold_memo):
        def clear():
            graphs._certificates.clear()
            graphs._canonical_data.cache_clear()
            cold_memo.clear()

        pinned = self.pinned_graphs()
        cold = []
        for g in pinned:
            clear()
            cold.append(canonical_code(g))
        order = list(range(len(pinned)))
        random.Random(13).shuffle(order)
        clear()
        for i in order:
            assert canonical_code(pinned[i]) == cold[i]
        # each isomorphism class is searched once, by its first graph
        assert len(cold_memo) == len(set(cold))

    @settings(max_examples=100, deadline=None)
    @given(g=small_graphs(), h=small_graphs(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    # K_{1,3} and C_4 both reduce to an edge, with twin classes of sizes 1, 3 and 2, 2
    @example(g=Graph(4, [(0, 1), (0, 2), (0, 3)]), h=cycle(4), seed=0)
    def test_warm_code_is_the_searched_code(self, g, h, seed):
        searches = []
        ir_search = graphs._ir_search
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_ir_search", lambda *args: searches.append(1) or ir_search(*args))
            code = _canonical_data.__wrapped__(g)[0]
            searches.clear()
            assert canonical_code(renumbered(g, seed)) == code
            assert searches == []
            assert canonical_code(h) == _canonical_data.__wrapped__(h)[0]

    def test_memo_is_bounded(self, cold_memo, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_CERTIFICATES", 8)
        sizes = []
        for g in [path(n) for n in range(1, 25)] + [cycle(n) for n in range(3, 25)]:
            assert canonical_code(g) == _canonical_data.__wrapped__(g)[0]
            sizes.append(len(graphs._certificates))
        assert 0 < max(sizes) <= 8


@pytest.fixture
def empty_table(monkeypatch):
    """An empty neighborhood table for one test."""
    monkeypatch.setattr(graphs, "_neighborhoods", {})
    return graphs._neighborhoods


def unshared_neighbors(n, edges):
    """The neighbor tuples built without the table, as the reference."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(tuple(sorted(s)) for s in nbrs)


class TestSharedNeighborhoods:
    """Every graph takes its neighbor tuples from one bounded table, so equal
    neighborhoods are one tuple object of exact ints."""

    def test_enumeration_holds_one_tuple_per_neighborhood(self, empty_table):
        from magiclab.search import enumerate_sr

        pairs, _ = enumerate_sr(16)
        tuples = [t for g, _ in pairs for t in g.neighbors]
        assert (len(pairs), len(tuples)) == (2568, 2568 * 16)
        assert len({id(t) for t in tuples}) == len(set(tuples)) == 52

    def test_equal_neighborhoods_are_one_object(self, empty_table):
        g = Graph(4, [(0, 1), (0, 2), (3, 1), (3, 2)])
        h = Graph(6, [(5, 1), (5, 2), (4, 3)])
        assert g.neighbors[0] == h.neighbors[5] == (1, 2)
        assert g.neighbors[0] is g.neighbors[3] is h.neighbors[5]
        w, v = wreath(7), Graph(14, wreath(7).edges())
        assert all(a is b for a, b in zip(w.neighbors, v.neighbors))

    @pytest.mark.parametrize("warm", [False, True])
    def test_bool_vertex_ids_are_stored_as_ints(self, empty_table, warm):
        # a table holding (0, 1) must not change what a bool-built graph
        # stores, and a bool-built graph must not leak True to later graphs
        if warm:
            Graph(3, [(1, 2), (0, 2)])
        g = Graph(3, [(True, 2), (0, 2)])
        h = Graph(3, [(1, 2), (0, 2)])
        for graph in (g, h):
            assert graph.neighbors == ((2,), (2,), (0, 1))
            assert all(type(x) is int for nb in graph.neighbors for x in nb)
        assert g == h and hash(g) == hash(h) and g.edges() == [(0, 2), (1, 2)]

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("edges", [
        [(0.0, 1)], [(0, 1.0)], [(0, "1")], [(None, 1)], [(0, 1), 2],
    ])
    def test_non_int_vertex_ids_raise_graph_error(self, empty_table, warm, edges):
        if warm:
            Graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(GraphError):
            Graph(3, edges)

    @pytest.mark.parametrize("n", [True, 3.0, "3", None])
    def test_order_is_an_exact_int(self, n):
        # Graph(True, []) wrote "order": true, which graph_from_json refuses,
        # and Graph(3.0, []) raised a bare TypeError
        with pytest.raises(GraphError):
            Graph(n, [])

    def test_table_is_bounded(self, empty_table, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_NEIGHBORHOODS", 8)
        sizes = []
        for n in range(3, 25):
            for g, edges in ((cycle(n), cycle(n).edges()), (path(n), path(n).edges())):
                assert g.neighbors == unshared_neighbors(n, edges)
                sizes.append(len(graphs._neighborhoods))
        assert 0 < max(sizes) <= 8

    def test_equality_hash_and_edges_unchanged(self, empty_table):
        from magiclab.search import enumerate_sr

        graphs_ = [g for g, _ in enumerate_sr(14)[0]] + TestPinnedOutputs.family_graphs()
        for g in graphs_:
            edges = g.edges()
            ref = unshared_neighbors(g.n, edges)
            assert g.neighbors == ref and hash(g) == hash(ref)
            empty_table.clear()
            h = Graph(g.n, reversed(edges))
            assert h == g and hash(h) == hash(g) and h.edges() == edges


def _divides(group_size: int, n: int) -> bool:
    import math
    return math.factorial(n) % group_size == 0


class TestTransitivity:
    def test_wreath6_vertex_transitive(self):
        assert is_vertex_transitive(wreath(6))

    def test_path_not_vertex_transitive(self):
        assert not is_vertex_transitive(path(3))

    def test_cartesian_c3_c6_vertex_transitive(self):
        assert is_vertex_transitive(cartesian_cycles(3, 6))

    def test_vt_implies_regular(self):
        for g in (wreath(5), cycle(7), circulant(12, [2, 5, -2, -5])):
            if is_vertex_transitive(g):
                assert g.is_regular(g.degree(0))

    def test_circulant24_edge_transitive(self):
        assert is_edge_transitive(circulant(24, [1, 5, -1, -5]))

    def test_cartesian_not_edge_transitive(self):
        assert not is_edge_transitive(cartesian_cycles(3, 6))

    def test_k4_edge_transitive(self):
        assert is_edge_transitive(Graph(4, list(combinations(range(4), 2))))

    def test_direct_product_components_vertex_transitive(self):
        g = direct_cycles(8, 8)
        for comp in connected_components(g):
            assert is_vertex_transitive(induced_subgraph(g, comp))

    def test_transitivity_above_group_listing_limit(self):
        assert is_vertex_transitive(wreath(20))
        assert is_edge_transitive(circulant(48, [1, 7, -1, -7]))
        assert is_vertex_transitive(cartesian_cycles(5, 8))
        assert not is_edge_transitive(cartesian_cycles(5, 8))

    def test_transitivity_order_limit(self):
        with pytest.raises(GraphError):
            is_vertex_transitive(Graph(65, []))
        with pytest.raises(GraphError):
            is_edge_transitive(Graph(65, []))

"""Simple undirected graphs on dense 0-based vertex indices.

Provides the structural queries the rest of the package is built on:
regularity, connectivity, canonical forms, isomorphism and automorphism
groups for small orders.  Canonical forms use individualization-refinement
on a twin-reduced copy of the graph: vertices with identical open
neighborhoods are collapsed into a single colored vertex first, which is
exact for isomorphism and keeps twin-rich graphs (the wreath family)
tractable.  The refinement search is orbit-pruned at every level (McKay &
Piperno, Practical graph isomorphism II, 2014): leaves with equal encodings
give automorphisms, and a branch in the orbit of an explored sibling under
automorphisms fixing the path above is skipped, as it roots an image of that
subtree.  The search's first path is a base of the reduced automorphism
group, with one transversal per level, from which group orders, generators
and full listings are derived.

canonical_code searches each isomorphism class in full once.  A full search
records, for every leaf it meets, a certificate (the code's byte format
computed from that leaf's order) mapped to the code.  A later graph whose
first-path leaf has a known certificate is isomorphic to the graph searched
and takes its code; every leaf of the full tree is an automorphic image of
a leaf met, so isomorphic copies always hit.  The memo keeps at most
MAX_CERTIFICATES entries and is emptied when full.

Graph hands out one shared tuple object for each distinct neighborhood: the
tuples come from a table of at most MAX_NEIGHBORHOODS entries, emptied when
full, so the many graphs of an enumeration hold a few hundred neighbor
tuples between them instead of one per vertex.  Every tuple the table holds
is made of exact ints, so sharing never hands a bool or another int-like
value from one graph to the next.

Two rules every value type of the package shares live here.  exact is the
one type check: an order, a label, a count, a colour or a flag must have
exactly the documented type, so a bool is no int and an int no float, and
the check raises the caller's own error class naming the type it got.
Frozen is the one immutability guard: Graph, Labeling, LabelGraph and
QuotientGraph derive from it, and once a constructor has set the class's
last slot, assignment and deletion raise AttributeError.

All values are immutable; module-level caches (the certificate memo, the
neighborhood table and the lru_cache of canonical data) are semantically
transparent and bounded.  Threads may share them: every entry is correct,
so a race can at worst lose one.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import factorial, prod
from typing import Iterable, Sequence

MAX_CANONICAL_ORDER = 64
MAX_LISTING_SIZE = 64_000_000  # vertex images in one group listing, n * |Aut|
MAX_CERTIFICATES = 1 << 16  # leaf certificates kept; the memo is cleared when full
MAX_NEIGHBORHOODS = 1 << 16  # shared neighbor tuples kept; the table is cleared when full

# leaf certificate -> canonical code, filled by every full search
_certificates: dict[bytes, bytes] = {}
# neighbor tuple -> the equal tuple of exact ints that every graph shares
_neighborhoods: dict[tuple[int, ...], tuple[int, ...]] = {}


class GraphError(ValueError):
    """Invalid graph construction or an operation outside documented limits."""


def exact(x, what: str, error: type[Exception], kind: type = int):
    """x itself if its type is exactly kind; error naming the type otherwise."""
    if type(x) is not kind:
        raise error(f"{what} must be {kind.__name__}, got {type(x).__name__} {x!r}")
    return x


class Frozen:
    """Base of the immutable value types.  Constructors set each slot with
    object.__setattr__, the class's last slot last; from then on assignment
    and deletion raise AttributeError.  copy and pickle restore the slots
    in that order, so they work too."""

    __slots__ = ()

    def __setattr__(self, name, value):
        self._refuse_if_frozen()
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        self._refuse_if_frozen()
        object.__delattr__(self, name)

    def _refuse_if_frozen(self):
        if hasattr(self, self.__slots__[-1]):
            raise AttributeError(f"{type(self).__name__} is immutable")


class Graph(Frozen):
    """Finite simple undirected graph.

    Vertices are 0..n-1; adjacency is held once, as sorted, duplicate-free
    neighbor tuples of exact ints that every query reads.  Equal neighbor
    tuples are one object, shared with every other graph that has that
    neighborhood (see _shared).  Instances are immutable and hashable;
    equality and hash use the neighbor tuples (labeled equality).  A vertex
    id may be any value that indexes a list, such as a bool; it is stored as
    the equal int.
    """

    __slots__ = ("n", "neighbors", "_hash")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        # a bool order would reach the JSON output as true
        if exact(n, "order", GraphError) < 0:
            raise GraphError(f"order must be nonnegative, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        try:
            for e in edges:
                u, v = e
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge ({u},{v}) has an endpoint outside 0..{n-1}")
                if u == v:
                    raise GraphError(f"loop edge at vertex {u}")
                nbrs[u].add(v)
                nbrs[v].add(u)
        except TypeError as exc:
            # a float, str or None vertex fails the range test or the list index
            raise GraphError(f"edges must be pairs of int vertex ids: {exc}") from exc
        get = _neighborhoods.get
        neighbors = tuple([get(t) or _shared(t) for t in map(tuple, map(sorted, nbrs))])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "neighbors", neighbors)
        object.__setattr__(self, "_hash", hash(neighbors))

    # -- basic queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} outside 0..{self.n - 1}")
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        # the range guard keeps a negative u from indexing from the end
        return 0 <= u < self.n and v in self.neighbors[u]

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as (u, v) with u < v, sorted lexicographically."""
        return [(u, v) for u, nb in enumerate(self.neighbors) for v in nb if u < v]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.neighbors)) // 2

    def is_regular(self, k: int) -> bool:
        return all(len(nb) == k for nb in self.neighbors)

    def is_connected(self) -> bool:
        """True iff the graph has a single connected component.

        The empty graph is vacuously connected.
        """
        return self.n == 0 or len(self._reach(0)) == self.n

    def component_of(self, v: int) -> list[int]:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} outside 0..{self.n - 1}")
        return sorted(self._reach(v))

    def _reach(self, v: int) -> set[int]:
        """The vertices reachable from v, which must lie in 0..n-1."""
        nbrs = self.neighbors
        seen = {v}
        stack = [v]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.neighbors == other.neighbors

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _shared(t: tuple) -> tuple[int, ...]:
    """The table's tuple equal to t, stored as exact ints on first sight.

    Every stored tuple is normalised with int(), so a graph built from bools
    gets the same neighbor tuples whether or not the table already holds
    them.  The table keeps at most MAX_NEIGHBORHOODS entries and is emptied
    when full; graphs keep the tuples they were given.
    """
    t = tuple(map(int, t))
    if len(_neighborhoods) >= MAX_NEIGHBORHOODS:
        _neighborhoods.clear()
    return _neighborhoods.setdefault(t, t)


def new_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a graph, collapsing duplicate edges; loops and bad indices raise."""
    return Graph(n, edges)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    seen: set[int] = set()
    comps = []
    for v in range(g.n):
        if v not in seen:
            comp = g.component_of(v)
            seen.update(comp)
            comps.append(comp)
    return comps


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on `vertices`, reindexed by their sorted order."""
    vs = sorted(vertices)
    if len(set(vs)) != len(vs) or (vs and not 0 <= vs[0] <= vs[-1] < g.n):
        raise GraphError(f"induced subgraph vertices must be distinct, in 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(vs)}
    edges = [
        (index[u], index[v])
        for u in vs
        for v in g.neighbors[u]
        if v in index and u < v
    ]
    return Graph(len(vs), edges)


def apply_permutation(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabeled copy of g: vertex v becomes perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("permutation must be a bijection on 0..n-1")
    return Graph(g.n, [(perm[u], perm[v]) for (u, v) in g.edges()])


# -- JSON wire format -------------------------------------------------------


def graph_to_json(g: Graph) -> str:
    return json.dumps({"order": g.n, "edges": [list(e) for e in g.edges()]})


def _json_edge(e, what: str, error: type[Exception]) -> tuple[int, int]:
    """An edge [u, v] of two JSON integers as a tuple; error otherwise."""
    if not isinstance(e, list) or len(e) != 2:
        raise error(f"expected an edge [u, v], got {e!r}")
    return exact(e[0], what, error), exact(e[1], what, error)


def graph_from_json(text: str) -> Graph:
    data = json.loads(text)
    try:
        return Graph(data["order"], [_json_edge(e, "vertex id", GraphError) for e in data["edges"]])
    except (KeyError, TypeError) as exc:
        raise GraphError(f"graph JSON lacks a field or has a wrong type: {exc}") from exc


# -- twin reduction ----------------------------------------------------------
#
# Two vertices are (open) twins when they have identical neighborhoods; twin
# classes are independent sets and any two classes are joined completely or
# not at all, so the colored reduced graph determines the original exactly.


def _twin_classes(g: Graph) -> list[list[int]]:
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.neighbors[v], []).append(v)
    return sorted(groups.values(), key=lambda c: c[0])


def _is_wreath(g: Graph) -> bool:
    """Whether the connected tetravalent graph g is a wreath graph.

    That holds exactly when every vertex has an open twin.  Twins are never
    adjacent, and twin classes are joined completely or not at all.  A class
    of 4 forces K4,4 = wreath(4) and a class of 3 cannot occur; when every
    class has 2 vertices, the class graph is connected and 2-regular, a
    cycle C_m, so g is wreath(m).  So each order has at most one such graph.
    """
    return g.n >= 6 and min(Counter(g.neighbors).values()) > 1


def _reduce_twins(g: Graph):
    """Return (reduced neighbor tuples, class sizes, classes).

    Reduced vertex i stands for classes[i]; classes are ordered by their
    smallest original vertex, which is irrelevant for canonicalization
    (refinement re-sorts) but keeps everything deterministic.
    """
    classes = _twin_classes(g)
    index = {}
    for i, cls in enumerate(classes):
        for v in cls:
            index[v] = i
    k = len(classes)
    adj: list[set[int]] = [set() for _ in range(k)]
    for i, cls in enumerate(classes):
        rep = cls[0]
        for u in g.neighbors[rep]:
            adj[i].add(index[u])
    reduced = tuple(tuple(sorted(s)) for s in adj)
    sizes = tuple(len(c) for c in classes)
    return reduced, sizes, classes


# -- individualization-refinement -------------------------------------------


def _refine(neigh: Sequence[Sequence[int]], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement of an ordered partition.

    Splits every cell by the multiset of neighbor cell indices; sub-cells are
    ordered by signature, so the result depends only on the isomorphism type
    of (graph, ordered partition).
    """
    n = len(neigh)
    while True:
        cid = [0] * n
        for i, cell in enumerate(cells):
            for v in cell:
                cid[v] = i
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple(sorted(cid[u] for u in neigh[v]))
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(buckets):
                    new_cells.append(buckets[sig])
        cells = new_cells
        if not changed:
            return cells


def _encode_leaf(neigh: Sequence[Sequence[int]], order: list[int]) -> tuple[int, ...]:
    """Adjacency-matrix row encoding under the leaf ordering (position -> vertex).

    Row i is an integer whose bit (n-1-j) is set when positions i and j are
    adjacent, so tuple comparison is lexicographic on matrix rows.
    """
    n = len(neigh)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    rows = []
    for i, v in enumerate(order):
        row = 0
        for u in neigh[v]:
            row |= 1 << (n - 1 - pos[u])
        rows.append(row)
    return tuple(rows)


def _target_cell(cells: list[list[int]]) -> int:
    """Index of the smallest non-singleton cell, earliest among ties; -1 if discrete."""
    target, target_size = -1, None
    for i, cell in enumerate(cells):
        if len(cell) > 1 and (target_size is None or len(cell) < target_size):
            target, target_size = i, len(cell)
    return target


def _individualize(cells: list[list[int]], target: int, v: int) -> list[list[int]]:
    rest = [u for u in cells[target] if u != v]
    return cells[:target] + [[v], rest] + cells[target + 1 :]


def _leaves(neigh: Sequence[Sequence[int]], cells: list[list[int]]):
    """Yield (encoding, position->vertex order) for each leaf below `cells`.

    Lazy, so a caller that stops early skips the refinements of the rest of
    the subtree.  Branches on `_target_cell`, individualizing its members in
    ascending order.
    """
    cells = _refine(neigh, cells)
    target = _target_cell(cells)
    if target < 0:
        order = [cell[0] for cell in cells]
        yield _encode_leaf(neigh, order), order
        return
    for v in sorted(cells[target]):
        yield from _leaves(neigh, _individualize(cells, target, v))


def _leaf_map(src: list[int], dst: list[int]) -> tuple[int, ...]:
    """The permutation taking leaf order `src` to leaf order `dst`."""
    perm = [0] * len(src)
    for a, b in zip(src, dst):
        perm[a] = b
    return tuple(perm)


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _merge_orbits(parent: list[int], perm: Sequence[int]):
    """Union every v with perm[v], so the sets become orbits of the group so far."""
    for v in range(len(perm)):
        a, b = _find(parent, v), _find(parent, perm[v])
        if a != b:
            parent[a] = b


def _first_path(neigh: Sequence[Sequence[int]], cells: list[list[int]]):
    """(path, zeta): the search tree's first path and the leaf it ends in.

    Individualizes the least vertex of the target cell at each level.  path
    lists the refined partition and target cell index of each level above
    the leaf, and zeta is the leaf's position -> vertex order.
    """
    path = []
    cells = _refine(neigh, cells)
    target = _target_cell(cells)
    while target >= 0:
        path.append((cells, target))
        cells = _refine(neigh, _individualize(cells, target, min(cells[target])))
        target = _target_cell(cells)
    return path, [cell[0] for cell in cells]


def _ir_search(neigh: Sequence[Sequence[int]], cells: list[list[int]]):
    """Individualization-refinement search, orbit-pruned at every level.

    Returns (least leaf encoding, a leaf order achieving it, gens, levels,
    leaves), leaves listing (encoding, order) for every leaf met.  The
    first path (`_first_path`) individualizes the least vertex v_d of the
    target cell at each level d, down to the leaf zeta.  Levels are then
    processed deepest first, so every automorphism found so far fixes
    v_0..v_{d-1}; the tree is invariant under them, so a sibling of v_d in
    the orbit of an explored sibling roots an image of its subtree and is
    skipped.  Below the others,
    a leaf equal to zeta gives an automorphism taking v_d to that sibling
    and ends its walk; one equal to the best leaf gives an automorphism; a
    smaller one becomes the best.  So the first path is a base: the
    automorphisms found at levels >= d, all in gens, generate the stabilizer
    of v_0..v_{d-1}, and levels[d] holds one of them per vertex of the orbit
    of v_d (a Schreier search), identity first.  Every automorphism is
    t_0∘t_1∘... for exactly one choice of t_d in levels[d].  Every leaf
    of the whole tree is the image of a leaf met under an automorphism, so
    it has the encoding of a leaf met.
    """
    n = len(neigh)
    path, zeta = _first_path(neigh, cells)
    zeta_enc = best_enc = _encode_leaf(neigh, zeta)
    best = zeta
    leaves = [(zeta_enc, zeta)]
    identity = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    parent = list(range(n))

    def record(perm: tuple[int, ...]):
        gens.append(perm)
        _merge_orbits(parent, perm)

    levels = []
    for cells, target in reversed(path):
        vd, *others = sorted(cells[target])
        explored = [vd]
        for v in others:
            if any(_find(parent, v) == _find(parent, u) for u in explored):
                continue
            explored.append(v)
            for enc, order in _leaves(neigh, _individualize(cells, target, v)):
                leaves.append((enc, order))
                if enc == zeta_enc:
                    record(_leaf_map(zeta, order))
                    break
                if enc == best_enc:
                    record(_leaf_map(best, order))
                elif enc < best_enc:
                    best_enc, best = enc, order
        # Schreier search for one automorphism per vertex of vd's orbit
        trans = {vd: identity}
        queue = [vd]
        for w in queue:
            t = trans[w]
            for perm in gens:
                x = perm[w]
                if x not in trans:
                    trans[x] = perm if t is identity else tuple(perm[y] for y in t)
                    queue.append(x)
        levels.insert(0, tuple(trans.values()))
    return best_enc, best, tuple(gens), tuple(levels), leaves


def _check_order(g: Graph):
    if g.n > MAX_CANONICAL_ORDER:
        raise GraphError(
            f"order {g.n} exceeds the canonical-form limit {MAX_CANONICAL_ORDER}"
        )


def _initial_cells(sizes: Sequence[int]) -> list[list[int]]:
    """Ordered partition grouping reduced vertices by twin-class size, ascending."""
    by_size: dict[int, list[int]] = {}
    for i, s in enumerate(sizes):
        by_size.setdefault(s, []).append(i)
    return [by_size[s] for s in sorted(by_size)]


def _code(n: int, sizes: Sequence[int], enc: tuple[int, ...], order: list[int]) -> bytes:
    """The code's byte format for one leaf of the twin-reduced graph: n, k,
    the class sizes in leaf order, then the adjacency rows, big-endian."""
    k = len(enc)
    rowbytes = (k + 7) // 8
    head = bytes([n, k]) + bytes(sizes[v] for v in order)
    return head + b"".join(row.to_bytes(rowbytes, "big") for row in enc)


@lru_cache(maxsize=4096)
def _canonical_data(g: Graph):
    """(code bytes, twin classes, gens, levels).

    The code comes from the orbit-pruned search `_ir_search` on the
    twin-reduced graph, colored by class size.  gens generate the
    color-preserving automorphisms of the reduced graph (vertex i stands for
    classes[i]), and levels holds a transversal for each level of the
    search's first path, a base: the group is {t_0∘t_1∘...} and is never
    listed here.  Cached per graph value, least recently used first out;
    all consumers below share this computation.  Each leaf the search met
    is recorded in _certificates for canonical_code.
    """
    _check_order(g)
    reduced, sizes, classes = _reduce_twins(g)
    enc, best, gens, levels, leaves = _ir_search(reduced, _initial_cells(sizes))
    code = _code(g.n, sizes, enc, best)
    if len(_certificates) + len(leaves) > MAX_CERTIFICATES:
        _certificates.clear()
    for leaf_enc, order in leaves[:MAX_CERTIFICATES]:
        _certificates[_code(g.n, sizes, leaf_enc, order)] = code
    return (code, classes, gens, levels)


def canonical_code(g: Graph) -> bytes:
    """Order-invariant encoding of g's isomorphism class.

    Equal codes characterize isomorphic graphs for orders up to
    MAX_CANONICAL_ORDER; serialize with .hex() for the wire format.  When
    the leaf of g's first path has a known certificate, g is isomorphic to
    the graph searched and takes its code; otherwise g is searched in full.
    """
    _check_order(g)
    reduced, sizes, _ = _reduce_twins(g)
    _, zeta = _first_path(reduced, _initial_cells(sizes))
    code = _certificates.get(_code(g.n, sizes, _encode_leaf(reduced, zeta), zeta))
    return code if code is not None else _canonical_data(g)[0]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(map(len, g.neighbors)) != sorted(map(len, h.neighbors)):
        return False
    return canonical_code(g) == canonical_code(h)


# -- automorphisms -----------------------------------------------------------


def group_order(g: Graph) -> int:
    """|Aut(g)| without listing the group."""
    _, classes, _, levels = _canonical_data(g)
    return prod(map(len, levels)) * prod(factorial(len(cls)) for cls in classes)


def _lift(classes, ra, pools, perm: list[int], out: list):
    """Append to out each lift of the reduced automorphism ra: for every
    class i, the members of classes[i], in each order of pools[i], go onto
    classes[ra[i]] in order.  perm is scratch of length n, filled in place."""

    def build(i: int):
        if i == len(classes):
            out.append(tuple(perm))
            return
        dst = classes[ra[i]]
        for arrangement in pools[i]:
            for s, d in zip(arrangement, dst):
                perm[s] = d
            build(i + 1)

    build(0)


def automorphism_group(g: Graph) -> list[tuple[int, ...]]:
    """Complete list of adjacency-preserving permutations, identity included.

    Each permutation is an image tuple (vertex v maps to perm[v]), and the
    list is sorted.  Limited to listings of at most MAX_LISTING_SIZE vertex
    images, g.n * |Aut(g)|.
    """
    size = group_order(g)
    if g.n * size > MAX_LISTING_SIZE:
        raise GraphError(
            f"automorphism group of size {size} on {g.n} vertices is too large to list"
        )
    _, classes, _, levels = _canonical_data(g)
    reduced_autos = [tuple(range(len(classes)))]
    for level in reversed(levels):
        if len(level) > 1:
            reduced_autos = [tuple(t[x] for x in p) for t in level for p in reduced_autos]
    pools = [list(permutations(cls)) for cls in classes]
    perms: list[tuple[int, ...]] = []
    scratch = [0] * g.n
    for ra in reduced_autos:
        _lift(classes, ra, pools, scratch, perms)
    perms.sort()
    return perms


def _aut_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generating set for Aut(g): twin-class transpositions + lifted reduced gens."""
    _, classes, reduced_gens, _ = _canonical_data(g)
    gens = []
    identity = list(range(g.n))
    for cls in classes:
        for a, b in zip(cls, cls[1:]):
            perm = identity[:]
            perm[a], perm[b] = b, a
            gens.append(tuple(perm))
    plain = [[cls] for cls in classes]
    scratch = [0] * g.n
    for ra in reduced_gens:
        _lift(classes, ra, plain, scratch, gens)
    return gens


def _vertex_orbits(g: Graph) -> list[list[int]]:
    parent = list(range(g.n))
    for perm in _aut_generators(g):
        _merge_orbits(parent, perm)
    orbits: dict[int, list[int]] = {}
    for v in range(g.n):
        orbits.setdefault(_find(parent, v), []).append(v)
    return sorted(orbits.values(), key=lambda o: o[0])


def vertex_orbit_representatives(g: Graph) -> list[int]:
    """One vertex per automorphism orbit (the minimum of each)."""
    return [orbit[0] for orbit in _vertex_orbits(g)]


def is_vertex_transitive(g: Graph) -> bool:
    """True iff the automorphism group has a single vertex orbit.

    Works from generators, so it is limited by MAX_CANONICAL_ORDER only.
    """
    _check_order(g)
    if g.n == 0:
        return True
    return len(_vertex_orbits(g)) == 1


def is_edge_transitive(g: Graph) -> bool:
    """True iff the automorphism group has a single edge orbit.

    Works from generators, so it is limited by MAX_CANONICAL_ORDER only.
    """
    _check_order(g)
    edges = g.edges()
    if not edges:
        return True
    gens = _aut_generators(g)
    start = edges[0]
    seen = {start}
    stack = [start]
    while stack:
        u, v = stack.pop()
        for perm in gens:
            a, b = perm[u], perm[v]
            e = (a, b) if a < b else (b, a)
            if e not in seen:
                seen.add(e)
                stack.append(e)
    return len(seen) == len(edges)

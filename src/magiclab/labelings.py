"""The signed label model and every labeling predicate.

Labels for a graph of order n come from the symmetric set
{1-n, 3-n, ..., n-1}: an arithmetic progression with step 2 that is closed
under negation and contains 0 exactly when n is odd.  A labeling is distance
magic when every vertex's neighbor labels sum to zero, and self-reverse when
swapping each vertex with its negated-label partner is an automorphism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence

from .graphs import Frozen, Graph, _json_edge, exact


class LabelingError(ValueError):
    """Invalid labeling data or a violated operation precondition."""


def label_set(n: int) -> tuple[int, ...]:
    """The n labels 1-n, 3-n, ..., n-1, ascending."""
    if exact(n, "order", LabelingError) < 1:
        raise LabelingError("label set needs a positive order")
    return tuple(range(1 - n, n, 2))


class Labeling(Frozen):
    """Bijection from vertex indices onto label_set(n), stored by vertex.

    partners[v] is the vertex whose label is the negation of v's, built
    once here for every predicate that reads the partner map.
    """

    __slots__ = ("n", "labels", "partners", "_pos")

    def __init__(self, labels: Sequence[int]):
        labels = tuple(labels)
        for x in labels:
            # a bool or float equal to a label would pass the bijection test
            # and reach the JSON output as true or 1.0
            if type(x) is not int:
                exact(x, "label", LabelingError)
        n = len(labels)
        if sorted(labels) != list(label_set(n)):
            raise LabelingError(
                f"labels must be a bijection onto {{1-n,...,n-1}} for n={n}"
            )
        pos = {lab: v for v, lab in enumerate(labels)}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "partners", tuple([pos[-lab] for lab in labels]))
        object.__setattr__(self, "_pos", pos)

    def label(self, v: int) -> int:
        return self.labels[v]

    def vertex_of(self, lab: int) -> int:
        try:
            return self._pos[lab]
        except KeyError:
            raise LabelingError(f"no vertex of order {self.n} carries label {lab!r}") from None

    def partner(self, v: int) -> int:
        """The unique vertex whose label is the negation of v's label."""
        return self.partners[v]

    def central_vertex(self) -> Optional[int]:
        """The vertex labeled 0, present exactly when n is odd."""
        return self._pos.get(0)

    def reverse(self) -> "Labeling":
        """Negate every label; distance magic is preserved."""
        return Labeling(tuple(-x for x in self.labels))

    def __eq__(self, other) -> bool:
        return isinstance(other, Labeling) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Labeling({list(self.labels)})"


def labeling_to_json(l: Labeling) -> str:
    return json.dumps({"order": l.n, "labels": list(l.labels)})


def labeling_from_json(text: str) -> Labeling:
    data = json.loads(text)
    try:
        labels, order = list(data["labels"]), data["order"]
    except (KeyError, TypeError) as exc:
        raise LabelingError(f"labeling JSON lacks a field or has a wrong type: {exc}") from exc
    if len(labels) != exact(order, "order", LabelingError):
        raise LabelingError("label count does not match the declared order")
    return Labeling(labels)


def to_classical(l: Labeling) -> tuple[int, ...]:
    """Convert to the 1..n label model: (1 + n + label) / 2 per vertex."""
    return tuple((1 + l.n + x) // 2 for x in l.labels)


def _check_same_order(g: Graph, l: Labeling):
    if g.n != l.n:
        raise LabelingError(f"graph order {g.n} != labeling order {l.n}")


def is_distance_magic(g: Graph, l: Labeling) -> bool:
    """Every vertex's neighbor labels sum to 0."""
    _check_same_order(g, l)
    label = l.labels.__getitem__
    return all(sum(map(label, nb)) == 0 for nb in g.neighbors)


def partner(l: Labeling, v: int) -> int:
    return l.partner(v)


@dataclass(frozen=True)
class PairPartition:
    """Vertex pairs {v, partner(v)}, plus the central singleton for odd order."""

    pairs: tuple[tuple[int, int], ...]
    central: Optional[int]


def pair_partition(l: Labeling) -> PairPartition:
    """Partition of the vertex set into negation pairs, sorted by positive label."""
    pairs = []
    for lab in range(1 if l.n % 2 == 0 else 2, l.n, 2):
        u, v = l.vertex_of(lab), l.vertex_of(-lab)
        pairs.append((min(u, v), max(u, v)))
    return PairPartition(tuple(pairs), l.central_vertex())


def reverse(l: Labeling) -> Labeling:
    return l.reverse()


def is_self_reverse(g: Graph, l: Labeling) -> bool:
    """The partner involution is an automorphism of g.

    Equivalently: u ~ v exactly when partner(u) ~ partner(v) for all pairs,
    and the labeling is equivalent to its reverse.
    """
    _check_same_order(g, l)
    part = l.partners
    nbrs = g.neighbors
    for u in range(g.n):
        image = nbrs[part[u]]
        for v in nbrs[u]:
            if part[v] not in image:
                return False
    return True


def is_degenerate(g: Graph, l: Labeling) -> bool:
    """Some vertex u (not self-paired) is adjacent to both members of another pair."""
    _check_same_order(g, l)
    return pairing_is_degenerate(g, l.partners)


def pairing_is_degenerate(g: Graph, part: Sequence[int]) -> bool:
    """is_degenerate for every labeling of g whose partner map is part:
    the property depends on the pairs only, not on the labels."""
    for u in range(g.n):
        if part[u] == u:
            continue
        for v in g.neighbors[u]:
            pv = part[v]
            if pv != v and pv != u and pv in g.neighbors[u]:
                return True
    return False


def linear_dependencies(vectors: Sequence[Sequence[int]]) -> list:
    """For each integer vector in turn: None when it is independent of the
    vectors before it, else (coeffs, den) with den > 0 and den * vector =
    sum of coeffs[q] * vectors[q], q over earlier independent vectors with a
    nonzero coefficient.  Integer elimination only."""
    echelon = []  # (lead, row, comb): row = sum of comb[q] * vectors[q]
    out = []
    for k, vec in enumerate(vectors):
        w, den, comb = list(vec), 1, {}  # w = den * vec - sum comb[q] * vectors[q]
        for lead, row, rc in echelon:
            x, y = w[lead], row[lead]
            if x:
                w = [y * a - x * b for a, b in zip(w, row)]
                den *= y
                comb = {q: y * comb.get(q, 0) + x * rc.get(q, 0) for q in comb.keys() | rc.keys()}
                d = gcd(den, *w, *comb.values())
                w, den = [a // d for a in w], den // d
                comb = {q: c // d for q, c in comb.items() if c}
        if any(w):
            lead = next(i for i, a in enumerate(w) if a)
            echelon.append((lead, w, {k: den, **{q: -c for q, c in comb.items()}}))
            out.append(None)
        else:
            sign = 1 if den > 0 else -1
            out.append(({q: sign * c for q, c in comb.items()}, sign * den))
    return out


def pairing_kernel(g: Graph, part: Sequence[int]) -> Optional[list[tuple[int, ...]]]:
    """The balance equations of the labelings of g whose partner map is
    part, solved: one integer row per pair (u, part[u]), u < part[u], by u,
    such that the label vectors of the first vertices u that balance every
    vertex are the B c over rational c, B the matrix of these rows; or None
    when part cannot carry a distance magic labeling.

    With x_i the label of pair i's first vertex and -x_i its partner's, the
    balance at each first vertex is one row of M x = 0: a neighbor in pair j
    adds x_j if it is j's first vertex and -x_j otherwise (a straight
    matching +1, a crossed one -1, a full block 0, the partner itself -1 on
    the diagonal); the central vertex adds 0, and the balance at a partner
    is the negated balance at its first vertex.  The columns of B are a
    kernel basis of M.  None when a row is 0, so that the pair's label is 0,
    or two rows agree up to sign, so that two pairs share a magnitude."""
    firsts = [u for u in range(g.n) if part[u] > u]
    index = {}
    for i, u in enumerate(firsts):
        index[u] = index[part[u]] = i
    k = len(firsts)
    cols = [[0] * k for _ in range(k)]  # cols[j][i] = M[i][j]
    for i, u in enumerate(firsts):
        for v in g.neighbors[u]:
            if part[v] != v:
                cols[index[v]][i] += 1 if v < part[v] else -1
    basis = []
    for j, dep in enumerate(linear_dependencies(cols)):
        if dep is not None:
            x = [0] * k
            for q, c in dep[0].items():
                x[q] = -c
            x[j] = dep[1]
            basis.append(x)
    rows = [tuple(x[i] for x in basis) for i in range(k)]
    seen: set[tuple[int, ...]] = set()
    for row in rows:
        if not any(row) or row in seen:
            return None
        seen.update((row, tuple(-a for a in row)))
    return rows


@lru_cache(maxsize=128)
def _ascending_labeling(n: int) -> Labeling:
    """The ascending-label numbering of order n, built once: vertex v
    carries the v-th smallest label.  Labeling is immutable, so every pair
    on the numbering shares this one."""
    return Labeling(label_set(n))


def _ascending_pair(n: int, label_edges: Iterable[Sequence[int]]) -> tuple[Graph, Labeling]:
    """The (Graph, Labeling) with an edge per label edge, on the
    ascending-label numbering.  The labels must lie in label_set(n):
    LabelGraph and quotients.lift check theirs, and the all-labelings search
    draws its own from it."""
    l = _ascending_labeling(n)
    pos = l._pos
    return Graph(n, [(pos[a], pos[b]) for a, b in label_edges]), l


class LabelGraph(Frozen):
    """Graph whose vertex set is the label set itself.

    The image of a labeled graph under its labeling; two labelings are
    equivalent exactly when they induce the same LabelGraph, so this is the
    canonical representative of a labeling-equivalence class.
    """

    __slots__ = ("n", "edges", "_key")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        valid = set(label_set(n))
        norm = set()
        for e in edges:
            a, b = e
            if type(a) is not int or type(b) is not int:
                # a bool or float label would reach the JSON output as true or 1.0
                for x in (a, b):
                    exact(x, "label", LabelingError)
            if a not in valid or b not in valid:
                raise LabelingError(f"label edge ({a},{b}) outside the label set")
            if a == b:
                raise LabelingError(f"label edge with equal endpoints {a}")
            norm.add((a, b) if a < b else (b, a))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "_key", (n, tuple(sorted(norm))))

    def sort_key(self) -> tuple:
        return self._key

    def to_graph(self) -> tuple[Graph, Labeling]:
        """Concrete (Graph, Labeling) on ascending-label vertex order."""
        return _ascending_pair(self.n, self.edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelGraph) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"LabelGraph(n={self.n}, edges={len(self.edges)})"


def label_graph_to_json(lg: LabelGraph) -> str:
    return json.dumps({"order": lg.n, "edges": [list(e) for e in sorted(lg.edges)]})


def label_graph_from_json(text: str) -> LabelGraph:
    data = json.loads(text)
    try:
        edges = [_json_edge(e, "label", LabelingError) for e in data["edges"]]
        return LabelGraph(data["order"], edges)
    except (KeyError, TypeError) as exc:
        raise LabelingError(f"label graph JSON lacks a field or has a wrong type: {exc}") from exc


def label_graph(g: Graph, l: Labeling) -> LabelGraph:
    """Edge {label(u), label(v)} for each edge {u, v} of g."""
    _check_same_order(g, l)
    labels = l.labels
    return LabelGraph(g.n, [(labels[u], labels[v]) for u, v in g.edges()])


def are_equivalent(g1: Graph, l1: Labeling, g2: Graph, l2: Labeling) -> bool:
    """Same adjacency between every pair of labels."""
    if l1.n != l2.n:
        raise LabelingError(f"order mismatch: {l1.n} != {l2.n}")
    return label_graph(g1, l1) == label_graph(g2, l2)


def bipartition(l: Labeling) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(A, B) with A the vertices of nonnegative label, B the rest."""
    a = tuple(v for v in range(l.n) if l.labels[v] >= 0)
    b = tuple(v for v in range(l.n) if l.labels[v] < 0)
    return a, b


def is_link(g: Graph, l: Labeling, e: Sequence[int]) -> bool:
    """Exactly one endpoint of e carries a negative label."""
    _check_same_order(g, l)
    u, v = e
    if not g.has_edge(u, v):
        raise LabelingError(f"({u},{v}) is not an edge")
    return (l.labels[u] < 0) != (l.labels[v] < 0)


def is_balanced(g: Graph, l: Labeling) -> bool:
    """Every vertex has equally many neighbors of each sign class.

    Defined only when every vertex has even degree.
    """
    _check_same_order(g, l)
    labels = l.labels
    for nb in g.neighbors:
        if len(nb) % 2 != 0:
            raise LabelingError("balance requires every vertex degree to be even")
    for nb in g.neighbors:
        neg = sum(1 for u in nb if labels[u] < 0)
        if 2 * neg != len(nb):
            return False
    return True


def _cyclet_vertices(c) -> tuple[int, ...]:
    return tuple(getattr(c, "vertices", c))


def is_alternating(g: Graph, l: Labeling, c) -> bool:
    """Consecutive cyclet edges, closing edge included, alternate link/non-link."""
    _check_same_order(g, l)
    vs = _cyclet_vertices(c)
    d = len(vs)
    if d < 3:
        raise LabelingError(f"a cyclet has at least 3 vertices, got {d}")
    if d % 2 != 0:
        raise LabelingError("alternation is defined for even-length cyclets only")
    flags = [is_link(g, l, (vs[i], vs[(i + 1) % d])) for i in range(d)]
    return all(flags[i] != flags[(i + 1) % d] for i in range(d))


def self_reverse_by_pair_structure(g: Graph, l: Labeling) -> bool:
    """Independent self-reverse test via the pair-partition edge patterns.

    Between any two distinct partition sets the induced bipartite subgraph
    must be empty, complete, or a pair of disjoint edges.  Used to cross-check
    is_self_reverse; both must always agree.
    """
    _check_same_order(g, l)
    part = pair_partition(l)
    sets: list[tuple[int, ...]] = [p for p in part.pairs]
    if part.central is not None:
        sets.append((part.central,))
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a_set, b_set = sets[i], sets[j]
            cross = [
                (u, v) for u in a_set for v in b_set if g.has_edge(u, v)
            ]
            k = len(cross)
            if k == 0 or k == len(a_set) * len(b_set):
                continue
            if (
                k == 2
                and len(a_set) == 2
                and len(b_set) == 2
                and cross[0][0] != cross[1][0]
                and cross[0][1] != cross[1][1]
            ):
                continue
            return False
    return True

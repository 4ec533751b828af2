"""The cyclet merge construction and order witnesses.

Merging two graphs along equal-length cyclets deletes both cyclets' edges
and cross-connects consecutive cyclet vertices, preserving every degree.
When the second labeling is balanced, its cyclet alternates between links
and non-links, and the opposing cyclet label sums agree position by
position, the merged graph inherits a distance magic labeling by shifting
the second graph's labels outward by the first graph's order; two further
symmetry conditions on the cyclets keep the result self-reverse.

All three witness functions share one extension chain: a base instance of
order b = n (mod 8) grows to order n by merging in the 8-vertex
complete-bipartite block (n - b) / 8 times, each time along a quotient edge
whose labels differ by 4.  Bases are the enumerator's first non-wreath
instances with such an edge, found once per process and memoized, and so
is each order's chain, which the three functions share.  No chain ends on
a wreath graph, where every vertex has an open twin: a merge rewires only
its four cyclet vertices, each base has a twinless vertex off its first
cyclet, and every later step merges at the newest block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .families import wreath, wreath_natural_labeling, wreath_nondegenerate_labeling
from .graphs import Graph, _is_wreath, exact
from .labelings import (
    Labeling,
    is_alternating,
    is_balanced,
    is_distance_magic,
)
from .quotients import SOLID, QuotientGraph, quotient
from . import search as _search


class MergeError(ValueError):
    """Cyclet or merge precondition failure."""


@dataclass(frozen=True)
class Cyclet:
    """Rooted oriented cycle: an ordered sequence of pairwise distinct
    vertices, consecutive ones adjacent in the host (closing edge included)."""

    vertices: tuple[int, ...]
    host_order: int

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        d = len(self.vertices)
        out = []
        for i in range(d):
            u, v = self.vertices[i], self.vertices[(i + 1) % d]
            out.append((min(u, v), max(u, v)))
        return out


def make_cyclet(g: Graph, seq: Sequence[int]) -> Cyclet:
    vs = tuple(seq)
    if len(vs) < 3:
        raise MergeError(f"a cyclet needs at least 3 vertices, got {len(vs)}")
    if len(set(vs)) != len(vs):
        raise MergeError("cyclet vertices must be pairwise distinct")
    for i in range(len(vs)):
        u, v = vs[i], vs[(i + 1) % len(vs)]
        if not g.has_edge(u, v):
            raise MergeError(f"consecutive cyclet vertices {u} and {v} are not adjacent")
    return Cyclet(vs, g.n)


def merge(g: Graph, c: Cyclet, h: Graph, c2: Cyclet) -> Graph:
    """Delete both cyclets' edges and cross-connect u_i v_{i+1} and v_i u_{i+1}.

    The second graph's vertex i becomes g.n + i; every vertex keeps its
    original degree.
    """
    if c.host_order != g.n or c2.host_order != h.n:
        raise MergeError("cyclet does not belong to its host graph")
    d = len(c)
    if d != len(c2):
        raise MergeError(f"cyclet lengths differ: {d} != {len(c2)}")
    off = g.n
    edges = set(g.edges())
    edges.difference_update(c.edges())
    for u, v in h.edges():
        edges.add((u + off, v + off))
    edges.difference_update((a + off, b + off) for a, b in c2.edges())
    us, vs = c.vertices, c2.vertices
    for i in range(d):
        edges.add(tuple(sorted((us[i], vs[(i + 1) % d] + off))))
        edges.add(tuple(sorted((vs[i] + off, us[(i + 1) % d]))))
    return Graph(g.n + h.n, edges)


@dataclass(frozen=True)
class MergeReport:
    """Independently computed merge conditions.

    The first three guarantee the merged labeling is distance magic; with
    self-reverse inputs, either symmetry condition keeps it self-reverse.
    """

    balanced: bool
    alternating: bool
    sums_match: bool
    sr_condition_i: bool
    sr_condition_ii: bool

    @property
    def mergeable(self) -> bool:
        return self.balanced and self.alternating and self.sums_match


def check_merge_conditions(
    g: Graph, l: Labeling, c: Cyclet, h: Graph, l2: Labeling, c2: Cyclet
) -> MergeReport:
    """Evaluate all merge conditions for (g, l, c) against (h, l2, c2)."""
    if g.n == 0 or h.n == 0:
        raise MergeError("empty graphs cannot be merged")
    valence = g.degree(0)
    if not g.is_regular(valence) or not h.is_regular(valence):
        raise MergeError("both graphs must be regular of the same valence")
    if valence % 2 != 0 or valence < 4:
        raise MergeError("merge conditions need even valence at least 4")
    if not is_distance_magic(g, l) or not is_distance_magic(h, l2):
        raise MergeError("both labelings must be distance magic")
    d = len(c)
    if d != len(c2):
        raise MergeError(f"cyclet lengths differ: {d} != {len(c2)}")
    if d % 2 != 0:
        raise MergeError("merge conditions are stated for even cyclet lengths")
    d0 = d // 2
    us, vs = c.vertices, c2.vertices
    sums_match = all(
        l.label(us[(i - 1) % d]) + l.label(us[(i + 1) % d])
        == l2.label(vs[(i - 1) % d]) + l2.label(vs[(i + 1) % d])
        for i in range(d)
    )
    pu, pv = l.partners, l2.partners
    sr_i = all(
        us[(i + d0) % d] == pu[us[i]] and vs[(i + d0) % d] == pv[vs[i]]
        for i in range(d)
    )
    sr_ii = all(
        us[(i + d0) % d] == pu[us[(d0 - 1 - i) % d]]
        and vs[(i + d0) % d] == pv[vs[(d0 - 1 - i) % d]]
        for i in range(d)
    )
    return MergeReport(
        balanced=is_balanced(h, l2),
        alternating=is_alternating(h, l2, c2),
        sums_match=sums_match,
        sr_condition_i=sr_i,
        sr_condition_ii=sr_ii,
    )


def merged_labeling(g: Graph, l: Labeling, h: Graph, l2: Labeling) -> Labeling:
    """Labels of the merged graph: unchanged on g, shifted outward by g.n on h.

    Requires the second labeling's sign bipartition to be balanced.
    """
    if not is_balanced(h, l2):
        raise MergeError("the second labeling's bipartition must be balanced")
    n = g.n
    shifted = [x + n if x >= 0 else x - n for x in l2.labels]
    return Labeling(list(l.labels) + shifted)


def align_cyclets(
    g: Graph, l: Labeling, c: Cyclet, h: Graph, l2: Labeling, c2: Cyclet
) -> list[Cyclet]:
    """Orientations of c2 (all rotations, both directions) whose merge report
    satisfies the three distance magic conditions against c.  Exploration
    helper; the core check consumes cyclets exactly as given."""
    out = []
    seen = set()
    base = c2.vertices
    d = len(base)
    for verts in (base, tuple(reversed(base))):
        for r in range(d):
            rotated = verts[r:] + verts[:r]
            if rotated in seen:
                continue
            seen.add(rotated)
            candidate = Cyclet(rotated, c2.host_order)
            report = check_merge_conditions(g, l, c, h, l2, candidate)
            if report.mergeable:
                out.append(candidate)
    return out


def cyclet_from_quotient_edge(g: Graph, l: Labeling, a: int, b: int) -> Cyclet:
    """Length-4 cyclet through the vertices labeled a, b, -b, -a.

    Requires {a, b} to be a solid quotient edge with semiedges at both ends;
    edges at the central vertex are refused.
    """
    if a <= 0 or b <= 0:
        raise MergeError("quotient-edge cyclets avoid the central vertex; labels must be positive")
    return _quotient_edge_cyclet(g, l, quotient(g, l), a, b)


def _quotient_edge_cyclet(g: Graph, l: Labeling, q: QuotientGraph, a: int, b: int) -> Cyclet:
    """cyclet_from_quotient_edge for positive a and b, given q = quotient(g, l)."""
    color = q.edge_color(a, b)
    if color is None:
        raise MergeError(f"{{{a},{b}}} is not a quotient edge")
    if color != SOLID:
        raise MergeError(f"quotient edge {{{a},{b}}} is {color}, not solid")
    if a not in q.semiedges or b not in q.semiedges:
        raise MergeError(f"both endpoints of {{{a},{b}}} need semiedges")
    verts = (l.vertex_of(a), l.vertex_of(b), l.vertex_of(-b), l.vertex_of(-a))
    return make_cyclet(g, verts)


_W4_EDGE = (1, 5)  # the solid quotient edge of the 8-vertex block consumed per extension


@lru_cache(maxsize=1)
def _w4_block() -> tuple[Graph, Labeling, Cyclet]:
    """The 8-vertex block merged in per extension, its labeling and cyclet."""
    w4, l4 = wreath(4), wreath_nondegenerate_labeling(4)
    return w4, l4, cyclet_from_quotient_edge(w4, l4, *_W4_EDGE)


def extend_by_w4(g: Graph, l: Labeling, a: int, b: int) -> tuple[Graph, Labeling]:
    """Merge in an 8-vertex block along the quotient edge {a, b}, |a-b| = 4.

    The result is 8 vertices larger, keeps connectivity, carries a verified
    non-degenerate self-reverse distance magic labeling, and its quotient
    contains the solid edge {g.n+3, g.n+7} with semiedges at both ends, so
    extension can be iterated.
    """
    if a > b:
        a, b = b, a
    if b - a != 4:
        raise MergeError(f"extension needs quotient labels differing by 4, got {a},{b}")
    c = cyclet_from_quotient_edge(g, l, a, b)
    merged, lab = _merge_w4(g, l, c)
    if not _search._labeling_ok(merged, lab, _search.SearchOptions(require_nondegenerate=True)):
        raise MergeError("extension produced an invalid labeling")
    return merged, lab


def _merge_w4(g: Graph, l: Labeling, c: Cyclet) -> tuple[Graph, Labeling]:
    """Merge the 8-vertex block into g along the quotient-edge cyclet c,
    after checking the merge conditions; the output is not re-verified."""
    w4, l4, c2 = _w4_block()
    report = check_merge_conditions(g, l, c, w4, l4, c2)
    if not (report.mergeable and (report.sr_condition_i or report.sr_condition_ii)):
        raise MergeError(f"merge conditions unexpectedly fail: {report}")
    return merge(g, c, w4, c2), merged_labeling(g, l, w4, l4)


# -- witnesses ----------------------------------------------------------------

BASE_ORDERS = (18, 20, 21, 23, 24, 25, 27, 30)


def _extensible_edge(q: QuotientGraph) -> Optional[tuple[int, int]]:
    """Lexicographically first solid edge of the quotient q with semiedges
    at both ends and labels differing by 4, if any."""
    for a, b, color in q.edges:
        if color == SOLID and a > 0 and b - a == 4 and a in q.semiedges and b in q.semiedges:
            return a, b
    return None


@lru_cache(maxsize=len(BASE_ORDERS))
def _find_base(order: int) -> tuple[Graph, Labeling]:
    """The first enumerated non-wreath instance of the order that carries an
    extensible quotient edge, searched for once per process."""
    opts = _search.SearchOptions(require_nondegenerate=True)
    for g, l in _search.iter_sr_pairs(order, opts):
        if not _is_wreath(g) and _extensible_edge(quotient(g, l)) is not None:
            return g, l
    raise MergeError(f"no extensible base instance exists at order {order}")


def _extend_chain(g: Graph, l: Labeling, times: int) -> tuple[Graph, Labeling]:
    """Extend by the 8-vertex block times times, each along the extensible
    edge.  One quotient per step serves the edge and the cyclet; folding it
    re-checks the previous step's labeling, and the caller verifies the
    last."""
    for _ in range(times):
        q = quotient(g, l)
        edge = _extensible_edge(q)
        if edge is None:
            raise MergeError("extension chain lost its extensible edge")
        g, l = _merge_w4(g, l, _quotient_edge_cyclet(g, l, q, *edge))
    return g, l


def _verified(g: Graph, l: Labeling, nondegenerate: bool = False):
    opts = _search.SearchOptions(require_nondegenerate=nondegenerate)
    if not _search._verify_emission(g, l, opts):
        raise MergeError("witness construction produced an invalid instance")
    return g, l


@lru_cache(maxsize=64)
def _chain_witness(n: int) -> tuple[Graph, Labeling]:
    """Extend the base of the largest order b <= n with b = n (mod 8) by
    (n - b) / 8 blocks.  A twinless base vertex off every cyclet stays
    twinless, so the result is no wreath graph; the twin test guards that.
    The three witness functions share one result per order; the 64 kept
    cover the 41 orders of 5..60."""
    b = max(o for o in BASE_ORDERS if o <= n and (n - o) % 8 == 0)
    g, l = _extend_chain(*_find_base(b), (n - b) // 8)
    if _is_wreath(g):
        raise MergeError(f"the extension chain from order {b} ends on a wreath graph")
    return _verified(g, l, nondegenerate=True)


def witness(n: int) -> Optional[tuple[Graph, Labeling]]:
    """A connected tetravalent order-n graph with a self-reverse distance
    magic labeling, or None when no such graph exists (even n >= 6, odd
    n >= 21).  Returned pairs are verified."""
    if exact(n, "order", MergeError) < 5:
        raise MergeError("witnesses are defined for orders at least 5")
    if n % 2 == 0:
        return _verified(wreath(n // 2), wreath_natural_labeling(n // 2)) if n >= 6 else None
    return _chain_witness(n) if n >= 21 else None


def witness_nondegenerate(n: int) -> Optional[tuple[Graph, Labeling]]:
    """As witness, but the labeling is additionally non-degenerate; present
    exactly for n in {8, 16, 18, 20, 21} and every n >= 23."""
    if exact(n, "order", MergeError) in (8, 16):
        return _verified(wreath(n // 2), wreath_nondegenerate_labeling(n // 2), nondegenerate=True)
    return witness_non_wreath(n)


def witness_non_wreath(n: int) -> Optional[tuple[Graph, Labeling]]:
    """As witness, but the graph is not a wreath graph and the labeling is
    non-degenerate; present exactly for n >= 18 with n not in {19, 22}."""
    if exact(n, "order", MergeError) < 5:
        raise MergeError("witnesses are defined for orders at least 5")
    return _chain_witness(n) if n >= 18 and n not in (19, 22) else None

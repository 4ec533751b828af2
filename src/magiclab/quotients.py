"""Quotient of a non-degenerate self-reverse labeling, and its inverse.

The quotient folds each negation pair {v, partner(v)} of a tetravalent graph
into a single vertex named by the nonnegative label of the pair.  An edge is
solid when the underlying adjacency joins equal signs and dashed otherwise; a
pair adjacent within itself gets a semiedge; for odd order the vertex labeled
0 keeps one solid edge to each of its two neighbor pairs.  The original
graph is the two-fold cover obtained by reading solid edges as voltage 0 and
dashed edges (and semiedges) as voltage 1, so `lift` inverts `quotient`
exactly, up to the fixed ascending-label vertex order, on which vertex v
carries the v-th smallest label.  `lift` is the one place a quotient is
unfolded, and it validates the quotient first: the self-reverse enumerator
searches quotients and lifts each one it finds through it.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Sequence

from .graphs import Frozen, Graph, exact
from .labelings import (
    Labeling,
    _ascending_pair,
    is_degenerate,
    is_distance_magic,
    is_self_reverse,
    label_set,
)

SOLID = "solid"
DASHED = "dashed"


class QuotientError(ValueError):
    """Quotient precondition failure or an invariant violation."""


class QuotientGraph(Frozen):
    """Labeled half-order graph with colored edges and semiedges.

    Vertices are exactly the nonnegative members of label_set(n).  The
    constructor checks argument types and sorts the edges, but does not
    validate; `validate()` enforces the full invariant set and is called by
    `lift`.
    """

    __slots__ = ("n", "edges", "semiedges", "central", "_key")

    def __init__(
        self,
        n: int,
        edges: Iterable[Sequence] = (),
        semiedges: Iterable[int] = (),
        central: bool = False,
    ):
        norm = []
        for e in edges:
            try:
                a, b, color = e
            except (TypeError, ValueError):
                raise QuotientError(f"edge {e!r} is not a (label, label, color) triple") from None
            a, b = exact(a, "label", QuotientError), exact(b, "label", QuotientError)
            norm.append((min(a, b), max(a, b), exact(color, "edge color", QuotientError, str)))
        n = exact(n, "order", QuotientError)
        edges = tuple(sorted(set(norm)))
        semiedges = frozenset(exact(s, "semiedge label", QuotientError) for s in semiedges)
        central = exact(central, "central flag", QuotientError, bool)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "semiedges", semiedges)
        object.__setattr__(self, "central", central)
        object.__setattr__(self, "_key", (n, edges, tuple(sorted(semiedges)), central))

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(lab for lab in label_set(self.n) if lab >= 0)

    def edge_color(self, a: int, b: int) -> Optional[str]:
        a, b = min(a, b), max(a, b)
        for x, y, color in self.edges:
            if (x, y) == (a, b):
                return color
        return None

    def validate(self):
        """Raise QuotientError unless every structural invariant holds."""
        verts = set(self.vertices)
        if self.central != (self.n % 2 == 1):
            raise QuotientError("central flag must match order parity")
        seen_pairs = set()
        deg = {v: 0 for v in verts}
        balance = {v: 0 for v in verts}
        for a, b, color in self.edges:
            if a not in verts or b not in verts:
                raise QuotientError(f"edge ({a},{b}) has a non-vertex endpoint")
            if a == b:
                raise QuotientError(f"loop at quotient vertex {a}")
            if color not in (SOLID, DASHED):
                raise QuotientError(f"unknown edge color {color!r}")
            if (a, b) in seen_pairs:
                raise QuotientError(f"parallel quotient edges between {a} and {b}")
            seen_pairs.add((a, b))
            if 0 in (a, b) and color != SOLID:
                raise QuotientError("central-vertex edges must be solid")
            deg[a] += 1
            deg[b] += 1
            sign = 1 if color == SOLID else -1
            balance[a] += sign * b
            balance[b] += sign * a
        for s in self.semiedges:
            if s not in verts:
                raise QuotientError(f"semiedge at non-vertex {s}")
            if s == 0:
                raise QuotientError("the central vertex cannot carry a semiedge")
        for v in verts:
            if v == 0:
                if deg[v] != 2:
                    raise QuotientError(
                        f"central vertex has {deg[v]} edges, needs exactly 2"
                    )
                continue
            semi = 1 if v in self.semiedges else 0
            if deg[v] + semi != 4:
                raise QuotientError(
                    f"vertex {v} has degree {deg[v]} plus semiedge {semi}, needs 4"
                )
            if balance[v] - v * semi != 0:
                raise QuotientError(f"signed balance fails at vertex {v}")

    def __eq__(self, other) -> bool:
        return isinstance(other, QuotientGraph) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (
            f"QuotientGraph(n={self.n}, edges={len(self.edges)}, "
            f"semiedges={sorted(self.semiedges)}, central={self.central})"
        )


def quotient_to_json(q: QuotientGraph) -> str:
    return json.dumps(
        {
            "n": q.n,
            "vertices": list(q.vertices),
            "edges": [[a, b, color] for a, b, color in q.edges],
            "semiedges": sorted(q.semiedges),
            "central": q.central,
        }
    )


def quotient_from_json(text: str) -> QuotientGraph:
    data = json.loads(text)
    try:
        edges = []
        for e in data["edges"]:
            if not isinstance(e, list) or len(e) != 3:
                raise TypeError(f"expected an edge [a, b, color], got {e!r}")
            edges.append(tuple(e))
        return QuotientGraph(data["n"], edges, data.get("semiedges", ()), data.get("central", False))
    except (KeyError, TypeError) as exc:
        raise QuotientError(f"quotient JSON lacks a field or has a wrong type: {exc}") from exc


def quotient(g: Graph, l: Labeling) -> QuotientGraph:
    """Fold (g, l) into its quotient.

    Requires g tetravalent and l distance magic, self-reverse and
    non-degenerate; degenerate labelings would need parallel edges and are
    rejected.
    """
    if not g.is_regular(4):
        raise QuotientError("quotient is defined for tetravalent graphs only")
    if not is_distance_magic(g, l):
        raise QuotientError("labeling is not distance magic")
    if not is_self_reverse(g, l):
        raise QuotientError("labeling is not self-reverse")
    if is_degenerate(g, l):
        raise QuotientError("degenerate labeling has no simple quotient")
    labels = l.labels
    edges = set()
    semiedges = set()
    for u, v in g.edges():
        lu, lv = labels[u], labels[v]
        if lu == -lv:
            semiedges.add(abs(lu))
            continue
        color = SOLID if lu * lv >= 0 else DASHED  # an edge at 0 is solid
        a, b = abs(lu), abs(lv)
        edges.add((min(a, b), max(a, b), color))
    q = QuotientGraph(g.n, edges, semiedges, central=(g.n % 2 == 1))
    q.validate()
    return q


def lift(q: QuotientGraph) -> tuple[Graph, Labeling]:
    """Two-fold cover of a valid quotient, with its labeling.

    Solid edges lift to same-sign pairs, dashed to cross-sign pairs, and a
    semiedge at a to the edge {+a, -a}; a central edge {0, a} is solid and,
    as -0 = 0, lifts to {0, +a} and {0, -a}.  The vertices are numbered in
    ascending label order, so every lift of order n shares one Labeling.
    The result is distance magic and self-reverse by construction;
    connectivity is not implied and must be checked separately.
    """
    q.validate()
    edges = [(s, -s) for s in q.semiedges]
    for a, b, color in q.edges:
        sig = 1 if color == SOLID else -1
        edges += [(a, sig * b), (-a, -sig * b)]
    return _ascending_pair(q.n, edges)


def export_dot(q: QuotientGraph) -> str:
    """Deterministic DOT rendering.

    Semiedges become dashed edges to invisible zero-size anchor nodes named
    _se_<label>; the central vertex is double-circled.
    """
    lines = ["graph quotient {", "  node [shape=circle];"]
    for v in q.vertices:
        if v == 0 and q.central:
            lines.append(f'  "{v}" [shape=doublecircle];')
        else:
            lines.append(f'  "{v}";')
    for s in sorted(q.semiedges):
        lines.append(
            f'  "_se_{s}" [shape=point, style=invis, width=0, height=0, label=""];'
        )
    for a, b, color in q.edges:
        lines.append(f'  "{a}" -- "{b}" [style={color}];')
    for s in sorted(q.semiedges):
        lines.append(f'  "{s}" -- "_se_{s}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"

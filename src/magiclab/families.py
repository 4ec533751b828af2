"""Named graph families and the explicit wreath labelings.

Index conventions (documented per generator, all dense 0-based):

- wreath(m): position i holds the vertex pair x_i -> i, y_i -> m+i
- circulant(n, S): vertex i adjacent to (i+s) mod n for each s in S
- cartesian_cycles(m, k) and direct_cycles(m, k): grid vertex (i, j) -> i*k+j
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Graph, GraphError, exact
from .labelings import Labeling


def wreath(m: int) -> Graph:
    """Order-2m tetravalent graph: both vertices at position i are adjacent
    to all four vertices at positions i-1 and i+1 (mod m)."""
    if exact(m, "m", GraphError) < 3:
        raise GraphError(f"wreath graphs need m >= 3, got {m}")
    edges = []
    for i in range(m):
        j = (i + 1) % m
        edges += [(i, j), (i, m + j), (m + i, j), (m + i, m + j)]
    return Graph(2 * m, edges)


def wreath_natural_labeling(m: int) -> Labeling:
    """x_i gets 2i+1 and y_i gets -(2i+1); distance magic, self-reverse,
    degenerate on wreath(m)."""
    if exact(m, "m", GraphError) < 3:
        raise GraphError(f"wreath graphs need m >= 3, got {m}")
    labels = [0] * (2 * m)
    for i in range(m):
        labels[i] = 2 * i + 1
        labels[m + i] = -(2 * i + 1)
    return Labeling(labels)


def _require_multiple_of_4(m: int):
    if exact(m, "m", GraphError) < 4 or m % 4 != 0:
        raise GraphError(f"this labeling needs m to be a positive multiple of 4, got {m}")


def wreath_degenerate_labeling(m: int) -> Labeling:
    """Pair {2i-2m+1, 2m-2i-1} at position i, smaller value on x_i."""
    _require_multiple_of_4(m)
    labels = [0] * (2 * m)
    for i in range(m):
        labels[i] = 2 * i - 2 * m + 1
        labels[m + i] = 2 * m - 2 * i - 1
    return Labeling(labels)


def wreath_nondegenerate_labeling(m: int) -> Labeling:
    """The alternating-sign labeling that is self-reverse but not degenerate.

    For each block i in 0..m/4-1 the four positions 2i, -1-2i, 2i+1, -2-2i
    (mod m) receive the pairs built from 8i+1, 8i+3, 8i+5, 8i+7 with signs
    alternating in i; x takes the first member of each pair.
    """
    _require_multiple_of_4(m)
    m0 = m // 4
    labels = [0] * (2 * m)

    def put(pos: int, x_val: int, y_val: int):
        pos %= m
        labels[pos] = x_val
        labels[m + pos] = y_val

    for i in range(m0):
        s = -1 if i % 2 else 1
        put(2 * i, s * (8 * i + 1), -s * (8 * i + 3))
        put(-1 - 2 * i, -s * (8 * i + 1), s * (8 * i + 3))
        put(2 * i + 1, s * (8 * i + 5), -s * (8 * i + 7))
        put(-2 - 2 * i, -s * (8 * i + 5), s * (8 * i + 7))
    return Labeling(labels)


def wreath_non_sr_labeling(m: int) -> Labeling:
    """Distance magic but not self-reverse: the non-degenerate labeling with
    the pairs at positions 0 and 1 swapped ({5,-7} onto 0, {1,-3} onto 1)."""
    _require_multiple_of_4(m)
    if m < 8:
        raise GraphError(f"the non-self-reverse tweak needs m >= 8, got {m}")
    base = list(wreath_nondegenerate_labeling(m).labels)
    base[0], base[m + 0] = 5, -7
    base[1], base[m + 1] = 1, -3
    return Labeling(base)


def circulant(n: int, connections: Iterable[int]) -> Graph:
    """Cayley graph of Z_n: vertex i adjacent to i+s for every s in the set."""
    if exact(n, "n", GraphError) < 1:
        raise GraphError(f"circulant graphs need n >= 1, got {n}")
    conns = {exact(s, "connection", GraphError) % n for s in connections}
    if 0 in conns:
        raise GraphError("connection set must not contain 0 mod n")
    if any((-s) % n not in conns for s in conns):
        raise GraphError("connection set must be closed under negation mod n")
    edges = [(i, (i + s) % n) for i in range(n) for s in conns if i < (i + s) % n]
    return Graph(n, edges)


def cartesian_cycles(m: int, k: int) -> Graph:
    """Cartesian product C_m x C_k: one coordinate steps, the other is fixed."""
    if exact(m, "m", GraphError) < 3 or exact(k, "k", GraphError) < 3:
        raise GraphError("both cycle lengths must be at least 3")
    edges = []
    for i in range(m):
        for j in range(k):
            v = i * k + j
            edges.append((v, i * k + (j + 1) % k))
            edges.append((v, ((i + 1) % m) * k + j))
    return Graph(m * k, edges)


def direct_cycles(m: int, k: int) -> Graph:
    """Direct (tensor) product of C_m and C_k: both coordinates step.

    May be disconnected; callers check connectivity themselves.
    """
    if exact(m, "m", GraphError) < 3 or exact(k, "k", GraphError) < 3:
        raise GraphError("both cycle lengths must be at least 3")
    edges = set()
    for i in range(m):
        for j in range(k):
            v = i * k + j
            for di in (-1, 1):
                for dj in (-1, 1):
                    w = ((i + di) % m) * k + (j + dj) % k
                    if v != w:
                        edges.add((min(v, w), max(v, w)))
    return Graph(m * k, edges)

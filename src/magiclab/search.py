"""Exhaustive enumeration of distance magic label-graphs.

Self-reverse enumeration runs at quotient level: for each nonnegative label
decide its semiedge flag and colored edges while maintaining exact signed
balance and degree caps, then lift and keep the connected covers.  Simple
quotients correspond one-to-one with non-degenerate self-reverse labeling
classes, so no isomorphism tests are needed for the labeling counts;
canonical codes are used only to count the underlying graphs.

Both label-graph searches (the quotient search here and the all-labelings
search of small orders) complete one position at a time on one explicit
stack.  Each position's chooser lists the subset-sum completions of that
position, with a per-vertex balance look-ahead already applied to every
candidate neighbor, so no completion is built only to be discarded.  The
search runs in the calling thread; emission order is deterministic.

Degenerate self-reverse classes exist only on wreath graphs (a vertex
adjacent to a full pair forces twin pairs everywhere), where every circular
magnitude arrangement is distance magic; they are generated in closed form
when non-degeneracy is not required.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import permutations
from typing import Iterator, Optional

from . import graphs as _graphs
from .graphs import Graph, canonical_code, is_vertex_transitive, vertex_orbit_representatives
from .labelings import (
    LabelGraph,
    Labeling,
    is_degenerate,
    is_distance_magic,
    is_self_reverse,
    label_graph,
    label_set,
)

DM_ORDER_CAP = 16
DEGENERATE_CLOSED_FORM_CAP = 20


class SearchTimeLimit(Exception):
    """Internal signal that the configured deadline passed."""


class SearchError(ValueError):
    """Invalid search configuration."""


@dataclass(frozen=True)
class SearchOptions:
    """Search flags.  thread_budget (at least 1) is accepted for
    compatibility; every search runs in the calling thread."""

    require_self_reverse: bool = True
    require_nondegenerate: bool = False
    require_connected: bool = True
    valence: int = 4
    time_limit: Optional[float] = None
    thread_budget: int = 1

    def __post_init__(self):
        if self.valence != 4:
            raise SearchError("only valence 4 is supported")
        if self.time_limit is not None and self.time_limit <= 0:
            raise SearchError("time limit must be positive")
        if self.thread_budget < 1:
            raise SearchError("thread budget must be at least 1")


@dataclass
class EnumerationReport:
    """Counts for one enumeration run.

    sr_count is the number of distinct LabelGraphs emitted, iso_class_count
    the number of distinct canonical codes among their underlying graphs,
    vt_count how many of those classes are vertex-transitive.  Wall time and
    the options echo are excluded from equality so that reports from
    different thread budgets compare equal.
    """

    order: int
    sr_count: int
    iso_class_count: int
    vt_count: int
    complete: bool
    elapsed: float = field(compare=False, default=0.0)
    options: Optional[SearchOptions] = field(compare=False, default=None)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "sr_count": self.sr_count,
            "iso_class_count": self.iso_class_count,
            "vt_count": self.vt_count,
            "complete": self.complete,
            "elapsed": self.elapsed,
        }


def _deadline(opts: SearchOptions) -> Optional[float]:
    return None if opts.time_limit is None else time.monotonic() + opts.time_limit


# -- backtracking shared by the label-graph searches ---------------------------


def _bound_table(mags: list[int]) -> list[list[list[int]]]:
    """table[p][q][c]: the sum of the c largest mags[r] with r > p, r != q.

    With mags non-increasing by position and position p complete, this
    bounds what c distinct future neighbors can add to vertex q's balance.
    """
    m = len(mags)
    return [
        [
            [sum([x for r, x in enumerate(mags) if r > p and r != q][:c]) for c in range(5)]
            for q in range(m)
        ]
        for p in range(m)
    ]


def _subset_choices(cand, vals, signs, skips, wants) -> list[tuple[int, tuple]]:
    """Every way to pick candidates so that their signed values hit a target.

    For each (tag, need, target) in wants, pick exactly need candidates,
    each with one of its allowed signs, so that the sum of sign * value is
    target; candidates whose skip flag is False must be picked.  Results are
    (tag, ((candidate, sign), ...)) in depth-first order: candidates in list
    order, each taken with its signs in order before it is left out.  Values
    must be non-increasing in magnitude, which makes the prefix sums below
    an upper bound on any need of the remaining values.
    """
    k = len(cand)
    pre = [0]
    for x in vals:
        pre.append(pre[-1] + abs(x))
    forced = [0] * (k + 1)  # candidates at or after ci that must be picked
    for ci in range(k - 1, -1, -1):
        forced[ci] = forced[ci + 1] + (not skips[ci])
    out: list[tuple[int, tuple]] = []
    picks: list[tuple[int, int]] = []

    def pick(ci: int, need: int, target: int):
        if need == 0:
            if target == 0 and forced[ci] == 0:
                out.append((tag, tuple(picks)))
            return
        if k - ci < need or forced[ci] > need:
            return
        if need == 1:
            # the last pick: one scan, leaving out everything else
            for cj in range(ci, k):
                if forced[cj + 1] == 0:
                    b = vals[cj]
                    for sig in signs[cj]:
                        if sig * b == target:
                            out.append((tag, (*picks, (cand[cj], sig))))
                if not skips[cj]:
                    return
            return
        if abs(target) > pre[ci + need] - pre[ci]:
            return
        q, b = cand[ci], vals[ci]
        for sig in signs[ci]:
            picks.append((q, sig))
            pick(ci + 1, need - 1, target - sig * b)
            picks.pop()
        if skips[ci]:
            pick(ci + 1, need, target)

    for tag, need, target in wants:
        if need >= 0:
            pick(0, need, target)
    return out


class _Backtracker:
    """Depth-first search over positions 0..m-1 on one explicit stack.

    Subclasses provide _choices(p), the list of ways to complete position p
    given positions before it, plus _apply/_undo for one choice and
    _snapshot for a complete assignment.  Nodes count chooser calls; the
    deadline is checked once per node.
    """

    __slots__ = ("m", "deadline", "nodes")

    def __init__(self, m: int, deadline: Optional[float]):
        self.m = m
        self.deadline = deadline
        self.nodes = 0

    def _expand(self, p: int) -> list:
        self.nodes += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeLimit
        return self._choices(p)

    def run(self) -> Iterator[LabelGraph]:
        """Yield the label graph of every complete assignment, in search order."""
        last = self.m - 1
        choices: list[list] = [[] for _ in range(self.m)]
        nxt = [0] * self.m
        choices[0] = self._expand(0)
        p = 0
        while p >= 0:
            i = nxt[p]
            if i:
                self._undo(p, *choices[p][i - 1])
            if i == len(choices[p]):
                p -= 1
                continue
            nxt[p] = i + 1
            self._apply(p, *choices[p][i])
            if p < last:
                p += 1
                choices[p] = self._expand(p)
                nxt[p] = 0
            else:
                yield self._snapshot()


# -- quotient-level stream ----------------------------------------------------


def _quotient_positions(n: int) -> list[int]:
    """Non-central quotient vertex labels, largest first."""
    stop = 0 if n % 2 else -1
    return [lab for lab in range(n - 1, stop, -2)]


class _QuotientSearch(_Backtracker):
    """Backtracking state for one order.

    Positions 0..m-1 hold the non-central labels in decreasing order; the
    virtual position m is the central vertex of odd orders.  Vertices are
    completed in position order, so every edge is decided at its
    larger-labeled endpoint and the largest labels fail first.

    Once position p is complete, a later vertex q with c open edge slots and
    partial balance b can still balance only if |b| is at most the sum of
    the c largest labels after p other than its own (its future neighbors
    are distinct), or, spending one slot on the semiedge, |label(q) - b| is
    at most the sum of the c - 1 largest.  The test is per vertex, so the
    chooser applies it to each candidate neighbor, picked with either sign
    or left out, before combining them: it returns exactly the choices after
    which every later vertex passes, in subset-sum enumeration order.
    """

    __slots__ = ("n", "labs", "central", "deg", "ssum", "semi", "edges", "bound")

    def __init__(self, n: int, deadline: Optional[float] = None):
        self.n = n
        self.labs = _quotient_positions(n)
        super().__init__(len(self.labs), deadline)
        self.central = n % 2 == 1
        self.deg = [0] * (self.m + 1)
        self.ssum = [0] * self.m
        self.semi = [False] * self.m
        self.edges: list[tuple[int, int, int]] = []
        self.bound = _bound_table(self.labs)

    def _snapshot(self) -> LabelGraph:
        labs = self.labs
        lg_edges = []
        for p, q, sig in self.edges:
            a = labs[p]
            if q == self.m:
                lg_edges.append((0, a))
                lg_edges.append((0, -a))
            else:
                b = labs[q]
                if sig > 0:
                    lg_edges.append((a, b))
                    lg_edges.append((-a, -b))
                else:
                    lg_edges.append((a, -b))
                    lg_edges.append((-a, b))
        for p in range(self.m):
            if self.semi[p]:
                lg_edges.append((labs[p], -labs[p]))
        return LabelGraph(self.n, lg_edges)

    def _apply(self, p: int, s: int, picks):
        self.semi[p] = bool(s)
        a = self.labs[p]
        for q, sig in picks:
            self.deg[q] += 1
            self.edges.append((p, q, sig))
            if q < self.m:
                self.ssum[q] += sig * a

    def _undo(self, p: int, s: int, picks):
        self.semi[p] = False
        a = self.labs[p]
        for q, sig in picks:
            self.deg[q] -= 1
            self.edges.pop()
            if q < self.m:
                self.ssum[q] -= sig * a

    def _choices(self, p: int) -> list[tuple[int, tuple]]:
        """All (semiedge flag, edge picks) pairs completing position p that
        leave every later vertex able to balance, in search order."""
        labs, m, deg, ssum = self.labs, self.m, self.deg, self.ssum
        a = labs[p]
        bounds = self.bound[p]
        cand: list[int] = []
        vals: list[int] = []
        signs: list[tuple[int, ...]] = []
        skips: list[bool] = []
        for q in range(p + 1, m):
            cap = 4 - deg[q]
            if cap == 0:
                continue
            lab, b, bound = labs[q], ssum[q], bounds[q]
            skip = abs(b) <= bound[cap] or abs(lab - b) <= bound[cap - 1]
            c = cap - 1
            plus = abs(b + a) <= bound[c] or (c > 0 and abs(lab - b - a) <= bound[c - 1])
            minus = abs(b - a) <= bound[c] or (c > 0 and abs(lab - b + a) <= bound[c - 1])
            if plus or minus:
                cand.append(q)
                vals.append(lab)
                signs.append((1, -1) if plus and minus else (1,) if plus else (-1,))
                skips.append(skip)
            elif not skip:
                return []
        if self.central and deg[m] < 2:
            # the central vertex needs 2 - deg[m] more edges, at most one
            # from each remaining position
            short = 2 - deg[m] - (m - p - 1)
            if short > 1:
                return []
            cand.append(m)
            vals.append(0)
            signs.append((1,))
            skips.append(short <= 0)
        wants = [(s, 4 - s - deg[p], s * a - ssum[p]) for s in (0, 1)]
        return _subset_choices(cand, vals, signs, skips, wants)


def _verify_emission(g: Graph, l: Labeling, opts: SearchOptions) -> bool:
    """Re-check every required property through the labeling predicates.

    Search state is never trusted: emissions must independently pass the
    public predicates.
    """
    if not g.is_regular(4):
        return False
    if opts.require_connected and not g.is_connected():
        return False
    if not is_distance_magic(g, l):
        return False
    if opts.require_self_reverse and not is_self_reverse(g, l):
        return False
    if opts.require_nondegenerate and is_degenerate(g, l):
        return False
    return True


def _degenerate_wreath_label_graphs(n: int) -> list[LabelGraph]:
    """All degenerate self-reverse label graphs of order n, in closed form.

    These exist only on wreath graphs, where consecutive positions carry a
    full four-edge block between label pairs and every vertex's neighbor sum
    vanishes identically, so each class is exactly a circular magnitude
    sequence up to rotation and reflection.  The largest magnitude is pinned
    first; reflections are killed by ordering its two ring neighbors.
    """
    if n % 2 or n < 6:
        return []
    if n > DEGENERATE_CLOSED_FORM_CAP:
        raise SearchError(
            f"degenerate class generation is factorial in n/2; capped at order "
            f"{DEGENERATE_CLOSED_FORM_CAP} (got {n}); set require_nondegenerate "
            f"for larger orders"
        )
    m = n // 2
    mags = [2 * i + 1 for i in range(m)]
    first = mags[-1]
    rest = mags[:-1]
    out = []
    for perm in permutations(rest):
        if perm[0] > perm[-1]:
            continue
        ring = (first,) + perm
        edges = []
        for i in range(m):
            a, b = ring[i], ring[(i + 1) % m]
            edges += [(a, b), (a, -b), (-a, b), (-a, -b)]
        out.append(LabelGraph(n, edges))
    return out


def iter_sr_pairs(
    n: int, opts: SearchOptions = SearchOptions()
) -> Iterator[tuple[Graph, Labeling]]:
    """Lazy single-threaded stream of verified self-reverse pairs.

    Emission order is the deterministic search order, not sorted; use
    enumerate_sr for the sorted, counted form.  Degenerate classes (when
    allowed) follow the quotient-level stream.
    """
    if n < 5:
        raise SearchError("self-reverse enumeration needs order >= 5")
    if not opts.require_self_reverse:
        raise SearchError("iter_sr_pairs requires the self-reverse flag")
    deadline = _deadline(opts)
    search = _QuotientSearch(n, deadline)
    for lg in search.run():
        g, l = lg.to_graph()
        if _verify_emission(g, l, opts):
            yield g, l
    if not opts.require_nondegenerate:
        for lg in _degenerate_wreath_label_graphs(n):
            g, l = lg.to_graph()
            if _verify_emission(g, l, opts):
                yield g, l


def _classify(pairs: list[tuple[Graph, Labeling]]) -> tuple[int, int]:
    """(#isomorphism classes, #vertex-transitive classes) of the graphs."""
    codes: dict[bytes, Graph] = {}
    for g, _ in pairs:
        codes.setdefault(canonical_code(g), g)
    vt = sum(1 for g in codes.values() if is_vertex_transitive(g))
    return len(codes), vt


def enumerate_sr(
    n: int, opts: SearchOptions = SearchOptions()
) -> tuple[list[tuple[Graph, Labeling]], EnumerationReport]:
    """All self-reverse distance magic labeling classes of connected
    tetravalent graphs of order n.

    Returns one verified (Graph, Labeling) representative per distinct
    LabelGraph, sorted by label-graph encoding, plus the report.  The search
    runs in the calling thread; opts.thread_budget is accepted for
    compatibility and does not change the work or the result.  When the
    time limit passes, the classes found so far are returned and the report
    is marked incomplete.
    """
    if n < 5:
        raise SearchError("self-reverse enumeration needs order >= 5")
    start = time.monotonic()
    deadline = _deadline(opts)
    complete = True
    label_graphs: list[LabelGraph] = []

    try:
        label_graphs.extend(_QuotientSearch(n, deadline).run())
    except SearchTimeLimit:
        complete = False

    if not opts.require_nondegenerate and complete:
        label_graphs.extend(_degenerate_wreath_label_graphs(n))

    keyed = []
    seen: set[LabelGraph] = set()
    for lg in label_graphs:
        if lg in seen:
            continue
        seen.add(lg)
        g, l = lg.to_graph()
        if _verify_emission(g, l, opts):
            keyed.append((lg.sort_key(), g, l))
    keyed.sort(key=lambda t: t[0])
    result = [(g, l) for _, g, l in keyed]
    iso, vt = _classify(result)
    report = EnumerationReport(
        order=n,
        sr_count=len(result),
        iso_class_count=iso,
        vt_count=vt,
        complete=complete,
        elapsed=time.monotonic() - start,
        options=opts,
    )
    return result, report


# -- all distance magic label graphs of small orders --------------------------


class _DMSearch(_Backtracker):
    """Backtracking over zero-sum 4-regular graphs on the label set itself.

    Labels are completed in decreasing magnitude order, positive before
    negative; each label picks its remaining neighbors among later labels,
    hitting a zero neighbor sum exactly.  The chooser keeps only picks after
    which every later label q with c open slots has |partial sum| at most
    the c largest later magnitudes other than its own.
    """

    __slots__ = ("n", "labs", "deg", "ssum", "edges", "bound")

    def __init__(self, n: int, deadline: Optional[float] = None):
        self.n = n
        self.labs = sorted(label_set(n), key=lambda x: (-abs(x), x < 0))
        super().__init__(len(self.labs), deadline)
        self.deg = [0] * self.m
        self.ssum = [0] * self.m
        self.edges: list[tuple[int, int]] = []
        self.bound = _bound_table([abs(x) for x in self.labs])

    def _snapshot(self) -> LabelGraph:
        return LabelGraph(self.n, self.edges)

    def _apply(self, p: int, _tag: int, picks):
        a = self.labs[p]
        for q, _ in picks:
            self.deg[q] += 1
            self.ssum[q] += a
            self.edges.append((a, self.labs[q]))

    def _undo(self, p: int, _tag: int, picks):
        a = self.labs[p]
        for q, _ in picks:
            self.deg[q] -= 1
            self.ssum[q] -= a
            self.edges.pop()

    def _choices(self, p: int) -> list[tuple[int, tuple]]:
        labs, deg, ssum = self.labs, self.deg, self.ssum
        a = labs[p]
        bounds = self.bound[p]
        cand: list[int] = []
        vals: list[int] = []
        skips: list[bool] = []
        for q in range(p + 1, self.m):
            cap = 4 - deg[q]
            if cap == 0:
                continue
            b, bound = ssum[q], bounds[q]
            skip = abs(b) <= bound[cap]
            if abs(b + a) <= bound[cap - 1]:
                cand.append(q)
                vals.append(labs[q])
                skips.append(skip)
            elif not skip:
                return []
        signs = [(1,)] * len(cand)
        return _subset_choices(cand, vals, signs, skips, [(0, 4 - deg[p], -ssum[p])])


def enumerate_dm(
    n: int, opts: SearchOptions = SearchOptions(require_self_reverse=False)
) -> tuple[list[tuple[Graph, Labeling]], EnumerationReport]:
    """All distance magic labeling classes of connected tetravalent graphs
    of order n, with no symmetry requirement.  Capped at order DM_ORDER_CAP.
    """
    if n > DM_ORDER_CAP:
        raise SearchError(f"all-labelings enumeration is capped at order {DM_ORDER_CAP}")
    if n < 5:
        raise SearchError("enumeration needs order >= 5")
    if opts.require_self_reverse:
        raise SearchError("enumerate_dm runs without the self-reverse flag")
    start = time.monotonic()
    deadline = _deadline(opts)
    search = _DMSearch(n, deadline)
    complete = True
    keyed = []
    try:
        for lg in search.run():
            g, l = lg.to_graph()
            if _verify_emission(g, l, opts):
                keyed.append((lg.sort_key(), g, l))
    except SearchTimeLimit:
        complete = False
    keyed.sort(key=lambda t: t[0])
    result = [(g, l) for _, g, l in keyed]
    iso, vt = _classify(result)
    report = EnumerationReport(
        order=n,
        sr_count=len(result),
        iso_class_count=iso,
        vt_count=vt,
        complete=complete,
        elapsed=time.monotonic() - start,
        options=opts,
    )
    return result, report


# -- labelings of a fixed graph ------------------------------------------------


def _involutions_with_pairing(g: Graph) -> list[tuple[int, ...]]:
    """Involutory automorphisms with no fixed point (even order) or exactly
    one (odd order): the candidate partner maps of a self-reverse labeling."""
    want_fixed = g.n % 2
    out = []
    for perm in _graphs.automorphism_group(g):
        if all(perm[perm[v]] == v for v in range(g.n)):
            if sum(1 for v in range(g.n) if perm[v] == v) == want_fixed:
                out.append(perm)
    return out


def _sr_labelings_for_involution(g: Graph, sigma, deadline, emit) -> None:
    """All distance magic labelings whose partner map is sigma.

    Cells are the sigma-orbits; each cell takes a magnitude and an
    orientation.  A neighbor cell joined by a straight matching contributes
    its oriented magnitude, a crossed matching the negation, a full block or
    the central cell nothing; a cell adjacent to its own partner needs its
    oriented magnitude back (the semiedge).  The global reversal is killed
    by pinning the first assigned orientation.
    """
    n = g.n
    cells: list[tuple[int, ...]] = []
    seen: set[int] = set()
    central_cell = -1
    for v in range(n):
        if v in seen:
            continue
        w = sigma[v]
        seen.update((v, w))
        if w == v:
            central_cell = len(cells)
            cells.append((v,))
        else:
            cells.append((v, w))
    k = len(cells)
    cell_of = [0] * n
    for i, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = i

    neigh: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    semi = [False] * k
    for i, cell in enumerate(cells):
        u = cell[0]
        hits: dict[int, list[int]] = {}
        for x in g.neighbors[u]:
            hits.setdefault(cell_of[x], []).append(x)
        for j, members in hits.items():
            if j == i:
                semi[i] = True
                continue
            if len(members) == 2 or len(cells[j]) == 1:
                t = 0
            else:
                t = 1 if members[0] == cells[j][0] else -1
            neigh[i].append((j, t))

    mags = sorted((lab for lab in label_set(n) if lab > 0), reverse=True)
    mag = [0] * k
    orient = [0] * k
    assigned = [False] * k
    remaining = [sum(1 for _, t in nb if t != 0) for nb in neigh]
    if central_cell >= 0:
        assigned[central_cell] = True

    nodes = [0]

    def partial_balance(i: int) -> int:
        total = 0
        for j, t in neigh[i]:
            if t != 0 and assigned[j] and j != central_cell:
                total += t * orient[j] * mag[j]
        return total

    def cell_ok(i: int, next_mag: int) -> bool:
        if i == central_cell:
            return True
        b = partial_balance(i)
        if not assigned[i]:
            cap = remaining[i] + (1 if semi[i] else 0)
            return abs(b) <= cap * next_mag
        want = mag[i] if semi[i] else 0
        b *= orient[i]
        if remaining[i] == 0:
            return b == want
        return abs(want - b) <= remaining[i] * next_mag

    def choose_cell() -> int:
        best, best_key = -1, None
        for i in range(k):
            if assigned[i]:
                continue
            done = sum(1 for j, t in neigh[i] if t != 0 and assigned[j])
            key = (-done, i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    avail = list(mags)  # unassigned magnitudes, descending

    def rec(depth: int):
        nodes[0] += 1
        if deadline is not None and nodes[0] % 1024 == 0:
            if time.monotonic() > deadline:
                raise SearchTimeLimit
        if depth == len(mags):
            labels = [0] * n
            for i, cell in enumerate(cells):
                if len(cell) == 2:
                    labels[cell[0]] = orient[i] * mag[i]
                    labels[cell[1]] = -orient[i] * mag[i]
            emit(Labeling(labels))
            return
        i = choose_cell()
        for j, t in neigh[i]:
            if t != 0:
                remaining[j] -= 1
        assigned[i] = True
        for ai in range(len(avail)):
            a = avail.pop(ai)
            next_mag = avail[0] if avail else 0
            mag[i] = a
            for o in (1,) if depth == 0 else (1, -1):
                orient[i] = o
                if cell_ok(i, next_mag) and all(
                    cell_ok(j, next_mag) for j, t in neigh[i] if t != 0
                ):
                    rec(depth + 1)
            avail.insert(ai, a)
        assigned[i] = False
        mag[i] = 0
        orient[i] = 0
        for j, t in neigh[i]:
            if t != 0:
                remaining[j] += 1

    rec(0)


def _dm_labelings_fixed_graph(g: Graph, deadline, emit) -> None:
    """All distance magic labelings of g by direct backtracking.

    Labels are placed in decreasing magnitude, positive before negative; the
    first placement is restricted to automorphism orbit representatives,
    which is sound because composing with an automorphism preserves the
    label graph.
    """
    n = g.n
    order = sorted(label_set(n), key=lambda x: (-abs(x), x < 0))
    assign: list[Optional[int]] = [None] * n
    ssum = [0] * n
    open_nb = [g.degree(v) for v in range(n)]
    nodes = [0]

    def vertex_ok(v: int, next_mag: int) -> bool:
        if open_nb[v] == 0:
            return ssum[v] == 0
        return abs(ssum[v]) <= open_nb[v] * next_mag

    def rec(step: int):
        nodes[0] += 1
        if deadline is not None and nodes[0] % 2048 == 0:
            if time.monotonic() > deadline:
                raise SearchTimeLimit
        if step == n:
            emit(Labeling(list(assign)))
            return
        lab = order[step]
        next_mag = abs(order[step + 1]) if step + 1 < n else 0
        if step == 0:
            candidates = vertex_orbit_representatives(g)
        else:
            candidates = [v for v in range(n) if assign[v] is None]
        for v in candidates:
            assign[v] = lab
            for u in g.neighbors[v]:
                ssum[u] += lab
                open_nb[u] -= 1
            good = all(vertex_ok(u, next_mag) for u in g.neighbors[v])
            if good and not vertex_ok(v, next_mag):
                good = False
            if good:
                rec(step + 1)
            for u in g.neighbors[v]:
                ssum[u] -= lab
                open_nb[u] += 1
            assign[v] = None

    rec(0)


def find_labelings(
    g: Graph,
    opts: SearchOptions = SearchOptions(require_self_reverse=False),
    max_results: Optional[int] = None,
) -> list[Labeling]:
    """Distance magic labelings of the fixed graph g matching the flags,
    one representative per label graph, sorted by label-graph encoding.

    With the self-reverse flag the search runs per candidate partner
    involution of Aut(g); otherwise it is a direct exhaustive placement.
    An optional cap stops after that many distinct classes, which makes
    existence checks cheap.  A configured time limit raises SearchTimeLimit
    rather than returning a silently incomplete list.
    """
    if not g.is_regular(4):
        raise SearchError("labeling search supports tetravalent graphs only")
    deadline = _deadline(opts)
    found: dict[tuple, Labeling] = {}

    class _Stop(Exception):
        pass

    def emit(l: Labeling):
        if not is_distance_magic(g, l):
            return
        if opts.require_self_reverse and not is_self_reverse(g, l):
            return
        if opts.require_nondegenerate and is_degenerate(g, l):
            return
        key = label_graph(g, l).sort_key()
        if key not in found:
            found[key] = l
            if max_results is not None and len(found) >= max_results:
                raise _Stop

    try:
        if opts.require_self_reverse:
            for sigma in _involutions_with_pairing(g):
                _sr_labelings_for_involution(g, sigma, deadline, emit)
        else:
            _dm_labelings_fixed_graph(g, deadline, emit)
    except _Stop:
        pass
    return [found[key] for key in sorted(found)]


# -- the classification table ---------------------------------------------------


@dataclass
class Table1Report:
    rows: list[tuple[int, int, int, int]]  # (n, sr, graphs, vt)
    complete: bool
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "rows": [
                {"n": n, "sr": sr, "graphs": gr, "vt": vt}
                for n, sr, gr, vt in self.rows
            ],
            "complete": self.complete,
            "elapsed": self.elapsed,
        }

    def to_text(self) -> str:
        lines = [f"{'n':>4} {'#SR':>8} {'#gr':>6} {'#VT':>4}"]
        for n, sr, gr, vt in self.rows:
            lines.append(f"{n:>4} {sr:>8} {gr:>6} {vt:>4}")
        return "\n".join(lines)


def table1_report(
    n_min: int,
    n_max: int,
    opts: SearchOptions = SearchOptions(require_nondegenerate=True),
) -> Table1Report:
    """Rows (n, #SR, #gr, #VT) of non-degenerate self-reverse classes."""
    if not (5 <= n_min <= n_max):
        raise SearchError("range must satisfy 5 <= n_min <= n_max")
    opts = replace(opts, require_nondegenerate=True, require_self_reverse=True)
    start = time.monotonic()
    rows = []
    complete = True
    for n in range(n_min, n_max + 1):
        _, report = enumerate_sr(n, opts)
        rows.append((n, report.sr_count, report.iso_class_count, report.vt_count))
        if not report.complete:
            complete = False
            break
    return Table1Report(rows=rows, complete=complete, elapsed=time.monotonic() - start)

"""Exhaustive enumeration of distance magic label-graphs.

Self-reverse enumeration runs at quotient level: for each nonnegative label
decide its semiedge flag and colored edges while maintaining exact signed
balance and degree caps, then lift and keep the connected covers.  Simple
quotients correspond one-to-one with non-degenerate self-reverse labeling
classes, so no isomorphism tests are needed for the labeling counts;
canonical codes are used only to count the underlying graphs, and a
connected graph with a twin at every vertex, a wreath graph, reuses its
order's one code.

One engine, _Backtracker, drives all four searches: the quotient search, the
all-labelings search of small orders, and on a fixed graph the search per
partner involution and the direct label placement.  Each completes one
position at a time on one explicit stack, and each position's chooser tests
every candidate against the balance look-ahead before returning it, so no
choice is applied only to be undone.  The two label-graph searches are one
search: the all-labelings search is the quotient search over every label,
with edges of sign +1 and no semiedge.  It keeps each position's open slots
and partial balance in one int and tabulates the look-ahead per pair of
positions when it starts, so its chooser reads one list entry per later
position.  Per position, the first node at each state int walks the signed
subsets of the later positions that balance it and keeps them under that
int, so a node's choices are one dict lookup filtered by the masks of the
signs its look-ahead allows and the picks it forces.  The fixed-graph
searches test their candidates in place.  The searches run in the calling
thread; emission order is deterministic.  Both
enumerators build their pairs on the one ascending-label numbering, the
quotients through quotients.lift and the all-labelings search's label edges
directly, and pass them through one verify, sort and classify step under
the search's deadline.

Degenerate self-reverse classes exist only on wreath graphs (a vertex
adjacent to a full pair forces twin pairs everywhere), where every circular
magnitude arrangement is distance magic; they are generated in closed form,
as (Graph, Labeling) pairs on one shared labeling, when non-degeneracy is
not required.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, permutations
from math import gcd
from typing import Iterator, Optional

from . import graphs as _graphs
from .graphs import Graph, canonical_code, exact, is_vertex_transitive, vertex_orbit_representatives
from .labelings import (
    Labeling,
    _ascending_labeling,
    _ascending_pair,
    _label_graph_key,
    adjacency_kernel,
    is_degenerate,
    is_distance_magic,
    is_self_reverse,
    label_set,
    linear_dependencies,
    pairing_is_degenerate,
    pairing_kernel,
)
from .quotients import DASHED, SOLID, QuotientGraph, lift

DM_ORDER_CAP = 16
DEGENERATE_CLOSED_FORM_CAP = 20


class SearchTimeLimit(Exception):
    """Internal signal that the configured deadline passed."""


class SearchError(ValueError):
    """Invalid search configuration."""


@dataclass(frozen=True)
class SearchOptions:
    """Search flags.  The three require_ flags are bools; time_limit is None
    or a positive int or float (in seconds); thread_budget, an int of at
    least 1, is accepted for compatibility: every search runs in the calling
    thread.  Other values raise SearchError."""

    require_self_reverse: bool = True
    require_nondegenerate: bool = False
    require_connected: bool = True
    valence: int = 4
    time_limit: Optional[float] = None
    thread_budget: int = 1

    def __post_init__(self):
        if exact(self.valence, "valence", SearchError) != 4:
            raise SearchError("only valence 4 is supported")
        for flag in ("require_self_reverse", "require_nondegenerate", "require_connected"):
            exact(getattr(self, flag), flag, SearchError, bool)
        t = self.time_limit
        if t is not None and not (
            isinstance(t, (int, float)) and not isinstance(t, bool) and t > 0  # nan too
        ):
            raise SearchError("time limit must be a positive int or float")
        if exact(self.thread_budget, "thread budget", SearchError) < 1:
            raise SearchError("thread budget must be an int of at least 1")


@dataclass
class EnumerationReport:
    """Counts for one enumeration run.

    sr_count is the number of verified labeling classes found,
    iso_class_count the number of distinct canonical codes among their
    underlying graphs, vt_count how many of those classes are
    vertex-transitive.  In an incomplete report each count covers only what
    was found or classified before the deadline.  Wall time and the options
    echo are excluded from equality so that reports from different thread
    budgets compare equal.
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


def _check_deadline(deadline: Optional[float]):
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeLimit


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


def _walk(out, picks, recs, pre, start, need, target):
    """Append picks + more for every way to pick need more candidates from
    recs[start:] that hits target, taking each with its signs before leaving
    it out.  recs holds records (candidate, value, signs), |value|
    non-increasing, and pre[ci] sums |value| over recs[:ci], which bounds
    where the walk descends.  The caller has checked that need >= 1 and
    |target| <= pre[start + need] - pre[start]."""
    for ci in range(start, len(recs) - need + 1):
        if abs(target) > pre[ci + need] - pre[ci]:
            return
        q, x, signs = recs[ci]
        room = pre[ci + need] - pre[ci + 1]  # 0 for the last pick
        for sig in signs:
            rest = target - sig * x
            if -room <= rest <= room:
                if need == 1:
                    out.append((*picks, (q, sig)))
                else:
                    _walk(out, (*picks, (q, sig)), recs, pre, ci + 1, need - 1, rest)


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
        _check_deadline(self.deadline)
        return self._choices(p)

    def run(self) -> Iterator:
        """Yield the snapshot of every complete assignment, in search order."""
        last = self.m - 1
        choices: list[list] = [[] for _ in range(self.m)]
        nxt = [0] * self.m
        choices[0] = self._expand(0)
        p = 0
        while p >= 0:
            i = nxt[p]
            if i:
                self._undo(p, choices[p][i - 1])
            if i == len(choices[p]):
                p -= 1
                continue
            nxt[p] = i + 1
            self._apply(p, choices[p][i])
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


_EMPTY = (1, 0)  # an interval no balance lies in


def _look_ahead(
    a: int, lab: int, bound: list[int], cap: int, signs: tuple, semiedge: bool
) -> list:
    """The balance tests on a later vertex once the vertex labeled a is
    complete, for the vertex labeled lab with cap >= 1 open slots: the
    tests for leaving it out, for picking it with sign +1 and with sign -1.
    bound[c] is the sum of the c largest labels its future neighbors can
    have, and the c slots left open balance the partial balance b or, with
    semiedges, one of them is the semiedge, worth lab.  So each test holds
    when b lies in one of two closed intervals (lo, hi); lo > hi is empty,
    as are both intervals of a sign not in signs."""
    tests = []
    for sig in (0, 1, -1):
        if sig and sig not in signs:
            tests.append((_EMPTY, _EMPTY))
            continue
        c = cap - abs(sig)  # the slots left after the choice
        r = bound[c - 1] if semiedge and c else -1  # the semiedge needs one of them
        x = -sig * a
        tests.append(((x - bound[c], x + bound[c]), (lab + x - r, lab + x + r)))
    return tests


_DEAD = -1  # the verdict on a later vertex that can no longer balance


def _verdict(j: int, L: int, tests: list, b: int) -> int:
    """The chooser's verdict on the j-th later position at partial balance
    b under the _look_ahead tests, as one int: bit j when it can be picked
    with sign +1, bit j + L with sign -1, bit j + 2L when it must be
    picked; 0 when it can only be left out, _DEAD when neither."""
    skip, plus, minus = [lo <= b <= hi or lo2 <= b <= hi2 for (lo, hi), (lo2, hi2) in tests]
    if plus or minus:
        return plus << j | minus << j + L | (not skip) << j + 2 * L
    return 0 if skip else _DEAD


def _look_ahead_row(
    j: int, L: int, a: int, lab: int, bound: list[int], B: int, signs: tuple, semiedge: bool
) -> list[int]:
    """The verdicts on the j-th later position, labeled lab, once the vertex
    labeled a is complete, at index cap * W + b + B for cap open slots and
    partial balance b, |b| <= B, with W = 2B + 1.  The verdict is constant
    between consecutive ends of the tests' non-empty intervals, so _verdict
    is evaluated at those only."""
    W = 2 * B + 1
    row = [0] * (5 * W)  # cap 0: full
    for cap in range(1, 5):
        tests = _look_ahead(a, lab, bound, cap, signs, semiedge)
        ends = {e for t in tests for lo, hi in t if lo <= hi for e in (lo, hi + 1)}
        cuts = sorted({-B, B + 1, *(e for e in ends if -B < e <= B)})
        at = cap * W + B
        for lo, hi in zip(cuts, cuts[1:]):
            row[at + lo:at + hi] = [_verdict(j, L, tests, lo)] * (hi - lo)
    return row


class _QuotientSearch(_Backtracker):
    """Backtracking over the quotients of one order, and the engine of the
    all-labelings search (_DMSearch).

    Positions 0..m-1 hold the non-central labels in decreasing order; the
    virtual position m is the central vertex of odd orders.  Each position
    picks its remaining edges among later positions, each with sign +1
    (solid) or -1 (dashed), and may take a semiedge, worth its own label;
    the signed sum must balance exactly.  Vertices are completed in position
    order, so every edge is decided at its larger-labeled endpoint and the
    largest labels fail first.

    Once position p is complete, a later vertex q with c open edge slots and
    partial balance b can still balance only if |b| is at most the sum of
    the c largest labels after p other than its own (its future neighbors
    are distinct), or, spending one slot on the semiedge, |label(q) - b| is
    at most the sum of the c - 1 largest.  The test is per vertex, so the
    chooser applies it to each candidate neighbor, picked with either sign
    or left out, before combining them: it returns exactly the choices after
    which every later vertex passes, in subset-sum enumeration order.

    The state of position q is one int, st[q] = cap * W + b + B, with cap
    its open slots, b its partial balance, B = 4n > |b| and W = 2B + 1; an
    edge with sign sig from the vertex labeled a adds sig * a - W.  The
    verdict on q as a candidate while completing p depends on p, q and st[q]
    only, so __init__ tabulates it (_look_ahead_row): rows[p][j][st[q]],
    j = q - p - 1, is an int with bit j set when q can be picked with sign
    +1, bit j + L with sign -1 and bit j + 2L when it must be picked (L =
    m + central), 0 when it is full or can only be left out, and _DEAD.
    The central vertex (odd orders) is the last later position, pickable
    with sign +1 while it lacks edges: it needs two, at most one from each
    position, and only the cap part of its state is read.  The rows hold
    about 5 * W * m^2 / 2 entries: 0.3 MB at n = 20, 1 MB at n = 30.

    A node's scan ORs one row entry per later position into a mask; the
    choices for p are p's entries at state st[p] whose signs the mask allows
    and whose positions cover the forced ones.  entries[p][s], built by
    _entries on the first node at state s (at most 5 * W states), holds
    every signed subset of the later positions that balances it: cap edges
    balancing b, then a semiedge and cap - 1 edges.  Each comes from one
    subset walk over walks[p], the records (q, label, signs) of the later
    positions with the prefix sums of their magnitudes.  It is the only
    memo, so a (size, sum) pair reached from two states is walked twice.

    _setup takes the positions, the edge signs and whether there are
    semiedges and a central vertex, so the same search runs _DMSearch.
    Without semiedges the rows hold no semiedge intervals, and the
    semiedge walk needs more edges than a vertex has.
    """

    __slots__ = (
        "n", "labs", "central", "st", "W", "B", "L2", "semi_slots", "chosen", "rows", "walks",
        "entries",
    )

    def __init__(self, n: int, deadline: Optional[float] = None):
        self._setup(n, _quotient_positions(n), (1, -1), True, n % 2 == 1, deadline)

    def _setup(
        self, n: int, labs: list[int], signs: tuple, semiedge: bool, central: bool,
        deadline: Optional[float],
    ):
        self.n = n
        self.labs = labs
        m = len(labs)
        super().__init__(m, deadline)
        self.central = central
        L = m + central
        self.L2 = 2 * L
        self.B = B = 4 * n
        self.W = W = 2 * B + 1
        self.semi_slots = 1 if semiedge else 5  # 5 > any cap: no semiedge want is met
        self.st = [4 * W + B] * L
        self.chosen: list[tuple] = [(0, (), ())] * m  # the choice applied per position
        bounds = _bound_table([abs(x) for x in labs])
        self.rows = []
        self.walks = []
        for p, a in enumerate(labs):
            rows_p = [
                _look_ahead_row(q - p - 1, L, a, labs[q], bounds[p][q], B, signs, semiedge)
                for q in range(p + 1, m)
            ]
            recs = [(q, labs[q], signs) for q in range(p + 1, m)]
            if central:
                j = m - p - 1
                row = [0] * (5 * W)
                for cap in (3, 4):  # one edge or none yet
                    short = cap - 2 - j  # edges missing beyond one per later position
                    v = _DEAD if short > 1 else 1 << j | (short > 0) << j + 2 * L
                    row[cap * W:(cap + 1) * W] = [v] * W
                rows_p.append(row)
                recs.append((m, 0, (1,)))
            self.rows.append(rows_p)
            self.walks.append((recs, [*accumulate((abs(x) for _, x, _ in recs), initial=0)]))
        self.entries: list[dict[int, list]] = [{} for _ in range(m)]

    def _snapshot(self) -> QuotientGraph:
        labs = [*self.labs, 0]  # position m is the central vertex
        edges = [
            (labs[p], labs[q], SOLID if sig > 0 else DASHED)
            for p, (_, picks, _) in enumerate(self.chosen)
            for q, sig in picks
        ]
        semi = [labs[p] for p, (s, _, _) in enumerate(self.chosen) if s]
        return QuotientGraph(self.n, edges, semi, self.central)

    def _apply(self, p: int, choice):
        self.chosen[p] = choice
        st = self.st
        for q, d in choice[2]:
            st[q] += d

    def _undo(self, p: int, choice):
        st = self.st
        for q, d in choice[2]:
            st[q] -= d

    def _entries(self, p: int) -> list[tuple[int, int, tuple]]:
        """Build entries[p][st[p]]: (sign bits, position bits, choice) per
        balancing subset, with the rows' bits (bit q - p - 1, or + L for sign
        -1) and choice (semiedge flag, picks, the (q, sig * a - W) _apply
        adds to st[q]), in _walk's order, edges-only ones first."""
        s, W, a, L = self.st[p], self.W, self.labs[p], self.L2 // 2
        cap, b = divmod(s, W)
        b -= self.B
        recs, pre = self.walks[p]
        out = self.entries[p][s] = []
        for semi, need, target in ((0, cap, -b), (1, cap - self.semi_slots, a - b)):
            found: list[tuple] = []
            if need == target == 0:
                found.append(())
            elif 0 < need <= len(recs) and abs(target) <= pre[need]:
                _walk(found, (), recs, pre, 0, need, target)
            for picks in found:
                sb = sum(1 << q - p - 1 + (sig < 0) * L for q, sig in picks)
                pb = sum(1 << q - p - 1 for q, _ in picks)
                out.append((sb, pb, (semi, picks, tuple((q, sig * a - W) for q, sig in picks))))
        return out

    def _choices(self, p: int) -> list[tuple[int, tuple, tuple]]:
        """All (semiedge flag, edge picks, state deltas) completing position
        p that leave every later vertex able to balance, in search order."""
        st = self.st
        mask = 0
        for row, s in zip(self.rows[p], st[p + 1:]):
            v = row[s]
            if v < 0:
                return []
            mask |= v
        entries = self.entries[p].get(st[p])
        if entries is None:
            entries = self._entries(p)
        banned, forced = ~mask, mask >> self.L2
        return [c for sb, pb, c in entries if not (sb & banned or forced & ~pb)]


def _labeling_ok(g: Graph, l: Labeling, opts: SearchOptions) -> bool:
    """Whether l is distance magic on g with the flagged symmetry properties."""
    if not is_distance_magic(g, l):
        return False
    if opts.require_self_reverse and not is_self_reverse(g, l):
        return False
    if opts.require_nondegenerate and is_degenerate(g, l):
        return False
    return True


def _verify_emission(g: Graph, l: Labeling, opts: SearchOptions) -> bool:
    """Re-check every required property through the public predicates.

    Search state is never trusted: emissions must independently pass them.
    """
    if not g.is_regular(4):
        return False
    if opts.require_connected and not g.is_connected():
        return False
    return _labeling_ok(g, l, opts)


def _degenerate_wreath_pairs(n: int) -> Iterator[tuple[Graph, Labeling]]:
    """All degenerate self-reverse classes of order n, in closed form.

    These exist only on wreath graphs, where consecutive positions carry a
    full four-edge block between label pairs and every vertex's neighbor sum
    vanishes identically, so each class is exactly a circular magnitude
    sequence up to rotation and reflection.  The largest magnitude is pinned
    first; reflections are killed by ordering its two ring neighbors.  The
    pairs are on the ascending-label numbering and share its one labeling,
    which gives the vertices of each block {x, -x}.
    """
    if n % 2 or n < 6:
        return
    labeling = _ascending_labeling(n)
    blocks = [(labeling.vertex_of(x), labeling.vertex_of(-x)) for x in range(1, n, 2)]
    for perm in permutations(blocks[:-1]):
        if perm[0] > perm[-1]:
            continue
        ring = (blocks[-1],) + perm
        edges = [(u, v) for x, y in zip(ring, ring[1:] + ring[:1]) for u in x for v in y]
        yield Graph(n, edges), labeling


def _sr_candidates(
    n: int, opts: SearchOptions, deadline: Optional[float]
) -> Iterator[tuple[Graph, Labeling]]:
    """Unverified self-reverse pairs of order n: the lift of each quotient
    found, then (when allowed) the closed-form degenerate classes.  Every
    option is checked when this is called, not when the stream is read."""
    if exact(n, "order", SearchError) < 5:
        raise SearchError("self-reverse enumeration needs order >= 5")
    if not opts.require_self_reverse:
        raise SearchError("self-reverse enumeration requires the self-reverse flag")
    if not opts.require_nondegenerate and n % 2 == 0 and n > DEGENERATE_CLOSED_FORM_CAP:
        raise SearchError(
            f"degenerate class generation is factorial in n/2; capped at order "
            f"{DEGENERATE_CLOSED_FORM_CAP} (got {n}); set require_nondegenerate "
            f"(--nondegenerate on the command line) for larger orders"
        )
    stream = map(lift, _QuotientSearch(n, deadline).run())
    if opts.require_nondegenerate:
        return stream
    return chain(stream, _degenerate_wreath_pairs(n))


def iter_sr_pairs(
    n: int, opts: SearchOptions = SearchOptions()
) -> Iterator[tuple[Graph, Labeling]]:
    """Lazy single-threaded stream of verified self-reverse pairs.

    Each pair is the lift of a quotient found by the search, in the
    deterministic search order, not sorted; use enumerate_sr for the sorted,
    counted form.  Degenerate classes (when allowed) follow the lifted
    quotients.  The arguments are checked, and the time limit starts, when
    it is called.
    """
    candidates = _sr_candidates(n, opts, _deadline(opts))
    return ((g, l) for g, l in candidates if _verify_emission(g, l, opts))


def _collect(
    n: int,
    stream: Iterator[tuple[Graph, Labeling]],
    opts: SearchOptions,
    deadline: Optional[float],
    start: Optional[float] = None,
) -> tuple[list[tuple[Graph, Labeling]], EnumerationReport]:
    """The verified pairs of a stream that never repeats a label graph,
    sorted by label-graph encoding, plus the report counting their graphs
    by canonical code.  When the pairs are verified connected, every graph
    with a twin at each vertex is the order's one wreath graph and takes the
    code computed for the first of them.  Once the deadline passes,
    verifying and classifying stop: the pairs found so far are kept and the
    report is marked incomplete.  The report's elapsed time runs from start,
    by default from this call."""
    start = time.monotonic() if start is None else start
    pairs = []
    vt: dict[bytes, bool] = {}  # canonical code -> vertex-transitive
    wreath_code = None
    complete = True
    try:
        for g, l in stream:
            _check_deadline(deadline)
            if _verify_emission(g, l, opts):
                pairs.append((g, l))
        for g, _ in pairs:
            _check_deadline(deadline)
            if opts.require_connected and _graphs._is_wreath(g):
                code = wreath_code = wreath_code or canonical_code(g)
            else:
                code = canonical_code(g)
            if code not in vt:
                _check_deadline(deadline)
                vt[code] = is_vertex_transitive(g)
    except SearchTimeLimit:
        complete = False
    # every pair is on the one ascending-label numbering (vertex v carries
    # the v-th smallest label), so edge lists sort as label graphs; and every
    # kept pair is 4-regular of order n (_verify_emission), so its graph's
    # neighbor tuples sort in the same order as its edge list: the first
    # vertex where two graphs differ has the same lower neighbors in both,
    # hence upper neighbor tuples of one length, compared as the edges are
    pairs.sort(key=lambda p: p[0].neighbors)
    report = EnumerationReport(
        n, len(pairs), len(vt), sum(vt.values()), complete, time.monotonic() - start, opts
    )
    return pairs, report


def enumerate_sr(
    n: int, opts: SearchOptions = SearchOptions()
) -> tuple[list[tuple[Graph, Labeling]], EnumerationReport]:
    """All self-reverse distance magic labeling classes of connected
    tetravalent graphs of order n.

    Returns one verified (Graph, Labeling) representative per class, the
    lift of its quotient or a closed-form degenerate class, sorted by
    label-graph encoding, plus the report.  The search runs in the calling
    thread; opts.thread_budget is accepted for compatibility and does not
    change the work or the result.  The time limit covers the search and the
    classification: once it passes, the classes found so far are returned
    and the report is marked incomplete.
    """
    start, deadline = time.monotonic(), _deadline(opts)
    return _collect(n, _sr_candidates(n, opts, deadline), opts, deadline, start)


# -- all distance magic label graphs of small orders --------------------------


class _DMSearch(_QuotientSearch):
    """Backtracking over zero-sum 4-regular graphs on the label set itself:
    _QuotientSearch over every label of the order, in decreasing magnitude,
    positive before negative, with edges of sign +1 only and neither
    semiedges nor a central vertex."""

    __slots__ = ()

    def __init__(self, n: int, deadline: Optional[float] = None):
        labs = sorted(label_set(n), key=lambda x: (-abs(x), x < 0))
        self._setup(n, labs, (1,), False, False, deadline)

    def _snapshot(self) -> tuple[Graph, Labeling]:
        labs = self.labs
        edges = [(labs[p], labs[q]) for p, c in enumerate(self.chosen) for q, _ in c[1]]
        return _ascending_pair(self.n, edges)


def enumerate_dm(
    n: int, opts: SearchOptions = SearchOptions(require_self_reverse=False)
) -> tuple[list[tuple[Graph, Labeling]], EnumerationReport]:
    """All distance magic labeling classes of connected tetravalent graphs
    of order n, with no symmetry requirement.  Capped at order DM_ORDER_CAP.
    """
    if exact(n, "order", SearchError) > DM_ORDER_CAP:
        raise SearchError(f"all-labelings enumeration is capped at order {DM_ORDER_CAP}")
    if n < 5:
        raise SearchError("enumeration needs order >= 5")
    if opts.require_self_reverse:
        raise SearchError("enumerate_dm runs without the self-reverse flag")
    start, deadline = time.monotonic(), _deadline(opts)
    return _collect(n, _DMSearch(n, deadline).run(), opts, deadline, start)


# -- labelings of a fixed graph ------------------------------------------------


def _involutions_with_pairing(
    g: Graph, group: list[tuple[int, ...]], deadline: Optional[float] = None
) -> list[tuple[int, ...]]:
    """One candidate partner map per Aut(g)-conjugacy class, in the order of
    group, the sorted automorphism_group(g): the first of each class of
    involutory automorphisms with no fixed point (even order) or exactly one
    (odd order).

    Relabeling by an automorphism alpha turns each labeling l with partner
    map sigma into l . alpha^-1, with partner map alpha sigma alpha^-1 and
    the same label graph.  So the first sigma of a class emits every label
    graph its conjugates would, before any of them, and dropping the
    conjugates keeps the order in which label graphs first appear.  Classes
    are closed under conjugation by the generators of Aut(g), not by the
    listed group.  The deadline is checked once per element of group.
    """
    want_fixed = g.n % 2
    gens = _graphs._aut_generators(g)
    seen: set[tuple[int, ...]] = set()
    out = []
    for perm in group:
        _check_deadline(deadline)
        if perm in seen or any(perm[perm[v]] != v for v in range(g.n)):
            continue
        if sum(1 for v in range(g.n) if perm[v] == v) != want_fixed:
            continue
        out.append(perm)
        seen.add(perm)
        stack = [perm]
        while stack:
            sigma = stack.pop()
            for alpha in gens:
                img = [0] * g.n
                for v in range(g.n):
                    img[alpha[v]] = alpha[sigma[v]]
                conj = tuple(img)
                if conj not in seen:
                    seen.add(conj)
                    stack.append(conj)
    return out


class _InvolutionSearch(_Backtracker):
    """The distance magic labelings of g whose partner map is sigma, one per
    label graph.

    Cells are the sigma-orbits; each position gives one cell a magnitude and
    an orientation, the sign of the label of the cell's first vertex.  The
    positions take the cells in a fixed order: the cell with the most
    assigned neighbors next, lowest index first, a rule that never looks at
    magnitudes.  Here a cell's neighbors are the other two-vertex cells
    joined to it by a matching, straight or crossed; a full block, the
    central cell and a semiedge do not count.

    The balances are linear in the labels (labelings.pairing_kernel): the
    labels of the cells form a kernel vector B c.  A cell whose row of B
    depends on the rows of the cells before it is forced: its label is a
    fixed rational combination of theirs, kept current on apply and undo
    over one common denominator.  The position completing that combination
    drops a candidate that makes it no unused magnitude (not integral, 0,
    not a label, or taken by an assigned, forced or sibling cell) and holds
    the magnitude otherwise, and the cell's own position tries only its
    forced label.  A free cell tries every magnitude not held.  So a
    complete assignment is a kernel vector with distinct nonzero
    magnitudes: every vertex balances and the labels are the label set,
    which makes it a labeling.  A dropped subtree holds no labeling; with
    no kernel (pairing_kernel None) the search emits nothing.

    Labelings l and l . alpha, for alpha in the centralizer C of sigma in
    Aut(g) (filtered from group, the listed Aut(g)), have partner map sigma
    and one label graph, and two labelings with partner map sigma and one
    label graph differ by such an alpha.  The search emits the first
    labeling of each C-orbit only (lex-leader symmetry breaking: Crawford,
    Ginsberg, Luks and Roy, KR 1996).  Search order is the lex order of the
    labels of w_0, w_1, ..., the first vertices of the cells by position,
    where a label ranks before another when its magnitude is larger or, at
    equal magnitude, when it is positive.  If l . alpha came before l, alpha
    would fix w_0..w_t-1 for the first position t where they differ and map
    w_t to a vertex whose label ranks before that of w_t.  So l comes first
    exactly when, for each t, w_t's label ranks before the label of every
    other vertex u in the orbit of w_t under H_t, the pointwise stabilizer
    of w_0..w_t-1 in C.  H_t commutes with sigma, so it fixes the cells of
    positions before t, and u is either in a later cell, which must then
    take a smaller magnitude than w_t's, or sigma(w_t), and w_t's
    orientation is then +1.  The first orientation is pinned that way
    (sigma is in C), and so is a cell with no neighbors: its two vertices
    are twins, swapped by a member of H_t.
    """

    __slots__ = ("n", "cells", "mags", "held", "mag", "orient", "acc", "terms", "order", "plan")

    def __init__(
        self, g: Graph, sigma, group: list[tuple[int, ...]], deadline: Optional[float] = None
    ):
        n = g.n
        self.n = n
        self.cells = [(v,) if sigma[v] == v else (v, sigma[v]) for v in range(n) if sigma[v] >= v]
        k = len(self.cells)
        cell_of = [0] * n
        for i, cell in enumerate(self.cells):
            for v in cell:
                cell_of[v] = i
        # neigh[i]: each two-vertex cell j != i matched to cell i
        neigh: list[list[int]] = []
        for i, cell in enumerate(self.cells):
            hits: dict[int, int] = {}
            for x in g.neighbors[cell[0]]:
                hits[cell_of[x]] = hits.get(cell_of[x], 0) + 1
            neigh.append([j for j, h in hits.items() if j != i and h == 1 and len(self.cells[j]) == 2])
        self.mags = [lab for lab in label_set(n) if lab > 0][::-1]
        m = len(self.mags)
        super().__init__(m, deadline)
        self.mag = [0] * k
        self.orient = [0] * k
        # the central cell is assigned from the start and in no neighbor list
        pos = [-1 if len(cell) == 1 else m for cell in self.cells]
        done = [0] * k  # assigned neighbors
        self.order: list[int] = []
        for p in range(m):
            i = min((c for c in range(k) if pos[c] == m), key=lambda c: (-done[c], c))
            pos[i] = p
            self.order.append(i)
            for j in neigh[i]:
                done[j] += 1
        # the lex-leader constraints along the stabilizer chain of C
        below: list[set[int]] = [set() for _ in range(m)]  # cells to stay under
        turn = [False] * m  # orientation +1 only
        stab = []
        for a in group:
            _check_deadline(deadline)
            if all(a[sigma[v]] == sigma[a[v]] for v in range(n)):
                stab.append(a)
        for t, i in enumerate(self.order):
            if len(stab) == 1:
                break
            w = self.cells[i][0]
            for u in {alpha[w] for alpha in stab}:
                if pos[cell_of[u]] > t:
                    below[pos[cell_of[u]]].add(i)
                elif u != w:
                    turn[t] = True
            stab = [alpha for alpha in stab if alpha[w] == w]
        # the forced cells: acc[j] sums terms[i] = (j, c) over assigned
        # cells i, and fixes[p] = (j, c, den) once position p completes the
        # sum, at whose end den * label(j) = acc[j]; held: the magnitudes
        # of assigned and forced cells, 0 and the non-labels, or all of them
        rows = pairing_kernel(g, sigma)
        self.held = [True] * n
        self.acc = [0] * k
        self.terms: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        fixes: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
        den = [0] * m
        if rows is not None:
            for a in self.mags:
                self.held[a] = False
            row = dict(zip((i for i, cell in enumerate(self.cells) if len(cell) == 2), rows))
            for q, dep in enumerate(linear_dependencies([row[i] for i in self.order])):
                if dep is not None:
                    coeffs, den[q] = dep
                    j = self.order[q]
                    for p, c in coeffs.items():
                        self.terms[self.order[p]].append((j, c))
                    last = max(coeffs)
                    fixes[last].append((j, coeffs[last], den[q]))
        # plan[p]: the cells to stay under, the orientations, the forced
        # cells p completes and the denominator of p's cell if it is
        # forced, else 0
        self.plan = [
            (tuple(below[p]), (1,) if turn[p] else (1, -1), fixes[p], den[p]) for p in range(m)
        ]

    def _snapshot(self) -> Labeling:
        labels = [0] * self.n
        for i, cell in enumerate(self.cells):
            if len(cell) == 2:
                labels[cell[0]] = self.orient[i] * self.mag[i]
                labels[cell[1]] = -self.orient[i] * self.mag[i]
        return Labeling(labels)

    def _apply(self, p: int, choice):
        a, o, hold = choice
        i = self.order[p]
        self.mag[i] = a
        self.orient[i] = o
        for b in hold:
            self.held[b] = True
        for j, c in self.terms[i]:
            self.acc[j] += c * o * a

    def _undo(self, p: int, choice):
        a, o, hold = choice
        for b in hold:
            self.held[b] = False
        for j, c in self.terms[self.order[p]]:
            self.acc[j] -= c * o * a

    def _choices(self, p: int) -> list[tuple[int, int, tuple]]:
        """All (magnitude, orientation, magnitudes to hold) for position p's
        cell that keep the lex-leader constraints and leave each forced cell
        an unused magnitude, in search order."""
        below, orients, fixes, den = self.plan[p]
        i = self.order[p]
        acc, held = self.acc, self.held
        cap = min([self.mag[c] for c in below], default=self.n)
        if den:
            a, o = abs(acc[i]) // den, 1 if acc[i] > 0 else -1
            tries = [(a, (o,))] if a <= cap and o in orients else []
        else:
            tries = [(a, orients) for a in self.mags if a <= cap and not held[a]]
        out = []
        for a, signs in tries:
            for o in signs:
                hold = [] if den else [a]
                for j, c, d in fixes:
                    t = acc[j] + c * o * a
                    b = abs(t) // d
                    if t % d or b >= self.n or held[b] or b in hold:
                        break
                    hold.append(b)
                else:
                    out.append((a, o, tuple(hold)))
        return out


class _PlacementSearch(_Backtracker):
    """All distance magic labelings of g by direct placement.

    Position p places the p-th label in decreasing magnitude, positive
    before negative, on an unassigned vertex; the first placement is
    restricted to automorphism orbit representatives, which is sound because
    composing with an automorphism preserves the label graph.  A vertex is a
    candidate when, after the placement, it and each neighbor can still
    reach a zero neighbor sum with every open neighbor taking at most the
    next magnitude.

    Twins (vertices with the same neighbors) are labelled in vertex order: a
    vertex is a candidate only once the next smaller vertex of its twin class
    is.  Swapping two unlabelled twins u < v is an automorphism that fixes
    the search state, so the subtree placing on v relabels the subtree
    placing on u, which comes first, and emits no new label graph.  The
    order in which label graphs first appear in the stream is unchanged.

    A labeling is a kernel vector B c of the adjacency matrix
    (labelings.adjacency_kernel).  res[p][w], for w unplaced before
    position p, is (s, o, *r), coprime with s > 0: s * label(w) = o + r . c.
    A placement pivots on its vertex's residual to eliminate that column on
    level p + 1, which leaves level p for the undo.  A vertex whose r
    vanishes is forced to o / s; fixed[p] maps forced labels to vertices,
    None when one is no integer or no free label (placed or forced).  A
    forced label goes on its vertex only, other labels on unforced ones.
    Only empty subtrees go, and e_u - e_w is a kernel vector for twins u, w
    (neither is forced while both are free), so the stream is unchanged.
    """

    __slots__ = ("g", "order", "assign", "ssum", "open_nb", "prev_twin", "rank", "res", "fixed")

    def __init__(self, g: Graph, deadline: Optional[float] = None):
        self.g = g
        self.order = sorted(label_set(g.n), key=lambda x: (-abs(x), x < 0))
        super().__init__(g.n, deadline)
        self.assign: list[Optional[int]] = [None] * g.n
        self.ssum = [0] * g.n
        self.open_nb = [g.degree(v) for v in range(g.n)]
        # prev_twin[v]: the next smaller vertex of v's twin class, if any
        self.prev_twin: list[Optional[int]] = [None] * g.n
        for cls in _graphs._twin_classes(g):
            for u, v in zip(cls, cls[1:]):
                self.prev_twin[v] = u
        self.rank = {lab: p for p, lab in enumerate(self.order)}
        self.res = [[(1, 0, *r) for r in adjacency_kernel(g)]] + [None] * g.n
        zero = [w for w, e in enumerate(self.res[0]) if not any(e[2:])]  # forced to 0
        self.fixed = [None if len(zero) > g.n % 2 else {0: w for w in zero}] + [None] * g.n

    def _snapshot(self) -> Labeling:
        return Labeling(self.assign)

    def _apply(self, p: int, v: int):
        lab = self.order[p]
        self.assign[v] = lab
        for u in self.g.neighbors[v]:
            self.ssum[u] += lab
            self.open_nb[u] -= 1
        res, fixed = self.res[p], self.fixed[p]
        s, o, *r = res[v]
        if any(r):  # else v was forced, and its stale entries do no harm
            res, fixed = res[:], dict(fixed)
            res[v] = None
            j, y = next((i, a) for i, a in enumerate(r, 2) if a)  # the pivot piv[j]
            piv = (0, o - s * lab, *r)  # r . c = s * lab - o
            for w, e in enumerate(res):
                if e is not None and (x := e[j]):
                    e = [y * a - x * b for a, b in zip(e, piv)]
                    d = gcd(*e) if e[0] > 0 else -gcd(*e)
                    res[w] = e = tuple([a // d for a in e])
                    if not any(e[2:]):  # forced to e[1] / e[0]
                        if e[0] != 1 or self.rank.get(e[1], -1) <= p or e[1] in fixed:
                            fixed = None
                            break
                        fixed[e[1]] = w
        self.res[p + 1], self.fixed[p + 1] = res, fixed

    def _undo(self, p: int, v: int):
        lab = self.order[p]
        self.assign[v] = None
        for u in self.g.neighbors[v]:
            self.ssum[u] -= lab
            self.open_nb[u] += 1

    def _choices(self, p: int) -> list[int]:
        g, assign, ssum, open_nb = self.g, self.assign, self.ssum, self.open_nb
        if (fixed := self.fixed[p]) is None:
            return []
        lab = self.order[p]
        nxt = abs(self.order[p + 1]) if p + 1 < self.m else 0
        if p == 0:
            cand = vertex_orbit_representatives(g)
        else:
            twin = self.prev_twin
            cand = [
                v for v in range(g.n)
                if assign[v] is None and (twin[v] is None or assign[twin[v]] is not None)
            ]
        w = fixed.get(lab)
        cand = [v for v in cand if v == w or w is None and v not in fixed.values()]
        out = []
        for v in cand:
            if abs(ssum[v]) > open_nb[v] * nxt:
                continue
            for u in g.neighbors[v]:
                if abs(ssum[u] + lab) > (open_nb[u] - 1) * nxt:
                    break
            else:
                out.append(v)
        return out


def find_labelings(
    g: Graph,
    opts: SearchOptions = SearchOptions(require_self_reverse=False),
    max_results: Optional[int] = None,
) -> list[Labeling]:
    """Distance magic labelings of the fixed graph g matching the flags,
    one representative per label graph, sorted by label-graph encoding.

    With the self-reverse flag Aut(g) is listed once, and the search runs
    once per Aut(g)-conjugacy class of candidate partner involutions; each
    run emits one labeling per label graph, skipping the relabelings by the
    involution's centralizer and the subtrees where the linear balance
    system leaves a forced pair no unused magnitude.  An involution whose
    balance system forces a label 0 or one magnitude on two pairs
    (pairing_kernel) is not searched, nor, with the non-degenerate flag, one
    whose pairs alone make a labeling degenerate.  Otherwise it is a direct
    exhaustive placement that skips branches that only swap twin vertices,
    and subtrees where the adjacency kernel forces a label that is not free.
    Raw labelings are keyed by label graph, read off their labels over g's
    edges.  What the searches skip holds no labeling, repeats label graphs
    already emitted earlier in the stream or fails the flags, so the order
    in which label graphs first appear, and with it the representative of
    each, is that of the search over every involution and every relabeling.
    An optional cap (an int, at least 1) stops after that many distinct
    classes, which makes existence checks cheap; it returns the first
    classes in that order.  With the connectivity flag a disconnected g has
    no labelings.  A configured time limit raises SearchTimeLimit rather
    than returning a silently incomplete list.
    """
    if not g.is_regular(4):
        raise SearchError("labeling search supports tetravalent graphs only")
    if max_results is not None and exact(max_results, "max_results", SearchError) < 1:
        raise SearchError("max_results must be an int of at least 1")
    if opts.require_connected and not g.is_connected():
        return []
    deadline = _deadline(opts)
    if opts.require_self_reverse:
        group = _graphs.automorphism_group(g)
        sigmas = _involutions_with_pairing(g, group, deadline)
        if opts.require_nondegenerate:
            # every labeling with such a partner map is degenerate
            sigmas = [s for s in sigmas if not pairing_is_degenerate(g, s)]
        # and with such a one there is none
        sigmas = [s for s in sigmas if pairing_kernel(g, s) is not None]
        searches = (_InvolutionSearch(g, s, group, deadline) for s in sigmas)
    else:
        searches = [_PlacementSearch(g, deadline)]
    # the predicates depend on the label graph only, and only the placement
    # stream repeats label graphs, so only classes found are remembered
    found: dict[tuple, Labeling] = {}
    edges = g.edges()
    for l in chain.from_iterable(search.run() for search in searches):
        key = _label_graph_key(g.n, edges, l.labels)
        if key not in found and _labeling_ok(g, l, opts):
            found[key] = l
            if len(found) == max_results:
                break
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
    """Rows (n, #SR, #gr, #VT) of non-degenerate self-reverse classes.

    opts.time_limit bounds the whole table: each order gets the time left.
    An incomplete table stops at the order the limit cut short, and its last
    row holds the partial counts of that order, zeros when no time was left
    to start it.
    """
    for n in (n_min, n_max):
        exact(n, "order", SearchError)
    if not (5 <= n_min <= n_max):
        raise SearchError("range must satisfy 5 <= n_min <= n_max")
    opts = replace(opts, require_nondegenerate=True, require_self_reverse=True)
    start = time.monotonic()
    deadline = _deadline(opts)
    rows = []
    complete = True
    for n in range(n_min, n_max + 1):
        left = None if deadline is None else deadline - time.monotonic()
        if left is not None and left <= 0:
            rows.append((n, 0, 0, 0))
            complete = False
            break
        _, report = enumerate_sr(n, replace(opts, time_limit=left))
        rows.append((n, report.sr_count, report.iso_class_count, report.vt_count))
        if not report.complete:
            complete = False
            break
    return Table1Report(rows=rows, complete=complete, elapsed=time.monotonic() - start)

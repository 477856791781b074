"""Two-stage feasibility solver over the four-level constraint graph.

Stage one (preprocessing) proves infeasibility in closed form: every domain
is narrowed to the intersection of the domains whose bound is k, each
constraint is checked once for a bound above its domain or k, and each
unordered pair whose bounds sum above k is checked with a necessary overlap
condition; when no constraint fails the first check and no two bounds sum
above k, no pair can fail and the pairs are not visited.  Stage two,
:func:`heuristic_backtrack`, is depth-first backtracking that picks the
tightest unmet constraint and tries its candidates by how many constraints
they touch.  Each candidate some domain holds is labelled by its place in
that value order, and each free domain is one integer bit mask over the
labels, so the next value is a lowest set bit and a disjointness test an
AND.  A failed candidate is excluded from the sibling branches that
follow, with every free candidate of the branching domain that it dominates
(every domain holding that one holds it too); a seat and availability
lookahead and a packing bound fail a node whose unmet bounds can no longer
all be reached.  These cuts remove only subtrees without a solution, so the
search returns exactly the committees of plain backtracking.  It runs on
the explicit stack of :func:`~dire.rules._depth_first`, so a committee of
any size fits under the recursion limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from dire.constraints import DiReInstance, fill_seats, holders, satisfies
from dire.rules import SolverTimeout, _depth_first


class SolverError(ValueError):
    pass


@dataclass
class DiReGraph:
    """Constraint graph for one instance.

    Level A is the committee size ``k``; level B the candidates 0..m-1;
    level C one node per unary constraint with a candidate domain and a
    lower bound.  An edge (candidate, constraint) exists iff the candidate
    is in the constraint's domain.  Domains shrink during preprocessing;
    the candidate index (``holders``) and the free domains live inside each
    search run, so a preprocessed graph can back concurrent searches.
    ``rank[c]`` is candidate c's place in the tie-break order, and
    ``padding_order`` returns the order that fills the free seats of a
    short solution, computed on the first call.
    """

    k: int
    m: int
    keys: list[str]
    domains: list[frozenset[int]]
    bounds: list[int]
    rank: Sequence[int]
    padding_order: Callable[[], Sequence[int]]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one solver run.

    ``timeout`` is wall-clock seconds (the experiments' default budget).
    ``max_committees`` caps the committees of the search's root harvest.
    """

    timeout: float = 2000.0
    max_committees: int = 100_000

    def __post_init__(self):
        if not self.timeout > 0:  # also rejects NaN, which no deadline would ever pass
            raise SolverError("timeout must be positive")
        if self.max_committees < 1:
            raise SolverError("max_committees must be >= 1")


def build_diregraph(instance: DiReInstance) -> DiReGraph:
    """One level-C node per group (domain = members, bound = diversity bound)
    and per population (domain = winning committee, bound = representation
    bound)."""
    constraints = instance.constraints()
    return DiReGraph(
        k=instance.k,
        m=instance.m,
        keys=[c.key for c in constraints],
        domains=[frozenset(c.domain) for c in constraints],
        bounds=[c.bound for c in constraints],
        rank=instance.profile._priority_rank,
        padding_order=instance.padding_order,
    )


def pairwise_feasible(graph: DiReGraph, i: int, j: int) -> bool:
    """Necessary condition for constraints i and j to be jointly satisfiable.

    Any k-committee with >= S_i members in D_i and >= S_j in D_j must put at
    least S_i + S_j - k members in the overlap, so a smaller overlap proves
    joint infeasibility.  Passing is not sufficient for feasibility.
    """
    if i == j:
        raise SolverError("pairwise check needs two distinct constraints")
    overlap = len(graph.domains[i] & graph.domains[j])
    return overlap >= graph.bounds[i] + graph.bounds[j] - graph.k


def domain_reduce(graph: DiReGraph, i: int, j: int) -> bool:
    """Drop candidates of D_i that cannot co-exist with constraint j.

    A candidate d survives iff some S_i-subset A of D_i containing d and
    some S_j-subset B of D_j fit in k seats together.  As
    |A | B| = S_i + S_j - |A & B|, that holds iff S_i + S_j - t <= k, where
    t is the largest overlap possible once d is in A: min(S_i, S_j, |I|)
    for d in I = D_i & D_j and min(S_i - 1, S_j, |I|) otherwise.  Unfolded,
    the test reads max(S_i, S_j, S_i + S_j - |I|) <= k for d in I and
    max(S_i, S_j + 1, S_i + S_j - |I|) <= k otherwise, so two cases are live:

    - D_i empties when either constraint cannot meet its bound on its own
      (S > min(|D|, k)) or the pair fails :func:`pairwise_feasible`;
    - otherwise D_i narrows to I when S_j = k, and is kept whole when
      S_j < k.

    Returns whether D_i was changed.
    """
    d_i, d_j = graph.domains[i], graph.domains[j]
    s_i, s_j = graph.bounds[i], graph.bounds[j]
    if s_i > len(d_i) or s_j > len(d_j):
        graph.domains[i] = frozenset()
        return True
    if max(s_i, s_j) > graph.k or len(d_i & d_j) < s_i + s_j - graph.k:
        survivors = frozenset()
    elif s_j == graph.k:
        survivors = d_i & d_j
    else:
        return False
    if len(survivors) == len(d_i):
        return False
    graph.domains[i] = survivors
    return True


def preprocess(graph: DiReGraph, deadline: float | None = None) -> str | None:
    """Stage one: narrow every domain to F, then check each pair once.

    A constraint whose bound is k puts the whole committee inside its
    domain, so every domain is first intersected with F, the intersection
    of those domains: the fixpoint of :func:`domain_reduce` over all ordered
    pairs, as a passing pair only narrows D_i to D_i & D_j with S_j = k.
    Inside F, :func:`domain_reduce` on a pair passing :func:`pairwise_feasible`
    only empties D_i, exactly when i or j is *short*: S > min(|D|, k).  So
    each pair in turn fails the overlap test, which can fail only where
    S_i + S_j > k, or names its short constraint, j first.  The F-narrowing
    is the only change to the graph; returns the reason that proves the
    instance infeasible, or None.  With no short constraint and no two
    bounds summing above k, no pair can fail, so None comes back without a
    pair visited (a vertex-cover reduction, with unit bounds, at k >= 2);
    otherwise the deadline is checked once per row i of pairs.
    """
    full = [domain for domain, bound in zip(graph.domains, graph.bounds) if bound == graph.k]
    if full:
        inside = frozenset.intersection(*full)
        graph.domains[:] = [domain & inside for domain in graph.domains]
    k, bounds, keys = graph.k, graph.bounds, graph.keys
    short = [bound > min(len(domain), k) for domain, bound in zip(graph.domains, bounds)]
    if not any(short) and sum(sorted(bounds)[-2:]) <= k:
        return None  # no pair can fail
    for i in range(len(bounds)):
        if deadline is not None and time.monotonic() > deadline:
            raise SolverTimeout("preprocessing timed out")
        for j in range(i + 1, len(bounds)):
            if bounds[i] + bounds[j] > k and not pairwise_feasible(graph, i, j):
                return f"pairwise infeasible: {keys[i]} vs {keys[j]}"
            if short[i] or short[j]:
                return f"domain emptied: {keys[j] if short[j] else keys[i]}"
    return None


def _mfc_order(graph: DiReGraph, held: Sequence[tuple[int, ...]]) -> list[int]:
    """The candidates some domain holds, by descending constraint out-degree
    (most-favorite first), ties by priority rank."""
    rank, m = graph.rank, graph.m  # rank[c] < m, so one int key orders by (-len(held[c]), rank[c])
    return sorted(filter(held.__getitem__, range(m)), key=lambda c: rank[c] - m * len(held[c]))


@dataclass(frozen=True)
class FeasibilityResult:
    """The committees a search found and what they prove.

    The search is exact, so no committees from a search the deadline did
    not cut proves infeasibility.  The search leaves ``reason`` and
    ``elapsed`` to :func:`solve_feasibility`.
    """

    committees: tuple[tuple[int, ...], ...]
    timed_out: bool
    reason: str | None = None  # what proved the instance infeasible, or None if nothing did
    elapsed: float = 0.0

    @property
    def proven_infeasible(self) -> bool:
        return not self.committees and not self.timed_out


class _SearchState:
    """One search's counters, kept through the holders table.  The
    candidates some domain holds are labelled in value order: ``order[l]``
    has label l and ``bits[c]`` is c's bit ``1 << l``, 0 for a candidate no
    domain holds.  ``inflow[i]`` counts the chosen members of D_i and the
    bit mask ``free[i]`` holds the labels of those neither chosen nor
    excluded, so a candidate c of D_i is blocked exactly when its bit is
    clear in ``free[i]``.  A search node restores the masks it changed by
    assigning back a copy of ``free`` taken on entry.  The methods take
    candidate ids; an id no domain holds is in no mask, so blocking it
    changes nothing.  :meth:`scan` is the search's lookahead, which the
    certified solve of :func:`~dire.winner.solve_drcwd` borrows."""

    def __init__(self, graph: DiReGraph, held: Sequence[tuple[int, ...]]):
        self.k, self.bounds, self.held = graph.k, graph.bounds, held
        self.sizes = [len(domain) for domain in graph.domains]
        self.inflow = [0] * len(self.sizes)
        self.order = _mfc_order(graph, held)
        self.bits = bits = [0] * graph.m
        self.free = free = [0] * len(self.sizes)
        for label, cand in enumerate(self.order):
            bit = bits[cand] = 1 << label
            for idx in held[cand]:
                free[idx] |= bit
        self.chosen: list[int] = []

    def add(self, cand: int) -> None:
        """Choose a free candidate; :meth:`remove` leaves it blocked (excluded)."""
        self.chosen.append(cand)
        free, inflow = self.free, self.inflow
        keep = ~self.bits[cand]
        for idx in self.held[cand]:
            free[idx] &= keep
            inflow[idx] += 1

    def remove(self) -> None:
        inflow = self.inflow
        for idx in self.held[self.chosen.pop()]:
            inflow[idx] -= 1

    def block(self, cand: int) -> None:
        free = self.free
        keep = ~self.bits[cand]
        for idx in self.held[cand]:
            free[idx] &= keep

    def unblock(self, cand: int) -> None:
        free = self.free
        bit = self.bits[cand]
        for idx in self.held[cand]:
            free[idx] |= bit

    def scan(self) -> int | None:
        """None when an unmet constraint needs more members than there are
        seats left or than its domain has free, or when the packing bound
        of :meth:`packs` fails; otherwise the first unmet constraint, in
        constraint order, with the least |D_i| per missing member (-1 once
        every bound is met).  One pass over the constraints checks each
        unmet one and lists it for :meth:`packs`."""
        seats = self.k - len(self.chosen)
        inflow, free = self.inflow, self.free
        unmet: list[tuple[int, int, int]] = []  # (free size, index, missing), in constraint order
        shortfall = 0
        for idx, bound in enumerate(self.bounds):
            missing = bound - inflow[idx]
            if missing > 0:
                size = free[idx].bit_count()
                if missing > seats or missing > size:
                    return None
                shortfall += missing
                unmet.append((size, idx, missing))
        # packing can only fail once the shortfalls together exceed the seats
        if shortfall > seats and not self.packs(unmet, seats):
            return None
        sizes = self.sizes
        best = -1
        best_size = best_missing = 0
        for _, idx, missing in unmet:
            size = sizes[idx]  # size / missing compared exactly, by cross-multiplication
            if best < 0 or size * best_missing < best_size * missing:
                best, best_size, best_missing = idx, size, missing
        return best

    def packs(self, unmet: list[tuple[int, int, int]], seats: int) -> bool:
        """The packing bound: False when unmet constraints with pairwise
        disjoint free domains need more than ``seats`` members together,
        as disjoint domains need distinct new members.  ``unmet`` is the
        list of (free size, index, missing) that :meth:`scan` built; it is
        taken in ascending order of free domain size (ties by constraint
        order), and each constraint whose free domain misses those already
        taken is kept.  On a vertex-cover reduction this is the matching
        lower bound: uncovered edges with no free endpoint in common."""
        free = self.free
        claimed = need = 0
        for _, idx, missing in sorted(unmet):
            members = free[idx]
            if not claimed & members:
                need += missing
                if need > seats:
                    return False
                claimed |= members
        return True


def heuristic_backtrack(
    graph: DiReGraph,
    config: SolverConfig | None = None,
    deadline: float | None = None,
) -> FeasibilityResult:
    """Depth-first search that harvests feasible committees at its root.

    Variable choice: the unsatisfied constraint minimizing
    |D_i| / (S_i - inflow), ties by constraint order.
    Value order: candidates by descending out-degree, ties by priority
    rank (:func:`_mfc_order`, the labels of :class:`_SearchState`); a node
    tries next the lowest set bit of the branching domain's free mask above
    the last label it tried, so it passes over no chosen or excluded value.
    A partial solution is accepted once every constraint's in-flow meets
    its bound, then padded to exactly k members.

    Below the root the search stops at its first solution.  The root keeps
    the padded first solution of each of its branches, restores the branch
    value and goes on to the next branch, until it holds
    ``config.max_committees`` distinct committees.  The harvest is thus the
    committees of the successful root branches in root order; with
    ``max_committees=1`` the search stops at the first committee.

    The search never re-enters a subtree it has proven empty:

    - *sibling exclusion*: once the branch "add c" fails at a node, c is
      excluded (its bit cleared in the free masks) from the later sibling
      branches and their subtrees, and restored when the node returns;
    - *dominance*: every free member d of the branching domain (a set bit
      of its mask) that c dominates (every domain holding d holds c:
      ``held[c] >= held[d]`` as sets, twins included) is excluded and
      restored with c;
    - *lookahead*: a node fails at once when an unmet constraint needs more
      members than there are seats left, or than its free domain (neither
      chosen nor excluded) still holds;
    - *packing bound*: a node fails when unmet constraints whose free
      domains are pairwise disjoint need more members together than there
      are seats left, as each needs its own (:meth:`_SearchState.packs`).

    Only subtrees without a solution (at most k members meeting every
    bound) are cut.  At a node with chosen set P and excluded set X, no
    solution holding P holds a member of X, so the failure of "add c",
    which proves that none holds P + c and avoids X, proves that none holds
    P + c.  A solution Q holding P + d, with c free and dominating d, would
    miss c; but then Q - d + c, of Q's size, would hold P + c and be a
    solution, as every bound is a lower bound and every domain holding d
    holds c.  So no solution holds P + d either.  Variable choice and value
    order are those of the plain search, so the search returns the same
    committees, in the same order, as plain backtracking.  No committees
    means the search space was exhausted, proving infeasibility; when the
    deadline passes, the committees found so far come back with
    ``timed_out=True``.
    """
    config = config or SolverConfig()
    if deadline is None:
        deadline = time.monotonic() + config.timeout
    held = holders(graph.domains, graph.m)
    state = _SearchState(graph, held)
    committees: list[tuple[int, ...]] = []
    found = False  # the outcome of the subtree searched last

    def search(at_root: bool) -> Iterator[tuple[bool]]:
        # a node of rules._depth_first: sets found to whether its subtree
        # holds a solution, and leaves the state as it found it
        nonlocal found
        if time.monotonic() > deadline:
            raise SolverTimeout("backtracking timed out")
        variable = state.scan()
        found = variable is not None
        if not found:
            return
        if variable < 0:  # every bound met, |chosen| <= k by construction
            committee = fill_seats(state.chosen, graph.padding_order, graph.k)
            if committee not in committees:  # two root branches can pad to one committee
                committees.append(committee)
            return
        free, order = state.free, state.order
        saved = free[:]  # restored on return, undoing every exclusion at once
        any_found = False
        start = 0  # the first label not tried yet
        while live := free[variable] >> start:
            start += (live & -live).bit_length()  # one past the next free value's label
            cand = order[start - 1]
            state.add(cand)
            yield (False,)
            state.remove()
            if found:
                any_found = True
                if at_root and len(committees) < config.max_committees:
                    state.unblock(cand)  # cand is in a committee, so later root branches may use it
                    continue
                break
            # cand stays blocked: excluded, with the free members it dominates
            dominator = set(held[cand])
            rest, label = free[variable], -1  # its set bits, lowest first
            while rest:
                step = (rest & -rest).bit_length()
                rest >>= step
                label += step
                other = order[label]
                if dominator.issuperset(held[other]):
                    state.block(other)
        free[:] = saved
        found = any_found

    try:
        _depth_first(search, True)
    except SolverTimeout:
        return FeasibilityResult(tuple(committees), timed_out=True)
    return FeasibilityResult(tuple(committees), timed_out=False)


def enumerate_feasible(
    graph: DiReGraph,
    config: SolverConfig | None = None,
    deadline: float | None = None,
) -> FeasibilityResult:
    """The root harvest of :func:`heuristic_backtrack` on a preprocessed graph.

    Kept as its own function because the benchmark tracer counts the
    committees it returns.
    """
    return heuristic_backtrack(graph, config, deadline)


def solve_feasibility(
    instance: DiReInstance,
    config: SolverConfig | None = None,
) -> FeasibilityResult:
    """Full pipeline: build the graph, preprocess, search, verify.

    Every returned committee is re-checked against the instance constraints
    before being reported.
    """
    config = config or SolverConfig()
    start = time.monotonic()
    deadline = start + config.timeout
    graph = build_diregraph(instance)
    try:
        reason = preprocess(graph, deadline)
    except SolverTimeout:
        return FeasibilityResult((), True, None, time.monotonic() - start)
    if reason is not None:
        return FeasibilityResult((), False, reason, time.monotonic() - start)
    enum = enumerate_feasible(graph, config, deadline=deadline)
    for committee in enum.committees:
        check = satisfies(instance, committee)
        if not check.ok:  # pragma: no cover - guards solver soundness
            raise SolverError(f"solver produced an unsatisfying committee {committee}: {check.violations}")
    reason = "search space exhausted" if enum.proven_infeasible else None
    return replace(enum, reason=reason, elapsed=time.monotonic() - start)

"""Two-stage feasibility solver over the four-level constraint graph.

Stage one (preprocessing) prunes the candidates that cannot appear in any
committee meeting two bounds at once, in closed form: every domain is
narrowed to the intersection of the domains whose bound is k, and then each
unordered pair of unary constraints is checked once with a necessary packing
condition.  Stage two is depth-first backtracking that repeatedly picks the
tightest unsatisfied constraint (fewest remaining values per missing seat)
and tries its candidates in order of how many constraints they touch.  A
failed branch proves that no feasible committee extends it, so the search
excludes that candidate, and every candidate with the same constraint
signature, from the sibling branches that follow; a seat and availability
lookahead fails a node as soon as some unmet bound can no longer be reached,
and a packing bound fails it when unmet constraints with pairwise disjoint
free domains need more members together than there are seats left.
A constraint's free domain (its members neither chosen nor excluded) is
the one record of the search state that the lookahead, the packing bound
and the value loop all read.  These cuts remove only subtrees without a
solution, so unseeded runs return exactly the committees of plain
backtracking.  One search harvests several feasible committees: below the
root it stops at the first solution, while the root keeps the first
solution of each of its branches and goes on to the next.  A separate exhaustive mode enumerates the complete feasible set for
oracle-scale instances under the same lookahead, which again cuts only
subtrees without a committee, so the output is that of the uncut DFS.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from dire.constraints import DiReInstance, fill_seats, holders, satisfies
from dire.rules import SolverTimeout


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
    ``max_committees`` caps the committees one enumeration collects.
    ``seed`` switches heuristic tie-breaking from deterministic order to
    seeded randomization.
    """

    timeout: float = 2000.0
    max_committees: int = 100_000
    seed: int | None = None

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
    of those domains.  That is the fixpoint of :func:`domain_reduce` over
    all ordered pairs: a passing pair only ever narrows D_i to D_i & D_j
    with S_j = k.  Then each unordered pair gets :func:`pairwise_feasible`
    and one :func:`domain_reduce`, which with D_i already inside F can only
    empty D_i, when i or j cannot meet its bound alone.  Mutates the
    graph's domains and returns the reason that proves the instance
    infeasible, or None.
    """
    full = [domain for domain, bound in zip(graph.domains, graph.bounds) if bound == graph.k]
    if full:
        inside = frozenset.intersection(*full)
        graph.domains[:] = [domain & inside for domain in graph.domains]
    for i, j in itertools.combinations(range(len(graph.domains)), 2):
        if deadline is not None and time.monotonic() > deadline:
            raise SolverTimeout("preprocessing timed out")
        if not pairwise_feasible(graph, i, j):
            return f"pairwise infeasible: {graph.keys[i]} vs {graph.keys[j]}"
        if domain_reduce(graph, i, j):  # name the constraint that cannot meet its bound
            short = j if graph.bounds[j] > min(len(graph.domains[j]), graph.k) else i
            return f"domain emptied: {graph.keys[short]}"
    return None


def _mfc_order(graph: DiReGraph, held: Sequence[tuple[int, ...]], rng: random.Random | None) -> list[int]:
    """Candidates by descending constraint out-degree (most-favorite first)."""
    rank = graph.rank
    order = sorted(range(graph.m), key=lambda c: (-len(held[c]), rank[c]))
    if rng is not None:
        # shuffle within exact-degree ties only
        shuffled: list[int] = []
        for _, group in itertools.groupby(order, key=lambda c: len(held[c])):
            block = list(group)
            rng.shuffle(block)
            shuffled.extend(block)
        order = shuffled
    return order


def _pad_solution(graph: DiReGraph, solution: Iterable[int]) -> tuple[int, ...]:
    """Fill a partial solution up to k with the best-ranked unused candidates."""
    return fill_seats(solution, graph.padding_order, graph.k)


@dataclass(frozen=True)
class FeasibilityResult:
    """The committees a search found and what they prove.

    ``complete`` is True when the committees provably equal the full
    feasible set, which with no committees proves infeasibility.  The
    searches leave ``reason`` and ``elapsed`` to :func:`solve_feasibility`.
    """

    committees: tuple[tuple[int, ...], ...]
    complete: bool
    timed_out: bool
    reason: str | None = None  # what proved the instance infeasible, or None if nothing did
    elapsed: float = 0.0

    @property
    def proven_infeasible(self) -> bool:
        return self.complete and not self.committees and not self.timed_out


class _SearchState:
    """One search's counters, kept through the holders table: ``inflow[i]``
    counts the chosen members of D_i and ``free_sets[i]`` holds those
    neither chosen nor excluded, so a candidate c of D_i is blocked exactly
    when it is missing from ``free_sets[i]``.  :meth:`scan` is the
    lookahead of both searches."""

    def __init__(self, graph: DiReGraph, held: Sequence[tuple[int, ...]]):
        self.k, self.bounds, self.held = graph.k, graph.bounds, held
        self.sizes = [len(domain) for domain in graph.domains]
        self.inflow = [0] * len(self.sizes)
        self.free_sets = [set(domain) for domain in graph.domains]
        self.chosen: list[int] = []

    def add(self, cand: int) -> None:
        """Choose a free candidate; :meth:`remove` leaves it blocked (excluded)."""
        self.chosen.append(cand)
        self.block(cand)
        for idx in self.held[cand]:
            self.inflow[idx] += 1

    def remove(self) -> None:
        for idx in self.held[self.chosen.pop()]:
            self.inflow[idx] -= 1

    def block(self, cand: int) -> None:
        free_sets = self.free_sets
        for idx in self.held[cand]:
            free_sets[idx].discard(cand)

    def unblock(self, cand: int) -> None:
        free_sets = self.free_sets
        for idx in self.held[cand]:
            free_sets[idx].add(cand)

    def scan(self) -> list[int] | None:
        """None when an unmet constraint needs more members than there are
        seats left or than its domain has free, or when the packing bound
        of :meth:`packs` fails; otherwise the unmet constraints tied for the
        least |D_i| per missing member, in constraint order (none once every
        bound is met)."""
        seats = self.k - len(self.chosen)
        inflow, free_sets, sizes = self.inflow, self.free_sets, self.sizes
        ties: list[int] = []
        best_size = best_missing = shortfall = 0
        for idx, bound in enumerate(self.bounds):
            missing = bound - inflow[idx]
            if missing <= 0:
                continue
            if missing > seats or missing > len(free_sets[idx]):
                return None
            shortfall += missing
            size = sizes[idx]  # size / missing compared exactly, by cross-multiplication
            if not ties or size * best_missing < best_size * missing:
                best_size, best_missing, ties = size, missing, [idx]
            elif size * best_missing == best_size * missing:
                ties.append(idx)
        # packing can only fail once the shortfalls together exceed the seats
        if shortfall > seats and not self.packs(seats):
            return None
        return ties

    def packs(self, seats: int) -> bool:
        """The packing bound: False when unmet constraints with pairwise
        disjoint free domains need more than ``seats`` members together,
        as disjoint domains need distinct new members.  Unmet constraints
        are taken in ascending order of free domain size (ties by
        constraint order), and each one whose free domain misses those
        already taken is kept.  On a vertex-cover reduction this is the
        matching lower bound: uncovered edges with no free endpoint in
        common."""
        inflow, free_sets, bounds = self.inflow, self.free_sets, self.bounds
        unmet = sorted((len(free_sets[idx]), idx) for idx, bound in enumerate(bounds) if bound > inflow[idx])
        claimed: set[int] = set()
        need = 0
        for _, idx in unmet:
            members = free_sets[idx]
            if claimed.isdisjoint(members):
                need += bounds[idx] - inflow[idx]
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
    |D_i| / (S_i - inflow) (ties by constraint order, or seeded random).
    Value order: candidates by descending out-degree.  A partial solution
    is accepted once every constraint's in-flow meets its bound, then
    padded to exactly k members.

    Below the root the search stops at its first solution.  The root keeps
    the padded first solution of each of its branches, restores the branch
    value and goes on to the next branch, until it holds
    ``config.max_committees`` distinct committees.  The harvest is thus the
    committees of the successful root branches in root order; with
    ``max_committees=1`` the search stops at the first committee.

    The search never re-enters a subtree it has proven empty:

    - *sibling exclusion*: once the branch "add c" fails at a node, no
      feasible committee contains the node's members plus c, so c is
      excluded (dropped from the free domains) from the later sibling
      branches and their subtrees, and restored when the node returns;
    - *signature symmetry*: candidates lying in exactly the same constraint
      domains are interchangeable (swapping one for another keeps every
      in-flow), so when one fails at a node its twins are excluded too;
    - *lookahead*: a node fails at once when an unmet constraint needs more
      members than there are seats left, or than its free domain (neither
      chosen nor excluded) still holds;
    - *packing bound*: a node fails when unmet constraints whose free
      domains are pairwise disjoint need more members together than there
      are seats left, as each needs its own (:meth:`_SearchState.packs`).

    Only subtrees without a solution are cut, and variable choice and value
    order are those of the plain search, so unseeded runs return the same
    committees as plain backtracking.  No committees with ``complete=True``
    means the search space was exhausted, proving infeasibility; when the
    deadline passes, the committees found so far come back with
    ``timed_out=True``.
    """
    config = config or SolverConfig()
    if deadline is None:
        deadline = time.monotonic() + config.timeout
    rng = random.Random(config.seed) if config.seed is not None else None
    held = holders(graph.domains, graph.m)
    rank_of = {c: idx for idx, c in enumerate(_mfc_order(graph, held, rng))}
    by_signature: dict[tuple[int, ...], list[int]] = {}
    for cand in range(graph.m):
        by_signature.setdefault(held[cand], []).append(cand)
    ordered = [sorted(domain, key=rank_of.__getitem__) for domain in graph.domains]
    state = _SearchState(graph, held)
    committees: list[tuple[int, ...]] = []

    def search(at_root: bool) -> bool:
        """Whether the subtree holds a solution; leaves the state as it found it."""
        if time.monotonic() > deadline:
            raise SolverTimeout("backtracking timed out")
        ties = state.scan()
        if ties is None:
            return False
        if not ties:
            # every bound met, |chosen| <= k by construction
            committee = _pad_solution(graph, state.chosen)
            if committee not in committees:  # two root branches can pad to one committee
                committees.append(committee)
            return True
        variable = rng.choice(ties) if rng is not None and len(ties) > 1 else ties[0]
        free = state.free_sets[variable]  # every value and its twins lie in D_variable
        found = False
        excluded: list[int] = []
        for cand in ordered[variable]:
            if cand not in free:
                continue
            state.add(cand)
            branch_found = search(False)
            state.remove()
            if branch_found:
                found = True
                state.unblock(cand)  # cand is in a committee, so later root branches may use it
                if at_root and len(committees) < config.max_committees:
                    continue
                break
            # cand stays blocked: excluded, together with its free twins
            excluded.append(cand)
            for twin in by_signature[held[cand]]:
                if twin in free:
                    state.block(twin)
                    excluded.append(twin)
        for cand in excluded:
            state.unblock(cand)
        return found

    try:
        search(True)
    except SolverTimeout:
        return FeasibilityResult(tuple(committees), complete=False, timed_out=True)
    finally:
        # the recursive closure holds itself through its cell; clearing the
        # cell frees the search state now instead of at a cycle collection
        del search
    return FeasibilityResult(tuple(committees), complete=not committees, timed_out=False)


def _enumerate_exhaustive(
    graph: DiReGraph, config: SolverConfig, deadline: float
) -> FeasibilityResult:
    """Complete include/exclude DFS over candidates; returns every feasible
    k-committee, ``complete`` unless the enumeration cap or the deadline cut
    it short.  On timeout the committees found so far are still returned.

    Candidates passed in the order stay blocked, so ``free_sets`` holds the
    undecided members of each domain, and the lookahead and packing bound
    of :func:`heuristic_backtrack` cut only subtrees without a committee:
    the output, its order and its truncation are those of the uncut DFS.
    """
    held = holders(graph.domains, graph.m)
    order = _mfc_order(graph, held, None)
    state = _SearchState(graph, held)
    results: list[tuple[int, ...]] = []
    truncated = False

    def dfs(pos: int) -> None:
        # recurse on the include branch only and loop over the exclude
        # branch, so the depth is at most k + 1 whatever m is
        nonlocal truncated
        start = pos
        while not truncated:
            if time.monotonic() > deadline:
                raise SolverTimeout("exhaustive enumeration timed out")
            if state.scan() is None:  # dead; at k members this means a bound is unmet
                break
            if len(state.chosen) == graph.k:
                truncated = len(results) >= config.max_committees
                if not truncated:
                    results.append(tuple(sorted(state.chosen)))
                break
            if len(state.chosen) + (graph.m - pos) < graph.k:
                break
            cand = order[pos]
            state.add(cand)
            dfs(pos + 1)
            state.remove()  # cand stays blocked: excluded for the rest of the loop
            pos += 1
        for cand in order[start:pos]:
            state.unblock(cand)

    try:
        dfs(0)
    except SolverTimeout:
        return FeasibilityResult(tuple(results), complete=False, timed_out=True)
    finally:
        del dfs  # as in heuristic_backtrack: break the closure's self-reference
    return FeasibilityResult(tuple(results), complete=not truncated, timed_out=False)


def enumerate_feasible(
    graph: DiReGraph,
    config: SolverConfig | None = None,
    exhaustive: bool = False,
    deadline: float | None = None,
) -> FeasibilityResult:
    """Collect feasible committees from a preprocessed graph.

    The default mode is the root harvest of :func:`heuristic_backtrack`: at
    most one committee per root branch, with no completeness guarantee
    beyond the feasibility verdict.  ``exhaustive=True`` switches to a
    complete DFS that provably returns the full feasible set; use it at
    oracle scale.
    """
    config = config or SolverConfig()
    if deadline is None:
        deadline = time.monotonic() + config.timeout
    search = _enumerate_exhaustive if exhaustive else heuristic_backtrack
    return search(graph, config, deadline)


def solve_feasibility(
    instance: DiReInstance,
    config: SolverConfig | None = None,
    exhaustive: bool = False,
) -> FeasibilityResult:
    """Full pipeline: build the graph, preprocess, enumerate, verify.

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
        return FeasibilityResult((), False, True, None, time.monotonic() - start)
    if reason is not None:
        return FeasibilityResult((), True, False, reason, time.monotonic() - start)
    enum = enumerate_feasible(graph, config, exhaustive=exhaustive, deadline=deadline)
    for committee in enum.committees:
        check = satisfies(instance, committee)
        if not check.ok:  # pragma: no cover - guards solver soundness
            raise SolverError(f"solver produced an unsatisfying committee {committee}: {check.violations}")
    reason = "search space exhausted" if enum.proven_infeasible else None
    return replace(enum, reason=reason, elapsed=time.monotonic() - start)

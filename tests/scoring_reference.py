"""Code the package replaced, kept as test-only references.

The scoring functions rescore from the rankings on each call, exactly as
the package did before its winner searches and scoring loops read one
``SatisfactionTable`` per (profile, rule vector, voter list).
:func:`exact_monroe_assign`, the oracle for the greedy balanced
assignment, searches every balanced assignment, over every choice of the
members that take the larger loads.

:func:`brute_force_oracle` scores every k-committee that meets every
bound, the exact answer of the exhaustive ``solve_drcwd`` at desk scale.
:func:`plain_backtrack` is the default feasibility search with none of its
cuts, whose committees the cut search must return exactly.
The special-case solve routes, :func:`mu1_fast_path` (one candidate
attribute, no voter attributes, separable rule) and :func:`fpt_report`
(representation only, unit bounds), are exact on their classes and
independent of the branch-and-bound that the exhaustive ``solve_drcwd``
runs, so they serve as its oracles at paper scale, where the brute-force
oracle cannot go.  :func:`has_vertex_cover` and
:func:`min_vertex_cover_size` answer the vertex-cover questions the
reductions embed, and :func:`kendall_tau` measures the Mallows samples.
"""

import itertools
import time
from fractions import Fraction
from math import comb
from typing import Sequence

from dire.constraints import DiReInstance, InstanceError, fill_seats, holders, satisfies, unsatisfied_fraction
from dire.experiment import METRIC_ORACLE_CAP
from dire.profiles import Committee
from dire.rules import (
    DEFAULT_ORACLE_CAP,
    KBORDA,
    MONROE,
    Rule,
    RuleError,
    SatisfactionTable,
    _best_of,
    _depth_first,
    borda_vector,
    validate_scoring,
)
from dire.reductions import InputGraph
from dire.winner import STATUS_HEURISTIC, STATUS_INFEASIBLE, STATUS_OPTIMAL, SolveReport, _report


def candidate_score(profile, scoring, candidate, voters=None):
    s = validate_scoring(scoring, profile.m)
    voter_ids = range(profile.n) if voters is None else voters
    return sum(s[profile._positions[v][candidate] - 1] for v in voter_ids)


def candidate_scores(profile, scoring, voters=None):
    s = validate_scoring(scoring, profile.m)
    voter_ids = range(profile.n) if voters is None else list(voters)
    totals = [0] * profile.m
    for v in voter_ids:
        row = profile._positions[v]
        for c in range(profile.m):
            totals[c] += s[row[c] - 1]
    return totals


def monroe_assign(profile, committee, scoring=None, voters=None):
    """The greedy balanced assignment, sorting the free voters per member."""
    members = sorted(set(committee), key=profile.priority_key)
    if not members:
        raise RuleError("cannot assign voters to an empty committee")
    vector = borda_vector(profile.m) if scoring is None else validate_scoring(scoring, profile.m)
    voter_ids = list(range(profile.n)) if voters is None else sorted(voters)
    n, k = len(voter_ids), len(members)
    base, extra = divmod(n, k)
    loads = [base + 1 if i < extra else base for i in range(k)]
    sat = {(v, c): vector[profile._positions[v][c] - 1] for v in voter_ids for c in members}
    assignment = {}
    unassigned = set(voter_ids)
    for member, load in zip(members, loads):
        chosen = sorted(unassigned, key=lambda v: (-sat[(v, member)], v))[:load]
        for v in chosen:
            assignment[v] = member
        unassigned -= set(chosen)
    return assignment, sum(sat[(v, c)] for v, c in assignment.items())


def exact_monroe_assign(profile, committee, scoring=None, voters=None):
    """The optimal balanced assignment, by searching every one: each member
    represents floor(n/k) or ceil(n/k) voters, and every choice of the
    n mod k members that take ceil(n/k) is tried.  Exhaustive, so for small
    elections only.  Returns (voter -> member mapping, total satisfaction).
    """
    members = sorted(set(committee), key=profile.priority_key)
    if not members:
        raise RuleError("cannot assign voters to an empty committee")
    table = SatisfactionTable(profile, Rule(MONROE, scoring), voters)
    n, k = len(table.voters), len(members)
    base, extra = divmod(n, k)
    sat = {(v, c): table.rows[c][i] for i, v in enumerate(table.voters) for c in members}

    best_total = -1
    best = {}
    current = {}

    def assign(idx, remaining, total):
        # a node of _depth_first: members[idx] takes each subset in turn
        nonlocal best_total, best
        if idx == k:
            if total > best_total:
                best_total = total
                best = dict(current)
            return
        # repeated voter ids count in the loads but are one voter here, so a
        # member takes what is left when fewer distinct voters remain
        member, load = members[idx], min(loads[idx], len(remaining))
        for subset in itertools.combinations(sorted(remaining), load):
            for v in subset:
                current[v] = member
            yield idx + 1, remaining - set(subset), total + sum(sat[(v, member)] for v in subset)
            for v in subset:
                del current[v]

    for larger in itertools.combinations(range(k), extra):  # the members that take ceil(n/k)
        loads = [base + (idx in larger) for idx in range(k)]
        _depth_first(assign, 0, set(table.voters), 0)
    return best, best_total


def score_committee(profile, rule, committee, voters=None):
    members = tuple(sorted(set(committee)))
    if not members:
        return 0
    if any(not 0 <= c < profile.m for c in members):
        raise RuleError(f"committee {members} contains out-of-range candidate ids")
    vector = rule.vector(profile.m)
    if rule.kind == KBORDA:
        voter_ids = None if voters is None else list(voters)
        return sum(candidate_score(profile, vector, c, voter_ids) for c in members)
    if rule.kind == MONROE:
        return monroe_assign(profile, members, scoring=vector, voters=voters)[1]
    voter_ids = range(profile.n) if voters is None else voters
    return sum(vector[min(profile._positions[v][c] for c in members) - 1] for v in voter_ids)


def greedy_max(profile, rule, k, voters=None):
    chosen = []
    for _ in range(k):
        best_gain, best_cands = None, []
        current = score_committee(profile, rule, chosen, voters) if chosen else 0
        for c in range(profile.m):
            if c in chosen:
                continue
            gain = score_committee(profile, rule, chosen + [c], voters) - current
            if best_gain is None or gain > best_gain:
                best_gain, best_cands = gain, [c]
            elif gain == best_gain:
                best_cands.append(c)
        chosen.append(min(best_cands, key=profile.priority_key))
    return Committee(chosen)


def exhaustive_max(profile, rule, k, voters=None):
    best_score, best = None, None
    for combo in itertools.combinations(range(profile.m), k):
        score = score_committee(profile, rule, combo, voters)
        if best_score is None or score > best_score:
            best_score, best = score, combo
    return Committee(best), best_score


def table_max(table, k):
    """The full enumeration the branch-and-bound replaced: every k-committee
    scored through the table in ``combinations`` order, the first best kept."""
    best, best_score = None, None
    for members in itertools.combinations(range(table.profile.m), k):
        score = table.score(members)
        if best_score is None or score > best_score:
            best, best_score = members, score
    return best, best_score


def topk_by_score(profile, vector, k, voters=None):
    scores = candidate_scores(profile, vector, voters)
    order = sorted(range(profile.m), key=lambda c: (-scores[c], profile.priority_key(c)))
    return Committee(order[:k])


def population_winning_committee(profile, population, rule, k, oracle_cap=DEFAULT_ORACLE_CAP):
    voter_ids = sorted(set(population))
    vector = rule.vector(profile.m)
    if rule.kind == KBORDA:
        return topk_by_score(profile, vector, k, voter_ids)
    if comb(profile.m, k) <= oracle_cap:
        return exhaustive_max(profile, rule, k, voter_ids)[0]
    return greedy_max(profile, rule, k, voter_ids)


def unconstrained_winner(profile, rule, k, oracle_cap=DEFAULT_ORACLE_CAP):
    """(committee, score, mode) as ``rules.unconstrained_winner`` reports them."""
    if rule.kind == KBORDA:
        committee = topk_by_score(profile, rule.vector(profile.m), k)
        return committee, score_committee(profile, rule, committee), "topk"
    if comb(profile.m, k) <= oracle_cap:
        return (*exhaustive_max(profile, rule, k), "exhaustive")
    committee = greedy_max(profile, rule, k)
    return committee, score_committee(profile, rule, committee), "greedy"


def best_unsatisfied_fraction(instance, found):
    """The exact minimum by one ``unsatisfied_fraction`` call per committee
    below the metric cap; above it, the greedy committee that recounts the
    total shortfall of every trial set."""
    if found:
        return Fraction(0), False
    if comb(instance.m, instance.k) <= METRIC_ORACLE_CAP:
        best = min(
            unsatisfied_fraction(instance, combo)
            for combo in itertools.combinations(range(instance.m), instance.k)
        )
        return best, False
    constraints = instance.constraints()
    chosen = set()
    while len(chosen) < instance.k:
        def deficit_after(c):
            trial = chosen | {c}
            return sum(max(0, con.bound - len(trial & con.domain)) for con in constraints)
        candidates = [c for c in range(instance.m) if c not in chosen]
        chosen.add(min(candidates, key=lambda c: (deficit_after(c), instance.profile.priority_key(c))))
    return unsatisfied_fraction(instance, chosen), True


class OracleCapExceeded(ValueError):
    pass


def brute_force_oracle(instance: DiReInstance, oracle_cap: int = DEFAULT_ORACLE_CAP) -> SolveReport:
    """Enumerate every k-committee, filter by the constraints, keep the best.

    Exact but exponential; refuses instances above the cap.
    """
    start = time.monotonic()
    total = comb(instance.m, instance.k)
    if total > oracle_cap:
        raise OracleCapExceeded(f"C({instance.m}, {instance.k}) = {total} exceeds cap {oracle_cap}")
    pairs = [(set(c.domain), c.bound) for c in instance.constraints()]
    feasible = (combo for combo in itertools.combinations(range(instance.m), instance.k)
                if all(len(domain.intersection(combo)) >= bound for domain, bound in pairs))
    members, score, _, _ = _best_of(SatisfactionTable(instance.profile, instance.rule), feasible)
    if members is None:
        return _report(instance, start, STATUS_INFEASIBLE, examined=total,
                       reason=f"none of the {total} {instance.k}-committees meets every bound")
    return _report(instance, start, STATUS_OPTIMAL, members, score, total)


def plain_backtrack(graph, max_committees: int) -> tuple[tuple[int, ...], ...]:
    """The committees of plain backtracking on a preprocessed constraint
    graph: the default search's variable choice (the unmet constraint with
    the least |D_i| per missing member, ties by constraint order), its
    value order (held candidates by descending number of holding domains,
    ties by priority rank), its root harvest and its padding, with no
    exclusion, lookahead or packing bound.  A node fails only when it has k
    members and a bound is still unmet."""
    held = holders(graph.domains, graph.m)
    values = sorted((c for c in range(graph.m) if held[c]), key=lambda c: (-len(held[c]), graph.rank[c]))
    inflow = [0] * len(graph.domains)
    chosen: list[int] = []
    committees: list[tuple[int, ...]] = []

    def search(at_root: bool) -> bool:
        unmet = [(Fraction(len(domain), bound - inflow[idx]), idx)
                 for idx, (domain, bound) in enumerate(zip(graph.domains, graph.bounds))
                 if inflow[idx] < bound]
        if not unmet:
            committee = fill_seats(chosen, graph.padding_order, graph.k)
            if committee not in committees:
                committees.append(committee)
            return True
        if len(chosen) == graph.k:
            return False
        domain = graph.domains[min(unmet)[1]]
        found = False
        for cand in values:
            if cand not in domain or cand in chosen:
                continue
            chosen.append(cand)
            for idx in held[cand]:
                inflow[idx] += 1
            success = search(False)
            chosen.pop()
            for idx in held[cand]:
                inflow[idx] -= 1
            if success:
                found = True
                if not (at_root and len(committees) < max_committees):
                    break
        return found

    search(True)
    return tuple(committees)


def kendall_tau(left: Sequence[int], right: Sequence[int]) -> int:
    """Number of candidate pairs the two rankings order differently."""
    rank = {c: i for i, c in enumerate(right)}
    seq = [rank[c] for c in left]
    return sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )


def _smallest_cover(graph: InputGraph, limit: int) -> int:
    """The size of a minimum vertex cover, or ``limit + 1`` when that is
    above ``limit``: one walk over the subsets in increasing size (small
    graphs only)."""
    for size in range(min(limit, graph.vertices) + 1):
        for subset in itertools.combinations(range(graph.vertices), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in graph.edges):
                return size
    return limit + 1


def has_vertex_cover(graph: InputGraph, k: int) -> bool:
    """Exhaustively test for a vertex cover of size <= k (small graphs only)."""
    return k >= graph.vertices or _smallest_cover(graph, k) <= k


def min_vertex_cover_size(graph: InputGraph) -> int:
    return _smallest_cover(graph, graph.vertices)


class PreconditionError(ValueError):
    pass


def mu1_fast_path(instance: DiReInstance) -> SolveReport:
    """Optimal solve for one candidate attribute, no voter attributes, separable rule.

    Takes the top-scoring candidates of each group up to its bound, then
    fills the remaining seats with the best unused candidates.  For a
    separable rule this is exact.
    """
    start = time.monotonic()
    if instance.mu != 1 or instance.pi != 0:
        raise PreconditionError(f"fast path needs mu=1, pi=0; got mu={instance.mu}, pi={instance.pi}")
    if not instance.rule.separable:
        raise PreconditionError(f"fast path needs a separable rule, got {instance.rule.kind}")
    ranked = instance.padding_order()

    attr = instance.scheme.candidate_attributes[0]
    chosen: list[int] = []
    for label, members in attr.groups:
        bound = instance.diversity_bounds[(attr.name, label)]
        chosen.extend([c for c in ranked if c in members][:bound])
    if len(chosen) > instance.k:
        return _report(instance, start, STATUS_INFEASIBLE,
                       reason=f"diversity bounds need {len(chosen)} seats, k = {instance.k}")
    chosen = fill_seats(chosen, instance.padding_order, instance.k)
    score = score_committee(instance.profile, instance.rule, chosen)
    return _report(instance, start, STATUS_OPTIMAL, chosen, score, 1)


def _population_covers(instance: DiReInstance) -> list[frozenset[int]]:
    return [frozenset(wc) for wc in
            (instance.winning_committees[(attr.name, label)]
             for attr in instance.scheme.voter_attributes
             for label, _ in attr.groups)]


def dominated_candidate_pruning(instance: DiReInstance) -> list[int]:
    """Drop candidates that another candidate beats on cover and on score.

    Candidate x dominates y when the populations whose winning committees
    contain y are a subset of those containing x and score(x) >= score(y);
    candidates equal on both count x as dominating y when x comes first in
    the tie-break order.  Candidates that cover no population never enter
    a hitting set and are dropped too.  Swapping a dominated member for an
    undominated dominator keeps every population hit and never lowers a
    separable score, so pruning preserves the feasibility verdict and the
    optimum of :func:`fpt_report`.
    """
    populations = _population_covers(instance)
    cover = [frozenset(indices) for indices in holders(populations, instance.m)]
    # the padding vector: the rule's own when it is separable, Borda otherwise
    vector = instance.rule.vector(instance.m) if instance.rule.separable else borda_vector(instance.m)
    scores = candidate_scores(instance.profile, vector)
    key = instance.profile.priority_key

    def dominates(x: int, y: int) -> bool:
        if not (cover[y] <= cover[x] and scores[x] >= scores[y]):
            return False
        return cover[y] < cover[x] or scores[x] > scores[y] or key(x) < key(y)

    return [
        y for y in range(instance.m)
        if cover[y] and not any(dominates(x, y) for x in range(instance.m) if x != y)
    ]


def fpt_rep_solver(instance: DiReInstance) -> list[Committee]:
    """Padded hitting sets for representation-only instances with unit bounds.

    After dominated-candidate pruning, branches on each member of the first
    population whose winning committee is not yet hit, and collects every
    hitting set of size <= k that the branching reaches (it reaches every
    minimal one).  Each is padded to exactly k with the best-ranked unused
    candidates.  Returns the distinct padded committees in ascending member
    order: feasible committees, not all of them, but under a separable rule
    they include an optimal one (see :func:`dominated_candidate_pruning`).
    """
    if instance.mu != 0 or instance.pi < 1:
        raise PreconditionError(f"fpt solver needs mu=0, pi>=1; got mu={instance.mu}, pi={instance.pi}")
    bad = [b for b in instance.representation_bounds.values() if b != 1]
    if bad:
        raise PreconditionError(f"fpt solver needs every representation bound to be 1, got {bad}")

    survivors = set(dominated_candidate_pruning(instance))
    populations = [wc & survivors for wc in _population_covers(instance)]

    hitting_sets: set[frozenset[int]] = set()

    def branch(chosen: frozenset[int]) -> None:
        unhit = next((wc for wc in populations if not (wc & chosen)), None)
        if unhit is None:
            hitting_sets.add(chosen)
            return
        if len(chosen) >= instance.k:
            return
        for cand in sorted(unhit):
            branch(chosen | {cand})

    branch(frozenset())

    committees = {fill_seats(hit, instance.padding_order, instance.k) for hit in hitting_sets}
    result = [Committee(members) for members in sorted(committees)]
    for committee in result:
        check = satisfies(instance, committee.members)
        if not check.ok:  # pragma: no cover - guards solver soundness
            raise InstanceError(f"fpt solver produced unsatisfying committee {committee.members}")
    return result


def fpt_report(instance: DiReInstance) -> SolveReport:
    """Wrap :func:`fpt_rep_solver` in a standard report (best-scoring committee).

    For a separable rule the best greedy completion of a minimal hitting
    set is a certified optimum; for submodular rules the result is only
    known to be feasible.
    """
    start = time.monotonic()
    committees = fpt_rep_solver(instance)
    if not committees:
        return _report(instance, start, STATUS_INFEASIBLE,
                       reason=f"no {instance.k} candidates hit every population's winning committee")
    members, score, scored, _ = _best_of(SatisfactionTable(instance.profile, instance.rule),
                                         (committee.members for committee in committees))
    status = STATUS_OPTIMAL if instance.rule.separable else STATUS_HEURISTIC
    return _report(instance, start, status, members, score, scored)

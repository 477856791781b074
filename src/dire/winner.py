"""Score-maximizing committee selection under constraints.

Four routes: a brute-force oracle for small instances, the two-stage
solve (feasibility enumeration followed by score maximization), a direct
optimal construction for single-candidate-attribute separable instances,
and a bounded-search-tree solver for representation-only instances with
unit bounds.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from dire.constraints import DiReInstance, InstanceError, holders, satisfies
from dire.profiles import Committee
from dire.rules import (
    DEFAULT_ORACLE_CAP,
    SatisfactionTable,
    SolverTimeout,
    _best_of,
    _ranked,
    candidate_scores,
    score_committee,
    unconstrained_winner,
)
from dire.solver import SolverConfig, padding_vector, solve_feasibility

STATUS_OPTIMAL = "optimal"
STATUS_HEURISTIC = "feasible-heuristic"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIMEOUT = "timeout"


class OracleCapExceeded(ValueError):
    pass


class PreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one constrained solve.

    ``committee`` is present exactly for optimal / feasible-heuristic
    statuses.  ``utility_ratio`` is constrained score over unconstrained
    score under the same rule (None when the unconstrained score is zero or
    the solve failed or the deadline cut the unconstrained search).
    ``reason`` says what proved an infeasible verdict.
    """

    status: str
    committee: Committee | None
    score: int | None
    utility_ratio: Fraction | None
    elapsed: float
    committees_examined: int
    mode: str  # oracle | two-stage | mu1-fast | fpt
    timed_out: bool = False  # True also when a timeout cut enumeration, scoring
    # or the unconstrained search short but a feasible committee had been found
    reason: str | None = None


def _report(
    instance: DiReInstance,
    mode: str,
    start: float,
    status: str,
    members: Sequence[int] | None = None,
    score: int | None = None,
    examined: int = 0,
    deadline: float | None = None,
    timed_out: bool = False,
    reason: str | None = None,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> SolveReport:
    """The report of a route that started at ``start``, with its utility ratio.

    The ratio divides by the unconstrained winner's score; when ``deadline``
    cuts that search short, the ratio is dropped and the report is
    ``timed_out``.
    """
    ratio = None
    if score is not None:
        try:
            unconstrained = unconstrained_winner(instance.profile, instance.rule, instance.k,
                                                 oracle_cap, deadline)
        except SolverTimeout:
            timed_out = True
        else:
            # above the cap the unconstrained score is a greedy lower bound; the
            # constrained score is a lower bound too, so take the tighter of the
            # two to keep the ratio within (0, 1]
            denominator = max(unconstrained.score, score)
            if denominator > 0:
                ratio = Fraction(score, denominator)
    committee = None if members is None else Committee(members)
    return SolveReport(status, committee, score, ratio, time.monotonic() - start, examined, mode,
                       timed_out, reason)


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
        return _report(instance, "oracle", start, STATUS_INFEASIBLE, examined=total,
                       reason=f"none of the {total} {instance.k}-committees meets every bound")
    return _report(instance, "oracle", start, STATUS_OPTIMAL, members, score, total,
                   oracle_cap=oracle_cap)


def solve_drcwd(
    instance: DiReInstance,
    config: SolverConfig | None = None,
    exhaustive: bool = False,
) -> SolveReport:
    """Two-stage solve: enumerate feasible committees, then maximize the rule.

    Exhaustive enumeration yields a certified optimum; the default root
    harvest yields the best committee it found (feasible-heuristic).
    Timeouts with nothing found report as timeouts.  ``config.timeout``
    bounds the whole solve: once it passes, scoring stops at the best
    committee scored so far (at least one), the utility ratio is dropped if
    the unconstrained search is unfinished, and the report is
    ``timed_out``; it stays ``optimal`` only if every committee was scored.
    """
    config = config or SolverConfig()
    start = time.monotonic()
    deadline = start + config.timeout
    feas = solve_feasibility(instance, config, exhaustive=exhaustive)
    if feas.proven_infeasible:
        return _report(instance, "two-stage", start, STATUS_INFEASIBLE, reason=feas.reason)
    if not feas.committees:
        return _report(instance, "two-stage", start, STATUS_TIMEOUT, timed_out=True)
    members, score, scored, finished = _best_of(
        SatisfactionTable(instance.profile, instance.rule), feas.committees, deadline)
    timed_out = feas.timed_out or not finished
    certified = exhaustive and feas.complete and not timed_out
    status = STATUS_OPTIMAL if certified else STATUS_HEURISTIC
    return _report(instance, "two-stage", start, status, members, score, scored, deadline, timed_out)


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
    ranked = _ranked(candidate_scores(instance.profile, padding_vector(instance)),
                     instance.profile.priority_key)

    attr = instance.scheme.candidate_attributes[0]
    chosen: list[int] = []
    for label, members in attr.groups:
        bound = instance.diversity_bounds[(attr.name, label)]
        chosen.extend([c for c in ranked if c in members][:bound])
    if len(chosen) > instance.k:
        return _report(instance, "mu1-fast", start, STATUS_INFEASIBLE,
                       reason=f"diversity bounds need {len(chosen)} seats, k = {instance.k}")
    chosen.extend([c for c in ranked if c not in chosen][: instance.k - len(chosen)])
    score = score_committee(instance.profile, instance.rule, chosen)
    return _report(instance, "mu1-fast", start, STATUS_OPTIMAL, chosen, score, 1)


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
    scores = candidate_scores(instance.profile, padding_vector(instance))
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
    """All feasible committees for representation-only instances with unit bounds.

    After dominated-candidate pruning, branches on each member of the first
    population whose winning committee is not yet hit, collecting every
    minimal hitting set of size <= k; each is padded to exactly k with the
    best-scoring unused candidates.
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

    ranked = _ranked(candidate_scores(instance.profile, padding_vector(instance)),
                     instance.profile.priority_key)
    committees = {
        tuple(sorted(hit.union([c for c in ranked if c not in hit][: instance.k - len(hit)])))
        for hit in hitting_sets
    }
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
        return _report(instance, "fpt", start, STATUS_INFEASIBLE,
                       reason=f"no {instance.k} candidates hit every population's winning committee")
    members, score, scored, _ = _best_of(SatisfactionTable(instance.profile, instance.rule),
                                         (committee.members for committee in committees))
    status = STATUS_OPTIMAL if instance.rule.separable else STATUS_HEURISTIC
    return _report(instance, "fpt", start, status, members, score, scored)

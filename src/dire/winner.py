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

from dire.constraints import DiReInstance, InstanceError, satisfies
from dire.profiles import Committee
from dire.rules import (
    DEFAULT_ORACLE_CAP,
    SatisfactionTable,
    SolverTimeout,
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


def _best_lex(scored: list[tuple[tuple[int, ...], int]]) -> tuple[tuple[int, ...], int]:
    """Max score; ties go to the lexicographically least sorted member tuple."""
    best_committee, best_score = None, None
    for committee, score in scored:
        if best_score is None or score > best_score or (
            score == best_score and committee < best_committee
        ):
            best_committee, best_score = committee, score
    return best_committee, best_score


def _utility_ratio(
    instance: DiReInstance, score: int | None, oracle_cap: int, deadline: float | None = None
) -> Fraction | None:
    if score is None:
        return None
    unconstrained = unconstrained_winner(instance.profile, instance.rule, instance.k, oracle_cap, deadline)
    # above the cap the unconstrained score is a greedy lower bound; the
    # constrained score is a lower bound too, so take the tighter of the two
    # to keep the ratio within (0, 1]
    denominator = max(unconstrained.score, score)
    if denominator <= 0:
        return None
    return Fraction(score, denominator)


def brute_force_oracle(instance: DiReInstance, oracle_cap: int = DEFAULT_ORACLE_CAP) -> SolveReport:
    """Enumerate every k-committee, filter by the constraints, keep the best.

    Exact but exponential; refuses instances above the cap.
    """
    start = time.monotonic()
    total = comb(instance.m, instance.k)
    if total > oracle_cap:
        raise OracleCapExceeded(f"C({instance.m}, {instance.k}) = {total} exceeds cap {oracle_cap}")
    constraints = instance.constraints()
    domains = [set(c.domain) for c in constraints]
    bounds = [c.bound for c in constraints]
    table = SatisfactionTable(instance.profile, instance.rule)
    best_committee, best_score = None, None
    examined = 0
    for combo in itertools.combinations(range(instance.m), instance.k):
        examined += 1
        members = set(combo)
        if any(len(members & domain) < bound for domain, bound in zip(domains, bounds)):
            continue
        score = table.score(combo)
        if best_score is None or score > best_score:
            best_committee, best_score = combo, score
    elapsed = time.monotonic() - start
    if best_committee is None:
        return SolveReport(STATUS_INFEASIBLE, None, None, None, elapsed, examined, "oracle",
                           reason=f"none of the {total} {instance.k}-committees meets every bound")
    return SolveReport(
        STATUS_OPTIMAL,
        Committee(best_committee),
        best_score,
        _utility_ratio(instance, best_score, oracle_cap),
        elapsed,
        examined,
        "oracle",
    )


def _score_until(
    instance: DiReInstance, committees: tuple[tuple[int, ...], ...], deadline: float
) -> list[tuple[tuple[int, ...], int]]:
    """Score committees in order until the deadline passes, at least one."""
    table = SatisfactionTable(instance.profile, instance.rule)
    scored: list[tuple[tuple[int, ...], int]] = []
    for committee in committees:
        if scored and time.monotonic() > deadline:
            break
        scored.append((committee, table.score(committee)))
    return scored


def solve_drcwd(
    instance: DiReInstance,
    config: SolverConfig | None = None,
    exhaustive: bool = False,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
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
        return SolveReport(STATUS_INFEASIBLE, None, None, None,
                           time.monotonic() - start, 0, "two-stage", reason=feas.reason)
    if not feas.committees:
        return SolveReport(STATUS_TIMEOUT, None, None, None,
                           time.monotonic() - start, 0, "two-stage", timed_out=True)
    scored = _score_until(instance, feas.committees, deadline)
    best_committee, best_score = _best_lex(scored)
    timed_out = feas.timed_out or len(scored) < len(feas.committees)
    certified = exhaustive and feas.complete and not timed_out
    status = STATUS_OPTIMAL if certified else STATUS_HEURISTIC
    try:
        ratio = _utility_ratio(instance, best_score, oracle_cap, deadline)
    except SolverTimeout:
        ratio, timed_out = None, True
    return SolveReport(
        status,
        Committee(best_committee),
        best_score,
        ratio,
        time.monotonic() - start,
        len(scored),
        "two-stage",
        timed_out=timed_out,
    )


def mu1_fast_path(instance: DiReInstance, oracle_cap: int = DEFAULT_ORACLE_CAP) -> SolveReport:
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
    scores = candidate_scores(instance.profile, padding_vector(instance))
    by_desirability = lambda c: (-scores[c], instance.profile.priority_key(c))

    attr = instance.scheme.candidate_attributes[0]
    chosen: list[int] = []
    for label, members in attr.groups:
        bound = instance.diversity_bounds[(attr.name, label)]
        chosen.extend(sorted(members, key=by_desirability)[:bound])
    if len(chosen) > instance.k:
        return SolveReport(STATUS_INFEASIBLE, None, None, None,
                           time.monotonic() - start, 0, "mu1-fast",
                           reason=f"diversity bounds need {len(chosen)} seats, k = {instance.k}")
    spare = sorted((c for c in range(instance.m) if c not in set(chosen)), key=by_desirability)
    chosen.extend(spare[: instance.k - len(chosen)])
    committee = Committee(chosen)
    score = score_committee(instance.profile, instance.rule, committee)
    return SolveReport(
        STATUS_OPTIMAL,
        committee,
        score,
        _utility_ratio(instance, score, oracle_cap),
        time.monotonic() - start,
        1,
        "mu1-fast",
    )


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
    cover = {
        c: frozenset(i for i, wc in enumerate(populations) if c in wc)
        for c in range(instance.m)
    }
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


def fpt_rep_solver(
    instance: DiReInstance,
    config: SolverConfig | None = None,
    prune: bool = True,
) -> list[Committee]:
    """All feasible committees for representation-only instances with unit bounds.

    After dominated-candidate pruning (skipped with ``prune=False``, kept
    switchable so the pruning step can be audited), branches on each member
    of the first population whose winning committee is not yet hit,
    collecting every minimal hitting set of size <= k; each is padded to
    exactly k with the best-scoring unused candidates.
    """
    if instance.mu != 0 or instance.pi < 1:
        raise PreconditionError(f"fpt solver needs mu=0, pi>=1; got mu={instance.mu}, pi={instance.pi}")
    bad = [b for b in instance.representation_bounds.values() if b != 1]
    if bad:
        raise PreconditionError(f"fpt solver needs every representation bound to be 1, got {bad}")

    survivors = set(dominated_candidate_pruning(instance)) if prune else set(range(instance.m))
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

    scores = candidate_scores(instance.profile, padding_vector(instance))
    committees: set[tuple[int, ...]] = set()
    for hit in hitting_sets:
        rest = sorted(
            (c for c in range(instance.m) if c not in hit),
            key=lambda c: (-scores[c], instance.profile.priority_key(c)),
        )
        members = tuple(sorted(hit | set(rest[: instance.k - len(hit)])))
        committees.add(members)
    result = [Committee(members) for members in sorted(committees)]
    for committee in result:
        check = satisfies(instance, committee.members)
        if not check.ok:  # pragma: no cover - guards solver soundness
            raise InstanceError(f"fpt solver produced unsatisfying committee {committee.members}")
    return result


def fpt_report(instance: DiReInstance, oracle_cap: int = DEFAULT_ORACLE_CAP) -> SolveReport:
    """Wrap :func:`fpt_rep_solver` in a standard report (best-scoring committee).

    For a separable rule the best greedy completion of a minimal hitting
    set is a certified optimum; for submodular rules the result is only
    known to be feasible.
    """
    start = time.monotonic()
    committees = fpt_rep_solver(instance)
    if not committees:
        return SolveReport(STATUS_INFEASIBLE, None, None, None,
                           time.monotonic() - start, 0, "fpt",
                           reason=f"no {instance.k} candidates hit every population's winning committee")
    table = SatisfactionTable(instance.profile, instance.rule)
    scored = [(committee.members, table.score(committee.members)) for committee in committees]
    best_committee, best_score = _best_lex(scored)
    status = STATUS_OPTIMAL if instance.rule.separable else STATUS_HEURISTIC
    return SolveReport(
        status,
        Committee(best_committee),
        best_score,
        _utility_ratio(instance, best_score, oracle_cap),
        time.monotonic() - start,
        len(scored),
        "fpt",
    )

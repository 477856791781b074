"""Score-maximizing committee selection under constraints.

One route, the two-stage solve.  Its feasibility search gives the verdict
and a harvest of feasible committees, the best of which is the heuristic
answer; in exhaustive mode a branch-and-bound under the search's own
lookahead then certifies the optimum at any scale the deadline allows.
When the committee of the voters' first choices that the branch-and-bound
certifies at its root (:func:`~dire.rules._top_choice`) meets every bound,
it is the optimum and the exhaustive solve returns it without a search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from dire.constraints import DiReInstance, holders, satisfies
from dire.profiles import Committee
from dire.rules import (
    SatisfactionTable,
    SolverTimeout,
    _best_of,
    _certified_max,
    score_committee,  # unused here; kept as dire.winner.score_committee, which bench/test_bench.py reads
    unconstrained_winner,
)
from dire.solver import SolverConfig, SolverError, _SearchState, build_diregraph, solve_feasibility

STATUS_OPTIMAL = "optimal"
STATUS_HEURISTIC = "feasible-heuristic"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIMEOUT = "timeout"


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one constrained solve.

    ``committee`` is present exactly for optimal / feasible-heuristic
    statuses.  ``utility_ratio`` is constrained score over unconstrained
    score under the same rule (None when the unconstrained score is zero or
    the solve failed or the deadline cut the unconstrained search).
    ``reason`` says what proved an infeasible verdict.
    ``committees_examined`` counts the committees of the feasibility
    harvest scored one by one (the exhaustive branch-and-bound's nodes are
    not counted).
    """

    status: str
    committee: Committee | None
    score: int | None
    utility_ratio: Fraction | None
    elapsed: float
    committees_examined: int
    timed_out: bool = False  # True also when a timeout cut the feasibility search,
    # scoring, the branch-and-bound or the unconstrained search short but a
    # feasible committee had been found
    reason: str | None = None


def _report(
    instance: DiReInstance,
    start: float,
    status: str,
    members: Sequence[int] | None = None,
    score: int | None = None,
    examined: int = 0,
    deadline: float | None = None,
    timed_out: bool = False,
    reason: str | None = None,
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
                                                 deadline=deadline)
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
    return SolveReport(status, committee, score, ratio, time.monotonic() - start, examined, timed_out, reason)


def solve_drcwd(
    instance: DiReInstance,
    config: SolverConfig | None = None,
    exhaustive: bool = False,
) -> SolveReport:
    """Two-stage solve: find feasible committees, then maximize the rule.

    The default feasibility search gives the verdict and its root harvest
    (at most ``config.max_committees`` committees); the best-scoring one is
    the feasible-heuristic answer.  ``exhaustive=True`` then runs the
    branch-and-bound of :func:`~dire.rules._certified_max` under the
    search's lookahead, from a threshold one below the harvest's best, and
    reports the optimum it certifies (ties to the lexicographically least
    member tuple); when the top committee that certifies at its root, the
    least one that gives every voter its first choice, meets every bound,
    that committee is the optimum and no search runs.  Timeouts with
    nothing found report as timeouts.
    ``config.timeout`` bounds the whole solve: once it passes, the report
    keeps the best committee found so far (at least one), drops the utility
    ratio if the unconstrained search is unfinished, and is ``timed_out``
    and feasible-heuristic.
    """
    config = config or SolverConfig()
    start = time.monotonic()
    deadline = start + config.timeout
    feas = solve_feasibility(instance, config)
    if feas.proven_infeasible:
        return _report(instance, start, STATUS_INFEASIBLE, reason=feas.reason)
    if not feas.committees:
        return _report(instance, start, STATUS_TIMEOUT, timed_out=True)
    table = SatisfactionTable(instance.profile, instance.rule)
    members, score, scored, finished = _best_of(table, feas.committees, deadline)
    timed_out = feas.timed_out or not finished
    status = STATUS_HEURISTIC
    if exhaustive and not timed_out:
        graph = build_diregraph(instance)
        lookahead = _SearchState(graph, holders(graph.domains, graph.m))
        try:
            members, score = _certified_max(table, instance.k, deadline, lookahead, score - 1)
            status = STATUS_OPTIMAL
        except SolverTimeout as timeout:
            timed_out = True
            if timeout.incumbent[0]:  # the search found a committee at least as good
                members, score = timeout.incumbent
        check = satisfies(instance, members)
        if not check.ok:  # pragma: no cover - guards solver soundness
            raise SolverError(f"branch-and-bound produced an unsatisfying committee {members}: "
                              f"{check.violations}")
    return _report(instance, start, status, members, score, scored, deadline, timed_out)

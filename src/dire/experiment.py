"""Batch experiment runner: solve generated or file-based instances, emit CSV metrics.

Per (instance, rule) the runner records solve status, scores, the utility
ratio against the unconstrained winner, and the smallest achievable
fraction of violated constraints.  Output is deterministic for a fixed
config: rows are sorted, elapsed times are floored to whole seconds, and
all randomness is seed-derived.
"""

from __future__ import annotations

import csv
import itertools
import time
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import neg
from pathlib import Path

from dire.constraints import DiReInstance, holders, make_instance, unsatisfied_fraction
from dire.fileio import parse_instance
from dire.rules import RULE_KINDS, Rule, SolverTimeout, _depth_first, unconstrained_winner
from dire.solver import SolverConfig
from dire.synth import DEFAULT_K, DEFAULT_M, DEFAULT_N, SYN1, SYN2, draw_syndata
from dire.winner import solve_drcwd

CSV_COLUMNS = [
    "instance_id",
    "mu",
    "pi",
    "phi",
    "rule",
    "status",
    "elapsed_s",
    "score",
    "unconstrained_score",
    "utility_ratio",
    "max_unsat_fraction",
    "max_unsat_approx",
    "timed_out",
]

# The best unsatisfied fraction is exact, by branch-and-bound, below this
# many committees, and a greedy estimate above it.
METRIC_ORACLE_CAP = 100_000


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str  # syn1 | syn2 | files
    seeds: tuple[int, ...] = (0,)
    rules: tuple[str, ...] = ("kborda",)
    timeout: float = SolverConfig.timeout
    repetitions: int = 1
    mu_values: tuple[int, ...] = (0, 1, 2, 3, 4)
    pi_values: tuple[int, ...] = (0, 1, 2, 3, 4)
    phi_values: tuple[float, ...] = tuple(round(x / 10, 1) for x in range(1, 11))
    m: int = DEFAULT_M
    n: int = DEFAULT_N
    k: int = DEFAULT_K
    files: tuple[str, ...] = ()
    exhaustive: bool = False

    def __post_init__(self):
        if not self.seeds or not self.rules:
            raise ExperimentError("seeds and rules must be nonempty")
        if not self.timeout > 0:  # also rejects NaN
            raise ExperimentError("timeout must be positive")
        if self.repetitions < 1:
            raise ExperimentError(f"repetitions must be >= 1, got {self.repetitions}")
        unknown = [r for r in self.rules if r not in RULE_KINDS]
        if unknown:
            raise ExperimentError(f"unknown rules {unknown}")
        if self.dataset not in (SYN1, SYN2, "files"):
            raise ExperimentError(f"unknown dataset kind {self.dataset!r}")
        if self.dataset == "files" and not self.files:
            raise ExperimentError("dataset 'files' needs at least one path")


def _instance_jobs(config: ExperimentConfig):
    """Yield (instance_id, mu, pi, phi, build_instance(rule))."""
    if config.dataset == SYN1:
        for mu, pi, seed, rep in itertools.product(
            config.mu_values, config.pi_values, config.seeds, range(config.repetitions)
        ):
            instance_seed = seed * 1000 + rep
            ident = f"syn1-mu{mu}-pi{pi}-s{seed}-r{rep}"
            yield ident, mu, pi, 0.5, _syn_builder(SYN1, mu, pi, 0.5, instance_seed, config)
    elif config.dataset == SYN2:
        for phi, seed, rep in itertools.product(config.phi_values, config.seeds, range(config.repetitions)):
            instance_seed = seed * 1000 + rep
            ident = f"syn2-phi{phi}-s{seed}-r{rep}"
            yield ident, 2, 2, phi, _syn_builder(SYN2, 2, 2, phi, instance_seed, config)
    else:
        for path in config.files:
            ident = Path(path).stem

            def builder(rule: Rule, path=path):
                return parse_instance(path, rule_override=rule)

            yield ident, None, None, None, builder


def _syn_builder(kind, mu, pi, phi, seed, config):
    # the profile, scheme and bounds do not depend on the rule: draw them once
    drawn = draw_syndata(kind, mu=mu, pi=pi, phi=phi, seed=seed, m=config.m, n=config.n, k=config.k)

    def builder(rule: Rule):
        return make_instance(**drawn, rule=rule)

    return builder


def best_unsatisfied_fraction(instance: DiReInstance, found) -> tuple[Fraction, bool]:
    """Smallest fraction of constraints any committee must leave unmet.

    Exact below the metric cap, by the branch-and-bound of
    :func:`_fewest_unmet`.  Otherwise a greedy shortfall-reducing committee
    approximates it and the value is flagged approximate.
    """
    if found:
        return Fraction(0), False
    constraints = instance.constraints()
    if comb(instance.m, instance.k) <= METRIC_ORACLE_CAP:
        # with no constraints every committee violates none of them
        return Fraction(_fewest_unmet(instance, constraints), len(constraints) or 1), False

    # Adding c lowers the total shortfall by the number of constraints that
    # hold c and are still short, so each step takes the candidate that
    # helps the most of them, ties by priority.  ``helps[c]`` keeps that
    # count, and a chosen candidate's is -1, below every other.
    short = [con.bound for con in constraints]
    holds = holders([con.domain for con in constraints], instance.m)
    helps = list(map(len, holds))  # every active constraint starts short
    profile, chosen = instance.profile, []
    while len(chosen) < instance.k:
        pick = profile.priority[min(zip(map(neg, helps), profile._priority_rank))[1]]
        chosen.append(pick)
        helps[pick] = -1
        for i in holds[pick]:
            if short[i]:
                short[i] -= 1
                if not short[i]:  # met: it no longer helps the candidates it holds
                    for c in constraints[i].domain:
                        helps[c] -= 1
    return unsatisfied_fraction(instance, chosen), True


def _fewest_unmet(instance: DiReInstance, constraints) -> int:
    """The fewest constraints any k-committee leaves unmet, by a depth-first
    branch-and-bound over committees in ascending id order.

    A node is a prefix P with ``seats`` seats left, and ``need[i]`` is
    bound_i minus the members of domain i in P.  A child P + c meets no
    completion of constraint i when its need after c exceeds min(seats - 1,
    the members of domain i with ids > c); the child is cut when such
    constraints are already as many as the fewest found, and at a leaf
    their count is exact.  The node stops at child c once the constraints
    whose need exceeds min(seats, the members with ids >= c) are that many:
    every later child loses those too.  Both counts move only at the
    domains holding c, so each child costs its own domains, not all of
    them.  The search stops once a committee meets every constraint.

    An inner child that passes this test is then checked by a packing
    term, the bound of its own node, before it is entered.  Take the
    constraints with 0 < need <= min(rest, the members with ids > c), rest
    = seats - 1, in ascending order of domain size, and keep each whose
    members with ids > c miss those of the ones kept.  The kept
    constraints need distinct new members, so at most as many of them are
    met as their smallest needs fit into the rest seats; the others go
    unmet on top of those already counted, which are never kept, so no
    constraint counts twice.  Single runs on a 2-core VM, on the 30
    infeasible syn-paper k-Borda rows of seed 0 with no metric cap: the
    median fell from 59 to 10 ms, syn1 (4, 0) took 0.31 s where it had
    not finished in 3 s, and syn1 (2, 0) visited 7 nodes instead of 52,497.
    """
    m, bounds = instance.m, [con.bound for con in constraints]
    holds = holders([con.domain for con in constraints], m)
    avail = [[0] * len(bounds)] * (m + 1)  # avail[c][i]: members of domain i with ids >= c
    for c in range(m - 1, -1, -1):
        avail[c] = row = avail[c + 1][:]
        for i in holds[c]:
            row[i] += 1
    masks = [sum([1 << c for c in con.domain]) for con in constraints]  # bit c: c is in the domain
    narrow = sorted(range(len(bounds)), key=lambda i: len(constraints[i].domain))
    need = bounds[:]
    best = len(bounds)

    def excess(start, seats):
        """The packing term of the node whose needs are ``need``, with
        ``seats`` seats to fill from the ids >= ``start``: how many of the
        kept constraints (see above) must go unmet."""
        row, left, taken, needs = avail[start], -1 << start, 0, []
        for i in narrow:
            x = need[i]
            if 0 < x <= seats and x <= row[i]:
                mask = masks[i] & left
                if not mask & taken:
                    taken |= mask
                    needs.append(x)
        needs.sort()
        return len(needs) - bisect(list(itertools.accumulate(needs)), seats)

    def children(start, seats):
        """The children of the prefix whose needs are ``need``, as a node of
        :func:`~dire.rules._depth_first`: yields (start, seats) for each
        inner child that can still beat ``best``; leaves lower ``best``."""
        nonlocal best
        rest = seats - 1
        row = avail[start]
        # at child c: ``sure`` counts the constraints no child from c on can
        # meet, ``lost`` those a child from c on cannot meet unless it holds them
        sure = sum([x > (a if a < seats else seats) for x, a in zip(need, row)])
        lost = sum([x > (a if a < rest else rest) for x, a in zip(need, row)])
        for c in range(start, m - rest):
            if sure >= best:
                return
            row, held = avail[c], holds[c]
            # a held constraint short by exactly ``seats`` is met by c and the rest
            unmet = lost - sum([need[i] == seats and need[i] <= row[i] for i in held])
            if unmet < best:
                if rest:
                    for i in held:
                        need[i] -= 1
                    if unmet + excess(c + 1, rest) < best:
                        yield c + 1, rest
                    for i in held:
                        need[i] += 1
                else:
                    best = unmet
                    if not best:
                        return
            for i in held:  # passing c leaves one member fewer in each of its domains
                x = need[i]
                if x == row[i]:
                    sure += x <= seats
                    lost += x <= rest

    _depth_first(children, 0, instance.k)
    return best


def run_experiment(config: ExperimentConfig) -> list[dict[str, str]]:
    """One CSV row per (instance, rule), sorted for deterministic output.

    The row's timeout also bounds the unconstrained search that is run
    again when the solve gave no utility ratio; when it runs out, the row
    has an empty ``unconstrained_score`` and ``timed_out`` is true.
    """
    rows = []
    for ident, mu, pi, phi, builder in _instance_jobs(config):
        for rule_kind in config.rules:
            rule = Rule(rule_kind)
            instance = builder(rule)
            solver_config = SolverConfig(timeout=config.timeout)
            start = time.monotonic()
            report = solve_drcwd(instance, solver_config, exhaustive=config.exhaustive)
            elapsed = time.monotonic() - start
            found = report.committee is not None
            unsat, approx = best_unsatisfied_fraction(instance, found)
            timed_out = report.timed_out
            if report.utility_ratio:  # a zero ratio cannot be inverted
                unconstrained = str(int(Fraction(report.score) / report.utility_ratio))
            else:
                try:
                    unconstrained = str(unconstrained_winner(
                        instance.profile, rule, instance.k, deadline=start + config.timeout).score)
                except SolverTimeout:
                    unconstrained, timed_out = "", True
            rows.append(
                {
                    "instance_id": ident,
                    "mu": str(instance.mu if mu is None else mu),
                    "pi": str(instance.pi if pi is None else pi),
                    "phi": "" if phi is None else str(phi),
                    "rule": rule_kind,
                    "status": report.status,
                    "elapsed_s": str(int(elapsed)),
                    "score": "" if report.score is None else str(report.score),
                    "unconstrained_score": unconstrained,
                    "utility_ratio": "" if report.utility_ratio is None else f"{float(report.utility_ratio):.6f}",
                    "max_unsat_fraction": f"{float(unsat):.6f}",
                    "max_unsat_approx": "true" if approx else "false",
                    "timed_out": "true" if timed_out else "false",
                }
            )
    rows.sort(key=lambda row: (row["instance_id"], row["rule"]))
    return rows


def write_csv(rows: list[dict[str, str]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

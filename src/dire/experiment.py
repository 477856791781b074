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
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from dire.constraints import DiReInstance, holders, make_instance, unsatisfied_fraction
from dire.fileio import parse_instance
from dire.rules import RULE_KINDS, Rule, SolverTimeout, unconstrained_winner
from dire.solver import SolverConfig
from dire.synth import SYN1, SYN2, draw_syndata
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

# Exact best-unsatisfied-fraction search is done below this many committees.
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
    m: int = 50
    n: int = 100
    k: int = 6
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

    Exact below the metric cap: every committee is enumerated and its
    violated (domain, bound) pairs are counted, up to the fewest seen so
    far.  Otherwise a greedy shortfall-reducing committee approximates it
    and the value is flagged approximate.
    """
    if found:
        return Fraction(0), False
    constraints = instance.constraints()
    if comb(instance.m, instance.k) <= METRIC_ORACLE_CAP:
        pairs = [(con.domain, con.bound) for con in constraints]
        fewest = len(pairs)
        for combo in itertools.combinations(range(instance.m), instance.k):
            violated = 0
            for domain, bound in pairs:
                if len(domain.intersection(combo)) < bound:
                    violated += 1
                    if violated == fewest:
                        break
            else:
                fewest = violated
                if not fewest:
                    break
        # with no constraints every committee violates none of them
        return Fraction(fewest, len(pairs) or 1), False

    # Adding c lowers the total shortfall by the number of constraints that
    # hold c and are still short, so each step takes the candidate that
    # helps the most of them, ties by priority.
    short = [con.bound for con in constraints]
    holds = holders([con.domain for con in constraints], instance.m)
    chosen: set[int] = set()
    while len(chosen) < instance.k:
        pick = min((c for c in range(instance.m) if c not in chosen),
                   key=lambda c: (-sum(short[i] > 0 for i in holds[c]), instance.profile.priority_key(c)))
        chosen.add(pick)
        for i in holds[pick]:
            if short[i]:
                short[i] -= 1
    return unsatisfied_fraction(instance, chosen), True


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

"""The benchmark's workloads: seeded operation lists, the timed operation, and
the checks of every output against the pinned references in ``refs/``.

Every run of a workload performs the same operations, those of the pinned
pool in ``refs/``, so that the medians of two runs compare the same work;
``--seed`` sets the order in which a pass performs them.  ``make_refs.py``
rebuilds the pool's references.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from dire import experiment, reductions, rules, solver, synth, winner

import graphs
import oracle

REFS = Path(__file__).resolve().parent / "refs"

# Budget handed to the solver per operation; hitting it counts as a failure.
OP_TIMEOUT_S = 60.0

SYN1_CELLS = [("syn1", mu, pi, 0.5) for mu in range(5) for pi in range(5)]
SYN2_CELLS = [("syn2", 2, 2, step / 10) for step in range(1, 11)]
DESK_CELLS = [("syn1", mu, pi, 0.5) for mu in range(3) for pi in range(3)]


def load_refs(name: str) -> dict:
    with open(REFS / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def instance_key(kind: str, mu: int, pi: int, phi: float, seed: int) -> str:
    return f"{kind}-mu{mu}-pi{pi}-phi{phi}-s{seed}"


def input_digest(instance) -> str:
    """Hash of everything the generator draws: rankings, partitions, bounds."""
    scheme = instance.scheme

    def attrs(group):
        return [[a.name, [[label, list(members)] for label, members in a.groups]] for a in group]

    return oracle.digest({
        "k": instance.k,
        "rankings": instance.profile.rankings,
        "priority": instance.profile.priority,
        "candidates": attrs(scheme.candidate_attributes),
        "voters": attrs(scheme.voter_attributes),
        "diversity": sorted([a, g, b] for (a, g), b in instance.diversity_bounds.items()),
        "representation": sorted([a, g, b] for (a, g), b in instance.representation_bounds.items()),
    })


def population_keys(instance) -> list[tuple[str, str]]:
    return [(a.name, label) for a in instance.scheme.voter_attributes for label, _ in a.groups]


def winning_lists(instance) -> list[list[int]]:
    return [list(instance.winning_committees[key]) for key in population_keys(instance)]


@dataclass
class Check:
    """Outcome of checking one operation's output."""

    errors: list[str]
    signature: object  # compared across passes over the same row
    quality: tuple[str, Fraction] | None = None  # ("ratio" | "unsat", value)


@dataclass(frozen=True)
class ExperimentRow:
    kind: str
    mu: int
    pi: int
    phi: float
    pool_seed: int
    rule: str

    @property
    def key(self) -> str:
        return instance_key(self.kind, self.mu, self.pi, self.phi, self.pool_seed)


class ExperimentWorkload:
    """One operation is one row of ``dire experiment``: generate the instance,
    solve it, find the best unsatisfied fraction, and compute the
    unconstrained winner when no committee was found."""

    def __init__(self, name: str, seed: int, limit: int | None = None):
        self.name = name
        self.refs = load_refs(name)
        self.m, self.n, self.k = self.refs["m"], self.refs["n"], self.refs["k"]
        self.exhaustive = self.refs["exhaustive"]
        rows = [ExperimentRow(*cell, pool_seed, rule) for cell in self.cells
                for pool_seed in self.refs["pool_seeds"] for rule in oracle.RULES]
        random.Random(f"{name}:{seed}").shuffle(rows)
        self.rows = rows[:limit]

    def run(self, row: ExperimentRow):
        instance = synth.gen_syndata(
            row.kind, mu=row.mu, pi=row.pi, phi=row.phi, seed=row.pool_seed * 1000,
            m=self.m, n=self.n, k=self.k, rule=rules.Rule(row.rule),
        )
        report = winner.solve_drcwd(instance, solver.SolverConfig(timeout=OP_TIMEOUT_S),
                                    exhaustive=self.exhaustive)
        found = report.committee is not None
        unsat, approx = experiment.best_unsatisfied_fraction(instance, found)
        if report.utility_ratio is not None and report.score is not None:
            unconstrained = int(Fraction(report.score) / report.utility_ratio)
        else:
            unconstrained = rules.unconstrained_winner(instance.profile, instance.rule, instance.k).score
        return instance, report, unsat, approx, unconstrained

    def check(self, row: ExperimentRow, out) -> Check:
        instance, report, unsat, approx, unconstrained = out
        pinned = self.refs["instances"][row.key]
        ref = pinned["rules"][row.rule]
        errors = []
        digest = input_digest(instance)
        if digest != pinned["inputs"]:
            errors.append("generated instance differs from the pinned one")
        winning = winning_lists(instance)
        if winning != ref["winning"]:
            errors.append("population winning committees differ from the reference")
        constraints = [
            (members, instance.diversity_bounds[(a.name, label)])
            for a in instance.scheme.candidate_attributes for label, members in a.groups
        ] + [
            (domain, instance.representation_bounds[key])
            for domain, key in zip(ref["winning"], population_keys(instance))
        ]
        found = report.committee is not None
        if report.timed_out:
            errors.append("solver timed out")
        quality = None
        if found != ref["feasible"]:
            errors.append(f"verdict {report.status} but reference feasible={ref['feasible']}")
        elif found:
            members = report.committee.members
            election = oracle.Election(instance.m, instance.profile.rankings, instance.profile.priority)
            if len(set(members)) != instance.k or oracle.violations(members, constraints):
                errors.append(f"committee {members} violates a bound")
            if election.score(row.rule, members) != report.score:
                errors.append(f"reported score {report.score} differs from the committee's score")
            certified = report.status == winner.STATUS_OPTIMAL
            if self.exhaustive and not certified:
                errors.append(f"exhaustive solve reported {report.status}")
            if ref["opt"] is not None:
                if report.score > ref["opt"] or (certified and report.score != ref["opt"]):
                    errors.append(f"score {report.score} against reference optimum {ref['opt']}")
            if ref["committee"] is not None and list(members) != ref["committee"]:
                errors.append(f"committee {members} differs from reference {ref['committee']}")
            denominator = max(ref["uncon"], report.score)
            if report.utility_ratio != Fraction(report.score, denominator):
                errors.append(f"utility ratio {report.utility_ratio} differs from reference")
            if unsat != 0 or unconstrained != denominator:
                errors.append("row fields disagree with a found committee")
            quality = ("ratio", report.utility_ratio)
        else:
            if report.status != winner.STATUS_INFEASIBLE:
                errors.append(f"status {report.status} for an infeasible instance")
            least = Fraction(ref["min_unmet"], len(constraints))
            if unsat < least or unsat > 1 or (not approx and unsat != least):
                errors.append(f"unsatisfied fraction {unsat} against exact minimum {least}")
            if unconstrained != ref["uncon"]:
                errors.append(f"unconstrained score {unconstrained} differs from {ref['uncon']}")
            quality = ("unsat", unsat)
        signature = (digest, report.status, report.committee, report.score,
                     report.utility_ratio, report.committees_examined, unsat, approx, unconstrained)
        return Check(errors, signature, quality)

    def post(self):
        return []


class SynPaper(ExperimentWorkload):
    """The syn1 grid and the syn2 phi sweep at m=50, n=100, k=6: one pool
    instance per cell, all three rules, default heuristic mode."""

    cells = SYN1_CELLS + SYN2_CELLS
    # the same quick row for every seed, so set-up time does not depend on it
    warm_up = ExperimentRow("syn1", 0, 0, 0.5, 0, oracle.KBORDA)


class DeskExact(ExperimentWorkload):
    """syn1 with mu, pi in {0, 1, 2} at m=16, n=20, k=4: two pool instances
    per cell, all three rules, exhaustive mode."""

    cells = DESK_CELLS
    warm_up = ExperimentRow("syn1", 0, 0, 0.5, 0, oracle.KBORDA)


@dataclass
class VcRow:
    vertices: int
    edges: list
    k: int
    feasible: bool
    uncon: int
    min_unmet: int
    instance: object = None
    domains: list = field(default_factory=list)
    input_errors: list = field(default_factory=list)


class VcRep:
    """Feasibility of vertex-cover representation reductions (pi=1) of seeded
    3-regular graphs.  One operation is ``solve_feasibility`` with
    ``max_committees=1``: the time to a verdict."""

    # The pool's V=12 graphs at k = cover - 1 (infeasible), but for the last
    # EASY ones, which are at k = cover, and its V=10 graphs at both budgets.
    # Infeasible V=12 rows are the large majority, so the median operation
    # lies mid-way through the infeasibility proofs instead of near the gap
    # to the quick rows.
    EASY = 2

    def __init__(self, seed: int, limit: int | None = None):
        self.name = "vc-rep"
        self.refs = load_refs(self.name)
        big, small = self.refs["pool"]["12"], self.refs["pool"]["10"]
        picks = ([(g, g["cover"] - 1) for g in big[:-self.EASY]]
                 + [(g, g["cover"]) for g in big[-self.EASY:]]
                 + [(g, g["cover"] + d) for g in small for d in (-1, 0)])
        random.Random(f"{self.name}:{seed}").shuffle(picks)
        self.rows = [self.build(g, k) for g, k in picks[:limit]]
        # the same quick V=10 feasible row for every seed
        self.warm_up = self.build(small[0], small[0]["cover"])

    def build(self, pinned: dict, k: int) -> VcRow:
        vertices, edges = pinned["vertices"], [tuple(e) for e in pinned["edges"]]
        ref = pinned["budgets"][str(k)]
        row = VcRow(vertices, edges, k, pinned["cover"] <= k, ref["uncon"], ref["min_unmet"])
        generated = graphs.random_cubic_graph(vertices, pinned["seed"])
        graphs.check_cubic(vertices, generated)
        if generated != edges:
            row.input_errors.append("generated graph differs from the pinned one")
        reduction = reductions.reduce_vc_representation(
            reductions.InputGraph(vertices, generated), pi=1, k=k)
        row.instance = reduction.instance
        row.instance.profile._positions  # lazily built table, shared by every pass
        if oracle.rankings_digest(row.instance.profile.rankings) != pinned["profile"]:
            row.input_errors.append("reduction profile differs from the pinned one")
        row.domains = oracle.vc_rep_domains(vertices, edges, k)
        if sorted(winning_lists(row.instance)) != sorted(list(d) for d in row.domains):
            row.input_errors.append("reduction winning committees differ from the reference")
        return row

    def run(self, row: VcRow):
        return solver.solve_feasibility(
            row.instance, solver.SolverConfig(max_committees=1, timeout=OP_TIMEOUT_S))

    def check(self, row: VcRow, result) -> Check:
        errors = list(row.input_errors)
        quality = None
        if result.timed_out:
            errors.append("solver timed out")
        if not row.feasible:
            if not result.proven_infeasible or result.committees:
                errors.append(f"k={row.k} is below the minimum cover but infeasibility was not proven")
        elif result.proven_infeasible or len(result.committees) != 1:
            errors.append(f"k={row.k} admits a cover but no committee was returned")
        else:
            committee = result.committees[0]
            m = row.instance.m
            if (len(set(committee)) != row.k or not all(0 <= c < m for c in committee)
                    or oracle.violations(committee, [(d, 1) for d in row.domains])):
                errors.append(f"committee {committee} does not hit every edge population")
            else:
                score = sum(m - 1 - ranking.index(c)
                            for ranking in row.instance.profile.rankings for c in committee)
                quality = ("ratio", Fraction(score, row.uncon))
        return Check(errors, (result.proven_infeasible, result.committees, result.timed_out), quality)

    def post(self):
        """Best unsatisfied fraction of each infeasible row, outside the timed
        operations, so the workload reports unsat_frac_mean too."""
        out = []
        for index, row in enumerate(self.rows):
            if row.feasible:
                continue
            unsat, approx = experiment.best_unsatisfied_fraction(row.instance, False)
            least = Fraction(row.min_unmet, len(row.edges))
            errors = []
            if unsat < least or unsat > 1 or (not approx and unsat != least):
                errors.append(f"unsatisfied fraction {unsat} against exact minimum {least}")
            out.append((index, errors, ("unsat", unsat)))
        return out


def make(name: str, seed: int, limit: int | None = None):
    if name == "syn-paper":
        return SynPaper(name, seed, limit)
    if name == "desk-exact":
        return DeskExact(name, seed, limit)
    if name == "vc-rep":
        return VcRep(seed, limit)
    raise ValueError(f"unknown workload {name!r}")

import random
import time

import pytest

from dire import constraints, rules, solver, winner
from dire.constraints import Attribute, AttributeScheme, make_instance, satisfies
from dire.profiles import make_profile
from dire.rules import Rule, SatisfactionTable, betacc, kborda, monroe, unconstrained_winner
from dire.solver import SolverConfig, solve_feasibility
from dire.synth import draw_syndata, gen_syndata
from dire.winner import solve_drcwd
from conftest import random_instance
from scoring_reference import (OracleCapExceeded, brute_force_oracle, dominated_candidate_pruning, fpt_rep_solver,
                               fpt_report, mu1_fast_path)


def _exhaustive(instance):
    return solve_drcwd(instance, SolverConfig(timeout=30), exhaustive=True)


def test_oracle_example1(example1):
    report = brute_force_oracle(example1)
    assert report.status == "optimal"
    assert report.score == 12
    # {c1, c4} and {c2, c3} tie at 12; lexicographic order prefers (0, 3)
    assert report.committee.members == (0, 3)
    assert report.committees_examined == 6
    assert report.utility_ratio is not None and float(report.utility_ratio) == 12 / 17


def test_oracle_unconstrained_matches_winner():
    profile = make_profile(5, [[4, 2, 0, 1, 3], [1, 2, 3, 0, 4], [0, 1, 2, 3, 4]])
    instance = make_instance(profile, AttributeScheme(), k=2, rule=betacc())
    report = brute_force_oracle(instance)
    direct = unconstrained_winner(profile, betacc(), 2)
    assert report.score == direct.score
    assert report.utility_ratio == 1


def test_oracle_cap_enforced(example1):
    with pytest.raises(OracleCapExceeded):
        brute_force_oracle(example1, oracle_cap=5)


def test_solve_drcwd_exhaustive_example1(example1):
    report = solve_drcwd(example1, SolverConfig(timeout=10), exhaustive=True)
    assert report.status == "optimal"
    assert report.score == 12
    assert report.committee.members == (0, 3)


def test_solve_drcwd_unconstrained_topk():
    profile = make_profile(5, [[0, 1, 2, 3, 4]] * 3)
    instance = make_instance(profile, AttributeScheme(), k=2)
    report = solve_drcwd(instance, SolverConfig(timeout=10))
    assert report.committee.members == (0, 1)
    assert report.utility_ratio == 1


def test_solve_drcwd_infeasible():
    profile = make_profile(4, [[0, 1, 2, 3]])
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0, 1], "g2": [2, 3]}),)
    )
    instance = make_instance(
        profile, scheme, k=2, diversity_bounds={("A", "g1"): 2, ("A", "g2"): 1}
    )
    report = solve_drcwd(instance, SolverConfig(timeout=10))
    assert report.status == "infeasible"
    assert report.committee is None and report.score is None


def test_solve_drcwd_timeout_status(example1):
    report = solve_drcwd(example1, SolverConfig(timeout=1e-9))
    assert report.status == "timeout"
    assert report.committee is None
    assert report.timed_out


def test_timeout_bounds_the_whole_solve(monkeypatch):
    # Every table score sleeps 0.04 s.  The solve scores its one harvested
    # committee inside the budget; the unconstrained Monroe search over
    # C(26, 5) committees, which would score 5 of them here (0.2 s, four
    # times the budget), must stop as soon as it sees the budget spent.
    instance = gen_syndata("syn1", mu=0, pi=0, seed=0, m=26, n=60, k=5, rule=monroe())
    score = SatisfactionTable.score

    def slow_score(*args):
        time.sleep(0.04)
        return score(*args)

    monkeypatch.setattr(SatisfactionTable, "score", slow_score)
    start = time.monotonic()
    report = solve_drcwd(instance, SolverConfig(timeout=0.05))
    assert time.monotonic() - start < 0.3
    assert report.timed_out
    assert report.status == "feasible-heuristic"
    assert satisfies(instance, report.committee.members).ok
    assert report.utility_ratio is None


def test_scoring_cut_by_the_deadline_is_not_certified(example1, monkeypatch):
    score = SatisfactionTable.score

    def slow_score(*args):
        time.sleep(0.1)
        return score(*args)

    monkeypatch.setattr(SatisfactionTable, "score", slow_score)
    report = solve_drcwd(example1, SolverConfig(timeout=0.05), exhaustive=True)
    assert report.committees_examined == 1  # of the three feasible committees
    assert report.timed_out
    assert report.status == "feasible-heuristic"
    assert satisfies(example1, report.committee.members).ok


class _SharedClock:
    """A stand-in for the ``time`` module of the winner routes, the solver
    and the rules, whose n-th reading is n."""

    def __init__(self, monkeypatch):
        self.reads = 0
        for module in (winner, solver, rules):
            monkeypatch.setattr(module, "time", self)

    def monotonic(self):
        self.reads += 1
        return self.reads


def test_deadline_inside_the_branch_and_bound_keeps_the_best_found(monkeypatch):
    # the harvest's best scores 165 and the certified optimum 244
    instance = gen_syndata("syn1", mu=1, pi=0, seed=8, m=16, n=20, k=4, rule=monroe())
    harvest = solve_drcwd(instance)
    assert (harvest.status, harvest.score) == ("feasible-heuristic", 165)
    clock = _SharedClock(monkeypatch)
    search, span = winner._certified_max, []

    def spy(*args):
        span.append(clock.reads)
        try:
            return search(*args)
        finally:
            span.append(clock.reads)

    monkeypatch.setattr(winner, "_certified_max", spy)
    report = solve_drcwd(instance, SolverConfig(timeout=1e9), exhaustive=True)
    assert (report.status, report.score) == ("optimal", 244)
    first, last = span  # the readings before and after the search
    assert last > first + 10
    scores = []
    for passed in (first + 1, (first + last) // 2, last):
        # the solve's first reading starts the budget; reading `passed` is the first past it
        clock.reads = 0
        report = solve_drcwd(instance, SolverConfig(timeout=passed - 1.5), exhaustive=True)
        assert (report.status, report.timed_out) == ("feasible-heuristic", True)
        assert satisfies(instance, report.committee.members).ok
        assert report.utility_ratio is None  # the unconstrained search is cut too
        scores.append(report.score)
    assert scores[0] == 165  # cut at the search's first node: the harvest's best
    assert 165 <= scores[1] <= scores[2] and scores[2] > 165


# k-Borda scores are pinned by the mu1-fast reference; the others are the
# branch-and-bound's own, pinned against regressions
PAPER_SCALE_OPTIMA = {"kborda": 27402, "betacc": 4900, "monroe": 4748}


@pytest.mark.parametrize("rule", sorted(PAPER_SCALE_OPTIMA))
def test_exhaustive_solve_certifies_at_paper_scale(rule):
    # m=50, n=100, k=6: C(50, 6) is about 15.9M committees, past any enumeration
    instance = gen_syndata("syn1", mu=1, pi=0, seed=9, rule=Rule(rule))
    report = _exhaustive(instance)
    assert (report.status, report.timed_out) == ("optimal", False)
    assert satisfies(instance, report.committee.members).ok
    assert report.score == PAPER_SCALE_OPTIMA[rule] >= solve_drcwd(instance).score
    if rule == "kborda":
        assert report.score == mu1_fast_path(instance).score


@pytest.mark.parametrize("seed", range(6))
def test_exhaustive_solve_matches_the_fpt_reference_at_paper_scale(seed):
    # syn2's uniform voters (phi 1.0) and populations at m=50, n=100, k=6,
    # representation only and every bound 1: the harvest misses the optimum
    # on seeds 0, 1, 3 and 5, the unconstrained winner is infeasible on 1, 3 and 4
    drawn = draw_syndata("syn2", phi=1.0, seed=seed)
    drawn["scheme"] = AttributeScheme(voter_attributes=drawn["scheme"].voter_attributes)
    drawn["diversity_bounds"] = {}
    drawn["representation_bounds"] = dict.fromkeys(drawn["representation_bounds"], 1)
    instance = make_instance(**drawn, rule=kborda())
    report, reference = _exhaustive(instance), fpt_report(instance)
    assert report.status == reference.status == "optimal"
    assert report.score == reference.score
    assert satisfies(instance, report.committee.members).ok


def test_every_route_names_why_it_is_infeasible():
    packed = _mu1_instance((2, 1), k=2)
    assert mu1_fast_path(packed).reason == "diversity bounds need 3 seats, k = 2"
    assert brute_force_oracle(packed).reason == "none of the 6 2-committees meets every bound"
    assert solve_drcwd(packed).reason == "pairwise infeasible: D:A:g1 vs D:A:g2"
    disjoint = _rep_instance([(0, 1), (2, 3), (4, 5)], k=2, n=3)
    assert fpt_report(disjoint).reason == "no 2 candidates hit every population's winning committee"
    assert solve_drcwd(disjoint).reason == "search space exhausted"
    assert solve_drcwd(packed, exhaustive=True).reason == "pairwise infeasible: D:A:g1 vs D:A:g2"
    assert solve_drcwd(disjoint, exhaustive=True).reason == "search space exhausted"
    feasible = _mu1_instance((1, 1), k=2)
    for report in (mu1_fast_path(feasible), brute_force_oracle(feasible), solve_drcwd(feasible),
                   solve_drcwd(feasible, exhaustive=True)):
        assert report.committee is not None and report.reason is None


def test_heuristic_score_never_beats_oracle():
    for seed in range(30):
        instance = random_instance(seed)
        oracle = brute_force_oracle(instance)
        heuristic = solve_drcwd(instance, SolverConfig(timeout=30))
        if oracle.status == "infeasible":
            assert heuristic.status == "infeasible"
        else:
            assert heuristic.score is not None
            assert heuristic.score <= oracle.score


def test_exhaustive_solve_matches_oracle():
    for seed in range(40):
        instance = random_instance(seed)
        oracle = brute_force_oracle(instance)
        solved = solve_drcwd(instance, SolverConfig(timeout=30), exhaustive=True)
        assert (solved.status == "infeasible") == (oracle.status == "infeasible"), f"seed {seed}"
        if oracle.status == "optimal":
            assert solved.score == oracle.score, f"seed {seed}"


def test_utility_ratio_in_unit_interval():
    for seed in range(25):
        instance = random_instance(seed)
        report = brute_force_oracle(instance)
        if report.utility_ratio is not None:
            assert 0 < report.utility_ratio <= 1


def _mu1_instance(bounds, k):
    # Borda scores 9/8/4/3 on the shared Example-1 rankings, one attribute
    profile = make_profile(
        4, [[0, 1, 2, 3], [0, 1, 2, 3], [3, 0, 1, 2], [1, 2, 0, 3]]
    )
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0, 1], "g2": [2, 3]}),)
    )
    return make_instance(
        profile, scheme, k=k,
        diversity_bounds={("A", "g1"): bounds[0], ("A", "g2"): bounds[1]},
    )


# mu1_fast_path and the fpt functions are test references (scoring_reference):
# the tests below check the exhaustive solve against them.

def test_mu1_fast_path_fills_with_best_unused():
    instance = _mu1_instance((1, 1), k=3)
    report, fast = _exhaustive(instance), mu1_fast_path(instance)
    assert report.status == fast.status == "optimal"
    assert report.committee.members == fast.committee.members == (0, 1, 2)


def test_mu1_fast_path_exact_when_bounds_fill_committee():
    instance = _mu1_instance((1, 1), k=2)
    # exactly the per-group top scorers
    assert _exhaustive(instance).committee.members == mu1_fast_path(instance).committee.members == (0, 2)


def test_mu1_fast_path_infeasible():
    instance = _mu1_instance((2, 1), k=2)
    assert _exhaustive(instance).status == mu1_fast_path(instance).status == "infeasible"


def test_mu1_fast_path_matches_oracle():
    for seed in range(60):
        instance = random_instance(seed, mu=1, pi=0, rule=kborda())
        solved, fast = _exhaustive(instance), mu1_fast_path(instance)
        oracle = brute_force_oracle(instance)
        assert solved.status == fast.status == oracle.status, f"seed {seed}"
        if oracle.status == "optimal":
            assert solved.score == fast.score == oracle.score, f"seed {seed}"
            assert solved.committee == oracle.committee, f"seed {seed}"


def _rep_instance(winning, k, m=6, n=4):
    profile = make_profile(m, [list(range(m))] * n)
    populations = {f"p{i}": [i] for i in range(len(winning))}
    scheme = AttributeScheme(voter_attributes=(Attribute("B", populations),))
    return make_instance(
        profile,
        scheme,
        k=k,
        representation_bounds={("B", f"p{i}"): 1 for i in range(len(winning))},
        winning_committees={("B", f"p{i}"): tuple(w) for i, w in enumerate(winning)},
    )


def test_fpt_shared_candidate_hits_both():
    instance = _rep_instance([(1, 2), (2, 3)], k=2, n=2)
    committees = fpt_rep_solver(instance)
    assert committees  # feasible
    for members in [committee.members for committee in committees] + [_exhaustive(instance).committee.members]:
        assert set(members) & {1, 2} and set(members) & {2, 3}


def test_fpt_disjoint_committees_infeasible():
    instance = _rep_instance([(0, 1), (2, 3), (4, 5)], k=2, n=3)
    assert fpt_rep_solver(instance) == []
    assert _exhaustive(instance).status == "infeasible"


def test_dominated_candidate_pruning_keeps_cover_maximal():
    instance = _rep_instance([(1, 2), (2, 3)], k=2, n=2)
    survivors = dominated_candidate_pruning(instance)
    assert 2 in survivors  # covers both populations
    assert 0 not in survivors and 4 not in survivors  # cover nothing


def test_fpt_matches_oracle_and_pruning_is_safe():
    for seed in range(60):
        instance = random_instance(seed, mu=0, pi=1 + seed % 2, unit_rep_bounds=True)
        if instance.pi == 0:
            continue
        oracle = brute_force_oracle(instance)
        assert bool(fpt_rep_solver(instance)) == (oracle.status == "optimal"), f"seed {seed}"
        solved = _exhaustive(instance)
        assert (solved.status, solved.score) == (oracle.status, oracle.score), f"seed {seed}"
        if instance.rule.separable:
            assert solved.score == fpt_report(instance).score, f"seed {seed}"


def test_fpt_committees_satisfy_instance():
    for seed in range(20):
        instance = random_instance(seed, mu=0, pi=1, unit_rep_bounds=True)
        for committee in fpt_rep_solver(instance):
            assert len(committee.members) == instance.k
            assert satisfies(instance, committee.members).ok


def test_fpt_report_best_committee():
    instance = _rep_instance([(1, 2), (2, 3)], k=2, n=2)
    report = fpt_report(instance)
    assert report.status == "optimal"  # kborda is separable
    oracle, solved = brute_force_oracle(instance), _exhaustive(instance)
    assert report.score == oracle.score == solved.score
    assert solved.status == "optimal" and solved.committee == oracle.committee


def test_fpt_report_score_matches_oracle():
    # two populations of four voters; equal-cover candidates differ in score
    scheme = AttributeScheme(voter_attributes=(Attribute("B", {"p0": [0, 1, 2, 3], "p1": [4, 5, 6, 7]}),))
    for seed in range(300):
        rng = random.Random(seed)
        profile = make_profile(6, [rng.sample(range(6), 6) for _ in range(8)])
        instance = make_instance(profile, scheme, k=2, rule=kborda(),
                                 representation_bounds={("B", "p0"): 1, ("B", "p1"): 1})
        report, oracle, solved = fpt_report(instance), brute_force_oracle(instance), _exhaustive(instance)
        assert report.status == oracle.status == solved.status, f"seed {seed}"
        assert report.score == oracle.score == solved.score, f"seed {seed}"
        assert solved.committee == oracle.committee, f"seed {seed}"


def test_dominance_prefers_the_higher_score():
    # 1 and 3 cover the same population; 3 outscores 1 but comes later in priority
    profile = make_profile(4, [[3, 1, 0, 2], [3, 1, 2, 0]], priority=[1, 3, 0, 2])
    instance = make_instance(
        profile,
        AttributeScheme(voter_attributes=(Attribute("B", {"p0": [0, 1]}),)),
        k=2,
        representation_bounds={("B", "p0"): 1},
    )
    assert dominated_candidate_pruning(instance) == [3]


def test_best_committee_tie_breaks_lexicographically():
    # two committees tie: every candidate scores the same
    profile = make_profile(4, [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]])
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0, 3], "g2": [1, 2]}),)
    )
    instance = make_instance(
        profile, scheme, k=2, diversity_bounds={("A", "g1"): 1, ("A", "g2"): 1}
    )
    report = brute_force_oracle(instance)
    assert report.committee.members == (0, 1)


def test_each_instance_ranks_its_candidates_for_padding_once(example1, monkeypatch):
    calls = []
    original = rules.candidate_scores

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (rules, constraints, solver, winner):
        if getattr(module, "candidate_scores", None) is original:
            monkeypatch.setattr(module, "candidate_scores", spy)
    # a solve that pads nothing ranks nothing
    assert solve_feasibility(example1).committees
    assert calls == []
    for instance in (_mu1_instance((1, 1), k=3), _rep_instance([(0, 1, 2), (2, 3, 4)], k=3, n=2)):
        calls.clear()
        # a solution short of 3 members meets every bound, so the search pads it
        assert solve_feasibility(instance).committees
        assert len(calls) == 1
        assert solve_drcwd(instance, exhaustive=True).status == "optimal"
        assert solve_feasibility(instance).committees
        assert len(calls) == 1, instance.scheme

"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``-rA``) to see the
per-criterion lines.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import time
from collections import Counter, defaultdict

from dire.constraints import AttributeScheme, make_instance, satisfies
from dire.experiment import ExperimentConfig, run_experiment, write_csv
from dire.fileio import dumps_instance
from dire.reductions import InputGraph, reduce_vc_cc, reduce_vc_diversity, reduce_vc_representation
from dire.rules import Rule, betacc, borda_vector, candidate_scores, score_committee, unconstrained_winner
from dire.solver import SolverConfig, build_diregraph, preprocess, solve_feasibility
from dire.synth import MallowsParams, gen_syndata, sample_mallows
from dire.winner import solve_drcwd
from conftest import brute_force_feasible_set, brute_force_graph_set, random_instance
from scoring_reference import brute_force_oracle, fpt_rep_solver, fpt_report, has_vertex_cover, kendall_tau

PASS = "ACCEPTANCE {num}: {name} ... PASS"


def test_criterion_1_golden_example(example1):
    start = time.monotonic()
    unconstrained = unconstrained_winner(example1.profile, example1.rule, example1.k)
    assert unconstrained.score == 17

    diverse_only = make_instance(
        example1.profile,
        AttributeScheme(candidate_attributes=example1.scheme.candidate_attributes),
        k=2,
        diversity_bounds=dict(example1.diversity_bounds),
    )
    assert brute_force_oracle(diverse_only).score == 13

    report = solve_drcwd(example1, SolverConfig(timeout=10), exhaustive=True)
    assert report.score == 12
    assert satisfies(example1, report.committee.members).ok
    assert len(satisfies(example1, report.committee.members).violations) == 0

    assert brute_force_feasible_set(example1) == [(0, 3), (1, 2), (1, 3)]
    feasibility = solve_feasibility(example1, SolverConfig(timeout=10))
    assert set(feasibility.committees) <= {(0, 3), (1, 2), (1, 3)}

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(PASS.format(num=1, name=f"golden fixture (17/13/12, 3 feasible committees, {elapsed:.2f}s)"))


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    rules = ["kborda", "betacc", "monroe"]
    total = 210
    for i in range(total):
        instance = random_instance(seed=10_000 + i, rule=Rule(rules[i % 3]))
        oracle = brute_force_oracle(instance)
        solved = solve_drcwd(instance, SolverConfig(timeout=60), exhaustive=True)
        assert (solved.status == "infeasible") == (oracle.status == "infeasible"), f"seed {10_000 + i}"
        if oracle.status == "optimal":
            assert solved.score == oracle.score, f"seed {10_000 + i}"
            assert solved.committee == oracle.committee, f"seed {10_000 + i}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(PASS.format(num=2, name=f"oracle equivalence on {total} instances, 3 rules ({elapsed:.1f}s)"))


def test_criterion_3_soundness_everywhere():
    checked = 0
    for i in range(80):
        instance = random_instance(seed=30_000 + i)
        config = SolverConfig(timeout=60)
        returned = []
        feas = solve_feasibility(instance, config)
        returned.extend(feas.committees)
        for report in (solve_drcwd(instance, config), solve_drcwd(instance, config, exhaustive=True),
                       brute_force_oracle(instance)):
            if report.committee is not None:
                returned.append(report.committee.members)
        for committee in returned:
            assert len(set(committee)) == instance.k
            assert satisfies(instance, committee).ok
            checked += 1
    assert checked > 100
    print(PASS.format(num=3, name=f"soundness: {checked} returned committees all valid, size k"))


def test_criterion_4_pruning_and_reduction_soundness():
    prunes = 0
    reductions = 0
    for i in range(150):
        instance = random_instance(seed=40_000 + i)
        expected = brute_force_feasible_set(instance)
        graph = build_diregraph(instance)
        before = list(graph.domains)
        if preprocess(graph) is not None:
            prunes += 1
            assert expected == [], f"seed {40_000 + i}: prune on feasible instance"
            continue
        if graph.domains != before:
            reductions += 1
        assert brute_force_graph_set(graph) == expected, f"seed {40_000 + i}"
    assert prunes > 0 and reductions > 0  # both code paths must be exercised
    print(PASS.format(num=4, name=f"pruning sound on {prunes} pruned / {reductions} reduced instances"))


def test_criterion_5_betacc_properties():
    import random as _random

    rng = _random.Random(55_000)
    triples = 0
    while triples < 1000:
        m = rng.randint(3, 8)
        n = rng.randint(1, 6)
        profile_rankings = [rng.sample(range(m), m) for _ in range(n)]
        from dire.profiles import make_profile

        profile = make_profile(m, profile_rankings)
        vector = borda_vector(m)
        mass = sum(candidate_scores(profile, vector))
        assert mass == n * m * (m - 1) // 2  # Borda mass conservation

        for _ in range(10):
            b_size = rng.randint(1, m - 1)
            b = set(rng.sample(range(m), b_size))
            a = {x for x in b if rng.random() < 0.6}
            extra = rng.choice([x for x in range(m) if x not in b])
            f = lambda s: score_committee(profile, betacc(), s)
            assert f(a) <= f(b), "monotonicity violated"
            assert f(a | {extra}) - f(a) >= f(b | {extra}) - f(b), "submodularity violated"
            triples += 1
    print(PASS.format(num=5, name=f"beta-CC monotone + submodular on {triples} triples"))


def test_criterion_6_fpt_equivalence():
    # representation only, unit bounds: the exhaustive solve against the
    # fpt reference (hitting sets after dominated-candidate pruning) and the oracle
    total = 0
    for i in range(120):
        instance = random_instance(seed=60_000 + i, mu=0, pi=1 + i % 2, unit_rep_bounds=True)
        if instance.pi < 1:
            continue
        total += 1
        oracle = brute_force_oracle(instance)
        solved = solve_drcwd(instance, SolverConfig(timeout=60), exhaustive=True)
        assert bool(fpt_rep_solver(instance)) == (oracle.status == "optimal"), f"seed {60_000 + i}"
        assert (solved.status, solved.committee) == (oracle.status, oracle.committee), f"seed {60_000 + i}"
        if instance.rule.separable:
            assert solved.score == fpt_report(instance).score, f"seed {60_000 + i}"
    assert total >= 100
    print(PASS.format(num=6, name=f"exhaustive solve matches fpt reference and oracle on {total} instances"))


PETERSEN_SUBGRAPH = InputGraph(
    8, [(0, 1), (1, 2), (2, 3), (5, 7), (0, 5), (1, 6), (2, 7), (0, 4), (3, 4)]
)  # induced on the first 8 vertices of the Petersen graph

ROUND_TRIP_GRAPHS = [
    ("triangle", InputGraph(3, [(0, 1), (0, 2), (1, 2)])),
    ("P3", InputGraph(3, [(0, 1), (1, 2)])),
    ("two-edges", InputGraph(4, [(0, 1), (2, 3)])),
    ("K4", InputGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])),
    ("C5", InputGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])),
    ("petersen-sub", PETERSEN_SUBGRAPH),
]


def test_criterion_7_reduction_round_trips():
    checks = 0
    for name, graph in ROUND_TRIP_GRAPHS:
        for k in (2, 3):
            expected = has_vertex_cover(graph, k)
            rep = reduce_vc_representation(graph, pi=1, k=k)
            assert (brute_force_oracle(rep.instance).status == "optimal") == expected, (name, k)
            cc = reduce_vc_cc(graph, k)
            best = unconstrained_winner(cc.instance.profile, cc.instance.rule, k)
            assert (best.score == cc.zero_misrepresentation_score) == expected, (name, k)
            checks += 2
    k4 = dict(ROUND_TRIP_GRAPHS)["K4"]
    k33 = InputGraph(6, [(u, v + 3) for u in range(3) for v in range(3)])
    for name, graph in (("K4", k4), ("K3,3", k33)):
        for k in (2, 3):
            div = reduce_vc_diversity(graph, mu=3, k=k)
            feasible = brute_force_oracle(div.instance).status == "optimal"
            assert feasible == has_vertex_cover(graph, k), (name, k)
            checks += 1
    print(PASS.format(num=7, name=f"vertex-cover round trips, {checks} (graph, k) checks"))


def test_criterion_8_mallows_statistics():
    start = time.monotonic()
    sigma3 = (0, 1, 2)
    profile = sample_mallows(MallowsParams(phi=1.0, sigma=sigma3, seed=808), 60_000)
    freq = Counter(profile.rankings)
    assert len(freq) == 6
    for ranking, count in freq.items():
        assert abs(count / 60_000 - 1 / 6) < 0.02, ranking

    sigma5 = tuple(range(5))
    means = {}
    for phi in (1.0, 0.5, 0.1):
        sampled = sample_mallows(MallowsParams(phi=phi, sigma=sigma5, seed=809), 10_000)
        means[phi] = sum(kendall_tau(r, sigma5) for r in sampled.rankings) / sampled.n
    assert means[0.1] < means[0.5] < means[1.0]

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(PASS.format(num=8, name=f"Mallows uniformity +/-2% and Kendall ordering ({elapsed:.1f}s)"))


def test_criterion_9_desk_scale_trends():
    config = ExperimentConfig(
        dataset="syn1",
        seeds=tuple(range(20)),
        rules=("kborda",),
        mu_values=(0, 1, 2),
        pi_values=(0, 1, 2),
        m=10,
        n=12,
        k=3,
        timeout=120,
        exhaustive=True,  # every status is oracle-certified at this scale
    )
    rows = run_experiment(config)
    assert len(rows) == 9 * 20
    assert all(row["status"] in ("optimal", "infeasible") for row in rows)

    feasible_by_s = defaultdict(list)
    utility_by_s = defaultdict(list)
    for row in rows:
        s = int(row["mu"]) + int(row["pi"])
        feasible = row["status"] == "optimal"
        feasible_by_s[s].append(feasible)
        if feasible and row["utility_ratio"]:
            utility_by_s[s].append(float(row["utility_ratio"]))

    rates = [sum(v) / len(v) for _, v in sorted(feasible_by_s.items())]
    assert all(a >= b for a, b in zip(rates, rates[1:])), rates

    means = [sum(v) / len(v) for _, v in sorted(utility_by_s.items()) if v]
    assert all(a >= b for a, b in zip(means, means[1:])), means
    assert means[0] == 1.0  # unconstrained instances lose nothing

    print(PASS.format(
        num=9,
        name=f"feasibility {['%.2f' % r for r in rates]} and utility {['%.3f' % u for u in means]} non-increasing",
    ))


def test_criterion_10_byte_identical_outputs(tmp_path):
    syn_args = dict(kind="syn1", mu=2, pi=1, seed=17, m=10, n=8, k=3)
    first = dumps_instance(gen_syndata(**syn_args))
    second = dumps_instance(gen_syndata(**syn_args))
    assert first == second

    div_a = reduce_vc_diversity(dict(ROUND_TRIP_GRAPHS)["K4"], mu=5, k=2, seed=4)
    div_b = reduce_vc_diversity(dict(ROUND_TRIP_GRAPHS)["K4"], mu=5, k=2, seed=4)
    assert dumps_instance(div_a.instance) == dumps_instance(div_b.instance)

    config = ExperimentConfig(
        dataset="syn1", seeds=(1, 2), rules=("kborda",),
        mu_values=(0, 1), pi_values=(0, 1), m=8, n=6, k=2,
        timeout=60, exhaustive=True,
    )
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_experiment(config), path_a)
    write_csv(run_experiment(config), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    print(PASS.format(num=10, name="generate and experiment outputs byte-identical across reruns"))

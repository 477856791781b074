import itertools
import random
import time

import pytest

from dire import solver
from dire.constraints import Attribute, AttributeScheme, make_instance, satisfies
from dire.profiles import make_profile
from dire.reductions import InputGraph, min_vertex_cover_size, reduce_vc_representation
from dire.solver import (
    DiReGraph,
    SolverConfig,
    SolverError,
    build_diregraph,
    components,
    domain_reduce,
    enumerate_feasible,
    heuristic_backtrack,
    pairwise_feasible,
    preprocess,
    solve_feasibility,
    SolverTimeout,
    _mfc_order,
    _pad_solution,
)
from dire.synth import gen_syndata
from conftest import random_instance


def brute_force_feasible_set(instance):
    """Independent enumeration straight from the constraint definitions."""
    feasible = []
    constraints = [(set(c.domain), c.bound) for c in instance.constraints()]
    for combo in itertools.combinations(range(instance.m), instance.k):
        members = set(combo)
        if all(len(members & domain) >= bound for domain, bound in constraints):
            feasible.append(combo)
    return feasible


def graph_from_spec(k, m, domains, bounds):
    return DiReGraph(
        k=k,
        m=m,
        keys=[f"X{i}" for i in range(len(domains))],
        domains=[frozenset(d) for d in domains],
        bounds=list(bounds),
        priority=tuple(range(m)),
        score_fn=lambda: [0] * m,
    )


def test_build_diregraph_example1(example1):
    graph = build_diregraph(example1)
    assert graph.keys == ["D:gender:male", "D:gender:female", "R:state:CA", "R:state:IL"]
    assert [sorted(d) for d in graph.domains] == [[0, 1], [2, 3], [0, 1], [1, 3]]
    assert graph.bounds == [1, 1, 1, 1]
    assert graph.out_degree(1) == 3  # c2 belongs to male, CA, IL


def test_build_diregraph_no_constraints():
    profile = make_profile(3, [[0, 1, 2]])
    instance = make_instance(profile, AttributeScheme(), k=2)
    graph = build_diregraph(instance)
    assert graph.domains == []
    assert len(components(graph)) == 3  # each candidate is its own component


def test_components_single_component(example1):
    comps = components(build_diregraph(example1))
    assert len(comps) == 1
    assert len(comps[0]) == 8  # 4 candidates + 4 constraints


def test_components_disjoint_halves():
    profile = make_profile(4, [[0, 1, 2, 3]])
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"low": [0, 1], "high": [2, 3]}),)
    )
    instance = make_instance(
        profile, scheme, k=2, diversity_bounds={("A", "low"): 1, ("A", "high"): 1}
    )
    comps = components(build_diregraph(instance))
    assert len(comps) == 2
    assert sorted(len(c) for c in comps) == [3, 3]


def test_pairwise_feasible_formula():
    graph = graph_from_spec(2, 4, [{0, 1}, {2, 3}], [1, 1])
    assert pairwise_feasible(graph, 0, 1)  # |overlap|=0 >= 1+1-2
    graph = graph_from_spec(2, 4, [{0, 1}, {1, 2}], [2, 2])
    assert not pairwise_feasible(graph, 0, 1)  # 1 < 2+2-2
    graph = graph_from_spec(4, 6, [{0, 1}, {2, 3}], [2, 2])
    assert pairwise_feasible(graph, 0, 1)  # bound sum <= k passes regardless


def test_pairwise_feasible_needs_distinct_constraints():
    graph = graph_from_spec(2, 4, [{0, 1}, {2, 3}], [1, 1])
    with pytest.raises(SolverError):
        pairwise_feasible(graph, 1, 1)


def test_domain_reduce_noop_on_example1(example1):
    graph = build_diregraph(example1)
    config = SolverConfig()
    before = [set(d) for d in graph.domains]
    for i, j in itertools.permutations(range(4), 2):
        domain_reduce(graph, i, j, config)
    assert [set(d) for d in graph.domains] == before


def test_domain_reduce_empties_overpacked_domain():
    # any 2-subset of D_0 plus {2} needs 3 seats but k=2
    graph = graph_from_spec(2, 3, [{0, 1}, {2}], [2, 1])
    changed, _ = domain_reduce(graph, 0, 1, SolverConfig())
    assert changed
    assert graph.domains[0] == frozenset()


def test_domain_reduce_unit_bound_specialization():
    # d=0 can only pair with {3}; {0, 3} needs 2 seats and k=2, so 0 stays;
    # with k=1 nothing coexists and the domain empties
    graph = graph_from_spec(2, 4, [{0, 1}, {3}], [1, 1])
    changed, _ = domain_reduce(graph, 0, 1, SolverConfig())
    assert not changed
    graph = graph_from_spec(1, 4, [{0, 1}, {3}], [1, 1])
    changed, _ = domain_reduce(graph, 0, 1, SolverConfig())
    assert changed and graph.domains[0] == frozenset()


def test_domain_reduce_combo_cap_skips():
    graph = graph_from_spec(2, 8, [set(range(6)), {6, 7}], [2, 1])
    config = SolverConfig(domain_reduce_combo_cap=1)
    changed, skips = domain_reduce(graph, 0, 1, config)
    assert not changed  # every candidate skipped, nothing removed
    assert len(skips) == 6


def test_mfc_order_example1(example1):
    graph = build_diregraph(example1)
    order = _mfc_order(graph, None)
    assert order[0] == 1  # c2 has the highest out-degree
    assert order[-1] == 2  # c3 touches only one constraint


def test_heuristic_backtrack_example1(example1):
    committee = heuristic_backtrack(build_diregraph(example1), SolverConfig(timeout=10))
    assert committee in {(0, 3), (1, 2), (1, 3)}


def test_heuristic_backtrack_infeasible_bounds():
    profile = make_profile(4, [[0, 1, 2, 3]])
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0, 1], "g2": [2, 3]}),)
    )
    instance = make_instance(
        profile, scheme, k=2, diversity_bounds={("A", "g1"): 2, ("A", "g2"): 1}
    )
    assert heuristic_backtrack(build_diregraph(instance), SolverConfig(timeout=10)) is None


def test_solution_padded_to_k():
    # one tiny constraint, k=3: the search satisfies it with one pick and pads
    profile = make_profile(5, [[4, 3, 2, 1, 0], [4, 3, 2, 1, 0]])
    scheme = AttributeScheme(candidate_attributes=(Attribute("A", {"g1": [0], "g2": [1, 2, 3, 4]}),))
    instance = make_instance(
        profile, scheme, k=3,
        diversity_bounds={("A", "g1"): 1, ("A", "g2"): 1},
    )
    committee = heuristic_backtrack(build_diregraph(instance), SolverConfig(timeout=10))
    assert committee is not None and len(committee) == 3
    assert satisfies(instance, committee).ok
    assert 4 in committee  # padding prefers the top scorer


def test_enumerate_exhaustive_example1(example1):
    graph = build_diregraph(example1)
    result = enumerate_feasible(graph, SolverConfig(timeout=10), exhaustive=True)
    assert sorted(result.committees) == [(0, 3), (1, 2), (1, 3)]
    assert result.complete and not result.timed_out


def test_enumerate_infeasible_returns_empty():
    profile = make_profile(4, [[0, 1, 2, 3]])
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0, 1], "g2": [2, 3]}),)
    )
    instance = make_instance(
        profile, scheme, k=2, diversity_bounds={("A", "g1"): 2, ("A", "g2"): 1}
    )
    for exhaustive in (False, True):
        result = enumerate_feasible(build_diregraph(instance), SolverConfig(timeout=10),
                                    exhaustive=exhaustive)
        assert result.committees == ()


def test_enumerate_single_committee_cap(example1):
    graph = build_diregraph(example1)
    config = SolverConfig(timeout=10, max_committees=1)
    result = enumerate_feasible(graph, config)
    single = heuristic_backtrack(build_diregraph(example1), config)
    assert result.committees == (single,)


def test_preprocess_prunes_cross_component_conflict():
    # two constraints demanding 2 seats each from disjoint domains, k=3
    profile = make_profile(4, [[0, 1, 2, 3]])
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0, 1], "g2": [2, 3]}),)
    )
    instance = make_instance(
        profile, scheme, k=3, diversity_bounds={("A", "g1"): 2, ("A", "g2"): 2}
    )
    graph = build_diregraph(instance)
    result = preprocess(graph, SolverConfig(timeout=10))
    assert not result.feasible
    assert result.pruned_pairs


def test_preprocess_example1_no_changes(example1):
    graph = build_diregraph(example1)
    result = preprocess(graph, SolverConfig(timeout=10))
    assert result.feasible
    assert result.reductions == []


def test_exhaustive_matches_brute_force_on_random_instances():
    for seed in range(40):
        instance = random_instance(seed)
        expected = brute_force_feasible_set(instance)
        result = solve_feasibility(instance, SolverConfig(timeout=30), exhaustive=True)
        assert sorted(result.committees) == expected, f"seed {seed}"
        assert result.proven_infeasible == (not expected)


def test_heuristic_committees_are_sound_and_consistent():
    for seed in range(40):
        instance = random_instance(seed)
        expected = set(brute_force_feasible_set(instance))
        result = solve_feasibility(instance, SolverConfig(timeout=30))
        for committee in result.committees:
            assert len(committee) == instance.k
            assert satisfies(instance, committee).ok
            assert committee in expected
        assert result.proven_infeasible == (not expected)


def test_pruning_soundness_on_random_instances():
    pruned = 0
    for seed in range(120):
        instance = random_instance(seed)
        graph = build_diregraph(instance)
        result = preprocess(graph, SolverConfig(timeout=30))
        if not result.feasible:
            pruned += 1
            assert brute_force_feasible_set(instance) == []
    assert pruned > 0  # the suite must actually exercise the prune path


def test_domain_reduction_preserves_feasible_set():
    for seed in range(60):
        instance = random_instance(seed)
        expected = brute_force_feasible_set(instance)
        graph = build_diregraph(instance)
        prep = preprocess(graph, SolverConfig(timeout=30))
        if not prep.feasible:
            assert expected == []
            continue
        # enumerate on the reduced graph: still exactly the brute-force set
        enum = enumerate_feasible(graph, SolverConfig(timeout=30), exhaustive=True)
        assert sorted(enum.committees) == expected


def test_solver_determinism(example1):
    first = solve_feasibility(example1, SolverConfig(timeout=10))
    second = solve_feasibility(example1, SolverConfig(timeout=10))
    assert first.committees == second.committees
    third = solve_feasibility(example1, SolverConfig(timeout=10, seed=99))
    for committee in third.committees:
        assert satisfies(example1, committee).ok


def test_timeout_is_flagged(example1):
    result = solve_feasibility(example1, SolverConfig(timeout=1e-9))
    assert result.timed_out
    assert not result.proven_infeasible


def test_config_validation():
    with pytest.raises(SolverError):
        SolverConfig(timeout=0)
    with pytest.raises(SolverError):
        SolverConfig(max_committees=0)


# --- reference search: plain backtracking and recursive enumeration, kept
# --- test-only so the pruned search can be checked against them

def reference_backtrack(graph, config=None, rotation=0, deadline=None):
    """Backtracking without sibling exclusion, symmetry or lookahead."""
    config = config or SolverConfig()
    if deadline is None:
        deadline = time.monotonic() + config.timeout
    rng = random.Random(config.seed) if config.seed is not None else None
    rank_of = {c: idx for idx, c in enumerate(_mfc_order(graph, rng))}
    n_constraints = len(graph.domains)
    inflow = [0] * n_constraints
    member_of = [[i for i in range(n_constraints) if c in graph.domains[i]] for c in range(graph.m)]
    solution = []

    def select_variable():
        best, best_ratio, ties = None, None, []
        for idx in range(n_constraints):
            missing = graph.bounds[idx] - inflow[idx]
            if missing <= 0:
                continue
            value = len(graph.domains[idx]) / missing
            if best_ratio is None or value < best_ratio:
                best_ratio, best, ties = value, idx, [idx]
            elif value == best_ratio:
                ties.append(idx)
        if rng is not None and len(ties) > 1:
            return rng.choice(ties)
        return best

    def search(at_root):
        if time.monotonic() > deadline:
            raise SolverTimeout("backtracking timed out")
        variable = select_variable()
        if variable is None:
            return list(solution)
        cands = sorted(graph.domains[variable], key=lambda c: rank_of[c])
        if at_root and rotation and cands:
            r = rotation % len(cands)
            cands = cands[r:] + cands[:r]
        for cand in cands:
            if cand in solution or len(solution) + 1 > graph.k:
                continue
            solution.append(cand)
            for idx in member_of[cand]:
                inflow[idx] += 1
            found = search(False)
            if found is not None:
                return found
            solution.pop()
            for idx in member_of[cand]:
                inflow[idx] -= 1
        return None

    found = search(True)
    return None if found is None else _pad_solution(graph, found)


def reference_exhaustive(graph, config, deadline):
    """Include/exclude DFS recursing on both branches (depth up to m)."""
    order = _mfc_order(graph, None)
    n_constraints = len(graph.domains)
    results, inflow, chosen = [], [0] * n_constraints, []

    def dfs(pos):
        if len(chosen) == graph.k:
            if all(inflow[i] >= graph.bounds[i] for i in range(n_constraints)):
                results.append(tuple(sorted(chosen)))
            return
        if len(chosen) + (graph.m - pos) < graph.k:
            return
        rest = order[pos:]
        for i in range(n_constraints):
            if inflow[i] + sum(1 for c in rest if c in graph.domains[i]) < graph.bounds[i]:
                return
        cand = order[pos]
        touched = [i for i in range(n_constraints) if cand in graph.domains[i]]
        chosen.append(cand)
        for i in touched:
            inflow[i] += 1
        dfs(pos + 1)
        chosen.pop()
        for i in touched:
            inflow[i] -= 1
        dfs(pos + 1)

    dfs(0)
    assert len(results) <= config.max_committees
    return results, False, False


def random_cubic_graph(vertices, seed):
    """Seeded simple 3-regular graph from the pairing model (stdlib only)."""
    rng = random.Random(seed)
    points = [v for v in range(vertices) for _ in range(3)]
    while True:
        rng.shuffle(points)
        edges = {tuple(sorted(pair)) for pair in zip(points[::2], points[1::2])}
        if len(edges) == len(points) // 2 and all(u != v for u, v in edges):
            return InputGraph(vertices, sorted(edges))


def equivalence_instances():
    """(instance, whether to compare exhaustive mode too) pairs."""
    for seed in range(60):
        yield random_instance(seed), True
    for seed in range(12):
        rng = random.Random(seed)
        yield gen_syndata("syn1", mu=rng.randint(0, 3), pi=rng.randint(0, 3), seed=seed,
                          m=14, n=12, k=rng.randint(3, 5)), True
    for vertices, seed in ((6, 0), (6, 1), (8, 0), (8, 1)):
        graph = random_cubic_graph(vertices, seed)
        cover = min_vertex_cover_size(graph)
        for k in (cover - 1, cover, cover + 1):
            # the feasible sets of the V=8 reductions are too large to enumerate here
            yield reduce_vc_representation(graph, 1, k).instance, vertices == 6


def outcome(result):
    return result.committees, result.proven_infeasible, result.complete, result.timed_out


def test_pruned_search_matches_reference_search(monkeypatch):
    cases = list(equivalence_instances())
    modes = [(SolverConfig(timeout=60, max_committees=1), False),
             (SolverConfig(timeout=60), False),
             (SolverConfig(timeout=60), True)]

    def outcomes(instance, with_exhaustive):
        return [outcome(solve_feasibility(instance, config, exhaustive=ex))
                for config, ex in modes if with_exhaustive or not ex]

    pruned = [outcomes(*case) for case in cases]
    monkeypatch.setattr(solver, "heuristic_backtrack", reference_backtrack)
    monkeypatch.setattr(solver, "_enumerate_exhaustive", reference_exhaustive)
    verdicts = set()
    for case, got in zip(cases, pruned):
        expected = outcomes(*case)
        assert got == expected
        verdicts.add(expected[0][1])
    assert verdicts == {False, True}  # both feasible and infeasible instances covered


def test_vc_rep_infeasibility_proof_is_fast():
    # the plain search needs about 11 s on this instance
    graph = random_cubic_graph(14, 0)
    cover = min_vertex_cover_size(graph)
    instance = reduce_vc_representation(graph, 1, cover - 1).instance
    result = solve_feasibility(instance, SolverConfig(timeout=5, max_committees=1))
    assert result.proven_infeasible
    assert not result.timed_out


def test_seeded_search_is_sound_and_deterministic():
    for seed in range(30):
        instance = random_instance(seed)
        expected = set(brute_force_feasible_set(instance))
        for rng_seed in (1, 7):
            config = SolverConfig(timeout=30, seed=rng_seed)
            first = solve_feasibility(instance, config)
            assert outcome(first) == outcome(solve_feasibility(instance, config))
            assert set(first.committees) <= expected
            assert first.proven_infeasible == (not expected)


def test_exhaustive_depth_does_not_grow_with_m():
    instance = gen_syndata("syn1", mu=0, pi=0, m=1500, n=5, k=1)
    result = solve_feasibility(instance, SolverConfig(timeout=60), exhaustive=True)
    assert result.committees == tuple((c,) for c in range(1500))
    assert result.complete

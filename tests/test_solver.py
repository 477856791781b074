import dataclasses
import gc
import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

import dire
from dire import constraints, solver, winner
from dire.constraints import Attribute, AttributeScheme, fill_seats, holders, make_instance, satisfies
from dire.profiles import make_profile
from dire.reductions import InputGraph, reduce_vc_representation
from dire.solver import (
    DiReGraph,
    SolverConfig,
    SolverError,
    build_diregraph,
    domain_reduce,
    enumerate_feasible,
    heuristic_backtrack,
    pairwise_feasible,
    preprocess,
    solve_feasibility,
    SolverTimeout,
    _mfc_order,
)
from dire.synth import gen_syndata
from scoring_reference import min_vertex_cover_size, plain_backtrack
from conftest import brute_force_feasible_set, brute_force_graph_set, random_instance


def graph_from_spec(k, m, domains, bounds):
    return DiReGraph(
        k=k,
        m=m,
        keys=[f"X{i}" for i in range(len(domains))],
        domains=[frozenset(d) for d in domains],
        bounds=list(bounds),
        rank=tuple(range(m)),
        padding_order=lambda: tuple(range(m)),
    )


def test_build_diregraph_example1(example1):
    graph = build_diregraph(example1)
    assert graph.keys == ["D:gender:male", "D:gender:female", "R:state:CA", "R:state:IL"]
    assert [sorted(d) for d in graph.domains] == [[0, 1], [2, 3], [0, 1], [1, 3]]
    assert graph.bounds == [1, 1, 1, 1]
    assert holders(graph.domains, graph.m)[1] == (0, 2, 3)  # c2 belongs to male, CA, IL


def test_build_diregraph_no_constraints():
    profile = make_profile(3, [[0, 1, 2]])
    instance = make_instance(profile, AttributeScheme(), k=2)
    graph = build_diregraph(instance)
    assert graph.domains == []


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
    before = [set(d) for d in graph.domains]
    for i, j in itertools.permutations(range(4), 2):
        domain_reduce(graph, i, j)
    assert [set(d) for d in graph.domains] == before


def test_domain_reduce_empties_overpacked_domain():
    # any 2-subset of D_0 plus {2} needs 3 seats but k=2
    graph = graph_from_spec(2, 3, [{0, 1}, {2}], [2, 1])
    changed = domain_reduce(graph, 0, 1)
    assert changed
    assert graph.domains[0] == frozenset()


def test_domain_reduce_unit_bound_specialization():
    # d=0 can only pair with {3}; {0, 3} needs 2 seats and k=2, so 0 stays;
    # with k=1 nothing coexists and the domain empties
    graph = graph_from_spec(2, 4, [{0, 1}, {3}], [1, 1])
    changed = domain_reduce(graph, 0, 1)
    assert not changed
    graph = graph_from_spec(1, 4, [{0, 1}, {3}], [1, 1])
    changed = domain_reduce(graph, 0, 1)
    assert changed and graph.domains[0] == frozenset()


def test_domain_reduce_is_never_skipped_on_large_domains():
    # C(29, 5) * C(16, 6) subset pairs per candidate: over the old
    # enumeration cap, which kept all 30 candidates; only 0..5 fit
    graph = graph_from_spec(6, 40, [set(range(30)), set(range(6)) | set(range(30, 40))], [6, 6])
    assert domain_reduce(graph, 0, 1)
    assert graph.domains[0] == frozenset(range(6))


def test_mfc_order_example1(example1):
    graph = build_diregraph(example1)
    order = _mfc_order(graph, holders(graph.domains, graph.m))
    assert order[0] == 1  # c2 has the highest out-degree
    assert order[-1] == 2  # c3 touches only one constraint


def test_exact_ratio_tie_branches_on_the_earlier_constraint():
    # X0 needs 2 of 4 members and X1 needs 1 of 2: both offer exactly two
    # members per missing member, so X0 is the root variable and the harvest
    # holds one committee per member of X0 (X1 at the root would give
    # (0, 1, 4), (0, 1, 5))
    graph = graph_from_spec(3, 6, [{0, 1, 2, 3}, {4, 5}], [2, 1])
    result = heuristic_backtrack(graph, SolverConfig(timeout=10))
    assert result.committees == ((0, 1, 4), (0, 2, 4), (0, 3, 4))


def test_solve_feasibility_builds_the_constraints_once(monkeypatch):
    # the soundness re-check reads the instance's one constraint list for
    # every committee instead of building its own
    instance = random_instance(20, m=10, k=4)  # 6 constraints, 37 feasible committees
    built = []
    real = constraints.UnaryConstraint

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(constraints, "UnaryConstraint", spy)
    result = solve_feasibility(instance, SolverConfig(timeout=60))
    assert len(result.committees) == 1
    assert len(built) == len(instance.constraints()) == 6


def test_heuristic_backtrack_example1(example1):
    result = heuristic_backtrack(build_diregraph(example1), SolverConfig(timeout=10))
    assert result.committees
    assert set(result.committees) <= {(0, 3), (1, 2), (1, 3)}


def test_heuristic_backtrack_infeasible_bounds():
    profile = make_profile(4, [[0, 1, 2, 3]])
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0, 1], "g2": [2, 3]}),)
    )
    instance = make_instance(
        profile, scheme, k=2, diversity_bounds={("A", "g1"): 2, ("A", "g2"): 1}
    )
    result = heuristic_backtrack(build_diregraph(instance), SolverConfig(timeout=10))
    assert result.committees == () and result.proven_infeasible


def test_solution_padded_to_k():
    # one tiny constraint, k=3: the search satisfies it with one pick and pads
    profile = make_profile(5, [[4, 3, 2, 1, 0], [4, 3, 2, 1, 0]])
    scheme = AttributeScheme(candidate_attributes=(Attribute("A", {"g1": [0], "g2": [1, 2, 3, 4]}),))
    instance = make_instance(
        profile, scheme, k=3,
        diversity_bounds={("A", "g1"): 1, ("A", "g2"): 1},
    )
    committee = heuristic_backtrack(build_diregraph(instance), SolverConfig(timeout=10)).committees[0]
    assert len(committee) == 3
    assert satisfies(instance, committee).ok
    assert 4 in committee  # padding prefers the top scorer


def test_enumerate_infeasible_returns_empty():
    profile = make_profile(4, [[0, 1, 2, 3]])
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0, 1], "g2": [2, 3]}),)
    )
    instance = make_instance(
        profile, scheme, k=2, diversity_bounds={("A", "g1"): 2, ("A", "g2"): 1}
    )
    result = enumerate_feasible(build_diregraph(instance), SolverConfig(timeout=10))
    assert result.committees == ()


def test_enumerate_single_committee_cap(example1):
    graph = build_diregraph(example1)
    config = SolverConfig(timeout=10, max_committees=1)
    result = enumerate_feasible(graph, config)
    single = heuristic_backtrack(build_diregraph(example1), config)
    assert len(result.committees) == 1
    assert result == single


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
    assert preprocess(graph) == "pairwise infeasible: D:A:g1 vs D:A:g2"


def test_preprocess_example1_no_changes(example1):
    graph = build_diregraph(example1)
    before = list(graph.domains)
    assert preprocess(graph) is None
    assert graph.domains == before


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
        if preprocess(graph) is not None:
            pruned += 1
            assert brute_force_feasible_set(instance) == []
    assert pruned > 0  # the suite must actually exercise the prune path


def test_domain_reduction_preserves_feasible_set():
    for seed in range(60):
        instance = random_instance(seed)
        expected = brute_force_feasible_set(instance)
        graph = build_diregraph(instance)
        if preprocess(graph) is not None:
            assert expected == []
            continue
        # the k-subsets meeting the reduced graph's bounds: still exactly the brute-force set
        assert brute_force_graph_set(graph) == expected


def test_solver_determinism(example1):
    first = solve_feasibility(example1, SolverConfig(timeout=10))
    second = solve_feasibility(example1, SolverConfig(timeout=10))
    assert first.committees == second.committees
    for committee in first.committees:
        assert satisfies(example1, committee).ok


def test_solver_config_has_no_seed():
    # the search breaks every tie by constraint order and priority rank
    with pytest.raises(TypeError):
        SolverConfig(seed=1)


def test_timeout_is_flagged(example1):
    result = solve_feasibility(example1, SolverConfig(timeout=1e-9))
    assert result.timed_out
    assert not result.proven_infeasible


def test_solves_leave_no_reference_cycles(example1):
    # a cycle would keep each solve's search state alive until a collection
    solve_feasibility(example1, SolverConfig(timeout=10))
    gc.collect()
    gc.disable()
    try:
        result = solve_feasibility(example1, SolverConfig(timeout=10))
        assert len(result.committees) >= 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_config_validation():
    with pytest.raises(SolverError):
        SolverConfig(timeout=0)
    with pytest.raises(SolverError):
        SolverConfig(timeout=float("nan"))  # a NaN deadline would never pass
    with pytest.raises(SolverError):
        SolverConfig(max_committees=0)


def test_public_surface_resolves():
    assert sorted(dire.__all__) == [
        "Attribute", "AttributeScheme", "Committee", "DiReInstance", "PreferenceProfile",
        "Rule", "SolveReport", "SolverConfig", "betacc",
        "borda_vector",
        "kborda", "make_instance", "make_profile", "monroe",
        "population_winning_committee", "position", "satisfies", "score_committee",
        "solve_drcwd", "solve_feasibility", "unconstrained_winner",
        "unsatisfied_fraction", "validate_profile",
    ]
    for name in dire.__all__:
        assert getattr(dire, name, None) is not None, name
    # the solver internals stay importable from their module
    for name in ("DiReGraph", "build_diregraph", "pairwise_feasible", "domain_reduce",
                 "preprocess", "heuristic_backtrack", "enumerate_feasible"):
        assert name not in dire.__all__
        assert callable(getattr(solver, name)), name
    fields = [f.name for f in dataclasses.fields(SolverConfig)]
    assert fields == ["timeout", "max_committees"]
    fields = [f.name for f in dataclasses.fields(DiReGraph)]
    assert fields == ["k", "m", "keys", "domains", "bounds", "rank", "padding_order"]
    fields = [f.name for f in dataclasses.fields(solver.FeasibilityResult)]
    assert fields == ["committees", "timed_out", "reason", "elapsed"]
    # derived from the fields, never stored beside them
    assert isinstance(solver.FeasibilityResult.proven_infeasible, property)
    for name in ("EnumerationResult", "padding_vector", "_enumerate_exhaustive"):
        assert not hasattr(solver, name), name
    fields = [f.name for f in dataclasses.fields(winner.SolveReport)]
    assert fields == ["status", "committee", "score", "utility_ratio", "elapsed", "committees_examined",
                      "timed_out", "reason"]
    # the exhaustive solve subsumes these routes; they live on as test oracles
    for name in ("mu1_fast_path", "fpt_rep_solver", "fpt_report", "dominated_candidate_pruning",
                 "PreconditionError"):
        assert not hasattr(winner, name), name


# --- reference search: plain backtracking restarted once per rotation of the
# --- root value order, kept test-only so the pruned search and its root
# --- harvest can be checked against it

class RotationRepeats(Exception):
    """A root rotation at or past the root's value count: it would repeat
    the search of the rotation it equals modulo that count."""


def reference_backtrack(graph, config=None, rotation=0, deadline=None):
    """Backtracking without sibling exclusion, symmetry or lookahead."""
    config = config or SolverConfig()
    if deadline is None:
        deadline = time.monotonic() + config.timeout
    rank_of = {c: idx for idx, c in enumerate(_mfc_order(graph, holders(graph.domains, graph.m)))}
    n_constraints = len(graph.domains)
    inflow = [0] * n_constraints
    member_of = [[i for i in range(n_constraints) if c in graph.domains[i]] for c in range(graph.m)]
    solution = []

    def select_variable():
        best, best_ratio = None, None
        for idx in range(n_constraints):
            missing = graph.bounds[idx] - inflow[idx]
            if missing <= 0:
                continue
            value = len(graph.domains[idx]) / missing
            if best_ratio is None or value < best_ratio:
                best_ratio, best = value, idx
        return best

    def search(at_root):
        if time.monotonic() > deadline:
            raise SolverTimeout("backtracking timed out")
        variable = select_variable()
        if variable is None:
            return list(solution)
        cands = sorted(graph.domains[variable], key=lambda c: rank_of[c])
        if at_root and rotation and cands:
            if rotation >= len(cands):
                raise RotationRepeats
            cands = cands[rotation:] + cands[:rotation]
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
    return None if found is None else fill_seats(found, graph.padding_order, graph.k)


def reference_enumerate(graph, config=None, deadline=None):
    """The restart harvest: one plain search per distinct left rotation of
    the root value order, keeping the distinct committees."""
    config = config or SolverConfig()
    if deadline is None:
        deadline = time.monotonic() + config.timeout
    committees, seen = [], set()
    try:
        for rotation in range(max(graph.m, 1)):
            try:
                found = reference_backtrack(graph, config, rotation=rotation, deadline=deadline)
            except RotationRepeats:  # and so does every later rotation
                break
            if found is None:  # the instance is infeasible
                break
            if found not in seen:
                seen.add(found)
                committees.append(found)
                if len(committees) >= config.max_committees:
                    break
    except SolverTimeout:
        return solver.FeasibilityResult(tuple(committees), timed_out=True)
    return solver.FeasibilityResult(tuple(committees), timed_out=False)


def reference_scan(state):
    """The node lookahead without its packing pass: None when one unmet
    constraint needs more members than there are seats left or free in its
    domain, else the first unmet constraint, in constraint order, with the
    least |D_i| per missing member (-1 when every bound is met)."""
    seats = state.k - len(state.chosen)
    ratios = {}
    for idx, bound in enumerate(state.bounds):
        missing = bound - state.inflow[idx]
        if missing <= 0:
            continue
        if missing > seats or missing > len(state.free_sets[idx]):
            return None
        ratios[idx] = Fraction(state.sizes[idx], missing)
    return min(ratios, key=ratios.__getitem__) if ratios else -1


def reference_lookahead(state):
    """The node lookahead as two passes over the constraints: the checks and
    branching constraint of one pass, then a packing pass that reads every constraint again
    to take the unmet ones by ascending free domain size (ties by constraint
    order) and keep each whose free domain misses those already kept."""
    seats = state.k - len(state.chosen)
    inflow, free_sets, sizes, bounds = state.inflow, state.free_sets, state.sizes, state.bounds
    best = -1
    best_size = best_missing = shortfall = 0
    for idx, bound in enumerate(bounds):
        missing = bound - inflow[idx]
        if missing <= 0:
            continue
        if missing > seats or missing > len(free_sets[idx]):
            return None
        shortfall += missing
        size = sizes[idx]
        if best < 0 or size * best_missing < best_size * missing:
            best, best_size, best_missing = idx, size, missing
    if shortfall > seats:
        unmet = sorted((len(free_sets[idx]), idx) for idx, bound in enumerate(bounds) if bound > inflow[idx])
        claimed, need = set(), 0
        for _, idx in unmet:
            if claimed.isdisjoint(free_sets[idx]):
                need += bounds[idx] - inflow[idx]
                if need > seats:
                    return None
                claimed |= free_sets[idx]
    return best


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
    for seed in range(60):
        yield random_instance(seed)
    for seed in range(12):
        rng = random.Random(seed)
        yield gen_syndata("syn1", mu=rng.randint(0, 3), pi=rng.randint(0, 3), seed=seed,
                          m=14, n=12, k=rng.randint(3, 5))
    for vertices, seed in ((6, 0), (6, 1), (8, 0), (8, 1)):
        graph = random_cubic_graph(vertices, seed)
        cover = min_vertex_cover_size(graph)
        for k in (cover - 1, cover, cover + 1):
            yield reduce_vc_representation(graph, 1, k).instance
    for seed in (0, 1):  # bench-size reductions, where the packing bound cuts most
        graph = random_cubic_graph(10, seed)
        cover = min_vertex_cover_size(graph)
        for k in (cover - 1, cover):
            yield reduce_vc_representation(graph, 1, k).instance


def outcome(result):
    return result.committees, result.proven_infeasible, result.timed_out


def test_pruned_search_matches_reference_search(monkeypatch):
    cases = list(equivalence_instances())
    configs = [SolverConfig(timeout=60, max_committees=1), SolverConfig(timeout=60, max_committees=3),
               SolverConfig(timeout=60)]

    def outcomes(instance):
        return [outcome(solve_feasibility(instance, config)) for config in configs]

    pruned = [outcomes(case) for case in cases]
    monkeypatch.setattr(solver, "enumerate_feasible", reference_enumerate)
    verdicts, harvests = set(), 0
    for case, got in zip(cases, pruned):
        expected = outcomes(case)
        assert got == expected
        verdicts.add(expected[0][1])
        harvests += len(expected[2][0]) >= 2
    assert verdicts == {False, True}  # both feasible and infeasible instances covered
    assert harvests >= 5  # and root harvests of several committees


def test_default_harvest_stops_early_on_vc_rep():
    # the restart harvest needs about 2.4 s for this single committee
    graph = random_cubic_graph(14, 0)
    instance = reduce_vc_representation(graph, 1, min_vertex_cover_size(graph)).instance
    result = solve_feasibility(instance, SolverConfig(timeout=1))
    assert len(result.committees) == 1
    assert not result.timed_out


def test_vc_rep_infeasibility_proof_is_fast():
    # the plain search needs about 11 s on this instance
    graph = random_cubic_graph(14, 0)
    cover = min_vertex_cover_size(graph)
    instance = reduce_vc_representation(graph, 1, cover - 1).instance
    result = solve_feasibility(instance, SolverConfig(timeout=5, max_committees=1))
    assert result.proven_infeasible
    assert not result.timed_out


def spy_on_add(monkeypatch):
    """The list of candidates every search adds from now on, in call order."""
    added = []
    real_add = solver._SearchState.add

    def spy(state, cand):
        added.append(cand)
        real_add(state, cand)

    monkeypatch.setattr(solver._SearchState, "add", spy)
    return added


def test_a_failed_candidate_takes_the_candidates_it_dominates(monkeypatch):
    # the root branches on X0 = {0, 1, 2}: candidate 0 (in X0 and X1) fails,
    # as X2 and X3 are disjoint and one seat is left; candidate 1 (in X0
    # only) is dominated by 0 but is no twin of it, so it is excluded with
    # 0 and never added, though the root harvest goes on past candidate 2
    graph = graph_from_spec(2, 8, [{0, 1, 2}, {0, 3, 4}, {2, 3, 5}, {4, 6, 7}], [1, 1, 1, 1])
    added = spy_on_add(monkeypatch)
    result = heuristic_backtrack(graph, SolverConfig(timeout=10))
    assert result.committees == ((2, 4),) == plain_backtrack(graph, 100_000)
    assert added == [0, 2, 3, 4]


def test_the_root_harvest_keeps_a_dominator_that_succeeded():
    # candidate 2 holds every domain that candidate 3 holds, and more; 2
    # succeeds at the root and 3 fails there.  Excluding 2 along with 3
    # would lose the second committee, which the root branch on 6 finds
    # through 2
    graph = graph_from_spec(3, 9, [{1, 2, 3, 6, 8}, {1, 2, 3, 5}, {0, 2, 3, 5}, {2, 4, 6, 8}, {4, 6}],
                            [1, 2, 2, 2, 1])
    assert preprocess(graph) is None
    result = heuristic_backtrack(graph, SolverConfig(timeout=10, max_committees=2))
    assert result.committees == ((2, 3, 6), (2, 5, 6)) == plain_backtrack(graph, 2)


def test_dominance_cuts_the_v48_infeasibility_proof(monkeypatch):
    # the minimum cover of this graph has 27 vertices; with twins alone
    # excluded, the proof at k=26 made 18,682 additions
    instance = reduce_vc_representation(random_cubic_graph(48, 0), 1, 26).instance
    added = spy_on_add(monkeypatch)
    result = solve_feasibility(instance, SolverConfig(timeout=30, max_committees=1))
    assert result.proven_infeasible
    assert len(added) == 2016 < 3000


def test_packing_bound_fails_disjoint_unit_bounds_at_the_root(monkeypatch):
    # three disjoint groups each need one of the k=2 seats: every pair passes
    # the pairwise check and no single group is short, but together they need
    # three distinct members, so the root fails before any candidate is added
    profile = make_profile(6, [list(range(6))])
    scheme = AttributeScheme(candidate_attributes=(
        Attribute("A", {"X": [0, 1], "Y": [2, 3], "Z": [4, 5]}),))
    bounds = {("A", "X"): 1, ("A", "Y"): 1, ("A", "Z"): 1}
    instance = make_instance(profile, scheme, k=2, diversity_bounds=bounds)
    graph = build_diregraph(instance)
    assert all(pairwise_feasible(graph, i, j) for i, j in itertools.combinations(range(3), 2))
    added = spy_on_add(monkeypatch)
    result = solve_feasibility(instance, SolverConfig(timeout=10))
    assert result.proven_infeasible
    assert result.reason == "search space exhausted"
    assert added == []


def test_packing_bound_settles_the_v32_cover_frontier():
    # the minimum vertex cover of this graph has 18 vertices; without the
    # packing bound either verdict takes the search tens of seconds
    graph = random_cubic_graph(32, 0)
    config = SolverConfig(timeout=5, max_committees=1)
    below = solve_feasibility(reduce_vc_representation(graph, 1, 17).instance, config)
    assert below.proven_infeasible
    assert not below.timed_out
    instance = reduce_vc_representation(graph, 1, 18).instance
    at_cover = solve_feasibility(instance, config)
    assert len(at_cover.committees) == 1
    assert not at_cover.timed_out
    committee = set(at_cover.committees[0])
    assert len(committee) == 18
    populations = [c for c in instance.constraints() if c.key.startswith("R:")]
    assert len(populations) == len(graph.edges)
    assert all(committee & set(c.domain) for c in populations)


def test_exhaustive_depth_is_not_bounded_by_the_recursion_limit():
    # k = 299 seats, above the lowered limit; two 150-member groups with
    # bounds of 149 each leave every one of the 300 (m - 1)-committees feasible
    m = 300
    profile = make_profile(m, [list(range(m))])
    scheme = AttributeScheme((Attribute("A", {"g1": range(150), "g2": range(150, m)}),), ())
    instance = make_instance(profile, scheme, k=m - 1, diversity_bounds={("A", "g1"): 149, ("A", "g2"): 149})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        first = solve_feasibility(instance, SolverConfig(timeout=60, max_committees=1))
        harvest = solve_feasibility(instance, SolverConfig(timeout=60))
        reports = [winner.solve_drcwd(instance, SolverConfig(timeout=60), exhaustive=ex) for ex in (False, True)]
    finally:
        sys.setrecursionlimit(limit)
    assert brute_force_feasible_set(instance) == sorted(tuple(c for c in range(m) if c != out) for out in range(m))
    # every root branch of the default search pads to the committee without
    # the last candidate in the tie-break order, which also scores best
    best = tuple(range(m - 1))
    assert first.committees == harvest.committees == (best,)
    assert not first.timed_out and not harvest.timed_out
    assert [(r.status, r.committee.members, r.timed_out) for r in reports] == [
        (winner.STATUS_HEURISTIC, best, False), (winner.STATUS_OPTIMAL, best, False)]


# --- reference preprocessing: the enumerating domain reduction (uncapped)
# --- and the component-split fixpoint, kept test-only so the closed form
# --- and the all-pairs queue can be checked against them

def reference_domain_reduce(graph, i, j):
    """Keep d in D_i iff some S_i-subset of D_i with d and some S_j-subset of
    D_j fit in k seats together, found by enumerating the subset pairs."""
    d_i, d_j = graph.domains[i], graph.domains[j]
    s_i, s_j = graph.bounds[i], graph.bounds[j]
    if s_i > len(d_i) or s_j > len(d_j):
        graph.domains[i] = frozenset()
        return True
    subsets_j = [frozenset(b) for b in itertools.combinations(sorted(d_j), s_j)]
    survivors = set()
    for d in sorted(d_i):
        rest = [c for c in sorted(d_i) if c != d]
        if any(len(frozenset(a) | {d} | b) <= graph.k
               for a in itertools.combinations(rest, s_i - 1) for b in subsets_j):
            survivors.add(d)
    changed = len(survivors) != len(d_i)
    if changed:
        graph.domains[i] = frozenset(survivors)
    return changed


def reference_components(graph):
    """Connected components of the bipartite candidate-constraint graph, as
    sets of constraint indices."""
    parent = list(range(graph.m + len(graph.domains)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for idx, domain in enumerate(graph.domains):
        for cand in domain:
            parent[find(graph.m + idx)] = find(cand)
    groups = {}
    for idx in range(len(graph.domains)):
        groups.setdefault(find(graph.m + idx), []).append(idx)
    return list(groups.values())


def reference_preprocess(graph, deadline=None):
    """Pairwise checks across components, then a reduction queue inside each;
    returns the reason for an infeasibility verdict, or None."""
    comps = reference_components(graph)
    comp_of = {idx: n for n, members in enumerate(comps) for idx in members}

    def conflict(i, j):
        return f"pairwise infeasible: {graph.keys[i]} vs {graph.keys[j]}"

    for i, j in itertools.combinations(range(len(graph.domains)), 2):
        if comp_of[i] != comp_of[j] and not pairwise_feasible(graph, i, j):
            return conflict(i, j)
    for members in comps:
        queue = list(itertools.permutations(members, 2))
        queued = set(queue)
        while queue:
            i, j = queue.pop(0)
            queued.discard((i, j))
            if not pairwise_feasible(graph, i, j):
                return conflict(i, j)
            if reference_domain_reduce(graph, i, j):
                if not graph.domains[i]:
                    return f"domain emptied: {graph.keys[i]}"
                for x in members:
                    if x not in (i, j) and (x, i) not in queued:
                        queue.append((x, i))
                        queued.add((x, i))
    return None


def reference_pair_loop(graph):
    """Stage one with one :func:`domain_reduce` per pair: narrow every domain
    to F, then check each pair's overlap and reduce D_i against j, naming
    the constraint that cannot meet its bound once D_i empties."""
    full = [d for d, bound in zip(graph.domains, graph.bounds) if bound == graph.k]
    if full:
        inside = frozenset.intersection(*full)
        graph.domains[:] = [d & inside for d in graph.domains]
    for i, j in itertools.combinations(range(len(graph.domains)), 2):
        if not pairwise_feasible(graph, i, j):
            return f"pairwise infeasible: {graph.keys[i]} vs {graph.keys[j]}"
        if domain_reduce(graph, i, j):
            short = j if graph.bounds[j] > min(len(graph.domains[j]), graph.k) else i
            return f"domain emptied: {graph.keys[short]}"
    return None


def random_pair_graph(rng):
    """Two constraints over at most 12 candidates.  Bounds may exceed the
    domain or k, S_j is k in a third of the pairs (the case that narrows
    D_i), and a quarter of the pairs have disjoint domains."""
    m, k = rng.randint(4, 12), rng.randint(1, 6)
    d_i = rng.sample(range(m), rng.randint(0, min(m, 7)))
    pool = [c for c in range(m) if c not in d_i] if rng.random() < 0.25 else range(m)
    d_j = rng.sample(pool, rng.randint(0, min(len(pool), 7)))
    s_j = k if rng.random() < 1 / 3 else rng.randint(1, k + 1)
    return graph_from_spec(k, m, [d_i, d_j], [rng.randint(1, k + 1), s_j])


def test_closed_form_matches_enumeration_on_random_pairs():
    rng = random.Random(2024)
    kinds = {"kept": 0, "narrowed": 0, "emptied": 0, "overpacked": 0, "disjoint": 0}
    for _ in range(3000):
        graph = random_pair_graph(rng)
        twin = dataclasses.replace(graph, domains=list(graph.domains))
        d_i, d_j = graph.domains
        kinds["overpacked"] += graph.bounds[0] > len(d_i) or graph.bounds[1] > len(d_j)
        kinds["disjoint"] += not (d_i & d_j)
        changed = domain_reduce(graph, 0, 1)
        assert changed == reference_domain_reduce(twin, 0, 1)
        assert graph.domains == twin.domains
        if not changed:
            kinds["kept"] += 1
        else:
            kinds["narrowed" if graph.domains[0] else "emptied"] += 1
    assert min(kinds.values()) >= 100, kinds


def preprocess_instances():
    for seed in range(300):
        yield random_instance(10_000 + seed)
    for seed in range(40):
        rng = random.Random(seed)
        yield gen_syndata("syn1", mu=rng.randint(1, 3), pi=rng.randint(0, 3), seed=seed,
                          m=14, n=12, k=rng.randint(3, 6))
    for vertices, seed in ((6, 0), (6, 1), (8, 0), (8, 1), (10, 0)):
        graph = random_cubic_graph(vertices, seed)
        cover = min_vertex_cover_size(graph)
        for pi in (1, 2):
            for k in (cover - 1, cover, cover + 1):
                yield reduce_vc_representation(graph, pi, k).instance


def test_preprocess_matches_component_split_reference():
    verdicts = {True: 0, False: 0}
    reduced = 0
    for instance in preprocess_instances():
        graph, twin = build_diregraph(instance), build_diregraph(instance)
        feasible = preprocess(graph) is None
        assert feasible == (reference_preprocess(twin) is None)
        verdicts[feasible] += 1
        if feasible:
            assert graph.domains == twin.domains
            reduced += graph.domains != build_diregraph(instance).domains
    assert min(verdicts.values()) > 20 and reduced > 5, (verdicts, reduced)


def test_preprocess_gives_the_reasons_of_the_pair_loop():
    reasons = {"pairwise infeasible": 0, "domain emptied": 0, None: 0}
    for instance in preprocess_instances():
        graph, twin = build_diregraph(instance), build_diregraph(instance)
        reason = preprocess(graph)
        assert reason == reference_pair_loop(twin)
        if reason is None:
            assert graph.domains == twin.domains
        reasons[reason and reason.partition(":")[0]] += 1
    assert min(reasons.values()) > 20, reasons


def narrowed(graph):
    """A copy of the graph with every domain intersected with F, the
    intersection of the domains whose bound is k."""
    full = [d for d, bound in zip(graph.domains, graph.bounds) if bound == graph.k]
    inside = frozenset.intersection(*full) if full else frozenset(range(graph.m))
    return dataclasses.replace(graph, domains=[d & inside for d in graph.domains])


def proves_infeasible(graph, reason):
    """Whether a preprocessing reason holds on the narrowed domains: the
    named pair fails the packing check, or the named domain cannot meet its
    bound alone."""
    graph = narrowed(graph)
    kind, _, keys = reason.partition(": ")
    if kind == "pairwise infeasible":
        a, b = keys.split(" vs ")
        return not pairwise_feasible(graph, graph.keys.index(a), graph.keys.index(b))
    assert kind == "domain emptied", reason
    x = graph.keys.index(keys)
    return graph.bounds[x] > min(len(graph.domains[x]), graph.k)


def test_preprocess_reasons_are_proofs():
    kinds = {"pairwise infeasible": 0, "domain emptied": 0}
    for instance in preprocess_instances():
        reason = preprocess(build_diregraph(instance))
        if reason is not None:
            assert proves_infeasible(build_diregraph(instance), reason), reason
            kinds[reason.partition(":")[0]] += 1
    assert min(kinds.values()) > 20, kinds


def test_preprocess_finds_a_conflict_inside_a_bound_k_domain():
    # k=3 seats all in G; X and Y need 2 each, and they share only
    # candidate 5, outside G, so the pair fails only once narrowed to G
    profile = make_profile(7, [list(range(7))])
    scheme = AttributeScheme(candidate_attributes=(
        Attribute("A", {"G": [0, 1, 2, 3, 4], "rest": [5, 6]}),
        Attribute("B", {"X": [0, 1, 5], "rest": [2, 3, 4, 6]}),
        Attribute("C", {"Y": [2, 3, 5], "rest": [0, 1, 4, 6]}),
    ))
    bounds = {("A", "G"): 3, ("B", "X"): 2, ("C", "Y"): 2,
              ("A", "rest"): 0, ("B", "rest"): 0, ("C", "rest"): 0}
    instance = make_instance(profile, scheme, k=3, diversity_bounds=bounds, allow_zero_bounds=True)
    graph = build_diregraph(instance)
    assert all(pairwise_feasible(graph, i, j) for i, j in itertools.combinations(range(3), 2))
    assert preprocess(graph) == "pairwise infeasible: D:B:X vs D:C:Y"
    assert brute_force_feasible_set(instance) == []


def test_solve_feasibility_matches_reference_preprocessing(monkeypatch):
    cases = list(equivalence_instances())
    configs = [SolverConfig(timeout=60, max_committees=1), SolverConfig(timeout=60)]

    def outcomes(instance):
        return [outcome(solve_feasibility(instance, config)) for config in configs]

    closed_form = [outcomes(case) for case in cases]
    monkeypatch.setattr(solver, "preprocess", reference_preprocess)
    for case, got in zip(cases, closed_form):
        assert got == outcomes(case)

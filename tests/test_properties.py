"""Property tests: the feasibility search against the brute-force feasible
set, its node lookahead against brute force below the node, closed-form
preprocessing against the reference fixpoint, the scoring kernel against
the rescoring reference, and the branch-and-bound, with and without the
lookahead, against full enumeration.

They need hypothesis and are skipped where it is not installed.
"""

import dataclasses
import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import scoring_reference as ref
from conftest import brute_force_feasible_set
from dire.constraints import Attribute, AttributeScheme, holders, make_instance
from dire.profiles import make_profile
from dire.rules import (
    RULE_KINDS,
    Rule,
    SatisfactionTable,
    _best_of,
    _certified_max,
    _greedy_max,
    _monroe_baselines,
    _monroe_loads,
    _winner,
    population_winning_committee,
    score_committee,
    unconstrained_winner,
)
from dire.solver import SolverConfig, _SearchState, build_diregraph, preprocess, solve_feasibility
from test_solver import graph_from_spec, proves_infeasible, reference_preprocess, reference_scan


@st.composite
def partitions(draw, count, prefix):
    """A partition of range(count) into at most three labelled groups."""
    labels = draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
    groups = {}
    for entity, label in enumerate(labels):
        groups.setdefault(f"{prefix}{label}", []).append(entity)
    return groups


@st.composite
def instances(draw):
    """Small instances (m <= 8, n <= 6) with up to two candidate and two
    voter attributes; bounds range over everything the model accepts."""
    m = draw(st.integers(2, 8))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(4, m)))
    rankings = draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n))
    cand_attrs, diversity = [], {}
    for a in range(draw(st.integers(0, 2))):
        attr = Attribute(f"A{a}", draw(partitions(m, "g")))
        cand_attrs.append(attr)
        for label, members in attr.groups:
            diversity[(attr.name, label)] = draw(st.integers(1, min(k, len(members))))
    voter_attrs, representation = [], {}
    for b in range(draw(st.integers(0, 2))):
        attr = Attribute(f"B{b}", draw(partitions(n, "p")))
        voter_attrs.append(attr)
        for label, _ in attr.groups:
            representation[(attr.name, label)] = draw(st.integers(1, k))
    return make_instance(
        make_profile(m, rankings),
        AttributeScheme(tuple(cand_attrs), tuple(voter_attrs)),
        k=k,
        rule=Rule(draw(st.sampled_from(RULE_KINDS))),
        diversity_bounds=diversity,
        representation_bounds=representation,
    )


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from([1, 2, 3, 100_000]))
def test_default_mode_harvest_is_sound_and_capped(instance, max_committees):
    expected = set(brute_force_feasible_set(instance))
    result = solve_feasibility(instance, SolverConfig(timeout=60, max_committees=max_committees))
    assert len(set(result.committees)) == len(result.committees)
    assert set(result.committees) <= expected
    assert len(result.committees) <= max_committees
    assert result.proven_infeasible == (not expected)
    assert not result.timed_out


@settings(max_examples=300, deadline=None)
@given(instances(), st.integers(1, 3))
def test_branch_and_bound_under_the_lookahead_matches_the_feasible_set(instance, margin):
    # from any threshold below the optimum, the search returns the best
    # feasible committee, ties to the least member tuple; with no feasible
    # committee nothing beats the threshold
    table = SatisfactionTable(instance.profile, instance.rule)
    members, score, _, _ = _best_of(table, brute_force_feasible_set(instance))
    threshold = -margin if score is None else score - margin
    graph = build_diregraph(instance)
    state = _SearchState(graph, holders(graph.domains, graph.m))
    got = _certified_max(table, instance.k, None, state, threshold)
    assert got == (((), threshold) if members is None else (members, score))
    # and leaves the lookahead as it found it
    assert state.chosen == [] and not any(state.inflow)
    assert state.free_sets == [set(domain) for domain in graph.domains]


@settings(max_examples=150, deadline=None)
@given(instances())
def test_exhaustive_mode_returns_the_brute_force_set(instance):
    expected = brute_force_feasible_set(instance)
    result = solve_feasibility(instance, SolverConfig(timeout=60), exhaustive=True)
    assert sorted(result.committees) == expected
    assert result.complete
    assert result.proven_infeasible == (not expected)


@st.composite
def search_nodes(draw):
    """An instance from :func:`instances` and a search node on its graph:
    at most k chosen members and a disjoint set of blocked ones."""
    instance = draw(instances())
    candidates = range(instance.m)
    chosen = draw(st.lists(st.sampled_from(candidates), max_size=instance.k, unique=True))
    rest = [c for c in candidates if c not in chosen]
    blocked = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    return instance, chosen, blocked


@settings(max_examples=400, deadline=None)
@given(search_nodes())
def test_lookahead_fails_only_nodes_without_a_committee(node):
    instance, chosen, blocked = node
    graph = build_diregraph(instance)
    state = _SearchState(graph, holders(graph.domains, graph.m))
    for cand in chosen:
        state.add(cand)
    for cand in blocked:
        state.block(cand)
    ties = state.scan()
    if ties is None:
        free = [c for c in range(graph.m) if c not in chosen and c not in blocked]
        for extra in itertools.combinations(free, graph.k - len(chosen)):
            members = set(chosen) | set(extra)
            assert any(len(members & domain) < bound for domain, bound in zip(graph.domains, graph.bounds))
    else:
        assert ties == reference_scan(state)


@st.composite
def constraint_graphs(draw):
    """Constraint graphs over m <= 10 candidates with up to six constraints
    of at most six candidates each.  Every bound lies in [1, min(|D|, k)],
    as instance validation guarantees, and is k in about half of the
    constraints whose domain allows it."""
    m = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(4, m)))
    domains, bounds = [], []
    for _ in range(draw(st.integers(0, 6))):
        domain = draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=6))
        top = min(k, len(domain))
        domains.append(domain)
        bounds.append(k if top == k and draw(st.booleans()) else draw(st.integers(1, top)))
    return graph_from_spec(k, m, domains, bounds)


@settings(max_examples=300, deadline=None)
@given(constraint_graphs())
def test_preprocess_matches_the_reference_fixpoint(graph):
    original, twin = (dataclasses.replace(graph, domains=list(graph.domains)) for _ in range(2))
    reason = preprocess(graph)
    assert (reason is None) == (reference_preprocess(twin) is None)
    if reason is None:
        assert graph.domains == twin.domains
    else:
        assert proves_infeasible(original, reason)


@st.composite
def elections(draw):
    """A profile (m <= 8, n <= 6) with a tie-break order, a rule with the
    Borda or a drawn nonincreasing vector (all-zero and flat ones included),
    a voter subset, a committee of any size and a committee size k."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    profile = make_profile(m, draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n)),
                           priority=draw(st.permutations(range(m))))
    entries = draw(st.none() | st.lists(st.integers(0, 4), min_size=m, max_size=m))
    rule = Rule(draw(st.sampled_from(RULE_KINDS)), None if entries is None else sorted(entries, reverse=True))
    voters = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    committee = draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True))
    return profile, rule, voters, committee, draw(st.integers(1, m))


@settings(max_examples=300, deadline=None)
@given(elections())
def test_scoring_kernel_matches_the_reference(election):
    profile, rule, voters, committee, k = election
    for subset in (None, voters):
        assert score_committee(profile, rule, committee, subset) == ref.score_committee(
            profile, rule, committee, subset)
    assert (population_winning_committee(profile, voters, rule, k)
            == ref.population_winning_committee(profile, voters, rule, k))
    table = SatisfactionTable(profile, rule, sorted(set(voters)))
    for cap in (0, 10**6):  # greedy, then exhaustive below the cap
        assert _winner(table, k, None, cap)[0] == ref.population_winning_committee(profile, voters, rule, k, cap)
        got = unconstrained_winner(profile, rule, k, cap)
        assert (got.committee, got.score, got.mode) == ref.unconstrained_winner(profile, rule, k, cap)


@st.composite
def table_elections(draw, kinds):
    """A profile (m <= 9, n <= 7) with a tie-break order, a rule of one of
    ``kinds`` with an all-zero, flat, 1-0-...-0, Borda or drawn vector,
    voter ids that may repeat, and any committee size up to m."""
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 7))
    profile = make_profile(m, draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n)),
                           priority=draw(st.permutations(range(m))))
    vector = draw(st.sampled_from([(0,) * m, (2,) * m, (1,) + (0,) * (m - 1), None])
                  | st.lists(st.integers(0, 4), min_size=m, max_size=m).map(lambda v: sorted(v, reverse=True)))
    voters = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    return profile, Rule(draw(st.sampled_from(kinds)), vector), voters, draw(st.integers(1, m))


@settings(max_examples=400, deadline=None)
@given(table_elections(["betacc", "monroe"]))
def test_greedy_search_matches_the_reference(election):
    profile, rule, voters, k = election
    got = _greedy_max(SatisfactionTable(profile, rule, voters), k)
    assert got == ref.greedy_max(profile, rule, k, voters)


@settings(max_examples=400, deadline=None)
@given(table_elections(["monroe"]))
def test_greedy_monroe_bound_holds_at_every_step(election):
    # With M the members of the steps so far in priority order, L the loads
    # of |M| + 1 members and t the members before c: the baseline B_t (M[:t]
    # claim L[:t], then M[t:] claim L[t + 1:]) plus c's L[t] best entries
    # over distinct voters bounds the score of M + [c].
    profile, rule, voters, k = election
    table = SatisfactionTable(profile, rule, voters)
    rank, n = profile._priority_rank, len(table.voters)
    for s in range(k):
        members = sorted(_greedy_max(table, s).members, key=rank.__getitem__)
        loads = list(_monroe_loads(n, s + 1))
        starts = _monroe_baselines(table, members, loads)
        for t in range(s + 1):
            owner = [None] * n
            total = table._claim(owner, 0, members[:t], loads[:t])
            assert starts[t] == (owner, total, table._claim(owner[:], total, members[t:], loads[t + 1:]))
        for c in set(range(profile.m)) - set(members):
            t = sum(rank[member] < rank[c] for member in members)
            entries = {v: entry for v, entry in zip(table.voters, table.rows[c])}  # one per distinct voter
            best = sum(sorted(entries.values(), reverse=True)[:loads[t]])
            assert table.best_sums[c][loads[t]] == best
            assert ref.score_committee(profile, rule, members + [c], voters) <= starts[t][2] + best


@settings(max_examples=400, deadline=None)
@given(table_elections(RULE_KINDS))
def test_branch_and_bound_matches_full_enumeration(election):
    profile, rule, voters, k = election
    got = _certified_max(SatisfactionTable(profile, rule, voters), k)
    assert got == ref.table_max(SatisfactionTable(profile, rule, voters), k)

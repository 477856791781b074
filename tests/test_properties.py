"""Property tests: the feasibility search's harvest against the
brute-force feasible set and against plain backtracking, its node
lookahead against brute force below the node, the state it leaves behind,
closed-form preprocessing against the reference fixpoint and the per-pair
reduction loop, the scoring kernel against the rescoring reference, the
branch-and-bound, with and without the lookahead, against full
enumeration, its inherited gains against a fresh gain pass, the profile's
shared satisfaction rows and its validation on runs of equal ballots
against a per-voter build, and the best-unsatisfied-fraction search, with
and without its candidate dominance, against enumeration, and the entry
points that share a profile's full-electorate table against fresh
profiles, in any call order.

They need hypothesis and are skipped where it is not installed.
"""

import dataclasses
import itertools
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import scoring_reference as ref
from conftest import brute_force_feasible_set
from dire import rules, solver
from dire.constraints import Attribute, AttributeScheme, holders, make_instance
from dire.experiment import _fewest_unmet, best_unsatisfied_fraction
from dire.profiles import PreferenceProfile, ValidationResult, make_profile, validate_profile
from dire.rules import (
    RULE_KINDS,
    Rule,
    SatisfactionTable,
    _LoadCaps,
    _Prices,
    _best_of,
    _certified_max,
    _electorate,
    _greedy_max,
    _inherited_gains,
    _monroe_loads,
    _suffix_maxima,
    _winner,
    borda_vector,
    candidate_scores,
    population_winning_committee,
    score_committee,
    unconstrained_winner,
)
from dire.solver import (SolverConfig, _SearchState, build_diregraph, heuristic_backtrack, preprocess,
                         solve_feasibility)
from test_solver import (free_members, graph_from_spec, proves_infeasible, reference_lookahead,
                         reference_pair_loop, reference_preprocess, reference_scan)


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
@given(instances(), st.sampled_from([1, 2, 3, 100_000]))
def test_default_mode_returns_the_committees_of_plain_backtracking(instance, max_committees):
    # sibling exclusion, dominance, the lookahead and the packing bound cut
    # only subtrees without a solution, so the committees and their order
    # are those of the search without them
    graph = build_diregraph(instance)
    preprocess(graph)
    result = solve_feasibility(instance, SolverConfig(timeout=60, max_committees=max_committees))
    assert result.committees == ref.plain_backtrack(graph, max_committees)


@settings(max_examples=200, deadline=None)
@given(instances(), st.sampled_from([1, 2, 100_000]))
def test_default_search_leaves_its_state_as_it_built_it(instance, max_committees):
    # every node restores the free masks it changed, so after the search,
    # the root's harvest included, nothing is chosen and every mask is back
    # to the one __init__ built
    states = []
    init = solver._SearchState.__init__

    def spy(state, *args):
        init(state, *args)
        states.append((state, state.free[:]))

    with patch.object(solver._SearchState, "__init__", spy):
        solve_feasibility(instance, SolverConfig(timeout=60, max_committees=max_committees))
    for state, built in states:  # none when preprocessing proves infeasibility
        assert state.chosen == [] and not any(state.inflow)
        assert state.free == built


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
    assert [free_members(state, idx) for idx in range(len(graph.domains))] == [set(domain) for domain in graph.domains]


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
    variable = state.scan()
    if variable is None:
        free = [c for c in range(graph.m) if c not in chosen and c not in blocked]
        for extra in itertools.combinations(free, graph.k - len(chosen)):
            members = set(chosen) | set(extra)
            assert any(len(members & domain) < bound for domain, bound in zip(graph.domains, graph.bounds))
    else:
        assert variable == reference_scan(state)


@settings(max_examples=400, deadline=None)
@given(search_nodes())
def test_lookahead_matches_the_two_pass_reference(node):
    # the same verdict, None included, and the same branching constraint as
    # the lookahead that reads every constraint again for its packing pass
    instance, chosen, blocked = node
    graph = build_diregraph(instance)
    state = _SearchState(graph, holders(graph.domains, graph.m))
    for cand in chosen:
        state.add(cand)
    for cand in blocked:
        state.block(cand)
    assert state.scan() == reference_lookahead(state)


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


@settings(max_examples=300, deadline=None)
@given(constraint_graphs(), st.data())
def test_search_state_tracks_a_last_in_first_out_walk(graph, data):
    # the operations in the order both searches make them, on every id
    # 0..m-1, those no domain holds included: a step opens a frame (add an
    # id, free as in the default search or blocked as in the certified
    # solve, or block a free id) or closes the latest one; closing an add
    # removes the id, which stays blocked, as its own frame, when it was
    # free, and closing a block unblocks the id
    state = _SearchState(graph, holders(graph.domains, graph.m))
    frames, chosen, blocked = [], [], set()
    for _ in range(data.draw(st.integers(0, 24))):
        free = [c for c in range(graph.m) if c not in chosen and c not in blocked]
        moves = ["close"] * bool(frames) + ["block"] * bool(free) + ["add"] * (len(chosen) < graph.k)
        move = data.draw(st.sampled_from(moves))
        if move == "add":
            cand = data.draw(st.sampled_from([c for c in range(graph.m) if c not in chosen]))
            frames.append(("add", cand, cand in blocked))
            state.add(cand)
            chosen.append(cand)
        elif move == "block":
            cand = data.draw(st.sampled_from(free))
            frames.append(("block", cand, True))
            state.block(cand)
            blocked.add(cand)
        else:
            kind, cand, was_blocked = frames.pop()
            if kind == "add":
                state.remove()
                chosen.pop()
                if not was_blocked:
                    frames.append(("block", cand, True))
                    blocked.add(cand)
            else:
                state.unblock(cand)
                blocked.discard(cand)
        assert state.chosen == chosen
        for idx, domain in enumerate(graph.domains):
            assert free_members(state, idx) == domain - set(chosen) - blocked
            assert state.inflow[idx] == len(domain & set(chosen))
        assert state.scan() == reference_lookahead(state)


@st.composite
def covering_graphs(draw):
    """Constraint graphs over 4 <= m <= 9 candidates with 3 to 10 small
    overlapping domains (two to four candidates) and bounds of 1 or 2 at
    k <= 4, shaped like vertex-cover reductions: branches there often fail
    below the lookahead, so exclusion decides what the search visits."""
    m = draw(st.integers(4, 9))
    k = draw(st.integers(2, 4))
    domains = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=2, max_size=4), min_size=3, max_size=10))
    bounds = [draw(st.integers(1, min(2, k, len(domain)))) for domain in domains]
    return graph_from_spec(k, m, domains, bounds)


@settings(max_examples=300, deadline=None)
@given(covering_graphs(), st.sampled_from([1, 2, 3, 100_000]))
def test_default_search_returns_the_committees_of_plain_backtracking(graph, max_committees):
    if preprocess(graph) is None:
        result = heuristic_backtrack(graph, SolverConfig(timeout=60, max_committees=max_committees))
        assert result.committees == ref.plain_backtrack(graph, max_committees)


@st.composite
def loose_graphs(draw):
    """Constraint graphs over m <= 9 candidates with up to six constraints
    whose domains may be empty and whose bounds range over 0..k+1, so a
    bound can exceed its domain or the committee."""
    m = draw(st.integers(1, 9))
    k = draw(st.integers(1, m))
    count = draw(st.integers(0, 6))
    domains = draw(st.lists(st.sets(st.integers(0, m - 1)), min_size=count, max_size=count))
    bounds = draw(st.lists(st.integers(0, k + 1), min_size=count, max_size=count))
    return graph_from_spec(k, m, domains, bounds)


@settings(max_examples=500, deadline=None)
@given(loose_graphs())
def test_preprocess_gives_the_reasons_of_the_pair_loop_on_any_bounds(graph):
    twin = dataclasses.replace(graph, domains=list(graph.domains))
    reason = preprocess(graph)
    assert reason == reference_pair_loop(twin)
    if reason is None:
        assert graph.domains == twin.domains


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
    assert score_committee(profile, rule, committee) == ref.score_committee(profile, rule, committee)
    table = SatisfactionTable(profile, rule, voters)  # a population's sub-election
    assert table.score(sorted(committee)) == ref.score_committee(profile, rule, committee, voters)
    assert (population_winning_committee(profile, voters, rule, k)
            == ref.population_winning_committee(profile, voters, rule, k))
    for cap in (0, 10**6):  # greedy, then exhaustive below the cap
        with patch.object(rules, "DEFAULT_ORACLE_CAP", cap):
            assert _winner(table, k, None)[0] == ref.population_winning_committee(profile, voters, rule, k, cap)
            got = unconstrained_winner(profile, rule, k)
        assert (got.committee, got.score, got.mode) == ref.unconstrained_winner(profile, rule, k, cap)


@st.composite
def table_elections(draw, kinds):
    """A profile (m <= 9, n <= 7) with a tie-break order, a rule of one of
    ``kinds`` with an all-zero, flat, 1-0-...-0, Borda or drawn vector,
    every voter (None) or a nonempty set of distinct voter ids, and any
    committee size up to m."""
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 7))
    profile = make_profile(m, draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n)),
                           priority=draw(st.permutations(range(m))))
    vector = draw(st.sampled_from([(0,) * m, (2,) * m, (1,) + (0,) * (m - 1), None])
                  | st.lists(st.integers(0, 4), min_size=m, max_size=m).map(lambda v: sorted(v, reverse=True)))
    voters = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return profile, Rule(draw(st.sampled_from(kinds)), vector), voters, draw(st.integers(1, m))


# the entry points that read a table of every voter, each as
# (profile, rule, voters, k, committee) -> result; a population of None is
# the whole electorate, given as an explicit voter list
ENTRY_POINTS = {
    "unconstrained_winner": lambda profile, rule, voters, k, committee: unconstrained_winner(profile, rule, k),
    "score_committee": lambda profile, rule, voters, k, committee: score_committee(profile, rule, committee),
    "candidate_scores": lambda profile, rule, voters, k, committee: candidate_scores(profile, rule.vector(profile.m)),
    "population_winning_committee": lambda profile, rule, voters, k, committee: population_winning_committee(
        profile, range(profile.n) if voters is None else voters, rule, k),
}


@settings(max_examples=300, deadline=None)
@given(table_elections(RULE_KINDS), st.data())
def test_results_do_not_depend_on_call_order(election, data):
    # every table of the whole electorate reads one set of entries per
    # profile and vector, built by whichever call comes first; each result
    # equals that of the same call on a profile with nothing built.  The
    # committee size varies from call to call, as Monroe's bound tables
    # depend on it
    profile, rule, voters, _ = election
    m = profile.m
    committee = data.draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True))
    order = data.draw(st.lists(st.tuples(st.sampled_from(sorted(ENTRY_POINTS)), st.integers(1, m)),
                               min_size=1, max_size=8))
    for name, k in order:
        call = ENTRY_POINTS[name]
        fresh = PreferenceProfile(m, profile.rankings, profile.priority)
        assert call(profile, rule, voters, k, committee) == call(fresh, rule, voters, k, committee), (name, k)


@settings(max_examples=400, deadline=None)
@given(table_elections(["betacc", "monroe"]))
def test_greedy_search_matches_the_reference(election):
    profile, rule, voters, k = election
    got = _greedy_max(SatisfactionTable(profile, rule, voters), k)
    assert got == ref.greedy_max(profile, rule, k, voters)


@settings(max_examples=300, deadline=None)
@given(table_elections(["monroe"]))
def test_greedy_monroe_picks_do_not_depend_on_built_sums(election):
    # greedy Monroe reads the electorate's sums as a bound and a table's own
    # sums once that bound can win; a table whose exact sums, and the
    # electorate's, were built before its greedy runs picks as on a profile
    # with nothing built
    profile, rule, voters, k = election
    fresh = PreferenceProfile(profile.m, profile.rankings, profile.priority)
    expected = _greedy_max(SatisfactionTable(fresh, rule, voters), k)
    table = SatisfactionTable(profile, rule, voters)
    table.entries.best_sums, _electorate(profile, table.vector).best_sums  # build both
    assert _greedy_max(table, k) == expected == ref.greedy_max(profile, rule, k, voters)


@settings(max_examples=400, deadline=None)
@given(table_elections(["monroe"]))
def test_greedy_monroe_bound_holds_at_every_step(election):
    # With M the members of the steps so far in priority order, L the loads
    # of |M| + 1 members, t the members before c and e = n mod (|M| + 1):
    # the baseline B_t (M[:t] claim L[:t], then M[t:] claim L[t + 1:]) is
    # the total of M claiming L with one ceil load left out for every t < e
    # and with one floor load left out for every t >= e, so it takes one
    # value in each class, and the assignment P_t of M[:t] is the state
    # after the first t claims of that run.  B_t plus c's L[t] best entries
    # bounds the score of M + [c], and so does B_t plus the electorate's
    # sums, which are never below them.
    profile, rule, voters, k = election
    table = SatisfactionTable(profile, rule, voters)
    rank, n = profile._priority_rank, len(table.voters)
    first = _electorate(profile, table.vector).best_sums
    for s in range(k):
        members = sorted(_greedy_max(table, s).members, key=rank.__getitem__)
        loads, extra = list(_monroe_loads(n, s + 1)), n % (s + 1)
        baselines, classes = [], {}
        for t in range(s + 1):
            owner = [None] * n
            total = table._claim(owner, 0, members[:t], loads[:t])
            baselines.append(table._claim(owner[:], total, members[t:], loads[t + 1:]))
            left_out = extra - 1 if t < extra else extra
            run, prefix = loads[:left_out] + loads[left_out + 1:], [None] * n
            assert table._claim(prefix, 0, members[:t], run[:t]) == total and prefix == owner
            assert table._claim(prefix, total, members[t:], run[t:]) == baselines[t]
            classes.setdefault(t < extra, set()).add(baselines[t])
        assert all(len(values) == 1 for values in classes.values())
        for c in set(range(profile.m)) - set(members):
            t = sum(rank[member] < rank[c] for member in members)
            best = sum(sorted(table.rows[c], reverse=True)[:loads[t]])
            assert table.entries.best_sums[c][loads[t]] == table.entries.sums(c)[loads[t]] == best
            score = ref.score_committee(profile, rule, members + [c], voters)
            assert score <= baselines[t] + best <= baselines[t] + first[c][loads[t]]


@settings(max_examples=300, deadline=None)
@given(table_elections(["monroe"]))
def test_profile_sums_bound_every_table(election):
    # a population's l best entries never exceed the electorate's l best
    # entries; every table of every voter reads the electorate's sums
    profile, rule, voters, _ = election
    table = SatisfactionTable(profile, rule, voters)
    first = _electorate(profile, table.vector).best_sums
    for c in range(profile.m):
        assert len(table.entries.best_sums[c]) == len(table.voters) + 1
        for load, value in enumerate(table.entries.best_sums[c]):
            assert value <= first[c][load]
    if sorted(table.voters) == list(range(profile.n)):
        assert table.entries.best_sums is first
    assert SatisfactionTable(profile, rule).entries.best_sums is first
    assert SatisfactionTable(profile, rule, range(profile.n)).entries.best_sums is first


@settings(max_examples=400, deadline=None)
@given(table_elections(["monroe"]))
def test_monroe_load_bound_holds_below_every_child(election):
    # Bound (c) of the branch-and-bound.  Walking each committee's members in
    # ascending id order, the state of the prefix P holds its cap and the
    # priority ranks of its e = n mod k earliest members.  For the next
    # member c, cap(P) + own + rest bounds the committee's score, never
    # exceeds the sum of ceil(n/k) best entries that ignores the loads, and
    # cap(P) + own is the cap of P + c.  While P has fewer than e members,
    # the open-slot term tightens rest: the committee still scores at most
    # cap(P) + own + min(rest, open slots), which never exceeds the bound
    # with rest alone.
    profile, rule, voters, k = election
    table = SatisfactionTable(profile, rule, voters)
    loads, m, n, rank = _LoadCaps(table, k), profile.m, len(table.voters), profile._priority_rank
    ceil = [sums[-(-n // k)] for sums in table.entries.best_sums]
    for committee in itertools.combinations(range(m), k):
        score = table.score(committee)
        state = loads.root
        for i, c in enumerate(committee):
            seats = k - i
            own, rest = loads.children(state[1], seats)
            bound = state[0] + own[c] + rest[c]
            loose = sum(ceil[x] for x in committee[:i + 1]) + sum(sorted(ceil[c + 1:], reverse=True)[:seats - 1])
            assert score <= bound <= loose
            if i < n % k:
                assert score <= state[0] + own[c] + min(rest[c], loads.open_slots(committee[:i], c)) <= bound
            state = loads.step(state, c)
            assert state[0] == bound - rest[c]
            assert state[1] == (*sorted(rank[x] for x in committee[:i + 1]), *[m] * n)[:n % k]


@settings(max_examples=400, deadline=None)
@given(table_elections(["betacc", "monroe"]), st.data())
def test_inherited_gains_match_a_fresh_gain_pass(election, data):
    # Down the prefixes of a drawn committee, from the root, whose gains are
    # the totals: each child's gains of the ids after its new member c, taken
    # from its parent's and the voter-major entries of the voters c raised,
    # are the gains against the child's prefix summed over every voter afresh
    profile, rule, voters, k = election
    table = SatisfactionTable(profile, rule, voters)
    rows, m = table.rows, profile.m
    committee = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=k)))
    best, start, gains = [0] * len(table.voters), 0, table.totals

    def fresh(best, start):
        return [sum(max(0, w - b) for w, b in zip(rows[x], best)) for x in range(start, m)]

    assert gains == fresh(best, 0)
    for c in committee:
        raised = [(i, a, b) for i, (a, b) in enumerate(zip(rows[c], best)) if a > b]
        best = [max(a, b) for a, b in zip(rows[c], best)]
        gains, start = _inherited_gains(table.voter_rows, c + 1, (start, gains, raised)), c + 1
        assert gains == fresh(best, start)


@settings(max_examples=400, deadline=None)
@given(table_elections(["betacc"]), st.data())
def test_betacc_price_bound_holds_below_every_child(election, data):
    # Bound (L) of the branch-and-bound, at a prefix P of a drawn committee
    # and its next member c, with the seats left and the ids >= start still
    # to come: for prices u with u_v >= best_v, voter v's best entry among P,
    # every completion of P + c scores at most Sigma u + g_c(u) + the
    # seats - 1 largest g(u) over the ids after c, where g_x(u) is the sum
    # over voters of max(0, w_vx - u_v).  Drawn prices and the search's own,
    # u_v = max(best_v, v's second-best entry among the ids >= start), both
    # hold; the search's tables and its one-pass g(u) match the formula.
    profile, rule, voters, k = election
    table = SatisfactionTable(profile, rule, voters)
    rows, m, n = table.rows, profile.m, len(table.voters)
    committee = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=k, max_size=k)))
    i = data.draw(st.integers(0, k - 1))
    prefix, c, seats = committee[:i], committee[i], k - i
    start = prefix[-1] + 1 if prefix else 0
    best = [max([rows[x][v] for x in prefix], default=0) for v in range(n)]
    ranked = [sorted([rows[x][v] for x in range(start, m)], reverse=True) + [0] for v in range(n)]
    own = [max(b, entries[1]) for b, entries in zip(best, ranked)]
    drawn = [b + extra for b, extra in zip(best, data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))]

    def excess(u):
        return [sum(max(0, w - p) for w, p in zip(rows[x], u)) for x in range(m)]

    def bound(u):
        g = excess(u)
        return sum(u) + g[c] + sum(sorted(g[c + 1:], reverse=True)[:seats - 1])

    top = max(table.score((*prefix, c, *rest)) for rest in itertools.combinations(range(c + 1, m), seats - 1))
    for u in (best, drawn, own):
        assert top <= bound(u)
    prices = _Prices(rows, _suffix_maxima(rows, n))
    assert prices.second[start] == [entries[1] for entries in ranked]
    base, g, ahead = prices.bound(best, start, seats, float("inf"))
    assert (base, g) == (sum(own), excess(own)[start:])
    assert base + g[c - start] + ahead[c - start] == bound(own)
    assert prices.bound(best, start, seats, base) is None


@settings(max_examples=400, deadline=None)
@given(table_elections(RULE_KINDS))
def test_branch_and_bound_matches_full_enumeration(election):
    profile, rule, voters, k = election
    got = _certified_max(SatisfactionTable(profile, rule, voters), k)
    assert got == ref.table_max(SatisfactionTable(profile, rule, voters), k)


@st.composite
def kernel_elections(draw):
    """A profile (m <= 8, n <= 6), a drawn nonincreasing vector, and voters:
    all (None), a set of distinct ids, or none at all."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    profile = make_profile(m, draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n)))
    vector = sorted(draw(st.lists(st.integers(0, 9), min_size=m, max_size=m)), reverse=True)
    voters = draw(st.none() | st.just([]) | st.lists(st.integers(0, n - 1), unique=True))
    return profile, tuple(vector), voters


@settings(max_examples=300, deadline=None)
@given(kernel_elections())
def test_table_rows_are_the_vector_entries_of_the_profile_matrix(election):
    # a drawn vector and Borda on the same profile: each table reads its own
    # vector's matrix, and no table changes a matrix the profile keeps
    profile, custom, voters = election
    m, borda = profile.m, borda_vector(profile.m)

    def entries(vector):  # straight from the rankings
        return tuple(tuple(vector[ranking.index(c)] for c in range(m)) for ranking in profile.rankings)

    for kind in RULE_KINDS:
        for scoring, vector in ((custom, custom), (None, borda)):
            table = SatisfactionTable(profile, Rule(kind, scoring), voters)
            assert table.voters == (list(range(profile.n)) if voters is None else sorted(voters))
            assert len(table.rows) == m
            for c in range(m):
                assert table.rows[c] == tuple(vector[profile.rankings[v].index(c)] for v in table.voters)
            assert table.totals == [sum(row) for row in table.rows]
            # the searches and scorers that read the rows
            table.score(list(range(min(2, m))))
            if table.voters and kind != "kborda":
                _greedy_max(table, min(2, m))
                _certified_max(table, min(2, m))
    assert profile.satisfaction(custom) == entries(custom)
    assert profile.satisfaction(borda) == entries(borda)
    assert profile._positions == entries(range(1, m + 1))


@st.composite
def run_profiles(draw, valid=True):
    """A profile (m <= 6) built from runs of one to four equal ballots drawn
    from a pool of at most four, so equal ballots come both adjacent and
    apart; every voter's ranking is its own list.  With ``valid`` false the
    pool may hold ballots of the wrong length, with repeats or ids outside
    0..m-1, and the priority may be malformed too."""
    m = draw(st.integers(1, 6))
    ballot = st.permutations(range(m))
    if not valid:
        ballot = ballot | st.lists(st.integers(-1, m), min_size=max(0, m - 1), max_size=m + 1)
    pool = draw(st.lists(ballot, min_size=1, max_size=4))
    runs = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 4)), min_size=1, max_size=6))
    rankings = [list(pool[i]) for i, count in runs for _ in range(count)]
    priority = None if valid else draw(st.none() | st.lists(st.integers(0, m), max_size=m + 1))
    return PreferenceProfile(m=m, rankings=rankings, priority=priority)


@settings(max_examples=300, deadline=None)
@given(run_profiles(), st.lists(st.integers(0, 9), min_size=6, max_size=6))
def test_equal_adjacent_ballots_share_one_satisfaction_row(profile, drawn):
    # every row equals the per-voter build, and a voter whose ranking equals
    # the one before holds that voter's very row, which is the memory saved
    m = profile.m
    for vector in (tuple(sorted(drawn[:m], reverse=True)), borda_vector(m)):
        matrix = profile.satisfaction(vector)
        assert matrix == tuple(tuple(vector[ranking.index(c)] for c in range(m)) for ranking in profile.rankings)
        for v in range(1, profile.n):
            if profile.rankings[v] == profile.rankings[v - 1]:
                assert matrix[v] is matrix[v - 1]


def validate_per_voter(profile):
    """The verdict of ``validate_profile`` from checking every voter alone."""
    m = profile.m
    if m < 1:
        return ValidationResult(False, f"candidate count must be >= 1, got {m}")
    if profile.n < 1:
        return ValidationResult(False, "profile has no voters")
    for v, ranking in enumerate(profile.rankings):
        if len(ranking) != m:
            return ValidationResult(False, f"wrong-length-ranking: voter {v} ranks {len(ranking)} of {m} candidates")
        for i, cand in enumerate(ranking):
            if not 0 <= cand < m:
                return ValidationResult(False, f"candidate-out-of-range: voter {v} ranks candidate {cand}")
            if cand in ranking[:i]:
                return ValidationResult(False, f"duplicate-candidate-in-ranking: voter {v} ranks candidate {cand} twice")
    if sorted(profile.priority) != list(range(m)):
        return ValidationResult(False, f"bad-priority-permutation: priority {profile.priority} "
                                       f"is not a permutation of 0..{m - 1}")
    return ValidationResult(True)


@settings(max_examples=400, deadline=None)
@given(run_profiles(valid=False))
def test_validation_matches_the_per_voter_verdict_on_profiles_with_runs(profile):
    assert validate_profile(profile) == validate_per_voter(profile)


@st.composite
def metric_instances(draw):
    """Instances for the best-unsatisfied-fraction search (m <= 10, n <= 5):
    k anywhere in [1, m] with both ends drawn often, up to two attributes of
    each kind (none at all gives no constraints), and bounds that may be
    zero when ``allow_zero_bounds`` is drawn."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 5))
    k = draw(st.just(1) | st.just(m) | st.integers(1, m))
    allow_zero = draw(st.booleans())
    rankings = draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n))
    cand_attrs, diversity = [], {}
    for a in range(draw(st.integers(0, 2))):
        attr = Attribute(f"A{a}", draw(partitions(m, "g")))
        cand_attrs.append(attr)
        for label, members in attr.groups:
            diversity[(attr.name, label)] = draw(st.integers(0 if allow_zero else 1, min(k, len(members))))
    voter_attrs, representation = [], {}
    for b in range(draw(st.integers(0, 2))):
        attr = Attribute(f"B{b}", draw(partitions(n, "p")))
        voter_attrs.append(attr)
        for label, _ in attr.groups:
            representation[(attr.name, label)] = draw(st.integers(0 if allow_zero else 1, k))
    return make_instance(
        make_profile(m, rankings),
        AttributeScheme(tuple(cand_attrs), tuple(voter_attrs)),
        k=k,
        rule=Rule(draw(st.sampled_from(RULE_KINDS))),
        diversity_bounds=diversity,
        representation_bounds=representation,
        allow_zero_bounds=allow_zero,
    )


@settings(max_examples=400, deadline=None)
@given(metric_instances())
def test_best_unsatisfied_fraction_matches_enumeration(instance):
    assert best_unsatisfied_fraction(instance, False) == ref.best_unsatisfied_fraction(instance, False)


@st.composite
def domain_families(draw):
    """Instances (m <= 10, k in [1, m]) whose constraints are any family of
    up to five domains.  Each candidate gets one of up to six kinds, and a
    domain is a union of kinds: candidates of one kind are twins, a union
    drawn inside an earlier one nests in it, others overlap, and a kind in
    no union is held by no domain.  Each domain is the one bounded group of
    an attribute whose other group, its complement, has bound 0."""
    m = draw(st.integers(1, 10))
    k = draw(st.just(1) | st.just(m) | st.integers(1, m))
    kinds = draw(st.lists(st.integers(0, draw(st.integers(0, 5))), min_size=m, max_size=m))
    unions, attrs, bounds = [], [], {}
    for a in range(draw(st.integers(0, 5))):
        outer = draw(st.sampled_from(unions)) if unions and draw(st.booleans()) else sorted(set(kinds))
        unions.append(sorted(draw(st.sets(st.sampled_from(outer), min_size=1))))
        members = [c for c in range(m) if kinds[c] in unions[-1]]
        rest = [c for c in range(m) if kinds[c] not in unions[-1]]
        attrs.append(Attribute(f"A{a}", {"in": members, "out": rest} if rest else {"in": members}))
        bounds[(f"A{a}", "in")] = draw(st.integers(1, min(k, len(members))))
        if rest:
            bounds[(f"A{a}", "out")] = 0
    return make_instance(make_profile(m, [list(range(m))]), AttributeScheme(tuple(attrs), ()), k=k,
                         diversity_bounds=bounds, allow_zero_bounds=True)


@settings(max_examples=400, deadline=None)
@given(domain_families())
def test_fewest_unmet_with_dominance_matches_enumeration(instance):
    constraints = instance.constraints()
    expected = ref.best_unsatisfied_fraction(instance, False)[0] * len(constraints)
    assert _fewest_unmet(instance, constraints) == expected

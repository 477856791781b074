import gc
import itertools
import math
import random
import sys
import types
from math import comb

import pytest

import scoring_reference as ref
from dire import rules, synth
from dire.profiles import make_profile
from dire.rules import (
    RULE_KINDS,
    Rule,
    RuleError,
    SatisfactionTable,
    SolverTimeout,
    _certified_max,
    _greedy_max,
    betacc,
    borda_vector,
    candidate_scores,
    kborda,
    monroe,
    population_winning_committee,
    score_committee,
    unconstrained_winner,
    validate_scoring,
)


def naive_candidate_score(profile, scoring, candidate):
    # independent recomputation straight from the rankings
    total = 0
    for v in range(profile.n):
        rank = list(profile.rankings[v]).index(candidate) + 1
        total += scoring[rank - 1]
    return total


def test_scoring_vector_validation():
    assert validate_scoring((3, 2, 1, 0), 4) == (3, 2, 1, 0)
    with pytest.raises(RuleError):
        validate_scoring((1, 2), 2)  # increasing
    with pytest.raises(RuleError):
        validate_scoring((1, 0), 3)  # wrong length
    with pytest.raises(RuleError):
        validate_scoring((1, -1), 2)


@pytest.mark.parametrize("make", [kborda, betacc, monroe])
def test_empty_scoring_vector_is_not_the_borda_vector(make):
    with pytest.raises(RuleError, match="empty"):
        make([])
    assert make().scoring is None and make((2, 1, 0)).scoring == (2, 1, 0)


@pytest.mark.parametrize("scoring", [(), (1, -1), (0, 1), (3, 2, 2, 4)])
@pytest.mark.parametrize("kind", RULE_KINDS)
def test_rule_rejects_a_bad_vector_when_built(kind, scoring):
    with pytest.raises(RuleError):
        Rule(kind, scoring)


def test_rule_vector_length_is_checked_against_m():
    rule = Rule("monroe", [3, 1, 0])
    assert rule.vector(3) == (3, 1, 0)
    with pytest.raises(RuleError, match="length"):
        rule.vector(4)


def test_borda_vector():
    assert borda_vector(4) == (3, 2, 1, 0)
    assert borda_vector(1) == (0,)


def test_example1_candidate_scores(example1):
    # frozen from the pair sums 17/13/12 and the total Borda mass of 24
    vector = borda_vector(4)
    scores = candidate_scores(example1.profile, vector)
    assert scores == [9, 8, 4, 3]
    assert scores == [naive_candidate_score(example1.profile, vector, c) for c in range(4)]


def test_single_voter_identity_borda():
    m = 5
    profile = make_profile(m, [list(range(m))])
    assert candidate_scores(profile, borda_vector(m))[0] == m - 1


def test_all_zero_scoring_vector():
    profile = make_profile(3, [[0, 1, 2], [2, 1, 0]])
    assert candidate_scores(profile, (0, 0, 0)) == [0, 0, 0]


def test_score_committee_kborda_example1(example1):
    assert score_committee(example1.profile, kborda(), (0, 1)) == 17
    assert score_committee(example1.profile, kborda(), (1, 2)) == 12


def test_betacc_single_voter():
    profile = make_profile(3, [[0, 1, 2]])
    # best committee member sits at position 2, worth 3 - 2
    assert score_committee(profile, betacc(), (1, 2)) == 1


def test_empty_committee_scores_zero():
    profile = make_profile(3, [[0, 1, 2]])
    for rule in (kborda(), betacc(), monroe()):
        assert score_committee(profile, rule, ()) == 0


def test_monroe_each_voter_gets_top():
    profile = make_profile(2, [[0, 1], [1, 0]])
    assert ref.monroe_assign(profile, (0, 1)) == ({0: 0, 1: 1}, 2)
    assert score_committee(profile, monroe(), (0, 1)) == 2  # (m - 1) for each voter


def test_monroe_capacity_forces_split():
    # every voter ranks 0 > 1 > 2 > 3: the loads of two give member 1 two
    # voters at 2 each, where the unbalanced 4 x 3 would score 12
    profile = make_profile(4, [[0, 1, 2, 3]] * 4)
    assignment, total = ref.monroe_assign(profile, (0, 1))
    loads = {member: sum(1 for v in assignment.values() if v == member) for member in (0, 1)}
    assert loads == {0: 2, 1: 2}
    assert score_committee(profile, monroe(), (0, 1)) == total == 10


def test_monroe_floor_ceil_loads():
    # member 0, earlier in priority order, takes the ceil load of two
    # (voters 0 and 1, at 2 and 1) and member 1 voter 2 (at 1); the loads
    # the other way round would score 5
    profile = make_profile(3, [[0, 1, 2], [1, 0, 2], [2, 1, 0]])
    assignment, total = ref.monroe_assign(profile, (0, 1))
    loads = sorted(
        sum(1 for member in assignment.values() if member == chosen) for chosen in (0, 1)
    )
    assert loads == [1, 2]
    assert score_committee(profile, monroe(), (0, 1)) == total == 4


def test_monroe_greedy_at_most_exact():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(2, 6)
        n = rng.randint(2, 6)
        k = rng.randint(1, min(3, m))
        profile = make_profile(m, [rng.sample(range(m), m) for _ in range(n)])
        committee = rng.sample(range(m), k)
        greedy = score_committee(profile, monroe(), committee)
        _, exact = ref.exact_monroe_assign(profile, committee)
        assert greedy <= exact


def test_exact_monroe_assignment_tries_every_member_for_the_larger_loads():
    # three voters who all rank 1 > 2 > 0 and the committee {0, 1}: the
    # greedy gives the load of two to member 0, the earlier in priority
    # order, and scores 2; the optimum gives it to member 1 and scores 4
    profile = make_profile(3, [(1, 2, 0)] * 3)
    assert score_committee(profile, monroe(), [0, 1]) == 2
    assignment, total = ref.exact_monroe_assign(profile, [0, 1])
    assert total == 4
    assert sorted(assignment.values()) == [0, 1, 1]


def test_exact_monroe_assignment_with_repeated_voters():
    # the reference oracles still take repeated voter ids, which the library
    # no longer does: the loads count a repeated id, the voters to hand out
    # do not, and the exact assignment still finds one and never scores
    # below the reference greedy; member 1 takes the load of two, of which
    # one distinct voter is left for it
    profile = make_profile(4, [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1)])
    assert ref.exact_monroe_assign(profile, [0, 1], voters=[0, 0, 1]) == ({0: 0, 1: 1}, 6)
    rng = random.Random(5)
    for _ in range(60):
        m, n = rng.randint(2, 6), rng.randint(1, 5)
        profile = make_profile(m, [rng.sample(range(m), m) for _ in range(n)])
        voters = [rng.randrange(n) for _ in range(rng.randint(1, 2 * n))]
        committee = rng.sample(range(m), rng.randint(1, min(3, m)))
        _, greedy = ref.monroe_assign(profile, committee, voters=voters)
        assignment, exact = ref.exact_monroe_assign(profile, committee, voters=voters)
        assert 0 <= greedy <= exact
        assert set(assignment) <= set(voters)


def test_population_winning_committees_example1(example1):
    profile = example1.profile
    assert population_winning_committee(profile, [0, 1], kborda(), 2).members == (0, 1)
    assert population_winning_committee(profile, [2, 3], kborda(), 2).members == (1, 3)


def test_population_single_voter_top_two():
    profile = make_profile(4, [[2, 0, 3, 1], [1, 3, 0, 2]])
    committee = population_winning_committee(profile, [0], kborda(), 2)
    assert committee.members == (0, 2)


def test_population_committee_size_out_of_range():
    # k = m + 1 once gave m members under k-Borda and an IndexError under
    # Borda-CC and Monroe, and k = 0 the empty committee
    profile = make_profile(3, [[2, 0, 1], [1, 2, 0]])
    for rule in (kborda(), betacc(), monroe()):
        for k in (0, 4):
            with pytest.raises(RuleError, match=rf"committee size {k} out of range \[1, 3\]"):
                population_winning_committee(profile, [0, 1], rule, k)
        assert len(population_winning_committee(profile, [0, 1], rule, 3).members) == 3


def test_population_empty_rejected(example1):
    with pytest.raises(RuleError):
        population_winning_committee(example1.profile, [], kborda(), 2)


@pytest.mark.parametrize("voter", [-1, -4, 4, 9])
def test_every_entry_point_rejects_out_of_range_voters(example1, voter):
    # -1 once scored voter n-1 and n raised a bare IndexError; the table
    # checks the voter list of every population search
    profile = example1.profile
    for rule in (kborda(), betacc(), monroe()):
        calls = [
            lambda voters: SatisfactionTable(profile, rule, voters),
            lambda voters: population_winning_committee(profile, voters, rule, 2),
        ]
        for call in calls:
            with pytest.raises(RuleError, match="out-of-range voter"):
                call([0, voter])
            call([0, 3])  # the ids 0..n-1 are all accepted


@pytest.mark.parametrize("bad", [-1, 4])
def test_candidate_entry_points_reject_out_of_range_ids(example1, bad):
    # example1 has m = 4: -1 once read candidate 3's entries and 4 raised a
    # bare IndexError
    profile = example1.profile
    calls = [
        lambda c: score_committee(profile, kborda(), [c]),
        lambda c: score_committee(profile, betacc(), [0, c]),
        lambda c: score_committee(profile, monroe(), [c, 0]),
    ]
    for call in calls:
        with pytest.raises(RuleError, match="out-of-range candidate"):
            call(bad)
        call(example1.m - 1)  # the ids 0..m-1 are all accepted


def test_unconstrained_winner_example1(example1):
    result = unconstrained_winner(example1.profile, kborda(), 2)
    assert result.committee.members == (0, 1)
    assert result.score == 17
    assert result.mode == "topk"


def test_unconstrained_winner_full_committee():
    profile = make_profile(3, [[1, 0, 2], [2, 1, 0]])
    for rule in (kborda(), betacc(), monroe()):
        assert unconstrained_winner(profile, rule, 3).committee.members == (0, 1, 2)


def test_unconstrained_betacc_single_winner():
    profile = make_profile(3, [[2, 0, 1]])
    result = unconstrained_winner(profile, betacc(), 1)
    assert result.committee.members == (2,)
    assert result.score == 2


def test_unconstrained_greedy_above_cap(monkeypatch):
    rng = random.Random(5)
    profile = make_profile(6, [rng.sample(range(6), 6) for _ in range(4)])
    exact = unconstrained_winner(profile, betacc(), 3)
    assert exact.mode == "exhaustive"
    monkeypatch.setattr(rules, "DEFAULT_ORACLE_CAP", 1)
    result = unconstrained_winner(profile, betacc(), 3)
    assert result.mode == "greedy"
    assert result.score <= exact.score


@pytest.mark.parametrize("rule", [betacc(), monroe()], ids=["betacc", "monroe"])
@pytest.mark.parametrize("clock_reads", [1, 3, 12])
def test_greedy_search_times_out(rule, clock_reads, monkeypatch):
    # a clock that passes the deadline at its clock_reads-th reading: before
    # the first evaluation, or later in the search (reading 12 falls after
    # step 1 under both rules)
    rng = random.Random(7)
    profile = make_profile(8, [rng.sample(range(8), 8) for _ in range(6)])
    ticks = iter(range(1, 100))
    monkeypatch.setattr(rules, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    with pytest.raises(SolverTimeout):
        _greedy_max(SatisfactionTable(profile, rule), 4, deadline=clock_reads - 0.5)
    ticks = iter(range(1, 100))
    monkeypatch.setattr(rules, "DEFAULT_ORACLE_CAP", 1)
    with pytest.raises(SolverTimeout):
        unconstrained_winner(profile, rule, 4, deadline=clock_reads - 0.5)


@pytest.mark.parametrize("rule", [betacc(), monroe()], ids=["betacc", "monroe"])
def test_ties_at_the_optimum_go_to_the_least_member_tuple(rule):
    # four committees share the optimum under both rules; the greedy seed is
    # the third of them and the priority order is reversed, so neither may
    # decide the tie
    profile = make_profile(5, [[1, 0, 2, 3, 4], [3, 0, 1, 4, 2], [4, 3, 1, 2, 0], [2, 4, 1, 0, 3]],
                           priority=[4, 3, 2, 1, 0])
    table = SatisfactionTable(profile, rule)
    scores = {members: table.score(members) for members in itertools.combinations(range(5), 2)}
    assert max(scores.values()) == 13
    assert [members for members, score in scores.items() if score == 13] == [(0, 4), (1, 3), (1, 4), (2, 3)]
    assert _greedy_max(table, 2).members == (1, 4)
    assert _certified_max(table, 2) == ((0, 4), 13)
    result = unconstrained_winner(profile, rule, 2)
    assert (result.committee.members, result.score, result.mode) == ((0, 4), 13, "exhaustive")
    assert population_winning_committee(profile, range(4), rule, 2).members == (0, 4)


def _search_election():
    # a search that reads the clock more than 12 times after the greedy seed
    # of a 4-committee under both rules (50 times under Borda-CC, 137 under
    # Monroe), so that the deadline tests below stop it inside the search
    rng = random.Random(3)
    return make_profile(12, [rng.sample(range(12), 12) for _ in range(8)])


class _CountingClock:
    """A stand-in for ``rules.time`` whose n-th reading is n."""

    def __init__(self, monkeypatch):
        self.reads = 0
        monkeypatch.setattr(rules, "time", self)

    def monotonic(self):
        self.reads += 1
        return self.reads

    def seed_reads(self, profile, rule):
        """The readings the greedy seed of a 4-committee takes; restarts the count."""
        _greedy_max(SatisfactionTable(profile, rule), 4, deadline=math.inf)
        reads, self.reads = self.reads, 0
        return reads


@pytest.mark.parametrize("rule", [betacc(), monroe()], ids=["betacc", "monroe"])
@pytest.mark.parametrize("clock_reads", [1, 3, 12])
def test_branch_and_bound_times_out(rule, clock_reads, monkeypatch):
    # a clock that passes the deadline at the search's clock_reads-th reading
    # after those of the greedy seed: at the root, or later in the search
    profile = _search_election()
    clock = _CountingClock(monkeypatch)
    seed_reads = clock.seed_reads(profile, rule)
    _certified_max(SatisfactionTable(profile, rule), 4, deadline=math.inf)
    assert clock.reads > seed_reads + 12  # reading 12 falls inside the search
    clock.reads = 0
    with pytest.raises(SolverTimeout):
        _certified_max(SatisfactionTable(profile, rule), 4, deadline=seed_reads + clock_reads - 0.5)
    clock.reads = 0
    with pytest.raises(SolverTimeout):
        unconstrained_winner(profile, rule, 4, deadline=seed_reads + clock_reads - 0.5)


@pytest.mark.parametrize("rule", [betacc(), monroe()], ids=["betacc", "monroe"])
def test_branch_and_bound_leaves_no_reference_cycles(rule, monkeypatch):
    profile = _search_election()
    _certified_max(SatisfactionTable(profile, rule), 4)
    gc.collect()
    gc.disable()
    try:
        _certified_max(SatisfactionTable(profile, rule), 4)
        assert gc.collect() == 0
        # a clock that passes the deadline inside the search, not in the seed
        seed_reads = _CountingClock(monkeypatch).seed_reads(profile, rule)
        try:
            _certified_max(SatisfactionTable(profile, rule), 4, deadline=seed_reads + 2.5)
        except SolverTimeout:
            pass
        else:
            pytest.fail("the search was not cut")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_branch_and_bound_depth_is_not_bounded_by_the_recursion_limit():
    # C(302, 300) = 45,451 lies below the oracle cap, and the search's depth,
    # k = 300, above the lowered limit; the voters' tops are the last ids, so
    # the optimum excludes two others
    m, k = 302, 300
    rng = random.Random(3)
    rankings = [[301] + rng.sample(range(301), 301), [300] + rng.sample([*range(300), 301], 301)]
    profile = make_profile(m, rankings)
    table = SatisfactionTable(profile, betacc())
    vector = borda_vector(m)

    # Borda-CC: each voter counts its best member, the first one it ranks
    scores = {pair: sum(vector[next(i for i, c in enumerate(ranking) if c not in pair)] for ranking in rankings)
              for pair in itertools.combinations(range(m), 2)}
    best = max(scores.values())
    # the least member tuple leaves out the greatest pair
    left_out = max(pair for pair, score in scores.items() if score == best)
    expected = tuple(c for c in range(m) if c not in left_out)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        assert _certified_max(table, k) == (expected, best)
    finally:
        sys.setrecursionlimit(limit)
    assert expected == (*range(298), 300, 301)


def _desk_election():
    # uniform rankings at desk scale; full enumeration scores all C(16, 4) = 1820
    rng = random.Random(0)
    return make_profile(16, [rng.sample(range(16), 16) for _ in range(20)])


def _count_scores(monkeypatch):
    score, calls = SatisfactionTable.score, []

    def counted(table, members):
        calls.append(members)
        return score(table, members)

    monkeypatch.setattr(SatisfactionTable, "score", counted)
    return calls


def test_branch_and_bound_prunes_monroe_leaves(monkeypatch):
    profile = _desk_election()
    expected = ref.table_max(SatisfactionTable(profile, monroe()), 4)
    calls = _count_scores(monkeypatch)
    assert _certified_max(SatisfactionTable(profile, monroe()), 4) == expected
    assert len(calls) < comb(16, 4) / 4


@pytest.mark.parametrize("voters", [[0], range(5)], ids=["one-voter", "five-voters"])
def test_monroe_load_bound_prunes_small_populations(voters, monkeypatch):
    # fewer voters than seats, or 5 on 4 seats: only the members earliest in
    # priority order take a voter more than the others, so bound (c) is tight
    # enough that the greedy seed's score and one leaf certify the optimum
    profile = _desk_election()
    expected = ref.table_max(SatisfactionTable(profile, monroe(), voters), 4)
    calls = _count_scores(monkeypatch)
    assert _certified_max(SatisfactionTable(profile, monroe(), voters), 4) == expected
    assert len(calls) <= 4


def _count_nodes(monkeypatch):
    depth_first, nodes = rules._depth_first, []

    def counted(expand, *root):
        def node(*args):
            nodes.append(args)
            return expand(*args)

        depth_first(node, *root)

    monkeypatch.setattr(rules, "_depth_first", counted)
    return nodes


@pytest.mark.parametrize("voters, limit", [(range(3), 8), (range(7), 32)], ids=["three-voters", "seven-voters"])
def test_monroe_open_slots_cut_whole_subtrees(voters, limit, monkeypatch):
    # 3 or 7 voters on 4 seats: the 3 members earliest in priority order
    # (here, ascending ids) serve a voter more than the last.  Below a prefix
    # P of fewer than 3 members, a later member y after every member of P + c
    # takes that voter only while one of the 3 loads is open, so bound (c)
    # credits at most 3 - |P| - 1 of them; crediting every one (59 and 196
    # nodes) keeps whole subtrees that this cuts (4 and 16 nodes).
    profile = _desk_election()
    expected = ref.table_max(SatisfactionTable(profile, monroe(), voters), 4)
    nodes = _count_nodes(monkeypatch)
    assert _certified_max(SatisfactionTable(profile, monroe(), voters), 4) == expected
    assert len(nodes) <= limit


@pytest.mark.parametrize("voters, count", [(range(3), 4), (range(7), 25), (None, 62)],
                         ids=["three-voters", "seven-voters", "all-voters"])
def test_betacc_prices_cut_whole_subtrees(voters, count, monkeypatch):
    # Bound (L) prices each voter at its second-best entry among the ids
    # still to come, so a prefix whose seats left cannot give the remaining
    # voters their best is cut before (a)'s gain pass runs.  Bounds (a) and
    # (b) alone visit 14, 157 and 98 nodes.
    profile = _desk_election()
    expected = ref.table_max(SatisfactionTable(profile, betacc(), voters), 4)
    nodes = _count_nodes(monkeypatch)
    assert _certified_max(SatisfactionTable(profile, betacc(), voters), 4) == expected
    assert len(nodes) == count


def test_monroe_leaves_keep_to_the_deadline(monkeypatch):
    # A clock that ticks once per table score passes the deadline at the 9th
    # score: the greedy seed's, 6 leaves, then (0, 1, 5, 9) and
    # (0, 1, 5, 11), the first two of the 5 leaves of (0, 1, 5) that are
    # scored.  No further leaf may be scored.
    profile = _desk_election()
    calls = _count_scores(monkeypatch)
    monkeypatch.setattr(rules, "time", types.SimpleNamespace(monotonic=lambda: len(calls)))
    with pytest.raises(SolverTimeout):
        _certified_max(SatisfactionTable(profile, monroe()), 4, deadline=8.5)
    assert calls[-1] == (0, 1, 5, 11)
    assert len(calls) == 9


def test_greedy_monroe_rescores_every_candidate():
    # The greedy Monroe score is not submodular: candidate 2 gains -1 next to
    # {0} and 0 next to {0, 1}, as the loads drop from n/2 to a 1-1-0 split.
    # A lazy heap would keep 2 under its stale gain of -1 and take 3 at the
    # last step (gain 0, later in priority); the greedy takes 2.
    profile = make_profile(4, [[0, 1, 2, 3], [1, 0, 2, 3]])
    gain = lambda base, c: score_committee(profile, monroe(), base + [c]) - score_committee(profile, monroe(), base)
    assert (gain([0], 2), gain([0, 1], 2), gain([0, 1], 3)) == (-1, 0, 0)
    assert _greedy_max(SatisfactionTable(profile, monroe()), 3).members == (0, 1, 2)


def _exact_trials(profile, voters, k, monkeypatch):
    """(exact trials, candidate-steps) of a k-step greedy Monroe run.  An
    exact trial is a claim that involves a candidate outside the committee
    of the steps before it; the claims of step s are those a run of s + 1
    steps makes after the first s."""
    claim, calls = SatisfactionTable._claim, []

    def spy(table, owner, total, members, loads):
        members = tuple(members)
        calls.append(members)
        return claim(table, owner, total, members, loads)

    monkeypatch.setattr(SatisfactionTable, "_claim", spy)
    ends, committees = [], []
    for s in range(k + 1):
        calls.clear()
        committees.append(set(_greedy_max(SatisfactionTable(profile, monroe(), voters), s).members))
        ends.append(len(calls))
    monkeypatch.setattr(SatisfactionTable, "_claim", claim)
    trials = sum(not set(members) <= committees[s] for s in range(k) for members in calls[ends[s]:ends[s + 1]])
    return trials, sum(profile.m - s for s in range(k))


@pytest.mark.parametrize("kind, mu, pi, phi", [("syn1", 1, 2, 0.5), ("syn1", 2, 3, 0.5), ("syn2", 2, 2, 0.5)])
def test_greedy_monroe_scores_few_trials_exactly_at_paper_scale(kind, mu, pi, phi, monkeypatch):
    # m=50, n=100, k=6: the full electorate and the largest population.  On
    # the uniform profiles of phi = 1.0 the bound cuts far less, so those are
    # left to the identity checks.
    drawn = synth.draw_syndata(kind, mu, pi, phi, seed=0)
    profile = drawn["profile"]
    populations = [sorted(group) for attribute in drawn["scheme"].voter_attributes for _, group in attribute.groups]
    for voters in (None, max(populations, key=len)):
        committee = _greedy_max(SatisfactionTable(profile, monroe(), voters), 6)
        assert committee == ref.greedy_max(profile, monroe(), 6, voters)
        trials, steps = _exact_trials(profile, voters, 6, monkeypatch)
        assert 0 < trials < steps / 5, (trials, steps)


def _facility_location_max(table, k):
    """The Borda-CC optimum of a table by a scipy ILP, an oracle that shares
    no code with the branch-and-bound: y_c opens candidate c, x_ic serves
    voter i from c, with sum y = k, sum over c of x_ic = 1 and x_ic <= y_c;
    maximize the sum of w_ic x_ic.  With y integral an optimal x serves
    each voter from its best open candidate, so x may stay continuous."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    weights = np.array(table.voter_rows, dtype=float)
    n, m = weights.shape
    seats = optimize.LinearConstraint(sparse.hstack([np.ones((1, m)), sparse.csr_matrix((1, n * m))]), k, k)
    served = optimize.LinearConstraint(
        sparse.hstack([sparse.csr_matrix((n, m)), sparse.kron(sparse.eye(n), np.ones((1, m)))]), 1, 1)
    opened = optimize.LinearConstraint(sparse.hstack([-sparse.vstack([sparse.eye(m)] * n), sparse.eye(n * m)]),
                                       -np.inf, 0)
    res = optimize.milp(np.concatenate([np.zeros(m), -weights.ravel()]), constraints=[seats, served, opened],
                        integrality=np.concatenate([np.ones(m), np.zeros(n * m)]), bounds=optimize.Bounds(0, 1))
    assert res.status == 0, res.message
    return round(-res.fun)


@pytest.mark.parametrize("kind, mu, pi, phi, seed, population, score", [
    ("syn1", 1, 0, 0.5, 9, None, 4900),
    ("syn2", 2, 2, 0.8, 0, None, 4875),
    ("syn2", 2, 2, 0.9, 0, None, 4823),
    ("syn2", 2, 2, 0.9, 0, ("B1", "p2"), 4584),
    ("syn2", 2, 2, 0.9, 0, ("B2", "p5"), 3142),
], ids=["syn1-mu1-pi0-seed9", "syn2-phi0.8", "syn2-phi0.9", "syn2-phi0.9-B1:p2", "syn2-phi0.9-B2:p5"])
def test_certified_betacc_winner_matches_an_ilp_at_paper_scale(kind, mu, pi, phi, seed, population, score):
    # m=50, n=100, k=6, where C(m, k) lies above the winner cap, so only a
    # direct call certifies: the unconstrained tables of three profiles and
    # two population tables (95 and 65 voters) of syn2 phi 0.9.  Monroe is
    # left out, as the library scores it by a greedy assignment.
    drawn = synth.draw_syndata(kind, mu, pi, phi, seed)
    groups = {(attribute.name, label): voters
              for attribute in drawn["scheme"].voter_attributes for label, voters in attribute.groups}
    table = SatisfactionTable(drawn["profile"], betacc(), None if population is None else groups[population])
    assert _facility_location_max(table, 6) == _certified_max(table, 6)[1] == score


def test_separable_additivity():
    rng = random.Random(23)
    for _ in range(20):
        m = rng.randint(3, 8)
        profile = make_profile(m, [rng.sample(range(m), m) for _ in range(rng.randint(1, 6))])
        vector = borda_vector(m)
        k = rng.randint(1, m)
        committee = rng.sample(range(m), k)
        scores = candidate_scores(profile, vector)
        assert score_committee(profile, kborda(), committee) == sum(scores[c] for c in committee)


def test_betacc_monotone_and_submodular():
    rng = random.Random(31)
    for _ in range(300):
        m = rng.randint(3, 7)
        profile = make_profile(m, [rng.sample(range(m), m) for _ in range(rng.randint(1, 5))])
        b_size = rng.randint(1, m - 1)
        b = set(rng.sample(range(m), b_size))
        a = {x for x in b if rng.random() < 0.6} or {min(b)}
        c = rng.choice([x for x in range(m) if x not in b])
        f = lambda s: score_committee(profile, betacc(), s)
        assert f(a) <= f(b)
        assert f(a | {c}) - f(a) >= f(b | {c}) - f(b)


def test_borda_mass_conservation():
    rng = random.Random(37)
    for _ in range(20):
        m = rng.randint(1, 9)
        n = rng.randint(1, 6)
        profile = make_profile(m, [rng.sample(range(m), m) for _ in range(n)])
        vector = borda_vector(m)
        total = sum(candidate_scores(profile, vector))
        assert total == n * m * (m - 1) // 2


def test_winner_determinism(example1):
    first = unconstrained_winner(example1.profile, betacc(), 2)
    second = unconstrained_winner(example1.profile, betacc(), 2)
    assert first == second


def test_score_committee_rejects_bad_ids(example1):
    with pytest.raises(RuleError):
        score_committee(example1.profile, kborda(), (0, 9))


@pytest.mark.parametrize("make", [kborda, betacc, monroe])
def test_score_committee_rejects_a_repeated_id(example1, make):
    # a repeat was once dropped without a word: (0, 0, 1) scored as (0, 1)
    with pytest.raises(RuleError, match="repeats a candidate id"):
        score_committee(example1.profile, make(), (0, 0, 1))
    score_committee(example1.profile, make(), (0, 1))

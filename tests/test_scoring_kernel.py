"""The satisfaction-table kernel against the rescoring code it replaced.

``scoring_reference`` keeps the old per-call scoring; every score, winning
committee, unconstrained winner, solve and exact unsatisfied fraction
computed through the table must equal it exactly, ties included.  The
tables of every voter share one set of entries per profile and vector;
the last tests check that no caller can change them and that a
population of every voter reads them too.
"""

import random
from fractions import Fraction
from unittest.mock import patch

import scoring_reference as ref
from conftest import brute_force_feasible_set, random_instance
from dire import rules
from dire.experiment import best_unsatisfied_fraction
from dire.profiles import make_profile
from dire.rules import (
    RULE_KINDS,
    Rule,
    SatisfactionTable,
    _winner,
    candidate_scores,
    population_winning_committee,
    score_committee,
    unconstrained_winner,
)
from dire.solver import SolverConfig, solve_feasibility
from dire.winner import solve_drcwd

ELECTIONS = 300


def scoring_vectors(rng, m):
    """Borda (None), all-zero, flat, approval-like and random nonincreasing
    vectors; the zero and flat ones make every committee tie."""
    yield None
    yield (0,) * m
    yield (2,) * m
    yield (1,) + (0,) * (m - 1)
    yield tuple(sorted((rng.randint(0, 9) for _ in range(m)), reverse=True))


def random_election(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 8), rng.randint(1, 8)
    profile = make_profile(m, [rng.sample(range(m), m) for _ in range(n)],
                           priority=rng.sample(range(m), m))
    voters = sorted(rng.sample(range(n), rng.randint(1, n)))
    return rng, profile, voters


def test_scores_match_the_reference():
    for seed in range(ELECTIONS):
        rng, profile, voters = random_election(seed)
        m = profile.m
        for vector in scoring_vectors(rng, m):
            if vector is not None:
                scores = candidate_scores(profile, vector)
                assert scores == ref.candidate_scores(profile, vector)
                c = rng.randrange(m)
                assert scores[c] == ref.candidate_score(profile, vector, c)
                totals = SatisfactionTable(profile, Rule("kborda", vector), voters).totals
                assert totals == ref.candidate_scores(profile, vector, voters)
            for kind in RULE_KINDS:
                rule = Rule(kind, vector)
                table = SatisfactionTable(profile, rule, voters)  # a population's sub-election
                for size in range(m + 1):  # partial committees, the empty one included
                    committee = rng.sample(range(m), size)
                    got = score_committee(profile, rule, committee)
                    assert got == ref.score_committee(profile, rule, committee), (seed, vector, kind)
                    got = table.score(sorted(committee))
                    assert got == ref.score_committee(profile, rule, committee, voters), (seed, vector, kind)


def test_winner_searches_match_the_reference():
    for seed in range(ELECTIONS):
        rng, profile, voters = random_election(seed)
        for vector in scoring_vectors(rng, profile.m):
            for kind in RULE_KINDS:
                rule = Rule(kind, vector)
                k = rng.randint(1, profile.m)
                assert (population_winning_committee(profile, voters, rule, k)
                        == ref.population_winning_committee(profile, voters, rule, k)), (seed, kind)
                table = SatisfactionTable(profile, rule, sorted(set(voters)))
                for cap in (0, 10**6):  # greedy, then exhaustive below the cap
                    with patch.object(rules, "DEFAULT_ORACLE_CAP", cap):
                        assert (_winner(table, k, None)[0]
                                == ref.population_winning_committee(profile, voters, rule, k, cap)), (seed, kind)
                        got = unconstrained_winner(profile, rule, k)
                    assert (got.committee, got.score, got.mode) == ref.unconstrained_winner(profile, rule, k, cap)


def test_solves_and_unsatisfied_fractions_match_the_reference():
    for seed in range(ELECTIONS):
        instance = random_instance(seed)
        profile, rule = instance.profile, instance.rule
        for exhaustive in (False, True):
            config = SolverConfig(timeout=60)
            # the certified solve picks from the whole feasible set, the default one from the harvest
            committees = (brute_force_feasible_set(instance) if exhaustive
                          else solve_feasibility(instance, config).committees)
            report = solve_drcwd(instance, config, exhaustive=exhaustive)
            if not committees:
                assert report.committee is None
                continue
            # the highest score, ties to the least member tuple
            best = min(committees, key=lambda c: (-ref.score_committee(profile, rule, c), c))
            score = ref.score_committee(profile, rule, best)
            assert (report.committee.members, report.score) == (best, score)
            denominator = max(ref.unconstrained_winner(profile, rule, instance.k)[1], score)
            assert report.utility_ratio == (Fraction(score, denominator) if denominator else None)
        assert best_unsatisfied_fraction(instance, False) == ref.best_unsatisfied_fraction(instance, False)


def test_greedy_unsatisfied_fractions_match_the_reference():
    # C(30, 6) = 593,775 is above the metric cap, so both take the greedy branch;
    # k-Borda keeps the population winning committees cheap at this size
    for seed in range(40):
        instance = random_instance(seed, m=30, n=12, k=6, rule=Rule("kborda"))
        assert best_unsatisfied_fraction(instance, False) == ref.best_unsatisfied_fraction(instance, False)


def test_edited_totals_leave_later_results_unchanged():
    # every table of the whole electorate reads one set of entries per
    # profile and vector, so the totals each hands out must be its caller's
    rng = random.Random(3)
    m, n, k = 6, 8, 3
    rankings = [rng.sample(range(m), m) for _ in range(n)]
    for kind in RULE_KINDS:
        rule = Rule(kind)
        vector = rule.vector(m)

        def results(profile):
            return (candidate_scores(profile, vector), score_committee(profile, rule, (0, 2, 4)),
                    unconstrained_winner(profile, rule, k), population_winning_committee(profile, range(n), rule, k),
                    SatisfactionTable(profile, rule).totals)

        expected = results(make_profile(m, rankings))
        profile = make_profile(m, rankings)
        scores = candidate_scores(profile, vector)
        scores[0] += 100
        scores.reverse()
        SatisfactionTable(profile, rule).totals[:] = [0] * m
        assert results(profile) == expected, kind
        scores, table = candidate_scores(profile, vector), SatisfactionTable(profile, rule)
        scores[1], table.totals[2] = -1, -1
        assert results(profile) == expected, kind


def test_a_population_of_every_voter_shares_the_electorate_entries():
    # a population listing every voter, in any order, reads the entries of the
    # tables of every voter, whichever call builds them first, and its winner
    # is the unconstrained one and that of a profile with no entries built
    rng = random.Random(7)
    m, n, k = 7, 6, 3
    rankings = [rng.sample(range(m), m) for _ in range(n)]
    everyone = rng.sample(range(n), n)
    for kind in RULE_KINDS:
        rule = Rule(kind)
        for population_first in (True, False):
            profile = make_profile(m, rankings)
            if population_first:
                winner = population_winning_committee(profile, everyone, rule, k)
                uncon = unconstrained_winner(profile, rule, k)
            else:
                uncon = unconstrained_winner(profile, rule, k)
                winner = population_winning_committee(profile, everyone, rule, k)
            assert SatisfactionTable(profile, rule, everyone).entries is SatisfactionTable(profile, rule).entries
            assert winner == uncon.committee
            assert winner == population_winning_committee(make_profile(m, rankings), everyone, rule, k)
            assert uncon == unconstrained_winner(make_profile(m, rankings), rule, k)
            assert SatisfactionTable(profile, rule, everyone[1:]).entries is not SatisfactionTable(profile, rule).entries

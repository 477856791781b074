"""The scoring code the satisfaction table replaced, kept as a test-only reference.

Every function rescores from the rankings on each call, exactly as the
package did before its winner searches and scoring loops read one
``SatisfactionTable`` per (profile, rule vector, voter list).
"""

import itertools
from fractions import Fraction
from math import comb

from dire.constraints import unsatisfied_fraction
from dire.experiment import METRIC_ORACLE_CAP
from dire.profiles import Committee, break_tie
from dire.rules import DEFAULT_ORACLE_CAP, KBORDA, MONROE, RuleError, borda_vector, validate_scoring


def candidate_score(profile, scoring, candidate, voters=None):
    s = validate_scoring(scoring, profile.m)
    voter_ids = range(profile.n) if voters is None else voters
    return sum(s[profile._positions[v][candidate] - 1] for v in voter_ids)


def candidate_scores(profile, scoring, voters=None):
    s = validate_scoring(scoring, profile.m)
    voter_ids = range(profile.n) if voters is None else list(voters)
    totals = [0] * profile.m
    for v in voter_ids:
        row = profile._positions[v]
        for c in range(profile.m):
            totals[c] += s[row[c] - 1]
    return totals


def monroe_assign(profile, committee, scoring=None, voters=None):
    """The greedy balanced assignment, sorting the free voters per member."""
    members = sorted(set(committee), key=profile.priority_key)
    if not members:
        raise RuleError("cannot assign voters to an empty committee")
    vector = borda_vector(profile.m) if scoring is None else validate_scoring(scoring, profile.m)
    voter_ids = list(range(profile.n)) if voters is None else sorted(voters)
    n, k = len(voter_ids), len(members)
    base, extra = divmod(n, k)
    loads = [base + 1 if i < extra else base for i in range(k)]
    sat = {(v, c): vector[profile._positions[v][c] - 1] for v in voter_ids for c in members}
    assignment = {}
    unassigned = set(voter_ids)
    for member, load in zip(members, loads):
        chosen = sorted(unassigned, key=lambda v: (-sat[(v, member)], v))[:load]
        for v in chosen:
            assignment[v] = member
        unassigned -= set(chosen)
    return assignment, sum(sat[(v, c)] for v, c in assignment.items())


def score_committee(profile, rule, committee, voters=None):
    members = tuple(sorted(set(committee)))
    if not members:
        return 0
    if any(not 0 <= c < profile.m for c in members):
        raise RuleError(f"committee {members} contains out-of-range candidate ids")
    vector = rule.vector(profile.m)
    if rule.kind == KBORDA:
        voter_ids = None if voters is None else list(voters)
        return sum(candidate_score(profile, vector, c, voter_ids) for c in members)
    if rule.kind == MONROE:
        return monroe_assign(profile, members, scoring=vector, voters=voters)[1]
    voter_ids = range(profile.n) if voters is None else voters
    return sum(vector[min(profile._positions[v][c] for c in members) - 1] for v in voter_ids)


def greedy_max(profile, rule, k, voters=None):
    chosen = []
    for _ in range(k):
        best_gain, best_cands = None, []
        current = score_committee(profile, rule, chosen, voters) if chosen else 0
        for c in range(profile.m):
            if c in chosen:
                continue
            gain = score_committee(profile, rule, chosen + [c], voters) - current
            if best_gain is None or gain > best_gain:
                best_gain, best_cands = gain, [c]
            elif gain == best_gain:
                best_cands.append(c)
        chosen.append(break_tie(best_cands, profile.priority))
    return Committee(chosen)


def exhaustive_max(profile, rule, k, voters=None):
    best_score, best = None, None
    for combo in itertools.combinations(range(profile.m), k):
        score = score_committee(profile, rule, combo, voters)
        if best_score is None or score > best_score:
            best_score, best = score, combo
    return Committee(best), best_score


def table_max(table, k):
    """The full enumeration the branch-and-bound replaced: every k-committee
    scored through the table in ``combinations`` order, the first best kept."""
    best, best_score = None, None
    for members in itertools.combinations(range(table.profile.m), k):
        score = table.score(members)
        if best_score is None or score > best_score:
            best, best_score = members, score
    return best, best_score


def topk_by_score(profile, vector, k, voters=None):
    scores = candidate_scores(profile, vector, voters)
    order = sorted(range(profile.m), key=lambda c: (-scores[c], profile.priority_key(c)))
    return Committee(order[:k])


def population_winning_committee(profile, population, rule, k, oracle_cap=DEFAULT_ORACLE_CAP):
    voter_ids = sorted(set(population))
    vector = rule.vector(profile.m)
    if rule.kind == KBORDA:
        return topk_by_score(profile, vector, k, voter_ids)
    if comb(profile.m, k) <= oracle_cap:
        return exhaustive_max(profile, rule, k, voter_ids)[0]
    return greedy_max(profile, rule, k, voter_ids)


def unconstrained_winner(profile, rule, k, oracle_cap=DEFAULT_ORACLE_CAP):
    """(committee, score, mode) as ``rules.unconstrained_winner`` reports them."""
    if rule.kind == KBORDA:
        committee = topk_by_score(profile, rule.vector(profile.m), k)
        return committee, score_committee(profile, rule, committee), "topk"
    if comb(profile.m, k) <= oracle_cap:
        return (*exhaustive_max(profile, rule, k), "exhaustive")
    committee = greedy_max(profile, rule, k)
    return committee, score_committee(profile, rule, committee), "greedy"


def best_unsatisfied_fraction(instance, found):
    """The exact minimum by one ``unsatisfied_fraction`` call per committee
    below the metric cap; above it, the greedy committee that recounts the
    total shortfall of every trial set."""
    if found:
        return Fraction(0), False
    if comb(instance.m, instance.k) <= METRIC_ORACLE_CAP:
        best = min(
            unsatisfied_fraction(instance, combo)
            for combo in itertools.combinations(range(instance.m), instance.k)
        )
        return best, False
    constraints = instance.constraints()
    chosen = set()
    while len(chosen) < instance.k:
        def deficit_after(c):
            trial = chosen | {c}
            return sum(max(0, con.bound - len(trial & con.domain)) for con in constraints)
        candidates = [c for c in range(instance.m) if c not in chosen]
        chosen.add(min(candidates, key=lambda c: (deficit_after(c), instance.profile.priority_key(c))))
    return unsatisfied_fraction(instance, chosen), True

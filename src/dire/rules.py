"""Committee scoring rules: k-Borda, Borda-CC, Monroe.

All scores are exact integers.  k-Borda is separable (committee score =
sum of member scores); the CC and Monroe variants are submodular, so their
winner determination is exact only below the exhaustive-search cap and
falls back to greedy marginal-gain selection above it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from dire.profiles import Committee, PreferenceProfile, break_tie

KBORDA = "kborda"
BETACC = "betacc"
MONROE = "monroe"
RULE_KINDS = (KBORDA, BETACC, MONROE)

# Exhaustive winner determination is used while C(m, k) stays below this.
DEFAULT_ORACLE_CAP = 2_000_000


class RuleError(ValueError):
    pass


class SolverTimeout(Exception):
    """A search ran past its deadline (a ``time.monotonic()`` value)."""


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise SolverTimeout("winner search timed out")


def borda_vector(m: int) -> tuple[int, ...]:
    """The Borda scoring vector (m-1, m-2, ..., 0)."""
    return tuple(m - i for i in range(1, m + 1))


def validate_scoring(scoring: Sequence[int], m: int) -> tuple[int, ...]:
    s = tuple(int(x) for x in scoring)
    if len(s) != m:
        raise RuleError(f"scoring vector length {len(s)} != m={m}")
    if any(x < 0 for x in s):
        raise RuleError("scoring vector entries must be nonnegative")
    if any(s[i] < s[i + 1] for i in range(m - 1)):
        raise RuleError(f"scoring vector must be nonincreasing, got {s}")
    return s


@dataclass(frozen=True)
class Rule:
    """A committee selection rule: one of kborda / betacc / monroe.

    ``scoring`` is the positional scoring vector; ``None`` means the Borda
    vector for the profile at hand.
    """

    kind: str
    scoring: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise RuleError(f"unknown rule kind {self.kind!r}, expected one of {RULE_KINDS}")
        if self.scoring is not None:
            object.__setattr__(self, "scoring", tuple(self.scoring))

    @property
    def separable(self) -> bool:
        return self.kind == KBORDA

    def vector(self, m: int) -> tuple[int, ...]:
        if self.scoring is None:
            return borda_vector(m)
        return validate_scoring(self.scoring, m)


def kborda(scoring: Sequence[int] | None = None) -> Rule:
    return Rule(KBORDA, tuple(scoring) if scoring else None)


def betacc(scoring: Sequence[int] | None = None) -> Rule:
    return Rule(BETACC, tuple(scoring) if scoring else None)


def monroe(scoring: Sequence[int] | None = None) -> Rule:
    return Rule(MONROE, tuple(scoring) if scoring else None)


def candidate_score(
    profile: PreferenceProfile,
    scoring: Sequence[int],
    candidate: int,
    voters: Iterable[int] | None = None,
) -> int:
    """Positional score of one candidate: sum over voters of s[pos_v(c)].

    ``voters`` restricts the sum to a sub-election (used for population
    winning committees); None means all voters.
    """
    s = validate_scoring(scoring, profile.m)
    voter_ids = range(profile.n) if voters is None else voters
    return sum(s[profile._positions[v][candidate] - 1] for v in voter_ids)


def candidate_scores(
    profile: PreferenceProfile,
    scoring: Sequence[int],
    voters: Iterable[int] | None = None,
) -> list[int]:
    """:func:`candidate_score` of every candidate, validating ``scoring`` once."""
    s = validate_scoring(scoring, profile.m)
    voter_ids = range(profile.n) if voters is None else list(voters)
    totals = [0] * profile.m
    for v in voter_ids:
        row = profile._positions[v]
        for c in range(profile.m):
            totals[c] += s[row[c] - 1]
    return totals


def _cc_score(profile, vector, members, voters=None):
    voter_ids = range(profile.n) if voters is None else voters
    total = 0
    for v in voter_ids:
        row = profile._positions[v]
        total += vector[min(row[c] for c in members) - 1]
    return total


def score_committee(
    profile: PreferenceProfile,
    rule: Rule,
    committee: Iterable[int],
    voters: Iterable[int] | None = None,
) -> int:
    """Score of a fixed committee under the given rule.

    k-Borda sums the members' individual scores.  Borda-CC credits each
    voter with the score of their best-ranked member.  Monroe scores the
    greedy balanced assignment of voters to members (see
    :func:`monroe_assign`).

    Partial committees are scored too (greedy selection builds on this);
    the empty committee scores 0 under every rule.
    """
    members = tuple(sorted(set(committee)))
    if not members:
        return 0
    if any(not 0 <= c < profile.m for c in members):
        raise RuleError(f"committee {members} contains out-of-range candidate ids")
    vector = rule.vector(profile.m)
    if rule.kind == KBORDA:
        voter_ids = None if voters is None else list(voters)
        return sum(candidate_score(profile, vector, c, voter_ids) for c in members)
    if rule.kind == BETACC:
        return _cc_score(profile, vector, members, voters)
    _, total = monroe_assign(profile, members, scoring=vector, voters=voters)
    return total


def monroe_assign(
    profile: PreferenceProfile,
    committee: Iterable[int],
    scoring: Sequence[int] | None = None,
    voters: Iterable[int] | None = None,
    exact: bool = False,
) -> tuple[dict[int, int], int]:
    """Assign voters to committee members in balanced loads and sum satisfaction.

    Each member represents floor(n/k) or ceil(n/k) voters.  The default is
    a greedy evaluation heuristic: members are visited in tie-break
    priority order and each claims its load of most-satisfied unassigned
    voters.  ``exact=True`` searches all balanced assignments for the
    optimum (exhaustive; intended for oracle-scale elections only).

    Returns (voter -> member mapping, total satisfaction).
    """
    members = sorted(set(committee), key=profile.priority_key)
    if not members:
        raise RuleError("cannot assign voters to an empty committee")
    vector = borda_vector(profile.m) if scoring is None else validate_scoring(scoring, profile.m)
    voter_ids = list(range(profile.n)) if voters is None else sorted(voters)
    n, k = len(voter_ids), len(members)
    base, extra = divmod(n, k)
    loads = [base + 1 if i < extra else base for i in range(k)]

    sat = {
        (v, c): vector[profile._positions[v][c] - 1] for v in voter_ids for c in members
    }

    if not exact:
        assignment: dict[int, int] = {}
        unassigned = set(voter_ids)
        for member, load in zip(members, loads):
            # most-satisfied first; voter index breaks score ties deterministically
            chosen = sorted(unassigned, key=lambda v: (-sat[(v, member)], v))[:load]
            for v in chosen:
                assignment[v] = member
            unassigned -= set(chosen)
        return assignment, sum(sat[(v, c)] for v, c in assignment.items())

    if n > 12:
        raise RuleError(f"exact Monroe assignment is limited to n <= 12, got n={n}")

    best_total = -1
    best: dict[int, int] = {}

    def recurse(idx, remaining, current, total):
        nonlocal best_total, best
        if idx == k:
            if total > best_total:
                best_total = total
                best = dict(current)
            return
        member, load = members[idx], loads[idx]
        for subset in itertools.combinations(sorted(remaining), load):
            for v in subset:
                current[v] = member
            recurse(idx + 1, remaining - set(subset), current,
                    total + sum(sat[(v, member)] for v in subset))
            for v in subset:
                del current[v]

    recurse(0, set(voter_ids), {}, 0)
    return best, best_total


def _greedy_max(profile, rule, k, voters=None, deadline=None):
    """Greedy marginal-gain committee for submodular rules, ties by priority."""
    chosen: list[int] = []
    for _ in range(k):
        best_gain, best_cands = None, []
        current = score_committee(profile, rule, chosen, voters) if chosen else 0
        for c in range(profile.m):
            if c in chosen:
                continue
            _check_deadline(deadline)
            gain = score_committee(profile, rule, chosen + [c], voters) - current
            if best_gain is None or gain > best_gain:
                best_gain, best_cands = gain, [c]
            elif gain == best_gain:
                best_cands.append(c)
        chosen.append(break_tie(best_cands, profile.priority))
    return Committee(chosen)


def _exhaustive_max(profile, rule, k, voters=None, deadline=None):
    best_score, best = None, None
    for combo in itertools.combinations(range(profile.m), k):
        _check_deadline(deadline)
        score = score_committee(profile, rule, combo, voters)
        if best_score is None or score > best_score:
            best_score, best = score, combo
    return Committee(best), best_score


def _topk_by_score(profile, vector, k, voters=None):
    scores = candidate_scores(profile, vector, voters)
    order = sorted(range(profile.m), key=lambda c: (-scores[c], profile.priority_key(c)))
    return Committee(order[:k])


@dataclass(frozen=True)
class WinnerResult:
    committee: Committee
    score: int
    mode: str  # "topk" | "exhaustive" | "greedy"


def population_winning_committee(
    profile: PreferenceProfile,
    population: Iterable[int],
    rule: Rule,
    k: int,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> Committee:
    """The rule's winning k-committee on the sub-election of one voter population.

    k-Borda takes the top-k candidates by restricted score (candidate ties
    broken by the profile's priority order).  Borda-CC and Monroe maximize
    exhaustively while C(m, k) <= oracle_cap, else greedily.
    """
    voter_ids = sorted(set(population))
    if not voter_ids:
        raise RuleError("population is empty")
    if any(not 0 <= v < profile.n for v in voter_ids):
        raise RuleError("population contains out-of-range voter indices")
    vector = rule.vector(profile.m)
    if rule.kind == KBORDA:
        return _topk_by_score(profile, vector, k, voter_ids)
    if comb(profile.m, k) <= oracle_cap:
        committee, _ = _exhaustive_max(profile, rule, k, voter_ids)
        return committee
    return _greedy_max(profile, rule, k, voter_ids)


def unconstrained_winner(
    profile: PreferenceProfile,
    rule: Rule,
    k: int,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    deadline: float | None = None,
) -> WinnerResult:
    """Score-maximizing k-committee with no constraints.

    Exact for k-Borda (top-k by score).  For Borda-CC and Monroe the search
    is exhaustive up to the cap, greedy beyond it; the mode used is
    recorded in the result.  Either search raises :class:`SolverTimeout`
    once ``deadline`` (a ``time.monotonic()`` value) has passed.
    """
    if not 1 <= k <= profile.m:
        raise RuleError(f"committee size {k} out of range [1, {profile.m}]")
    vector = rule.vector(profile.m)
    if rule.kind == KBORDA:
        committee = _topk_by_score(profile, vector, k)
        return WinnerResult(committee, score_committee(profile, rule, committee), "topk")
    if comb(profile.m, k) <= oracle_cap:
        committee, score = _exhaustive_max(profile, rule, k, deadline=deadline)
        return WinnerResult(committee, score, "exhaustive")
    committee = _greedy_max(profile, rule, k, deadline=deadline)
    return WinnerResult(committee, score_committee(profile, rule, committee), "greedy")

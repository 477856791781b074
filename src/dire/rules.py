"""Committee scoring rules: k-Borda, Borda-CC, Monroe.

All scores are exact integers.  k-Borda is separable (committee score =
sum of member scores).  Borda-CC is monotone submodular; the greedy
balanced-assignment Monroe score is not submodular in the committee, as
every member's load shrinks when the committee grows.  Winner
determination for both is certified optimal up to the exhaustive-search
cap, by a branch-and-bound that returns what scoring every committee
would, ties included (see :func:`_certified_max` for its three bounds and
why they keep the tie-break).  Monroe's bound is load-aware: the greedy
balanced assignment gives ceil(n/k) voters only to the n mod k members
earliest in priority order and floor(n/k) to the others, and a member
serving l voters takes at most its l best entries, so a committee scores at
most its members' floor(n/k)-entry sums plus, over those earliest members,
what their ceil(n/k)-entry sums add; a member after the prefix of a branch
can be one of them only if fewer than n mod k members of the prefix precede
it, and one after every member of a shorter prefix in priority order only
takes one of the places that prefix leaves open.  Above the cap it is
greedy marginal-gain selection: lazy for Borda-CC; for Monroe each step
bounds every candidate's trial score from above and scores exactly only
the trials whose bound can still beat the best found (see
:func:`_greedy_max` for the bound and why it holds).

Every score is read off a :class:`SatisfactionTable` for one (profile,
rule vector, voter list): one row per candidate holding
``vector[pos_v(c) - 1]`` for each voter, the row totals (a candidate's
positional score, which is all k-Borda needs) and, for Monroe, each
candidate's voters sorted by (satisfaction descending, voter id) when it
first claims voters, and the prefix sums of its entries sorted by value,
which bound what it can take from a given number of voters.  The entries
come from the profile's per-vector matrix
(:meth:`~dire.profiles.PreferenceProfile.satisfaction`), built once per
(profile, vector); a table is the transpose of that matrix's rows for its
voters, so every table of one profile and vector shares the same entries.
A winner search or a scoring loop builds one table and scores every
committee it tries through it; :func:`score_committee` and
:func:`monroe_assign` build a table for their one committee.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import time
from dataclasses import dataclass
from functools import cached_property
from math import comb, inf
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from dire.profiles import Committee, PreferenceProfile

if TYPE_CHECKING:
    from dire.solver import _SearchState

KBORDA = "kborda"
BETACC = "betacc"
MONROE = "monroe"
RULE_KINDS = (KBORDA, BETACC, MONROE)

# Borda-CC and Monroe winners are certified by branch-and-bound while C(m, k)
# is at most this, and greedy above it; the brute-force oracle refuses more.
DEFAULT_ORACLE_CAP = 2_000_000


class RuleError(ValueError):
    pass


class SolverTimeout(Exception):
    """A search ran past its deadline (a ``time.monotonic()`` value).

    :func:`_certified_max` sets ``incumbent`` to the (members, score) it
    held when the deadline passed.
    """


def borda_vector(m: int) -> tuple[int, ...]:
    """The Borda scoring vector (m-1, m-2, ..., 0)."""
    return tuple(range(m - 1, -1, -1))


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
            scoring = tuple(self.scoring)
            if not scoring:
                raise RuleError("scoring vector is empty")
            # its entries; vector(m) checks the length
            object.__setattr__(self, "scoring", validate_scoring(scoring, len(scoring)))

    @property
    def separable(self) -> bool:
        return self.kind == KBORDA

    def vector(self, m: int) -> tuple[int, ...]:
        if self.scoring is None:
            return borda_vector(m)
        if len(self.scoring) != m:
            raise RuleError(f"scoring vector length {len(self.scoring)} != m={m}")
        return self.scoring


def kborda(scoring: Sequence[int] | None = None) -> Rule:
    return Rule(KBORDA, scoring)


def betacc(scoring: Sequence[int] | None = None) -> Rule:
    return Rule(BETACC, scoring)


def monroe(scoring: Sequence[int] | None = None) -> Rule:
    return Rule(MONROE, scoring)


class SatisfactionTable:
    """Per-candidate satisfaction of one (profile, rule vector, voter list).

    ``voters`` defaults to every voter and is kept sorted; a repeated id
    counts once per occurrence in the sums and once in a Monroe
    assignment.  ``rows[c][i]`` is the vector entry at candidate c's
    position for the i-th voter, a tuple read off the profile's matrix
    for the vector (the rows of ``voters``, transposed), and ``totals[c]``
    the row sum.  The rule's vector and the voter ids are validated once,
    here, for every entry point that scores.  ``score`` takes distinct
    candidate ids in any order and trusts them to be in range.
    """

    def __init__(self, profile: PreferenceProfile, rule: Rule, voters: Iterable[int] | None = None):
        full = profile.satisfaction(rule.vector(profile.m))
        self.profile = profile
        self.kind = rule.kind
        self.voters = list(range(profile.n)) if voters is None else sorted(voters)
        if self.voters and not (0 <= self.voters[0] and self.voters[-1] < profile.n):
            raise RuleError("voter list contains out-of-range voter indices")
        picked = full if voters is None else list(map(full.__getitem__, self.voters))
        # the transpose: one row per candidate; no voters leave m empty rows
        self.rows = list(zip(*picked)) if picked else [()] * profile.m
        self.totals = list(map(sum, self.rows))
        self._prefix: Sequence[int] = ()
        if self.kind == MONROE:
            # a repeated voter id is one voter; the sorted list keeps repeats adjacent
            voters = self.voters
            self.unique = [i for i in range(len(voters)) if not i or voters[i] != voters[i - 1]]
            self.orders: list[list[int] | None] = [None] * profile.m  # sorted on first use

    def _order(self, c: int) -> list[int]:
        """Monroe: candidate c's distinct voters by (satisfaction
        descending, voter id), sorted on first use."""
        order = self.orders[c]
        if order is None:
            # stable sort: equal satisfaction keeps ascending voter order
            order = self.orders[c] = sorted(self.unique, key=self.rows[c].__getitem__, reverse=True)
        return order

    @cached_property
    def best_sums(self) -> list[list[int]]:
        """Monroe: ``best_sums[c][l]``, for l in 0..n, is the sum of
        candidate c's l largest entries over distinct voters, the most a
        member c serving l voters can take."""
        unique, repeats = self.unique, [0] * (len(self.voters) - len(self.unique))
        return [list(itertools.accumulate(
                    [*sorted(map(row.__getitem__, unique) if repeats else row, reverse=True), *repeats],
                    initial=0))
                for row in self.rows]

    def score(self, members: Sequence[int]) -> int:
        """The rule's score of a committee; the empty committee scores 0."""
        if self.kind == MONROE:
            return self.assign(members)[1] if members else 0
        if self.kind == KBORDA or len(members) < 2:
            return sum(map(self.totals.__getitem__, members))
        # A voter's best-ranked member has the highest entry, as the vector
        # is nonincreasing.  Winner searches score runs of committees that
        # share all but the last member, so the per-voter best of that prefix
        # is kept from one call to the next.
        rows, prefix = self.rows, members[:-1]
        if prefix != self._prefix:
            self._prefix = prefix
            self._prefix_best = list(map(max, *map(rows.__getitem__, prefix))) if len(prefix) > 1 \
                else rows[prefix[0]]
        return sum([a if a > b else b for a, b in zip(self._prefix_best, rows[members[-1]])])

    def assign(self, members: Sequence[int]) -> tuple[list[int | None], int]:
        """Greedy balanced Monroe assignment (see :func:`monroe_assign`):
        the member of each voter in ``voters`` (None if unassigned) and the
        total satisfaction."""
        members = sorted(members, key=self.profile._priority_rank.__getitem__)
        owner: list[int | None] = [None] * len(self.voters)
        return owner, self._claim(owner, 0, members, _monroe_loads(len(owner), len(members)))

    def _claim(self, owner: list[int | None], total: int, members: Iterable[int], loads: Iterable[int]) -> int:
        """Let each member in turn claim its load of the most satisfied
        voters that ``owner`` leaves unassigned; returns ``total`` plus
        their satisfaction.  ``assign`` runs it from the empty assignment,
        greedy Monroe from the assignment of a committee's first members."""
        rows, orders = self.rows, self.orders
        for member, load in zip(members, loads):
            if not load:
                break  # loads never increase
            row, order = rows[member], orders[member] or self._order(member)
            for i in order:
                if owner[i] is None:
                    owner[i] = member
                    total += row[i]
                    load -= 1
                    if not load:
                        break
        return total


def _monroe_loads(n: int, k: int) -> Iterator[int]:
    """floor(n/k) or ceil(n/k) voters per member, the larger loads first."""
    base, extra = divmod(n, k)
    return itertools.chain(itertools.repeat(base + 1, extra), itertools.repeat(base, k - extra))


def _check_candidates(profile: PreferenceProfile, members: Sequence[int]) -> None:
    """Raise unless every id of the sorted, nonempty ``members`` is in [0, m)."""
    if not (0 <= members[0] and members[-1] < profile.m):
        raise RuleError(f"out-of-range candidate ids in {tuple(members)}, expected [0, {profile.m})")


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
    _check_candidates(profile, [candidate])
    return SatisfactionTable(profile, Rule(KBORDA, scoring), voters).totals[candidate]


def candidate_scores(
    profile: PreferenceProfile,
    scoring: Sequence[int],
    voters: Iterable[int] | None = None,
) -> list[int]:
    """:func:`candidate_score` of every candidate, validating ``scoring`` once."""
    return SatisfactionTable(profile, Rule(KBORDA, scoring), voters).totals


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
    _check_candidates(profile, members)
    return SatisfactionTable(profile, rule, voters).score(members)


def monroe_assign(
    profile: PreferenceProfile,
    committee: Iterable[int],
    scoring: Sequence[int] | None = None,
    voters: Iterable[int] | None = None,
) -> tuple[dict[int, int], int]:
    """Assign voters to committee members in balanced loads and sum satisfaction.

    Each member represents floor(n/k) or ceil(n/k) voters.  This is a
    greedy evaluation heuristic: members are visited in tie-break priority
    order and each claims its load of most-satisfied unassigned voters.

    Returns (voter -> member mapping, total satisfaction).
    """
    members = sorted(set(committee))
    if not members:
        raise RuleError("cannot assign voters to an empty committee")
    _check_candidates(profile, members)
    table = SatisfactionTable(profile, Rule(MONROE, scoring), voters)
    owner, total = table.assign(members)
    return {v: c for v, c in zip(table.voters, owner) if c is not None}, total


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise SolverTimeout("winner search timed out")


def _monroe_baselines(
    table: SatisfactionTable, members: Sequence[int], loads: Sequence[int]
) -> list[tuple[list[int | None], int, int]]:
    """For t in 0..len(members), with ``members`` in priority order and
    ``loads`` those of one member more: the assignment P_t of members[:t]
    at loads[:t], its total, and the baseline B_t, that total plus what
    members[t:] then claim at loads[t + 1:]."""
    starts, owner, total = [], [None] * len(table.voters), 0
    for t in range(len(members) + 1):
        if t:
            total = table._claim(owner, total, members[t - 1:t], loads[t - 1:t])
        starts.append((owner[:], total, table._claim(owner[:], total, members[t:], loads[t + 1:])))
    return starts


def _greedy_max(table: SatisfactionTable, k: int, deadline: float | None = None) -> Committee:
    """Greedy Borda-CC or Monroe committee: k times, add the candidate of
    largest marginal gain, ties to the earliest in priority order.  Raises
    :class:`SolverTimeout` once ``deadline`` has passed.

    Each step evaluates only what it changes.  Borda-CC is monotone
    submodular, so a gain found at an earlier step bounds the gain now:
    candidates wait in a heap under their last gain, and only the top is
    recomputed, against each voter's best entry so far, until a fresh gain
    stays on top (lazy greedy; Minoux 1978).  The greedy balanced Monroe
    score is not submodular, because the loads shrink as the committee
    grows, so each step bounds every candidate afresh instead.  With M the
    members so far in priority order, L the loads of |M| + 1 members, and
    t the number of members before candidate c in priority order, the
    trial M + c resumes from the assignment P_t of M[:t] at L[:t]: c claims
    L[t] voters, then M[t:] claim L[t + 1:].  The baseline B_t lets M[t:]
    claim L[t + 1:] from P_t without c.  c takes at most its L[t] largest
    entries, and the voters it takes only shrink the free set every later
    member picks from, so by induction each later member's free set lies
    inside its baseline one and its i-th pick is worth no more than there.
    Hence score(M + c) <= B_t + (the sum of c's L[t] largest entries).
    Candidates are tried exactly in ascending (-bound, priority rank) until
    that key passes the best (-score, priority rank) found, which then no
    later candidate can beat: the pick is that of scoring every candidate.
    """
    rank, priority, n = table.profile._priority_rank, table.profile.priority, len(table.voters)

    def monroe_pick(members):
        """The candidate c outside ``members`` (in priority order) whose
        trial members + [c] scores highest, ties to the earliest in
        priority order."""
        loads = list(_monroe_loads(n, len(members) + 1))
        starts = _monroe_baselines(table, members, loads)
        chosen, best_sums, bounds, t = set(members), table.best_sums, [], 0
        for r, c in enumerate(priority):
            if c in chosen:
                t += 1
                continue
            _check_deadline(deadline)
            bounds.append((-starts[t][2] - best_sums[c][loads[t]], r, c, t))
        top = (inf,)  # (-score, priority rank, c) of the best trial so far
        for bound, r, c, t in sorted(bounds):
            if (bound, r) > top:
                break
            _check_deadline(deadline)
            owner, total, _ = starts[t]
            top = min(top, (-table._claim(owner[:], total, (c, *members[t:]), loads[t:]), r, c))
        return top[2]

    members: list[int] = []  # the committee so far, in priority order
    if table.kind != MONROE:
        heap = [(-gain, rank[c], c) for c, gain in enumerate(table.totals)]  # the gains of step 1
        heapq.heapify(heap)
        best = [0] * n  # each voter's best entry among the members
    for _ in range(k):
        if table.kind == MONROE:
            pick = monroe_pick(members)
        else:
            while True:
                _check_deadline(deadline)
                _, r, pick = heapq.heappop(heap)
                row = table.rows[pick]
                fresh = (-sum([a - b for a, b in zip(row, best) if a > b]), r, pick)
                if not heap or fresh <= heap[0]:
                    break
                heapq.heappush(heap, fresh)
            best = [a if a > b else b for a, b in zip(row, best)]
        bisect.insort(members, pick, key=rank.__getitem__)
    return Committee(members)


def _ranked(scores: Sequence[int], priority_key: Callable[[int], int]) -> list[int]:
    """Every candidate, best first: descending score, ties by priority."""
    return sorted(range(len(scores)), key=lambda c: (-scores[c], priority_key(c)))


def _best_of(
    table: SatisfactionTable, committees: Iterable[tuple[int, ...]], deadline: float | None = None
) -> tuple[tuple[int, ...] | None, int | None, int, bool]:
    """The highest-scoring committee, ties to the lexicographically least
    member tuple.

    Once ``deadline`` has passed, stops after at least one committee.
    Returns (members, score, committees scored, whether all were scored);
    members and score are None when there is no committee.
    """
    best, best_score, scored = None, None, 0
    for members in committees:
        if scored and deadline is not None and time.monotonic() > deadline:
            return best, best_score, scored, False
        score = table.score(members)
        scored += 1
        if best_score is None or score > best_score or (score == best_score and members < best):
            best, best_score = members, score
    return best, best_score, scored, True


def _top_sums(values: Sequence[int], r: int) -> list[int]:
    """``sums[j]``: the sum of the r largest of ``values[j + 1:]``."""
    sums, heap, total = [0] * len(values), [], 0
    if not r:
        return sums
    for j in range(len(values) - 1, 0, -1):
        value = values[j]
        if len(heap) < r:
            heapq.heappush(heap, value)
            total += value
        elif value > heap[0]:
            total += value - heapq.heapreplace(heap, value)
        sums[j - 1] = total
    return sums


def _depth_first(expand: Callable[..., Iterator[tuple]], *root) -> None:
    """Run a depth-first search whose nodes are generators: ``expand(*args)``
    yields the arguments of each child to search in turn, and resumes once
    that child's subtree is done.  The stack is explicit, as the depth (the
    seats of a committee) can exceed the recursion limit."""
    stack = [expand(*root)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(expand(*child))


class _LoadCaps:
    """Bound (c) of :func:`_certified_max`, the most a Monroe committee can
    take at its members' loads.  With e = n mod k, the greedy balanced
    assignment gives ceil(n/k) voters to the e members earliest in priority
    order and floor(n/k) to the others, and a member x serving l voters
    takes at most ``best_sums[x][l]``: ``hi[x]`` at ceil(n/k), ``lo[x]`` at
    floor(n/k) (``hi`` is ``lo`` when e = 0).

    A prefix P of the search carries a state (cap, early): ``early`` holds
    the priority ranks of P's e earliest members in ascending order, padded
    with m while P has fewer, and cap is the sum over P of ``lo`` plus
    ``hi - lo`` over those members.  A member of P that is not among them
    is not among the e earliest of any completion either, so cap bounds
    what P's members take in every committee that holds P.  The lists of
    :meth:`children` depend on P only through ``early[-1]`` and the seats
    left, and are built once per search for each such pair.
    """

    def __init__(self, table: SatisfactionTable, k: int):
        n, m, best_sums = len(table.voters), table.profile.m, table.best_sums
        self.k, self.extra = k, n % k
        self.lo = [sums[n // k] for sums in best_sums]
        self.hi = [sums[n // k + 1] for sums in best_sums] if self.extra else self.lo
        self.root = (0, (m,) * self.extra)
        self.rank = table.profile._priority_rank
        # hi - lo by priority rank; rank m, the padding of early, is no member
        self.gaps = [self.hi[x] - self.lo[x] for x in table.profile.priority] + [0]
        self.lists: dict[int, tuple[list[int], list[int], dict[int, list[int]]]] = {}

    def step(self, state: tuple[int, tuple[int, ...]], c: int) -> tuple[int, tuple[int, ...]]:
        """The state of P + c from the state of P, for c after P's ids."""
        cap, early = state
        if early and self.rank[c] < early[-1]:  # c is among the e earliest; early[-1] leaves them
            return cap + self.hi[c] - self.gaps[early[-1]], tuple(sorted((*early[:-1], self.rank[c])))
        return cap + self.lo[c], early

    def children(self, early: tuple[int, ...], seats: int) -> tuple[list[int], list[int]]:
        """``(own, rest)`` by id for the children c of a prefix P in state
        (cap, ``early``) with ``seats`` seats left: cap + ``own[c]`` is the
        cap of P + c, and ``rest[c]`` bounds what the seats - 1 members of a
        completion from the ids after c add.  A later member y is among the
        e earliest of such a committee only if fewer than e members of P
        precede it, that is when it precedes ``early[-1]``, and it then
        takes at most ``hi[y]``, else ``lo[y]``.  ``rest[c]`` reads only the
        ids after c, so one pair of lists serves every node with the same
        ``early[-1]`` and seats."""
        m = len(self.lo)
        last = early[-1] if early else m
        if last not in self.lists:
            if last == m:  # P has fewer than e members, or e = 0: every id takes hi, none drops
                own = most = self.hi
            else:
                rank = self.rank
                most = [h if r < last else x for h, x, r in zip(self.hi, self.lo, rank)]
                drop = self.gaps[last]  # what early[-1] gives back to a child before it
                own = [x - drop if r < last else x for x, r in zip(most, rank)]
            self.lists[last] = own, most, {}
        own, most, rests = self.lists[last]
        rest = rests.get(seats)
        if rest is None:
            rest = rests[seats] = _top_sums(most, seats - 1)
        return own, rest

    def open_slots(self, prefix: Sequence[int], c: int) -> int:
        """For a prefix P (``prefix``) with fewer than e members and its
        child c: a second bound on what the members of a completion from
        the ids after c add.  Every member of P + c is among the e earliest
        of P + c, which leaves e - |P| - 1 of the ceil(n/k) loads open.  A
        later member y after every member of P + c in priority order takes
        one only while one is open, so at most that many such members take
        more than ``lo[y]``, and each at most ``hi[y] - lo[y]`` more.  A
        later member before some member of P + c may push that member out
        of the e earliest; it is credited ``hi[y]`` as in ``rest``."""
        rank, hi, lo, size = self.rank, self.hi, self.lo, len(prefix)
        last = max(map(rank.__getitem__, (*prefix, c)))
        later = range(c + 1, len(lo))
        most = sorted([hi[y] if rank[y] < last else lo[y] for y in later], reverse=True)
        gaps = sorted([self.gaps[rank[y]] for y in later if rank[y] > last], reverse=True)
        return sum(most[:self.k - size - 1]) + sum(gaps[:self.extra - size - 1])


def _certified_max(
    table: SatisfactionTable,
    k: int,
    deadline: float | None = None,
    lookahead: _SearchState | None = None,
    threshold: int | None = None,
) -> tuple[tuple[int, ...], int]:
    """The highest-scoring k-committee and its score, ties to the
    lexicographically least member tuple (the first best of
    ``itertools.combinations(range(m), k)``), certified by a depth-first
    branch-and-bound.  Raises :class:`SolverTimeout` once ``deadline`` has
    passed, with the best committee found so far as its ``incumbent``.

    A node is a prefix P of ascending ids; its children add each later id c
    in ascending order, so every leaf not reached yet is lexicographically
    greater than the incumbent, and a child is cut when an upper bound on
    every completion of P + c is ``<= best``: no such leaf can take the
    incumbent's place.  The incumbent starts as a threshold only, one below
    the greedy committee's score (which the optimum reaches), so the
    tie-break is unchanged; a caller's ``threshold`` replaces it and must
    lie below the optimum for the tie-break to hold (``((), threshold)``
    comes back when no committee beats it).  The bounds,
    with R the ids after c, r the seats left after c and gains taken
    against P:

    (a) score(P) + gain(c) + the r largest gains over R.  Gains against P
        bound gains against any superset, as k-Borda is modular and
        Borda-CC monotone submodular.
    (b) Borda-CC and Monroe: the sum over voters of the best entry among P,
        c and R, read off suffix maxima.  No completion gives a voter more.
    (c) Monroe, with e = n mod k and lo[x], hi[x] the sums of member x's
        floor(n/k) and ceil(n/k) best entries over distinct voters:
        cap(P + c), the sum of lo over P + c plus hi - lo over its e
        members earliest in priority order, plus the r largest over y in R
        of hi[y] if fewer than e members of P precede y in priority order,
        else lo[y].  The greedy balanced assignment gives ceil(n/k) voters
        to the e earliest members of the committee and floor(n/k) to the
        others, and a member serving l voters takes at most its l best
        entries, so the committee scores at most the sum of lo over its
        members plus hi - lo over its e earliest.  A member of P + c among
        those is among the e earliest of P + c, and a member y of R only
        if fewer than e members of P precede it.  No term exceeds hi, the
        ceil(n/k) best entries a member takes at most whatever its load.
        While P has fewer than e members, every member of P + c is among
        the e earliest, so a member y of R after every member of P + c in
        priority order is among them only while one of the e - |P| - 1
        other places is open: the r largest over R of hi[y] if y precedes
        some member of P + c, else lo[y], plus the e - |P| - 1 largest
        hi - lo over the members of R after all of P + c, bounds what R
        adds too, and (c) takes the lesser of the two.
        :class:`_LoadCaps` carries cap and P's e earliest down the branch,
        and builds the per-child lists once per search; with e = 0 the
        bound is the sum of every member's n/k best entries.

    A greedy balanced assignment gives each voter at most its best member's
    entry, so Monroe scores are bounded by Borda-CC ones and (a) and (b)
    hold for Monroe too.  Leaves cost no table call under k-Borda and
    Borda-CC (their score is the bound (a) with r = 0); Monroe leaves are
    scored only when every bound passes.  A Monroe node runs (a)'s pass
    over the gains of its later ids only once a child passes (c); other
    nodes run it first.

    ``lookahead`` is the feasibility search's state over the instance's
    constraint graph, with nothing chosen or blocked; it restricts the
    search to the committees that meet every bound.  Each node blocks the
    ids it passes over, as no committee below its later children holds
    them, and unblocks them on return; a child is cut when
    :meth:`~dire.solver._SearchState.scan` fails on P + c, which happens
    only when no completion meets every bound, and at a leaf exactly when
    the leaf misses one.
    """
    rows, totals, m, kind = table.rows, table.totals, table.profile.m, table.kind
    if not k:
        return (), 0
    n = len(table.voters)
    suffix = [[0] * n] * (m + 1)  # suffix[c][i]: the best entry of voter i among ids >= c
    for c in range(m - 1, -1, -1):
        suffix[c] = [a if a > b else b for a, b in zip(rows[c], suffix[c + 1])]
    if kind == MONROE:
        loads = _LoadCaps(table, k)
    if threshold is None:
        threshold = table.score(_greedy_max(table, k, deadline).members) - 1
    best_score, best_members = threshold, ()
    members: list[int] = []

    def gain_pass(start, seats, best):
        """Bound (a)'s gains of the ids >= ``start`` against the prefix whose
        per-voter best entries are ``best``, and the sums of the seats - 1
        largest of those after each."""
        gains = totals[start:] if kind == KBORDA else \
            [sum([a - b for a, b in zip(rows[c], best) if a > b]) for c in range(start, m)]
        return gains, _top_sums(gains, seats - 1)

    def search(start, seats, best, score, load):
        """Children of the prefix ``members``, whose per-voter best entries,
        score and Monroe (c) state (else None) are given, with ``seats``
        seats left to fill from ids >= ``start``, as a node of
        :func:`_depth_first`."""
        nonlocal best_score, best_members
        _check_deadline(deadline)
        capped = kind == MONROE  # bound (c) applies
        if capped:
            cap, early = load
            own, rest = loads.children(early, seats)
            slots_open = len(members) < loads.extra
            gains = None  # (a)'s pass waits for a child that passes (c)
        else:
            gains, after = gain_pass(start, seats, best)
        for c in range(start, m - seats + 1):
            if lookahead is not None:
                lookahead.block(c)  # chosen now, or passed over: no later child's committee holds it
            if capped:
                held = cap + own[c]
                if held + rest[c] <= best_score or \
                        slots_open and held + loads.open_slots(members, c) <= best_score:  # (c)
                    continue
                if gains is None:
                    gains, after = gain_pass(start, seats, best)
            gain = gains[c - start]
            if score + gain + after[c - start] <= best_score:  # (a)
                continue
            # (b) for c bounds every later child too: their pools lie inside c's
            if seats > 1 and kind != KBORDA and \
                    sum([a if a > b else b for a, b in zip(best, suffix[c])]) <= best_score:
                break
            if lookahead is not None:
                lookahead.add(c)
                if lookahead.scan() is None:  # no completion of P + c meets every bound
                    lookahead.remove()
                    continue
            if seats > 1:
                members.append(c)
                yield (c + 1, seats - 1, [a if a > b else b for a, b in zip(rows[c], best)],
                       score + gain, loads.step(load, c) if capped else None)
                members.pop()
            else:
                if capped:
                    _check_deadline(deadline)
                    leaf = table.score((*members, c))
                else:
                    leaf = score + gain
                if leaf > best_score:
                    best_members, best_score = (*members, c), leaf
            if lookahead is not None:
                lookahead.remove()
        if lookahead is not None:
            for passed in range(start, c + 1):
                lookahead.unblock(passed)

    try:
        _depth_first(search, 0, k, [0] * n, 0, loads.root if kind == MONROE else None)
    except SolverTimeout as timeout:
        timeout.incumbent = best_members, best_score
        raise
    return best_members, best_score


@dataclass(frozen=True)
class WinnerResult:
    committee: Committee
    score: int
    mode: str  # "topk" | "exhaustive" | "greedy"


def _winner(
    table: SatisfactionTable, k: int, deadline: float | None, oracle_cap: int
) -> tuple[Committee, int | None, str]:
    """The rule's winning k-committee on one table, its score when the
    search computed it, and the mode: top-k by score for k-Borda, else
    "exhaustive" while C(m, k) <= oracle_cap, where the branch-and-bound of
    :func:`_certified_max` returns what scoring all C(m, k) committees
    would, else greedy.  Both searches raise :class:`SolverTimeout` past
    ``deadline``."""
    m = table.profile.m
    if table.kind == KBORDA:
        return Committee(_ranked(table.totals, table.profile.priority_key)[:k]), None, "topk"
    if comb(m, k) <= oracle_cap:
        members, score = _certified_max(table, k, deadline)
        return Committee(members), score, "exhaustive"
    return _greedy_max(table, k, deadline), None, "greedy"


def population_winning_committee(
    profile: PreferenceProfile,
    population: Iterable[int],
    rule: Rule,
    k: int,
) -> Committee:
    """The rule's winning k-committee on the sub-election of one voter population.

    k-Borda takes the top-k candidates by restricted score (candidate ties
    broken by the profile's priority order).  Borda-CC and Monroe winners
    are certified optimal by branch-and-bound while C(m, k) <=
    ``DEFAULT_ORACLE_CAP`` (the highest score, ties to the lexicographically
    least member tuple), else greedy.
    """
    if not 1 <= k <= profile.m:
        raise RuleError(f"committee size {k} out of range [1, {profile.m}]")
    voter_ids = sorted(set(population))
    if not voter_ids:
        raise RuleError("population is empty")
    return _winner(SatisfactionTable(profile, rule, voter_ids), k, None, DEFAULT_ORACLE_CAP)[0]


def unconstrained_winner(
    profile: PreferenceProfile,
    rule: Rule,
    k: int,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    deadline: float | None = None,
) -> WinnerResult:
    """Score-maximizing k-committee with no constraints.

    Exact for k-Borda (top-k by score).  For Borda-CC and Monroe the winner
    is certified optimal by branch-and-bound up to the cap (mode
    "exhaustive": the committee and score of scoring every committee, ties
    to the lexicographically least member tuple) and greedy beyond it; the
    mode used is recorded in the result.  Either search raises
    :class:`SolverTimeout` once ``deadline`` (a ``time.monotonic()`` value)
    has passed.
    """
    if not 1 <= k <= profile.m:
        raise RuleError(f"committee size {k} out of range [1, {profile.m}]")
    # the search's table is freed when it returns
    committee, score, mode = _winner(SatisfactionTable(profile, rule), k, deadline, oracle_cap)
    if score is None:
        score = score_committee(profile, rule, committee)
    return WinnerResult(committee, score, mode)

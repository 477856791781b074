"""Independent references for the benchmark: scorers, brute force, vertex cover.

Nothing here imports ``dire``.  The scorers re-derive the rules from the
rankings alone: satisfaction is the Borda value m-1-rank, k-Borda sums it
over members, Borda-CC credits each voter with their best member, and
Monroe uses today's greedy balanced assignment (members in tie-break
order, each claiming its load of most-satisfied unassigned voters).
Winning committees follow the same exact-below-cap / greedy-above-cap
split as the program, so the references pin those semantics too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from array import array
from math import comb

KBORDA, BETACC, MONROE = "kborda", "betacc", "monroe"
RULES = (KBORDA, BETACC, MONROE)

# Exhaustive winner determination below this many committees, as in the program.
EXHAUSTIVE_CAP = 2_000_000


class Election:
    """Satisfaction table of one profile: sat[v][c] = m - 1 - rank of c for v."""

    def __init__(self, m: int, rankings, priority=None):
        self.m = m
        self.n = len(rankings)
        self.sat = []
        for ranking in rankings:
            row = [0] * m
            for rank, cand in enumerate(ranking):
                row[cand] = m - 1 - rank
            self.sat.append(row)
        self.priority = list(priority) if priority else list(range(m))
        self.prank = [0] * m
        for idx, cand in enumerate(self.priority):
            self.prank[cand] = idx

    def voters(self, voters=None):
        return range(self.n) if voters is None else sorted(voters)

    def borda(self, cand: int, voters=None) -> int:
        return sum(self.sat[v][cand] for v in self.voters(voters))

    def score(self, rule: str, members, voters=None) -> int:
        members = sorted(set(members))
        if not members:
            return 0
        voter_ids = self.voters(voters)
        if rule == KBORDA:
            return sum(self.sat[v][c] for c in members for v in voter_ids)
        if rule == BETACC:
            return sum(max(self.sat[v][c] for c in members) for v in voter_ids)
        if rule == MONROE:
            return self._monroe(members, voter_ids)
        raise ValueError(f"unknown rule {rule!r}")

    def _monroe(self, members, voter_ids) -> int:
        order = sorted(members, key=lambda c: self.prank[c])
        base, extra = divmod(len(voter_ids), len(order))
        free = list(voter_ids)
        total = 0
        for idx, member in enumerate(order):
            load = base + 1 if idx < extra else base
            free.sort(key=lambda v: (-self.sat[v][member], v))
            total += sum(self.sat[v][member] for v in free[:load])
            free = free[load:]
        return total

    def top_k(self, k: int, voters=None) -> tuple[int, ...]:
        scores = [self.borda(c, voters) for c in range(self.m)]
        order = sorted(range(self.m), key=lambda c: (-scores[c], self.prank[c]))
        return tuple(sorted(order[:k]))

    def exhaustive(self, rule: str, k: int, voters=None) -> tuple[tuple[int, ...], int]:
        """First committee in lexicographic order with the maximum score."""
        best, best_score = None, None
        for combo in itertools.combinations(range(self.m), k):
            score = self.score(rule, combo, voters)
            if best_score is None or score > best_score:
                best, best_score = combo, score
        return best, best_score

    def greedy(self, rule: str, k: int, voters=None) -> tuple[int, ...]:
        """Marginal-gain committee; equal gains go to the earliest in priority."""
        chosen: list[int] = []
        for _ in range(k):
            current = self.score(rule, chosen, voters)
            best_gain, best_cand = None, None
            for c in range(self.m):
                if c in chosen:
                    continue
                gain = self.score(rule, chosen + [c], voters) - current
                if best_gain is None or gain > best_gain or (
                    gain == best_gain and self.prank[c] < self.prank[best_cand]
                ):
                    best_gain, best_cand = gain, c
            chosen.append(best_cand)
        return tuple(sorted(chosen))

    def winner(self, rule: str, k: int, voters=None) -> tuple[tuple[int, ...], int]:
        """The rule's k-committee on a (sub-)election, with its score."""
        if rule == KBORDA:
            committee = self.top_k(k, voters)
        elif comb(self.m, k) <= EXHAUSTIVE_CAP:
            return self.exhaustive(rule, k, voters)
        else:
            committee = self.greedy(rule, k, voters)
        return committee, self.score(rule, committee, voters)


def violations(committee, constraints) -> int:
    """Number of (domain, bound) constraints the committee leaves unmet."""
    members = set(committee)
    return sum(1 for domain, bound in constraints if len(members & set(domain)) < bound)


def brute_force(election: Election, rule: str, k: int, constraints) -> dict:
    """Exact answers over all C(m, k) committees.

    Returns the feasibility verdict, the best feasible score and the
    lexicographically least committee attaining it, and the smallest
    number of unmet constraints.
    """
    best, best_score, least_unmet = None, None, len(constraints)
    for combo in itertools.combinations(range(election.m), k):
        unmet = violations(combo, constraints)
        least_unmet = min(least_unmet, unmet)
        if unmet:
            continue
        score = election.score(rule, combo)
        if best_score is None or score > best_score:
            best, best_score = combo, score
    return {
        "feasible": best is not None,
        "committee": list(best) if best else None,
        "score": best_score,
        "min_unmet": least_unmet,
    }


def has_cover(vertices: int, edges, size: int) -> bool:
    for subset in itertools.combinations(range(vertices), size):
        chosen = set(subset)
        if all(u in chosen or v in chosen for u, v in edges):
            return True
    return False


def min_cover(vertices: int, edges) -> int:
    """Size of a minimum vertex cover, by increasing subset size."""
    return next(size for size in range(vertices + 1) if has_cover(vertices, edges, size))


def vc_rep_max_hit(vertices: int, edges, k: int) -> int:
    """Most edge populations a k-committee can hit in the representation reduction.

    A vertex hits every population of its edges; a private dummy hits only
    its own edge's population, so leftover seats each hit one more edge.
    """
    best = 0
    for size in range(min(k, vertices) + 1):
        for subset in itertools.combinations(range(vertices), size):
            chosen = set(subset)
            hit = sum(1 for u, v in edges if u in chosen or v in chosen)
            best = max(best, hit + min(k - size, len(edges) - hit))
    return best


def vc_rep_domains(vertices: int, edges, k: int) -> list[tuple[int, ...]]:
    """Winning committee of each edge population: both endpoints, then the
    edge's private dummies, cut to k members."""
    return [
        tuple(([u, v] + list(range(vertices + a * vertices, vertices + (a + 1) * vertices)))[:k])
        for a, (u, v) in enumerate(edges)
    ]


def digest(obj) -> str:
    """Short stable hash of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rankings_digest(rankings) -> str:
    """Short stable hash of a large profile's rankings."""
    flat = array("l", [len(rankings)] + [c for ranking in rankings for c in ranking])
    return hashlib.sha256(flat.tobytes()).hexdigest()[:16]

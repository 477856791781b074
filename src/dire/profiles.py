"""Election data model: profiles of strict rankings, committees, tie-breaking."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence


class ProfileError(ValueError):
    """Raised when a profile or committee violates a structural invariant."""


@dataclass(frozen=True)
class PreferenceProfile:
    """Complete strict rankings of m candidates by n voters.

    Candidate ids are dense integers 0..m-1.  Each ranking lists candidate
    ids from most to least preferred.  ``priority`` is the pre-decided
    tie-break order over candidates (earlier = preferred); it defaults to
    ascending id.

    Construction does not validate; call :func:`validate_profile` or use
    :func:`make_profile` to get checked instances.
    """

    m: int
    rankings: tuple[tuple[int, ...], ...]
    priority: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "rankings", tuple(tuple(r) for r in self.rankings))
        if self.priority:
            object.__setattr__(self, "priority", tuple(self.priority))
        else:
            object.__setattr__(self, "priority", tuple(range(self.m)))

    @property
    def n(self) -> int:
        return len(self.rankings)

    @cached_property
    def _matrices(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        return {}

    def satisfaction(self, vector: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """The voter-major entry matrix of a positional vector: row v holds
        ``vector[i]`` at column ``rankings[v][i]``, so ``[v][c]`` is
        ``vector[pos_v(c) - 1]``.  Built in one pass over the rankings on
        the first call per vector and kept as long as the profile."""
        vector = tuple(vector)
        matrix = self._matrices.get(vector)
        if matrix is None:
            rows = []
            for ranking in self.rankings:
                row = [0] * self.m
                for cand, entry in zip(ranking, vector):
                    row[cand] = entry
                rows.append(tuple(row))
            matrix = self._matrices[vector] = tuple(rows)
        return matrix

    @cached_property
    def _positions(self) -> tuple[tuple[int, ...], ...]:
        # _positions[v][c] is 1-based rank of candidate c for voter v
        return self.satisfaction(range(1, self.m + 1))

    @cached_property
    def _priority_rank(self) -> tuple[int, ...]:
        rank = [0] * len(self.priority)
        for idx, cand in enumerate(self.priority):
            rank[cand] = idx
        return tuple(rank)

    def priority_key(self, candidate: int) -> int:
        """Rank of a candidate in the tie-break order (0 = first pick)."""
        return self._priority_rank[candidate]


@dataclass(frozen=True)
class Committee:
    """A committee of exactly k distinct candidates, stored sorted ascending.

    Canonical sorted storage makes committee equality and lexicographic
    tie-breaking between committees well-defined.
    """

    members: tuple[int, ...]

    def __init__(self, members: Iterable[int]):
        object.__setattr__(self, "members", tuple(sorted(members)))
        if len(set(self.members)) != len(self.members):
            raise ProfileError(f"duplicate members in committee {self.members}")

    @property
    def k(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, candidate: int) -> bool:
        return candidate in set(self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    error: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_profile(profile: PreferenceProfile) -> ValidationResult:
    """Check all profile invariants, reporting the first violation found.

    Verifies that every ranking is a permutation of 0..m-1 and that the
    priority order is one too.  The error message carries the offending
    voter/candidate indices.
    """
    m = profile.m
    if m < 1:
        return ValidationResult(False, f"candidate count must be >= 1, got {m}")
    if profile.n < 1:
        return ValidationResult(False, "profile has no voters")
    expected = set(range(m))
    for v, ranking in enumerate(profile.rankings):
        if len(ranking) != m:
            return ValidationResult(
                False, f"wrong-length-ranking: voter {v} ranks {len(ranking)} of {m} candidates"
            )
        seen = set()
        for cand in ranking:
            if cand in seen:
                return ValidationResult(
                    False, f"duplicate-candidate-in-ranking: voter {v} ranks candidate {cand} twice"
                )
            seen.add(cand)
        if seen != expected:
            missing = min(expected - seen)
            return ValidationResult(
                False, f"wrong-length-ranking: voter {v} is missing candidate {missing}"
            )
    if len(profile.priority) != m or set(profile.priority) != expected:
        return ValidationResult(
            False, f"bad-priority-permutation: priority {profile.priority} is not a permutation of 0..{m - 1}"
        )
    return ValidationResult(True)


def make_profile(
    m: int,
    rankings: Sequence[Sequence[int]],
    priority: Sequence[int] | None = None,
) -> PreferenceProfile:
    """Build a profile and raise :class:`ProfileError` unless it validates."""
    profile = PreferenceProfile(m=m, rankings=tuple(tuple(r) for r in rankings),
                                priority=tuple(priority) if priority else ())
    result = validate_profile(profile)
    if not result.ok:
        raise ProfileError(result.error)
    return profile


def position(profile: PreferenceProfile, voter: int, candidate: int) -> int:
    """1-based rank of ``candidate`` for ``voter`` (1 = most preferred)."""
    if not 0 <= voter < profile.n:
        raise IndexError(f"voter index {voter} out of range for n={profile.n}")
    if not 0 <= candidate < profile.m:
        raise IndexError(f"candidate id {candidate} out of range for m={profile.m}")
    return profile._positions[voter][candidate]


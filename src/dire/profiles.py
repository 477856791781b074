"""Election data model: profiles of strict rankings, committees, tie-breaking."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence


class ProfileError(ValueError):
    """Raised when a profile or committee violates a structural invariant."""


@dataclass(frozen=True)
class PreferenceProfile:
    """Complete strict rankings of m candidates by n voters.

    Candidate ids are dense integers 0..m-1.  Each ranking lists candidate
    ids from most to least preferred.  ``priority`` is the pre-decided
    tie-break order over candidates (earlier = preferred); omitted (None),
    it is ascending id, or empty when :func:`validate_profile` rejects the
    sizes (m < 1, no voters, or voter 0 ranking other than m candidates)
    before it reads the priority.  An explicit priority, the empty one
    included, is kept as given, and validation rejects it unless it is a
    permutation.

    Construction does not validate; call :func:`validate_profile` or use
    :func:`make_profile` to get checked instances.
    """

    m: int
    rankings: tuple[tuple[int, ...], ...]
    priority: tuple[int, ...] | None = None  # None: ascending id; a tuple once built

    def __post_init__(self):
        object.__setattr__(self, "rankings", tuple(tuple(r) for r in self.rankings))
        priority = self.priority
        if priority is None:
            # built only once m agrees with voter 0's ranking, so an m far
            # above it allocates nothing before validation rejects it
            priority = range(self.m) if _size_error(self.m, self.rankings) is None else ()
        object.__setattr__(self, "priority", tuple(priority))

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
        the first call per vector and kept as long as the profile.

        A ranking equal to the one before it shares that voter's row (the
        same tuple object), so a run of equal ballots, as in a reduction's
        voter blocks or an expanded ``.soc`` count, costs one row.  Only
        adjacent rankings are compared: that test usually stops at the
        first entry, where a lookup of every ranking would hash it whole."""
        vector = tuple(vector)
        matrix = self._matrices.get(vector)
        if matrix is None:
            rows = []
            row = previous = None
            for ranking in self.rankings:
                if ranking != previous:
                    entries = [0] * self.m
                    for cand, entry in zip(ranking, vector):
                        entries[cand] = entry
                    row, previous = tuple(entries), ranking
                rows.append(row)
            matrix = self._matrices[vector] = tuple(rows)
        return matrix

    @cached_property
    def _sums(self) -> dict[tuple[int, ...], list[list[int]]]:
        return {}

    def best_sums(self, vector: Sequence[int]) -> list[list[int]]:
        """``[c][l]``, for l in 0..n: the sum of candidate c's l largest
        entries of a positional vector over every voter.  Built from
        :meth:`satisfaction` on the first call per vector and kept as long
        as the profile; callers must not modify it."""
        vector = tuple(vector)
        sums = self._sums.get(vector)
        if sums is None:
            sums = self._sums[vector] = [list(accumulate(sorted(column, reverse=True), initial=0))
                                         for column in zip(*self.satisfaction(vector))]
        return sums

    @cached_property
    def _tables(self) -> dict[tuple[int, ...], object]:
        # dire.rules keeps here, per vector, what every table of the whole
        # electorate reads (its ``_Entries``), as long as the profile
        return {}

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


def _size_error(m: int, rankings: Sequence[Sequence[int]]) -> str | None:
    """The first violation of :func:`validate_profile` found without building
    anything of size m: once it is None, m is the length of voter 0's ranking."""
    if m < 1:
        return f"candidate count must be >= 1, got {m}"
    if not rankings:
        return "profile has no voters"
    if len(rankings[0]) != m:
        return f"wrong-length-ranking: voter 0 ranks {len(rankings[0])} of {m} candidates"
    return None


def validate_profile(profile: PreferenceProfile) -> ValidationResult:
    """Check all profile invariants, reporting the first violation found.

    Verifies that every ranking is a permutation of 0..m-1 and that the
    priority order is one too.  The error message carries the offending
    voter/candidate indices.
    """
    m = profile.m
    error = _size_error(m, profile.rankings)
    if error is not None:
        return ValidationResult(False, error)
    expected = set(range(m))
    for v, ranking in enumerate(profile.rankings):
        if len(ranking) != m:
            return ValidationResult(
                False, f"wrong-length-ranking: voter {v} ranks {len(ranking)} of {m} candidates"
            )
        seen = set()
        for cand in ranking:
            if cand not in expected:
                return ValidationResult(
                    False, f"candidate-out-of-range: voter {v} ranks candidate {cand}"
                )
            if cand in seen:
                return ValidationResult(
                    False, f"duplicate-candidate-in-ranking: voter {v} ranks candidate {cand} twice"
                )
            seen.add(cand)
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
    """Build a profile and raise :class:`ProfileError` unless it validates.
    The sizes are checked first, as the default priority holds m candidates."""
    error = _size_error(m, rankings)
    if error is not None:
        raise ProfileError(error)
    profile = PreferenceProfile(m=m, rankings=rankings, priority=priority)
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


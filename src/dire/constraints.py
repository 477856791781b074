"""Candidate groups, voter populations, and the constraint side of an instance.

Diversity bounds require at least ``l`` committee members from a candidate
group; representation bounds require at least ``l`` members from a voter
population's winning committee.  Bounds live in [1, min(k, |G|)] and [1, k]
respectively; zero bounds (no-op constraints) are rejected unless the
instance is built with ``allow_zero_bounds`` for theory experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from dire.profiles import PreferenceProfile
from dire.rules import Rule, _ranked, borda_vector, candidate_scores, kborda, population_winning_committee


class InstanceError(ValueError):
    pass


@dataclass(frozen=True)
class Attribute:
    """One attribute: a named partition of entities into labeled groups."""

    name: str
    groups: tuple[tuple[str, tuple[int, ...]], ...]  # (label, sorted member ids)

    def __init__(self, name: str, groups: Mapping[str, Iterable[int]]):
        object.__setattr__(self, "name", name)
        object.__setattr__(
            self,
            "groups",
            tuple((label, tuple(sorted(members))) for label, members in groups.items()),
        )

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.groups)

    def validate_partition(self, count: int, entity: str) -> None:
        seen: set[int] = set()
        for label, members in self.groups:
            if not members:
                raise InstanceError(f"{entity} attribute {self.name!r}: group {label!r} is empty")
            for e in members:
                if not 0 <= e < count:
                    raise InstanceError(
                        f"{entity} attribute {self.name!r}: group {label!r} has out-of-range id {e}"
                    )
                if e in seen:
                    raise InstanceError(
                        f"{entity} attribute {self.name!r}: id {e} appears in two groups"
                    )
                seen.add(e)
        if len(seen) != count:
            missing = min(set(range(count)) - seen)
            raise InstanceError(
                f"{entity} attribute {self.name!r} does not cover id {missing}"
            )


@dataclass(frozen=True)
class AttributeScheme:
    """Per-attribute partitions of candidates into groups and voters into populations."""

    candidate_attributes: tuple[Attribute, ...] = ()
    voter_attributes: tuple[Attribute, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "candidate_attributes", tuple(self.candidate_attributes))
        object.__setattr__(self, "voter_attributes", tuple(self.voter_attributes))

    @property
    def mu(self) -> int:
        return len(self.candidate_attributes)

    @property
    def pi(self) -> int:
        return len(self.voter_attributes)

    def validate(self, m: int, n: int) -> None:
        for kind, attrs, count, entity in (
            ("candidate", self.candidate_attributes, m, "candidate"),
            ("voter", self.voter_attributes, n, "voter"),
        ):
            names = [a.name for a in attrs]
            if len(set(names)) != len(names):
                raise InstanceError(f"duplicate {kind} attribute names in {names}")
            for attr in attrs:
                attr.validate_partition(count, entity)


@dataclass(frozen=True)
class UnaryConstraint:
    """One lower-bound constraint with a stable key for reporting.

    Keys look like ``D:<attr>:<group>`` for diversity and ``R:<attr>:<pop>``
    for representation.  ``domain`` is the candidate set the bound counts
    against (the group itself, or the population's winning committee).
    """

    key: str
    domain: frozenset[int]
    bound: int


@dataclass(frozen=True)
class DiReInstance:
    """A committee-selection instance with diversity/representation bounds.

    ``diversity_bounds`` maps (attribute name, group label) to the bound;
    ``representation_bounds`` likewise for populations.
    ``winning_committees`` maps (attribute name, population label) to that
    population's size-k winning committee, either supplied explicitly (as
    reduction-generated instances do) or computed under ``rule`` at build
    time by :func:`make_instance`.
    """

    profile: PreferenceProfile
    scheme: AttributeScheme
    k: int
    rule: Rule = field(default_factory=kborda)
    diversity_bounds: Mapping[tuple[str, str], int] = field(default_factory=dict)
    representation_bounds: Mapping[tuple[str, str], int] = field(default_factory=dict)
    winning_committees: Mapping[tuple[str, str], tuple[int, ...]] = field(default_factory=dict)
    allow_zero_bounds: bool = False

    @property
    def m(self) -> int:
        return self.profile.m

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def mu(self) -> int:
        return self.scheme.mu

    @property
    def pi(self) -> int:
        return self.scheme.pi

    def _validate_bounds(self) -> None:
        """Check every bound and winning committee; :func:`make_instance`
        checks k and the scheme, which these checks assume valid, first."""
        lowest = 0 if self.allow_zero_bounds else 1
        for attr in self.scheme.candidate_attributes:
            for label, members in attr.groups:
                bound = self.diversity_bounds.get((attr.name, label))
                if bound is None:
                    raise InstanceError(f"missing diversity bound for {attr.name}:{label}")
                top = min(self.k, len(members))
                if not lowest <= bound <= top:
                    raise InstanceError(
                        f"diversity bound {bound} for {attr.name}:{label} outside [{lowest}, {top}]"
                    )
        for attr in self.scheme.voter_attributes:
            for label, _ in attr.groups:
                bound = self.representation_bounds.get((attr.name, label))
                if bound is None:
                    raise InstanceError(f"missing representation bound for {attr.name}:{label}")
                if not lowest <= bound <= self.k:
                    raise InstanceError(
                        f"representation bound {bound} for {attr.name}:{label} outside [{lowest}, {self.k}]"
                    )
                wc = self.winning_committees.get((attr.name, label))
                if wc is None:
                    raise InstanceError(f"missing winning committee for population {attr.name}:{label}")
                if len(set(wc)) != len(wc):
                    raise InstanceError(f"winning committee for {attr.name}:{label} repeats a candidate id")
                if len(wc) != self.k:
                    raise InstanceError(
                        f"winning committee for {attr.name}:{label} has size {len(wc)}, expected k={self.k}"
                    )
                if any(not 0 <= c < self.m for c in wc):
                    raise InstanceError(f"winning committee for {attr.name}:{label} has bad candidate ids")

    def constraints(self) -> tuple[UnaryConstraint, ...]:
        """All active (bound >= 1) unary constraints, diversity first, built
        on the first call: every solve, check and metric reads one tuple."""
        return self._constraints

    @cached_property
    def _constraints(self) -> tuple[UnaryConstraint, ...]:
        out = []
        for attr in self.scheme.candidate_attributes:
            for label, members in attr.groups:
                bound = self.diversity_bounds[(attr.name, label)]
                if bound >= 1:
                    out.append(UnaryConstraint(f"D:{attr.name}:{label}", frozenset(members), bound))
        for attr in self.scheme.voter_attributes:
            for label, _ in attr.groups:
                bound = self.representation_bounds[(attr.name, label)]
                if bound >= 1:
                    out.append(
                        UnaryConstraint(
                            f"R:{attr.name}:{label}",
                            frozenset(self.winning_committees[(attr.name, label)]),
                            bound,
                        )
                    )
        return tuple(out)

    def padding_order(self) -> tuple[int, ...]:
        """Every candidate by descending padding score, ties by priority."""
        return self._padding

    @cached_property
    def _padding(self) -> tuple[int, ...]:
        # the padding score is that of the rule's own vector when it is
        # separable, Borda otherwise; computed on first use, as most solves
        # never pad
        vector = self.rule.vector(self.m) if self.rule.separable else borda_vector(self.m)
        return tuple(_ranked(candidate_scores(self.profile, vector), self.profile.priority_key))


def holders(domains: Sequence[Iterable[int]], m: int) -> list[tuple[int, ...]]:
    """For each candidate 0..m-1, the ascending indices of the domains
    holding it, in O(m + incidences): the candidates no domain holds share
    one empty tuple."""
    lists: dict[int, list[int]] = {}
    for idx, domain in enumerate(domains):
        for cand in domain:
            if cand in lists:
                lists[cand].append(idx)
            else:
                lists[cand] = [idx]
    held: list[tuple[int, ...]] = [()] * m
    for cand, indices in lists.items():
        held[cand] = tuple(indices)
    return held


def fill_seats(members: Iterable[int], order: Callable[[], Sequence[int]], k: int) -> tuple[int, ...]:
    """The sorted ``members`` with every free seat up to k given to the
    first unused candidate of ``order()``, which is called only when a seat
    is free."""
    chosen = set(members)
    if len(chosen) < k:
        chosen.update([c for c in order() if c not in chosen][: k - len(chosen)])
    return tuple(sorted(chosen))


def make_instance(
    profile: PreferenceProfile,
    scheme: AttributeScheme,
    k: int,
    rule: Rule | None = None,
    diversity_bounds: Mapping[tuple[str, str], int] | None = None,
    representation_bounds: Mapping[tuple[str, str], int] | None = None,
    winning_committees: Mapping[tuple[str, str], Sequence[int]] | None = None,
    allow_zero_bounds: bool = False,
) -> DiReInstance:
    """Build and validate an instance, computing missing winning committees.

    Winning committees not supplied explicitly are materialized here under
    the instance rule, so constraint checking never recomputes them.  A
    bound or supplied committee keyed by a group or population the scheme
    does not have is rejected before that search.
    """
    rule = rule or kborda()
    # checked before the winner searches below, which assume both
    if not 1 <= k <= profile.m:
        raise InstanceError(f"committee size {k} out of range [1, {profile.m}]")
    scheme.validate(profile.m, profile.n)
    groups = {(attr.name, label) for attr in scheme.candidate_attributes for label in attr.labels()}
    populations = {(attr.name, label) for attr in scheme.voter_attributes for label in attr.labels()}
    for what, keys, known, kind in (
        ("diversity bound", diversity_bounds, groups, "candidate group"),
        ("representation bound", representation_bounds, populations, "population"),
        ("winning committee", winning_committees, populations, "population"),
    ):
        for attr_name, label in keys or ():
            if (attr_name, label) not in known:
                raise InstanceError(f"{what} for {attr_name}:{label} names no {kind} of the scheme")
    supplied = {key: tuple(val) for key, val in (winning_committees or {}).items()}
    computed: dict[tuple[str, str], tuple[int, ...]] = {}
    for attr in scheme.voter_attributes:
        for label, voters in attr.groups:
            key = (attr.name, label)
            if key in supplied:
                computed[key] = supplied[key]
            else:
                wc = population_winning_committee(profile, voters, rule, k)
                computed[key] = wc.members
    instance = DiReInstance(
        profile=profile,
        scheme=scheme,
        k=k,
        rule=rule,
        diversity_bounds=dict(diversity_bounds or {}),
        representation_bounds=dict(representation_bounds or {}),
        winning_committees=computed,
        allow_zero_bounds=allow_zero_bounds,
    )
    instance._validate_bounds()  # k and the scheme were checked above
    return instance


@dataclass(frozen=True)
class SatisfactionResult:
    ok: bool
    violations: tuple[tuple[str, int], ...]  # (constraint key, shortfall)

    def __bool__(self) -> bool:
        return self.ok


def satisfies(instance: DiReInstance, committee: Iterable[int]) -> SatisfactionResult:
    """Check every diversity and representation bound against a committee.

    Returns the verdict together with each unmet constraint's key and its
    shortfall (bound minus achieved intersection).
    """
    violations = _violations(instance, instance.constraints(), committee)
    return SatisfactionResult(not violations, violations)


def _violations(
    instance: DiReInstance, constraints: Sequence[UnaryConstraint], committee: Iterable[int]
) -> tuple[tuple[str, int], ...]:
    committee = list(committee)
    members = set(committee)
    if len(members) != len(committee):
        raise InstanceError(f"committee {sorted(committee)} repeats a candidate id")
    if len(members) != instance.k:
        raise InstanceError(f"committee size {len(members)} != k={instance.k}")
    if not 0 <= min(members) <= max(members) < instance.m:
        raise InstanceError(f"committee {sorted(members)} has candidate ids outside [0, {instance.m})")
    violations = []
    for constraint in constraints:
        have = len(members & constraint.domain)
        if have < constraint.bound:
            violations.append((constraint.key, constraint.bound - have))
    return tuple(violations)


def unsatisfied_fraction(instance: DiReInstance, committee: Iterable[int]) -> Fraction:
    """Fraction of active constraints a committee violates (0 if there are none)."""
    constraints = instance.constraints()
    violations = _violations(instance, constraints, committee)
    return Fraction(len(violations), len(constraints)) if constraints else Fraction(0)

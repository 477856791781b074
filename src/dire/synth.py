"""Synthetic instance generation: Mallows preferences, random partitions, random bounds.

Rankings are sampled by repeated insertion: the j-th item of the reference
ranking is inserted at position i <= j with probability proportional to
phi^(j-i), which makes a ranking's probability proportional to phi raised
to its Kendall-tau distance from the reference.  The insertion steps do not
depend on the voter, so :func:`sample_mallows` builds them once per profile
as a plan: for each j, the cumulative weights but the last, their total
and the item.  Each ranking then walks the plan with one uniform draw and
one bisection per step, the draw ``random.choices`` would make on the same
stream.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from dire.constraints import Attribute, AttributeScheme, DiReInstance, make_instance
from dire.profiles import PreferenceProfile
from dire.rules import Rule, kborda

SYN1 = "syn1"
SYN2 = "syn2"

# Dimensions used throughout the synthetic experiments.
DEFAULT_M = 50
DEFAULT_N = 100
DEFAULT_K = 6


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class MallowsParams:
    """Dispersion phi in (0, 1], reference ranking sigma, RNG seed."""

    phi: float
    sigma: tuple[int, ...]
    seed: int | None = None

    def __post_init__(self):
        if not 0 < self.phi <= 1:
            raise GenerationError(f"phi must be in (0, 1], got {self.phi}")
        if sorted(self.sigma) != list(range(len(self.sigma))):
            raise GenerationError(f"sigma {self.sigma} is not a permutation")


def kendall_tau(left: Sequence[int], right: Sequence[int]) -> int:
    """Number of candidate pairs the two rankings order differently."""
    rank = {c: i for i, c in enumerate(right)}
    seq = [rank[c] for c in left]
    return sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )


def _sample_one(
    rng: random.Random, plan: Sequence[tuple[list[float], float, int]], first: int
) -> tuple[int, ...]:
    ranking = [first]
    insert, draw = ranking.insert, rng.random
    for cum, total, item in plan:
        # the draw random.choices(range(len(cum) + 1), weights) makes, on the
        # same random stream: its bisection never passes the last position
        insert(bisect(cum, draw() * total), item)
    return tuple(ranking)


def sample_mallows(params: MallowsParams, n: int) -> PreferenceProfile:
    """n independent rankings from the Mallows distribution around sigma."""
    if n < 1:
        raise GenerationError("need at least one voter")
    rng = random.Random(params.seed)
    sigma = params.sigma
    m = len(sigma)
    # one insertion step per j = 2..m: the cumulative weights phi^(j-1-pos),
    # pos < j - 1, the total over pos < j, and the item
    powers = [params.phi ** e for e in range(m)]
    plan = []
    for j in range(2, m + 1):
        cum = list(accumulate(reversed(powers[:j])))
        plan.append((cum[:-1], cum[-1] + 0.0, sigma[j - 1]))
    rankings = tuple(_sample_one(rng, plan, sigma[0]) for _ in range(n))
    return PreferenceProfile(m=m, rankings=rankings)


def partition_attribute(entity_count: int, k: int, rng: random.Random | int | None) -> list[list[int]]:
    """Randomly partition 0..entity_count-1 into q contiguous runs of a shuffle.

    q is drawn uniformly from [2, k]; the q-1 cut positions are drawn
    without replacement from [2, entity_count] (1-based position = start of
    a new group).  If q-1 exceeds the available cut positions the draw is
    retried over the feasible range [2, entity_count].
    """
    if entity_count < 2 or k < 2:
        raise GenerationError(f"need entity_count >= 2 and k >= 2, got {entity_count}, {k}")
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    q = rng.randint(2, k)
    while q - 1 > entity_count - 1:
        q = rng.randint(2, min(k, entity_count))
    entities = list(range(entity_count))
    rng.shuffle(entities)
    cuts = sorted(rng.sample(range(2, entity_count + 1), q - 1))
    starts = [0] + [cut - 1 for cut in cuts]
    ends = starts[1:] + [entity_count]
    return [sorted(entities[a:b]) for a, b in zip(starts, ends)]


def sample_bounds(
    scheme: AttributeScheme, k: int, rng: random.Random | int | None
) -> tuple[dict[tuple[str, str], int], dict[tuple[str, str], int]]:
    """Uniform-random lower bounds: [1, min(k, |G|)] per group, [1, k] per population."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    diversity = {}
    for attr in scheme.candidate_attributes:
        for label, members in attr.groups:
            diversity[(attr.name, label)] = rng.randint(1, min(k, len(members)))
    representation = {}
    for attr in scheme.voter_attributes:
        for label, _ in attr.groups:
            representation[(attr.name, label)] = rng.randint(1, k)
    return diversity, representation


def _build_attributes(prefix, label_prefix, count, entity_count, k, rng):
    attrs = []
    for index in range(count):
        groups = partition_attribute(entity_count, k, rng)
        attrs.append(
            Attribute(
                f"{prefix}{index + 1}",
                {f"{label_prefix}{g + 1}": members for g, members in enumerate(groups)},
            )
        )
    return tuple(attrs)


def gen_syndata(
    kind: str,
    mu: int | None = None,
    pi: int | None = None,
    phi: float | None = None,
    seed: int = 0,
    m: int = DEFAULT_M,
    n: int = DEFAULT_N,
    k: int = DEFAULT_K,
    rule: Rule | None = None,
) -> DiReInstance:
    """One synthetic instance.

    ``syn1`` fixes phi = 0.5 and varies the attribute counts mu, pi in
    [0, 4]; ``syn2`` fixes mu = pi = 2 and varies phi over [0.1, 1.0].
    Groups and populations per attribute are capped at k; bounds are
    sampled uniformly; winning committees are computed under ``rule``.
    """
    return make_instance(**draw_syndata(kind, mu, pi, phi, seed, m, n, k), rule=rule or kborda())


def draw_syndata(
    kind: str,
    mu: int | None = None,
    pi: int | None = None,
    phi: float | None = None,
    seed: int = 0,
    m: int = DEFAULT_M,
    n: int = DEFAULT_N,
    k: int = DEFAULT_K,
) -> dict:
    """Everything :func:`gen_syndata` draws, none of which depends on the
    rule: the ``make_instance`` arguments other than ``rule``."""
    if kind == SYN1:
        if phi is None:
            phi = 0.5
        if phi != 0.5:
            raise GenerationError("syn1 fixes phi = 0.5")
        if mu is None or pi is None:
            raise GenerationError("syn1 needs mu and pi")
        if not (0 <= mu <= 4 and 0 <= pi <= 4):
            raise GenerationError(f"syn1 uses mu, pi in [0, 4], got mu={mu}, pi={pi}")
    elif kind == SYN2:
        if mu is None:
            mu = 2
        if pi is None:
            pi = 2
        if (mu, pi) != (2, 2):
            raise GenerationError("syn2 fixes mu = pi = 2")
        if phi is None:
            raise GenerationError("syn2 needs phi")
    else:
        raise GenerationError(f"unknown dataset kind {kind!r}")

    rng = random.Random(seed)
    sigma = list(range(m))
    rng.shuffle(sigma)
    profile_seed = rng.randrange(2**32)
    profile = sample_mallows(MallowsParams(phi=phi, sigma=tuple(sigma), seed=profile_seed), n)
    scheme = AttributeScheme(
        candidate_attributes=_build_attributes("A", "g", mu, m, k, rng),
        voter_attributes=_build_attributes("B", "p", pi, n, k, rng),
    )
    diversity, representation = sample_bounds(scheme, k, rng)
    return dict(profile=profile, scheme=scheme, k=k,
                diversity_bounds=diversity, representation_bounds=representation)


def syn2_sweep(seed: int = 0, **kwargs) -> list[DiReInstance]:
    """The ten syn2 instances for phi = 0.1, 0.2, ..., 1.0 at one seed."""
    return [gen_syndata(SYN2, phi=round(step / 10, 1), seed=seed, **kwargs) for step in range(1, 11)]

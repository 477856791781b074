import random
from collections import Counter

import pytest

from dire.fileio import dumps_instance
from dire.profiles import validate_profile
from dire.rules import betacc
from dire.synth import (
    GenerationError,
    MallowsParams,
    gen_syndata,
    kendall_tau,
    partition_attribute,
    sample_bounds,
    sample_mallows,
    syn2_sweep,
)
from dire.constraints import Attribute, AttributeScheme
from dire.winner import brute_force_oracle, solve_drcwd
from dire.solver import SolverConfig


def test_mallows_params_validation():
    with pytest.raises(GenerationError):
        MallowsParams(phi=0.0, sigma=(0, 1))
    with pytest.raises(GenerationError):
        MallowsParams(phi=1.5, sigma=(0, 1))
    with pytest.raises(GenerationError):
        MallowsParams(phi=0.5, sigma=(0, 0))


def test_kendall_tau():
    assert kendall_tau((0, 1, 2), (0, 1, 2)) == 0
    assert kendall_tau((2, 1, 0), (0, 1, 2)) == 3
    assert kendall_tau((1, 0, 2), (0, 1, 2)) == 1


def test_sample_mallows_deterministic_and_valid():
    params = MallowsParams(phi=0.7, sigma=(3, 1, 0, 2), seed=13)
    first = sample_mallows(params, 25)
    second = sample_mallows(params, 25)
    assert first == second
    assert validate_profile(first).ok


def reference_sample_one(rng, phi, sigma):
    """Repeated insertion drawing each position with ``rng.choices``."""
    ranking = [sigma[0]]
    for j in range(2, len(sigma) + 1):
        weights = [phi ** (j - 1 - pos) for pos in range(j)]
        pos = rng.choices(range(j), weights=weights)[0]
        ranking.insert(pos, sigma[j - 1])
    return tuple(ranking)


@pytest.mark.parametrize("phi", [1e-9, 0.1, 0.37, 0.5, 0.9, 1.0])
def test_sample_mallows_matches_the_choices_sampler(phi):
    for m, n, seed in [(1, 3, 0), (2, 9, 1), (6, 40, 2), (17, 25, 3), (50, 12, 4)]:
        sigma = list(range(m))
        random.Random(seed).shuffle(sigma)
        profile = sample_mallows(MallowsParams(phi=phi, sigma=tuple(sigma), seed=seed), n)
        rng = random.Random(seed)
        assert profile.rankings == tuple(reference_sample_one(rng, phi, sigma) for _ in range(n))


def test_mallows_phi_to_zero_concentrates_on_sigma():
    sigma = (2, 0, 3, 1)
    profile = sample_mallows(MallowsParams(phi=1e-9, sigma=sigma, seed=3), 40)
    assert all(r == sigma for r in profile.rankings)


def test_mallows_single_candidate():
    profile = sample_mallows(MallowsParams(phi=0.5, sigma=(0,), seed=1), 5)
    assert profile.rankings == ((0,),) * 5


def test_mallows_uniform_at_phi_one():
    profile = sample_mallows(MallowsParams(phi=1.0, sigma=(0, 1, 2), seed=8), 12000)
    freq = Counter(profile.rankings)
    assert len(freq) == 6
    for count in freq.values():
        assert abs(count / 12000 - 1 / 6) < 0.02


def test_mallows_kendall_mean_monotone_in_phi():
    sigma = tuple(range(5))
    means = []
    for phi in (0.1, 0.5, 1.0):
        profile = sample_mallows(MallowsParams(phi=phi, sigma=sigma, seed=21), 3000)
        means.append(sum(kendall_tau(r, sigma) for r in profile.rankings) / profile.n)
    assert means[0] < means[1] < means[2]


def test_partition_attribute_is_partition():
    for seed in range(30):
        rng = random.Random(seed)
        count = rng.randint(2, 20)
        k = rng.randint(2, 6)
        groups = partition_attribute(count, k, rng)
        assert 2 <= len(groups) <= min(k, count)
        flat = sorted(c for g in groups for c in g)
        assert flat == list(range(count))
        assert all(groups)


def test_partition_attribute_deterministic():
    assert partition_attribute(10, 4, 77) == partition_attribute(10, 4, 77)


def test_partition_attribute_single_cut_semantics():
    class FixedRng(random.Random):
        def randint(self, a, b):
            return 2  # q = 2

        def shuffle(self, seq):
            pass  # keep identity order

        def sample(self, population, k):
            return [3]  # cut at position 3

    groups = partition_attribute(4, 4, FixedRng())
    assert groups == [[0, 1], [2, 3]]


def test_partition_attribute_retries_oversized_q():
    # k=6 but only 2 entities: q must fall back to 2
    groups = partition_attribute(2, 6, 5)
    assert groups in ([[0], [1]],)


def test_partition_attribute_preconditions():
    with pytest.raises(GenerationError):
        partition_attribute(1, 3, 0)
    with pytest.raises(GenerationError):
        partition_attribute(5, 1, 0)


def test_sample_bounds_ranges():
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0], "g2": [1, 2, 3]}),),
        voter_attributes=(Attribute("B", {"p1": [0, 1], "p2": [2]}),),
    )
    diversity, representation = sample_bounds(scheme, k=2, rng=0)
    assert diversity[("A", "g1")] == 1  # singleton group is forced
    assert 1 <= diversity[("A", "g2")] <= 2
    assert all(1 <= b <= 2 for b in representation.values())


def test_sample_bounds_k_one_forces_unit():
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0, 1], "g2": [2]}),),
    )
    diversity, _ = sample_bounds(scheme, k=1, rng=4)
    assert set(diversity.values()) == {1}


def test_sample_bounds_uniform_mean():
    scheme = AttributeScheme(
        voter_attributes=(Attribute("B", {"p1": [0, 1], "p2": [2, 3]}),),
    )
    rng = random.Random(12)
    draws = []
    for _ in range(5000):
        _, rep = sample_bounds(scheme, k=6, rng=rng)
        draws.extend(rep.values())
    mean = sum(draws) / len(draws)
    assert abs(mean - 3.5) < 0.1


def test_gen_syndata_validations():
    with pytest.raises(GenerationError):
        gen_syndata("syn1", mu=5, pi=0)
    with pytest.raises(GenerationError):
        gen_syndata("syn1", mu=1, pi=1, phi=0.9)
    with pytest.raises(GenerationError):
        gen_syndata("syn2", mu=1, pi=1, phi=0.5)
    with pytest.raises(GenerationError):
        gen_syndata("syn3", mu=0, pi=0)


def test_gen_syndata_deterministic_bytes():
    kwargs = dict(mu=2, pi=2, seed=42, m=12, n=10, k=3)
    first = gen_syndata("syn1", **kwargs)
    second = gen_syndata("syn1", **kwargs)
    assert dumps_instance(first) == dumps_instance(second)


def test_gen_syndata_shape():
    instance = gen_syndata("syn1", mu=3, pi=2, seed=9, m=15, n=12, k=4)
    assert (instance.m, instance.n, instance.k) == (15, 12, 4)
    assert instance.mu == 3 and instance.pi == 2
    for attr in instance.scheme.candidate_attributes + instance.scheme.voter_attributes:
        assert 2 <= len(attr.groups) <= 4  # groups per attribute capped at k


def test_gen_syndata_unconstrained_solves_to_topk():
    instance = gen_syndata("syn1", mu=0, pi=0, seed=5, m=8, n=6, k=3)
    report = solve_drcwd(instance, SolverConfig(timeout=30))
    oracle = brute_force_oracle(instance)
    assert report.score == oracle.score


def test_gen_syndata_full_scale_dimensions():
    instance = gen_syndata("syn1", mu=1, pi=1, seed=1)
    assert (instance.m, instance.n, instance.k) == (50, 100, 6)


def test_gen_syndata_betacc_winning_committees():
    instance = gen_syndata("syn1", mu=0, pi=1, seed=2, m=9, n=8, k=3, rule=betacc())
    for wc in instance.winning_committees.values():
        assert len(wc) == 3


def test_syn2_sweep_emits_ten_instances():
    instances = syn2_sweep(seed=3, m=8, n=6, k=2)
    assert len(instances) == 10
    assert all(inst.mu == 2 and inst.pi == 2 for inst in instances)

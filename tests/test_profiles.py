import random

import pytest

from dire.profiles import (
    Committee,
    PreferenceProfile,
    ProfileError,
    make_profile,
    position,
    validate_profile,
)


def test_smallest_valid_profile():
    profile = PreferenceProfile(m=2, rankings=((0, 1),), priority=(0, 1))
    assert validate_profile(profile).ok


def test_duplicate_candidate_rejected():
    profile = PreferenceProfile(m=2, rankings=((0, 0),), priority=(0, 1))
    result = validate_profile(profile)
    assert not result.ok
    assert "duplicate-candidate" in result.error
    assert "voter 0" in result.error


def test_wrong_length_ranking_rejected():
    profile = PreferenceProfile(m=3, rankings=((0, 1),))
    result = validate_profile(profile)
    assert not result.ok
    assert "wrong-length-ranking" in result.error


def test_bad_priority_rejected():
    profile = PreferenceProfile(m=2, rankings=((0, 1),), priority=(0, 0))
    result = validate_profile(profile)
    assert not result.ok
    assert "bad-priority-permutation" in result.error


def test_example1_profile_is_valid(example1):
    assert validate_profile(example1.profile).ok


def test_make_profile_raises_on_invalid():
    with pytest.raises(ProfileError):
        make_profile(2, [[0, 0]])


def test_default_priority_is_ascending():
    profile = make_profile(3, [[2, 1, 0]])
    assert profile.priority == (0, 1, 2)
    assert PreferenceProfile(m=2, rankings=((1, 0),)).priority == (0, 1)


def test_an_explicit_empty_priority_is_rejected():
    # an empty priority once meant ascending ids, like an omitted one
    with pytest.raises(ProfileError, match="not a permutation"):
        make_profile(3, [[2, 1, 0]], priority=[])
    result = validate_profile(PreferenceProfile(m=2, rankings=((0, 1),), priority=()))
    assert not result.ok and "bad-priority-permutation" in result.error


def test_position_examples():
    profile = make_profile(3, [[2, 0, 1]])
    assert position(profile, 0, 2) == 1
    assert position(profile, 0, 0) == 2
    assert position(profile, 0, 1) == 3


def test_position_identity_ranking():
    m = 6
    profile = make_profile(m, [list(range(m))])
    for c in range(m):
        assert position(profile, 0, c) == c + 1


def test_position_out_of_range():
    profile = make_profile(2, [[0, 1]])
    with pytest.raises(IndexError):
        position(profile, 1, 0)
    with pytest.raises(IndexError):
        position(profile, 0, 2)


def test_position_is_bijection_per_voter():
    rng = random.Random(42)
    for _ in range(25):
        m = rng.randint(1, 8)
        rankings = []
        for _ in range(rng.randint(1, 5)):
            order = list(range(m))
            rng.shuffle(order)
            rankings.append(order)
        profile = make_profile(m, rankings)
        for v in range(profile.n):
            assert {position(profile, v, c) for c in range(m)} == set(range(1, m + 1))


def test_single_entry_mutation_flips_verdict():
    # overwriting any one entry with another candidate creates a duplicate
    rng = random.Random(3)
    base = make_profile(5, [rng.sample(range(5), 5) for _ in range(4)])
    assert validate_profile(base).ok
    for v in range(base.n):
        for idx in range(base.m):
            mutated = [list(r) for r in base.rankings]
            mutated[v][idx] = mutated[v][(idx + 1) % base.m]
            broken = PreferenceProfile(m=5, rankings=tuple(tuple(r) for r in mutated))
            assert not validate_profile(broken).ok


def test_committee_sorted_and_distinct():
    committee = Committee([3, 0, 2])
    assert committee.members == (0, 2, 3)
    assert committee.k == 3
    assert 2 in committee
    with pytest.raises(ProfileError):
        Committee([1, 1])


def test_out_of_range_candidate_is_named():
    profile = PreferenceProfile(m=3, rankings=((0, 1, 2), (0, 1, 99)))
    result = validate_profile(profile)
    assert not result.ok
    assert result.error == "candidate-out-of-range: voter 1 ranks candidate 99"

import itertools
import random
from fractions import Fraction

import pytest

from dire.constraints import (
    Attribute,
    AttributeScheme,
    DiReInstance,
    InstanceError,
    holders,
    make_instance,
    satisfies,
    unsatisfied_fraction,
)
from dire.profiles import make_profile
from dire.rules import betacc, kborda, monroe
from conftest import random_instance


def test_example1_satisfies_cases(example1):
    assert satisfies(example1, (1, 2)).ok
    bad_gender = satisfies(example1, (0, 1))
    assert not bad_gender.ok
    assert bad_gender.violations == (("D:gender:female", 1),)
    bad_state = satisfies(example1, (0, 2))
    assert not bad_state.ok
    assert bad_state.violations == (("R:state:IL", 1),)


def test_satisfies_rejects_wrong_size(example1):
    with pytest.raises(InstanceError):
        satisfies(example1, (0, 1, 2))


def test_committee_checks_reject_a_repeated_id(example1):
    # (1, 1, 2) at k = 2 was once checked as the committee {1, 2}
    for check in (satisfies, unsatisfied_fraction):
        with pytest.raises(InstanceError, match="repeats a candidate id"):
            check(example1, (1, 1, 2))
        check(example1, (1, 2))


def test_unsatisfied_fraction_examples(example1):
    assert unsatisfied_fraction(example1, (1, 2)) == 0
    assert unsatisfied_fraction(example1, (0, 1)) == Fraction(1, 4)


def test_unsatisfied_fraction_builds_the_constraints_once(example1, monkeypatch):
    calls = []
    constraints = DiReInstance.constraints
    monkeypatch.setattr(DiReInstance, "constraints", lambda self: calls.append(1) or constraints(self))
    assert unsatisfied_fraction(example1, (0, 1)) == Fraction(1, 4)
    assert len(calls) == 1
    with pytest.raises(InstanceError):
        unsatisfied_fraction(example1, (0, 1, 2))


def test_unsatisfied_fraction_vacuous():
    profile = make_profile(3, [[0, 1, 2]])
    instance = make_instance(profile, AttributeScheme(), k=2)
    assert unsatisfied_fraction(instance, (0, 1)) == 0
    # with no constraint to count, the committee is still checked
    for bad in ((0, 3), (0, 1, 2)):
        with pytest.raises(InstanceError):
            unsatisfied_fraction(instance, bad)


def test_satisfies_iff_fraction_zero():
    for seed in range(15):
        instance = random_instance(seed)
        for combo in itertools.islice(itertools.combinations(range(instance.m), instance.k), 40):
            ok = satisfies(instance, combo).ok
            assert ok == (unsatisfied_fraction(instance, combo) == 0)


def _packed_instance(bounds, k):
    profile = make_profile(4, [[0, 1, 2, 3], [3, 2, 1, 0]])
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0, 1], "g2": [2, 3]}),)
    )
    return make_instance(
        profile,
        scheme,
        k=k,
        diversity_bounds={("A", "g1"): bounds[0], ("A", "g2"): bounds[1]},
    )


@pytest.mark.parametrize("bad", [-1, 4])
def test_committee_ids_outside_the_candidates_rejected(bad):
    # both bounds met by 0 and 2, so the third id once passed unchecked:
    # satisfies said ok and the fraction read 0
    instance = _packed_instance((1, 1), k=3)
    assert satisfies(instance, [0, 2, 3]).ok
    for check in (satisfies, unsatisfied_fraction):
        with pytest.raises(InstanceError, match=r"outside \[0, 4\)"):
            check(instance, [0, 2, bad])


def test_overpacked_attribute_has_no_feasible_committee():
    instance = _packed_instance((2, 1), k=2)
    for combo in itertools.combinations(range(instance.m), instance.k):
        assert not satisfies(instance, combo).ok


def test_zero_bound_rejected_without_flag():
    profile = make_profile(4, [[0, 1, 2, 3]])
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0, 1], "g2": [2, 3]}),)
    )
    bounds = {("A", "g1"): 0, ("A", "g2"): 1}
    with pytest.raises(InstanceError):
        make_instance(profile, scheme, k=2, diversity_bounds=bounds)
    instance = make_instance(profile, scheme, k=2, diversity_bounds=bounds, allow_zero_bounds=True)
    # the zero-bound group is not an active constraint
    assert [c.key for c in instance.constraints()] == ["D:A:g2"]


def test_bound_above_group_size_rejected():
    profile = make_profile(4, [[0, 1, 2, 3]])
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("A", {"g1": [0], "g2": [1, 2, 3]}),)
    )
    with pytest.raises(InstanceError):
        make_instance(profile, scheme, k=2, diversity_bounds={("A", "g1"): 2, ("A", "g2"): 1})


def test_representation_bound_above_k_rejected():
    profile = make_profile(4, [[0, 1, 2, 3]] * 2)
    scheme = AttributeScheme(voter_attributes=(Attribute("B", {"p1": [0], "p2": [1]}),))
    with pytest.raises(InstanceError):
        make_instance(profile, scheme, k=2,
                      representation_bounds={("B", "p1"): 3, ("B", "p2"): 1})


@pytest.mark.parametrize("rule", [kborda(), betacc(), monroe()], ids=lambda r: r.kind)
def test_bad_committee_size_or_scheme_rejected_before_the_winner_search(rule):
    profile = make_profile(3, [[0, 1, 2], [2, 1, 0]])
    scheme = AttributeScheme(voter_attributes=(Attribute("B", {"p1": [0, 1]}),))
    for k in (0, 4):
        with pytest.raises(InstanceError, match="committee size"):
            make_instance(profile, scheme, k=k, rule=rule, representation_bounds={("B", "p1"): 1})
    stray = AttributeScheme(voter_attributes=(Attribute("B", {"p1": [0, 1, 2]}),))
    with pytest.raises(InstanceError, match="out-of-range"):
        make_instance(profile, stray, k=2, rule=rule, representation_bounds={("B", "p1"): 1})


def test_overlapping_groups_within_attribute_rejected():
    with pytest.raises(InstanceError, match="two groups"):
        Attribute("A", {"g1": [0, 1], "g2": [1, 2]}).validate_partition(3, "candidate")


def test_partition_must_cover_everyone():
    with pytest.raises(InstanceError, match="does not cover"):
        Attribute("A", {"g1": [0]}).validate_partition(2, "candidate")


def test_winning_committee_size_enforced(example1):
    profile = make_profile(4, [[0, 1, 2, 3]] * 2)
    scheme = AttributeScheme(voter_attributes=(Attribute("B", {"p1": [0], "p2": [1]}),))
    with pytest.raises(InstanceError, match="size"):
        make_instance(
            profile,
            scheme,
            k=2,
            representation_bounds={("B", "p1"): 1, ("B", "p2"): 1},
            winning_committees={("B", "p1"): (0,), ("B", "p2"): (0, 1)},
        )


def test_winning_committees_materialized(example1):
    assert example1.winning_committees == {
        ("state", "CA"): (0, 1),
        ("state", "IL"): (1, 3),
    }


def test_supplied_winning_committee_kept():
    profile = make_profile(4, [[0, 1, 2, 3]] * 2)
    scheme = AttributeScheme(voter_attributes=(Attribute("B", {"p1": [0], "p2": [1]}),))
    instance = make_instance(
        profile,
        scheme,
        k=2,
        representation_bounds={("B", "p1"): 1, ("B", "p2"): 1},
        winning_committees={("B", "p1"): (2, 3)},  # pinned, p2 computed
    )
    assert instance.winning_committees[("B", "p1")] == (2, 3)
    assert instance.winning_committees[("B", "p2")] == (0, 1)


def test_constraint_keys_are_stable(example1):
    assert [c.key for c in example1.constraints()] == [
        "D:gender:male",
        "D:gender:female",
        "R:state:CA",
        "R:state:IL",
    ]


def test_constraints_are_built_once_per_instance(example1):
    assert example1.constraints() is example1.constraints()


def test_holders_match_a_membership_scan():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(1, 12)
        domains = [frozenset(rng.sample(range(m), rng.randint(0, m)))
                   for _ in range(rng.randint(0, 6))]
        expected = [tuple(i for i, domain in enumerate(domains) if c in domain) for c in range(m)]
        assert holders(domains, m) == expected

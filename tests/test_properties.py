"""Property tests: the feasibility search against the brute-force feasible set.

They need hypothesis and are skipped where it is not installed.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from conftest import brute_force_feasible_set
from dire.constraints import Attribute, AttributeScheme, make_instance
from dire.profiles import make_profile
from dire.rules import RULE_KINDS, Rule
from dire.solver import SolverConfig, solve_feasibility


@st.composite
def partitions(draw, count, prefix):
    """A partition of range(count) into at most three labelled groups."""
    labels = draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
    groups = {}
    for entity, label in enumerate(labels):
        groups.setdefault(f"{prefix}{label}", []).append(entity)
    return groups


@st.composite
def instances(draw):
    """Small instances (m <= 8, n <= 6) with up to two candidate and two
    voter attributes; bounds range over everything the model accepts."""
    m = draw(st.integers(2, 8))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(4, m)))
    rankings = draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n))
    cand_attrs, diversity = [], {}
    for a in range(draw(st.integers(0, 2))):
        attr = Attribute(f"A{a}", draw(partitions(m, "g")))
        cand_attrs.append(attr)
        for label, members in attr.groups:
            diversity[(attr.name, label)] = draw(st.integers(1, min(k, len(members))))
    voter_attrs, representation = [], {}
    for b in range(draw(st.integers(0, 2))):
        attr = Attribute(f"B{b}", draw(partitions(n, "p")))
        voter_attrs.append(attr)
        for label, _ in attr.groups:
            representation[(attr.name, label)] = draw(st.integers(1, k))
    return make_instance(
        make_profile(m, rankings),
        AttributeScheme(tuple(cand_attrs), tuple(voter_attrs)),
        k=k,
        rule=Rule(draw(st.sampled_from(RULE_KINDS))),
        diversity_bounds=diversity,
        representation_bounds=representation,
    )


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from([1, 2, 3, 100_000]))
def test_default_mode_harvest_is_sound_and_capped(instance, max_committees):
    expected = set(brute_force_feasible_set(instance))
    result = solve_feasibility(instance, SolverConfig(timeout=60, max_committees=max_committees))
    assert len(set(result.committees)) == len(result.committees)
    assert set(result.committees) <= expected
    assert len(result.committees) <= max_committees
    assert result.proven_infeasible == (not expected)
    assert not result.timed_out


@settings(max_examples=150, deadline=None)
@given(instances())
def test_exhaustive_mode_returns_the_brute_force_set(instance):
    expected = brute_force_feasible_set(instance)
    result = solve_feasibility(instance, SolverConfig(timeout=60), exhaustive=True)
    assert sorted(result.committees) == expected
    assert result.complete
    assert result.proven_infeasible == (not expected)

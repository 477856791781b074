import itertools
import random

import pytest

from dire.constraints import Attribute, AttributeScheme, make_instance
from dire.profiles import make_profile
from dire.rules import Rule, kborda


def build_example1():
    """The four-candidate, four-voter golden fixture.

    Candidates c1..c4 are ids 0..3; voters 0-1 are California, 2-3 are
    Illinois.  Candidate Borda scores come out 9/8/4/3, the California
    winning pair is {c1, c2} and the Illinois pair is {c2, c4}.  The
    Illinois sub-election ties c1 with c4, so the fixture pins a priority
    order preferring c4.
    """
    profile = make_profile(
        4,
        [[0, 1, 2, 3], [0, 1, 2, 3], [3, 0, 1, 2], [1, 2, 0, 3]],
        priority=[1, 3, 0, 2],
    )
    scheme = AttributeScheme(
        candidate_attributes=(Attribute("gender", {"male": [0, 1], "female": [2, 3]}),),
        voter_attributes=(Attribute("state", {"CA": [0, 1], "IL": [2, 3]}),),
    )
    return make_instance(
        profile,
        scheme,
        k=2,
        rule=kborda(),
        diversity_bounds={("gender", "male"): 1, ("gender", "female"): 1},
        representation_bounds={("state", "CA"): 1, ("state", "IL"): 1},
    )


@pytest.fixture(scope="session")
def example1():
    return build_example1()


def random_partition(rng, count, max_groups):
    """Partition range(count) into 2..max_groups nonempty groups."""
    q = rng.randint(2, max(2, min(max_groups, count)))
    entities = list(range(count))
    rng.shuffle(entities)
    cuts = sorted(rng.sample(range(1, count), q - 1))
    starts = [0] + cuts
    ends = cuts + [count]
    return [sorted(entities[a:b]) for a, b in zip(starts, ends)]


def random_instance(seed, m=None, n=None, k=None, mu=None, pi=None, rule=None,
                    unit_rep_bounds=False):
    """Seeded random instance in the oracle-scale regime (m<=10, n<=8, k<=4)."""
    rng = random.Random(seed)
    m = m if m is not None else rng.randint(4, 10)
    n = n if n is not None else rng.randint(2, 8)
    k = k if k is not None else rng.randint(1, min(4, m))
    mu = mu if mu is not None else rng.randint(0, 2)
    pi = pi if pi is not None else rng.randint(0, 2)
    rule = rule or Rule(rng.choice(["kborda", "betacc", "monroe"]))

    rankings = []
    for _ in range(n):
        order = list(range(m))
        rng.shuffle(order)
        rankings.append(order)
    profile = make_profile(m, rankings)

    cand_attrs = []
    diversity = {}
    for a in range(mu):
        groups = random_partition(rng, m, max(2, k))
        attr = Attribute(f"A{a + 1}", {f"g{i + 1}": g for i, g in enumerate(groups)})
        cand_attrs.append(attr)
        for label, members in attr.groups:
            diversity[(attr.name, label)] = rng.randint(1, min(k, len(members)))
    voter_attrs = []
    representation = {}
    for b in range(pi):
        if n < 2:
            break
        groups = random_partition(rng, n, max(2, k))
        attr = Attribute(f"B{b + 1}", {f"p{i + 1}": g for i, g in enumerate(groups)})
        voter_attrs.append(attr)
        for label, _ in attr.groups:
            representation[(attr.name, label)] = 1 if unit_rep_bounds else rng.randint(1, k)

    return make_instance(
        profile=profile,
        scheme=AttributeScheme(tuple(cand_attrs), tuple(voter_attrs)),
        k=k,
        rule=rule,
        diversity_bounds=diversity,
        representation_bounds=representation,
    )


def brute_force_feasible_set(instance):
    """Independent enumeration straight from the constraint definitions."""
    feasible = []
    constraints = [(set(c.domain), c.bound) for c in instance.constraints()]
    for combo in itertools.combinations(range(instance.m), instance.k):
        members = set(combo)
        if all(len(members & domain) >= bound for domain, bound in constraints):
            feasible.append(combo)
    return feasible


def brute_force_graph_set(graph):
    """The k-subsets meeting every domain and bound of a constraint graph,
    such as one whose domains preprocessing narrowed."""
    constraints = list(zip(graph.domains, graph.bounds))
    return [combo for combo in itertools.combinations(range(graph.m), graph.k)
            if all(len(domain.intersection(combo)) >= bound for domain, bound in constraints)]

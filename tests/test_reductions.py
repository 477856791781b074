from collections import Counter

import pytest

from dire.reductions import (
    InputGraph,
    ReductionError,
    parse_graph,
    reduce_vc_cc,
    reduce_vc_diversity,
    reduce_vc_representation,
)
from dire.rules import borda_vector, candidate_scores, unconstrained_winner
from scoring_reference import brute_force_oracle, has_vertex_cover, min_vertex_cover_size

TRIANGLE = InputGraph(3, [(0, 1), (0, 2), (1, 2)])
P3 = InputGraph(3, [(0, 1), (1, 2)])
TWO_EDGES = InputGraph(4, [(0, 1), (2, 3)])
K4 = InputGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
C5 = InputGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
K33 = InputGraph(6, [(u, v + 3) for u in range(3) for v in range(3)])


def test_input_graph_validation():
    with pytest.raises(ReductionError):
        InputGraph(3, [(0, 0)])
    with pytest.raises(ReductionError):
        InputGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(ReductionError):
        InputGraph(2, [(0, 2)])


def test_three_regular_flag():
    assert K4.is_3_regular
    assert K33.is_3_regular
    assert not P3.is_3_regular
    # degree sum 3V, but vertex 4 has degree 4 and vertex 1 degree 2
    lopsided = InputGraph(6, [edge for edge in K33.edges if edge != (1, 3)] + [(3, 4)])
    assert sum(len(edge) for edge in lopsided.edges) == 3 * lopsided.vertices
    assert not lopsided.is_3_regular


def test_graph_text_round_trip():
    text = "# K4\n4 6\n0 1\n0 2\n0 3\n\n1 2\n1 3\n2 3\n"
    assert parse_graph(text) == K4


def test_parse_graph_errors():
    with pytest.raises(ReductionError):
        parse_graph("")
    with pytest.raises(ReductionError):
        parse_graph("2 1\n")  # missing edge line
    with pytest.raises(ReductionError):
        parse_graph("nope\n")


def test_exhaustive_vertex_cover_sizes():
    assert min_vertex_cover_size(TRIANGLE) == 2
    assert min_vertex_cover_size(P3) == 1
    assert min_vertex_cover_size(TWO_EDGES) == 2
    assert min_vertex_cover_size(K4) == 3
    assert min_vertex_cover_size(C5) == 3
    assert min_vertex_cover_size(K33) == 3


@pytest.mark.parametrize("graph", [TRIANGLE, P3, TWO_EDGES, K4, C5])
@pytest.mark.parametrize("k", [2, 3])
def test_representation_reduction_round_trip(graph, k):
    artifact = reduce_vc_representation(graph, pi=1, k=k)
    feasible = brute_force_oracle(artifact.instance).status == "optimal"
    assert feasible == has_vertex_cover(graph, k)


def test_representation_reduction_shape():
    artifact = reduce_vc_representation(TRIANGLE, pi=1, k=2)
    instance = artifact.instance
    mg, ne = 3, 3
    assert instance.m == mg + ne * mg
    assert instance.n == ne * ne
    assert instance.pi == 1 and instance.mu == 0
    assert set(instance.representation_bounds.values()) == {1}
    # every winning committee is the edge's endpoints (k = 2)
    for (u, v), pops in artifact.edge_to_populations.items():
        for key in pops:
            attr, label = key.split(":")
            assert instance.winning_committees[(attr, label)] == (u, v)


def test_representation_reduction_supplied_committees_match_rule():
    # the pinned winning committees coincide with what the rule computes
    artifact = reduce_vc_representation(P3, pi=2, k=3)
    instance = artifact.instance
    from dire.rules import population_winning_committee

    for attr in instance.scheme.voter_attributes:
        for label, voters in attr.groups:
            computed = population_winning_committee(instance.profile, voters, instance.rule, instance.k)
            assert computed.members == tuple(sorted(instance.winning_committees[(attr.name, label)]))


def test_representation_reduction_multiple_attributes():
    artifact = reduce_vc_representation(TRIANGLE, pi=2, k=2)
    instance = artifact.instance
    assert instance.pi == 2
    feasible = brute_force_oracle(instance).status == "optimal"
    assert feasible  # triangle has a 2-cover


def _prism(n):
    return InputGraph(2 * n, [(i, (i + 1) % n) for i in range(n)]
                      + [(n + i, n + (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)])


def _moebius_ladder(vertices):
    return InputGraph(vertices, [(i, (i + 1) % vertices) for i in range(vertices)]
                      + [(i, i + vertices // 2) for i in range(vertices // 2)])


PETERSEN = InputGraph(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)])


def _representation_reference(graph, pi, k):
    """Rankings, populations, winning committees and bounds of the
    representation reduction, each block ranking built by filtering lists."""
    mg, ne = graph.vertices, len(graph.edges)
    all_dummies = list(range(mg, mg + ne * mg))
    rankings, populations, winning = [], {}, {}
    for a, (u, v) in enumerate(graph.edges):
        t2 = list(range(mg + a * mg, mg + (a + 1) * mg))
        t3 = [c for c in range(mg) if c not in (u, v)]
        t4 = [d for d in all_dummies if d not in t2]
        rankings.extend([tuple([u, v] + t2 + t3 + t4)] * ne)
        for x in range(1, pi + 1):
            for r in range(x):
                voters = [a * ne + z for z in range(ne) if z % x == r]
                if voters:
                    populations[(f"vattr{x}", f"e{a}m{r}")] = tuple(voters)
                    winning[(f"vattr{x}", f"e{a}m{r}")] = tuple(([u, v] + t2)[:k])
    return tuple(rankings), populations, winning, dict.fromkeys(winning, 1)


@pytest.mark.parametrize("graph", [_prism(4), _moebius_ladder(8), _prism(5), _moebius_ladder(10), PETERSEN,
                                   _prism(6), _moebius_ladder(12)])
def test_representation_reduction_matches_the_list_build_on_cubic_graphs(graph):
    assert graph.is_3_regular
    cover = min_vertex_cover_size(graph)
    for k in (cover - 1, cover):
        for pi in (1, 2):
            instance = reduce_vc_representation(graph, pi=pi, k=k).instance
            rankings, populations, winning, bounds = _representation_reference(graph, pi, k)
            assert instance.profile.rankings == rankings
            assert {(attr.name, label): voters for attr in instance.scheme.voter_attributes
                    for label, voters in attr.groups} == populations
            assert instance.winning_committees == winning
            assert instance.representation_bounds == bounds


def test_representation_reduction_preconditions():
    with pytest.raises(ReductionError):
        reduce_vc_representation(TRIANGLE, pi=0, k=2)
    with pytest.raises(ReductionError):
        reduce_vc_representation(TRIANGLE, pi=4, k=2)  # pi > edge count
    with pytest.raises(ReductionError):
        reduce_vc_representation(TRIANGLE, pi=1, k=1)  # construction needs k >= 2
    with pytest.raises(ReductionError):
        reduce_vc_representation(InputGraph(3, []), pi=1, k=2)


@pytest.mark.parametrize("graph", [TRIANGLE, P3, TWO_EDGES, K4, C5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cc_reduction_round_trip(graph, k):
    artifact = reduce_vc_cc(graph, k)
    best = unconstrained_winner(artifact.instance.profile, artifact.instance.rule, k)
    assert (best.score == artifact.zero_misrepresentation_score) == has_vertex_cover(graph, k)


def test_cc_reduction_single_edge():
    single = InputGraph(2, [(0, 1)])
    artifact = reduce_vc_cc(single, 1)
    for endpoint in (0, 1):
        from dire.rules import score_committee

        assert (
            score_committee(artifact.instance.profile, artifact.instance.rule, (endpoint,))
            == artifact.zero_misrepresentation_score
        )


def test_cc_reduction_star_center():
    star = InputGraph(4, [(0, 1), (0, 2), (0, 3)])
    artifact = reduce_vc_cc(star, 1)
    best = unconstrained_winner(artifact.instance.profile, artifact.instance.rule, 1)
    assert best.committee.members == (0,)
    assert best.score == artifact.zero_misrepresentation_score


def test_cc_reduction_scoring_vector_ties_top_two():
    artifact = reduce_vc_cc(C5, 2)
    vector = artifact.instance.rule.scoring
    assert vector[0] == vector[1]
    assert vector[1] > vector[2]
    assert all(vector[i] >= vector[i + 1] for i in range(len(vector) - 1))


@pytest.mark.parametrize("graph", [K4, K33])
@pytest.mark.parametrize("k", [2, 3])
def test_diversity_reduction_round_trip_mu3(graph, k):
    artifact = reduce_vc_diversity(graph, mu=3, k=k)
    assert artifact.target_size == k  # no dummies at mu = 3
    feasible = brute_force_oracle(artifact.instance).status == "optimal"
    assert feasible == has_vertex_cover(graph, k)


def test_diversity_reduction_mu3_candidate_count():
    artifact = reduce_vc_diversity(K4, mu=3, k=2)
    assert artifact.instance.m == 4  # dummy count m*(2*9 - 21 + 3) = 0


def test_diversity_reduction_mu5_formulas():
    artifact = reduce_vc_diversity(K4, mu=5, k=2)
    assert artifact.instance.m == 4 + 4 * 18  # 76 candidates
    assert artifact.target_size == 2 + 100 - 60  # 42 seats


def test_diversity_reduction_even_mu_formulas():
    artifact = reduce_vc_diversity(K4, mu=4, k=2)
    assert artifact.instance.m == 2 * 4 + 2 * 4 * 7  # doubled construction
    assert artifact.target_size == 2 * 2 + 2 * 4 * 16 - 6 * 4 * 4


def _real_group_membership(instance):
    counts = Counter()
    for attr in instance.scheme.candidate_attributes:
        for label, members in attr.groups:
            if instance.diversity_bounds[(attr.name, label)] >= 1:
                for c in members:
                    counts[c] += 1
    return counts


@pytest.mark.parametrize("mu", [3, 4, 5])
def test_diversity_reduction_membership_invariant(mu):
    artifact = reduce_vc_diversity(K4, mu=mu, k=2)
    counts = _real_group_membership(artifact.instance)
    assert set(counts.values()) == {mu}
    assert len(counts) == artifact.instance.m


def test_diversity_reduction_equal_scores():
    artifact = reduce_vc_diversity(K33, mu=3, k=3)
    profile = artifact.instance.profile
    vector = borda_vector(profile.m)
    scores = set(candidate_scores(profile, vector))
    assert len(scores) == 1


def test_diversity_reduction_attributes_are_partitions():
    artifact = reduce_vc_diversity(K33, mu=5, k=2, seed=9)
    attributes = artifact.instance.scheme.candidate_attributes
    for attr in attributes:
        assert sorted(c for _, members in attr.groups for c in members) == list(range(artifact.instance.m))
    assert artifact.attributes_used == len(attributes) >= 5


def test_diversity_reduction_deterministic():
    from dire.fileio import dumps_instance

    a = reduce_vc_diversity(K4, mu=5, k=2, seed=3)
    b = reduce_vc_diversity(K4, mu=5, k=2, seed=3)
    assert dumps_instance(a.instance) == dumps_instance(b.instance)


def test_diversity_reduction_preconditions():
    with pytest.raises(ReductionError):
        reduce_vc_diversity(P3, mu=3, k=1)  # not 3-regular
    with pytest.raises(ReductionError):
        reduce_vc_diversity(K4, mu=2, k=2)  # mu too small
    with pytest.raises(ReductionError):
        reduce_vc_diversity(K4, mu=3, k=9)  # cover budget too large


def test_sidecar_maps():
    div = reduce_vc_diversity(K4, mu=3, k=2)
    assert div.vertex_to_candidate == {0: (0,), 1: (1,), 2: (2,), 3: (3,)}
    assert set(div.edge_to_groups) == set(K4.edges)
    rep = reduce_vc_representation(TRIANGLE, pi=1, k=2)
    assert rep.vertex_to_candidate == {0: 0, 1: 1, 2: 2}
    cc = reduce_vc_cc(TRIANGLE, 2)
    assert cc.zero_misrepresentation_score == 3 * 2

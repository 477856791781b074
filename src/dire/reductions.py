"""Instance generators that embed vertex-cover questions.

Each generator maps a graph to an instance whose feasibility (or, for the
misrepresentation variant, whose attainable score) answers "does the graph
have a vertex cover of size at most k".  They are used to produce hard
benchmark instances and, against an exhaustive cover search in the tests,
to sanity-check the solvers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from dire.constraints import Attribute, AttributeScheme, DiReInstance, make_instance
from dire.profiles import PreferenceProfile
from dire.rules import betacc, kborda


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class InputGraph:
    """Simple undirected graph: vertex count plus unordered edge pairs."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertices: int, edges):
        normalized = []
        seen = set()
        for u, v in edges:
            if u == v:
                raise ReductionError(f"self-loop at vertex {u}")
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise ReductionError(f"edge ({u}, {v}) out of range for {vertices} vertices")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ReductionError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def is_3_regular(self) -> bool:
        degrees = [0] * self.vertices
        for edge in self.edges:
            for vertex in edge:
                degrees[vertex] += 1
        return all(degree == 3 for degree in degrees)


def parse_graph(text: str) -> InputGraph:
    """Read the plain text format: first line "V E", then E lines "u v" (0-based)."""
    lines = [line.strip() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    if not lines:
        raise ReductionError("empty graph file")
    try:
        v_count, e_count = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise ReductionError(f"bad graph header {lines[0]!r}") from exc
    if len(lines) - 1 != e_count:
        raise ReductionError(f"header promises {e_count} edges, file has {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        try:
            u, v = (int(x) for x in line.split())
        except ValueError as exc:
            raise ReductionError(f"bad edge line {line!r}") from exc
        edges.append((u, v))
    return InputGraph(v_count, edges)


def _cyclic_profile(m: int) -> PreferenceProfile:
    """m voters, voter t ranking candidates t, t+1, ... (wrapping).

    Every candidate occupies every position exactly once, so all positional
    scores coincide and feasibility alone decides the instance.
    """
    rankings = tuple(tuple((t + i) % m for i in range(m)) for t in range(m))
    return PreferenceProfile(m=m, rankings=rankings)


def _pack_into_attributes(groups: list[tuple[str, tuple[int, ...]]], m: int):
    """Pack groups into attributes so groups within one attribute are disjoint.

    Each attribute is completed into a partition of all candidates by a
    zero-bound filler group over the uncovered rest (a no-op constraint).
    Returns (attributes, diversity bounds).
    """
    buckets: list[list[tuple[str, tuple[int, ...]]]] = []
    bucket_cover: list[set[int]] = []
    for label, members in groups:
        placed = False
        for idx, cover in enumerate(bucket_cover):
            if not cover & set(members):
                buckets[idx].append((label, members))
                cover |= set(members)
                placed = True
                break
        if not placed:
            buckets.append([(label, members)])
            bucket_cover.append(set(members))
    attributes = []
    bounds: dict[tuple[str, str], int] = {}
    for idx, (bucket, cover) in enumerate(zip(buckets, bucket_cover)):
        name = f"attr{idx + 1}"
        group_map = {label: members for label, members in bucket}
        for label in group_map:
            bounds[(name, label)] = 1
        rest = tuple(sorted(set(range(m)) - cover))
        if rest:
            group_map["rest"] = rest
            bounds[(name, "rest")] = 0
        attributes.append(Attribute(name, group_map))
    return tuple(attributes), bounds


@dataclass(frozen=True)
class DiversityReduction:
    instance: DiReInstance
    target_size: int
    vertex_to_candidate: dict[int, tuple[int, ...]]
    edge_to_groups: dict[tuple[int, int], tuple[str, ...]]
    attributes_used: int


def _dummy_blocks(host_candidates, mu, next_id, rng, groups, cross_leftovers):
    """Allocate the dummy blocks for each host candidate and wire their groups.

    Returns the next free candidate id.  For even mu, one member of each
    block's tail set stays unpaired and is appended to ``cross_leftovers``
    for later cross-block pairing.
    """
    odd = mu % 2 == 1
    tail = mu - 1
    for host in host_candidates:
        for block in range(mu - 3):
            t1 = next_id
            t2 = list(range(next_id + 1, next_id + 1 + tail))
            t3 = list(range(next_id + 1 + tail, next_id + 1 + 2 * tail))
            next_id += 2 * tail + 1
            groups.append((f"b{host}.{block}.host", (host, t1)))
            for i, d2 in enumerate(t2):
                groups.append((f"b{host}.{block}.t12.{i}", (t1, d2)))
            for i, d2 in enumerate(t2):
                for j, d3 in enumerate(t3):
                    groups.append((f"b{host}.{block}.t23.{i}.{j}", (d2, d3)))
            pool = list(t3)
            rng.shuffle(pool)
            paired = pool if odd else pool[:-1]
            half = len(paired) // 2
            for x, (a, b) in enumerate(zip(paired[:half], paired[half:])):
                groups.append((f"b{host}.{block}.t3pair.{x}", tuple(sorted((a, b)))))
            if not odd:
                cross_leftovers.append((host, block, pool[-1]))
    return next_id


def reduce_vc_diversity(graph: InputGraph, mu: int, k: int, seed: int = 0) -> DiversityReduction:
    """Diversity-constrained instance from a 3-regular graph, for mu >= 3.

    Vertices become candidates and edges become two-member groups, so with
    all bounds at 1 a feasible committee must contain a vertex cover.  For
    mu > 3 each vertex candidate gains mu-3 blocks of dummy candidates
    whose pairing pattern keeps every candidate in exactly mu groups; the
    committee size grows by the seats those blocks always consume.  The
    even-mu variant duplicates the graph and pairs each block's leftover
    dummy with its twin block's leftover.
    """
    if mu < 3:
        raise ReductionError(f"diversity reduction needs mu >= 3, got {mu}")
    if not graph.is_3_regular:
        raise ReductionError("diversity reduction needs a 3-regular graph")
    if not 1 <= k <= graph.vertices:
        raise ReductionError(f"cover budget {k} out of range [1, {graph.vertices}]")
    rng = random.Random(seed)
    mg = graph.vertices
    odd = mu % 2 == 1
    copies = 1 if odd else 2
    dummies_per_host = (mu - 3) * (2 * mu - 1)  # equals 2*mu^2 - 7*mu + 3
    total = copies * mg + copies * mg * dummies_per_host
    target = k + mg * mu * (mu - 3) if odd else 2 * k + 2 * mg * mu * (mu - 3)

    groups: list[tuple[str, tuple[int, ...]]] = []
    edge_to_groups: dict[tuple[int, int], tuple[str, ...]] = {}
    for idx, (u, v) in enumerate(graph.edges):
        keys = [f"edge{idx}"]
        groups.append((f"edge{idx}", (u, v)))
        if not odd:
            keys.append(f"edge{idx}.twin")
            groups.append((f"edge{idx}.twin", (mg + u, mg + v)))
        edge_to_groups[(u, v)] = tuple(keys)

    hosts = list(range(copies * mg))
    cross_leftovers: list[tuple[int, int, int]] = []
    next_id = _dummy_blocks(hosts, mu, copies * mg, rng, groups, cross_leftovers)
    if next_id != total:
        raise ReductionError(f"internal error: allocated {next_id} candidates, expected {total}")
    if not odd:
        # pair the leftover of block b of c_i with the leftover of block b of c_{m+i}
        leftover_of = {(host, block): cand for host, block, cand in cross_leftovers}
        for i in range(mg):
            for block in range(mu - 3):
                a = leftover_of[(i, block)]
                b = leftover_of[(mg + i, block)]
                groups.append((f"cross.{i}.{block}", tuple(sorted((a, b)))))

    membership = {c: 0 for c in range(total)}
    for _, members in groups:
        for c in members:
            membership[c] += 1
    wrong = {c: cnt for c, cnt in membership.items() if cnt != mu}
    if wrong:
        raise ReductionError(f"internal error: candidates with group count != mu: {wrong}")

    attributes, bounds = _pack_into_attributes(groups, total)
    instance = make_instance(
        profile=_cyclic_profile(total),
        scheme=AttributeScheme(candidate_attributes=attributes),
        k=target,
        rule=kborda(),
        diversity_bounds=bounds,
        allow_zero_bounds=True,
    )
    vertex_map = {
        v: ((v,) if odd else (v, mg + v)) for v in range(mg)
    }
    return DiversityReduction(instance, target, vertex_map, edge_to_groups, len(attributes))


@dataclass(frozen=True)
class RepresentationReduction:
    instance: DiReInstance
    vertex_to_candidate: dict[int, int]
    edge_to_populations: dict[tuple[int, int], tuple[str, ...]]


def reduce_vc_representation(graph: InputGraph, pi: int, k: int) -> RepresentationReduction:
    """Representation-constrained instance from any simple graph, unit bounds.

    One candidate per vertex plus a private block of dummies per edge; each
    edge gets a block of identical voters ranking its endpoints on top,
    then its private dummies.  Every population's winning committee is
    therefore its endpoints plus private dummies, so a committee hits all
    populations exactly when its vertex candidates cover every edge.
    Requires k >= 2 so both endpoints sit inside the winning committees.
    """
    mg, ne = graph.vertices, len(graph.edges)
    if ne == 0:
        raise ReductionError("representation reduction needs at least one edge")
    if pi < 1:
        raise ReductionError(f"needs pi >= 1, got {pi}")
    if pi > ne:
        raise ReductionError(f"needs pi <= edge count {ne} for nonempty populations, got {pi}")
    if not 2 <= k <= mg + 2:
        raise ReductionError(f"cover budget k must be in [2, vertices + 2], got {k}")

    total = mg + ne * mg
    # edge a: its endpoints, its private dummies, the other vertices, then
    # the dummies before and after its private block
    blocks = []
    for a, (u, v) in enumerate(graph.edges):
        lo, hi = mg + a * mg, mg + (a + 1) * mg
        blocks.append((u, v, *range(lo, hi), *(c for c in range(mg) if c not in (u, v)),
                       *range(mg, lo), *range(hi, total)))
    profile = PreferenceProfile(m=total, rankings=tuple(r for r in blocks for _ in range(ne)))

    attributes = []
    rep_bounds: dict[tuple[str, str], int] = {}
    winning: dict[tuple[str, str], tuple[int, ...]] = {}
    edge_to_populations: dict[tuple[int, int], list[str]] = {e: [] for e in graph.edges}
    for x in range(1, pi + 1):
        name = f"vattr{x}"
        populations: dict[str, list[int]] = {}
        for a, edge in enumerate(graph.edges):
            for r in range(x):
                voters = [a * ne + z for z in range(ne) if z % x == r]
                if not voters:
                    continue
                label = f"e{a}m{r}"
                populations[label] = voters
                winning[(name, label)] = blocks[a][:k]
                rep_bounds[(name, label)] = 1
                edge_to_populations[edge].append(f"{name}:{label}")
        attributes.append(Attribute(name, populations))

    instance = make_instance(
        profile=profile,
        scheme=AttributeScheme(voter_attributes=tuple(attributes)),
        k=k,
        rule=kborda(),
        representation_bounds=rep_bounds,
        winning_committees=winning,
    )
    return RepresentationReduction(
        instance,
        {v: v for v in range(mg)},
        {edge: tuple(pops) for edge, pops in edge_to_populations.items()},
    )


@dataclass(frozen=True)
class CCReduction:
    instance: DiReInstance
    vertex_to_candidate: dict[int, int]
    zero_misrepresentation_score: int


def reduce_vc_cc(graph: InputGraph, k: int) -> CCReduction:
    """Unconstrained CC instance whose max score certifies a vertex cover.

    One candidate per vertex, one voter per edge with the endpoints on top.
    The scoring vector ties the top two positions, so a committee scores
    the ceiling of edges * s_1 exactly when it covers every voter's top
    two, i.e. every edge.
    """
    mg, ne = graph.vertices, len(graph.edges)
    if ne == 0:
        raise ReductionError("cc reduction needs at least one edge")
    if not 1 <= k <= mg:
        raise ReductionError(f"committee size {k} out of range [1, {mg}]")
    rankings = []
    for u, v in graph.edges:
        rest = [c for c in range(mg) if c not in (u, v)]
        rankings.append(tuple([u, v] + rest))
    profile = PreferenceProfile(m=mg, rankings=tuple(rankings))
    if mg == 2:
        vector = (1, 1)
    else:
        vector = tuple([mg - 1, mg - 1] + [mg - i for i in range(3, mg + 1)])
    instance = make_instance(
        profile=profile,
        scheme=AttributeScheme(),
        k=k,
        rule=betacc(vector),
    )
    return CCReduction(instance, {v: v for v in range(mg)}, ne * vector[0])

"""Seeded 3-regular graphs from the pairing (configuration) model.

Each vertex contributes three points; a seeded shuffle pairs the points
into edges, and a pairing with a loop or a repeated edge is rejected and
redrawn.  Only the standard library is used.
"""

from __future__ import annotations

import random

DEGREE = 3


def random_cubic_graph(vertices: int, seed: int) -> list[tuple[int, int]]:
    """Sorted edge list of a simple 3-regular graph on ``vertices`` vertices."""
    if vertices < DEGREE + 1 or vertices * DEGREE % 2:
        raise ValueError(f"no simple 3-regular graph on {vertices} vertices")
    rng = random.Random(seed)
    points = [v for v in range(vertices) for _ in range(DEGREE)]
    while True:
        rng.shuffle(points)
        edges = {tuple(sorted(pair)) for pair in zip(points[::2], points[1::2])}
        if len(edges) == len(points) // 2 and all(u != v for u, v in edges):
            return sorted(edges)


def check_cubic(vertices: int, edges) -> None:
    """Raise unless ``edges`` is a simple 3-regular graph on 0..vertices-1."""
    seen = set()
    degree = [0] * vertices
    for u, v in edges:
        if not (0 <= u < vertices and 0 <= v < vertices):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"repeated edge {key}")
        seen.add(key)
        degree[u] += 1
        degree[v] += 1
    if any(d != DEGREE for d in degree):
        raise ValueError(f"degrees {degree} are not all {DEGREE}")

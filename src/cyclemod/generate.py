"""Random instance generation by rejection sampling.

A GenSpec pins down the requested properties (order, minimum degree,
2- or 3-connectivity, bipartiteness) and the seed; generation is
deterministic per spec and every emitted graph is re-verified against
the spec before being returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decompose import is_2_connected, vertex_connectivity_at_least
from .errors import GenerationInfeasible, InvalidArgument
from .graph import Graph, _coloring


@dataclass(frozen=True)
class GenSpec:
    n: int
    min_degree: int
    connectivity: int = 2  # 2 or 3
    bipartite: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n < 3:
            raise InvalidArgument("need at least 3 vertices")
        if self.connectivity not in (2, 3):
            raise InvalidArgument("connectivity must be 2 or 3")
        if self.min_degree < 0:
            raise InvalidArgument("min degree must be nonnegative")


def satisfies(g, spec):
    """Does g meet every property requested by spec?"""
    if g.n != spec.n or g.min_degree() < spec.min_degree:
        return False
    if spec.bipartite and _coloring(g) is None:
        return False
    if spec.connectivity == 3:
        # on n >= 4 vertices the 3-connectivity test already rejects a
        # disconnected graph or one with a cut vertex
        return g.n >= 4 and vertex_connectivity_at_least(g, 3)
    return is_2_connected(g)


def _sample(rng, spec):
    """The edge list of one random draw for spec."""
    n = spec.n
    # edge probability aimed a little above the degree target
    lo = min(0.95, (spec.min_degree + 1) / max(1, n - 1))
    p = rng.uniform(lo, min(1.0, lo + 0.35))
    if spec.bipartite:
        left_size = rng.randint(max(1, spec.min_degree), n - max(1, spec.min_degree))
        left = set(rng.sample(range(n), left_size))
        return [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if ((u in left) != (v in left)) and rng.random() < p
        ]
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _reaches_min_degree(n, edges, d):
    """Does every one of the n vertices meet at least d of the edges?"""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return min(degree) >= d


def generate(spec, max_tries=2000):
    """A graph satisfying spec, deterministic per spec (including seed).
    A draw short of the minimum degree is rejected before a Graph is built;
    satisfies checks every other draw in full."""
    limit = spec.n - 1
    if spec.bipartite:
        limit = spec.n // 2
    if spec.min_degree > limit or spec.connectivity > spec.n - 1:
        raise GenerationInfeasible(f"no graph on {spec.n} vertices meets {spec}")
    rng = random.Random(repr(spec))
    for _ in range(max_tries):
        edges = _sample(rng, spec)
        if not _reaches_min_degree(spec.n, edges, spec.min_degree):
            continue
        g = Graph(spec.n, edges)
        if satisfies(g, spec):
            return g
    raise GenerationInfeasible(f"gave up after {max_tries} samples for {spec}")

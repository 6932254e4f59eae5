"""Seeded rejection-sampling graph generation."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cyclemod.errors import GenerationInfeasible
from cyclemod.generate import GenSpec, _sample, generate, satisfies
from cyclemod.graph import Graph, is_bipartite
from cyclemod.decompose import is_2_connected, vertex_connectivity_at_least


def test_deterministic_per_seed():
    spec = GenSpec(n=8, min_degree=3, seed=42)
    assert generate(spec) == generate(spec)
    other = GenSpec(n=8, min_degree=3, seed=43)
    # overwhelmingly likely to differ; equality would be a red flag for seeding
    assert generate(spec) != generate(other)


def test_output_satisfies_spec():
    spec = GenSpec(n=9, min_degree=4, connectivity=3, seed=7)
    g = generate(spec)
    assert satisfies(g, spec)
    assert g.min_degree() >= 4
    assert vertex_connectivity_at_least(g, 3)


def test_bipartite_generation():
    spec = GenSpec(n=10, min_degree=3, bipartite=True, seed=5)
    g = generate(spec)
    assert is_bipartite(g) is not None
    assert g.min_degree() >= 3 and is_2_connected(g)


def test_infeasible_specs():
    with pytest.raises(GenerationInfeasible):
        generate(GenSpec(n=4, min_degree=4))
    with pytest.raises(GenerationInfeasible):
        generate(GenSpec(n=5, min_degree=3, bipartite=True))


@settings(max_examples=20, deadline=None)
@given(st.integers(5, 10), st.integers(2, 4), st.integers(0, 1000))
def test_generated_graphs_verify(n, d, seed):
    if d > n - 2:
        return
    spec = GenSpec(n=n, min_degree=d, seed=seed)
    g = generate(spec)
    assert satisfies(g, spec)


def _satisfies_with_the_2_connectivity_walk(g, spec):
    """satisfies as it read when every spec ran is_2_connected first."""
    if g.n != spec.n or g.min_degree() < spec.min_degree:
        return False
    if spec.bipartite and is_bipartite(g) is None:
        return False
    if not is_2_connected(g):
        return False
    return spec.connectivity == 2 or (g.n >= 4 and vertex_connectivity_at_least(g, 3))


def test_satisfies_matches_the_predicate_with_the_2_connectivity_walk():
    # raw samples, most of them rejected: sparse ones are often disconnected
    # or have a cut vertex
    rng = random.Random(3)
    verdicts = Counter()
    for n in range(3, 13):
        for d in range(0, 4):
            for connectivity in (2, 3):
                for bipartite in (False, True):
                    spec = GenSpec(n=n, min_degree=d, connectivity=connectivity,
                                   bipartite=bipartite and 2 * d <= n)
                    for _ in range(6):
                        g = Graph(n, _sample(rng, spec))
                        want = _satisfies_with_the_2_connectivity_walk(g, spec)
                        assert satisfies(g, spec) == want, (spec, g.edges())
                        verdicts[connectivity, want, is_2_connected(g)] += 1
    # both verdicts on 3-connectivity specs, and rejections of graphs that
    # are not even 2-connected among them
    assert verdicts[3, True, True] and verdicts[3, False, True] and verdicts[3, False, False]


def _sample_graph(rng, spec):
    """One random draw as a Graph, as _sample read when it built one."""
    n = spec.n
    lo = min(0.95, (spec.min_degree + 1) / max(1, n - 1))
    p = rng.uniform(lo, min(1.0, lo + 0.35))
    if spec.bipartite:
        left_size = rng.randint(max(1, spec.min_degree), n - max(1, spec.min_degree))
        left = set(rng.sample(range(n), left_size))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if ((u in left) != (v in left)) and rng.random() < p
        ]
    else:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
    return Graph(n, edges)


def _generate_by_building_every_draw(spec, max_tries=2000):
    """generate as it read when every draw was built into a Graph and
    handed to satisfies."""
    limit = spec.n - 1
    if spec.bipartite:
        limit = spec.n // 2
    if spec.min_degree > limit or spec.connectivity > spec.n - 1:
        raise GenerationInfeasible(f"no graph on {spec.n} vertices meets {spec}")
    rng = random.Random(repr(spec))
    for _ in range(max_tries):
        g = _sample_graph(rng, spec)
        if satisfies(g, spec):
            return g
    raise GenerationInfeasible(f"gave up after {max_tries} samples for {spec}")


def _generated_edges(generator, spec, max_tries):
    try:
        return generator(spec, max_tries).edges()
    except GenerationInfeasible as exc:
        return str(exc)


@pytest.mark.parametrize("connectivity", [2, 3])
@pytest.mark.parametrize("bipartite", [False, True])
def test_generate_matches_the_loop_that_built_every_draw(bipartite, connectivity):
    # every draw is the same, so is every graph and every refusal: specs no
    # graph can meet, and give-ups after 3 or 300 draws among them
    outcomes = Counter()
    for n in (3, 4, 5, 6, 8, 11, 15, 20, 28, 40):
        for d in (0, 2, 3, 5):
            for seed, max_tries in ((0, 300), (1, 300), (2, 3)):
                spec = GenSpec(n=n, min_degree=d, connectivity=connectivity,
                               bipartite=bipartite, seed=seed)
                want = _generated_edges(_generate_by_building_every_draw, spec, max_tries)
                assert _generated_edges(generate, spec, max_tries) == want, spec
                outcomes[type(want)] += 1
    assert outcomes[list] and outcomes[str]

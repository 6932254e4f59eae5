"""The complete-bipartite core subgraph and its ladder constructions."""

import random
from itertools import combinations
from math import comb

import pytest
from click.testing import CliRunner

from cyclemod.cli import main
from cyclemod.errors import BudgetExceeded, HypothesisNotMet
from cyclemod.generate import GenSpec, generate
from cyclemod.graph import (
    Graph,
    adj_masks,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    format_graph,
    mask_bits,
)
from cyclemod.core import (
    Core,
    core_paths_big_l,
    core_paths_semilength,
    find_core,
    h_ladder_path,
    verify_core,
)
from cyclemod.families import LENGTH, SEMI, path_len, validate_path_family
from cyclemod.paths import find_paths_flex, find_paths_length


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def test_find_core_in_complete_graph():
    g = complete_graph(6)
    core = find_core(g, 0, 1)
    assert core is not None
    assert verify_core(g, core) == (True, None)
    assert core.x == 0 and core.y == 1
    assert 0 in core.s
    assert core.l == len(core.s) - 1 >= 1
    assert len(core.t) >= len(core.s)
    assert 1 not in core.h_vertices()


def test_find_core_none_without_4_cycle_through_x():
    # girth 5: G - y has no 4-cycle at all
    g = petersen()
    assert find_core(g, 0, 7) is None


def test_core_is_extremal_in_s():
    # K7 minus root edge: |S| can reach 3 (S and T common neighborhoods stay
    # complete bipartite inside a clique)
    g = complete_graph(7).without_edge(0, 1)
    core = find_core(g, 0, 1)
    assert core.l >= 2


def test_ladder_lengths_alternate():
    g = complete_graph(7)
    core = find_core(g, 0, 1)
    s = [v for v in core.s if v != 0][0]
    t = core.t[0]
    for length in range(1, 2 * core.l, 2):  # S-T endpoints: odd lengths
        lad = h_ladder_path(core, 0, t, length)
        assert path_len(lad) == length and lad[0] == 0 and lad[-1] == t
    for length in range(2, 2 * core.l + 1, 2):  # S-S endpoints: even lengths
        lad = h_ladder_path(core, 0, s, length)
        assert path_len(lad) == length and lad[-1] == s


def test_core_paths_big_l():
    g = complete_graph(7)
    core = find_core(g, 0, 1)
    k = core.l
    fam = core_paths_big_l(g, core, k)
    assert fam.cls.kind == LENGTH and fam.k == k
    # the construction only builds; its members must still be (x, y)-paths
    validate_path_family(g, fam, core.x, core.y)
    with pytest.raises(HypothesisNotMet):
        core_paths_big_l(g, core, core.l + 2)


def test_core_paths_semilength():
    # complete graph: T spans edges and S - x reaches the rest
    g = complete_graph(8)
    core = find_core(g, 0, 1)
    k = core.l + 1
    fam = core_paths_semilength(g, core, k)
    assert fam.cls.kind == SEMI and fam.cls.switch == k - 1
    assert fam.k == k
    validate_path_family(g, fam, core.x, core.y)


# -- the bitmask walk against the subset loop it replaced ---------------------


def _find_core_by_combinations(g, x, y):
    """find_core as a loop over itertools.combinations, one frozenset
    intersection chain per subset; the reference for the bitmask walk."""
    others = [v for v in range(g.n) if v != x and v != y]
    best = None
    best_key = None
    for size in range(2, (g.n - 1) // 2 + 1):
        for extra in combinations(others, size - 1):
            s_set = (x,) + extra
            common = set(g.adj[x])
            for v in extra:
                common &= g.adj[v]
            t_set = common - set(s_set) - {y}
            if len(t_set) < size:
                continue
            h_verts = set(s_set) | t_set
            comp = next(tuple(c) for c in components(g, ignore=h_verts) if y in c)
            ncs = sum(1 for v in s_set if any(g.has_edge(v, c) for c in comp))
            key = (size, len(t_set), len(comp), -ncs, tuple(-v for v in sorted(s_set)))
            if best_key is None or key > best_key:
                best_key = key
                best = Core(s=tuple(sorted(s_set)), t=tuple(sorted(t_set)), x=x, y=y,
                            component_c=comp)
    return best


def _differential_graphs():
    for n, bipartite in ((8, False), (8, True), (10, False), (10, True), (12, False),
                         (12, True), (14, False)):
        yield generate(GenSpec(n=n, min_degree=3, bipartite=bipartite, seed=n))
    rng = random.Random(5)
    for n in (6, 7, 8, 9, 10, 11):
        for p in (0.25, 0.5):
            edges = [e for e in combinations(range(n), 2) if rng.random() < p]
            yield Graph(n, edges)
    # many S share (|S|, |T|), so |C|, |N(C) & S| and S itself pick the
    # core; on each of the two bipartite graphs all three decide some pair
    yield Graph(9, complete_bipartite(4, 4).edges() + [(0, 8), (3, 8), (5, 6), (6, 8)])
    yield Graph(11, complete_bipartite(5, 5).edges() + [(4, 10), (5, 10), (9, 10)])
    yield complete_graph(7)
    yield Graph(13, sorted({tuple(sorted((i, (i + s) % 13))) for i in range(13) for s in (1, 4)}))


def test_find_core_matches_the_subset_loop_on_every_root_pair():
    seen_none = seen_core = 0
    for g in _differential_graphs():
        for x in range(g.n):
            for y in range(g.n):
                if x == y:
                    continue
                want = _find_core_by_combinations(g, x, y)
                assert find_core(g, x, y) == want, (g.edges(), x, y)
                seen_none += want is None
                seen_core += want is not None
    # both sides of "G - y has a 4-cycle through x" are exercised
    assert seen_none > 0 and seen_core > 0


def test_find_core_is_budgeted(monkeypatch):
    monkeypatch.setenv("CYCLEMOD_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        find_paths_length(complete_graph(6), 0, 1, 2)


def test_find_core_charges_every_enumerated_subset(monkeypatch):
    # S = {x} plus 1 .. (n - 1) // 2 - 1 of the other n - 2 vertices; the
    # walk cuts no subtree, so the count is the same on every graph
    n = 24
    subsets = sum(comb(n - 2, j) for j in range(1, (n - 1) // 2))
    assert subsets == 1_744_435
    g = cycle_graph(n)
    monkeypatch.setenv("CYCLEMOD_BUDGET", str(subsets))
    assert find_core(g, 0, 1) is None
    monkeypatch.setenv("CYCLEMOD_BUDGET", str(subsets - 1))
    with pytest.raises(BudgetExceeded):
        find_core(g, 0, 1)


def _generalised_petersen(n):
    """GP(n, 2): outer cycle i ~ i + 1, spokes i ~ n + i, inner edges
    n + i ~ n + (i + 2 mod n); cubic."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + 2) % n) for i in range(n)]
    return Graph(2 * n, edges)


def test_a_deep_core_search_exceeds_its_budget_without_recursion():
    # the core walk on GP(n, 2) reaches sets of (n - 1) // 2 vertices, far
    # past Python's recursion limit, and must still end in exit 6
    with pytest.raises(BudgetExceeded):
        find_paths_flex(_generalised_petersen(300), 0, 300, 2)
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("g", "w") as fh:
            fh.write(format_graph(_generalised_petersen(1000)))
        res = runner.invoke(main, ["cycles", "--graph", "g", "--k", "2"])
    assert res.exit_code == 6, res.exception
    assert "budget exceeded" in res.stderr


# -- the walk against the walk it was before the dead-frame skip -------------


def _find_core_by_full_walk(g, x, y):
    """(core, charged, dead leaves): find_core's walk as it was before dead
    frames skipped their loop, with no budget: every frame tests each
    child's common neighborhood.  A dead leaf is a last-level frame with
    children whose S has fewer than |S| + 1 common neighbors."""
    adj = adj_masks(g)
    others = [v for v in range(g.n) if v != x and v != y]
    bits = [1 << v for v in others]
    masks = [adj[v] for v in others]
    last = len(others)
    max_size = (g.n - 1) // 2
    charged = dead_leaves = 0
    best_key = best = None

    def consider(s_mask, t_mask, size):
        nonlocal best_key, best
        t_size = t_mask.bit_count()
        if best_key is not None and (size, t_size) < best_key[:2]:
            return
        h_mask = s_mask | t_mask
        comp = frontier = 1 << y
        while frontier:
            reach = 0
            for v in mask_bits(frontier):
                reach |= adj[v]
            frontier = reach & ~(h_mask | comp)
            comp |= frontier
        s = mask_bits(s_mask)
        ncs = sum(1 for v in s if adj[v] & comp)
        key = (size, t_size, comp.bit_count(), -ncs, tuple(-v for v in s))
        if best_key is None or key > best_key:
            best_key = key
            best = Core(s=tuple(s), t=tuple(mask_bits(t_mask)), x=x, y=y,
                        component_c=tuple(mask_bits(comp)))

    def walk(start, s_mask, common, size):
        nonlocal charged, dead_leaves
        charged += last - start
        dead_leaves += size == max_size and start < last and common.bit_count() < size
        for i in range(start, last):
            child = common & masks[i]
            if child.bit_count() >= size:
                consider(s_mask | bits[i], child, size)
            if size < max_size:
                walk(i + 1, s_mask | bits[i], child, size + 1)

    if max_size >= 2:
        walk(0, 1 << x, adj[x] & ~(1 << y), 2)
    return best, charged, dead_leaves


def _dead_frame_cases():
    for n in range(10, 19):
        for d in (3, 5):
            g = generate(GenSpec(n=n, min_degree=d, seed=n))
            for x, y in ((0, 1), (n - 1, n // 2)):
                yield g, x, y
    yield complete_bipartite(5, 6), 0, 1  # a core exists; x and y on one side


def test_find_core_skips_dead_frames_with_the_same_core_and_charge(monkeypatch):
    # the budget boundary pins the charged count: the count passes, and
    # one less raises
    found = 0
    for g, x, y in _dead_frame_cases():
        want, charged, dead_leaves = _find_core_by_full_walk(g, x, y)
        assert dead_leaves > 0
        found += want is not None
        monkeypatch.setenv("CYCLEMOD_BUDGET", str(charged))
        assert find_core(g, x, y) == want, (g.edges(), x, y)
        monkeypatch.setenv("CYCLEMOD_BUDGET", str(charged - 1))
        with pytest.raises(BudgetExceeded):
            find_core(g, x, y)
    assert found >= 2

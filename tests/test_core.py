"""The complete-bipartite core subgraph and its ladder constructions."""

import pytest

from cyclemod.errors import HypothesisNotMet
from cyclemod.graph import Graph, complete_graph
from cyclemod.core import (
    core_paths_big_l,
    core_paths_semilength,
    find_core,
    h_ladder_path,
    verify_core,
)
from cyclemod.families import LENGTH, SEMI, path_len


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

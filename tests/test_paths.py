"""Rooted path-family extraction and its exhaustive oracle."""

import itertools

import networkx as nx
import pytest

from cyclemod.errors import HypothesisNotMet
from cyclemod.graph import Graph, complete_graph, induced
from cyclemod.core import Core
from cyclemod.decompose import is_rooted_2_connected
from cyclemod.families import LENGTH, SEMI, combine_across_cut, validate_path_family
from cyclemod.oraclekern import path_length_set
from cyclemod.paths import (
    ExtractionTrace,
    _case_big_c,
    _heavy_vertex_detour,
    _recurse_on,
    _side_block_to_s,
    _single_y_end_block,
    _two_block_relay,
    _y_block_family,
    find_paths_flex,
    find_paths_length,
    find_pattern,
    oracle_paths,
)
from cyclemod.smallgraphs import two_connected_graphs


def test_find_pattern():
    assert find_pattern({2, 4, 6}, 3, flex=False) == (LENGTH, 2, None)
    assert find_pattern({3, 5}, 3, flex=False) is None
    # lengths 2,3,5 realize the semi pattern with switch 1
    assert find_pattern({2, 3, 5}, 3, flex=True) == (SEMI, 2, 1)
    assert find_pattern({2, 3, 5}, 3, flex=False) is None
    # length pattern preferred over semi when both exist
    assert find_pattern(set(range(2, 10)), 3, flex=True) == (LENGTH, 2, None)


def test_path_length_set_frozen_values():
    assert path_length_set(complete_graph(4), 0, 1) == {1, 2, 3}
    assert path_length_set(complete_graph(5), 0, 1) == {1, 2, 3, 4}


def test_oracle_paths_k5():
    fam = oracle_paths(complete_graph(5), 0, 1, 2)
    assert fam.cls.kind == LENGTH
    assert fam.lengths() == [2, 4]


def test_oracle_agrees_with_networkx_enumeration():
    for g in two_connected_graphs(5):
        G = nx.Graph(list(g.edges()))
        G.add_nodes_from(range(g.n))
        lengths = {
            len(p) - 1 for p in nx.all_simple_paths(G, 0, 1)
        }
        assert path_length_set(g, 0, 1) == lengths


def test_hypothesis_not_met():
    with pytest.raises(HypothesisNotMet):
        find_paths_length(complete_graph(4), 0, 1, 2)  # needs rooted deg >= 4


def test_k1_returns_single_path():
    g = Graph(3, [(0, 2), (1, 2)])
    fam = find_paths_length(g, 0, 1, 1)
    assert fam.k == 1 and fam.lengths()[0] >= 2


def test_extractor_exhaustive_n5():
    """Every rooted-2-connected (g, x, y) with n <= 5 and admissible k,
    both modes, without ever touching the oracle fallback."""
    checked = 0
    for g in two_connected_graphs(4) + two_connected_graphs(5):
        for x, y in itertools.combinations(range(g.n), 2):
            if not is_rooted_2_connected(g, x, y):
                continue
            d = g.rooted_min_degree(x, y)
            for flex in (False, True):
                kmax = (d + (1 if flex else 0)) // 2
                for k in range(1, kmax + 1):
                    trace = ExtractionTrace()
                    fn = find_paths_flex if flex else find_paths_length
                    fam = fn(g, x, y, k, trace=trace)
                    validate_path_family(g, fam, x, y)
                    assert fam.k == k
                    if not flex:
                        assert fam.cls.kind == LENGTH
                    assert not trace.constructive_gap
                    checked += 1
    assert checked > 200


def test_sharpness_k4_between_all_pairs():
    """K_{2k} at k = 2: no size-2 length-condition family between any pair,
    but a semi-length family exists."""
    g = complete_graph(4)
    for x, y in itertools.combinations(range(4), 2):
        assert oracle_paths(g, x, y, 2, flex=False) is None
        fam = oracle_paths(g, x, y, 2, flex=True)
        assert fam is not None and fam.cls.kind == SEMI


def test_sharpness_k3_has_neither():
    g = complete_graph(3)
    for x, y in itertools.combinations(range(3), 2):
        assert oracle_paths(g, x, y, 2, flex=False) is None
        assert oracle_paths(g, x, y, 2, flex=True) is None


def test_recurse_on_lifts_a_super_root_and_refuses_k_below_one():
    # G[{2, 3, 4, 5}] plus a super root wired to {2, 3} that stands for 0
    g = complete_graph(6)
    sup = ((2, 3), {0})
    fam = _recurse_on(g, {2, 3, 4, 5}, sup, 5, 1, False, ExtractionTrace())
    validate_path_family(g, fam, 0, 5)
    assert fam.members[0][1] in (2, 3)
    # k - l + 1 <= 0 in the attachment builders must decline, not recurse
    assert _recurse_on(g, {2, 3, 4, 5}, sup, 5, 0, False, ExtractionTrace()) is None


# -- construction sites that no graph on <= 7 vertices reaches ----------------
# Each input below is built to fit one site's configuration, and the site is
# called directly; the result must be a valid family of the promised size.


def cliques(n, *groups):
    """Graph on n vertices whose edges make each group a clique."""
    return Graph(n, sorted({e for grp in groups for e in itertools.combinations(grp, 2)}))


# core S = {0, 1}, T = {2, 3} (x = 0, s = 1); end blocks B1 = K4 at 4 seen by
# x and B2 = K4 at 8 seen by s; a trunk vertex 12 with three edges into H
H_L1 = [(a, t) for a in (0, 1) for t in (2, 3)]
B1, B2 = (4, 5, 6, 7), (8, 9, 10, 11)
X_TO_B1 = [(0, 5), (0, 6), (0, 7)]
S_TO_B2 = [(1, 9), (1, 10), (1, 11)]
TWO_BLOCKS = cliques(14, *H_L1, B1, *X_TO_B1, B2, *S_TO_B2, (4, 12), (12, 8), (12, 13),
                     (8, 13), (13, 2), (12, 1), (12, 2), (12, 3))
TWO_BLOCKS_CORE = Core(s=(0, 1), t=(2, 3), x=0, y=13, component_c=tuple(range(4, 14)))
# B1 again, then a K5 block W from 8 to 12 and a pendant y = 13
W = (8, 9, 10, 11, 12)
W_CHAIN = cliques(14, *H_L1, B1, *X_TO_B1, (4, 8), W, (12, 13), (13, 2), (8, 3))
W_CHAIN_CORE = Core(s=(0, 1), t=(2, 3), x=0, y=13, component_c=tuple(range(4, 14)))


@pytest.mark.parametrize("g, core, tag", [
    (TWO_BLOCKS, TWO_BLOCKS_CORE, "two-disjoint-exits"),
    (W_CHAIN, W_CHAIN_CORE, "w-block-chain"),
])
@pytest.mark.parametrize("flex", [False, True])
def test_big_c_endgame(g, core, tag, flex):
    trace = ExtractionTrace()
    fam = _case_big_c(g, 0, core.y, 3, flex, trace, core)
    validate_path_family(g, fam, 0, core.y, allowed=(LENGTH,))
    assert fam.k == 3 and trace.branches[-1] == tag


def test_big_c_endgame_row_sites():
    g, core, k = TWO_BLOCKS, TWO_BLOCKS_CORE, 3
    trace = ExtractionTrace()

    def fixed_paths(blk, b, v, kk):
        return _recurse_on(g, set(blk) | {v}, v, b, kk, False, trace)

    feas = [(set(B1), 4), (set(B2), 8)]
    cprime = {4, 8, 12, 13}
    fam = _heavy_vertex_detour(g, 0, 13, k, trace, core, 1, set(core.component_c), cprime,
                               feas, fixed_paths)
    validate_path_family(g, fam, 0, 13, allowed=(LENGTH,))
    assert fam.k == k
    p_fam = fixed_paths(B1, 4, 0, k - 1)
    fam = _two_block_relay(g, 0, 13, k, trace, core, 1, cprime, feas, fixed_paths, p_fam, [2])
    validate_path_family(g, fam, 0, 13, allowed=(LENGTH,))
    assert fam.k == k


@pytest.mark.parametrize("flex", [False, True])
def test_y_block_family_uses_two_p_rows(flex):
    # x = 0 sees the K6 at 4; the K7 from 10 to y = 16 follows it.  With
    # k = 4 there are three (x, 10)-paths, and only the first two make rows.
    k = 4
    g = cliques(17, range(4, 10), *[(0, v) for v in range(5, 10)], (4, 10), range(10, 17))
    trace = ExtractionTrace()
    p_fam = _recurse_on(g, set(range(4, 10)) | {0}, 0, 4, k - 1, False, trace)
    assert p_fam.k == 3
    fam = _y_block_family(g, 0, 16, k, flex, trace, set(range(10, 17)), 10,
                          combine_across_cut(p_fam, (4, 10)))
    validate_path_family(g, fam, 0, 16)
    assert fam.k == k


@pytest.mark.parametrize("flex", [False, True])
def test_single_y_end_block_through_s(flex):
    # S = {0, 1}, T = {2, 3, 4}, C = {y = 5}; G - {1, 2} has the end block
    # K4 at 6, which sees only s = 1 and leaves through 6-3
    g = cliques(10, *[(a, t) for a in (0, 1, 5) for t in (2, 3, 4)],
                (6, 7, 8, 9), (7, 1), (8, 1), (9, 1), (6, 3))
    core = Core(s=(0, 1), t=(2, 3, 4), x=0, y=5, component_c=(5,))
    sub, to_orig = induced(g, set(range(10)) - {1, 2})
    fam = _single_y_end_block(g, 0, 5, 2, flex, ExtractionTrace(), core, 1, 2, sub, to_orig)
    validate_path_family(g, fam, 0, 5, allowed=(LENGTH,))
    assert fam.k == 2


@pytest.mark.parametrize("flex", [False, True])
def test_side_block_to_s(flex):
    # S = {0, 1, 2}, T = {3, 4, 5}, C = {y = 6}; the side component D holds
    # the end block K4 at 7, seen only by 2, and leaves through 7-11-3
    g = cliques(12, *[(a, t) for a in (0, 1, 2) for t in (3, 4, 5)], (6, 1), (6, 3),
                (7, 8, 9, 10), (8, 2), (9, 2), (10, 2), (7, 11), (11, 3))
    core = Core(s=(0, 1, 2), t=(3, 4, 5), x=0, y=6, component_c=(6,))
    fam = _side_block_to_s(g, 0, 6, 2, flex, ExtractionTrace(), core, 1, {7, 8, 9, 10, 11})
    validate_path_family(g, fam, 0, 6, allowed=(LENGTH,))
    assert fam.k == 2

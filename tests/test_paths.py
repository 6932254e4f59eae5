"""Rooted path-family extraction and its exhaustive oracle."""

import itertools

import networkx as nx
import pytest

from cyclemod.errors import HypothesisNotMet
from cyclemod.graph import Graph, complete_graph
from cyclemod.decompose import is_rooted_2_connected
from cyclemod.families import LENGTH, SEMI, validate_path_family
from cyclemod.oraclekern import path_length_set
from cyclemod.paths import (
    ExtractionTrace,
    _recurse_on,
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
    # k - l <= 0 in _block_to_t must decline, not recurse
    assert _recurse_on(g, {2, 3, 4, 5}, sup, 5, 0, False, ExtractionTrace()) is None

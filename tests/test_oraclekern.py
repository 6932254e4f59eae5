"""The path-length kernel against the loop it replaced, node for node; the
cycle-spectrum kernel against the depth-first search it replaced, its node
budget, and the inputs that only the subset DP can afford; the bitmask
witness searches against the set-based recursive searches they replaced,
node for node."""

import networkx as nx
import pytest

from cyclemod import certify
from cyclemod.cycles import _classify, find_k_cycles
from cyclemod.errors import BudgetExceeded
from cyclemod.generate import GenSpec, generate
from cyclemod.graph import Graph, adj_masks, complete_graph
from cyclemod.oraclekern import (
    DEFAULT_BUDGET,
    _cycle_lengths_py,
    _first_cycle,
    _first_path,
    _path_lengths_py,
    cycle_length_set,
    find_cycle_with_length,
    find_path_with_length,
    path_length_set,
)
from cyclemod.paths import ExtractionTrace
from cyclemod.smallgraphs import connected_graphs


def _path_lengths_dfs(adj, x, y, budget):
    """(bitmask of realizable simple x-y path lengths, nodes, truncated):
    one node per step, y entered as a leaf; the loop _path_lengths_py
    replaced."""
    lengths = 0
    nodes = 0
    visited = 1 << x
    stack_v = [x]
    stack_rem = [adj[x]]
    while stack_v:
        rem = stack_rem[-1]
        if rem == 0:
            visited &= ~(1 << stack_v[-1])
            stack_v.pop()
            stack_rem.pop()
            continue
        b = rem & -rem
        stack_rem[-1] = rem & ~b
        v = b.bit_length() - 1
        nodes += 1
        if nodes > budget:
            return lengths, nodes, True
        if v == y:
            lengths |= 1 << len(stack_v)
            continue
        if visited & b:
            continue
        visited |= b
        stack_v.append(v)
        stack_rem.append(adj[v] & ~visited)
    return lengths, nodes, False


def assert_same_path_lengths(g, pairs):
    adj = adj_masks(g)
    for x, y in pairs:
        want = _path_lengths_dfs(adj, x, y, DEFAULT_BUDGET)
        assert not want[2]
        assert _path_lengths_py(adj, x, y, DEFAULT_BUDGET) == want, (g.edges(), x, y)


def test_path_lengths_match_the_loop_on_the_atlas():
    count = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            assert_same_path_lengths(g, [(x, y) for x in range(n) for y in range(x, n)])
            count += 1
    assert count == 996


@pytest.mark.parametrize("bipartite", [False, True])
@pytest.mark.parametrize("n", range(8, 13))
def test_path_lengths_match_the_loop_on_generated_graphs(n, bipartite):
    g = generate(GenSpec(n=n, min_degree=3, bipartite=bipartite, seed=0))
    assert_same_path_lengths(g, [(0, n - 1), (n - 1, 0), (1, 2), (3, 3)])


def test_truncated_path_searches_agree_on_the_node_count():
    for g, x, y in [(complete_graph(6), 0, 5), (circulant(9, (1, 3)), 0, 4),
                    (circulant(9, (1, 3)), 2, 2)]:
        adj = adj_masks(g)
        spent = _path_lengths_dfs(adj, x, y, DEFAULT_BUDGET)[1]
        for budget in {*range(1, spent, 7), spent - 1, spent, spent + 1}:
            got = _path_lengths_py(adj, x, y, budget)
            assert got[1:] == _path_lengths_dfs(adj, x, y, budget)[1:], (x, y, budget)
            assert got[1:] == ((budget + 1, True) if budget < spent else (spent, False))


@pytest.mark.parametrize("min_degree", [3, 4])
@pytest.mark.parametrize("n", range(9, 12))
def test_truncated_path_searches_agree_on_oracle_shaped_graphs(n, min_degree):
    # the shapes of the benchmark's oracle path requests
    # (up to 325,705 nodes at n = 11), at budgets doubling from 1
    g = generate(GenSpec(n=n, min_degree=min_degree, seed=n * min_degree))
    adj = adj_masks(g)
    spent = _path_lengths_dfs(adj, 0, n - 1, DEFAULT_BUDGET)[1]
    for budget in {*(1 << i for i in range(spent.bit_length())), spent - 1, spent}:
        got = _path_lengths_py(adj, 0, n - 1, budget)
        assert got[1:] == _path_lengths_dfs(adj, 0, n - 1, budget)[1:], budget
        assert got[1:] == ((budget + 1, True) if budget < spent else (spent, False))


def test_path_lengths_when_y_has_no_neighbours():
    # vertex 4 is isolated: no length, and every simple path from 0 in K4
    adj = adj_masks(Graph(5, complete_graph(4).edges()))
    assert _path_lengths_py(adj, 0, 4, DEFAULT_BUDGET) == (0, 15, False)
    assert _path_lengths_py(adj, 0, 4, DEFAULT_BUDGET) == _path_lengths_dfs(adj, 0, 4, DEFAULT_BUDGET)


def test_path_lengths_when_the_only_neighbour_of_x_is_y():
    # vertex 4 hangs off vertex 0 of K4: the one path is the edge, one node
    adj = adj_masks(Graph(5, complete_graph(4).edges() + [(0, 4)]))
    assert _path_lengths_py(adj, 4, 0, DEFAULT_BUDGET) == (0b10, 1, False)
    assert _path_lengths_py(adj, 4, 0, DEFAULT_BUDGET) == _path_lengths_dfs(adj, 4, 0, DEFAULT_BUDGET)
    assert _path_lengths_py(adj, 4, 0, 0) == (0b10, 1, True)


@pytest.mark.parametrize("n, paths", [(4, 3 + 6 + 6), (5, 4 + 12 + 24 + 24)])
def test_path_lengths_from_x_to_itself_count_the_simple_paths_from_x(n, paths):
    adj = adj_masks(complete_graph(n))
    for x in range(n):
        assert _path_lengths_py(adj, x, x, DEFAULT_BUDGET) == (0, paths, False)
        assert _path_lengths_dfs(adj, x, x, DEFAULT_BUDGET) == (0, paths, False)


def test_path_kernel_leaves_the_masks_it_is_given_unchanged():
    # _classify hands its masks on to the oracle searches, so no search may
    # write to them
    g = generate(GenSpec(n=10, min_degree=4, seed=3))
    adj = _classify(g)[2]
    before = list(adj)
    for x, y in [(0, 9), (9, 0), (3, 3), (1, 2)]:
        _path_lengths_py(adj, x, y, DEFAULT_BUDGET)
        _path_lengths_py(adj, x, y, 50)
        assert adj == before


def test_path_length_set_passes_at_its_budget_and_raises_below(monkeypatch):
    g = circulant(9, (1, 3))
    lengths, spent, _ = _path_lengths_dfs(adj_masks(g), 0, 4, DEFAULT_BUDGET)
    monkeypatch.setenv("CYCLEMOD_BUDGET", str(spent))
    assert path_length_set(g, 0, 4) == {v for v in range(g.n) if lengths >> v & 1}
    monkeypatch.setenv("CYCLEMOD_BUDGET", str(spent - 1))
    with pytest.raises(BudgetExceeded):
        path_length_set(g, 0, 4)


def _cycle_lengths_dfs(adj, n, budget):
    """(bitmask of realizable cycle lengths, nodes, truncated).

    Each cycle is found rooted at its smallest vertex; only vertices above
    the root are explored."""
    lengths = 0
    nodes = 0
    for s in range(n):
        above = ~((1 << (s + 1)) - 1)
        visited = 1 << s
        stack_v = [s]
        stack_rem = [adj[s] & above]
        while stack_v:
            rem = stack_rem[-1]
            if rem == 0:
                visited &= ~(1 << stack_v[-1])
                stack_v.pop()
                stack_rem.pop()
                continue
            b = rem & -rem
            stack_rem[-1] = rem & ~b
            v = b.bit_length() - 1
            nodes += 1
            if nodes > budget:
                return lengths, nodes, True
            if visited & b:
                continue
            if len(stack_v) >= 2 and (adj[v] >> s) & 1:
                lengths |= 1 << (len(stack_v) + 1)
            visited |= b
            stack_v.append(v)
            stack_rem.append(adj[v] & above & ~visited)
    return lengths, nodes, False


def assert_same_spectrum(g):
    adj = adj_masks(g)
    want, _nodes, truncated = _cycle_lengths_dfs(adj, g.n, DEFAULT_BUDGET)
    assert not truncated
    got, _nodes, truncated = _cycle_lengths_py(adj, g.n, DEFAULT_BUDGET)
    assert not truncated
    assert got == want, g


def test_spectrum_matches_the_dfs_on_the_atlas():
    count = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            assert_same_spectrum(g)
            count += 1
    assert count == 996


@pytest.mark.parametrize("bipartite", [False, True])
@pytest.mark.parametrize("n", range(8, 15))
def test_spectrum_matches_the_dfs_on_generated_graphs(n, bipartite):
    assert_same_spectrum(generate(GenSpec(n=n, min_degree=3, bipartite=bipartite, seed=0)))


def test_nodes_count_expansions_and_relaxations():
    # K4: root 0 expands {0} and relaxes 3 edges (4), expands the three
    # 2-sets with 2 relaxations each (9), the three 3-sets at two ends with
    # 1 relaxation each (12) and the 4-set at three ends (3); roots 1, 2
    # and 3 add 9, 3 and 1
    adj = adj_masks(complete_graph(4))
    assert _cycle_lengths_py(adj, 4, 41) == (0b11000, 41, False)
    assert _cycle_lengths_py(adj, 4, 40)[1:] == (41, True)


@pytest.mark.parametrize("spec, k", [
    (GenSpec(n=16, min_degree=4, connectivity=3, bipartite=True, seed=1), 3),
    (GenSpec(n=12, min_degree=4, seed=0), 1),
])
def test_benchmark_pinned_requests_succeed(spec, k):
    g = generate(spec)
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(g, k, trace=trace)
    cert = certify.make_certificate(g, "cycles", k, fam, branch=branch, trace=trace)
    assert certify.verify(certify.from_json(certify.to_json(cert))) == (True, None)


def test_spectrum_budget_is_enforced_at_n_24(monkeypatch):
    monkeypatch.setenv("CYCLEMOD_BUDGET", "100000")
    with pytest.raises(BudgetExceeded):
        cycle_length_set(generate(GenSpec(n=24, min_degree=4, seed=1)))


# -- the witness searches ----------------------------------------------------


def _first_cycle_by_recursion(g, length, budget, nodes):
    """(first simple cycle with exactly `length` edges or None, nodes): the
    set-based recursive search that _first_cycle replaced."""
    for s in range(g.n):
        path = [s]
        onpath = {s}

        def rec():
            nonlocal nodes
            u = path[-1]
            if len(path) == length:
                return g.has_edge(u, s)
            for v in sorted(g.adj[u]):
                if v <= s or v in onpath:
                    continue
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(f"cycle search exceeded {budget} nodes")
                path.append(v)
                onpath.add(v)
                if rec():
                    return True
                onpath.discard(v)
                path.pop()
            return False

        if length >= 3 and rec():
            return tuple(path), nodes
    return None, nodes


def _first_path_by_recursion(g, x, y, length, budget, nodes):
    """(first simple (x, y)-path with exactly `length` edges or None,
    nodes): the set-based recursive search that _first_path replaced."""
    path = [x]
    onpath = {x}

    def rec():
        nonlocal nodes
        u = path[-1]
        if len(path) - 1 == length:
            return u == y
        if u == y:
            return False
        for v in sorted(g.adj[u]):
            if v in onpath:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"path search exceeded {budget} nodes")
            path.append(v)
            onpath.add(v)
            if rec():
                return True
            onpath.discard(v)
            path.pop()
        return False

    if rec():
        return tuple(path), nodes
    return None, nodes


# a length that is missing explores every simple path, more than the
# recursion affords on the larger graphs; past this budget both searches
# must raise
WITNESS_BUDGET = 30_000


def _outcome(search, *args):
    try:
        return search(*args)
    except BudgetExceeded:
        return BudgetExceeded


def assert_same_witness(got, want, possible, what):
    """Equal (witness, nodes), or both over the budget, for a length that a
    simple path or cycle of the graph can have; for any other length, the
    recursion finds nothing and the search returns None with no node."""
    if possible:
        assert got == want, what
    else:
        assert got == (None, 0) and (want is BudgetExceeded or want[0] is None), what


def assert_same_witnesses(g, pairs, budget=DEFAULT_BUDGET):
    """assert_same_witness for every length 1 ... n + 1: cycles, and paths
    between each ordered pair in `pairs`."""
    adj = adj_masks(g)
    for length in range(1, g.n + 2):
        got = _outcome(_first_cycle, adj, length, budget, 0)
        want = _outcome(_first_cycle_by_recursion, g, length, budget, 0)
        assert_same_witness(got, want, length <= g.n, (g.edges(), length))
        for x, y in pairs:
            got = _outcome(_first_path, adj, x, y, length, budget, 0)
            want = _outcome(_first_path_by_recursion, g, x, y, length, budget, 0)
            assert_same_witness(got, want, length < g.n or x == y, (g.edges(), x, y, length))


def circulant(n, steps):
    """C_n(steps): vertex i is adjacent to i +- s (mod n) for each s in steps."""
    return Graph(n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}))


def test_witness_searches_match_the_recursion_on_the_atlas():
    count = 0
    for G in nx.graph_atlas_g():
        g = Graph(G.number_of_nodes(), list(G.edges()))
        assert_same_witnesses(g, [(x, y) for x in range(g.n) for y in range(g.n)])
        count += 1
    assert count == 1253


@pytest.mark.parametrize("bipartite", [False, True])
@pytest.mark.parametrize("n", range(8, 17))
def test_witness_searches_match_the_recursion_on_generated_graphs(n, bipartite):
    g = generate(GenSpec(n=n, min_degree=3, bipartite=bipartite, seed=0))
    assert_same_witnesses(g, [(0, n - 1), (n - 1, 0), (1, 2)], budget=WITNESS_BUDGET)


@pytest.mark.parametrize("n", range(5, 24, 2))
def test_witness_searches_match_the_recursion_on_circulants(n):
    assert_same_witnesses(circulant(n, (1, 3)), [(0, 1), (0, n // 2)], budget=WITNESS_BUDGET)


# C_10(1, 3) is bipartite: it has no 9-cycle, and no odd 0-4 path, so each
# of those searches explores every simple path
@pytest.mark.parametrize("n, length", [(9, 3), (9, 8), (10, 9)])
def test_cycle_search_passes_at_its_budget_and_raises_below(monkeypatch, n, length):
    g = circulant(n, (1, 3))
    want, spent = _first_cycle_by_recursion(g, length, DEFAULT_BUDGET, 0)
    monkeypatch.setenv("CYCLEMOD_BUDGET", str(spent))
    assert find_cycle_with_length(g, length) == want
    monkeypatch.setenv("CYCLEMOD_BUDGET", str(spent - 1))
    with pytest.raises(BudgetExceeded):
        find_cycle_with_length(g, length)


@pytest.mark.parametrize("n, length", [(9, 3), (9, 5), (10, 9)])
def test_path_search_passes_at_its_budget_and_raises_below(monkeypatch, n, length):
    g = circulant(n, (1, 3))
    want, spent = _first_path_by_recursion(g, 0, 4, length, DEFAULT_BUDGET, 0)
    monkeypatch.setenv("CYCLEMOD_BUDGET", str(spent))
    assert find_path_with_length(g, 0, 4, length) == want
    monkeypatch.setenv("CYCLEMOD_BUDGET", str(spent - 1))
    with pytest.raises(BudgetExceeded):
        find_path_with_length(g, 0, 4, length)


def test_a_length_no_path_or_cycle_can_have_costs_no_search(monkeypatch):
    # on K8 each of these used to enumerate every simple path (3,913 nodes
    # for a 0-1 path) before it returned None
    monkeypatch.setenv("CYCLEMOD_BUDGET", "1")
    g = complete_graph(8)
    for length in (-1, 8, 9):
        assert find_path_with_length(g, 0, 1, length) is None
    for length in (-1, 2, 9, 10):
        assert find_cycle_with_length(g, length) is None
    adj = adj_masks(g)
    assert _first_path(adj, 0, 1, 9, 1, 5) == (None, 5)
    assert _first_cycle(adj, 9, 1, 5) == (None, 5)

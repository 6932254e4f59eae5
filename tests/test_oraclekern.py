"""The cycle-spectrum kernel against the depth-first search it replaced,
its node budget, and the inputs that only the subset DP can afford."""

import pytest

from cyclemod import certify
from cyclemod.cycles import find_k_cycles
from cyclemod.errors import BudgetExceeded
from cyclemod.generate import GenSpec, generate
from cyclemod.graph import adj_masks, complete_graph
from cyclemod.oraclekern import (
    DEFAULT_BUDGET,
    _cycle_lengths_py,
    cycle_length_set,
)
from cyclemod.paths import ExtractionTrace
from cyclemod.smallgraphs import connected_graphs


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

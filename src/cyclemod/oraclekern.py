"""Exhaustive-search kernels: the exact set of simple (x, y)-path lengths
and the exact set of cycle lengths of a graph, plus the witness searches
that materialize one path or cycle of a given length.

These are the hot loops of the oracle layer, in pure Python; the two
length kernels work on arbitrary-width int adjacency bitmasks (any n):
- the path lengths come from a depth-first search over every simple path,
  one node per step;
- the cycle spectrum comes from a Bellman/Held-Karp subset DP, one set
  size at a time, in O(2^n * n * max degree): one node per (vertex set,
  end vertex) expansion and one per edge relaxation; the library's cycle
  oracle no longer calls it, and it stays as the tests' ground truth;
- the witness searches are depth-first, one node per extension; a cycle
  search can go on counting from where earlier ones stopped, so that a
  series of searches shares one budget.
Every search counts its nodes against a budget (default 10**7, override
with the CYCLEMOD_BUDGET environment variable) and raises BudgetExceeded
rather than returning a partial answer.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded
from .graph import adj_masks, mask_bits

DEFAULT_BUDGET = 10**7


def default_budget():
    raw = os.environ.get("CYCLEMOD_BUDGET")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_BUDGET


def using_numba():
    """Whether the kernels are JIT-compiled; they are plain Python."""
    return False


def _path_lengths_py(adj, x, y, budget):
    """(bitmask of realizable simple x-y path lengths, nodes, truncated)."""
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


def _cycle_lengths_py(adj, n, budget):
    """(bitmask of realizable cycle lengths, nodes, truncated).

    Each cycle is found rooted at its smallest vertex s, by a subset DP
    over the vertices above s, one set size at a time: ends[S] is the
    bitmask of vertices v such that some s-v path has vertex set exactly S.
    A set S of size >= 3 closes a cycle of length |S| when some end of S
    is adjacent to s."""
    lengths = 0
    nodes = 0
    for s in range(n):
        above = ~((1 << (s + 1)) - 1)
        up = [a & above for a in adj]
        layer = {1 << s: 1 << s}
        size = 1
        while layer:
            grown = {}
            for verts, ends in layer.items():
                while ends:
                    b = ends & -ends
                    ends ^= b
                    rem = up[b.bit_length() - 1] & ~verts
                    # one node for the expansion, one per edge relaxation;
                    # an overrun reports the first node past the budget
                    nodes += 1 + rem.bit_count()
                    if nodes > budget:
                        return lengths, budget + 1, True
                    while rem:
                        c = rem & -rem
                        rem ^= c
                        key = verts | c
                        grown[key] = grown.get(key, 0) | c
            size += 1
            if size >= 3 and not (lengths >> size) & 1:
                if any(ends & adj[s] for ends in grown.values()):
                    lengths |= 1 << size
            layer = grown
    return lengths, nodes, False


def path_length_set(g, x, y, budget=None):
    """Exact set of lengths of simple (x, y)-paths in g."""
    if budget is None:
        budget = default_budget()
    mask, _nodes, truncated = _path_lengths_py(adj_masks(g), x, y, budget)
    if truncated:
        raise BudgetExceeded(f"path enumeration exceeded {budget} nodes")
    return set(mask_bits(mask))


def cycle_length_set(g, budget=None):
    """Exact set of cycle lengths of g (its cycle spectrum)."""
    if budget is None:
        budget = default_budget()
    mask, _nodes, truncated = _cycle_lengths_py(adj_masks(g), g.n, budget)
    if truncated:
        raise BudgetExceeded(f"cycle enumeration exceeded {budget} nodes")
    return set(mask_bits(mask))


# -- witness materialization (deterministic first-found DFS) ---------------


def find_path_with_length(g, x, y, length, avoid=()):
    """First (lex by neighbor order) simple (x, y)-path with exactly
    `length` edges avoiding `avoid`, or None.  One node per extension is
    counted against the default budget."""
    avoid = set(avoid)
    if x in avoid or y in avoid:
        return None
    budget = default_budget()
    nodes = 0
    path = [x]
    onpath = {x}

    def rec():
        nonlocal nodes
        u = path[-1]
        if len(path) - 1 == length:
            return u == y
        if u == y:
            return False
        # plain DFS, no pruning: a missing length explores every simple path
        for v in sorted(g.adj[u]):
            if v in onpath or v in avoid:
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
        return tuple(path)
    return None


def find_cycle_with_length(g, length, avoid=()):
    """First simple cycle with exactly `length` edges, or None.  One node
    per extension is counted against the default budget."""
    return _first_cycle(g, length, avoid, default_budget(), 0)[0]


def _first_cycle(g, length, avoid, budget, nodes):
    """(first simple cycle with exactly `length` edges or None, nodes).

    `nodes` counts what earlier searches drawing on the same `budget` have
    spent; this search adds one node per extension and raises
    BudgetExceeded once the total passes the budget."""
    avoid = set(avoid)
    for s in range(g.n):
        if s in avoid:
            continue
        path = [s]
        onpath = {s}

        def rec():
            nonlocal nodes
            u = path[-1]
            if len(path) == length:
                return g.has_edge(u, s)
            for v in sorted(g.adj[u]):
                if v <= s or v in onpath or v in avoid:
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

"""Exhaustive-search kernels: the exact set of simple (x, y)-path lengths
and the exact set of cycle lengths of a graph, plus the witness searches
that materialize one path or cycle of a given length.

These are the hot loops of the oracle layer, in pure Python, on
arbitrary-width int adjacency bitmasks (any n):
- the path lengths come from a depth-first search over every simple path
  from x that avoids y: one node per vertex entered, and one more for
  each entered vertex adjacent to y, whose single test records the path
  on to y, so y itself is never entered.  y is cut out of the neighbour
  masks once per call, the current frame lives in locals, and only a
  suspended frame with an untried neighbour goes on the stack.  That is
  one node per step of a search that enters y as a leaf;
- the cycle spectrum comes from a Bellman/Held-Karp subset DP, one set
  size at a time, in O(2^n * n * max degree): one node per (vertex set,
  end vertex) expansion and one per edge relaxation; the library's cycle
  oracle no longer calls it, and it stays as the tests' ground truth;
- the witness searches are one first-found depth-first search, _first_walk,
  parameterised by its closing test: a cycle closes back to its smallest
  vertex s through vertices above s, a path ends at y and never passes
  through y.  It extends neighbors lowest id first, one node per
  extension; a search can go on counting from where earlier ones stopped,
  so that a series of searches shares one budget.  A length that no
  simple path or cycle of the graph can have returns None with no search.
Every search counts its nodes against a budget (default 10**7, override
with the CYCLEMOD_BUDGET environment variable) and raises BudgetExceeded
rather than returning a partial answer: the partial length mask of a
truncated path search is never returned.  The public functions reject a
root that is not a vertex of g with InvalidArgument before any search.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded, InvalidArgument
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
    """(bitmask of realizable simple x-y path lengths, nodes, truncated).

    A depth-first search over the simple paths from x that avoid y, on
    neighbour masks with y cut out once per call and on the mask `near` of
    the vertices adjacent to y.  Entering a vertex v at depth d charges one
    node, and one more when v is in `near`: that one test records the
    length d + 1 of the path through v to y, so y is never entered.  The
    current frame (untried neighbours, path mask, depth) lives in locals;
    a descent suspends the parent on the stack only while it still has an
    untried neighbour, and a vertex with no untried neighbour gets no
    frame.  The charge is one node per step of the search that enters y as
    a leaf, so a finished call returns that search's mask and count.  An
    overrun returns budget + 1 nodes with a partial mask, which
    path_length_set never returns.  When x == y, nothing is cut, the mask
    is empty and the nodes count the simple paths from x.  `adj` is left
    unchanged."""
    if x != y:
        cut = ~(1 << y)
        masks = [a & cut for a in adj]
        near = adj[y]
    else:
        masks = adj
        near = 0
    lengths = 0
    nodes = 0
    if near >> x & 1:
        lengths = 2
        nodes = 1
        if nodes > budget:
            return lengths, nodes, True
    rem = masks[x]
    path = 1 << x
    depth = 1
    stack = []
    push = stack.append
    pop = stack.pop
    while True:
        while rem:
            b = rem & -rem
            rem ^= b
            if b & near:
                lengths |= 2 << depth
                nodes += 2
            else:
                nodes += 1
            # an overrun reports the first node past the budget
            if nodes > budget:
                return lengths, budget + 1, True
            a = masks[b.bit_length() - 1] & ~path
            if a:
                if rem:
                    push((rem, path, depth))
                rem = a
                path |= b
                depth += 1
        if not stack:
            return lengths, nodes, False
        rem, path, depth = pop()


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


def _check_roots(g, x, y):
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise InvalidArgument(f"roots ({x}, {y}) must be vertices of g (n={g.n})")


def path_length_set(g, x, y, budget=None):
    """Exact set of lengths of simple (x, y)-paths in g."""
    _check_roots(g, x, y)
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


def _first_walk(adj, start, depth, ends, stop, banned, budget, nodes):
    """(first simple walk of `depth` edges from `start` whose last vertex is
    in the bitmask `ends`, as a tuple, or None; nodes; truncated).

    Vertices in `banned` (which holds `start`) are never entered, and a
    walk that reaches a vertex of `stop` before its last step goes no
    further.  Neighbors are extended lowest id first, one node per
    extension on top of the `nodes` already spent; the last step of a walk
    is charged in one go, up to the first closing vertex.  An overrun
    reports the first node past the budget."""
    path = [start]
    stack = [adj[start] & ~banned]
    visited = banned
    while stack:
        rem = stack[-1]
        if len(path) == depth:
            hit = rem & ends
            if hit:
                hit &= -hit
                rem &= (hit << 1) - 1
            nodes += rem.bit_count()
            if nodes > budget:
                return None, budget + 1, True
            if hit:
                return tuple(path) + (hit.bit_length() - 1,), nodes, False
            rem = 0
        if rem == 0:
            visited &= ~(1 << path.pop())
            stack.pop()
            continue
        b = rem & -rem
        stack[-1] = rem ^ b
        nodes += 1
        if nodes > budget:
            return None, nodes, True
        if stop & b:
            continue
        visited |= b
        path.append(b.bit_length() - 1)
        stack.append(adj[path[-1]] & ~visited)
    return None, nodes, False


def find_path_with_length(g, x, y, length):
    """First (lex by neighbor order) simple (x, y)-path with exactly
    `length` edges, or None.  One node per extension is counted against the
    default budget; a missing length explores every simple path."""
    _check_roots(g, x, y)
    return _first_path(adj_masks(g), x, y, length, default_budget(), 0)[0]


def _first_path(adj, x, y, length, budget, nodes):
    """(first simple (x, y)-path with exactly `length` edges or None, nodes),
    on the adjacency bitmasks `adj`; the path never passes through y.
    Counts nodes as _first_cycle does; a length outside 1 ... n - 1
    charges none."""
    if length == 0 or x == y:
        return ((x,) if length == 0 and x == y else None), nodes
    if not 0 < length < len(adj):
        return None, nodes
    path, nodes, truncated = _first_walk(adj, x, length, 1 << y, 1 << y, 1 << x, budget, nodes)
    if truncated:
        raise BudgetExceeded(f"path search exceeded {budget} nodes")
    return path, nodes


def find_cycle_with_length(g, length):
    """First simple cycle with exactly `length` edges, or None.  One node
    per extension is counted against the default budget."""
    return _first_cycle(adj_masks(g), length, default_budget(), 0)[0]


def _first_cycle(adj, length, budget, nodes):
    """(first simple cycle with exactly `length` edges or None, nodes), on
    the adjacency bitmasks `adj`.

    Each cycle is found from its smallest vertex s, through vertices above
    s and back to s.  `nodes` counts what earlier searches drawing on the
    same `budget` have spent; this search adds one node per extension and
    raises BudgetExceeded once the total passes the budget; a length
    outside 3 ... n charges none."""
    if not 3 <= length <= len(adj):
        return None, nodes
    for s in range(len(adj)):
        cycle, nodes, truncated = _first_walk(adj, s, length - 1, adj[s], 0, (2 << s) - 1,
                                              budget, nodes)
        if truncated:
            raise BudgetExceeded(f"cycle search exceeded {budget} nodes")
        if cycle is not None:
            return cycle, nodes
    return None, nodes

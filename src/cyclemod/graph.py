"""Immutable simple undirected graphs with the set/edge-count primitives.

Vertices are dense integer ids 0..n-1.  Every "mutation" (adding the xy edge,
deleting vertices, contracting a set) returns a new graph, usually together
with an id mapping so witnesses found in the derived graph can be pulled back
to the original one.

Text format (used by the CLI): optional header line ``p <n> <m>``, then one
``u v`` pair per line, 0-based.  Duplicate and reversed pairs are merged;
self-loops are rejected.
"""

from __future__ import annotations

from .errors import InvalidArgument


class Graph:
    """Simple undirected graph; adjacency sets, no loops or multi-edges."""

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n, edges=()):
        adj = [set() for _ in range(n)]
        for u, v in edges:
            _check_pair(n, u, v)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)
        self._hash = None

    @classmethod
    def _of_adj(cls, adj):
        """The graph whose adjacency is the tuple of frozensets `adj`, taken
        as it is: the derived-graph builders below make it symmetric and
        loop-free by construction, so no edge list is built or checked."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        g._hash = None
        return g

    # -- basic queries ---------------------------------------------------

    def degree(self, v):
        return len(self.adj[v])

    def has_edge(self, u, v):
        return v in self.adj[u]

    def edges(self):
        """Sorted list of edges as (u, v) with u < v."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    @property
    def m(self):
        return sum(len(s) for s in self.adj) // 2

    def min_degree(self):
        if self.n == 0:
            raise InvalidArgument("empty graph has no minimum degree")
        return min(len(s) for s in self.adj)

    def rooted_min_degree(self, x, y):
        """min degree over V \\ {x, y}; infinity when no other vertex exists."""
        degs = [len(self.adj[v]) for v in range(self.n) if v != x and v != y]
        return min(degs) if degs else float("inf")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.adj))
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs --------------------------------------------------

    def with_edge(self, u, v):
        """Copy with edge uv added (no-op copy if already present); every
        neighborhood but those of u and v is shared with self."""
        _check_pair(self.n, u, v)
        return self._replace(u, v, self.adj[u] | {v}, self.adj[v] | {u})

    def without_edge(self, u, v):
        """Copy with edge uv deleted, sharing neighborhoods as with_edge."""
        _check_pair(self.n, u, v)
        if not self.has_edge(u, v):
            raise InvalidArgument(f"edge ({u},{v}) not present")
        return self._replace(u, v, self.adj[u] - {v}, self.adj[v] - {u})

    def _replace(self, u, v, nbrs_u, nbrs_v):
        adj = list(self.adj)
        adj[u] = nbrs_u
        adj[v] = nbrs_v
        return Graph._of_adj(tuple(adj))


def _check_pair(n, u, v):
    if not (0 <= u < n and 0 <= v < n):
        raise InvalidArgument(f"edge ({u},{v}) out of range for n={n}")
    if u == v:
        raise InvalidArgument(f"self-loop at {u}")


def induced(g, s):
    """Induced subgraph G[S], relabeled 0..|S|-1.

    Returns (subgraph, to_orig) where to_orig[i] is the original id of
    vertex i in the subgraph.
    """
    to_orig = sorted(set(s))
    for v in to_orig:
        if not 0 <= v < g.n:
            raise InvalidArgument(f"vertex {v} out of range")
    inv = {o: i for i, o in enumerate(to_orig)}
    adj = tuple(frozenset(inv[v] for v in g.adj[u] if v in inv) for u in to_orig)
    return Graph._of_adj(adj), to_orig


def contract_set(g, s):
    """Contract vertex set s into one super-vertex, merging parallel edges.

    Returns (graph, to_new, super_id): to_new maps original ids to new ids
    (members of s all map to super_id).  The kept vertices occupy ids
    0..n-|s|-1 in their original order; the super-vertex is the last id.
    """
    s = set(s)
    if not s:
        raise InvalidArgument("contract_set needs a nonempty set")
    for v in s:
        if not 0 <= v < g.n:
            raise InvalidArgument(f"vertex {v} out of range")
    kept = [v for v in range(g.n) if v not in s]
    super_id = len(kept)
    to_new = {}
    for i, v in enumerate(kept):
        to_new[v] = i
    for v in s:
        to_new[v] = super_id
    # a kept vertex keeps its neighbors, members of s becoming super_id;
    # the super-vertex gets the kept neighbors of every member
    adj = [frozenset(to_new[w] for w in g.adj[v]) for v in kept]
    adj.append(frozenset(to_new[w] for v in s for w in g.adj[v] if w not in s))
    return Graph._of_adj(tuple(adj)), to_new, super_id


def is_bipartite(g):
    """A proper 2-coloring as (side0, side1) sorted lists, or None."""
    color = _coloring(g)
    if color is None:
        return None
    return (
        [v for v in range(g.n) if color[v] == 0],
        [v for v in range(g.n) if color[v] == 1],
    )


def _coloring(g):
    """A proper 2-coloring as a list of 0/1 colors by vertex, or None; the
    callers that only ask whether g is bipartite test it against None."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            for v in g.adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def girth(g):
    """Length of a shortest cycle, or None if g is a forest.

    BFS from every root: a non-tree edge uv closes a walk of length
    dist(u) + dist(v) + 1, which holds a cycle no longer than it, and from
    a root on a shortest cycle the smallest such walk is that cycle.  An
    edge seen from depth d closes a walk of length >= 2d, so each search
    stops at the first depth d with 2d >= the best walk so far."""
    return _girth(g, _coloring(g) is not None)


def _girth(g, bipartite):
    """girth(g), given whether g is bipartite: the scan stops as soon as a
    walk reaches the floor, 3, or 4 when g is bipartite (no odd cycles),
    since no cycle is shorter."""
    floor = 4 if bipartite else 3
    best = None
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: None}
        frontier = [root]
        depth = 0
        while frontier and (best is None or 2 * depth < best):
            nxt = []
            for u in frontier:
                for v in g.adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
                    elif v != parent[u]:
                        walk = dist[u] + dist[v] + 1
                        if best is None or walk < best:
                            if walk == floor:
                                return walk
                            best = walk
            frontier = nxt
            depth += 1
    return best


def adj_masks(g):
    """Adjacency as int bitmasks: bit v of adj_masks(g)[u] is set exactly
    when uv is an edge."""
    masks = []
    for nbrs in g.adj:
        mask = 0
        for v in nbrs:
            mask |= 1 << v
        masks.append(mask)
    return masks


def mask_bits(mask):
    """The vertices of an int bitmask, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def is_connected(g, ignore=()):
    """Connectivity of G - ignore (vertex deletion)."""
    ignore = set(ignore)
    verts = [v for v in range(g.n) if v not in ignore]
    if not verts:
        return True
    return len(component_of(g, verts[0], ignore)) == len(verts)


def component_of(g, root, ignore=()):
    """Vertex set of the component of G - ignore that holds root."""
    ignore = set(ignore)
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            if v not in ignore and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def components(g, ignore=()):
    """Connected components of G - ignore, each a sorted list, in the order
    of their smallest vertex."""
    ignore = set(ignore)
    seen = set(ignore)
    out = []
    for root in range(g.n):
        if root not in seen:
            comp = component_of(g, root, ignore)
            seen |= comp
            out.append(sorted(comp))
    return out


def shortest_path(g, src, dst, forbidden=()):
    """Shortest src-dst path avoiding `forbidden` vertices (BFS), or None.
    Endpoints must not be forbidden."""
    forbidden = set(forbidden)
    if src in forbidden or dst in forbidden:
        raise InvalidArgument("endpoint is forbidden")
    if src == dst:
        return (src,)
    prev = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(g.adj[u]):
                if v in forbidden or v in prev:
                    continue
                prev[v] = u
                if v == dst:
                    path = [v]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return tuple(path)
                nxt.append(v)
        frontier = nxt
    return None


def parse_graph(text):
    """Parse the plain edge-list text format (see module docstring)."""
    n_declared = None
    edges = set()
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 2:
                raise InvalidArgument(f"line {lineno}: malformed header")
            try:
                n_declared = int(parts[1])
            except ValueError:
                raise InvalidArgument(f"line {lineno}: malformed header") from None
            continue
        if len(parts) != 2:
            raise InvalidArgument(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InvalidArgument(f"line {lineno}: expected integers") from None
        if u < 0 or v < 0:
            raise InvalidArgument(f"line {lineno}: negative vertex id")
        if u == v:
            raise InvalidArgument(f"line {lineno}: self-loop")
        edges.add((min(u, v), max(u, v)))
        max_seen = max(max_seen, u, v)
    n = n_declared if n_declared is not None else max_seen + 1
    if max_seen >= n:
        raise InvalidArgument(f"vertex id {max_seen} exceeds declared n={n}")
    return Graph(max(n, 0), sorted(edges))


def format_graph(g):
    """Serialize in the text format (deterministic)."""
    lines = [f"p {g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# -- small constructors used all over the tests -------------------------


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])

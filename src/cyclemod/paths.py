"""Constructive extraction of k (x, y)-paths whose lengths satisfy the
length condition (first >= 2, steps of 2) or the semi-length condition
(one step of 1, the rest 2).

Two entry points share one recursive engine:

* find_paths_length: needs (G, x, y) rooted 2-connected with every vertex
  outside {x, y} of degree >= 2k; always returns a length-condition family.
* find_paths_flex: needs degree >= 2k - 1; returns a length-condition or a
  semi-length family.

The engine mirrors the inductive structure of the existence proof: reduce
to a 2-connected graph with xy not an edge, then branch on whether G - y
has a 4-cycle through x.  Without one, the neighborhood of x contracts to
a single vertex and the problem recurses one level down, or, when x and y
have the same neighborhood, through a component outside it.  With one, a
complete-bipartite core H = G[S, T] exists, C is the component of y in
G - V(H), and a cascade of constructions follows:

* ladders through H alone, or with one T-T edge (semi-length);
* C = {y}: recurse on G - {x, y} between the two vertices of T, or on
  G - {s, t} with one path re-routed over s, t;
* |C| >= 2: (T, b)-paths across an end block of C that T reaches, or
  across C itself, each extended through H by ladders.

The cascade holds only the sites that some public request reaches (the
reach table in tests/test_reach.py).  Each site validates its own output,
and each is tried through _attempt: a construction that declines leaves no
tag in the trace, its sub-requests' tags included.  If the whole cascade
fails, an exhaustive oracle produces the family and records the GAP_TAG
tag, so a constructive gap is measurable rather than silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import (
    Disconnected,
    HypothesisNotMet,
    InvalidArgument,
    InvalidWitness,
    InvariantViolated,
    NotRooted2Connected,
)
from .graph import Graph, components, induced, contract_set, shortest_path
from .decompose import (
    block_cut_tree,
    feasible_end_blocks,
    is_2_connected,
    is_rooted_2_connected,
    leaf_blocks,
)
from .families import (
    LENGTH,
    SEMI,
    FamilyClass,
    first_window,
    join_paths,
    make_path_family,
    reverse_family,
    validate_path_family,
)
from .core import (
    core_paths_big_l,
    core_paths_semilength,
    extend_from_core,
    find_core,
    h_ladder_path,
)
from .oraclekern import find_path_with_length, path_length_set


# the tag of an oracle fallback: a level that no construction solved
GAP_TAG = "oracle-fallback"


@dataclass
class ExtractionTrace:
    """The tags of the constructions that built the result, in the order
    they finished, and the error that the last declined construction
    raised (see _attempt)."""

    branches: list = field(default_factory=list)
    declined: Exception = None

    @property
    def constructive_gap(self):
        """Was the exhaustive-oracle fallback needed for the result?"""
        return GAP_TAG in self.branches

    def record(self, tag):
        self.branches.append(tag)


# -- oracle side -----------------------------------------------------------


def oracle_paths(g, x, y, k, flex=False):
    """Exhaustively decide and materialize a k-path family, or None.

    Independent of the constructive engine: enumerates the exact set of
    (x, y)-path lengths, finds the first window of lengths it holds (the
    length condition, then with flex the semi-length condition; the
    smallest first length, then the smallest switch), and realizes one
    witness per length.  A family of k (x, y)-paths with given lengths
    exists iff each length is realizable, because the members need not be
    disjoint.  Raises InvalidArgument, before any search, unless k >= 1 and
    x, y are two distinct vertices of g.
    """
    _check_request(g, x, y, k)
    lengths = path_length_set(g, x, y)
    groups = [[FamilyClass(LENGTH)]]
    if flex:
        groups.append([FamilyClass(SEMI, j) for j in range(1, k)])
    hit = first_window(groups, k, 2, max(lengths, default=1), lengths.issuperset)
    if hit is None:
        return None
    cls, want = hit
    members = []
    for length in want:
        p = find_path_with_length(g, x, y, length)
        if p is None:
            raise InvalidWitness(f"length {length} in the length set but not realizable")
        members.append(p)
    return validate_path_family(g, make_path_family(members, cls=cls), x, y)


# -- shared plumbing --------------------------------------------------------


def _budget(k, flex):
    return 2 * k - 1 if flex else 2 * k


def _check_request(g, x, y, k):
    if k < 1:
        raise InvalidArgument("k must be positive")
    if x == y or not (0 <= x < g.n and 0 <= y < g.n):
        raise InvalidArgument("roots must be two distinct vertices of g")


def _check_hypothesis(g, x, y, k, flex):
    _check_request(g, x, y, k)
    if not is_rooted_2_connected(g, x, y):
        raise NotRooted2Connected("adding the edge xy must leave a 2-connected graph")
    if g.rooted_min_degree(x, y) < _budget(k, flex):
        raise HypothesisNotMet(
            f"need minimum degree {_budget(k, flex)} outside the roots, "
            f"got {g.rooted_min_degree(x, y)}"
        )


def _fits(aux, ax, ay, k, flex):
    """Preconditions of a recursive call, checked before descending; the
    only hypothesis check a recursive call gets."""
    if k < 1 or aux.n < 3 or ax == ay:
        return False
    if aux.rooted_min_degree(ax, ay) < _budget(k, flex):
        return False
    return is_rooted_2_connected(aux, ax, ay)


def _recurse_on(g, verts, a, b, k, flex, trace):
    """k (a, b)-paths found by recursing on G[verts], lifted back to the
    ids of g; raises HypothesisNotMet when the subproblem misses the
    hypothesis.  The one place that builds a relabelled subproblem and
    lifts its paths back.

    A root is a vertex of `verts` or a super vertex, given as a pair
    (attach, options): a new vertex adjacent to each vertex of `attach`.
    The lift replaces a super root by the first vertex of the sequence
    `options`, in its order, adjacent to its neighbor on the path.
    """
    sub, to_orig = induced(g, verts)
    inv = {v: i for i, v in enumerate(to_orig)}
    adj, roots = list(sub.adj), []
    for r in (a, b):
        if isinstance(r, tuple):
            # a super root: a new vertex joined to each vertex of r[0]
            attach = frozenset(inv[v] for v in r[0])
            for v in attach:
                adj[v] = adj[v] | {len(adj)}
            roots.append(len(adj))
            adj.append(attach)
        else:
            roots.append(inv[r])
    if len(adj) > sub.n:
        sub = Graph._of_adj(tuple(adj))
    if not _fits(sub, roots[0], roots[1], k, flex):
        raise HypothesisNotMet("the subproblem misses the hypothesis")
    fam = _engine(sub, roots[0], roots[1], k, flex, trace)

    def lift(v, root, near):
        if v < len(to_orig):
            return to_orig[v]
        nbrs = g.adj[to_orig[near]]
        for w in root[1]:
            if w in nbrs:
                return w
        raise InvalidWitness("no real vertex realizes the super attachment")

    members = [
        (lift(m[0], a, m[1]),) + tuple(to_orig[v] for v in m[1:-1]) + (lift(m[-1], b, m[-2]),)
        for m in fam.members
    ]
    return make_path_family(members, cls=fam.cls)


def _path_within(g, a, b, allowed):
    """Shortest a-b path whose vertices all lie in `allowed` (plus a, b)."""
    allowed = set(allowed) | {a, b}
    return shortest_path(g, a, b, forbidden=set(range(g.n)) - allowed)


_BRANCH_ERRORS = (
    HypothesisNotMet,
    NotRooted2Connected,
    InvalidWitness,
    InvalidArgument,
    Disconnected,
)


# -- the recursive engine ----------------------------------------------------


def _engine(g, x, y, k, flex, trace):
    """The recursion; callers have checked the hypothesis for (g, x, y, k)."""
    if g.degree(x) > g.degree(y):
        return reverse_family(_engine(g, y, x, k, flex, trace))

    fam = _dispatch(g, x, y, k, flex, trace)
    if fam is None:
        fam = oracle_paths(g, x, y, k, flex=flex)
        if fam is None:
            raise HypothesisNotMet(
                f"no family of {k} (x, y)-paths exists at all in this graph"
            )
        trace.record(GAP_TAG)
    allowed = (LENGTH, SEMI) if flex else (LENGTH,)
    validate_path_family(g, fam, x, y, allowed=allowed)
    if fam.k != k:
        raise InvalidWitness(f"expected {k} members, got {fam.k}")
    return fam


def _dispatch(g, x, y, k, flex, trace):
    """One level of the recursion on (g, x, y), which the caller has made
    rooted 2-connected: G + xy is 2-connected.  Every caller of _engine
    guarantees it: the public entry points check it (_check_hypothesis), a
    descent checks it first (_fits), the degree swap and the drop of xy keep
    G + xy, and cycles._two_cycles_from_edge passes an edge xy of a
    2-connected G.  So when xy is an edge, G = G + xy is 2-connected, and
    the edge test comes before the 2-connectivity walk that would only
    confirm it; the branch taken is the same either way."""
    if k == 1:
        trace.record("single-path")
        return _base_single(g, x, y)
    if g.has_edge(x, y):
        trace.record("drop-xy-edge")
        return _engine(g.without_edge(x, y), x, y, k, flex, trace)
    if not is_2_connected(g):
        return _split_at_end_block(g, x, y, k, flex, trace)
    core = find_core(g, x, y)
    if core is None:
        return _case_no_core(g, x, y, k, flex, trace)
    return _case_core(g, x, y, k, flex, trace, core)


def _attempt(trace, tag, fn):
    """fn's family, with `tag` recorded after the tags of fn's own
    sub-requests (nothing for a tag of None); or None when fn declines by
    returning None or raising one of _BRANCH_ERRORS.  A declined fn leaves
    trace.branches as it found it, and the error it raised is kept as
    trace.declined.  The one place that catches a declined construction."""
    mark = len(trace.branches)
    try:
        fam = fn()
    except _BRANCH_ERRORS as exc:
        fam, trace.declined = None, exc
    if fam is None:
        del trace.branches[mark:]
    elif tag is not None:
        trace.record(tag)
    return fam


def _base_single(g, x, y):
    """One (x, y)-path of length >= 2 (k = 1)."""
    p = shortest_path(g.without_edge(x, y) if g.has_edge(x, y) else g, x, y)
    if p is None or len(p) < 3:
        raise HypothesisNotMet("no (x, y)-path of length at least 2")
    return make_path_family([p], cls=FamilyClass(LENGTH))


def _split_at_end_block(g, x, y, k, flex, trace):
    """G connected but not 2-connected: peel off the end block holding x.

    Both descents meet the hypothesis, so their _recurse_on never raises
    and this level needs no _attempt.  G + xy is 2-connected, so
    x and y are no cut vertices of G, and each end block of G holds one of
    them: the blocks form a path from the end block of x, whose one cut
    vertex is b, to the end block of y.  A block of three or more vertices
    is 2-connected, and its vertices other than x and b have all their
    neighbors in it.  The single edge xb leaves G - x a path of blocks from
    b to y, with every degree but b's kept; deg(b) >= 2k - 1 >= 3 (k >= 2
    here) gives G - x three or more vertices."""
    for blk, b in leaf_blocks(g):
        if x not in blk:
            continue
        if len(blk) >= 3:
            trace.record("end-block-of-x")
            fam = _recurse_on(g, blk, x, b, k, flex, trace)
            bridge = _path_within(g, b, y, set(range(g.n)) - (set(blk) - {b}))
            if bridge is None:
                raise Disconnected("no path from the cut vertex to y")
            # every member grows by the same bridge, so the reading survives
            return make_path_family([join_paths(m, bridge) for m in fam.members], cls=fam.cls)
        # the end block is the single edge xb: recurse on G - x
        trace.record("strip-degree-one-x")
        fam = _recurse_on(g, set(range(g.n)) - {x}, b, y, k, flex, trace)
        return make_path_family([join_paths((x, b), m) for m in fam.members], cls=fam.cls)
    return None


# -- no 4-cycle through x in G - y -------------------------------------------


def _case_no_core(g, x, y, k, flex, trace):
    nx = set(g.adj[x])
    for v in range(g.n):
        if v not in (x, y) and len(g.adj[v] & (nx - {v})) > 1:
            raise InvariantViolated("4-cycle through x exists but no core was found")
    gstar, to_new, x_star = contract_set(g, nx | {x})
    y_star = to_new[y]

    if gstar.n == 2:
        if flex and k == 2:
            fam = _attempt(trace, "contract-tiny-semi", lambda: _tiny_semi(g, x, y))
            if fam is not None:
                return fam
        return None

    # G is 2-connected and N[x] connected, so a cut vertex of G* other than x*
    # would cut G: y* is no cut vertex, and its one block holds x*
    blk = next(b for b in block_cut_tree(gstar).blocks if y_star in b)
    if len(blk) >= 3:
        inside = set(blk) - {x_star}
        verts = [v for v in range(g.n) if to_new[v] in inside]
        return _attempt(
            trace,
            "contract-neighborhood",
            lambda: _contract_recurse(g, x, y, k, flex, trace, verts),
        )
    return _attempt(
        trace,
        "split-common-neighborhood",
        lambda: _twin_roots(g, x, y, k, flex, trace),
    )


def _tiny_semi(g, x, y):
    """V(G) = {x, y} u N(x): two paths x v1 y and x v1 v2 y (semi, k = 2)."""
    for v1 in sorted(g.adj[x]):
        if not g.has_edge(v1, y):
            continue
        for v2 in sorted(g.adj[x] & g.adj[v1]):
            if v2 != v1 and g.has_edge(v2, y):
                return make_path_family(
                    [(x, v1, y), (x, v1, v2, y)], cls=FamilyClass(SEMI, 1)
                )
    return None


def _contract_recurse(g, x, y, k, flex, trace, verts):
    """Recurse on the real vertices `verts` of a block of G* = G/N[x], with
    x* as a super root that lifts to the smallest vertex of N(x) adjacent
    to the next vertex of the path; x then goes in front of each path."""
    attach = [v for v in verts if g.adj[v] & g.adj[x]]
    fam = _recurse_on(g, verts, (attach, sorted(g.adj[x])), y, k, flex, trace)
    return make_path_family([(x,) + m for m in fam.members], cls=fam.cls)


def _twin_roots(g, x, y, k, flex, trace):
    """N(y) = N(x): route through a component of G - (N(x) u {x, y}) whose
    neighborhood splits into two super-attachment classes.

    Each split is its own untagged attempt, so a split that declines
    leaves no tag and the next split is tried: one whose subproblem misses
    the hypothesis, and one whose recursion raises after meeting it (the
    engine finds no family, or one that fails validation), which no known
    request reaches."""
    nx = set(g.adj[x])
    if set(g.adj[y]) != nx:
        raise InvariantViolated("degree order should force equal neighborhoods")
    outside = set(range(g.n)) - nx - {x, y}
    for comp in components(g, ignore=nx | {x, y}):
        if not set(comp) <= outside:
            continue
        boundary = sorted(set().union(*(g.adj[v] for v in comp)) - set(comp))
        if not set(boundary) <= nx or len(boundary) < 2:
            continue
        anchor = boundary[0]
        for r in range(0, len(boundary) - 1):
            for rest in combinations(boundary[1:], r):
                s_side = {anchor} | set(rest)
                t_side = set(boundary) - s_side
                fam = _attempt(trace, None, lambda: _twin_split(
                    g, x, y, k, flex, trace, comp, s_side, t_side))
                if fam is not None:
                    return fam
    return None


def _twin_split(g, x, y, k, flex, trace, comp, s_side, t_side):
    s_attach = [v for v in comp if g.adj[v] & s_side]
    t_attach = [v for v in comp if g.adj[v] & t_side]
    if not s_attach or not t_attach:
        return None
    fam = _recurse_on(
        g, comp, (s_attach, sorted(s_side)), (t_attach, sorted(t_side)), k, flex, trace
    )
    members = [(x,) + m + (y,) for m in fam.members]
    return make_path_family(members, cls=fam.cls)


# -- with a core -------------------------------------------------------------


def _case_core(g, x, y, k, flex, trace, core):
    l = core.l
    c_set = set(core.component_c)
    s_minus_x = [v for v in core.s if v != x]
    tc = any(g.adj[t] & c_set for t in core.t)
    sc = any(g.adj[v] & c_set for v in s_minus_x)
    tt = any(g.has_edge(u, v) for u in core.t for v in core.t if u < v)

    if l >= k or (l == k - 1 and tc):
        fam = _attempt(trace, "core-ladders", lambda: core_paths_big_l(g, core, k))
        if fam is not None:
            return fam
    if flex and l == k - 1 and sc and tt:
        fam = _attempt(trace, "core-ladders-semi", lambda: core_paths_semilength(g, core, k))
        if fam is not None:
            return fam
    tcy = any(g.adj[t] & (c_set - {y}) for t in core.t)
    if flex and not tcy and sc:
        fam = _attempt(trace, "core-semi-through-y", lambda: _semi_in_h_plus_y(g, core, k))
        if fam is not None:
            return fam

    if len(c_set) == 1:
        return _case_single_y(g, x, y, k, flex, trace, core)
    return _case_big_c(g, x, y, k, flex, trace, core)


def _semi_in_h_plus_y(g, core, k):
    """T attaches to C only at y, with y adjacent across T: even ladder
    lengths 2..2l+2 plus one length-(2l+3) path using an edge inside T."""
    x, y = core.x, core.y
    l = core.l
    if l != k - 2 or len(core.t) < l + 2:
        return None
    t_y = [t for t in core.t if g.has_edge(t, y)]
    if not t_y:
        return None
    ty = t_y[0]
    members = []
    for i in range(1, l + 2):  # odd ladders 1..2l+1, then the ty edge
        lad = h_ladder_path(core, x, ty, 2 * i - 1)
        members.append(lad + (y,))
    long_member = None
    for t1 in core.t:
        for t2 in core.t:
            if t1 == t2 or not g.has_edge(t1, t2) or not g.has_edge(t2, y):
                continue
            try:
                lad = h_ladder_path(core, x, t1, 2 * l + 1, avoid=(t2,))
            except InvalidArgument:
                continue
            long_member = lad + (t2, y)
            break
        if long_member:
            break
    if long_member is None:
        return None
    members.append(long_member)
    return make_path_family(members, cls=FamilyClass(SEMI, k - 1))


# -- C = {y} -----------------------------------------------------------------


def _case_single_y(g, x, y, k, flex, trace, core):
    t_set = set(core.t)
    if g.adj[x] != frozenset(t_set) or g.adj[y] != frozenset(t_set):
        return None
    if len(t_set) == 2:
        return _attempt(trace, "single-y-two-t", lambda: _single_y_two_t(g, x, y, k, flex, trace, core))
    s_opts = [v for v in core.s if v != x]
    for s in s_opts:
        for t in sorted(t_set):
            fam = _single_y_delete_pair(g, x, y, k, flex, trace, core, s, t)
            if fam is not None:
                return fam
    return None


def _single_y_two_t(g, x, y, k, flex, trace, core):
    t1, t2 = sorted(core.t)
    fam = _recurse_on(g, set(range(g.n)) - {x, y}, t1, t2, k, flex, trace)
    members = [(x,) + m + (y,) for m in fam.members]
    return make_path_family(members, cls=fam.cls)


def _single_y_delete_pair(g, x, y, k, flex, trace, core, s, t):
    """G - {s, t} 2-connected: k - 1 paths there, and the longest once more
    with its last edge replaced by the detour s, t, y."""
    if not is_2_connected(g, (s, t)):
        return None

    def two_conn():
        fam = _recurse_on(g, set(range(g.n)) - {s, t}, x, y, k - 1, flex, trace)
        longest = fam.members[-1]
        extra = longest[:-1] + (s, t, y)
        return make_path_family(list(fam.members) + [extra], cls=fam.cls)

    return _attempt(trace, "single-y-2conn", two_conn)


# -- |C| >= 2 ----------------------------------------------------------------


def _case_big_c(g, x, y, k, flex, trace, core):
    """(T*, b)-paths across an end block of C that T reaches, or across all
    of C when C is one block, extended through the core."""
    c_set = set(core.component_c)
    # C is connected and holds y: the component of y in G - V(H)
    feas, single = feasible_end_blocks(g, y, set(range(g.n)) - c_set)

    cands = []
    if single:
        cands.append((c_set, y))
    for blk, b in feas:
        blk = set(blk)
        if any(g.adj[t] & (blk - {b}) for t in core.t):
            cands.append((blk, b))
    for blk, b in cands:
        fam = _attempt(
            trace,
            "block-to-t",
            lambda blk=blk, b=b: _block_to_t(g, x, y, k, flex, trace, core, blk, b),
        )
        if fam is not None:
            return fam
    return None


def _block_to_t(g, x, y, k, flex, trace, core, blk, b):
    l = core.l
    t_set = set(core.t)
    c_set = set(core.component_c)
    attach = [v for v in blk if g.adj[v] & t_set]
    if not attach:
        return None
    fam = _recurse_on(g, blk, (attach, core.t), b, k - l, flex, trace)
    if b == y:
        tail = ()
    else:
        bridge = _path_within(g, b, y, c_set - (blk - {b}))
        if bridge is None:
            return None
        tail = bridge
    members = [join_paths(m, tail) if tail else m for m in fam.members]
    att = make_path_family(members, cls=fam.cls)
    return extend_from_core(g, core, att, k)


# -- public entry points -----------------------------------------------------


def find_paths_length(g, x, y, k, trace=None):
    """k (x, y)-paths satisfying the length condition; needs (G, x, y)
    rooted 2-connected with min degree 2k outside the roots."""
    _check_hypothesis(g, x, y, k, False)
    if trace is None:
        trace = ExtractionTrace()
    return _engine(g, x, y, k, False, trace)


def find_paths_flex(g, x, y, k, trace=None):
    """k (x, y)-paths satisfying the length or the semi-length condition;
    needs min degree 2k - 1 outside the roots."""
    _check_hypothesis(g, x, y, k, True)
    if trace is None:
        trace = ExtractionTrace()
    return _engine(g, x, y, k, True, trace)

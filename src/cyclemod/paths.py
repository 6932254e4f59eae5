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
a single vertex and the problem recurses one level down.  With one, a
complete-bipartite core H = G[S, T] exists and a cascade of constructions
(ladders through H, attachment families re-routed through H, block
surgery on the component of y) covers every configuration.  Each branch
validates its own output; if the whole cascade fails, an exhaustive
oracle produces the family and the trace is flagged with a constructive
gap, so gaps are measurable rather than silent.
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
    combine_across_cut,
    join_paths,
    length_rows,
    make_path_family,
    reverse_family,
    validate_path_family,
)
from .core import (
    SY_PATHS,
    T_PATHS,
    TS_PATHS,
    TXS_PATHS,
    TY_PATHS,
    core_paths_big_l,
    core_paths_semilength,
    extend_from_core,
    find_core,
    h_ladder_path,
)
from .oraclekern import find_path_with_length, path_length_set


@dataclass
class ExtractionTrace:
    """Which constructive branches fired, and whether the exhaustive-oracle
    fallback was ever needed (a "constructive gap")."""

    branches: list = field(default_factory=list)
    constructive_gap: bool = False

    def record(self, tag):
        self.branches.append(tag)


# -- oracle side -----------------------------------------------------------


def find_pattern(lengths, k, flex):
    """First admissible length pattern drawn from a realizable-length set.

    Returns ("length", a, None) or ("semi", a, switch) where a is the first
    length, or None if no k-term pattern is realizable.  A family of k
    (x, y)-paths with a given pattern exists iff each pattern length is
    individually realizable, because the members need not be disjoint.
    """
    lengths = set(lengths)
    if k < 1:
        raise InvalidArgument("k must be positive")
    top = max(lengths, default=1)
    for a in range(2, top + 1):
        if all(a + 2 * i in lengths for i in range(k)):
            return (LENGTH, a, None)
    if flex:
        for a in range(2, top + 1):
            for j in range(1, k):
                want = [a + 2 * i if i < j else a + 2 * i - 1 for i in range(k)]
                if all(w in lengths for w in want):
                    return (SEMI, a, j)
    return None


def oracle_paths(g, x, y, k, flex=False):
    """Exhaustively decide and materialize a k-path family, or None.

    Independent of the constructive engine: enumerates the exact set of
    (x, y)-path lengths, finds the first admissible pattern, and realizes
    one witness per length.
    """
    lengths = path_length_set(g, x, y)
    hit = find_pattern(lengths, k, flex)
    if hit is None:
        return None
    kind, a, switch = hit
    members = []
    for i in range(k):
        want = a + 2 * i
        if kind == SEMI and i >= switch:
            want -= 1
        p = find_path_with_length(g, x, y, want)
        if p is None:
            raise InvalidWitness(f"length {want} in the length set but not realizable")
        members.append(p)
    cls = FamilyClass(LENGTH) if kind == LENGTH else FamilyClass(SEMI, switch)
    fam = make_path_family(members, cls=cls)
    return validate_path_family(g, fam, x, y)


# -- shared plumbing --------------------------------------------------------


def _budget(k, flex):
    return 2 * k - 1 if flex else 2 * k


def _check_hypothesis(g, x, y, k, flex):
    if k < 1:
        raise InvalidArgument("k must be positive")
    if x == y or not (0 <= x < g.n and 0 <= y < g.n):
        raise InvalidArgument("roots must be two distinct vertices of g")
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
    ids of g; None when the subproblem misses the hypothesis.

    A root is a vertex of `verts` or a super vertex, given as a pair
    (attach, options): a new vertex adjacent to each vertex of `attach`.
    The lift replaces a super root by the smallest vertex of `options`
    adjacent to its neighbor on the path.
    """
    sub, to_orig = induced(g, verts)
    inv = {v: i for i, v in enumerate(to_orig)}
    n, extra, roots = sub.n, [], []
    for r in (a, b):
        if isinstance(r, tuple):
            extra += [(inv[v], n) for v in r[0]]
            roots.append(n)
            n += 1
        else:
            roots.append(inv[r])
    if extra:
        sub = Graph(n, sub.edges() + extra)
    if not _fits(sub, roots[0], roots[1], k, flex):
        return None
    fam = _engine(sub, roots[0], roots[1], k, flex, trace)

    def lift(v, root, near):
        if v < len(to_orig):
            return to_orig[v]
        cands = set(root[1]) & g.adj[to_orig[near]]
        if not cands:
            raise InvalidWitness("no real vertex realizes the super attachment")
        return min(cands)

    members = [
        (lift(m[0], a, m[1]),) + tuple(to_orig[v] for v in m[1:-1]) + (lift(m[-1], b, m[-2]),)
        for m in fam.members
    ]
    return make_path_family(members, cls=fam.cls)


def _path_within(g, a, b, allowed):
    """Shortest a-b path whose vertices all lie in `allowed` (plus a, b)."""
    allowed = set(allowed) | {a, b}
    return shortest_path(g, a, b, forbidden=set(range(g.n)) - allowed)


def _exit_to_set(g, start, region, targets):
    """Shortest path from start through `region` ending at a vertex of
    `targets` (targets are endpoints only), or None."""
    best = None
    for t in sorted(set(targets)):
        p = _path_within(g, start, t, set(region) | {start})
        if p is not None and (best is None or len(p) < len(best)):
            best = p
    return best


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
        trace.constructive_gap = True
        trace.record("oracle-fallback")
    allowed = (LENGTH, SEMI) if flex else (LENGTH,)
    validate_path_family(g, fam, x, y, allowed=allowed)
    if fam.k != k:
        raise InvalidWitness(f"expected {k} members, got {fam.k}")
    return fam


def _dispatch(g, x, y, k, flex, trace):
    if k == 1:
        trace.record("single-path")
        return _base_single(g, x, y)
    if not is_2_connected(g):
        return _split_at_end_block(g, x, y, k, flex, trace)
    if g.has_edge(x, y):
        trace.record("drop-xy-edge")
        return _engine(g.without_edge(x, y), x, y, k, flex, trace)
    core = find_core(g, x, y)
    if core is None:
        return _case_no_core(g, x, y, k, flex, trace)
    return _case_core(g, x, y, k, flex, trace, core)


def _attempt(trace, tag, fn):
    try:
        fam = fn()
    except _BRANCH_ERRORS:
        return None
    if fam is not None:
        trace.record(tag)
    return fam


def _base_single(g, x, y):
    """One (x, y)-path of length >= 2 (k = 1)."""
    if g.has_edge(x, y):
        p = shortest_path(g, x, y, forbidden_edges=[(x, y)])
    else:
        p = shortest_path(g, x, y)
    if p is None or len(p) < 3:
        raise HypothesisNotMet("no (x, y)-path of length at least 2")
    return make_path_family([p], cls=FamilyClass(LENGTH))


def _split_at_end_block(g, x, y, k, flex, trace):
    """G connected but not 2-connected: peel off the end block holding x."""
    for blk, b in leaf_blocks(g):
        if x not in blk:
            continue
        if len(blk) >= 3:
            trace.record("end-block-of-x")
            fam = _recurse_on(g, blk, x, b, k, flex, trace)
            if fam is None:
                return None
            bridge = _path_within(g, b, y, set(range(g.n)) - (set(blk) - {b}))
            if bridge is None:
                raise Disconnected("no path from the cut vertex to y")
            return combine_across_cut(fam, bridge, side="suffix")
        # the end block is the single edge xb: recurse on G - x
        trace.record("strip-degree-one-x")
        fam = _recurse_on(g, set(range(g.n)) - {x}, b, y, k, flex, trace)
        if fam is None:
            return None
        return combine_across_cut(fam, (x, b), side="prefix")
    return None


# -- no 4-cycle through x in G - y -------------------------------------------


def _case_no_core(g, x, y, k, flex, trace):
    nx = set(g.adj[x])
    for v in range(g.n):
        if v not in (x, y) and len(g.adj[v] & (nx - {v})) > 1:
            raise InvariantViolated("4-cycle through x exists but no core was found")
    gstar, to_new, x_star = contract_set(g, nx | {x})
    orig_of = {}
    for v in range(g.n):
        if to_new[v] != x_star or v == x:
            orig_of.setdefault(to_new[v], v)
    y_star = to_new[y]

    if gstar.n == 2:
        if flex and k == 2:
            fam = _attempt(trace, "contract-tiny-semi", lambda: _tiny_semi(g, x, y))
            if fam is not None:
                return fam
        return None

    blk, blk_ok = _block_of(gstar, x_star, y_star)
    if blk_ok and len(blk) >= 3:
        fam = _attempt(
            trace,
            "contract-neighborhood",
            lambda: _contract_recurse(g, x, y, k, flex, trace, gstar, x_star, y_star, blk, orig_of),
        )
        if fam is not None:
            return fam
    if blk is not None and set(blk) == {x_star, y_star}:
        fam = _attempt(
            trace,
            "split-common-neighborhood",
            lambda: _twin_roots(g, x, y, k, flex, trace),
        )
        if fam is not None:
            return fam
    return None


def _block_of(gstar, x_star, y_star):
    """The block of G* holding y (and x*), or (None, False)."""
    if is_2_connected(gstar):
        return tuple(range(gstar.n)), True
    bct = block_cut_tree(gstar)
    holding_y = [blk for blk in bct.blocks if y_star in blk]
    for blk in holding_y:
        if x_star in blk:
            return blk, True
    return (holding_y[0], False) if holding_y else (None, False)


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


def _contract_recurse(g, x, y, k, flex, trace, gstar, x_star, y_star, blk, orig_of):
    fam = _recurse_on(gstar, blk, x_star, y_star, k, flex, trace)
    if fam is None:
        return None
    members = []
    for star_path in fam.members:
        real_tail = [orig_of[w] for w in star_path[1:]]
        u = min(g.adj[x] & g.adj[real_tail[0]])
        members.append(tuple([x, u] + real_tail))
    return make_path_family(members, cls=fam.cls)


def _twin_roots(g, x, y, k, flex, trace):
    """N(y) = N(x): route through a component of G - (N(x) u {x, y}) whose
    neighborhood splits into two super-attachment classes."""
    nx = set(g.adj[x])
    if not set(g.adj[y]) <= nx:
        return None
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
                fam = _twin_split(g, x, y, k, flex, trace, comp, s_side, t_side)
                if fam is not None:
                    return fam
    return None


def _twin_split(g, x, y, k, flex, trace, comp, s_side, t_side):
    s_attach = [v for v in comp if g.adj[v] & s_side]
    t_attach = [v for v in comp if g.adj[v] & t_side]
    if not s_attach or not t_attach:
        return None
    fam = _recurse_on(g, comp, (s_attach, s_side), (t_attach, t_side), k, flex, trace)
    if fam is None:
        return None
    members = [(x,) + m + (y,) for m in fam.members]
    return make_path_family(members, cls=fam.cls)


# -- with a core -------------------------------------------------------------


def _case_core(g, x, y, k, flex, trace, core):
    l = core.l
    t_set = set(core.t)
    c_set = set(core.component_c)
    h = core.h_vertices()
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

    if sc:
        fam = _side_component_attachments(g, x, y, k, flex, trace, core)
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


def _side_component_attachments(g, x, y, k, flex, trace, core):
    """Components of G - V(H) other than C that T reaches: four ways to
    harvest an attachment family and extend it through the core."""
    l = core.l
    t_set = set(core.t)
    c_set = set(core.component_c)
    h = core.h_vertices()
    s = min(v for v in core.s if v != x and (g.adj[v] & c_set))
    for comp in components(g, ignore=h):
        d_set = set(comp)
        if d_set == c_set or not any(g.adj[t] & d_set for t in core.t):
            continue
        for tag, fn in (
            ("side-block-to-s", _side_block_to_s),
            ("side-to-x-or-s", _side_to_x_or_s),
            ("side-single-t", _side_single_t),
            ("side-two-t", _side_two_t),
        ):
            fam = _attempt(
                trace,
                tag,
                lambda fn=fn: fn(g, x, y, k, flex, trace, core, s, d_set),
            )
            if fam is not None:
                return fam
    return None


def _side_block_to_s(g, x, y, k, flex, trace, core, s, d_set):
    """End block B of D with no edges to T u {x, s}: (S*, b)-paths in B
    plus a shared tail from b out of D into T."""
    l = core.l
    if l < 2:
        return None
    t_set = set(core.t)
    s_rest = set(core.s) - {x, s}
    sub_d, to_od = induced(g, d_set)
    for blk, b_sub in leaf_blocks(sub_d):
        blk_orig = {to_od[v] for v in blk}
        b = to_od[b_sub]
        interior = blk_orig - {b}
        if any(g.adj[v] & (t_set | {x, s}) for v in interior):
            continue
        attach = [v for v in blk_orig if g.adj[v] & s_rest]
        if not attach:
            continue
        fam = _recurse_on(g, blk_orig, (attach, s_rest), b, k - l + 2, flex, trace)
        if fam is None:
            continue
        tail = _exit_to_set(g, b, (d_set - blk_orig) | {b}, t_set)
        if tail is None:
            continue
        members = [join_paths(m, tail) for m in fam.members]
        att = make_path_family(members, cls=fam.cls)
        return extend_from_core(g, core, TS_PATHS, att, k)
    return None


def _side_to_x_or_s(g, x, y, k, flex, trace, core, s, d_set):
    """D sees {x, s}: (T*, {x,s}*)-paths across D."""
    l = core.l
    t_set = set(core.t)
    xs_attach = [v for v in d_set if g.adj[v] & {x, s}]
    t_attach = [v for v in d_set if g.adj[v] & t_set]
    if not xs_attach or not t_attach:
        return None
    att = _recurse_on(g, d_set, (t_attach, t_set), (xs_attach, {x, s}), k - l + 1, flex, trace)
    if att is None:
        return None
    return extend_from_core(g, core, TXS_PATHS, att, k)


def _side_single_t(g, x, y, k, flex, trace, core, s, d_set):
    """Exactly one T vertex sees D: (t, S*)-paths through D u {t}."""
    l = core.l
    if l < 2:
        return None
    t_set = set(core.t)
    touching = sorted(t for t in t_set if g.adj[t] & d_set)
    if len(touching) != 1:
        return None
    t = touching[0]
    s_rest = set(core.s) - {x, s}
    attach = [v for v in d_set if g.adj[v] & s_rest]
    if not attach:
        return None
    att = _recurse_on(g, d_set | {t}, t, (attach, s_rest), k - l + 2, flex, trace)
    if att is None:
        return None
    return extend_from_core(g, core, TS_PATHS, att, k)


def _side_two_t(g, x, y, k, flex, trace, core, s, d_set):
    """At least two T vertices see D: T-paths through D u {t}."""
    l = core.l
    t_set = set(core.t)
    touching = sorted(t for t in t_set if g.adj[t] & d_set)
    if len(touching) < 2:
        return None
    t = touching[0]
    attach = [v for v in d_set if g.adj[v] & (t_set - {t})]
    if not attach:
        return None
    att = _recurse_on(g, d_set | {t}, t, (attach, t_set - {t}), k - l + 1, flex, trace)
    if att is None:
        return None
    return extend_from_core(g, core, T_PATHS, att, k)


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
    if fam is None:
        return None
    members = [(x,) + m + (y,) for m in fam.members]
    return make_path_family(members, cls=fam.cls)


def _single_y_delete_pair(g, x, y, k, flex, trace, core, s, t):
    t_set = set(core.t)
    h_and_y = core.h_vertices() | {y}
    gp_verts = set(range(g.n)) - {s, t}
    sub, to_orig = induced(g, gp_verts)

    comps = components(sub)
    if len(comps) == 1 and is_2_connected(sub):
        def two_conn():
            fam = _recurse_on(g, gp_verts, x, y, k - 1, flex, trace)
            if fam is None:
                return None
            longest = fam.members[-1]
            extra = longest[:-1] + (s, t, y)
            return make_path_family(list(fam.members) + [extra], cls=fam.cls)

        return _attempt(trace, "single-y-2conn", two_conn)

    if len(comps) > 1:
        def disconnected():
            for comp in comps:
                if {to_orig[v] for v in comp} & h_and_y:
                    continue
                d_orig = {to_orig[v] for v in comp}
                fam = _recurse_on(g, d_orig | {s, t}, s, t, k, flex, trace)
                if fam is None:
                    continue
                tp = min(t_set - {t})
                members = [(x,) + tuple(reversed(m)) + (tp, y) for m in fam.members]
                return make_path_family(members, cls=fam.cls)
            return None

        return _attempt(trace, "single-y-detour", disconnected)

    return _attempt(
        trace,
        "single-y-end-block",
        lambda: _single_y_end_block(g, x, y, k, flex, trace, core, s, t, sub, to_orig),
    )


def _single_y_end_block(g, x, y, k, flex, trace, core, s, t, sub, to_orig):
    """G - {s, t} connected but not 2-connected: operate inside an end
    block disjoint from H and y."""
    t_set = set(core.t)
    h_and_y = core.h_vertices() | {y}
    for blk, b_sub in leaf_blocks(sub):
        b = to_orig[b_sub]
        blk_orig = {to_orig[v] for v in blk}
        if (blk_orig - {b}) & h_and_y:
            continue
        outside_nbrs = set().union(*(g.adj[v] for v in blk_orig - {b})) - blk_orig
        if not outside_nbrs <= {s, t, b}:
            continue
        # bridge from b to a vertex a of H - {x, s, t}, interior clear of
        # B, H and y
        allowed = set(range(g.n)) - {s, t} - (blk_orig - {b}) - h_and_y
        bridge = _exit_to_set(
            g, b, allowed, (core.h_vertices() - {x, s, t})
        )
        if bridge is None:
            continue
        a = bridge[-1]
        if t not in outside_nbrs:
            fam = _single_y_block_via_s(g, x, y, k, flex, trace, core, s, t, blk_orig, b, bridge, a)
        else:
            fam = _single_y_block_via_t(g, x, y, k, flex, trace, core, s, t, blk_orig, b, bridge, a)
        if fam is not None:
            return fam
    return None


def _single_y_block_via_s(g, x, y, k, flex, trace, core, s, t, blk_orig, b, bridge, a):
    t_set = set(core.t)
    fam = _recurse_on(g, blk_orig | {s}, s, b, k, flex, trace)
    if fam is None:
        return None
    if a in t_set:
        tail = bridge[1:] + (y,)
    else:
        tp = min(t_set - {t} - set(bridge))
        tail = bridge[1:] + (tp, y)
    members = [join_paths((x, t, s), m, (b,) + tail) for m in fam.members]
    return make_path_family(members, cls=fam.cls)


def _single_y_block_via_t(g, x, y, k, flex, trace, core, s, t, blk_orig, b, bridge, a):
    t_set = set(core.t)
    fam = _recurse_on(g, blk_orig | {t}, t, b, k - 1, flex, trace)
    if fam is None:
        return None
    if a in t_set:
        spare = sorted(t_set - {t, a})
        if not spare:
            return None
        tp = spare[0]
        base = [join_paths((x,), m, (b,) + bridge[1:] + (y,)) for m in fam.members]
        extra = join_paths((x,), fam.members[-1], (b,) + bridge[1:] + (s, tp, y))
    else:
        spare = sorted(t_set - {t})
        if len(spare) < 2:
            return None
        t1, t2 = spare[0], spare[1]
        base = [join_paths((x,), m, (b,) + bridge[1:] + (t1, y)) for m in fam.members]
        extra = join_paths((x,), fam.members[-1], (b,) + bridge[1:] + (t1, s, t2, y))
    return make_path_family(base + [extra], cls=fam.cls)


# -- |C| >= 2 ----------------------------------------------------------------


def _case_big_c(g, x, y, k, flex, trace, core):
    t_set = set(core.t)
    c_set = set(core.component_c)
    h = core.h_vertices()

    if not any(g.adj[t] & (c_set - {y}) for t in core.t):
        fam = _attempt(
            trace, "detach-y-component", lambda: _detached_c(g, x, y, k, flex, trace, core)
        )
        if fam is not None:
            return fam

    c_sub, to_oc = induced(g, c_set)
    inv_c = {v: j for j, v in enumerate(to_oc)}
    try:
        feas_sub, single = feasible_end_blocks(c_sub, inv_c[y])
    except InvalidArgument:
        return None
    feas = [({to_oc[v] for v in blk}, to_oc[b]) for blk, b in feas_sub]

    # (T*, b')-paths across a block that T reaches, or across all of C
    cands = []
    if single:
        cands.append((c_set, y))
    for blk, b in feas:
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

    for blk, b in feas:
        interior = blk - {b}
        outside = set().union(*(g.adj[v] for v in interior)) - blk
        if outside <= {x}:
            fam = _attempt(
                trace,
                "block-through-x",
                lambda blk=blk, b=b: _block_through_x(g, x, y, k, flex, trace, core, blk, b),
            )
            if fam is not None:
                return fam

    for blk, b in feas:
        fam = _attempt(
            trace,
            "block-to-s",
            lambda blk=blk, b=b: _block_to_s(g, x, y, k, flex, trace, core, blk, b),
        )
        if fam is not None:
            return fam

    if core.l == 1 and feas:
        return _case_big_c_deep(g, x, y, k, flex, trace, core, c_sub, to_oc, inv_c, feas)
    return None


def _detached_c(g, x, y, k, flex, trace, core):
    """N(C - y) <= {x, y}: recurse on G[V(C) u {x}]."""
    c_set = set(core.component_c)
    for v in c_set - {y}:
        if not (g.adj[v] - c_set) <= {x}:
            return None
    return _recurse_on(g, c_set | {x}, x, y, k, flex, trace)


def _block_to_t(g, x, y, k, flex, trace, core, blk, b):
    l = core.l
    t_set = set(core.t)
    c_set = set(core.component_c)
    attach = [v for v in blk if g.adj[v] & t_set]
    if not attach:
        return None
    fam = _recurse_on(g, blk, (attach, t_set), b, k - l, flex, trace)
    if fam is None:
        return None
    if b == y:
        tail = ()
    else:
        bridge = _path_within(g, b, y, c_set - (blk - {b}))
        if bridge is None:
            return None
        tail = bridge
    members = [join_paths(m, tail) if tail else m for m in fam.members]
    att = make_path_family(members, cls=fam.cls)
    return extend_from_core(g, core, TY_PATHS, att, k)


def _block_through_x(g, x, y, k, flex, trace, core, blk, b):
    c_set = set(core.component_c)
    fam = _recurse_on(g, blk | {x}, x, b, k, flex, trace)
    if fam is None:
        return None
    bridge = _path_within(g, b, y, c_set - (blk - {b}))
    if bridge is None:
        return None
    return combine_across_cut(fam, bridge, side="suffix")


def _block_to_s(g, x, y, k, flex, trace, core, blk, b):
    """(S*, b)-paths inside a feasible block, exiting to y through C."""
    l = core.l
    c_set = set(core.component_c)
    s_rest = set(core.s) - {x}
    attach = [v for v in blk if g.adj[v] & s_rest]
    if not attach:
        return None
    bridge = _path_within(g, b, y, c_set - (blk - {b}))
    if bridge is None:
        return None

    if l >= 2:
        fam = _recurse_on(g, blk, (attach, s_rest), b, k - l + 1, flex, trace)
        if fam is None:
            return None
        members = [join_paths(m, bridge) for m in fam.members]
        att = make_path_family(members, cls=fam.cls)
        return extend_from_core(g, core, SY_PATHS, att, k)

    # l = 1: if the block attaches only to {s, b}, a full k-family fits in
    # the block itself
    interior = blk - {b}
    outside = set().union(*(g.adj[v] for v in interior)) - blk
    s = min(s_rest)
    if outside != {s}:
        return None
    fam = _recurse_on(g, blk, (attach, {s}), b, k, flex, trace)
    if fam is None:
        return None
    t = min(set(core.t) - set(bridge))
    members = [join_paths((x, t, s), m, bridge) for m in fam.members]
    return make_path_family(members, cls=fam.cls)


def _case_big_c_deep(g, x, y, k, flex, trace, core, c_sub, to_oc, inv_c, feas):
    """l = 1 and every feasible block attaches to all of S u {b}: the
    endgame of the |C| >= 2 analysis."""
    t_set = set(core.t)
    c_set = set(core.component_c)
    s = min(v for v in core.s if v != x)
    u_set = {u for u in c_set - {y} if g.adj[u] & t_set}
    if not u_set or k < 3:
        return None
    feas_interiors = set().union(*(blk - {b} for blk, b in feas))
    cprime = c_set - feas_interiors

    def fixed_paths(blk, b, v, kk):
        """kk (v, b)-paths satisfying the length condition inside B u {v}."""
        return _recurse_on(g, blk | {v}, v, b, kk, False, trace)

    # is there an end block of C holding y as a non-cut vertex?
    by_blk = by = None
    for blk, b_sub in leaf_blocks(c_sub):
        if inv_c[y] in blk and inv_c[y] != b_sub:
            by_blk = {to_oc[v] for v in blk}
            by = to_oc[b_sub]
            break

    if by_blk is None:
        fam = _attempt(
            trace,
            "two-disjoint-exits",
            lambda: _two_disjoint_exits(g, x, y, k, trace, core, s, u_set, cprime, feas, fixed_paths),
        )
        return fam

    fam = _attempt(
        trace,
        "heavy-vertex-detour",
        lambda: _heavy_vertex_detour(g, x, y, k, trace, core, s, c_set, cprime, feas, fixed_paths),
    )
    if fam is not None:
        return fam

    blk1, b1 = feas[0]
    p_fam = fixed_paths(blk1, b1, x, k - 1)
    if p_fam is None:
        return None
    bridge1 = _path_within(g, b1, by, cprime - (by_blk - {by}))
    if bridge1 is None:
        return None
    p_primed = combine_across_cut(p_fam, bridge1, side="suffix")

    if len(by_blk) >= 3:
        fam = _attempt(
            trace,
            "y-block-family",
            lambda: _y_block_family(g, x, y, k, flex, trace, by_blk, by, p_primed),
        )
        if fam is not None:
            return fam
        return None

    # V(B_y) = {b_y, y}
    if flex:
        common = sorted((g.adj[y] & g.adj[by] & core.h_vertices()) - {x})
        if common:
            v = common[0]
            members = [join_paths(m, (by, y)) for m in p_primed.members]
            members.append(join_paths(p_primed.members[-1], (by, v, y)))
            fam = make_path_family(members, cls=FamilyClass(SEMI, k - 1))
            trace.record("y-pendant-semi")
            return fam

    a_opts = sorted(v for v in core.h_vertices() - {x} if g.has_edge(v, y))
    if not a_opts:
        return None

    if len(feas) >= 2:
        fam = _attempt(
            trace,
            "two-block-relay",
            lambda: _two_block_relay(g, x, y, k, trace, core, s, cprime, feas, fixed_paths, p_fam, a_opts),
        )
        if fam is not None:
            return fam

    return _w_block_endgame(
        g, x, y, k, flex, trace, core, s, c_sub, to_oc, inv_c, c_set,
        feas, fixed_paths, p_fam, p_primed, by_blk, by, a_opts,
    )


def _two_disjoint_exits(g, x, y, k, trace, core, s, u_set, cprime, feas, fixed_paths):
    """No end block of C holds y internally: two feasible blocks reach a
    T-attachment and y along disjoint paths of the trunk."""
    t_set = set(core.t)
    for ii, (blk_i, b_i) in enumerate(feas):
        for jj, (blk_j, b_j) in enumerate(feas):
            if ii == jj:
                continue
            for u in sorted(u_set & cprime):
                p = _path_within(g, b_i, u, cprime - {b_j, y})
                if p is None:
                    continue
                q = _path_within(g, b_j, y, cprime - set(p))
                if q is None:
                    continue
                p_fam = fixed_paths(blk_i, b_i, x, k - 1)
                q_fam = fixed_paths(blk_j, b_j, s, k - 1)
                if p_fam is None or q_fam is None:
                    continue
                t = min(t_set & g.adj[u])
                mid = p[1:] + (t, s)
                rows = length_rows(p_fam.members[:2], q_fam.members)
                members = [join_paths(a, (b_i,) + mid, b, q) for a, b in rows]
                return make_path_family(members, cls=FamilyClass(LENGTH))
    return None


def _heavy_vertex_detour(g, x, y, k, trace, core, s, c_set, cprime, feas, fixed_paths):
    """A trunk vertex with >= 3 edges into H yields a one-step detour over
    its two T-neighbors."""
    t_set = set(core.t)
    h = core.h_vertices()
    for v in sorted(cprime - {y}):
        ts = sorted(t_set & g.adj[v])
        if len(g.adj[v] & h) < 3 or len(ts) < 2:
            continue
        t1, t2 = ts[0], ts[1]
        for blk, b in feas:
            if v == b:
                continue
            qp = _path_within(g, b, y, c_set - (blk - {b}) - {v})
            if qp is None:
                continue
            q_fam = fixed_paths(blk, b, s, k - 1)
            if q_fam is None:
                continue
            rows = length_rows(((x, t1, s), (x, t2, v, t1, s)), q_fam.members)
            members = [join_paths(pa, qb, qp) for pa, qb in rows]
            return make_path_family(members, cls=FamilyClass(LENGTH))
    return None


def _y_block_family(g, x, y, k, flex, trace, by_blk, by, p_primed):
    q_fam = _recurse_on(g, by_blk, by, y, k - 1, flex, trace)
    if q_fam is None:
        return None
    rows = length_rows(p_primed.members[:2], q_fam.members)
    return make_path_family([join_paths(a, b) for a, b in rows], cls=q_fam.cls)


def _two_block_relay(g, x, y, k, trace, core, s, cprime, feas, fixed_paths, p_fam, a_opts):
    t_set = set(core.t)
    blk1, b1 = feas[0]
    for blk2, b2 in feas[1:]:
        q_fam = fixed_paths(blk2, b2, s, k - 1)
        if q_fam is None:
            continue
        r = _path_within(g, b1, b2, cprime - {y})
        if r is None:
            continue
        rows = length_rows(p_fam.members[:2], q_fam.members)
        for a in a_opts:
            if a == s:
                tail = (s, y)
            elif a in t_set:
                tail = (s, a, y)
            else:
                continue
            try:
                members = [join_paths(pa, r, tuple(reversed(qb)), tail) for pa, qb in rows]
            except InvalidWitness:
                continue
            return make_path_family(members, cls=FamilyClass(LENGTH))
    return None


def _w_block_endgame(
    g, x, y, k, flex, trace, core, s, c_sub, to_oc, inv_c, c_set,
    feas, fixed_paths, p_fam, p_primed, by_blk, by, a_opts,
):
    """One feasible block and a pendant y: route through the block W of C
    between them, or close out the k = 3 corner cases."""
    t_set = set(core.t)
    blk1, b1 = feas[0]
    bct = block_cut_tree(c_sub)
    w_blocks = [
        {to_oc[v] for v in blk}
        for blk in bct.blocks
        if inv_c[by] in blk and {to_oc[v] for v in blk} != by_blk
    ]
    for w_blk in w_blocks:
        if w_blk == blk1:
            fam = _attempt(
                trace,
                "triangle-closers",
                lambda: _k3_closers(g, x, y, k, flex, core, s, by, p_primed, a_opts),
            )
            if fam is not None:
                return fam
            continue
        if len(w_blk) < 3:
            fam = _attempt(
                trace,
                "triangle-closers",
                lambda: _k3_closers(g, x, y, k, flex, core, s, by, p_primed, a_opts),
            )
            if fam is not None:
                return fam
            continue
        cuts = {to_oc[v] for v in bct.cut_vertices}
        for w in sorted((w_blk & cuts) - {by}):
            fam = _attempt(
                trace,
                "w-block-chain",
                lambda w=w, w_blk=w_blk: _w_chain(
                    g, x, y, k, flex, trace, c_set, blk1, b1, w_blk, w, by, p_fam
                ),
            )
            if fam is not None:
                return fam
    return None


def _w_chain(g, x, y, k, flex, trace, c_set, blk1, b1, w_blk, w, by, p_fam):
    r_fam = _recurse_on(g, w_blk, w, by, k - 1, flex, trace)
    if r_fam is None:
        return None
    bridge = _path_within(g, b1, w, c_set - (blk1 - {b1}) - (w_blk - {w}) - {y})
    if bridge is None:
        return None
    rows = length_rows(p_fam.members[:2], r_fam.members)
    members = [join_paths(a, bridge, b, (by, y)) for a, b in rows]
    return make_path_family(members, cls=r_fam.cls)


def _k3_closers(g, x, y, k, flex, core, s, by, p_primed, a_opts):
    """Explicit 3-path families for the tight k = 3 corner configurations."""
    if k != 3 or len(p_primed.members) < 2:
        return None
    t_set = set(core.t)
    p1, p2 = p_primed.members[0], p_primed.members[1]

    def lengthy(extra):
        return make_path_family(
            [join_paths(p1, (by, y)), join_paths(p2, (by, y)), join_paths(p2, extra)],
            cls=FamilyClass(LENGTH),
        )

    for t1 in sorted(t_set):
        if not g.has_edge(t1, by):
            continue
        for t2 in sorted(t_set & g.adj[t1]):
            if g.has_edge(t2, y):
                return lengthy((by, t1, t2, y))
        if flex:
            for a in sorted(t_set & g.adj[t1]):
                if a != t1 and g.has_edge(a, y):
                    return lengthy((by, t1, a, y))
    if flex:
        for a in sorted(t_set):
            if not g.has_edge(a, y):
                continue
            ts = sorted((t_set & g.adj[a]) - {a})
            ty = [t for t in ts if g.has_edge(t, y)]
            if len(ty) >= 1 and len(ts) >= 2:
                t1 = ty[0]
                t2 = next(t for t in ts if t != t1)
                return make_path_family(
                    [(x, a, y), (x, a, t1, y), (x, a, t1, s, t2, y)],
                    cls=FamilyClass(SEMI, 1),
                )
        if g.has_edge(s, by) and g.has_edge(by, y):
            for a in a_opts:
                if a in t_set and not set(p2) & {s, a}:
                    return lengthy((by, s, a, y))
        if g.has_edge(x, by) and g.has_edge(by, y):
            ts = sorted(t_set & g.adj[by])
            if len(ts) >= 2:
                t1, t2 = ts[0], ts[1]
                return make_path_family(
                    [(x, by, y), (x, t1, by, y), (x, t1, s, t2, by, y)],
                    cls=FamilyClass(SEMI, 1),
                )
        if g.has_edge(s, y):
            ts = sorted(t_set & g.adj[by])
            if ts and g.has_edge(by, y):
                return lengthy((by, ts[0], s, y))
    return None


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

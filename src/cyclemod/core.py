"""Complete-bipartite cores and the path-manufacturing machinery around them.

An l-core of (G, x, y) is H = G[S, T] with:

  C1: G[S, T] complete bipartite, |T| >= |S| = l + 1 >= 2
  C2: x in S, y not in S u T
  C3: e_G(v, S) <= l      for every v outside V(H) u {y}
  C4: e_G(v, T - v) <= l+1 for every v outside S u {y}

C denotes the component of G - V(H) containing y.  The complete bipartite
structure supplies "ladders": (S, T)-paths of every odd length 1..2l+1,
and S-S / T-T paths of every even length 2..2l, which is what converts a
handful of attachment paths into a full family stepping by 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    HypothesisNotMet,
    InvalidArgument,
    InvariantViolated,
)
from .families import (
    LENGTH,
    SEMI,
    FamilyClass,
    join_paths,
    make_path_family,
)
from .graph import adj_masks, mask_bits, shortest_path
from .oraclekern import default_budget


@dataclass(frozen=True)
class Core:
    s: tuple           # sorted, contains x
    t: tuple           # sorted
    x: int
    y: int
    component_c: tuple  # sorted: component of G - V(H) containing y

    @property
    def l(self):
        return len(self.s) - 1

    def h_vertices(self):
        return set(self.s) | set(self.t)


def find_core(g, x, y):
    """Best core of (G, x, y) under: |S| max, then |T| max, then |C| max,
    then |N(C) & S| min; ties broken by lexicographically smallest S.

    Returns None exactly when G - y has no 4-cycle through x.  With S of
    maximum size and T equal to *all* common neighbors of S (minus y), the
    caps C3/C4 hold automatically: a vertex adjacent to all of S would
    belong to T, and a vertex with l + 2 neighbors in T would extend S.

    Every S containing x, avoiding y, with 2 <= |S| <= (n - 1) / 2 is
    visited, by a depth-first walk that adds vertices in increasing order
    and carries the common neighborhood of S as a bitmask.  The walk is one
    loop over an explicit stack of the frames on the path, so a deep S costs
    no Python recursion.  The selection key differs for every S, so the
    order of the walk cannot change the winner.  Only an S with |T| >= |S|
    whose (|S|, |T|) is not below the best key so far pays for the rest of
    its key: the component of y is flooded on the same bitmasks.  The
    visited sets count against the default node budget, one frame's
    children at a time, and BudgetExceeded is raised once the count
    passes it.

    The common neighborhood only shrinks as S grows, so a frame whose S
    has fewer than |S| + 1 common neighbors is dead: no child can reach
    |T| >= |S|.  A dead frame is charged like any other and none of its
    children is considered; at the last level, |S| + 1 = (n - 1) // 2, it
    is charged by its parent and never entered, and an inner one only
    walks on.

    Precondition, not checked here: (G, x, y) is rooted 2-connected.  The
    path engine establishes it before it asks for a core.
    """
    adj = adj_masks(g)
    others = [v for v in range(g.n) if v != x and v != y]
    bits = [1 << v for v in others]
    masks = [adj[v] for v in others]
    last = len(others)
    max_size = (g.n - 1) // 2
    budget = default_budget()
    best_key = None
    best = None

    def consider(s_mask, t_mask, size):
        # only the few S with |T| >= |S| get here, and only those whose
        # (|S|, |T|) can still match the best key pay for the component
        nonlocal best_key, best
        t_size = t_mask.bit_count()
        if best_key is not None and (size, t_size) < best_key[:2]:
            return
        h_mask = s_mask | t_mask
        comp = frontier = 1 << y
        while frontier:
            reach = 0
            for v in mask_bits(frontier):
                reach |= adj[v]
            frontier = reach & ~(h_mask | comp)
            comp |= frontier
        s = mask_bits(s_mask)
        ncs = sum(1 for v in s if adj[v] & comp)
        key = (size, t_size, comp.bit_count(), -ncs, tuple(-v for v in s))
        if best_key is None or key > best_key:
            best_key = key
            best = Core(
                s=tuple(s),
                t=tuple(mask_bits(t_mask)),
                x=x,
                y=y,
                component_c=tuple(mask_bits(comp)),
            )

    if max_size >= 2:
        # the frame being walked lives in (i, s_mask, common, size): its
        # children are S + others[j] for j >= i, of `size`; `stack` holds the
        # frames below it on the path, suspended at their next child
        charged = last
        if charged > budget:
            raise BudgetExceeded(f"core search exceeded {budget} subsets")
        stack = []
        i, s_mask, common, size = 0, 1 << x, adj[x] & ~(1 << y), 2
        while True:
            if i == last:
                if not stack:
                    break
                i, s_mask, common, size = stack.pop()
                continue
            child = common & masks[i]
            fit = child.bit_count()
            child_s = s_mask | bits[i]
            i += 1
            if fit >= size:
                consider(child_s, child, size)
            if size < max_size:
                # the child frame is charged for its own children
                charged += last - i
                if charged > budget:
                    raise BudgetExceeded(f"core search exceeded {budget} subsets")
                if fit > size or size + 1 < max_size:
                    # a dead last-level frame would only return; the child
                    # starts at the next index, which `i` already holds
                    stack.append((i, s_mask, common, size))
                    s_mask, common, size = child_s, child, size + 1

    if best is not None:
        ok, report = verify_core(g, best)
        if not ok:
            raise InvariantViolated(f"maximal core fails its own conditions: {report}")
    return best


def verify_core(g, core):
    """(True, None) or (False, "<condition>: <witness vertex>").  S and T
    cannot overlap once C1 holds: a vertex in both would need a loop."""
    s_set, t_set = set(core.s), set(core.t)
    l = core.l
    if len(s_set) < 2 or len(t_set) < len(s_set):
        return False, f"C1: |T|={len(t_set)} < |S|={len(s_set)} or |S| < 2"
    for u in core.s:
        for v in core.t:
            if not g.has_edge(u, v):
                return False, f"C1: missing edge {u}-{v}"
    if core.x not in s_set or core.y in s_set | t_set:
        return False, "C2: roots misplaced"
    h = s_set | t_set
    for v in range(g.n):
        if v in h or v == core.y:
            continue
        if len(g.adj[v] & s_set) > l:
            return False, f"C3: vertex {v}"
    for v in range(g.n):
        if v in s_set or v == core.y:
            continue
        if len(g.adj[v] & (t_set - {v})) > l + 1:
            return False, f"C4: vertex {v}"
    return True, None


# -- ladder construction inside H -----------------------------------------


def h_ladder_path(core, a, b, length, avoid=()):
    """Deterministic path of `length` edges from a to b inside H = G[S, T],
    alternating sides, interior avoiding `avoid`.

    Available lengths: odd 1..2l+1 between opposite sides, even 2..2l
    within a side (given enough unused vertices; raises otherwise).
    """
    s_set, t_set = set(core.s), set(core.t)
    avoid = set(avoid) | {a, b}
    side = lambda v: "S" if v in s_set else "T"
    if a not in s_set | t_set or b not in s_set | t_set:
        raise InvalidArgument("endpoints must lie in the core")
    if length < 1 or a == b:
        raise InvalidArgument("need distinct endpoints and length >= 1")
    want_odd = side(a) != side(b)
    if (length % 2 == 1) != want_odd:
        raise InvalidArgument("parity of length does not match the sides")
    free_s = [v for v in core.s if v not in avoid]
    free_t = [v for v in core.t if v not in avoid]
    # interior alternates starting from the side opposite a and ending
    # opposite b; pull vertices in ascending order
    seq = [a]
    cur = side(a)
    for _ in range(length - 1):
        nxt = "T" if cur == "S" else "S"
        pool = free_t if nxt == "T" else free_s
        if not pool:
            raise InvalidArgument("not enough unused core vertices for this length")
        seq.append(pool.pop(0))
        cur = nxt
    seq.append(b)
    return tuple(seq)


def _exit_via(g, core, starts):
    """The path w, c, ..., y for the smallest pair (w, c) with w in `starts`
    and c a neighbor of w in C, then a shortest c-y path inside C, which is
    connected.  Both callers pass starts, one of which has a C-neighbor."""
    c_set = set(core.component_c)
    w, c = min((w, c) for w in starts for c in g.adj[w] & c_set)
    return (w,) + shortest_path(g, c, core.y, forbidden=set(range(g.n)) - c_set)


def _shortest_exit(g, core):
    """A shortest path from some w in V(H) - x to y, internally avoiding
    V(H) u {x}; the first of T, then S - x, among the shortest.  One
    exists: G - x = (G + xy) - x is connected, so a shortest path in G - x
    from y to V(H) - x exists, and it is an exit."""
    h = core.h_vertices()
    best = None
    for w in list(core.t) + [v for v in core.s if v != core.x]:
        p = shortest_path(g, w, core.y, forbidden=(h - {w}) | {core.x})
        if p is not None and (best is None or len(p) < len(best)):
            best = p
    return best


def core_paths_big_l(g, core, k):
    """k (x, y)-paths satisfying the length condition, when l >= k or
    (l = k - 1 and some T-C edge exists): ladder through H, one exit to y."""
    l = core.l
    x = core.x
    c_set = set(core.component_c)
    t_c_edge = any(g.adj[t] & c_set for t in core.t)
    if not (l >= k or (l == k - 1 and t_c_edge)):
        raise HypothesisNotMet("need l >= k, or l = k - 1 with a T-C edge")
    exit_path = _shortest_exit(g, core) if l >= k else _exit_via(g, core, core.t)
    w = exit_path[0]
    # odd ladders 1, 3, .., 2k - 1 end in T, even ones 2, 4, .., 2k in S
    # (an exit from S needs l >= k)
    odd = 1 if w in core.t else 0
    members = [join_paths(h_ladder_path(core, x, w, 2 * i - odd), exit_path)
               for i in range(1, k + 1)]
    return make_path_family(members, cls=FamilyClass(LENGTH))


def core_paths_semilength(g, core, k):
    """k (x, y)-paths satisfying the semi-length condition, when l = k - 1,
    some (S - x)-C edge exists and T spans an edge: even ladders 2..2l plus
    one path of length 2l + 1 that uses the T-T edge, all exiting via s."""
    l = core.l
    x = core.x
    if l != k - 1:
        raise HypothesisNotMet("need l = k - 1")
    c_set = set(core.component_c)
    s_cands = [s for s in core.s if s != x and (g.adj[s] & c_set)]
    if not s_cands:
        raise HypothesisNotMet("no edge between S - x and C")
    tt_edges = sorted(
        (u, v) for u in core.t for v in core.t if u < v and g.has_edge(u, v)
    )
    if not tt_edges:
        raise HypothesisNotMet("no edge inside T")
    s = s_cands[0]
    exit_path = _exit_via(g, core, (s,))
    # even ladders 2, .., 2l, then one (x, s)-path of length 2l + 1 over
    # the T-T edge: x t1 t2, then a ladder back to s
    members = [join_paths(h_ladder_path(core, x, s, 2 * i), exit_path) for i in range(1, l + 1)]
    t1, t2 = tt_edges[0]
    members.append(join_paths(
        (x, t1, t2), h_ladder_path(core, t2, s, 2 * l - 1, avoid=(x, t1)), exit_path))
    return make_path_family(members, cls=FamilyClass(SEMI, k - 1))


# -- turning attachment families into (x, y)-families ----------------------


def extend_from_core(core, fam):
    """Convert k - l (T, y)-paths, each from a vertex of T to y and
    internally disjoint from V(H), into k (x, y)-paths of the same class.

    Each member gets the hook x, t through H; the longest member is then
    re-routed through (x, t)-ladders of lengths 3, 5, ..., 2l + 1, which
    tops the family up to k with steps of 2.

    Nothing here is checked.  The one caller, paths._block_to_t, hands
    over the engine's validated k - l members of class length or
    semi-length; they run inside C, which avoids V(H), from a super root
    over T to b, then across C to y.
    """
    x = core.x
    members = [join_paths((x, m[0]), m) for m in fam.members]
    last = fam.members[-1]
    members += [join_paths(h_ladder_path(core, x, last[0], 2 * j + 1), last)
                for j in range(1, core.l + 1)]
    return make_path_family(members, cls=fam.cls)

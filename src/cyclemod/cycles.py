"""Families of k cycles with controlled lengths in 2-connected graphs of
minimum degree >= k + 1: every graph yields either k cycles of consecutive
lengths or k cycles satisfying the length condition.

Dispatch:

* k = 1: a shortest cycle, the oracle's one-member window at the girth.
* not 3-connected: split along a 2-cut, extract path families on both
  sides, and glue them into cycles (branch I).
* 3-connected and non-bipartite: find a non-separating induced odd cycle
  witness and fan path families around it (branch II).
* 3-connected bipartite: the exhaustive oracle assembles the family from
  witness searches over ascending windows of lengths (branch III; by
  design, not a constructive gap).

With k odd, either output covers every residue class of cycle lengths
modulo k, which all_residues_mod_k packages up.
"""

from __future__ import annotations

from itertools import chain

from .errors import (
    BudgetExceeded,
    HypothesisNotMet,
    InvalidArgument,
    InvalidWitness,
)
from .graph import _coloring, _girth, adj_masks, is_connected, mask_bits
from .decompose import (
    _contracts_to_k4,
    _low_link,
    is_2_connected,
    leaf_blocks,
    two_separations,
)
from .families import (
    CONSECUTIVE,
    LENGTH,
    FamilyClass,
    close_cycle,
    first_window,
    glue_two_sided_length,
    glue_two_sided_semilength,
    join_paths,
    make_cycle_family,
    make_path_family,
    odd_cycle_fan,
    odd_cycle_x_fan,
    residues_mod_k,
    validate_cycle_family,
)
from .oraclekern import _first_cycle, default_budget
from .paths import (
    GAP_TAG,
    ExtractionTrace,
    _attempt,
    _engine,
    _path_within,
    _recurse_on,
)

BRANCH_BIPARTITE = "bipartite-oracle"


def split_parity(k):
    """(l, phi) with k = 2l - 1 + phi, phi = 0 for odd k and 1 for even k;
    k >= 1, which find_k_cycles has checked."""
    phi = 0 if k % 2 == 1 else 1
    return (k + 1 - phi) // 2, phi


def oracle_cycles(g, k):
    """k cycles of consecutive lengths (preferred) or satisfying the length
    condition, from the smallest window of lengths that realizes the
    pattern; None if neither pattern is realizable.

    Windows are scanned in ascending order and each length is decided at
    most once: lengths below the girth or above n are absent, and so are
    odd lengths in a bipartite graph; any other length is decided by the
    first-found cycle search, and the cycle it finds is the family member.
    All searches of one call draw on one node budget.  Raises
    InvalidArgument, before any search, unless k >= 1."""
    if k < 1:
        raise InvalidArgument("k must be positive")
    fam = _oracle_cycles(g, k, _coloring(g) is not None)
    return None if fam is None else validate_cycle_family(g, fam)


def _oracle_cycles(g, k, bipartite, adj=None):
    """oracle_cycles(g, k), given whether g is bipartite, unvalidated: the
    caller validates the family.  `adj` holds the adjacency bitmasks of g
    when the caller has them; otherwise they are built once g is known to
    have a cycle."""
    shortest = _girth(g, bipartite)
    if shortest is None:
        return None
    if adj is None:
        adj = adj_masks(g)
    budget = default_budget()
    nodes = 0
    found = {}  # length -> first cycle of that length, or None
    # bit L is set once length L is known to be absent: with no search
    # (above n, or odd in a bipartite graph) or after a search in vain
    absent = -1 << (g.n + 1)
    if bipartite:
        for length in range(1, g.n + 1, 2):
            absent |= 1 << length

    def realized(length):
        nonlocal nodes, absent
        if length not in found:
            found[length], nodes = _first_cycle(adj, length, budget, nodes)
            if found[length] is None:
                absent |= 1 << length
        return found[length] is not None

    def fits(want):
        window = 0
        for length in want:
            window |= 1 << length
        # a window with a length known to be absent costs no search
        return not absent & window and all(map(realized, want))

    hit = first_window([[FamilyClass(CONSECUTIVE)], [FamilyClass(LENGTH)]], k, shortest, g.n, fits)
    if hit is None:
        return None
    cls, want = hit
    return make_cycle_family([found[length] for length in want], cls=cls)


# -- the odd-cycle witness ---------------------------------------------------


def check_witness(g, c):
    """(True, None) or (False, reason) for a witness cycle c, in cyclic
    vertex order: a non-separating induced odd cycle that is a triangle or
    has the two-neighbor property, that every non-cut vertex of G - V(C)
    sends at most 2 edges to C, with equality only toward the two
    neighbors u+, u- of a common vertex u."""
    if len(c) < 3 or len(c) % 2 == 0:
        return False, "not an odd cycle"
    cset = set(c)
    if len(cset) != len(c):
        return False, "repeated vertex"
    closed = list(c) + [c[0]]
    for a, b in zip(closed, closed[1:]):
        if not g.has_edge(a, b):
            return False, f"missing cycle edge {a}-{b}"
    for v in cset:
        if len(g.adj[v] & cset) != 2:
            return False, f"not induced at {v}"
    if len(c) == 3:
        # a flood is enough: only the two-neighbor property needs the cut vertices
        if not is_connected(g, ignore=cset):
            return False, "separating"
        return True, None
    walk = _low_link(g, cset)  # the cut vertices of G - V(C), or None
    if walk is None:
        return False, "separating"
    n_c = len(c)
    for v in set(range(g.n)) - cset - walk[0]:
        hits = g.adj[v] & cset
        if len(hits) > 2:
            return False, f"vertex {v} sends {len(hits)} edges to the cycle"
        if len(hits) == 2:
            i, j = sorted(c.index(h) for h in hits)
            if (j - i) % n_c != 2 and (i - j) % n_c != 2:
                return False, f"vertex {v} hits two non-antipodal-of-a-common-u vertices"
    return True, None


def find_nonsep_induced_odd_cycle(g, adj=None):
    """Smallest (by length, then lexicographic vertex set) non-separating
    induced odd cycle that check_witness accepts, as a tuple in cyclic
    order from its smallest vertex, or None (e.g. for bipartite inputs).
    `adj` holds the adjacency bitmasks of g when the caller has them.

    A usable witness exists whenever G is 3-connected, non-bipartite and
    delta(G) >= 4.

    Only induced cycles are tested.  For each odd length, and each
    smallest vertex s in increasing order, a chordless-path search from s
    through the vertices above it, on an explicit stack, collects the
    induced cycles of that length; they are tested in lexicographic order
    before the next s.  The search keeps only vertices close enough to s,
    in G[{s} | {v > s}], to close the cycle in the steps left.  Every
    extension counts against the default node budget, one popped path at
    a time, and BudgetExceeded is raised once the count passes it.  All
    cycles of one (length, s) are collected before any is tested, so the
    order of the walk does not move the point where the budget runs out.
    """
    if adj is None:
        adj = adj_masks(g)
    budget = default_budget()
    charged = 0
    for length in range(3, g.n + 1, 2):
        for s in range(g.n - length + 1):
            low = (2 << s) - 1
            # reach[d]: the vertices within distance d of s in G[{s} | {v > s}]
            reach = [1 << s]
            ring = 1 << s
            for _ in range(length - 2):
                nxt = 0
                for v in mask_bits(ring):
                    nxt |= adj[v]
                ring = nxt & ~low & ~reach[-1]
                reach.append(reach[-1] | ring)
            # the induced cycles s, p1, ..., p_last of `length` vertices
            # above s, with p1 < p_last, as (vertex set, cycle) pairs; a
            # stacked path's `ban` holds s and the vertices below it, the
            # path, and the neighbors of its interior past p1
            found = []
            stack = []
            first = adj[s] & ~low
            # checked with the first popped path; an empty `first` adds nothing
            charged += first.bit_count()
            for p1 in mask_bits(first):
                stack.append(((s, p1), low | (1 << p1)))
            while stack:
                path, ban = stack.pop()
                end = path[-1]
                closing = len(path) == length - 1
                if closing:
                    cand = adj[end] & adj[s] & ~ban & ~((2 << path[1]) - 1)
                else:
                    # the new vertex is length - len(path) edges from closing at s
                    cand = adj[end] & ~adj[s] & ~ban & reach[length - len(path)]
                charged += cand.bit_count()
                if charged > budget:
                    raise BudgetExceeded(f"odd-cycle witness search exceeded {budget} nodes")
                if closing:
                    for v in mask_bits(cand):
                        cycle = path + (v,)
                        found.append((tuple(sorted(cycle)), cycle))
                else:
                    ban |= adj[end]
                    for v in mask_bits(cand):
                        stack.append((path + (v,), ban | (1 << v)))
            found.sort()
            for _verts, cycle in found:
                if check_witness(g, cycle)[0]:
                    return cycle
    return None


# -- branch I: 2-connected but not 3-connected -------------------------------


def _branch_i(g, k, separations, trace):
    """k >= 2 cycles satisfying the length condition, glued across a 2-cut
    of a graph that find_k_cycles has checked and sent here; separations
    are its 2-separations in two_separations order."""
    l, phi = split_parity(k)
    for sep in separations:
        fam = _attempt(trace, "two-cut-glue",
                       lambda: _glue_sides(g, k, l, phi, sep.a, sep.b, *sep.cut, trace))
        if fam is not None:
            return fam
    raise HypothesisNotMet(f"no 2-separation admits the glue ({trace.declined})")


def _glue_sides(g, k, l, phi, a_verts, b_verts, x, y, trace):
    # Each side of a 2-separation of a 2-connected graph with delta >= k + 1
    # meets the hypothesis, so a side that misses it is treated like any
    # failed glue.
    if phi == 0:
        p_fam = _recurse_on(g, a_verts, x, y, l, False, trace)
        q_fam = _recurse_on(g, b_verts, x, y, l, False, trace)
        return glue_two_sided_length(p_fam, q_fam)
    p_fam = _recurse_on(g, a_verts, x, y, l + 1, True, trace)
    if p_fam.cls.kind == LENGTH:
        q_fam = _recurse_on(g, b_verts, x, y, l, False, trace)
        return glue_two_sided_length(p_fam, q_fam)
    q_fam = _recurse_on(g, b_verts, x, y, l + 1, True, trace)
    if q_fam.cls.kind == LENGTH:
        p_short = _recurse_on(g, a_verts, x, y, l, False, trace)
        return glue_two_sided_length(q_fam, p_short)
    return glue_two_sided_semilength(p_fam, q_fam)


# -- branch II: 3-connected with an odd-cycle witness -------------------------


def _branch_ii(g, k, trace, adj):
    """k >= 2 cycles of consecutive lengths or satisfying the length
    condition in a 3-connected non-bipartite graph that find_k_cycles has
    checked and sent here: from an edge for k = 2, else fanned around a
    non-separating induced odd cycle.  `adj` holds the adjacency bitmasks
    of g, for the witness search and the oracle fallback."""
    if k == 2:
        fam = _two_cycles_from_edge(g, trace)
    else:
        w = find_nonsep_induced_odd_cycle(g, adj)
        if w is None:
            fam = None
        elif len(w) == 3:
            fam = _triangle_fans(g, k, w, trace)
        else:
            fam = _long_witness(g, k, w, trace)
    if fam is not None:
        return fam
    return _from_oracle(g, k, False, adj, trace, GAP_TAG)


def _from_oracle(g, k, bipartite, adj, trace, tag):
    """oracle_cycles(g, k), given whether g is bipartite and its adjacency
    bitmasks, recorded under `tag`."""
    fam = _oracle_cycles(g, k, bipartite, adj)
    if fam is None:
        raise HypothesisNotMet(f"no family of {k} cycles exists at all")
    trace.record(tag)
    return fam


def _two_cycles_from_edge(g, trace):
    # g is 2-connected with delta >= 3, so each edge xy meets the hypothesis
    # of a flexible 2-path request: G + xy = G, and every degree is >= 2*2 - 1
    for x, y in g.edges():
        fam = _attempt(trace, "edge-pair", lambda: _engine(g, x, y, 2, True, trace))
        if fam is not None:
            cycles = [close_cycle(m, (x, y)) for m in fam.members]
            kind = LENGTH if fam.cls.kind == LENGTH else CONSECUTIVE
            return make_cycle_family(cycles, cls=FamilyClass(kind))
    return None


def _rotations(c):
    """All (rotation starting at u, for each u) in both orientations."""
    rev = c[::-1]
    return [r[i:] + r[:i] for i in range(len(c)) for r in (c, rev)]


def _triangle_fans(g, k, c, trace):
    """|C| = 3: merge the two non-u vertices into one super root and fan l
    paths around C; a path ends at u+ when it can, else at u-."""
    l, phi = split_parity(k)
    for rot in _rotations(c):
        u, up, um = rot
        attach = (g.adj[up] | g.adj[um]) - {up, um}
        fam = _attempt(trace, "triangle-fan", lambda: odd_cycle_fan(rot, _recurse_on(
            g, set(range(g.n)) - {up, um}, u, (attach, (up, um)), l, phi == 0, trace), phi))
        if fam is not None:
            return make_cycle_family(fam.members[:k], cls=fam.cls)
    return None


def _long_witness(g, k, c, trace):
    """|C| >= 5 and the two-neighbor property: fan path families from one
    end block of G - V(C), or from all of it when it is a single block,
    around C."""
    l, phi = split_parity(k)
    # G - V(C) is connected (the witness is non-separating) and non-empty
    # (each vertex of the induced C has delta - 2 >= 1 neighbors off C)
    rest = set(range(g.n)) - set(c)
    # candidate (block, cut-vertex) pairs; the whole of G - V(C) when it is
    # a single block (any anchor vertex works as the degenerate cut)
    cands = [(set(blk), b) for blk, b in leaf_blocks(g, c)]
    cands = cands or [(rest, b) for b in sorted(rest)]
    for blk, b in cands:
        fam = _fan_from_block(g, k, l, phi, c, blk, b, rest, trace)
        if fam is not None:
            return fam
    return None


def _fan_from_block(g, k, l, phi, c, blk, b, rest, trace):
    """Consecutive cycles via a fan anchored in one block, for each rotation
    of C from u and each x of the block but b: with x adjacent to both u+
    and u-, l - 1 length-condition (x, apex)-paths (the x-fan); then, with x
    adjacent to u and no block vertex adjacent to C twice, l (u, apex)-paths
    (the u-fan).  The apex is u^{+m}, reached from some y off the block."""
    m = (len(c) - 1) // 2
    cset = set(c)
    interior = blk - {b}
    outside = rest - interior
    hits = {x: g.adj[x] & cset for x in sorted(interior)}
    quiet = all(len(h) <= 1 for h in hits.values())
    for rot in _rotations(c):
        u, up, um, apex = rot[0], rot[1], rot[-1], rot[m]
        y_opts = sorted(outside & g.adj[apex])
        if not y_opts:
            continue

        def to_apex(x, head, kk, flex, fan):
            """The first fan that closes over head + P + bridge + (y, apex),
            P the kk (x, b)-paths of the block, for each y of y_opts in
            order that a shortest b-y path off the block reaches."""
            block = _recurse_on(g, blk, x, b, kk, flex, trace)
            for y in y_opts:
                bridge = _path_within(g, b, y, (rest - blk) | {b, y})
                if bridge is None:
                    continue
                fam = _attempt(trace, None, lambda: fan(make_path_family(
                    [join_paths(head + p, bridge, (y, apex)) for p in block.members],
                    cls=block.cls)))
                if fam is not None:
                    return fam
            return None

        # the x-fan first; each fan declines as a whole, block paths included
        for x, h in hits.items():
            fam = None
            if up in h and um in h:  # k >= 3 here, so l - 1 >= 1
                fam = _attempt(trace, "antipode-x-fan", lambda: to_apex(
                    x, (), l - 1, False, lambda att: odd_cycle_x_fan(rot, x, att, l)))
            if fam is None and quiet and u in h:
                fam = _attempt(trace, "antipode-fan", lambda: to_apex(
                    x, (u,), l, phi == 0, lambda att: odd_cycle_fan(rot, att, phi)))
            if fam is not None:
                return make_cycle_family(fam.members[:k], cls=fam.cls)
    return None


# -- the dispatcher -----------------------------------------------------------


def branch_of(g):
    """Which branch of the dispatch handles g: "I" (2-connected but not
    3-connected), "II" (3-connected non-bipartite), "III" (bipartite)."""
    return _classify(g)[0]


def _classify(g):
    """(branch_of(g), separations, adj): for branch I on n >= 4 vertices
    the 2-separations of g in two_separations order, resumed from the scan
    that found the first one, otherwise no separations; and the adjacency
    bitmasks of g, built once for the contraction certificate and handed
    on to the witness and oracle searches (None when n < 4).

    On n >= 4 vertices g is 3-connected exactly when it has no
    2-separation.  _contracts_to_k4 proves that for most 3-connected graphs
    with no scan, by the lemma that G is 3-connected when G/xy is and
    deg(x), deg(y) >= 3 (its docstring has the proof); the scan decides
    every graph it leaves undecided."""
    if g.n < 4:
        return "I", iter(()), None
    adj = adj_masks(g)
    if not _contracts_to_k4(g, adj):
        separations = two_separations(g)
        first = next(separations, None)
        if first is not None:
            return "I", chain((first,), separations), adj
    return ("II" if _coloring(g) is None else "III"), iter(()), adj


def find_k_cycles(g, k, trace=None):
    """(family, branch): k cycles of consecutive lengths or satisfying the
    length condition; needs G 2-connected with minimum degree >= k + 1.

    The only place that checks the request: the branch steps trust it."""
    if trace is None:
        trace = ExtractionTrace()
    if k < 1:
        raise InvalidArgument("k must be positive")
    branch, separations, adj = _classify(g)
    # branches II and III are 3-connected, hence 2-connected
    if branch == "I" and not is_2_connected(g):
        raise HypothesisNotMet("need a 2-connected graph")
    if g.min_degree() < k + 1:
        raise HypothesisNotMet(f"need minimum degree {k + 1}, got {g.min_degree()}")
    trace.record(f"branch-{branch}")
    if k == 1:
        # one cycle at the girth; branches II and III have already 2-colored g
        bipartite = _coloring(g) is not None if branch == "I" else branch == "III"
        fam = _from_oracle(g, 1, bipartite, adj, trace, "single-cycle")
    elif branch == "I":
        fam = _branch_i(g, k, separations, trace)
    elif branch == "II":
        fam = _branch_ii(g, k, trace, adj)
    else:
        # by design, not counted as a constructive gap
        fam = _from_oracle(g, k, True, adj, trace, BRANCH_BIPARTITE)
    if fam.k != k:
        raise InvalidWitness(f"expected {k} cycles, produced {fam.k}")
    return validate_cycle_family(g, fam), branch


def residue_map(fam, k):
    """Map each residue class modulo k to a member cycle of that length."""
    out = {}
    for m in fam.members:
        out.setdefault(len(m) % k, m)
    return out


def all_residues_mod_k(g, k, trace=None):
    """Cycles of every length modulo k, as a map residue -> cycle.

    Only odd k qualifies: a length-condition family steps by 2, which is a
    unit modulo odd k, and a consecutive family steps by 1; either way the
    k lengths hit every residue class.
    """
    if k % 2 == 0:
        raise HypothesisNotMet("residue coverage needs odd k")
    fam, _branch = find_k_cycles(g, k, trace=trace)
    res, full = residues_mod_k(fam.lengths(), k)
    if not full:
        raise InvalidWitness(
            f"family of class {fam.cls.kind} does not cover all residues mod {k}"
        )
    return residue_map(fam, k)

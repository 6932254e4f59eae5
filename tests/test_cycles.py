"""Cycle-family extraction: witness finding, branch dispatch, residues."""

import hashlib
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

from cyclemod import certify, cycles, decompose, oraclekern, paths
from cyclemod.errors import BudgetExceeded, HypothesisNotMet, InvalidWitness
from cyclemod.generate import GenSpec, generate
from cyclemod.graph import (
    Graph,
    adj_masks,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    induced,
    is_connected,
)
from cyclemod.cycles import (
    all_residues_mod_k,
    branch_of,
    check_witness,
    find_k_cycles,
    find_nonsep_induced_odd_cycle,
    oracle_cycles,
    split_parity,
)
from cyclemod.families import (
    CONSECUTIVE,
    LENGTH,
    FamilyClass,
    make_cycle_family,
    validate_cycle_family,
)
from cyclemod.oraclekern import (
    DEFAULT_BUDGET,
    _first_cycle,
    cycle_length_set,
    find_cycle_with_length,
    find_path_with_length,
)
from cyclemod.decompose import _low_link, cut_vertices, two_separations
from cyclemod.paths import GAP_TAG, ExtractionTrace
from cyclemod.smallgraphs import connected_graphs, two_connected_graphs


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def wheel5():
    """C5 plus a hub (vertex 5)."""
    rim = [(i, (i + 1) % 5) for i in range(5)]
    return Graph(6, rim + [(i, 5) for i in range(5)])


def two_k4_glued_on_edge():
    e1 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    verts = [0, 1, 4, 5]
    e2 = [(verts[i], verts[j]) for i in range(4) for j in range(i + 1, 4)]
    return Graph(6, e1 + e2)


def cubic_undecided():
    """A 3-connected cubic graph on 8 vertices with two triangles, which
    decompose._contracts_to_k4 leaves undecided."""
    return Graph(8, [(0, 1), (0, 5), (0, 7), (1, 2), (1, 4), (2, 3), (2, 7), (3, 6), (3, 7),
                     (4, 5), (4, 6), (5, 6)])


def circulant(n, steps):
    """C_n(steps): vertex i is adjacent to i +- s (mod n) for each s in steps."""
    return Graph(n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}))


def test_split_parity():
    for k in range(1, 10):
        l, phi = split_parity(k)
        assert k == 2 * l - 1 + phi
        assert phi + k % 2 == 1


def test_cycle_spectrum_frozen_values():
    assert cycle_length_set(cycle_graph(5)) == {5}
    assert cycle_length_set(complete_graph(4)) == {3, 4}
    assert cycle_length_set(complete_graph(5)) == {3, 4, 5}
    assert cycle_length_set(wheel5()) == {3, 4, 5, 6}
    assert cycle_length_set(petersen()) == {5, 6, 8, 9}
    assert cycle_length_set(complete_bipartite(4, 4)) == {4, 6, 8}


def test_witness_searches_are_budgeted(monkeypatch):
    g = petersen()  # no 7-cycle, and no 0-1 path of length 9 (119 nodes)
    assert find_cycle_with_length(g, 7) is None
    assert find_path_with_length(g, 0, 1, 9) is None
    monkeypatch.setenv("CYCLEMOD_BUDGET", "50")
    with pytest.raises(BudgetExceeded):
        find_cycle_with_length(g, 7)
    with pytest.raises(BudgetExceeded):
        find_path_with_length(g, 0, 1, 9)


def test_oracle_cycles_prefers_consecutive():
    fam = oracle_cycles(complete_graph(5), 3)
    assert fam.cls.kind == CONSECUTIVE and sorted(fam.lengths()) == [3, 4, 5]
    fam = oracle_cycles(complete_bipartite(4, 4), 3)
    assert fam.cls.kind == LENGTH and sorted(fam.lengths()) == [4, 6, 8]
    assert oracle_cycles(cycle_graph(5), 2) is None


def _oracle_cycles_by_spectrum(g, k):
    """The oracle as it was before the ascending windows: the first window
    of the whole cycle spectrum, then one witness search per length."""
    lengths = cycle_length_set(g)
    top = max(lengths, default=0)
    pick = None
    for a in range(3, top + 1):
        if all(a + i in lengths for i in range(k)):
            pick = (CONSECUTIVE, [a + i for i in range(k)])
            break
    if pick is None:
        for a in range(3, top + 1):
            if all(a + 2 * i in lengths for i in range(k)):
                pick = (LENGTH, [a + 2 * i for i in range(k)])
                break
    if pick is None:
        return None
    kind, want = pick
    members = []
    for length in want:
        c = find_cycle_with_length(g, length)
        if c is None:
            raise InvalidWitness(f"cycle length {length} in the spectrum but not realizable")
        members.append(c)
    fam = make_cycle_family(members, cls=FamilyClass(kind))
    return validate_cycle_family(g, fam)


def test_oracle_cycles_matches_the_spectrum_on_the_atlas():
    count = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            for k in range(1, 5):
                assert oracle_cycles(g, k) == _oracle_cycles_by_spectrum(g, k), (g, k)
            count += 1
    assert count == 996


@pytest.mark.parametrize("spec", [
    GenSpec(n=n, min_degree=d, bipartite=b, seed=0)
    for n in range(8, 15) for d in (3, 4, 5) for b in (False, True)
    if not (b and d > n // 2)
], ids=repr)
def test_oracle_cycles_matches_the_spectrum_on_generated_graphs(spec):
    g = generate(spec)
    for k in (2, 3, 4):
        assert oracle_cycles(g, k) == _oracle_cycles_by_spectrum(g, k), k


@pytest.mark.parametrize("n, d, k", [(24, 4, 3), (200, 5, 4)])
def test_branch_iii_beyond_the_spectrum(n, d, k):
    # at n = 24 the spectrum exceeds the default budget
    g = generate(GenSpec(n=n, min_degree=d, connectivity=3, bipartite=True, seed=1))
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(g, k, trace=trace)
    assert branch == "III" and fam.cls.kind == LENGTH and fam.k == k
    cert = certify.make_certificate(g, "cycles", k, fam, branch=branch, trace=trace)
    assert certify.verify(certify.from_json(certify.to_json(cert))) == (True, None)


def test_oracle_cycles_searches_share_one_budget(monkeypatch):
    g = petersen()  # the first consecutive window is (5, 6)
    spent = [_first_cycle(adj_masks(g), length, DEFAULT_BUDGET, 0)[1] for length in (5, 6)]
    monkeypatch.setenv("CYCLEMOD_BUDGET", str(sum(spent)))
    assert sorted(oracle_cycles(g, 2).lengths()) == [5, 6]
    monkeypatch.setenv("CYCLEMOD_BUDGET", str(sum(spent) - 1))
    # each search alone fits the smaller budget, their sum does not
    assert all(find_cycle_with_length(g, length) for length in (5, 6))
    with pytest.raises(BudgetExceeded):
        oracle_cycles(g, 2)


# -- the odd-cycle witness ---------------------------------------------------


def test_witness_on_k4():
    w = find_nonsep_induced_odd_cycle(complete_graph(4))
    assert len(w) == 3
    assert check_witness(complete_graph(4), w) == (True, None)


def test_witness_on_wheel():
    w = find_nonsep_induced_odd_cycle(wheel5())
    assert len(w) == 3 and 5 in w  # hub triangles come first


def test_witness_absent_on_bipartite():
    assert find_nonsep_induced_odd_cycle(complete_bipartite(3, 3)) is None


def test_witness_long_cycles():
    w = find_nonsep_induced_odd_cycle(petersen())
    assert len(w) == 5
    w = find_nonsep_induced_odd_cycle(circulant(13, (1, 5)))
    assert len(w) == 5
    assert check_witness(circulant(13, (1, 5)), w) == (True, None)


def _cyclic_order(g, verts):
    """Vertices of an induced cycle in cyclic order (or None)."""
    verts = sorted(verts)
    vset = set(verts)
    for v in verts:
        if len(g.adj[v] & vset) != 2:
            return None
    start = verts[0]
    order = [start]
    prev = None
    cur = start
    while True:
        nxts = sorted(w for w in g.adj[cur] & vset if w != prev)
        if not nxts:
            return None
        prev, cur = cur, nxts[0]
        if cur == start:
            break
        order.append(cur)
        if len(order) > len(verts):
            return None
    return tuple(order) if len(order) == len(verts) else None


def _witness_by_combinations(g):
    """find_nonsep_induced_odd_cycle as a loop over every vertex set of each
    odd size in lexicographic order; the reference for the chordless-path
    search."""
    for length in range(3, g.n + 1, 2):
        for verts in combinations(range(g.n), length):
            order = _cyclic_order(g, verts)
            if order is None:
                continue
            if check_witness(g, order)[0]:
                return order
    return None


def test_witness_matches_the_subset_loop_on_the_atlas():
    found = 0
    for n in range(3, 8):
        for g in two_connected_graphs(n):
            want = _witness_by_combinations(g)
            assert find_nonsep_induced_odd_cycle(g) == want, g.edges()
            found += want is not None
    # bipartite atlas graphs have none, the others mostly a triangle
    assert 0 < found < 538


def test_witness_matches_the_subset_loop_on_generated_graphs():
    for n in range(8, 17):
        for d in (3, 4):
            g = generate(GenSpec(n=n, min_degree=d, connectivity=3, seed=n))
            assert find_nonsep_induced_odd_cycle(g) == _witness_by_combinations(g), g.edges()


@pytest.mark.parametrize("steps", [(1, 3), (1, 4)])
def test_witness_matches_the_subset_loop_on_circulants(steps):
    # C_n(1, 3) with odd n is triangle-free, its shortest odd cycle has
    # about n / 3 vertices
    for n in range(9, 24, 2):
        g = circulant(n, steps)
        want = _witness_by_combinations(g)
        assert want is not None
        assert find_nonsep_induced_odd_cycle(g) == want, n


def test_witness_search_is_budgeted(monkeypatch):
    g = petersen()  # triangle-free: the search passes every length-3 frame
    assert len(find_nonsep_induced_odd_cycle(g)) == 5
    monkeypatch.setenv("CYCLEMOD_BUDGET", "20")
    with pytest.raises(BudgetExceeded):
        find_nonsep_induced_odd_cycle(g)


def test_k_cycles_on_a_circulant_with_a_long_shortest_odd_cycle():
    # the shortest odd cycle of C_35(1, 3) has 13 vertices, out of reach of
    # a search over every vertex set
    g = circulant(35, (1, 3))
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(g, 3, trace=trace)
    assert branch == "II" and fam.k == 3 and not trace.constructive_gap
    validate_cycle_family(g, fam)
    cert = certify.make_certificate(g, "cycles", 3, fam, branch=branch, trace=trace)
    assert certify.verify(cert) == (True, None)


def test_witness_on_a_circulant_with_a_21_vertex_shortest_odd_cycle():
    # C_61(1, 3): the distance prune drops every chordless path that can no
    # longer close back at s, and the witness is the one the search found
    # without it
    g = circulant(61, (1, 3))
    w = find_nonsep_induced_odd_cycle(g)
    assert w == (0, 1) + tuple(range(4, 59, 3))
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(g, 3, trace=trace)
    assert branch == "II" and fam.k == 3 and not trace.constructive_gap
    validate_cycle_family(g, fam)


def test_check_witness_rejections():
    g = complete_graph(5)
    ok, reason = check_witness(g, (0, 1, 2, 3))
    assert not ok and "odd" in reason
    # odd induced cycles with a pendant vertex at two of their vertices,
    # so G - V(C) is two lone vertices: the flood of G - V(C) rejects the
    # triangle, and the low-link walk the 5-cycle
    tri = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
    assert check_witness(tri, (0, 1, 2)) == (False, "separating")
    pent = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (2, 6)])
    assert check_witness(pent, (0, 1, 2, 3, 4)) == (False, "separating")


def old_check_witness(g, c):
    """check_witness as it was before one low-link walk of G - V(C) replaced
    a connectivity flood plus the cut vertices of the induced G - V(C)."""
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
    if not is_connected(g, ignore=cset):
        return False, "separating"
    if len(c) == 3:
        return True, None
    rest = set(range(g.n)) - cset
    if rest:
        sub, to_orig = induced(g, rest)
        cuts = {to_orig[v] for v in cut_vertices(sub)}
        n_c = len(c)
        for v in rest - cuts:
            hits = g.adj[v] & cset
            if len(hits) > 2:
                return False, f"vertex {v} sends {len(hits)} edges to the cycle"
            if len(hits) == 2:
                i, j = sorted(c.index(h) for h in hits)
                if (j - i) % n_c != 2 and (i - j) % n_c != 2:
                    return False, f"vertex {v} hits two non-antipodal-of-a-common-u vertices"
    return True, None


def test_check_witness_matches_the_two_traversal_version_on_the_atlas():
    verdicts = Counter()
    for n in range(3, 8):
        for g in two_connected_graphs(n):
            for length in range(3, n + 1, 2):
                for verts in combinations(range(n), length):
                    order = _cyclic_order(g, verts)
                    if order is None:
                        continue
                    got = check_witness(g, order)
                    assert got == old_check_witness(g, order), (g.edges(), order)
                    verdicts[got[1] or "ok"] += 1
    # every rejection that reads G - V(C) occurs
    assert {"ok", "separating"} <= set(verdicts), verdicts
    assert any(r.startswith("vertex ") for r in verdicts), verdicts


def test_triangle_witness_flood_matches_the_walk_on_the_atlas():
    # a triangle is decided by a flood of G - V(C), which must agree with
    # the low-link walk that a longer witness still makes
    verdicts = Counter()
    for atlas_graph in nx.graph_atlas_g():
        g = Graph(atlas_graph.number_of_nodes(), list(atlas_graph.edges()))
        for tri in combinations(range(g.n), 3):
            if not all(g.has_edge(a, b) for a, b in combinations(tri, 2)):
                continue
            by_walk = (False, "separating") if _low_link(g, set(tri)) is None else (True, None)
            got = check_witness(g, tri)
            assert got == by_walk, (g.edges(), tri)
            verdicts[got] += 1
    assert verdicts[(True, None)] > 0 and verdicts[(False, "separating")] > 0, verdicts


# -- branch extractors -------------------------------------------------------


def test_branch_of():
    assert branch_of(two_k4_glued_on_edge()) == "I"
    assert branch_of(complete_graph(4)) == "II"
    assert branch_of(complete_bipartite(3, 3)) == "III"


def test_branch_i_glued_k4s():
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(two_k4_glued_on_edge(), 2, trace=trace)
    assert branch == "I" and trace.branches[-1] == "two-cut-glue"
    assert fam.cls.kind == LENGTH
    assert sorted(fam.lengths()) == [4, 6]


def k4_chain():
    """Three K4s in a row, glued on the edges 23 and 45: two 2-separations."""
    edges = set()
    for block in ((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7)):
        edges |= set(combinations(block, 2))
    return Graph(8, sorted(edges))


def test_a_failed_glue_moves_on_to_the_next_separation(monkeypatch):
    g = k4_chain()
    seps = list(decompose.two_separations(g))
    assert [sep.cut for sep in seps] == [(2, 3), (4, 5)]
    l, phi = split_parity(2)
    want = cycles._glue_sides(g, 2, l, phi, seps[1].a, seps[1].b, *seps[1].cut, ExtractionTrace())
    glue = cycles.glue_two_sided_length
    calls = []

    def first_fails(p_fam, q_fam):
        calls.append(p_fam)
        if len(calls) == 1:
            raise InvalidWitness("forced")
        return glue(p_fam, q_fam)

    monkeypatch.setattr(cycles, "glue_two_sided_length", first_fails)
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(g, 2, trace=trace)
    assert branch == "I" and len(calls) == 2
    assert fam.members == want.members
    assert trace.branches[-1] == "two-cut-glue" and trace.branches.count("two-cut-glue") == 1

    def always_fails(p_fam, q_fam):
        calls.append(p_fam)
        raise InvalidWitness(f"glue {len(calls)} forced")

    monkeypatch.setattr(cycles, "glue_two_sided_length", always_fails)
    calls.clear()
    with pytest.raises(HypothesisNotMet, match=r"\(glue 2 forced\)"):
        find_k_cycles(g, 2)


def _first_glue_fails(monkeypatch):
    glue = cycles.glue_two_sided_length
    calls = []

    def first_fails(p_fam, q_fam):
        calls.append(p_fam)
        if len(calls) == 1:
            raise InvalidWitness("forced")
        return glue(p_fam, q_fam)

    monkeypatch.setattr(cycles, "glue_two_sided_length", first_fails)
    return calls


def test_a_failed_glue_leaves_no_tag_of_its_sides(monkeypatch):
    # the trace holds the tags of the second separation's sides alone
    calls = _first_glue_fails(monkeypatch)
    trace = ExtractionTrace()
    find_k_cycles(k4_chain(), 2, trace=trace)
    assert len(calls) == 2
    assert trace.branches == ["branch-I", "drop-xy-edge", "core-ladders", "single-path",
                              "two-cut-glue"]


def test_a_failed_glue_leaves_no_gap_of_its_sides(monkeypatch):
    # a side of the first separation falls back to the oracle, and that
    # glue fails: the family the second separation builds has no gap
    dispatch = paths._dispatch
    dispatched = []

    def first_declines(*args):
        dispatched.append(args)
        return None if len(dispatched) == 1 else dispatch(*args)

    fallbacks = []
    oracle = paths.oracle_paths
    monkeypatch.setattr(paths, "oracle_paths",
                        lambda *a, **kw: fallbacks.append(a) or oracle(*a, **kw))
    monkeypatch.setattr(paths, "_dispatch", first_declines)
    calls = _first_glue_fails(monkeypatch)
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(k4_chain(), 2, trace=trace)
    assert branch == "I" and len(calls) == 2 and len(fallbacks) == 1
    assert not trace.constructive_gap and GAP_TAG not in trace.branches
    assert certify.make_certificate(k4_chain(), "cycles", 2, fam, branch=branch,
                                    trace=trace)["trace"]["constructive_gap"] is False


def test_a_declined_fan_leaves_no_tag_of_its_block_paths(monkeypatch):
    # every x-fan of the first (rotation, x) fails, after its block
    # recursion recorded tags; the trace holds only the closing fan's
    recursions = []
    recurse = cycles._recurse_on

    def recorded(g, verts, a, b, k, flex, trace):
        mark = len(trace.branches)
        fam = recurse(g, verts, a, b, k, flex, trace)
        recursions.append(trace.branches[mark:])
        return fam

    fan = cycles.odd_cycle_x_fan
    first = []

    def first_pair_fails(rot, x, att, l):
        if not first:
            first.append((rot, x))
        if (rot, x) == first[0]:
            raise InvalidWitness("forced")
        return fan(rot, x, att, l)

    monkeypatch.setattr(cycles, "_recurse_on", recorded)
    monkeypatch.setattr(cycles, "odd_cycle_x_fan", first_pair_fails)
    g = circulant(13, (1, 5))
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(g, 3, trace=trace)
    validate_cycle_family(g, fam)
    assert branch == "II" and not trace.constructive_gap
    assert len(recursions) >= 2 and recursions[0]
    assert trace.branches == ["branch-II"] + recursions[-1] + [trace.branches[-1]]
    assert trace.branches[-1] in ("antipode-x-fan", "antipode-fan")


def test_a_family_with_a_cycle_short_raises_invalid_witness(monkeypatch):
    # K5 at k = 2 builds its two cycles from an edge pair; one cycle fewer
    # is a valid family of its class, and the member count stops it
    pair = cycles._two_cycles_from_edge

    def one_short(g, trace):
        fam = pair(g, trace)
        return make_cycle_family(fam.members[:-1], cls=fam.cls)

    monkeypatch.setattr(cycles, "_two_cycles_from_edge", one_short)
    with pytest.raises(InvalidWitness, match="expected 2 cycles, produced 1"):
        find_k_cycles(complete_graph(5), 2)


def test_branch_i_resumes_the_classifying_scan(monkeypatch):
    # the dispatch finds the first 2-separation once and the glue starts
    # from it, rather than scanning again from the pair (0, 1)
    scans = []

    def counted(g):
        scans.append(g)
        return two_separations(g)

    monkeypatch.setattr(decompose, "two_separations", counted)
    monkeypatch.setattr(cycles, "two_separations", counted)
    fam, branch = find_k_cycles(two_k4_glued_on_edge(), 2)
    assert branch == "I" and sorted(fam.lengths()) == [4, 6]
    assert len(scans) == 1


@pytest.mark.parametrize("g, k, branch, certified", [
    (complete_graph(5), 3, "II", True),
    (circulant(13, (1, 5)), 3, "II", True),
    (complete_bipartite(4, 4), 3, "III", True),
    (cubic_undecided(), 2, "II", False),
    (two_k4_glued_on_edge(), 2, "I", False),
])
def test_the_dispatch_scans_only_what_the_certificate_leaves_undecided(
        monkeypatch, g, k, branch, certified):
    # a certified request runs no 2-separation scan and no 2-connectivity
    # walk of its own; an undecided one runs the scan once, and only branch I
    # checks 2-connectivity
    scans, walks = [], []

    def counted(h):
        scans.append(h)
        return two_separations(h)

    monkeypatch.setattr(decompose, "two_separations", counted)
    monkeypatch.setattr(cycles, "two_separations", counted)
    monkeypatch.setattr(cycles, "is_2_connected",
                        lambda h: walks.append(h) or decompose.is_2_connected(h))
    assert decompose._contracts_to_k4(g, adj_masks(g)) == certified
    fam, got = find_k_cycles(g, k)
    assert got == branch and fam.k == k
    assert len(scans) == (0 if certified else 1)
    assert len(walks) == (branch == "I")


def test_branch_i_k1_cycle():
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(cycle_graph(5), 1, trace=trace)
    assert branch == "I" and trace.branches == ["branch-I", "single-cycle"]
    assert fam.k == 1 and fam.lengths() == [5]


def test_branch_ii_examples():
    fam, branch = find_k_cycles(complete_graph(4), 2)
    assert branch == "II" and sorted(fam.lengths()) == [3, 4]
    fam, branch = find_k_cycles(complete_graph(5), 3)
    assert branch == "II" and fam.cls.kind in (CONSECUTIVE, LENGTH) and fam.k == 3
    fam, branch = find_k_cycles(wheel5(), 2)
    assert branch == "II"
    a, b = sorted(fam.lengths())
    assert b - a in (1, 2)


def test_branch_ii_long_witness_constructive():
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(circulant(13, (1, 5)), 3, trace=trace)
    assert branch == "II" and fam.k == 3 and not trace.constructive_gap
    assert trace.branches[-1] == "antipode-x-fan"  # the 5-cycle witness fans


def test_long_witness_fans_from_u():
    # the non-separating induced 5-cycle witness of C_15(1, 3) fans from u
    g = circulant(15, (1, 3))
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(g, 3, trace=trace)
    validate_cycle_family(g, fam)
    assert branch == "II" and fam.k == 3 and trace.branches[-1] == "antipode-fan"


# SHA-256 of the find_k_cycles(g, 3) certificates of FAN_REQUESTS, in order
FAN_SHA256 = "9eee79a14cf617222b9c525f57b7ce45e74e5fdad9c4888212f65e8a61507c95"
FAN_REQUESTS = [(n, s) for s in ((1, 3), (1, 4)) for n in range(11, 32, 2)] + [(25, (1, 5))]


def test_long_witness_fans_are_pinned():
    # no graph on n <= 7 vertices reaches the long-witness fans, so the
    # atlas digests do not cover them: these circulants do, with an x-fan
    # in 19 requests and a u-fan in the other 4
    digest = hashlib.sha256()
    fans = Counter()
    for n, steps in FAN_REQUESTS:
        g = circulant(n, steps)
        trace = ExtractionTrace()
        fam, branch = find_k_cycles(g, 3, trace=trace)
        fans[trace.branches[-1]] += 1
        cert = certify.make_certificate(g, "cycles", 3, fam, branch=branch, trace=trace)
        digest.update(certify.to_json(cert).encode())
    assert fans == {"antipode-x-fan": 19, "antipode-fan": 4}
    assert digest.hexdigest() == FAN_SHA256


def test_branch_iii_examples():
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(complete_bipartite(4, 4), 3, trace=trace)
    assert branch == "III" and trace.branches[-1] == "bipartite-oracle"
    assert not trace.constructive_gap
    assert fam.cls.kind == LENGTH and sorted(fam.lengths()) == [4, 6, 8]
    with pytest.raises(HypothesisNotMet):
        find_k_cycles(complete_bipartite(3, 3), 3)  # degree 3 < 4


# -- dispatcher and residues -------------------------------------------------


def test_find_k_cycles_branches():
    fam, branch = find_k_cycles(complete_graph(4), 2)
    assert branch == "II" and sorted(fam.lengths()) == [3, 4]
    fam, branch = find_k_cycles(two_k4_glued_on_edge(), 2)
    assert branch == "I" and sorted(fam.lengths()) == [4, 6]
    fam, branch = find_k_cycles(complete_bipartite(4, 4), 3)
    assert branch == "III" and sorted(fam.lengths()) == [4, 6, 8]


def test_find_k_cycles_hypothesis():
    with pytest.raises(HypothesisNotMet):
        find_k_cycles(complete_graph(4), 3)  # degree 3 < 4
    with pytest.raises(HypothesisNotMet):
        find_k_cycles(Graph(4, [(0, 1), (1, 2), (2, 3)]), 1)  # not 2-connected


def test_all_residues_k5():
    out = all_residues_mod_k(complete_graph(5), 3)
    assert sorted(out.keys()) == [0, 1, 2]
    for r, cyc in out.items():
        assert len(cyc) % 3 == r


def test_all_residues_even_k_rejected():
    with pytest.raises(HypothesisNotMet):
        all_residues_mod_k(complete_graph(6), 4)


def test_a_branch_iii_request_builds_the_adjacency_masks_once(monkeypatch):
    # _classify builds them for the contraction certificate, which contracts
    # a copy, and the oracle search reads the same masks; a k = 1 request
    # is the oracle's one-member window, on branch I as on branch III
    built = []

    def counted(h):
        built.append(h)
        return adj_masks(h)

    # the branch II witness search reads them too
    requests = [(complete_bipartite(4, 5), 3, "III"),
                (cycle_graph(5), 1, "I"),
                (complete_bipartite(4, 5), 1, "III"),
                (generate(GenSpec(n=12, min_degree=4, connectivity=3, seed=3)), 3, "II")]
    for module in (cycles, decompose, oraclekern):
        monkeypatch.setattr(module, "adj_masks", counted, raising=False)
    for g, k, want in requests:
        built.clear()
        fam, branch = find_k_cycles(g, k)
        assert branch == want and fam.k == k and built == [g], (g.edges(), k)
    g = complete_bipartite(4, 5)
    masks = adj_masks(g)
    assert decompose._contracts_to_k4(g, masks) and masks == adj_masks(g)

"""Rooted path-family extraction and its exhaustive oracle."""

import itertools
import random

import networkx as nx
import pytest

from cyclemod import cycles, decompose, oraclekern, paths
from cyclemod.cycles import find_k_cycles, oracle_cycles
from cyclemod.errors import HypothesisNotMet, InvalidArgument, InvalidWitness
from cyclemod.generate import GenSpec, generate
from cyclemod.graph import Graph, complete_graph, induced
from cyclemod.decompose import is_rooted_2_connected
from cyclemod.families import (
    LENGTH,
    SEMI,
    FamilyClass,
    first_window,
    make_path_family,
    validate_path_family,
)
from cyclemod.oraclekern import find_path_with_length, path_length_set
from cyclemod.core import find_core
from cyclemod.paths import (
    ExtractionTrace,
    _recurse_on,
    find_paths_flex,
    find_paths_length,
    oracle_paths,
)
from cyclemod.smallgraphs import two_connected_graphs


def _pick(lengths, k, flex):
    """(class, lengths) of the window oracle_paths takes from a set of
    realizable path lengths: the groups it scans, over first lengths
    2..max."""
    groups = [[FamilyClass(LENGTH)]]
    if flex:
        groups.append([FamilyClass(SEMI, j) for j in range(1, k)])
    return first_window(groups, k, 2, max(lengths, default=1), set(lengths).issuperset)


def test_find_pattern():
    assert _pick({2, 4, 6}, 3, flex=False) == (FamilyClass(LENGTH), [2, 4, 6])
    assert _pick({3, 5}, 3, flex=False) is None
    # lengths 2,3,5 realize the semi pattern with switch 1
    assert _pick({2, 3, 5}, 3, flex=True) == (FamilyClass(SEMI, 1), [2, 3, 5])
    assert _pick({2, 3, 5}, 3, flex=False) is None
    # length pattern preferred over semi when both exist
    assert _pick(set(range(2, 10)), 3, flex=True) == (FamilyClass(LENGTH), [2, 4, 6])


def _ref_find_pattern(lengths, k, flex):
    """The pattern search the window scan replaced, kept as its reference:
    ("length", a, None) or ("semi", a, switch), or None."""
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


def test_window_scan_matches_the_pattern_search():
    # every subset of {1, .., 10} as a length set, k = 1-4, flex off and on
    cases = 0
    for bits in range(1 << 10):
        lengths = {v for v in range(1, 11) if bits >> (v - 1) & 1}
        for k, flex in itertools.product(range(1, 5), (False, True)):
            cases += 1
            hit = _pick(lengths, k, flex)
            got = None if hit is None else (hit[0].kind, hit[1][0], hit[0].switch)
            assert got == _ref_find_pattern(lengths, k, flex), (lengths, k, flex)
    assert cases == 8192


def test_path_length_set_frozen_values():
    assert path_length_set(complete_graph(4), 0, 1) == {1, 2, 3}
    assert path_length_set(complete_graph(5), 0, 1) == {1, 2, 3, 4}
    assert path_length_set(complete_graph(5), 2, 2) == set()


def test_oracle_paths_k5():
    fam = oracle_paths(complete_graph(5), 0, 1, 2)
    assert fam.cls.kind == LENGTH
    assert fam.lengths() == [2, 4]


@pytest.mark.parametrize("call", [
    lambda g: oracle_paths(g, 9, 0, 2),
    lambda g: oracle_paths(g, 0, 9, 2),
    lambda g: oracle_paths(g, -1, 0, 2),
    lambda g: oracle_paths(g, 0, 1, 0),
    lambda g: oracle_paths(g, 0, 0, 2),
    lambda g: path_length_set(g, 9, 0),
    lambda g: path_length_set(g, -1, 0),
    lambda g: find_path_with_length(g, 9, 0, 2),
    lambda g: find_path_with_length(g, -1, 0, 2),
    lambda g: oracle_cycles(g, 0),
], ids=["oracle-root-9", "oracle-y-9", "oracle-root-negative", "oracle-k-0", "oracle-x-is-y",
        "lengths-root-9", "lengths-root-negative", "witness-root-9", "witness-root-negative",
        "cycles-k-0"])
def test_bad_oracle_arguments_raise_before_any_search(monkeypatch, call):
    def no_search(*args):
        raise AssertionError("searched before checking the arguments")

    monkeypatch.setattr(oraclekern, "_path_lengths_py", no_search)
    monkeypatch.setattr(oraclekern, "_first_walk", no_search)
    with pytest.raises(InvalidArgument):
        call(complete_graph(5))


def test_oracle_agrees_with_networkx_enumeration():
    for g in two_connected_graphs(5):
        G = nx.Graph(list(g.edges()))
        G.add_nodes_from(range(g.n))
        lengths = {
            len(p) - 1 for p in nx.all_simple_paths(G, 0, 1)
        }
        assert path_length_set(g, 0, 1) == lengths


def test_hypothesis_not_met():
    with pytest.raises(HypothesisNotMet):
        find_paths_length(complete_graph(4), 0, 1, 2)  # needs rooted deg >= 4


@pytest.mark.parametrize("find", [find_paths_length, find_paths_flex])
def test_a_graph_whose_g_plus_xy_has_a_cut_vertex_misses_the_hypothesis(find):
    # the bowtie: every degree outside {1, 2} is >= 2, but 0 cuts off the
    # triangle 045, so G + xy is not 2-connected
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 0)])
    with pytest.raises(HypothesisNotMet, match="2-connected"):
        find(g, 1, 2, 1)


def test_k1_returns_single_path():
    g = Graph(3, [(0, 2), (1, 2)])
    fam = find_paths_length(g, 0, 1, 1)
    assert fam.k == 1 and fam.lengths()[0] >= 2


def test_extractor_exhaustive_n5():
    """Every rooted-2-connected (g, x, y) with n <= 5 and admissible k,
    both modes, without ever touching the oracle fallback."""
    checked = 0
    for g in two_connected_graphs(4) + two_connected_graphs(5):
        for x, y in itertools.combinations(range(g.n), 2):
            if not is_rooted_2_connected(g, x, y):
                continue
            d = g.rooted_min_degree(x, y)
            for flex in (False, True):
                kmax = (d + (1 if flex else 0)) // 2
                for k in range(1, kmax + 1):
                    trace = ExtractionTrace()
                    fn = find_paths_flex if flex else find_paths_length
                    fam = fn(g, x, y, k, trace=trace)
                    validate_path_family(g, fam, x, y)
                    assert fam.k == k
                    if not flex:
                        assert fam.cls.kind == LENGTH
                    assert not trace.constructive_gap
                    checked += 1
    assert checked > 200


def test_sharpness_k4_between_all_pairs():
    """K_{2k} at k = 2: no size-2 length-condition family between any pair,
    but a semi-length family exists."""
    g = complete_graph(4)
    for x, y in itertools.combinations(range(4), 2):
        assert oracle_paths(g, x, y, 2, flex=False) is None
        fam = oracle_paths(g, x, y, 2, flex=True)
        assert fam is not None and fam.cls.kind == SEMI


def test_sharpness_k3_has_neither():
    g = complete_graph(3)
    for x, y in itertools.combinations(range(3), 2):
        assert oracle_paths(g, x, y, 2, flex=False) is None
        assert oracle_paths(g, x, y, 2, flex=True) is None


def test_recurse_on_lifts_a_super_root_and_refuses_k_below_one():
    # G[{2, 3, 4, 5}] plus a super root that stands for 0; in K6 without the
    # edges 0-4 and 0-5 its derived neighbours are exactly {2, 3}
    g = Graph(6, [e for e in complete_graph(6).edges() if e not in ((0, 4), (0, 5))])
    assert g.adj[0] == {1, 2, 3}
    sup = (0,)
    fam = _recurse_on(g, {2, 3, 4, 5}, sup, 5, 1, False, ExtractionTrace())
    validate_path_family(g, fam, 0, 5)
    assert fam.members[0][1] in (2, 3)
    # k - l <= 0 in _block_to_t must decline, not recurse
    with pytest.raises(HypothesisNotMet):
        _recurse_on(g, {2, 3, 4, 5}, sup, 5, 0, False, ExtractionTrace())


def test_recurse_on_lifts_a_super_root_to_its_first_fitting_option():
    # in K7 each neighbour of the super root on a path is adjacent to both
    # options 0 and 1, so the order given alone decides the lift
    g = complete_graph(7)
    for options in ((0, 1), (1, 0)):
        fam = _recurse_on(g, {2, 3, 4, 5, 6}, options, 6, 2, False, ExtractionTrace())
        validate_path_family(g, fam, options[0], 6)
        assert fam.k == 2 and {m[0] for m in fam.members} == {options[0]}


def _super_root_requests():
    """(g, verts, a, b): G[verts] with zero, one or two super roots, on the
    2-connected atlas graphs with n <= 7 and generated graphs with n = 8..16."""
    corpus = [g for n in range(3, 8) for g in two_connected_graphs(n)]
    corpus += [generate(GenSpec(n=n, min_degree=3, seed=n)) for n in range(8, 17)]
    for g in corpus:
        for v in range(g.n):
            verts = sorted(set(range(g.n)) - {v})
            far = [w for w in verts if w not in g.adj[v]] or verts
            yield g, verts, verts[0], verts[-1]
            yield g, verts, (v,), far[-1]
            yield g, verts, far[0], (v,)
            w = (v + 1) % g.n
            yield g, sorted(set(verts) - {w}), (v,), (w,)


def test_the_super_root_graph_equals_the_graph_rebuilt_from_its_edge_list(monkeypatch):
    built = []

    def refuse(sub, ax, ay, k, flex, trace):
        built.append(sub)
        raise HypothesisNotMet("refused")

    monkeypatch.setattr(paths, "_engine", refuse)
    super_roots = set()
    for g, verts, a, b in _super_root_requests():
        built.clear()
        with pytest.raises(HypothesisNotMet):
            paths._recurse_on(g, verts, a, b, 2, False, ExtractionTrace())
        sub, to_orig = induced(g, verts)
        inv = {w: i for i, w in enumerate(to_orig)}
        n, extra = sub.n, []
        for r in (a, b):
            if isinstance(r, tuple):
                extra += [(inv[w], n) for w in verts if any(g.has_edge(w, o) for o in r)]
                n += 1
        want = Graph(n, sub.edges() + extra)
        (got,) = built
        assert got == want and got.edges() == want.edges(), (g.edges(), verts, a, b)
        super_roots.add(n - sub.n)
    assert super_roots == {0, 1, 2}


def test_a_graph_that_holds_xy_gets_no_2_connectivity_walk(monkeypatch):
    # a k >= 2 level walks no graph in which xy is an edge: the engine
    # checks G + xy on G - xy, after the drop
    walked = []
    walk = paths.rooted_end_blocks
    monkeypatch.setattr(paths, "rooted_end_blocks", lambda h, a, b: walked.append(h) or walk(h, a, b))
    g = generate(GenSpec(n=12, min_degree=4, connectivity=3, seed=3))
    fam, branch = find_k_cycles(g, 2)
    assert branch == "II" and fam.k == 2
    assert walked and g not in walked
    walked.clear()
    x, y = g.edges()[0]
    find_paths_flex(g, x, y, 2)
    assert g not in walked and g.without_edge(x, y) in walked


def _seeded_requests():
    """Flex path requests between every root pair, k = 2 and 3, on 40
    atlas graphs with 6 or 7 vertices drawn with seed 30; then cycle
    requests, k = 2 and 3, on three generated branch-II graphs and on the
    circulant C_11(1, 3), whose k = 3 request fans around a 5-cycle."""
    rng = random.Random(30)
    for g in rng.sample(two_connected_graphs(6) + two_connected_graphs(7), 40):
        for x, y in itertools.permutations(range(g.n), 2):
            for k in (2, 3):
                if g.rooted_min_degree(x, y) >= 2 * k - 1:
                    yield lambda g=g, x=x, y=y, k=k: find_paths_flex(g, x, y, k)
    branch_ii = [generate(GenSpec(n=12, min_degree=4, connectivity=3, seed=s)) for s in (3, 4, 5)]
    branch_ii.append(Graph(11, sorted({tuple(sorted((i, (i + s) % 11)))
                                       for i in range(11) for s in (1, 3)})))
    for g in branch_ii:
        for k in (2, 3):
            yield lambda g=g, k=k: find_k_cycles(g, k)


def test_each_engine_level_walks_its_own_graph_once(monkeypatch):
    # the engine checks the hypothesis, and _dispatch and the end-block
    # split read their answers, on one low-link walk of the level's graph
    walks, levels, entered, split = [], [], [], []
    low_link, dispatch, engine = decompose._low_link, paths._dispatch, paths._engine

    def walk(h, without=()):
        walks.append((h, tuple(without)))
        return low_link(h, without)

    def dispatched(h, x, y, k, flex, trace, ends):
        levels.append(h)
        split.append(bool(ends) and k >= 2)
        return dispatch(h, x, y, k, flex, trace, ends)

    def counted(*args):
        entered.append(args)
        return engine(*args)

    monkeypatch.setattr(decompose, "_low_link", walk)
    monkeypatch.setattr(paths, "_dispatch", dispatched)
    monkeypatch.setattr(paths, "_engine", counted)
    monkeypatch.setattr(cycles, "_engine", counted)
    requests = 0
    for request in _seeded_requests():
        walks.clear()
        levels.clear()
        entered.clear()
        request()
        requests += 1
        assert len(levels) == len(entered)
        for h in levels:
            assert sum(1 for w, without in walks if w is h and not without) == 1
    assert requests == 624 and any(split)


# networkx.random_regular_graph(3, 12, seed=2), as a literal
CUBIC_12 = [(0, 1), (0, 4), (0, 6), (1, 6), (1, 9), (2, 3), (2, 7), (2, 8), (3, 5), (3, 9),
            (4, 5), (4, 6), (5, 11), (7, 8), (7, 10), (8, 10), (9, 11), (10, 11)]
# the root pairs whose flex k = 2 request falls back to the oracle: the best
# core there has l = k - 1 and no construction of the core case fires
CUBIC_12_GAPS = {(3, 7), (3, 8), (3, 10), (5, 0), (5, 1), (5, 6),
                 (9, 0), (9, 4), (9, 6), (11, 2), (11, 7), (11, 8)}


def test_the_flex_gaps_of_one_cubic_graph_are_pinned():
    g = Graph(12, CUBIC_12)
    gaps = set()
    for x, y in itertools.permutations(range(12), 2):
        trace = ExtractionTrace()
        fam = find_paths_flex(g, x, y, 2, trace=trace)
        validate_path_family(g, fam, x, y, allowed=(LENGTH, SEMI))
        assert fam.k == 2
        if trace.constructive_gap:
            gaps.add((x, y))
    assert gaps == CUBIC_12_GAPS


# networkx.random_regular_graph(5, 10, seed=1): with roots 4 and 9 its
# best core leaves a component C of y whose end block (2, 5, 6, 7) hangs
# off the rest of C at b = 7, so the (T, b)-paths of that block reach y
# through a bridge
REG5_10 = [(0, 1), (0, 3), (0, 5), (0, 8), (0, 9), (1, 2), (1, 4), (1, 6), (1, 9),
           (2, 3), (2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (4, 8), (4, 9),
           (5, 6), (5, 7), (5, 8), (6, 7), (7, 8), (7, 9), (8, 9)]


def test_an_end_block_of_c_reaches_y_through_a_bridge(monkeypatch):
    g = Graph(10, REG5_10)
    calls = []
    block_to_t = paths._block_to_t

    def recorded(g, x, y, k, flex, trace, core, blk, b):
        fam = block_to_t(g, x, y, k, flex, trace, core, blk, b)
        calls.append((sorted(blk), b, y, fam is not None))
        return fam

    monkeypatch.setattr(paths, "_block_to_t", recorded)
    trace = ExtractionTrace()
    fam = find_paths_flex(g, 4, 9, 3, trace=trace)
    validate_path_family(g, fam, 4, 9, allowed=(LENGTH, SEMI))
    assert fam.k == 3 and not trace.constructive_gap
    assert trace.branches[-1] == "block-to-t"
    assert calls == [([2, 5, 6, 7], 7, 9, True)]


def test_a_construction_that_raises_is_declined_with_no_tag(monkeypatch):
    # _attempt turns a construction's error into a decline: None, and no
    # tag for it; the request then falls back to the oracle
    def broken(*args):
        raise InvalidWitness("forced")

    attempts = []
    attempt = paths._attempt

    def recorded(trace, tag, fn):
        fam = attempt(trace, tag, fn)
        attempts.append((tag, fam))
        return fam

    monkeypatch.setattr(paths, "extend_from_core", broken)
    monkeypatch.setattr(paths, "_attempt", recorded)
    g = Graph(10, REG5_10)
    trace = ExtractionTrace()
    fam = find_paths_flex(g, 4, 9, 3, trace=trace)
    validate_path_family(g, fam, 4, 9, allowed=(LENGTH, SEMI))
    assert ("block-to-t", None) in attempts
    assert "block-to-t" not in trace.branches
    assert trace.branches[-1] == "oracle-fallback" and trace.constructive_gap


def test_a_fallback_level_validates_its_family_once(monkeypatch):
    # oracle_paths validates its answer against the level's g, x and y, so
    # the level does not validate the fallback family a second time
    dispatch, validate = paths._dispatch, paths.validate_path_family
    dispatched, validated = [], []

    def first_declines(*args):
        dispatched.append(args)
        return None if len(dispatched) == 1 else dispatch(*args)

    def counted(*args, **kwargs):
        validated.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(paths, "_dispatch", first_declines)
    monkeypatch.setattr(paths, "validate_path_family", counted)
    trace = ExtractionTrace()
    fam = find_paths_flex(complete_graph(5), 0, 1, 2, trace=trace)
    assert fam.k == 2 and trace.constructive_gap
    assert len(validated) == 1


@pytest.mark.parametrize("n, edges, x, y", [
    # T reaches C - y
    (7, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (2, 4), (3, 4), (5, 6)], 2, 5),
    # S - x has no neighbor in C
    (6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (2, 3), (2, 5)], 1, 4),
], ids=["t-reaches-c-minus-y", "s-misses-c"])
def test_semi_through_y_declines_outside_its_case(n, edges, x, y):
    g = Graph(n, edges)
    assert paths._semi_in_h_plus_y(g, find_core(g, x, y), 3) is None


def test_a_level_with_a_member_short_raises_invalid_witness(monkeypatch):
    # the top level of K5 at k = 2 builds its family with core ladders; one
    # ladder fewer is a valid length family, and the member count stops it
    ladders = paths.core_paths_big_l

    def one_short(g, core, k):
        fam = ladders(g, core, k)
        return make_path_family(fam.members[:-1], cls=fam.cls)

    trace = ExtractionTrace()
    find_paths_length(complete_graph(5), 0, 1, 2, trace=trace)
    assert trace.branches == ["drop-xy-edge", "core-ladders"]
    monkeypatch.setattr(paths, "core_paths_big_l", one_short)
    with pytest.raises(InvalidWitness, match="expected 2 members, got 1"):
        find_paths_length(complete_graph(5), 0, 1, 2)

"""Acceptance gate: the eight desk-scale guarantees of the package.

1. every 2-connected graph on n <= 7 yields k validated cycles
   (consecutive or length condition) for every admissible k;
2. every rooted-2-connected (g, x, y) on n <= 7 yields validated path
   families for every admissible k, in both modes;
3. the degree bounds are sharp: K_{2k} admits no length-condition family
   of size k (but a semi-length one), K_{2k-1} admits neither;
4. for odd k, the k extracted cycles cover every length residue mod k,
   across generated instances of all three dispatch branches;
5. the non-separating induced odd cycle finder always produces a
   validated witness on 3-connected non-bipartite inputs;
6. the row-schedule combinators produce exactly their advertised counts;
7. certificates round-trip through emit -> verify, and single-field
   mutations are caught;
8. the constructive extractor never needs its oracle fallback at n <= 7.

The exhaustive loops of criteria 1 and 2 also hash every certificate they
produce, in order, and compare against a recorded SHA-256: a refactoring of
the extractors must leave every family, class and branch tag byte-identical.
"""

import hashlib
import itertools
import json
import random

import pytest
from click.testing import CliRunner

from cyclemod import certify
from cyclemod.cli import main as cli_main
from cyclemod.cycles import (
    all_residues_mod_k,
    branch_of,
    check_witness,
    find_k_cycles,
    find_nonsep_induced_odd_cycle,
)
from cyclemod.decompose import is_2_connected, is_rooted_2_connected
from cyclemod.errors import GenerationInfeasible, HypothesisNotMet
from cyclemod.families import (
    CONSECUTIVE,
    LENGTH,
    SEMI,
    FamilyClass,
    class_holds,
    glue_two_sided_length,
    glue_two_sided_semilength,
    make_path_family,
    odd_cycle_fan,
    odd_cycle_x_fan,
    validate_cycle_family,
    validate_path_family,
)
from cyclemod.generate import GenSpec, generate
from cyclemod.graph import Graph, complete_bipartite, complete_graph, is_bipartite
from cyclemod.oraclekern import cycle_length_set
from cyclemod.paths import (
    ExtractionTrace,
    find_paths_flex,
    find_paths_length,
    oracle_paths,
)
from cyclemod.smallgraphs import connected_graphs, two_connected_graphs

CYCLES_SHA256 = "c2a05094c4f10dc4ef2cdfb301838d4b2cda0f16010ca7197f0221e73efdaa4e"
PATHS_SHA256 = "8e0c991fd82a61cc65d1773586c7f021eab4e2a7f4b346d5378018d5d7e2bc49"


def all_two_connected_up_to_7():
    out = []
    for n in range(3, 8):
        out.extend(two_connected_graphs(n))
    return out


def glued_pair(d, seed):
    """Two dense generated blocks sharing two vertices: 2-connected but not
    3-connected, with minimum degree >= d."""
    a = generate(GenSpec(n=d + 2 + seed % 3, min_degree=d, seed=seed))
    b = generate(GenSpec(n=d + 2 + (seed // 3) % 3, min_degree=d,
                         seed=seed + 10_000))
    off = a.n - 2
    lift = lambda v: v if v < 2 else v + off
    edges = set(a.edges()) | {(lift(u), lift(v)) for u, v in b.edges()}
    return Graph(a.n + b.n - 2, sorted(edges))


# -- criterion 1: the main guarantee, exhaustively at n <= 7 ------------------


def test_every_small_2connected_graph_yields_k_cycles():
    checked = 0
    digest = hashlib.sha256()
    for g in all_two_connected_up_to_7():
        spectrum = cycle_length_set(g)
        for k in range(1, g.min_degree()):
            trace = ExtractionTrace()
            fam, branch = find_k_cycles(g, k, trace=trace)
            validate_cycle_family(g, fam)
            assert fam.k == k
            assert fam.cls.kind in (CONSECUTIVE, LENGTH)
            assert set(fam.lengths()) <= spectrum
            assert branch in ("I", "II", "III")
            cert = certify.make_certificate(g, "cycles", k, fam, branch=branch,
                                            trace=trace)
            digest.update(certify.to_json(cert).encode())
            checked += 1
    assert checked == 750  # (graph, k) pairs with delta >= k + 1 at n <= 7
    assert digest.hexdigest() == CYCLES_SHA256


# -- criterion 2: path families, exhaustively at n <= 7 -----------------------


def test_every_small_rooted_graph_yields_k_paths():
    checked = {True: 0, False: 0}  # keyed by "the host is 2-connected"
    digest = hashlib.sha256()
    for n in range(3, 8):
        for g in connected_graphs(n):
            two_conn = is_2_connected(g)
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
                        if flex:
                            assert fam.cls.kind in (LENGTH, SEMI)
                        else:
                            assert fam.cls.kind == LENGTH
                        assert not trace.constructive_gap
                        cert = certify.make_certificate(g, "paths", k, fam, x=x, y=y,
                                                        trace=trace)
                        digest.update(certify.to_json(cert).encode())
                        checked[two_conn] += 1
    # admissible (g, x, y, mode, k) cases over all connected graphs, n <= 7:
    # 2-connected hosts, and hosts with a cut vertex (these reach the
    # end-block split of the engine)
    assert checked == {True: 27273, False: 3529}
    assert digest.hexdigest() == PATHS_SHA256


# -- criterion 3: sharpness of the degree bounds ------------------------------


@pytest.mark.parametrize("k", [2, 3])
def test_sharpness_exact(k):
    even = complete_graph(2 * k)      # rooted degree 2k - 1: just below 2k
    for x, y in itertools.combinations(range(even.n), 2):
        assert oracle_paths(even, x, y, k, flex=False) is None
        fam = oracle_paths(even, x, y, k, flex=True)
        assert fam is not None and fam.cls.kind == SEMI

    odd = complete_graph(2 * k - 1)   # rooted degree 2k - 2: below both bounds
    for x, y in itertools.combinations(range(odd.n), 2):
        assert oracle_paths(odd, x, y, k, flex=False) is None
        assert oracle_paths(odd, x, y, k, flex=True) is None


# -- criterion 4: residue coverage for odd k ----------------------------------


def residue_corpus(k, count):
    """Generated graphs with delta >= k + 1, spanning all three branches."""
    graphs = []
    d = k + 1
    seed = 0
    # bipartite 3-connected instances (branch III)
    if d <= 4:
        while len(graphs) < count // 5:
            n = 2 * d + 2 + seed % 2
            try:
                graphs.append(generate(GenSpec(n=n, min_degree=d,
                                               connectivity=3, bipartite=True,
                                               seed=seed)))
            except GenerationInfeasible:
                pass
            seed += 1
    else:
        # at delta >= 6 a bipartite graph is nearly complete on both sides, so
        # rejection sampling cannot hit one; take the complete bipartite
        # graphs that still fit the desk-scale oracle budget
        graphs += [complete_bipartite(d, d + i) for i in range(3)]
    # two-cut instances (branch I)
    target = len(graphs) + count // 5
    while len(graphs) < target:
        graphs.append(glued_pair(d, seed))
        seed += 1
    # dense random instances (mostly branch II)
    while len(graphs) < count:
        n = d + 2 + seed % 4
        try:
            graphs.append(generate(GenSpec(n=n, min_degree=d, seed=seed)))
        except GenerationInfeasible:
            pass
        seed += 1
    return graphs


@pytest.mark.parametrize("k", [3, 5])
def test_residue_coverage(k):
    graphs = residue_corpus(k, 100)
    assert len(graphs) == 100
    branches = set()
    for g in graphs:
        branches.add(branch_of(g))
        out = all_residues_mod_k(g, k)
        assert sorted(out.keys()) == list(range(k))
        for r, cyc in out.items():
            assert len(cyc) % k == r
    assert branches == {"I", "II", "III"}


# -- criterion 5: the odd-cycle witness finder --------------------------------


def test_odd_cycle_finder_exhaustive_and_random():
    checked = 0
    for g in all_two_connected_up_to_7():
        if branch_of(g) != "II":
            continue
        w = find_nonsep_induced_odd_cycle(g)
        assert w is not None
        assert check_witness(g, w) == (True, None)
        checked += 1
    assert checked > 100

    found = 0
    seed = 0
    while found < 100:
        n = 8 + seed % 5
        try:
            g = generate(GenSpec(n=n, min_degree=3, connectivity=3, seed=seed))
        except GenerationInfeasible:
            seed += 1
            continue
        seed += 1
        if is_bipartite(g) is not None:
            continue
        w = find_nonsep_induced_odd_cycle(g)
        assert w is not None
        assert check_witness(g, w) == (True, None)
        found += 1


# -- criterion 6: combinator row counts, symbolically -------------------------


def fab(lengths, x, y, start):
    members, nxt = [], start
    for length in lengths:
        inner = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        members.append(tuple([x] + inner + [y]))
    return members


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("phi", [0, 1])
def test_combinator_counts(l, phi):
    len_p = [2 + 2 * i for i in range(l + phi)]
    len_q = [3 + 2 * i for i in range(l)]
    p = make_path_family(fab(len_p, 0, 1, 100), cls=FamilyClass(LENGTH))
    q = make_path_family(fab(len_q, 0, 1, 500), cls=FamilyClass(LENGTH))
    assert glue_two_sided_length(p, q).k == l + (l + phi) - 1

    if phi == 1:
        for sp in range(1, l + 1):
            for sq in range(1, l + 1):
                sl_p = [2 + 2 * i if i < sp else 1 + 2 * i for i in range(l + 1)]
                sl_q = [3 + 2 * i if i < sq else 2 + 2 * i for i in range(l + 1)]
                pp = make_path_family(fab(sl_p, 0, 1, 100), cls=FamilyClass(SEMI, sp))
                qq = make_path_family(fab(sl_q, 0, 1, 500), cls=FamilyClass(SEMI, sq))
                assert glue_two_sided_semilength(pp, qq).k == 2 * l

    m = 3
    c = tuple(range(2 * m + 1))
    fan = make_path_family(fab([2 + 2 * i for i in range(l)], 0, m, 100), cls=FamilyClass(LENGTH))
    assert odd_cycle_fan(c, fan, phi).k == 2 * l

    if phi == 0 and l >= 2:
        for j in range(1, l):
            sl = [2 + 2 * i if i < j else 1 + 2 * i for i in range(l)]
            semi_fan = make_path_family(fab(sl, 0, m, 100), cls=FamilyClass(SEMI, j))
            assert odd_cycle_fan(c, semi_fan, 0).k == 2 * l - 1

    if l >= 2:
        xf = make_path_family(fab([2 + 2 * i for i in range(l - 1)], 99, m, 100), cls=FamilyClass(LENGTH))
        assert odd_cycle_x_fan(c, 99, xf, l).k == 2 * l


# -- criterion 7: certificate round trip and mutation detection ---------------


def certificate_pool():
    pool = []
    for seed in range(25):
        try:
            g = generate(GenSpec(n=6 + seed % 3, min_degree=3, seed=seed))
        except GenerationInfeasible:
            continue
        pool.append(g)
    return pool


def test_thousand_round_trips():
    pool = certificate_pool()
    assert pool
    rng = random.Random(0)
    done = 0
    while done < 1000:
        g = pool[rng.randrange(len(pool))]
        if rng.random() < 0.5:
            k = rng.randint(1, g.min_degree() - 1)
            trace = ExtractionTrace()
            fam, branch = find_k_cycles(g, k, trace=trace)
            cert = certify.make_certificate(g, "cycles", k, fam, branch=branch,
                                            trace=trace)
        else:
            x, y = rng.sample(range(g.n), 2)
            if not is_rooted_2_connected(g, x, y):
                continue
            d = g.rooted_min_degree(x, y)
            k = rng.randint(1, max(1, (d + 1) // 2))
            try:
                fam = find_paths_flex(g, x, y, k)
            except HypothesisNotMet:
                continue
            cert = certify.make_certificate(g, "paths", k, fam, x=x, y=y)
        text = certify.to_json(cert)
        assert certify.verify(certify.from_json(text)) == (True, None)
        done += 1


def mutations(cert):
    n = cert["graph"]["n"]
    c = json.loads(json.dumps(cert))
    c["k"] += 1
    yield "k", c
    c = json.loads(json.dumps(cert))
    c["family"][0][0] = n + 3
    yield "vertex-range", c
    c = json.loads(json.dumps(cert))
    c["family"][0][-1] = c["family"][0][0] if cert["command"] == "cycles" else n + 1
    yield "vertex-swap", c
    lengths = [len(m) for m in cert["family"]]
    for kind in (LENGTH, CONSECUTIVE, SEMI):
        if kind == cert["class"]["kind"]:
            continue
        switch = 1 if kind == SEMI else None
        # a relabelled class that genuinely holds (e.g. a single cycle read
        # as "consecutive") is not a corruption, so skip it
        if kind != SEMI and class_holds(lengths, FamilyClass(kind, switch)):
            continue
        c = json.loads(json.dumps(cert))
        c["class"]["kind"] = kind
        c["class"]["switch"] = switch
        yield "class", c
        break
    c = json.loads(json.dumps(cert))
    used = sorted(c["family"][0][:2])
    if used in c["graph"]["edges"]:
        c["graph"]["edges"].remove(used)
        yield "edge", c
    c = json.loads(json.dumps(cert))
    c["family"] = c["family"][:-1]
    yield "member-count", c
    c = json.loads(json.dumps(cert))
    c["family"] = len(c["family"])
    yield "family-shape", c
    c = json.loads(json.dumps(cert))
    c["graph"]["edges"] = n
    yield "edges-shape", c
    # JSON booleans that equal the integers they replace
    c = json.loads(json.dumps(cert))
    c["k"], c["family"] = True, c["family"][:1]
    yield "k-bool", c
    c = json.loads(json.dumps(cert))
    _u, v = c["graph"]["edges"][0]  # (0, v): vertex 0 has a neighbor
    c["graph"]["edges"][0] = [False, True if v == 1 else v]
    yield "edge-bool", c
    c = json.loads(json.dumps(cert))
    for m in c["family"]:
        if 0 in m:
            m[m.index(0)] = False
            yield "member-bool", c
            break
    if cert["command"] == "paths":
        # without its roots, nothing ties the members' endpoints together
        c = json.loads(json.dumps(cert))
        c["x"] = c["y"] = None
        yield "null-roots", c


def test_single_field_mutations_detected():
    pool = certificate_pool()
    rng = random.Random(1)
    for _ in range(50):
        g = pool[rng.randrange(len(pool))]
        k = rng.randint(1, g.min_degree() - 1)
        trace = ExtractionTrace()
        fam, branch = find_k_cycles(g, k, trace=trace)
        cert = certify.make_certificate(g, "cycles", k, fam, branch=branch,
                                        trace=trace)
        assert certify.verify(cert) == (True, None)
        for tag, mutated in mutations(cert):
            ok, _reason = certify.verify(mutated)
            assert not ok, f"mutation {tag!r} went undetected"


def test_paths_certificate_mutations_detected():
    g = complete_graph(5)
    cert = certify.make_certificate(g, "paths", 2, find_paths_length(g, 0, 1, 2), x=0, y=1)
    assert certify.verify(cert) == (True, None)
    mutated = dict(mutations(cert))
    assert "null-roots" in mutated
    # with null roots, a first member that shares no endpoint with the others
    mutated["null-roots-foreign-member"] = json.loads(json.dumps(mutated["null-roots"]))
    mutated["null-roots-foreign-member"]["family"][0] = [2, 3, 4]
    for tag, c in mutated.items():
        ok, _reason = certify.verify(c)
        assert not ok, f"mutation {tag!r} went undetected"


# -- criterion 8: no constructive gap at n <= 7 -------------------------------


def test_sweep_reports_zero_gap_rate():
    runner = CliRunner()
    res = runner.invoke(cli_main, ["sweep", "--nmax", "7", "--exhaustive"],
                        catch_exceptions=False)
    assert res.exit_code == 0
    summary = res.output.strip().splitlines()[-1]
    assert "fails 0" in summary
    assert "gap_rate 0.0000" in summary

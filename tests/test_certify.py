"""Certificate emission, canonical serialization, independent verification."""

import copy
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cyclemod import certify
from cyclemod.errors import InvalidArgument
from cyclemod.generate import GenSpec, generate
from cyclemod.graph import Graph, complete_graph
from cyclemod.cycles import find_k_cycles, residue_map
from cyclemod.paths import ExtractionTrace, find_paths_flex, find_paths_length


def sample_cert():
    g = complete_graph(5)
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(g, 3, trace=trace)
    return certify.make_certificate(
        g, "cycles", 3, fam, branch=branch,
        residues=residue_map(fam, 3), trace=trace,
    )


def test_round_trip():
    cert = sample_cert()
    text = certify.to_json(cert)
    assert certify.verify(certify.from_json(text)) == (True, None)


def test_serialization_is_canonical():
    cert = sample_cert()
    assert certify.to_json(cert) == certify.to_json(copy.deepcopy(cert))
    # key order in the input dict is irrelevant
    shuffled = dict(reversed(list(cert.items())))
    assert certify.to_json(shuffled) == certify.to_json(cert)


def test_paths_certificate():
    g = complete_graph(5)
    fam = find_paths_length(g, 0, 1, 2)
    cert = certify.make_certificate(g, "paths", 2, fam, x=0, y=1)
    assert certify.verify(cert) == (True, None)
    bad = copy.deepcopy(cert)
    bad["x"] = 2
    ok, reason = certify.verify(bad)
    assert not ok and "start" in reason


def test_vertex_swap_detected():
    cert = sample_cert()
    cert["family"][0][0] = (cert["family"][0][0] + 1) % cert["graph"]["n"]
    ok, _ = certify.verify(cert)
    assert not ok


def test_class_edit_detected():
    cert = sample_cert()
    cert["class"]["kind"] = "length" if cert["class"]["kind"] != "length" else "consecutive"
    ok, reason = certify.verify(cert)
    assert not ok and "class" in reason


def test_k_edit_detected():
    cert = sample_cert()
    cert["k"] += 1
    ok, reason = certify.verify(cert)
    assert not ok


def test_edge_removal_detected():
    cert = sample_cert()
    used = tuple(sorted(cert["family"][0][:2]))
    cert["graph"]["edges"].remove(list(used))
    ok, _ = certify.verify(cert)
    assert not ok


def test_residue_mutation_detected():
    cert = sample_cert()
    keys = sorted(cert["residues"])
    a, b = keys[0], keys[1]
    cert["residues"][a], cert["residues"][b] = cert["residues"][b], cert["residues"][a]
    ok, reason = certify.verify(cert)
    assert not ok and "residue" in reason
    # a witness of the wrong shape is a failed check, not a crash
    for witness in (4, None, ["0", "1", "2"], [0, 1, 2.0]):
        cert = sample_cert()
        cert["residues"][a] = witness
        ok, reason = certify.verify(cert)
        assert not ok and "residue" in reason, witness


def _first_0_or_1_to_bool(vertices):
    """Write the first 0 or 1 of a vertex list as JSON false/true."""
    i = next(i for i, v in enumerate(vertices) if v in (0, 1))
    vertices[i] = bool(vertices[i])


def _bools_to_ints(x):
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, list):
        return [_bools_to_ints(v) for v in x]
    if isinstance(x, dict):
        return {key: _bools_to_ints(v) for key, v in x.items()}
    return x


def test_json_booleans_are_not_integers():
    # false == 0 and true == 1 in Python, so each edit keeps every value;
    # each must still fail, because JSON booleans are not vertex ids or counts
    g = complete_graph(4)
    fam, branch = find_k_cycles(g, 2)
    cycles = certify.make_certificate(g, "cycles", 2, fam, branch=branch)
    paths = certify.make_certificate(complete_graph(5), "paths", 2,
                                     find_paths_length(complete_graph(5), 0, 1, 2), x=0, y=1)
    semi = certify.make_certificate(g, "paths", 2, find_paths_flex(g, 0, 1, 2), x=0, y=1)
    assert semi["class"] == {"kind": "semi", "switch": 1}
    cases = []
    cert = copy.deepcopy(cycles)
    cert["k"], cert["family"] = True, cert["family"][:1]
    cases.append(("k", cert))
    cert = copy.deepcopy(cycles)
    assert cert["graph"]["edges"][0] == [0, 1]
    cert["graph"]["edges"][0] = [False, True]
    cases.append(("edge", cert))
    cert = copy.deepcopy(cycles)
    _first_0_or_1_to_bool(cert["family"][0])
    cases.append(("member", cert))
    cert = copy.deepcopy(paths)
    cert["x"], cert["y"] = False, True
    cases.append(("x/y", cert))
    cert = copy.deepcopy(semi)
    cert["class"]["switch"] = True
    cases.append(("switch", cert))
    cert = sample_cert()
    _first_0_or_1_to_bool(cert["residues"]["0"])
    cases.append(("residue", cert))
    for tag, cert in cases:
        assert certify.verify(_bools_to_ints(cert)) == (True, None), tag
        ok, _reason = certify.verify(cert)
        assert not ok, tag


def test_verify_cost_follows_the_certificate_not_its_declared_n():
    # a 3-edge certificate that declares two million vertices: building a
    # graph on n vertices took seconds and most of a gigabyte
    cert = {"version": "0.1.0", "command": "cycles", "k": 1,
            "graph": {"n": 2_000_000, "edges": [[0, 1], [0, 2], [1, 2]]},
            "class": {"kind": "consecutive", "switch": None}, "family": [[0, 1, 2]]}
    start = time.perf_counter()
    assert certify.verify(cert) == (True, None)
    cert["family"] = [[0, 1, 1_999_999]]
    ok, reason = certify.verify(cert)
    assert not ok and "not a cycle" in reason
    assert time.perf_counter() - start < 1.0


def test_empty_path_member_fails_cleanly():
    cert = certify.make_certificate(complete_graph(5), "paths", 2,
                                    find_paths_length(complete_graph(5), 0, 1, 2), x=0, y=1)
    cert["family"][0] = []
    ok, reason = certify.verify(cert)
    assert not ok and "not a path" in reason


@given(st.integers(0, 2**32 - 1))
def test_out_of_range_vertex_detected(seed):
    import random

    rng = random.Random(seed)
    cert = sample_cert()
    i = rng.randrange(len(cert["family"]))
    j = rng.randrange(len(cert["family"][i]))
    cert["family"][i][j] = cert["graph"]["n"] + rng.randrange(5)
    ok, _ = certify.verify(cert)
    assert not ok


@given(st.integers(0, 2**32 - 1))
def test_repeated_vertex_detected(seed):
    import random

    rng = random.Random(seed)
    cert = sample_cert()
    i = rng.randrange(len(cert["family"]))
    m = cert["family"][i]
    j = rng.randrange(len(m))
    m[j] = m[(j + 1) % len(m)]
    ok, _ = certify.verify(cert)
    assert not ok


def _round_trip(g, command, k, fam, **fields):
    text = certify.to_json(certify.make_certificate(g, command, k, fam, **fields))
    assert certify.verify(certify.from_json(text)) == (True, None)


def _glued(a, b):
    """a and b sharing vertices 0 and 1: 2-connected but not 3-connected."""
    def lift(v):
        return v if v < 2 else v + a.n - 2
    return Graph(a.n + b.n - 2, set(a.edges()) | {(lift(u), lift(v)) for u, v in b.edges()})


@settings(deadline=None)
@given(st.data())
def test_extractions_round_trip_through_verify(data):
    n = data.draw(st.integers(6, 9), label="n")
    bipartite = data.draw(st.booleans(), label="bipartite")
    d = data.draw(st.integers(3, n // 2 if bipartite else 5), label="min_degree")
    spec = GenSpec(n=n, min_degree=d, connectivity=data.draw(st.sampled_from((2, 3))),
                   bipartite=bipartite, seed=data.draw(st.integers(0, 2**16), label="seed"))
    g = generate(spec)
    if data.draw(st.booleans(), label="glued"):  # reach branch I
        g = _glued(g, generate(replace(spec, seed=spec.seed + 1)))
    x, y = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    # k inside each hypothesis: delta >= k + 1 for cycles, a rooted minimum
    # degree of 2k for length paths and 2k - 1 for flexible ones
    k = data.draw(st.integers(1, d - 1), label="k cycles")
    trace = ExtractionTrace()
    fam, branch = find_k_cycles(g, k, trace=trace)
    _round_trip(g, "cycles", k, fam, branch=branch, trace=trace)
    k = data.draw(st.integers(1, d // 2), label="k length paths")
    _round_trip(g, "paths", k, find_paths_length(g, x, y, k), x=x, y=y)
    k = data.draw(st.integers(1, (d + 1) // 2), label="k flex paths")
    _round_trip(g, "paths", k, find_paths_flex(g, x, y, k), x=x, y=y)


def paths_cert():
    g = complete_graph(5)
    return certify.make_certificate(g, "paths", 2, find_paths_length(g, 0, 1, 2), x=0, y=1)


# (mutation, the prefix of the reason verify gives for it)
ANY_CERT_MUTATIONS = {
    "missing-field": (lambda c: c.pop("graph"), "missing field 'graph'"),
    "unknown-command": (lambda c: c.update(command="bogus"), "unknown command"),
    "graph-not-a-dict": (lambda c: c.update(graph=[5, []]), "malformed graph"),
    "bad-vertex-count": (lambda c: c["graph"].update(n=-1), "bad vertex count"),
    "malformed-edge": (lambda c: c["graph"]["edges"].append([0, 1, 2]), "malformed edge"),
    "duplicate-edge": (lambda c: c["graph"]["edges"].append([0, 1]), "duplicate edge"),
    "class-not-a-dict": (lambda c: c.update({"class": "length"}), "malformed class"),
    "unknown-class-kind": (lambda c: c["class"].update(kind="bogus"), "unknown class kind"),
    "class-and-switch": (lambda c: c["class"].update(switch=1), "inconsistent class/switch"),
}
PATHS_MUTATIONS = {
    "member-misses-y": (lambda c: c["family"][-1].pop(), "member does not end at y"),
}
CYCLES_MOD_MUTATIONS = {
    "residues-not-a-dict": (lambda c: c.update(residues=[[0, 3, 1]]), "malformed residue map"),
    "residue-keys": (lambda c: c["residues"].pop("0"), "residue keys are not exactly 0..2"),
    "residue-not-a-cycle": (lambda c: c["residues"].update({"0": [0, 1]}),
                            "residue witness is not a cycle"),
}
MUTATIONS = [
    pytest.param(make, mutate, prefix, id=f"{name}-{key}")
    for name, make, table in [("paths", paths_cert, {**ANY_CERT_MUTATIONS, **PATHS_MUTATIONS}),
                              ("cycles-mod", sample_cert,
                               {**ANY_CERT_MUTATIONS, **CYCLES_MOD_MUTATIONS})]
    for key, (mutate, prefix) in table.items()
]


@pytest.mark.parametrize("make, mutate, prefix", MUTATIONS)
def test_each_malformed_certificate_is_rejected_with_its_reason(make, mutate, prefix):
    cert = make()
    assert certify.verify(cert) == (True, None)
    mutate(cert)
    ok, reason = certify.verify(cert)
    assert ok is False and reason.startswith(prefix), reason


def test_a_certificate_of_an_unknown_command_is_not_made():
    g = complete_graph(5)
    with pytest.raises(InvalidArgument):
        certify.make_certificate(g, "bogus", 2, find_paths_length(g, 0, 1, 2), x=0, y=1)

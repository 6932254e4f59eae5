"""CLI subcommands, exit codes, certificate round trips."""

import json

import pytest
from click.testing import CliRunner

from cyclemod import certify, cycles, paths
from cyclemod.cli import main
from cyclemod.cycles import branch_of
from cyclemod.errors import BudgetExceeded, HypothesisNotMet
from cyclemod.graph import Graph, complete_bipartite, complete_graph, cycle_graph, format_graph
from cyclemod.smallgraphs import two_connected_graphs


def run(*args, files=None):
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, content in (files or {}).items():
            with open(name, "w") as fh:
                fh.write(content)
        return runner.invoke(main, list(args), catch_exceptions=False)


K4 = format_graph(complete_graph(4))
K5 = format_graph(complete_graph(5))
K44 = format_graph(complete_bipartite(4, 4))


def test_paths_success():
    res = run("paths", "--graph", "g", "--x", "0", "--y", "1", "--k", "2",
              "--mode", "length", files={"g": K5})
    assert res.exit_code == 0
    cert = json.loads(res.output)
    assert sorted(len(m) - 1 for m in cert["family"]) == [2, 4]
    assert certify.verify(cert) == (True, None)


# G + xy of the bowtie is not 2-connected: 0 cuts the triangle 045 off
BOWTIE = format_graph(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 0)]))


@pytest.mark.parametrize("graph, x, y, k", [(K4, 0, 1, 2), (BOWTIE, 1, 2, 1)],
                         ids=["k4-degree", "bowtie-cut"])
def test_paths_hypothesis_not_met(graph, x, y, k):
    res = run("paths", "--graph", "g", "--x", str(x), "--y", str(y), "--k", str(k),
              files={"g": graph})
    assert res.exit_code == 2
    assert "hypothesis not met" in res.stderr


def test_paths_bad_file():
    res = run("paths", "--graph", "g", "--x", "0", "--y", "1", "--k", "1",
              files={"g": "p x\nnot a graph\n"})
    assert res.exit_code == 1


@pytest.mark.parametrize("args", [
    ("paths", "--x", "9", "--y", "1", "--k", "1"),
    ("paths", "--x", "0", "--y", "0", "--k", "1"),
    ("paths", "--x", "0", "--y", "1", "--k", "0"),
    ("paths", "--x", "0", "--y", "1", "--k", "0", "--mode", "flex"),
    ("paths", "--x", "0", "--y", "-1", "--k", "1", "--oracle"),
    ("cycles", "--k", "0", "--mod"),
    ("cycles", "--k", "0", "--oracle"),
])
def test_bad_roots_or_k_exit_1(args):
    res = run(*args, "--graph", "g", files={"g": K5})
    assert res.exit_code == 1
    assert res.stdout == ""


def test_non_integer_k_exits_1():
    res = run("cycles", "--graph", "g", "--k", "abc", files={"g": K4})
    assert res.exit_code == 1
    assert "Invalid value for '--k'" in res.stderr


def test_missing_k_exits_1():
    res = run("cycles", "--graph", "g", files={"g": K4})
    assert res.exit_code == 1
    assert "Missing option '--k'" in res.stderr


def test_unknown_option_exits_1():
    res = run("cycles", "--graph", "g", "--k", "2", "--bogus", files={"g": K4})
    assert res.exit_code == 1
    assert "No such option '--bogus'" in res.stderr
    res = run("--bogus", "cycles")  # an option of the group itself
    assert res.exit_code == 1
    assert "No such option '--bogus'" in res.stderr


def test_unknown_command_exits_1():
    res = run("bogus")
    assert res.exit_code == 1
    assert "No such command 'bogus'" in res.stderr


def test_cycles_and_verify_round_trip():
    res = run("cycles", "--graph", "g", "--k", "2", files={"g": K4})
    assert res.exit_code == 0
    cert = json.loads(res.output)
    assert cert["branch"] == "II"
    assert sorted(len(m) for m in cert["family"]) == [3, 4]

    ver = run("verify", "--cert", "c", files={"c": res.output})
    assert ver.exit_code == 0 and ver.output.strip() == "OK"

    cert["family"][0][0] = 99
    bad = run("verify", "--cert", "c", files={"c": json.dumps(cert)})
    assert bad.exit_code == 4 and bad.output.startswith("FAIL")


def test_verify_malformed_family_fails_with_exit_4():
    res = run("cycles", "--graph", "g", "--k", "2", files={"g": K4})
    cert = json.loads(res.output)
    cert["family"] = 2
    bad = run("verify", "--cert", "c", files={"c": json.dumps(cert)})
    assert bad.exit_code == 4 and bad.output.startswith("FAIL")


def test_verify_boolean_k_fails_with_exit_4():
    res = run("cycles", "--graph", "g", "--k", "2", files={"g": K4})
    cert = json.loads(res.output)
    cert["k"], cert["family"] = True, cert["family"][:1]
    bad = run("verify", "--cert", "c", files={"c": json.dumps(cert)})
    assert bad.exit_code == 4 and bad.output.startswith("FAIL")


def test_verify_paths_without_roots_fails_with_exit_4():
    res = run("paths", "--graph", "g", "--x", "0", "--y", "1", "--k", "2",
              "--mode", "length", files={"g": K5})
    cert = json.loads(res.output)
    cert["x"] = cert["y"] = None
    cert["family"][0] = [2, 3, 4]
    bad = run("verify", "--cert", "c", files={"c": json.dumps(cert)})
    assert bad.exit_code == 4 and bad.output.startswith("FAIL")


def test_verify_rejects_an_unknown_class_kind_with_exit_4():
    res = run("cycles", "--graph", "g", "--k", "3", "--mod", files={"g": K5})
    cert = json.loads(res.output)
    cert["class"]["kind"] = "bogus"
    bad = run("verify", "--cert", "c", files={"c": json.dumps(cert)})
    assert bad.exit_code == 4 and bad.output.startswith("FAIL: unknown class kind")


def test_cycles_branch_iii_with_mod():
    res = run("cycles", "--graph", "g", "--k", "3", "--mod", files={"g": K44})
    assert res.exit_code == 0
    cert = json.loads(res.output)
    assert cert["branch"] == "III"
    assert sorted(cert["residues"]) == ["0", "1", "2"]


def test_cycles_mod_needs_odd_k():
    res = run("cycles", "--graph", "g", "--k", "4", "--mod", files={"g": K44})
    assert res.exit_code == 2


def test_gen_deterministic_and_infeasible():
    a = run("gen", "--n", "6", "--mindeg", "3", "--seed", "1")
    b = run("gen", "--n", "6", "--mindeg", "3", "--seed", "1")
    assert a.exit_code == 0 and a.output == b.output
    bad = run("gen", "--n", "4", "--mindeg", "4")
    assert bad.exit_code == 5


def test_sweep_exhaustive_small():
    res = run("sweep", "--nmax", "5", "--exhaustive")
    assert res.exit_code == 0
    assert "gap_rate 0.0000" in res.output


def test_sweep_classifies_each_graph_once(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return branch_of(g)

    monkeypatch.setattr(cycles, "branch_of", counted)
    res = run("sweep", "--nmax", "5", "--exhaustive")
    assert res.exit_code == 0
    graphs = [g for n in range(3, 6) for g in two_connected_graphs(n)]
    assert calls == graphs


def test_sweep_samples():
    res = run("sweep", "--nmax", "6", "--samples", "10")
    assert res.exit_code == 0
    assert "fails 0" in res.output


def test_cycles_oracle_certificate_verifies():
    res = run("cycles", "--graph", "g", "--k", "2", "--oracle", files={"g": K5})
    assert res.exit_code == 0
    cert = json.loads(res.stdout)
    assert cert["branch"] == "II"
    assert certify.verify(cert) == (True, None)


def test_a_constructive_gap_exits_3_and_still_prints_the_certificate(monkeypatch):
    dispatch = paths._dispatch
    dispatched = []

    def first_declines(*args):
        dispatched.append(args)
        return None if len(dispatched) == 1 else dispatch(*args)

    monkeypatch.setattr(paths, "_dispatch", first_declines)
    res = run("paths", "--graph", "g", "--x", "0", "--y", "1", "--k", "2", files={"g": K5})
    assert res.exit_code == 3 and "constructive gap" in res.stderr
    cert = json.loads(res.stdout)
    assert cert["trace"]["constructive_gap"] is True
    assert certify.verify(cert) == (True, None)


def test_a_branch_ii_request_with_no_witness_falls_back_to_the_oracle(monkeypatch):
    # K5 is 3-connected and not bipartite; with no odd-cycle witness the
    # k = 3 request is a constructive gap that the cycle oracle fills
    monkeypatch.setattr(cycles, "find_nonsep_induced_odd_cycle", lambda g, adj=None: None)
    g = complete_graph(5)
    trace = paths.ExtractionTrace()
    fam, branch = cycles.find_k_cycles(g, 3, trace=trace)
    assert branch == "II" and trace.branches == ["branch-II", paths.GAP_TAG]
    assert trace.constructive_gap and fam.k == 3
    cert = certify.make_certificate(g, "cycles", 3, fam, branch=branch, trace=trace)
    assert certify.verify(cert) == (True, None)
    res = run("cycles", "--graph", "g", "--k", "3", files={"g": K5})
    assert res.exit_code == 3 and "constructive gap" in res.stderr
    printed = json.loads(res.stdout)
    assert printed["trace"]["constructive_gap"] is True and printed["branch"] == "II"
    assert certify.verify(printed) == (True, None)


def test_a_branch_ii_request_with_no_witness_and_no_family_misses_the_hypothesis(monkeypatch):
    monkeypatch.setattr(cycles, "find_nonsep_induced_odd_cycle", lambda g, adj=None: None)
    monkeypatch.setattr(cycles, "_oracle_cycles", lambda g, k, bipartite, adj=None: None)
    with pytest.raises(HypothesisNotMet, match="no family of 3 cycles exists at all"):
        cycles.find_k_cycles(complete_graph(5), 3)
    res = run("cycles", "--graph", "g", "--k", "3", files={"g": K5})
    assert res.exit_code == 2 and "hypothesis not met" in res.stderr and res.stdout == ""


def test_an_oracle_that_finds_no_family_exits_3():
    res = run("paths", "--graph", "g", "--x", "0", "--y", "1", "--k", "2", "--oracle",
              files={"g": format_graph(cycle_graph(4))})
    assert res.exit_code == 3
    assert "oracle: no such family exists" in res.stderr and res.stdout == ""


@pytest.mark.parametrize("args, files, says", [
    (("verify", "--cert", "c"), {}, "cannot read c"),
    (("verify", "--cert", "c"), {"c": "not json"}, "bad certificate"),
    (("verify", "--cert", "c"), {"c": "[]"}, "bad certificate"),
    (("paths", "--graph", "g", "--x", "0", "--y", "1", "--k", "1"), {}, "cannot read g"),
    (("gen", "--n", "2", "--mindeg", "1"), {}, "bad generation spec"),
    (("sweep", "--nmax", "5"), {}, "choose exactly one"),
    (("sweep", "--nmax", "5", "--exhaustive", "--samples", "3"), {}, "choose exactly one"),
    (("sweep", "--nmax", "8", "--exhaustive"), {}, "available up to n = 7"),
], ids=["verify-missing-file", "verify-not-json", "verify-json-array", "paths-missing-graph",
        "gen-bad-spec", "sweep-neither-mode", "sweep-both-modes", "sweep-exhaustive-past-7"])
def test_bad_input_exits_1(args, files, says):
    res = run(*args, files=files)
    assert res.exit_code == 1
    assert says in res.stderr and res.stdout == ""


def _sweep_with(monkeypatch, outcome, *args):
    """Run `sweep` on the n <= 4 atlas with find_k_cycles replaced by
    outcome(g, k, trace); the ks it was asked for, and the result."""
    asked = []

    def fake(g, k, trace=None):
        asked.append(k)
        return outcome(g, k, trace)

    monkeypatch.setattr(cycles, "find_k_cycles", fake)
    return asked, run("sweep", "--nmax", "4", "--exhaustive", *args)


def _raise(exc):
    raise exc


@pytest.mark.parametrize("outcome, code, says", [
    (lambda g, k, trace: _raise(BudgetExceeded("forced")), 6, "fails"),
    (lambda g, k, trace: _raise(HypothesisNotMet("forced")), 4, "fails"),
    (lambda g, k, trace: trace.record(paths.GAP_TAG), 3, "gaps"),
], ids=["budget-exits-6", "failed-request-exits-4", "gap-exits-3"])
def test_sweep_exit_codes(monkeypatch, outcome, code, says):
    # every request of the sweep ends the same way, so the summary counts
    # each of them under that outcome
    asked, res = _sweep_with(monkeypatch, outcome)
    assert res.exit_code == code
    assert f"total {len(asked)} " in res.output and f"{says} {len(asked)} " in res.output


def test_sweep_kmax_caps_k(monkeypatch):
    asked, res = _sweep_with(monkeypatch, lambda g, k, trace: None)
    assert res.exit_code == 0 and max(asked) == 2
    capped, res = _sweep_with(monkeypatch, lambda g, k, trace: None, "--kmax", "1")
    assert res.exit_code == 0 and capped == [1] * len(capped) and len(capped) < len(asked)


def test_cycles_oracle_with_no_family_exits_3():
    # C5 has one cycle length, so no two cycles of the asked kind exist
    res = run("cycles", "--graph", "g", "--k", "2", "--oracle",
              files={"g": format_graph(cycle_graph(5))})
    assert res.exit_code == 3
    assert "oracle: no such family exists" in res.stderr and res.stdout == ""

"""Tests of the benchmark itself: a tiny run of each workload, tracing
transparency, and the tracer putting back every function it patched.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from cyclemod import oraclekern
from cyclemod.graph import complete_graph


def module_names():
    import cyclemod.cli  # noqa: F401  (so that its imported names are checked too)

    return {(m.__name__, attr): value
            for m in tracing.cyclemod_modules() for attr, value in vars(m).items()}


def test_installed_restores_every_patched_function():
    before = module_names()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            during = module_names()
            patched = {key for key, value in during.items() if value is not before[key]}
            for key in [("cyclemod.paths", "find_core"), ("cyclemod.cycles", "_engine"),
                        ("cyclemod.cli", "parse_graph"), ("cyclemod.certify", "verify"),
                        ("cyclemod.oraclekern", "_cycle_lengths_py")]:
                assert key in patched
            raise RuntimeError("leave the block through an exception")
    after = module_names()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_self_times_add_up_to_the_root_spans():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        workloads.call(workloads.Request("paths-length", complete_graph(7), 2, 0, 1))
    roots = [key.split("<")[0] for key in tracer.nested if key.endswith("<")]
    assert sorted(roots) == ["certify.make_certificate", "certify.to_json", "paths.find_paths_length"]
    assert sum(tracer.self_s.values()) == pytest.approx(
        sum(tracer.incl_s[name] for name in roots), rel=1e-9)
    assert tracer.calls["core.find_core"] > 0


def test_budget_failures_are_counted():
    tracer = tracing.Tracer()
    with tracing.installed(tracer), pytest.raises(workloads.BudgetExceeded):
        oraclekern.cycle_length_set(complete_graph(7), budget=10)
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert metrics["oraclekern.budget_exceeded"] == 1
    assert metrics["oraclekern.dfs_nodes"] == 11


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_tracing_is_transparent(workload):
    corpus = workloads.build(workload, 3, tiny=True)
    with run.client(workload, corpus) as request:
        records, wall = run.measure(corpus, request, 0)
    plain = run.check_records(corpus, records)
    assert len(records) == len(corpus) and wall > 0
    assert not plain.failures
    assert plain.constructive_ok > 0 and plain.gaps == 0

    tracer = tracing.Tracer()
    traced, overhead, imports = run.traced_records(workload, corpus, tracer, 1.0)
    checked = run.check_records(corpus, traced)
    assert checked.certs_sha256 == plain.certs_sha256
    assert overhead > 0
    metrics = tracing.layer_metrics(tracer, sum(rec.seconds for rec in traced))
    if workload == "engine":
        assert metrics["core.find_core.calls"] > 0 and metrics["oraclekern.dfs_nodes"] == 0
    elif workload == "oracle":
        assert metrics["core.find_core.calls"] == 0 and metrics["oraclekern.dfs_nodes"] > 0
    else:
        assert metrics["graph.parse_ms"] > 0 and metrics["certify.verify_ms"] > 0
        assert all(t["cli.import_ms"] > t["cli.import_click_ms"] > 0 for t in imports)


def test_corpora_are_fixed_by_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 5) == workloads.build(workload, 5)
    assert workloads.build("engine", 5) != workloads.build("engine", 6)
    oracle = workloads.build("oracle", 5)
    assert [oracle.count(req) for req in workloads.pinned_oracle_failures()] == [1, 1]


def test_setup_probe_prints_seconds():
    out = subprocess.run([sys.executable, str(run.HERE / "setup_probe.py"), "cli", "1"],
                         env=run.child_env(), capture_output=True, text=True, check=True,
                         timeout=120)
    assert float(out.stdout) > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

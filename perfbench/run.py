#!/usr/bin/env python3
"""The cyclemod benchmark.

    python3 perfbench/run.py --workload {engine,oracle,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports cyclemod from ./src.  One
client issues one request at a time (a closed loop).  A run is whole
passes over the workload's corpus, as many as fit into --seconds and at
least one.  Every success is checked with certify.verify and against its
request.  The lines printed above the last one give the failure counts, the
gap count and certs_sha256, a hash of the first pass's outputs in request
order.  The last line is the JSON result: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced pass with --trace 1.
NOTES.md says why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
# Users run with the defaults: the 10**7-node budget and numba if present.
UNSET = ("CYCLEMOD_BUDGET", "CYCLEMOD_NO_NUMBA")
# What the `cyclemod` console script runs.
CONSOLE_SCRIPT = "import sys; from cyclemod.cli import main; sys.exit(main())"
CLI_EXIT = {1: "CyclemodError", 2: "HypothesisNotMet", 3: "NoFamily", 4: "verification",
            6: "BudgetExceeded"}
FAILURE_KINDS = ("BudgetExceeded", "HypothesisNotMet", "CyclemodError", "NoFamily",
                 "verification", "crash")
IMPORTS = {"cli.import_ms": "cyclemod.cli", "cli.import_networkx_ms": "networkx",
           "cli.import_numpy_ms": "numpy", "cli.import_click_ms": "click"}


@dataclass
class Record:
    """One request: its corpus index, wall time, output text (a certificate,
    or the "OK" of a CLI verify) or failure kind, and the peak RSS of its
    process when it ran in one."""

    index: int
    seconds: float = 0.0
    text: str | None = None
    failure: str | None = None
    rss_kb: int = 0


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, env, out_path, err_path):
    """Run argv to its end with stdout and stderr sent to files; returns
    (exit code, resource usage of that child)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(argv[0], argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ])
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), usage


def import_times(stderr_text):
    """Cumulative import time in ms of the modules in IMPORTS, read from
    `python -X importtime` output."""
    wanted = {module: metric for metric, module in IMPORTS.items()}
    out = dict.fromkeys(IMPORTS, 0.0)
    for line in stderr_text.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in wanted and parts[1].strip().isdigit():
            out[wanted[parts[2].strip()]] = int(parts[1]) / 1000
    return out


# -- clients ----------------------------------------------------------------------


def library_request(index, req):
    import workloads

    try:
        return Record(index, text=workloads.call(req))
    except Exception as exc:
        kind = workloads.failure_kind(exc)
        if kind == "crash":
            traceback.print_exc()
        return Record(index, failure=kind)


class CliClient:
    """Issues each request as one `cyclemod` process.  A request's stdout
    is kept as out-<index>.txt in the work directory, which is where a
    later `verify` request finds the certificate it checks.  With a tracer,
    each child runs under cli_child.py and `-X importtime`."""

    def __init__(self, corpus, workdir, tracer=None):
        self.workdir = Path(workdir)
        self.env = child_env()
        self.tracer = tracer
        self.imports = []
        self.graph_file = {}
        from cyclemod.graph import format_graph

        for req in corpus:
            if req.graph is not None and req.graph not in self.graph_file:
                path = self.workdir / f"graph-{len(self.graph_file)}.txt"
                path.write_text(format_graph(req.graph))
                self.graph_file[req.graph] = str(path)

    def args(self, req):
        if req.op == "verify":
            return ["verify", "--cert", str(self.workdir / f"out-{req.source}.txt")]
        args = [req.command, "--graph", self.graph_file[req.graph], "--k", str(req.k)]
        if req.command == "paths":
            mode = "flex" if req.op == "paths-flex" else "length"
            args += ["--x", str(req.x), "--y", str(req.y), "--mode", mode]
        elif req.mod:
            args.append("--mod")
        return args

    def __call__(self, index, req):
        out = self.workdir / f"out-{index}.txt"
        err = self.workdir / "stderr.txt"
        summary = self.workdir / "summary.json"
        if self.tracer is None:
            prog = [sys.executable, "-c", CONSOLE_SCRIPT]
        else:
            prog = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), str(summary)]
        code, usage = spawn(prog + self.args(req), self.env, out, err)
        text, stderr_text = out.read_text(), err.read_text()
        if self.tracer is not None:
            self.tracer.absorb(json.loads(summary.read_text()))
            self.imports.append(import_times(stderr_text))
        rec = Record(index, rss_kb=usage.ru_maxrss)
        # exit 3 after a printed certificate marks a constructive gap
        if code == 0 or (code == 3 and text):
            rec.text = text
        elif "Traceback" in stderr_text:
            rec.failure = "crash"
            sys.stderr.write(stderr_text)
        else:
            rec.failure = CLI_EXIT.get(code, "crash")
        return rec


@contextmanager
def client(workload, corpus, tracer=None):
    """The request function of a workload.  A CLI client given a tracer
    traces its children; in-process requests are traced by the caller."""
    if workload != "cli":
        yield library_request
        return
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        yield CliClient(corpus, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- the closed loop ----------------------------------------------------------------


def timed(request, index, req):
    start = time.perf_counter()
    rec = request(index, req)
    rec.seconds = time.perf_counter() - start
    return rec


def measure(corpus, request, seconds):
    """Whole passes over the corpus, one request at a time.  Another pass
    starts only if the last one would still fit into `seconds`; the first
    always runs.  Returns (records, wall seconds)."""
    records = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        records += [timed(request, i, req) for i, req in enumerate(corpus)]
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return records, now - start


def traced_pass(corpus, plain, traced, install, pair_seconds):
    """One pass of traced requests.  The first request, and every one that
    starts within `pair_seconds`, also runs untraced, before or after the
    traced run by turns, so that a drift in machine speed cancels out of the
    tracing overhead.  Returns (traced records, traced seconds / untraced
    seconds of the pairs)."""
    records = []
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    for i, req in enumerate(corpus):
        pair = i == 0 or time.perf_counter() - start < pair_seconds
        if pair and i % 2:
            plain_s += timed(plain, i, req).seconds
        with install():
            rec = timed(traced, i, req)
        records.append(rec)
        if pair:
            traced_s += rec.seconds
            if not i % 2:
                plain_s += timed(plain, i, req).seconds
    return records, traced_s / plain_s


# -- checking ---------------------------------------------------------------------


@dataclass
class Checked:
    failures: Counter
    gaps: int
    constructive_ok: int
    branches: Counter
    certs_sha256: str
    first_pass: int


def check_records(corpus, records):
    """Verify every success (each distinct output once); a failed check turns
    the record into a "verification" failure."""
    import workloads

    verdicts = {}
    gaps = constructive_ok = 0
    branches = Counter()
    for rec in records:
        if rec.failure:
            continue
        req = corpus[rec.index]
        key = (rec.index, rec.text)
        if key not in verdicts:
            if req.op == "verify":
                verdicts[key] = (None if rec.text.strip() == "OK" else "verify did not print OK",
                                 (False, None))
            else:
                reason = workloads.check(req, rec.text)
                facts = workloads.certificate_facts(rec.text) if reason is None else None
                verdicts[key] = (reason, facts)
                if reason:
                    print(f"request {rec.index} ({req.op}): {reason}", file=sys.stderr)
        reason, facts = verdicts[key]
        if reason:
            rec.failure = "verification"
            continue
        gap, branch = facts
        if req.op in workloads.CONSTRUCTIVE:
            constructive_ok += 1
            gaps += gap
        if branch is not None and req.op == "cycles":
            branches[branch] += 1
    first = records[:len(corpus)]
    digest = hashlib.sha256()
    for rec in first:
        digest.update(f"!{rec.failure}\n".encode() if rec.failure else rec.text.encode())
    failures = Counter(rec.failure for rec in records if rec.failure)
    return Checked(failures, gaps, constructive_ok, branches, digest.hexdigest(), len(first))


def print_checks(workload, seed, trace, records, checked):
    from cyclemod.oraclekern import using_numba

    attempted = len(records)
    counts = " ".join(f"{k}={checked.failures[k]}" for k in FAILURE_KINDS)
    ok = attempted - sum(checked.failures.values())
    print(f"perfbench workload={workload} seed={seed} trace={trace} using_numba={using_numba()}")
    print(f"requests attempted={attempted} succeeded={ok} failed: {counts}")
    print(f"gaps: {checked.gaps} of {checked.constructive_ok} successful constructive requests")
    verdict = "FAILED" if checked.failures["verification"] else "ok"
    print(f"verification: {verdict} (certify.verify and a request match on every success)")
    print(f"certs_sha256: {checked.certs_sha256} (first pass, {checked.first_pass} requests)")


def is_correct(checked):
    return not (checked.failures["verification"] or checked.failures["crash"])


def emit(correct, records, checked, metrics, units):
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(checked.failures.values()),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


# -- the two kinds of run -------------------------------------------------------------


def setup_seconds(workload, seed):
    """Median over SETUP_PROBES fresh interpreters of importing cyclemod and
    building the workload's inputs."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(probe, env=child_env(), capture_output=True, text=True,
                             check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def untraced_run(workload, seed, seconds):
    import workloads

    corpus = workloads.build(workload, seed)
    setup_s = setup_seconds(workload, seed)
    with client(workload, corpus) as request:
        records, wall = measure(corpus, request, seconds)
    if workload == "cli":
        rss_kb = max(rec.rss_kb for rec in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checked = check_records(corpus, records)
    print_checks(workload, seed, 0, records, checked)

    lat = sorted(rec.seconds for rec in records)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    beyond = sum(1 for v in lat if v > p90)
    print(f"latency samples={len(lat)}, {beyond} beyond p90; wall_s={wall}")
    succeeded = len(records) - sum(checked.failures.values())
    metrics = {
        "request_p50_ms": statistics.median(lat) * 1000,
        "request_p90_ms": p90 * 1000,
        "throughput_rps": succeeded / wall,
        "success_rate": succeeded / len(records),
        "no_gap_rate": (1 - checked.gaps / checked.constructive_ok) if checked.constructive_ok else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024,
    }
    correct = is_correct(checked)
    emit(correct, records, checked, metrics, units("end_to_end"))
    return correct


def traced_records(workload, corpus, tracer, pair_seconds):
    """A traced pass of the workload (see traced_pass).  Returns (records,
    overhead ratio, import times of each CLI child)."""
    import tracing

    if workload == "cli":
        install = nullcontext
    else:
        install = functools.partial(tracing.installed, tracer)
    with client(workload, corpus) as plain, client(workload, corpus, tracer) as traced:
        records, overhead = traced_pass(corpus, plain, traced, install, pair_seconds)
    return records, overhead, getattr(traced, "imports", [])


def traced_run(workload, seed, seconds):
    """One traced pass for the per-layer metrics; its first seconds / 3 also
    give the tracing overhead."""
    import tracing
    import workloads

    build = tracing.Tracer()
    with tracing.installed(build):
        corpus = workloads.build(workload, seed)
    tracer = tracing.Tracer()
    records, overhead, imports = traced_records(workload, corpus, tracer, seconds / 3)
    checked = check_records(corpus, records)
    print_checks(workload, seed, 1, records, checked)

    request_s = sum(rec.seconds for rec in records)
    metrics = tracing.layer_metrics(tracer, request_s)
    for branch in ("I", "II", "III"):
        metrics[f"cycles.requests_by_branch.{branch}"] = checked.branches[branch]
    certs = [len(rec.text.encode()) for rec in records
             if not rec.failure and corpus[rec.index].op != "verify"]
    metrics["certify.cert_bytes"] = statistics.mean(certs) if certs else 0.0
    for name in IMPORTS:
        metrics[name] = statistics.median(t[name] for t in imports) if imports else 0.0
    metrics["generate.ms"] = build.incl_s["generate.generate"] * 1000
    metrics["trace.overhead_ratio"] = overhead
    per_layer = units("per_layer")
    correct = is_correct(checked)
    emit(correct, records, checked, {k: metrics[k] for k in per_layer}, per_layer)
    return correct


def units(kind):
    """Metric names and units of one kind, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("engine", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclemod" / "__init__.py").is_file():
        print(f"perfbench: no cyclemod sources in {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in UNSET:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    run = traced_run if args.trace else untraced_run
    return 0 if run(args.workload, args.seed, args.seconds) else 1


if __name__ == "__main__":
    sys.exit(main())

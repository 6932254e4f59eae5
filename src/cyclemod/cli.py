"""Command-line harness: extraction, certificate emission/verification,
instance generation, and the exhaustive desk-scale sweep.

Exit codes: 0 success, 1 parse/argument failure, 2 hypothesis not met,
3 nothing found / constructive gap, 4 verification failure,
5 infeasible generation, 6 budget exceeded.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import click

from .errors import (
    BudgetExceeded,
    CyclemodError,
    GenerationInfeasible,
    HypothesisNotMet,
    InvalidArgument,
)
from .graph import format_graph, parse_graph

# Each command imports what it runs, so a process loads (and, without
# cached bytecode, compiles) only that: `verify` loads certify, families
# and graph, and `paths` never loads cycles.

EXIT_PARSE = 1
EXIT_HYPOTHESIS = 2
EXIT_NONE = 3
EXIT_VERIFY = 4
EXIT_INFEASIBLE = 5
EXIT_BUDGET = 6


def _load_graph(path):
    try:
        with open(path) as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        click.echo(f"cannot read {path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    except (InvalidArgument, CyclemodError, ValueError) as exc:
        click.echo(f"bad graph file {path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _emit(g, command, k, trace, extract):
    """Run extract() -> (family, certificate fields), with None for "the
    oracle found no family"; map its errors to exit codes, print the
    certificate, and exit 3 on a constructive gap."""
    from . import certify

    try:
        fam, fields = extract()
    except HypothesisNotMet as exc:
        click.echo(f"hypothesis not met: {exc}", err=True)
        sys.exit(EXIT_HYPOTHESIS)
    except BudgetExceeded as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        sys.exit(EXIT_BUDGET)
    except CyclemodError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    if fam is None:
        click.echo("oracle: no such family exists", err=True)
        sys.exit(EXIT_NONE)
    cert = certify.make_certificate(g, command, k, fam, trace=trace, **fields)
    click.echo(certify.to_json(cert), nl=False)
    if trace.constructive_gap:
        click.echo("constructive gap: oracle fallback was needed", err=True)
        sys.exit(EXIT_NONE)


@contextmanager
def _usage_errors_exit_parse():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_PARSE
        raise


class _Cli(click.Group):
    """click exits 2 on a usage error (bad value, missing or unknown option,
    unknown command), and 2 means "hypothesis not met" here.  Such errors
    arise while the group parses its own arguments or while it resolves
    and parses a subcommand; both exit EXIT_PARSE, with click's message on
    stderr."""

    def make_context(self, *args, **kwargs):
        with _usage_errors_exit_parse():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors_exit_parse():
            return super().invoke(ctx)


@click.group(cls=_Cli)
def main():
    """Constructive extraction of path/cycle families with controlled
    length patterns."""


@main.command("paths")
@click.option("--graph", "graph_file", required=True, type=click.Path())
@click.option("--x", required=True, type=int)
@click.option("--y", required=True, type=int)
@click.option("--k", required=True, type=int)
@click.option("--mode", type=click.Choice(["length", "flex"]), default="length")
@click.option("--oracle", is_flag=True, help="use the exhaustive oracle instead")
def paths_cmd(graph_file, x, y, k, mode, oracle):
    """k (x, y)-paths satisfying the length (or, with --mode flex, length
    or semi-length) condition; prints a certificate."""
    from .paths import ExtractionTrace, find_paths_flex, find_paths_length, oracle_paths

    g = _load_graph(graph_file)
    trace = ExtractionTrace()

    def extract():
        if oracle:
            fam = oracle_paths(g, x, y, k, flex=(mode == "flex"))
        elif mode == "length":
            fam = find_paths_length(g, x, y, k, trace=trace)
        else:
            fam = find_paths_flex(g, x, y, k, trace=trace)
        return fam, {"x": x, "y": y}

    _emit(g, "paths", k, trace, extract)


@main.command("cycles")
@click.option("--graph", "graph_file", required=True, type=click.Path())
@click.option("--k", required=True, type=int)
@click.option("--mod", "with_mod", is_flag=True,
              help="also emit a residue map modulo k (odd k only)")
@click.option("--oracle", is_flag=True, help="use the exhaustive oracle instead")
def cycles_cmd(graph_file, k, with_mod, oracle):
    """k cycles of consecutive lengths or satisfying the length condition;
    prints a certificate."""
    from .cycles import branch_of, find_k_cycles, oracle_cycles, residue_map
    from .paths import ExtractionTrace

    g = _load_graph(graph_file)
    if k < 1:
        click.echo("bad k", err=True)
        sys.exit(EXIT_PARSE)
    if with_mod and k % 2 == 0:
        click.echo("residue coverage needs odd k", err=True)
        sys.exit(EXIT_HYPOTHESIS)
    trace = ExtractionTrace()

    def extract():
        if oracle:
            fam = oracle_cycles(g, k)
            if fam is None:
                return None, {}
            branch = branch_of(g)
        else:
            fam, branch = find_k_cycles(g, k, trace=trace)
        residues = residue_map(fam, k) if with_mod else None
        return fam, {"branch": branch, "residues": residues}

    _emit(g, "cycles", k, trace, extract)


@main.command("verify")
@click.option("--cert", "cert_file", required=True, type=click.Path())
def verify_cmd(cert_file):
    """Independently re-check a certificate."""
    from . import certify

    try:
        with open(cert_file) as fh:
            cert = certify.from_json(fh.read())
    except OSError as exc:
        click.echo(f"cannot read {cert_file}: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    except (ValueError, InvalidArgument) as exc:
        click.echo(f"bad certificate: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    ok, reason = certify.verify(cert)
    if ok:
        click.echo("OK")
    else:
        click.echo(f"FAIL: {reason}")
        sys.exit(EXIT_VERIFY)


@main.command("gen")
@click.option("--n", required=True, type=int)
@click.option("--mindeg", required=True, type=int)
@click.option("--conn", type=click.Choice(["2", "3"]), default="2")
@click.option("--bipartite", is_flag=True)
@click.option("--seed", type=int, default=0)
def gen_cmd(n, mindeg, conn, bipartite, seed):
    """Generate a random graph with the requested properties."""
    from .generate import GenSpec, generate

    try:
        spec = GenSpec(n=n, min_degree=mindeg, connectivity=int(conn),
                       bipartite=bipartite, seed=seed)
        g = generate(spec)
    except InvalidArgument as exc:
        click.echo(f"bad generation spec: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    except GenerationInfeasible as exc:
        click.echo(f"infeasible: {exc}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    click.echo(format_graph(g), nl=False)


@main.command("sweep")
@click.option("--nmax", required=True, type=int)
@click.option("--kmax", type=int, default=None)
@click.option("--exhaustive", is_flag=True)
@click.option("--samples", type=int, default=None)
def sweep_cmd(nmax, kmax, exhaustive, samples):
    """Run the cycle extractor across many instances and report pass/fail
    and constructive-gap counts per (n, k, branch)."""
    from .cycles import branch_of, find_k_cycles
    from .generate import GenSpec, generate
    from .paths import ExtractionTrace
    from .smallgraphs import two_connected_graphs

    if exhaustive == (samples is not None):
        click.echo("choose exactly one of --exhaustive / --samples", err=True)
        sys.exit(EXIT_PARSE)
    instances = []
    if exhaustive:
        if nmax > 7:
            click.echo("exhaustive enumeration is available up to n = 7", err=True)
            sys.exit(EXIT_PARSE)
        for n in range(3, nmax + 1):
            instances.extend(two_connected_graphs(n))
    else:
        seed = 0
        while len(instances) < samples:
            n = 3 + seed % max(1, nmax - 2)
            d = 2 + seed % max(1, n - 2)
            try:
                g = generate(GenSpec(n=n, min_degree=d, seed=seed))
            except GenerationInfeasible:
                seed += 1
                continue
            instances.append(g)
            seed += 1
    report = {}
    fails = gaps = total = 0
    budget_hit = False
    for g in instances:
        top = g.min_degree() - 1
        if kmax is not None:
            top = min(top, kmax)
        branch = branch_of(g)
        for k in range(1, top + 1):
            total += 1
            trace = ExtractionTrace()
            key = (g.n, k, branch)
            row = report.setdefault(key, [0, 0, 0])  # pass, fail, gap
            try:
                find_k_cycles(g, k, trace=trace)
            except BudgetExceeded:
                budget_hit = True
                row[1] += 1
                fails += 1
                continue
            except CyclemodError:
                row[1] += 1
                fails += 1
                continue
            if trace.constructive_gap:
                row[2] += 1
                gaps += 1
            row[0] += 1
    click.echo("n k branch pass fail gap")
    for (n, k, br), (p, f, gp) in sorted(report.items()):
        click.echo(f"{n} {k} {br} {p} {f} {gp}")
    rate = gaps / total if total else 0.0
    click.echo(f"total {total} fails {fails} gaps {gaps} gap_rate {rate:.4f}")
    if budget_hit:
        sys.exit(EXIT_BUDGET)
    if fails:
        sys.exit(EXIT_VERIFY)
    if gaps:
        sys.exit(EXIT_NONE)


if __name__ == "__main__":
    main()

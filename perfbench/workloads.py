"""Request corpora of the three benchmark workloads, and the code that
issues one library request.

A corpus is one pass of the closed loop: a list of requests whose inputs
come from the workload seed.  Every request meets the hypothesis of the
call it makes.  The two pinned `oracle` requests fail all the same: they
exhaust the default search budget, and they stay in so that the failure
shows in the figures.

The package is called through its modules (``paths.find_paths_length``,
not an imported name) so that the tracing wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import cyclemod.generate as generation
from cyclemod import certify, cycles, paths
from cyclemod.errors import (
    BudgetExceeded,
    CyclemodError,
    GenerationInfeasible,
    HypothesisNotMet,
)
from cyclemod.graph import Graph, complete_bipartite, complete_graph

WORKLOADS = ("engine", "oracle", "cli")

# Requests answered by the constructive entry points; the other ops call an
# oracle directly (or, for "verify", the CLI's certificate check).
CONSTRUCTIVE = ("paths-length", "paths-flex", "cycles")

SEED_SPACE = 2**31
GEN_TRIES = 20


class NoFamily(Exception):
    """An oracle call found no family (the CLI's "nothing found" exit)."""


@dataclass(frozen=True)
class Request:
    """One public call.  `op` names the entry point; `mod` asks a cycles
    request for its residue map; `source` is, for a CLI `verify` request,
    the corpus index of the request whose certificate it checks."""

    op: str
    graph: Graph | None = None
    k: int = 0
    x: int | None = None
    y: int | None = None
    mod: bool = False
    source: int | None = None

    @property
    def command(self):
        return "paths" if "paths" in self.op else "cycles"


# -- inputs -------------------------------------------------------------------
#
# The graph shapes of a workload come from a fixed seed; the workload seed
# relabels every vertex (roots included) and orders the pass.  So each seed
# gives the program new inputs with the same mix of search costs, and a
# run's figures do not hinge on which random graphs one seed happened to draw.


def _gen(shapes, n, d, **props):
    """A seeded `generate` graph; an infeasible draw is redrawn."""
    for _ in range(GEN_TRIES):
        spec = generation.GenSpec(n=n, min_degree=d, seed=shapes.randrange(SEED_SPACE), **props)
        try:
            return generation.generate(spec)
        except GenerationInfeasible:
            continue
    raise GenerationInfeasible(f"no graph for n={n}, min degree {d}, {props}")


def _request(rng, op, g, k, roots=(None, None), **kw):
    """A request on g with its vertices, roots included, relabelled by rng."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    x, y = (None if r is None else perm[r] for r in roots)
    return Request(op, h, k, x, y, **kw)


def _roots(shapes, g):
    return tuple(shapes.sample(range(g.n), 2))


def circulant(n, steps):
    return Graph(n, [(i, (i + s) % n) for i in range(n) for s in steps])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def glued_pair(shapes, na, nb, d):
    """Two generated blocks sharing vertices 0 and 1: 2-connected but not
    3-connected, with minimum degree >= d."""
    a = _gen(shapes, na, d)
    b = _gen(shapes, nb, d)
    off = a.n - 2

    def lift(v):
        return v if v < 2 else v + off

    edges = set(a.edges()) | {(lift(u), lift(v)) for u, v in b.edges()}
    return Graph(a.n + b.n - 2, sorted(edges))


def _streams(workload, seed):
    return random.Random(f"{workload}/shapes"), random.Random(f"{workload}/{seed}")


# -- corpora ------------------------------------------------------------------


def engine(seed, tiny=False):
    """Constructive branches: rooted path requests, branch-I cycle requests
    on blocks glued at a 2-cut, branch-II cycle requests on 3-connected
    graphs and on circulants C_n(1, 4)."""
    shapes, rng = _streams("engine", seed)
    reqs = []
    copies = 1 if tiny else 3
    for n in (8,) if tiny else range(12, 23):
        k = 2 + n % 2
        for op, d in (("paths-length", 2 * k), ("paths-flex", 2 * k - 1)):
            g = _gen(shapes, n, d)
            reqs.append(_request(rng, op, g, k, _roots(shapes, g)))
    for na, nb in ((6, 6),) if tiny else ((8, 8), (9, 11), (12, 12), (13, 13)):
        for k in (2, 3, 4):
            for _ in range(copies):
                reqs.append(_request(rng, "cycles", glued_pair(shapes, na, nb, k + 1), k))
    for n in (8,) if tiny else (12, 14, 16, 18):
        for k in (2, 3, 4):
            for _ in range(copies):
                g = _gen(shapes, n, max(4, k + 1), connectivity=3)
                reqs.append(_request(rng, "cycles", g, k))
    for n in (11,) if tiny else (11, 13, 15, 17, 19, 21):
        for k in (2, 3):
            reqs.append(_request(rng, "cycles", circulant(n, (1, 4)), k))
    rng.shuffle(reqs)
    return reqs


def pinned_oracle_failures():
    """Requests that meet their hypothesis but exceed the default budget of
    10**7 search nodes: the cycle spectrum of a branch-III
    graph at n = 16, and the k = 1 spectrum at n = 12.  Kept as generated."""
    spec = generation.GenSpec
    return [
        Request("cycles", generation.generate(spec(n=16, min_degree=4, connectivity=3,
                                                   bipartite=True, seed=1)), 3),
        Request("cycles", generation.generate(spec(n=12, min_degree=4, seed=0)), 1),
    ]


def oracle(seed, tiny=False):
    """Exhaustive layer: branch-III cycle requests, k = 1 cycle requests
    (the whole spectrum), oracle path requests and the dense spectrum
    instances K8, K9, K5,5 and C12^2, plus the pinned failures."""
    shapes, rng = _streams("oracle", seed)
    dense = [(complete_graph(8), 6), (complete_graph(9), 7),
             (complete_bipartite(5, 5), 4), (circulant(12, (1, 2)), 3)]
    pool = []
    for _ in range(1 if tiny else 10):
        for n in (10,) if tiny else (10, 11, 12, 14):
            g = _gen(shapes, n, 4, connectivity=3, bipartite=True)
            pool.append(_request(rng, "cycles", g, 2 + n % 2))
        for n in (8,) if tiny else (8, 9, 10):
            for d in (3, 4):
                pool.append(_request(rng, "cycles", _gen(shapes, n, d), 1))
        for n in (8,) if tiny else (9, 10, 11):
            for op, d in (("oracle-paths-length", 4), ("oracle-paths-flex", 3)):
                g = _gen(shapes, n, d)
                pool.append(_request(rng, op, g, 2, _roots(shapes, g)))
        for g, k in dense[2:] if tiny else dense:
            pool.append(_request(rng, "oracle-cycles", g, k))
    rng.shuffle(pool)
    if tiny:
        return pool
    # The pinned requests split the pass in thirds, so that the other
    # requests' samples span the whole run rather than its first half.
    first, second = pinned_oracle_failures()
    third = len(pool) // 3
    return pool[:third] + [first] + pool[third:2 * third] + [second] + pool[2 * third:]


def cli(seed, tiny=False):
    """One `cyclemod` process per request on small graphs: `cycles` with and
    without --mod, `paths` in both modes, and `verify` of a certificate
    emitted earlier in the same pass."""
    shapes, rng = _streams("cli", seed)
    k5, pet = complete_graph(5), petersen()
    reqs = []
    for _ in range(1 if tiny else 10):
        dense = _gen(shapes, shapes.randint(8, 10), 4)
        sparse = _gen(shapes, shapes.randint(8, 10), 3)
        emits = [
            _request(rng, "cycles", k5, 3),
            _request(rng, "cycles", dense, 3, mod=True),
            _request(rng, "cycles", pet, 2),
            _request(rng, "cycles", k5, 3, mod=True),
            _request(rng, "paths-length", k5, 2, (0, 1)),
            _request(rng, "paths-flex", pet, 2, _roots(shapes, pet)),
            _request(rng, "paths-length", dense, 2, _roots(shapes, dense)),
            _request(rng, "paths-flex", sparse, 2, _roots(shapes, sparse)),
        ]
        rng.shuffle(emits)
        if tiny:
            emits = emits[:2]
        for i, req in enumerate(emits):
            reqs.append(req)
            if i % 4 == 1:
                reqs.append(Request("verify", source=len(reqs) - 1))
    return reqs


def build(workload, seed, tiny=False):
    return {"engine": engine, "oracle": oracle, "cli": cli}[workload](seed, tiny)


# -- issuing and checking ------------------------------------------------------


def call(req):
    """One library request: the public call plus its certificate, as the
    CLI would print it.  Returns the certificate text."""
    g, k = req.graph, req.k
    trace = paths.ExtractionTrace()
    branch = residues = None
    if req.op == "paths-length":
        fam = paths.find_paths_length(g, req.x, req.y, k, trace=trace)
    elif req.op == "paths-flex":
        fam = paths.find_paths_flex(g, req.x, req.y, k, trace=trace)
    elif req.op == "cycles":
        fam, branch = cycles.find_k_cycles(g, k, trace=trace)
    elif req.op in ("oracle-paths-length", "oracle-paths-flex"):
        fam = paths.oracle_paths(g, req.x, req.y, k, flex=req.op.endswith("flex"))
    elif req.op == "oracle-cycles":
        fam = cycles.oracle_cycles(g, k)
        branch = cycles.branch_of(g) if fam is not None else None
    else:
        raise ValueError(f"not a library request: {req.op}")
    if fam is None:
        raise NoFamily(f"{req.op}: no such family exists")
    if req.command == "paths":
        cert = certify.make_certificate(g, "paths", k, fam, x=req.x, y=req.y, trace=trace)
    else:
        if req.mod:
            residues = cycles.residue_map(fam, k)
        cert = certify.make_certificate(g, "cycles", k, fam, branch=branch,
                                        residues=residues, trace=trace)
    return certify.to_json(cert)


def failure_kind(exc):
    """Failure class of an exception raised by a request."""
    if isinstance(exc, (BudgetExceeded, HypothesisNotMet)):
        return type(exc).__name__
    if isinstance(exc, CyclemodError):
        return "CyclemodError"
    if isinstance(exc, NoFamily):
        return "NoFamily"
    return "crash"


def check(req, text):
    """None if `text` is a certificate that passes certify.verify and answers
    `req` (same command, graph, k and roots); otherwise the reason."""
    try:
        cert = certify.from_json(text)
    except (ValueError, CyclemodError) as exc:
        return f"unreadable certificate: {exc}"
    ok, reason = certify.verify(cert)
    if not ok:
        return reason
    g = req.graph
    want = {
        "command": req.command,
        "k": req.k,
        "graph": {"n": g.n, "edges": [list(e) for e in g.edges()]},
    }
    if req.command == "paths":
        want.update(x=req.x, y=req.y)
    for key, value in want.items():
        if cert.get(key) != value:
            return f"certificate {key} does not match the request"
    if req.mod and cert.get("residues") is None:
        return "residue map missing"
    return None


def certificate_facts(text):
    """(constructive gap flag, branch) recorded in a certificate."""
    cert = json.loads(text)
    return bool(cert["trace"]["constructive_gap"]), cert.get("branch")

"""Layer tracing from outside the program.

`installed(tracer)` replaces each traced cyclemod function, in every
cyclemod module that holds it (``paths.find_core``, ``cycles._engine``...),
by a wrapper that records a span, and puts the originals back on exit.
A span has a name, a start, an end and a parent: the span that was open
when it began.  Spans are folded into per-name aggregates as they close:
calls, calls per parent, inclusive time of the outermost span of a name,
and self time (the span minus its child spans).  The DFS kernels of the
oracle are wrapped only to add up the node count they return.

Everything here is standard library, so the CLI child can import it
before cyclemod without changing what `-X importtime` reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

SPANS = {
    "core": ("find_core",),
    "decompose": (
        "block_cut_tree",
        "cut_vertices",
        "is_2_connected",
        "is_rooted_2_connected",
        "vertex_connectivity_at_least",
        "find_2_separation",
        "feasible_end_blocks",
    ),
    "paths": ("find_paths_length", "find_paths_flex", "oracle_paths", "_engine"),
    "cycles": ("find_k_cycles", "oracle_cycles", "branch_of", "find_nonsep_induced_odd_cycle"),
    "oraclekern": (
        "cycle_length_set",
        "path_length_set",
        "find_cycle_with_length",
        "find_path_with_length",
    ),
    "families": ("validate_path_family", "validate_cycle_family"),
    "certify": ("make_certificate", "to_json", "verify"),
    "graph": ("parse_graph", "induced", "contract_set"),
    "generate": ("generate",),
}
# Kernels returning (mask, nodes, truncated); the numba pair exists only
# when numba is importable.
KERNELS = ("_path_lengths_py", "_cycle_lengths_py", "_path_lengths_nb", "_cycle_lengths_nb")


class Tracer:
    """Span aggregates of one traced process."""

    def __init__(self):
        self.calls = Counter()
        self.nested = Counter()  # "name<parent" -> calls
        self.self_s = Counter()
        self.incl_s = Counter()
        self.raised = Counter()  # "name!ExceptionType" -> count
        self.max_depth = Counter()
        self.dfs_nodes = 0
        self._open = Counter()
        self._stack = []  # [name, seconds covered by child spans]

    def span(self, name, fn):
        """fn wrapped so that each call records a span called `name`."""
        stack, opened = self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            opened[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.raised[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                took = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                self.self_s[name] += took - frame[1]
                if opened[name] > self.max_depth[name]:
                    self.max_depth[name] = opened[name]
                if opened[name] == 1:
                    self.incl_s[name] += took
                opened[name] -= 1
                self.calls[name] += 1
                self.nested[f"{name}<{parent}"] += 1

        return traced

    def count_nodes(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.dfs_nodes += int(result[1])
            return result

        return counted

    def summary(self):
        """The aggregates as one JSON-ready dict."""
        return {
            "calls": dict(self.calls),
            "nested": dict(self.nested),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "raised": dict(self.raised),
            "max_depth": dict(self.max_depth),
            "dfs_nodes": self.dfs_nodes,
        }

    def absorb(self, summary):
        """Add the aggregates of another process's summary."""
        for key in ("calls", "nested", "self_s", "incl_s", "raised"):
            getattr(self, key).update(summary.get(key, {}))
        for name, depth in summary.get("max_depth", {}).items():
            self.max_depth[name] = max(self.max_depth[name], depth)
        self.dfs_nodes += summary.get("dfs_nodes", 0)


def cyclemod_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "cyclemod" or name.startswith("cyclemod.")]


@contextmanager
def installed(tracer):
    """Trace every function in SPANS and KERNELS while the block runs."""
    wrappers = {}  # id(original) -> (original, wrapper)
    for mod, names in SPANS.items():
        module = importlib.import_module(f"cyclemod.{mod}")
        for attr in names:
            fn = getattr(module, attr)
            wrappers[id(fn)] = (fn, tracer.span(f"{mod}.{attr}", fn))
    kern = sys.modules["cyclemod.oraclekern"]
    for attr in KERNELS:
        fn = getattr(kern, attr, None)
        if fn is not None:
            wrappers[id(fn)] = (fn, tracer.count_nodes(fn))
    patched = []
    try:
        for module in cyclemod_modules():
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        yield tracer
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)


def _sum(counter, prefix):
    return sum(v for k, v in counter.items() if k.startswith(prefix))


def layer_metrics(tracer, request_s):
    """Per-layer metrics from the aggregates; `request_s` is the wall time
    of the traced requests, the base of every share.  Times are self times
    in milliseconds, summed over the traced pass."""
    ms = {k: v * 1000 for k, v in tracer.self_s.items()}
    base = request_s * 1000 or 1.0
    kernels = [f"oraclekern.{n}" for n in SPANS["oraclekern"]]
    return {
        "core.find_core.calls": tracer.calls["core.find_core"],
        "core.find_core.ms": ms.get("core.find_core", 0.0),
        "core.find_core.share": ms.get("core.find_core", 0.0) / base,
        "decompose.is_rooted_2_connected.ms": ms.get("decompose.is_rooted_2_connected", 0.0),
        "decompose.vertex_connectivity_at_least.ms":
            ms.get("decompose.vertex_connectivity_at_least", 0.0),
        "decompose.block_cut_tree.calls": tracer.calls["decompose.block_cut_tree"],
        "decompose.share": _sum(ms, "decompose.") / base,
        "paths.engine_calls": tracer.calls["paths._engine"],
        "paths.engine_max_depth": tracer.max_depth["paths._engine"],
        "paths.oracle_fallbacks": tracer.nested["paths.oracle_paths<paths._engine"],
        "cycles.find_nonsep_induced_odd_cycle.ms":
            ms.get("cycles.find_nonsep_induced_odd_cycle", 0.0),
        "cycles.branch_of.ms": ms.get("cycles.branch_of", 0.0),
        "oraclekern.cycle_length_set.ms": ms.get("oraclekern.cycle_length_set", 0.0),
        "oraclekern.path_length_set.ms": ms.get("oraclekern.path_length_set", 0.0),
        "oraclekern.find_cycle_with_length.ms": ms.get("oraclekern.find_cycle_with_length", 0.0),
        "oraclekern.find_path_with_length.ms": ms.get("oraclekern.find_path_with_length", 0.0),
        "oraclekern.dfs_nodes": tracer.dfs_nodes,
        "oraclekern.budget_exceeded": sum(tracer.raised[f"{k}!BudgetExceeded"] for k in kernels),
        "oraclekern.share": _sum(ms, "oraclekern.") / base,
        "families.validate.ms": _sum(ms, "families.validate_"),
        "certify.emit_ms": ms.get("certify.make_certificate", 0.0) + ms.get("certify.to_json", 0.0),
        "certify.verify_ms": ms.get("certify.verify", 0.0),
        "graph.parse_ms": ms.get("graph.parse_graph", 0.0),
        "graph.subgraph_calls": tracer.calls["graph.induced"] + tracer.calls["graph.contract_set"],
    }

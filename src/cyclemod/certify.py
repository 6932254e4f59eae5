"""Self-contained extraction certificates.

A certificate embeds everything a verifier needs: the graph, the request
(command, k, endpoints), the witness family with its declared class, and
optionally a residue map.  Verification re-checks every member against
the embedded graph and re-derives the classification; it never consults
the extractor.

Serialization is canonical JSON: sorted keys, sorted edge list, compact
separators — byte-identical output for identical content.
"""

from __future__ import annotations

import json

from . import __version__
from .errors import InvalidArgument
from .families import (
    CONSECUTIVE,
    LENGTH,
    SEMI,
    FamilyClass,
    class_holds,
    cycle_ok,
    path_ok,
)

COMMANDS = ("paths", "cycles")


def make_certificate(g, command, k, fam, branch=None, x=None, y=None,
                     residues=None, trace=None):
    """Certificate dict for one extraction result."""
    if command not in COMMANDS:
        raise InvalidArgument(f"unknown command {command!r}")
    cert = {
        "version": __version__,
        "command": command,
        "graph": {"n": g.n, "edges": [list(e) for e in g.edges()]},
        "k": k,
        "x": x,
        "y": y,
        "branch": branch,
        "class": {"kind": fam.cls.kind, "switch": fam.cls.switch},
        "family": [list(m) for m in fam.members],
        "residues": None,
        "trace": {
            "branches": list(trace.branches) if trace else [],
            "constructive_gap": bool(trace.constructive_gap) if trace else False,
        },
    }
    if residues is not None:
        cert["residues"] = {str(r): list(c) for r, c in sorted(residues.items())}
    return cert


def to_json(cert):
    return json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text):
    cert = json.loads(text)
    if not isinstance(cert, dict):
        raise InvalidArgument("certificate is not a JSON object")
    return cert


def _fail(reason):
    return False, reason


def _is_int(v):
    # JSON true/false load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


class _EdgeSet:
    """The graph queries of path_ok and cycle_ok (n and has_edge), answered
    from a certificate's edge set with no table per declared vertex."""

    __slots__ = ("n", "pairs")

    def __init__(self, n, pairs):
        self.n = n
        self.pairs = pairs  # (u, v) with u < v

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.pairs


def verify(cert):
    """(True, None) if the certificate checks out, else (False, reason)
    naming the first violated check."""
    for field in ("version", "command", "graph", "k", "class", "family"):
        if field not in cert:
            return _fail(f"missing field {field!r}")
    if cert["command"] not in COMMANDS:
        return _fail(f"unknown command {cert['command']!r}")

    gspec = cert["graph"]
    if not isinstance(gspec, dict) or "n" not in gspec or "edges" not in gspec:
        return _fail("malformed graph")
    n = gspec["n"]
    edges = gspec["edges"]
    if not _is_int(n) or n < 0:
        return _fail("bad vertex count")
    if not isinstance(edges, list):
        return _fail("malformed edge list")
    seen = set()
    for e in edges:
        if (not isinstance(e, list)) or len(e) != 2:
            return _fail(f"malformed edge {e!r}")
        u, v = e
        if not (_is_int(u) and _is_int(v) and 0 <= u < v < n):
            return _fail(f"bad edge {e!r}")
        if (u, v) in seen:
            return _fail(f"duplicate edge {e!r}")
        seen.add((u, v))
    # the cost follows the certificate's size, not its declared n
    g = _EdgeSet(n, seen)

    k = cert["k"]
    family = cert["family"]
    if not _is_int(k) or k < 1:
        return _fail("bad k")
    if not isinstance(family, list):
        return _fail("malformed family")
    if len(family) != k:
        return _fail(f"family size {len(family)} != k = {k}")

    is_cycles = cert["command"] == "cycles"
    for end in ("x", "y"):
        if cert.get(end) is None:
            # the roots are what tie the members of a paths family together
            if not is_cycles:
                return _fail(f"paths certificate without {end}")
        elif not _is_int(cert[end]):
            return _fail(f"bad {end}")
    members = []
    for m in family:
        if not isinstance(m, list) or not all(_is_int(v) for v in m):
            return _fail(f"malformed member {m!r}")
        members.append(tuple(m))
    for m in members:
        if is_cycles:
            if not cycle_ok(g, m):
                return _fail(f"member is not a cycle of the graph: {list(m)}")
        else:
            if not path_ok(g, m):
                return _fail(f"member is not a path of the graph: {list(m)}")
            if m[0] != cert["x"]:
                return _fail(f"member does not start at x: {list(m)}")
            if m[-1] != cert["y"]:
                return _fail(f"member does not end at y: {list(m)}")

    cls = cert["class"]
    if not isinstance(cls, dict) or "kind" not in cls:
        return _fail("malformed class")
    kind, switch = cls["kind"], cls.get("switch")
    if switch is not None and not _is_int(switch):
        return _fail("bad switch")
    if kind not in (LENGTH, SEMI, CONSECUTIVE):
        return _fail(f"unknown class kind {kind!r}")
    if is_cycles and kind == SEMI:
        return _fail("cycle families are never semi-length")
    lengths = [len(m) if is_cycles else len(m) - 1 for m in members]
    try:
        declared = FamilyClass(kind, switch)
    except InvalidArgument:
        return _fail("inconsistent class/switch")
    if not class_holds(lengths, declared):
        return _fail(f"declared class {kind!r} fails for lengths {lengths}")

    residues = cert.get("residues")
    if residues is not None:
        if not isinstance(residues, dict):
            return _fail("malformed residue map")
        if sorted(residues.keys()) != sorted(str(r) for r in range(k)):
            return _fail(f"residue keys are not exactly 0..{k - 1}")
        for key, m in residues.items():
            if not isinstance(m, list) or not all(_is_int(v) for v in m):
                return _fail(f"malformed residue witness {m!r}")
            m = tuple(m)
            if not cycle_ok(g, m):
                return _fail(f"residue witness is not a cycle: {list(m)}")
            if len(m) % k != int(key):
                return _fail(f"residue witness length {len(m)} != {key} mod {k}")
    return True, None

"""Length classification of path/cycle families and the arithmetic
row-schedule combinators that turn path families into cycle families.

Conditions on an ordered list of lengths (first length always >= 2):

* consecutive      — successive differences all 1
* length condition — successive differences all 2
* semi-length      — exactly one difference of 1 (at the "switch" index j,
  counted 1-based: len[j+1] - len[j] == 1), all others 2

``pattern`` writes each condition once, as the offsets of a family's
lengths from its first length; the class checks and the oracles' window
scan (``first_window``) read it.

A single-length list, and a 2-member list with difference 1, satisfy more
than one reading; ``classify`` resolves with the fixed priority
length > consecutive > semi-length, and callers that need the semi reading
of an ambiguous family use ``semi_switch`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgument, InvalidWitness

LENGTH = "length"
CONSECUTIVE = "consecutive"
SEMI = "semi"
UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class FamilyClass:
    kind: str
    switch: int | None = None  # only for SEMI

    def __post_init__(self):
        if self.kind == SEMI and self.switch is None:
            raise InvalidArgument("semi-length class needs a switch index")
        if self.kind != SEMI and self.switch is not None:
            raise InvalidArgument("only semi-length has a switch")


def pattern(cls, k):
    """Offsets of the k lengths of a family of class cls from its first
    length, or None when no k-member family has that class: 0, 1, .., k - 1
    (consecutive), 0, 2, .., 2k - 2 (length condition), or 2i, one less
    from the switch on (semi-length, 1 <= switch < k)."""
    if cls.kind == CONSECUTIVE:
        return range(k)
    if cls.kind == LENGTH:
        return range(0, 2 * k, 2)
    if cls.kind == SEMI and 1 <= cls.switch < k:
        return [2 * i - (i >= cls.switch) for i in range(k)]
    return None


def class_holds(lengths, cls):
    """Does the declared class hold for these lengths?  (A list may admit
    several readings; this checks the specific one, unlike classify.)"""
    lengths = list(lengths)
    if not lengths or lengths[0] < 2:
        return False
    offsets = pattern(cls, len(lengths))
    return offsets is not None and [lengths[0] + d for d in offsets] == lengths


def semi_switch(lengths):
    """Switch index if lengths fit the semi-length condition, else None."""
    return next(
        (j for j in range(1, len(lengths)) if class_holds(lengths, FamilyClass(SEMI, j))), None
    )


def classify(lengths):
    """FamilyClass of a length list, or FamilyClass(UNCLASSIFIED)."""
    lengths = list(lengths)
    if not lengths:
        raise InvalidArgument("classify needs a nonempty list")
    for kind in (LENGTH, CONSECUTIVE):
        if class_holds(lengths, FamilyClass(kind)):
            return FamilyClass(kind)
    sw = semi_switch(lengths)
    return FamilyClass(UNCLASSIFIED) if sw is None else FamilyClass(SEMI, sw)


def first_window(groups, k, lo, hi, fits):
    """The first (class, lengths) whose k lengths `fits` accepts, None if
    there is none.  A class cls with first length a has the lengths
    a + pattern(cls, k).  The groups of classes are scanned in order; within
    a group the first lengths lo..hi ascending, and at each first length
    the classes of the group in order."""
    for group in groups:
        offsets = [(cls, pattern(cls, k)) for cls in group]
        for a in range(lo, hi + 1):
            for cls, off in offsets:
                lengths = [a + d for d in off]
                if fits(lengths):
                    return cls, lengths
    return None


# -- witnesses -----------------------------------------------------------


def path_ok(g, seq):
    """seq is a simple path in g (>= 1 vertex)."""
    if not seq or len(seq) != len(set(seq)):
        return False
    if not all(0 <= v < g.n for v in seq):
        return False
    return all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))


def cycle_ok(g, seq):
    """seq (no repeated start) is a simple cycle in g of length >= 3."""
    return len(seq) >= 3 and path_ok(g, seq) and g.has_edge(seq[-1], seq[0])


def path_len(seq):
    return len(seq) - 1


def cycle_len(seq):
    return len(seq)


@dataclass(frozen=True)
class Family:
    """Ordered family of path witnesses (vertex tuples) or cycle witnesses
    (vertex tuples without the repeated start), plus its classification.

    Members are stored shortest-first / longest-last.  The one check that
    the member lengths admit the class: a family of any other class raises
    InvalidWitness when it is built; classify's UNCLASSIFIED reading is kept
    as given."""

    members: tuple
    cls: FamilyClass
    is_cycles: bool = False

    def __post_init__(self):
        if self.cls.kind != UNCLASSIFIED and not class_holds(self.lengths(), self.cls):
            raise InvalidWitness(f"lengths {self.lengths()} do not admit the reading {self.cls}")

    @property
    def k(self):
        return len(self.members)

    def lengths(self):
        f = cycle_len if self.is_cycles else path_len
        return [f(m) for m in self.members]


def make_path_family(members, cls):
    """Path family of the members in class cls, which Family checks."""
    return Family(tuple(tuple(m) for m in members), cls, False)


def make_cycle_family(members, cls):
    """Cycle family of the members in class cls, which Family checks."""
    return Family(tuple(tuple(m) for m in members), cls, True)


def _check_class(fam, allowed):
    """The declared class is one of `allowed`; that the lengths admit it,
    Family checked when the family was built."""
    if fam.cls.kind not in allowed:
        raise InvalidWitness(f"class {fam.cls.kind} not allowed here")
    return fam


def validate_path_family(g, fam, x=None, y=None, allowed=(LENGTH, SEMI, CONSECUTIVE)):
    """Every member a simple path in g (shared endpoints x, y when given),
    and the declared class is allowed.  Returns the family."""
    if fam.is_cycles:
        raise InvalidWitness("expected a path family")
    for m in fam.members:
        if not path_ok(g, m):
            raise InvalidWitness(f"not a path in the host graph: {m}")
        if x is not None and m[0] != x:
            raise InvalidWitness(f"member does not start at {x}: {m}")
        if y is not None and m[-1] != y:
            raise InvalidWitness(f"member does not end at {y}: {m}")
    return _check_class(fam, allowed)


def validate_cycle_family(g, fam):
    """Every member a simple cycle in g, of a length or consecutive class."""
    if not fam.is_cycles:
        raise InvalidWitness("expected a cycle family")
    for m in fam.members:
        if not cycle_ok(g, m):
            raise InvalidWitness(f"not a cycle in the host graph: {m}")
    return _check_class(fam, (LENGTH, CONSECUTIVE))


# -- path surgery helpers ------------------------------------------------


def join_paths(*segments):
    """Concatenate path segments that overlap in exactly their junction
    vertex: (a..b)(b..c)(c..d) -> a..d.  Raises on repeated vertices."""
    out = list(segments[0])
    for seg in segments[1:]:
        if not seg or seg[0] != out[-1]:
            raise InvalidWitness("segments do not share a junction vertex")
        out.extend(seg[1:])
    if len(out) != len(set(out)):
        raise InvalidWitness("joined segments repeat a vertex")
    return tuple(out)


def close_cycle(p, q):
    """Cycle from two (x, y)-paths meeting only at their endpoints."""
    if p[0] != q[0] or p[-1] != q[-1]:
        raise InvalidWitness("paths do not share endpoints")
    if set(p[1:-1]) & set(q[1:-1]):
        raise InvalidWitness("paths share an interior vertex")
    if len(p) < 2 or len(q) < 2 or (len(p) == 2 and len(q) == 2):
        raise InvalidWitness("degenerate cycle")
    return tuple(list(p) + list(reversed(q[1:-1])))


def reverse_family(fam):
    return Family(tuple(tuple(reversed(m)) for m in fam.members), fam.cls, fam.is_cycles)


# -- row schedules ---------------------------------------------------------


def length_rows(p, q):
    """Pairs (P1, Q1) .. (P1, Q_last), then (P2, Q_last) .. (P_last, Q_last).

    If P and Q both step by 2 and a row is as long as its two parts
    together, the |p| + |q| - 1 rows step by 2 as well.  With P[:2] the
    rows are Q's steps plus one more step at the long end.
    """
    return [(p[0], b) for b in q] + [(a, q[-1]) for a in p[1:]]


def semi_rows(p, ps, q, qs):
    """Pairs for two semi-length families with switches ps and qs: the
    length schedule below both switches, then the one above them.

    Five groups left to right (1-based):

        (P1, Qi)      i = 1..qs
        (Pi, Qqs)     i = 2..ps
        (Pps+1, Qqs+1)
        (Pps+1, Qi)   i = qs+2..|q|
        (Pi, Q_last)  i = ps+2..|p|

    The unit steps of P and Q fall in the gap between the two halves and
    cancel, so |p| + |q| - 2 rows step by 2.
    """
    return length_rows(p[:ps], q[:qs]) + length_rows(p[ps:], q[qs:])


# -- cycle-family combinators --------------------------------------------


def glue_two_sided_length(p_fam, q_fam):
    """Cycles from two length-condition path families over the same (x, y)
    on the two sides of a 2-cut: with |p| = l + phi and |q| = l, the
    length_rows schedule gives k = 2l - 1 + phi cycles satisfying the length
    condition.
    """
    if p_fam.cls.kind != LENGTH or q_fam.cls.kind != LENGTH:
        raise InvalidArgument("both sides must satisfy the length condition")
    rows = length_rows(p_fam.members, q_fam.members)
    return make_cycle_family([close_cycle(a, b) for a, b in rows], cls=FamilyClass(LENGTH))


def glue_two_sided_semilength(p_fam, q_fam):
    """Cycles from two semi-length families of l + 1 members each (the even-k
    case): the semi_rows schedule gives 2l cycles satisfying the length
    condition.
    """
    ps = p_fam.cls.switch if p_fam.cls.kind == SEMI else semi_switch(p_fam.lengths())
    qs = q_fam.cls.switch if q_fam.cls.kind == SEMI else semi_switch(q_fam.lengths())
    if ps is None or qs is None:
        raise InvalidArgument("both sides must satisfy the semi-length condition")
    if len(p_fam.members) != len(q_fam.members):
        raise InvalidArgument("sides must have equally many members (l + 1)")
    rows = semi_rows(p_fam.members, ps, q_fam.members, qs)
    return make_cycle_family([close_cycle(a, b) for a, b in rows], cls=FamilyClass(LENGTH))


def _arc(rot, i, j, forward):
    """Arc of the rotated cycle from position i to position j (inclusive),
    walking forward (increasing positions) or backward."""
    n = len(rot)
    out = [rot[i]]
    pos = i
    step = 1 if forward else -1
    while pos != j:
        pos = (pos + step) % n
        out.append(rot[pos])
    return tuple(out)


def odd_cycle_fan(rot, paths_fam, phi):
    """Consecutive-length cycles from an odd cycle C (|C| = 2m + 1), given
    as its rotation rot starting at u, plus a fan of (u, {u^{+m}, u^{-m}})-
    paths internally disjoint from V(C).

    Each path ends at an antipodal vertex v of u, reachable around C by a
    short arc Q (m edges) and a long arc R (m + 1 edges).  Length-condition
    fan (any phi): rows (Pi + Qi, Pi + Ri) for all i -> 2l cycles.
    Semi-length fan (phi = 0 only, switch j): pairs for i <= j, then only
    Pi + Ri at i = j + 1, then pairs again -> 2l - 1 cycles.
    """
    rot = tuple(rot)
    u = rot[0]
    m = (len(rot) - 1) // 2
    if len(rot) % 2 == 0 or m < 1:
        raise InvalidArgument("need an odd cycle of length >= 3")
    cls = paths_fam.cls
    if cls.kind == SEMI and phi == 1:
        raise InvalidArgument("semi-length fan only available when phi = 0")
    if cls.kind not in (LENGTH, SEMI):
        raise InvalidArgument("fan needs a length or semi-length family")
    cset = set(rot)
    rows = []
    for idx, pth in enumerate(paths_fam.members):
        if pth[0] != u or pth[-1] not in (rot[m], rot[m + 1]):
            raise InvalidWitness("fan member must run from u to an antipode of u")
        if set(pth[1:-1]) & cset:
            raise InvalidWitness("fan member not internally disjoint from the cycle")
        vpos = m if pth[-1] == rot[m] else m + 1
        # short arc (m edges) and long arc (m+1 edges) from the antipode back to u
        q_arc = _arc(rot, vpos, 0, forward=(vpos == m + 1))
        r_arc = _arc(rot, vpos, 0, forward=(vpos == m))
        short = tuple(pth) + q_arc[1:-1]
        long_ = tuple(pth) + r_arc[1:-1]
        sw = cls.switch if cls.kind == SEMI else None
        if sw is not None and idx == sw:  # idx is 0-based; member j+1 drops its short row
            rows.append(long_)
        else:
            rows.append(short)
            rows.append(long_)
    return make_cycle_family(rows, cls=FamilyClass(CONSECUTIVE))


def odd_cycle_x_fan(rot, x, paths_fam, l):
    """Consecutive-length cycles from an odd cycle C (|C| = 2m + 1, m >= 2),
    given as its rotation rot starting at u, a vertex x off C adjacent to
    both u+ and u-, and l - 1 length-condition (x, u^{+m})-paths internally
    disjoint from V(C) and x-free inside.

    Four return arcs from u^{+m}: to u+ short (m - 1), to u- short (m),
    to u- long (m + 1), to u+ long (m + 2); rows

        (Pi + short(u+) + u+x, Pi + short(u-) + u-x)   i = 1..l-1
        (Pl-1 + long(u-) + u-x, Pl-1 + long(u+) + u+x)

    give 2l consecutive-length cycles.
    """
    rot = tuple(rot)
    m = (len(rot) - 1) // 2
    if len(rot) % 2 == 0:
        raise InvalidArgument("need an odd cycle")
    if m < 2:
        raise InvalidArgument("need |C| >= 5 here")
    if paths_fam.cls.kind != LENGTH or len(paths_fam.members) != l - 1:
        raise InvalidArgument("need l - 1 paths satisfying the length condition")
    up, um = rot[1], rot[-1]          # u+ and u-
    apex = rot[m]                     # u^{+m}
    cset = set(rot)
    for pth in paths_fam.members:
        if pth[0] != x or pth[-1] != apex:
            raise InvalidWitness("member must run from x to the antipode u^{+m}")
        if set(pth[1:-1]) & (cset | {x}):
            raise InvalidWitness("member interior touches the cycle or x")
    # arcs from position m back toward u's neighbors
    a_up_short = _arc(rot, m, 1, forward=False)        # m - 1 edges
    a_um_short = _arc(rot, m, len(rot) - 1, forward=True)   # m edges
    a_um_long = _arc(rot, m, len(rot) - 1, forward=False)   # m + 1 edges
    a_up_long = _arc(rot, m, 1, forward=True)               # m + 2 edges
    rows = []
    for pth in paths_fam.members:
        rows.append(tuple(pth) + a_up_short[1:])
        rows.append(tuple(pth) + a_um_short[1:])
    last = paths_fam.members[-1]
    rows.append(tuple(last) + a_um_long[1:])
    rows.append(tuple(last) + a_up_long[1:])
    return make_cycle_family(rows, cls=FamilyClass(CONSECUTIVE))


def residues_mod_k(lengths, k):
    """(residue set of the lengths mod k, full-coverage flag)."""
    if k < 1:
        raise InvalidArgument("k must be positive")
    res = {length % k for length in lengths}
    return res, len(res) == k

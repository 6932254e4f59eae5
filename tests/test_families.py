"""Length-pattern classification and the row-schedule combinators."""

import itertools

import pytest
from hypothesis import given, strategies as st

from cyclemod.errors import InvalidArgument, InvalidWitness
from cyclemod.families import (
    CONSECUTIVE,
    LENGTH,
    SEMI,
    UNCLASSIFIED,
    Family,
    FamilyClass,
    class_holds,
    classify,
    close_cycle,
    glue_two_sided_length,
    glue_two_sided_semilength,
    join_paths,
    length_rows,
    make_cycle_family,
    make_path_family,
    odd_cycle_fan,
    odd_cycle_x_fan,
    residues_mod_k,
    semi_rows,
    semi_switch,
    validate_cycle_family,
    validate_path_family,
)
from cyclemod.graph import complete_graph, cycle_graph


def fab_paths(lengths, x=0, y=1, start=100):
    """Abstract (x, y)-paths with the given lengths and fresh interiors."""
    members, nxt = [], start
    for length in lengths:
        inner = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        members.append(tuple([x] + inner + [y]))
    return members


def length_lengths(k, a=2):
    return [a + 2 * i for i in range(k)]


def semi_lengths(k, j, a=2):
    """Semi-length pattern with the switch after member j (1-based)."""
    return [a + 2 * i if i < j else a + 2 * i - 1 for i in range(k)]


# -- classification ----------------------------------------------------------


def test_classify_basics():
    assert classify([2, 4, 6]) == FamilyClass(LENGTH)
    assert classify([3, 4, 5]) == FamilyClass(CONSECUTIVE)
    assert classify([2, 4, 5, 7]) == FamilyClass(SEMI, 2)
    assert classify([2, 3, 5]) == FamilyClass(SEMI, 1)
    assert classify([5]) == FamilyClass(LENGTH)          # priority: length first
    assert classify([4, 5]) == FamilyClass(CONSECUTIVE)  # then consecutive
    assert classify([2, 5]).kind == "unclassified"


def test_semi_switch():
    assert semi_switch(semi_lengths(4, 2)) == 2
    assert semi_switch([2, 4, 6]) is None


def test_class_holds():
    assert class_holds([2, 4, 6], FamilyClass(LENGTH))
    assert not class_holds([2, 4, 7], FamilyClass(LENGTH))
    assert class_holds(semi_lengths(3, 1), FamilyClass(SEMI, 1))
    assert not class_holds(semi_lengths(3, 1), FamilyClass(SEMI, 2))


@given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 10))
def test_length_condition_is_shift_invariant(k, a, c):
    lengths = [a + 2 * i for i in range(k)]
    shifted = [length + c for length in lengths]
    assert class_holds(shifted, FamilyClass(LENGTH))


@given(st.integers(2, 6), st.integers(2, 5), st.integers(0, 10), st.data())
def test_semi_condition_is_shift_invariant(k, a, c, data):
    j = data.draw(st.integers(1, k - 1))
    shifted = [length + c for length in semi_lengths(k, j, a)]
    assert class_holds(shifted, FamilyClass(SEMI, j))



# The difference-based rules the pattern-based ones replaced, kept as the
# reference they must match.

def _ref_semi_switch(lengths):
    if not lengths or lengths[0] < 2:
        return None
    diffs = [b - a for a, b in zip(lengths, lengths[1:])]
    ones = [i for i, d in enumerate(diffs) if d == 1]
    if len(ones) == 1 and all(d == 2 for i, d in enumerate(diffs) if i != ones[0]):
        return ones[0] + 1
    return None


def _ref_classify(lengths):
    if lengths[0] < 2:
        return FamilyClass(UNCLASSIFIED)
    diffs = [b - a for a, b in zip(lengths, lengths[1:])]
    if all(d == 2 for d in diffs):
        return FamilyClass(LENGTH)
    if all(d == 1 for d in diffs):
        return FamilyClass(CONSECUTIVE)
    sw = _ref_semi_switch(lengths)
    return FamilyClass(UNCLASSIFIED) if sw is None else FamilyClass(SEMI, sw)


def _ref_class_holds(lengths, cls):
    if not lengths or lengths[0] < 2:
        return False
    diffs = [b - a for a, b in zip(lengths, lengths[1:])]
    if cls.kind == LENGTH:
        return all(d == 2 for d in diffs)
    if cls.kind == CONSECUTIVE:
        return all(d == 1 for d in diffs)
    if cls.kind == SEMI:
        return _ref_semi_switch(lengths) == cls.switch
    return False


def test_pattern_rules_match_the_difference_rules():
    # every list of 1-6 lengths with first length 0-4 and steps 0-3
    classes = [FamilyClass(kind) for kind in (LENGTH, CONSECUTIVE, UNCLASSIFIED)]
    classes += [FamilyClass(SEMI, j) for j in range(-1, 8)]
    count = 0
    for k in range(1, 7):
        for first in range(5):
            for steps in itertools.product(range(4), repeat=k - 1):
                lengths = list(itertools.accumulate(steps, initial=first))
                count += 1
                assert classify(lengths) == _ref_classify(lengths), lengths
                assert semi_switch(lengths) == _ref_semi_switch(lengths), lengths
                for cls in classes:
                    holds = class_holds(lengths, cls)
                    assert holds == _ref_class_holds(lengths, cls), (lengths, cls)
                    # certify.verify rejects a forged switch through this
                    if cls.kind == SEMI and not 0 < cls.switch < k:
                        assert not holds, (lengths, cls)
    assert count == 6825


def test_a_family_whose_lengths_miss_its_class_is_not_built():
    with pytest.raises(InvalidWitness, match=r"^lengths \[2, 3\] do not admit the reading"):
        Family(((0, 1, 2), (0, 3, 4, 2)), FamilyClass(LENGTH))


# -- path surgery ------------------------------------------------------------


def test_join_paths():
    assert join_paths((0, 2, 3), (3, 4, 1)) == (0, 2, 3, 4, 1)
    with pytest.raises(InvalidWitness):
        join_paths((0, 2), (3, 1))  # no shared junction
    with pytest.raises(InvalidWitness):
        join_paths((0, 2, 3), (3, 2, 1))  # repeats 2


def test_close_cycle():
    assert close_cycle((0, 2, 1), (0, 3, 1)) == (0, 2, 1, 3)
    with pytest.raises(InvalidWitness):
        close_cycle((0, 2, 1), (0, 2, 1))
    with pytest.raises(InvalidWitness):
        close_cycle((0, 1), (0, 1))


# -- table combinators (row-schedule arithmetic, all l <= 5) -----------------


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("phi", [0, 1])
def test_two_sided_length_glue_counts(l, phi):
    p = make_path_family(fab_paths(length_lengths(l + phi, a=2), start=100), cls=FamilyClass(LENGTH))
    q = make_path_family(fab_paths(length_lengths(l, a=3), start=500), cls=FamilyClass(LENGTH))
    fam = glue_two_sided_length(p, q)
    assert fam.is_cycles and fam.cls.kind == LENGTH
    assert fam.k == l + (l + phi) - 1


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_two_sided_semilength_glue_counts(l):
    for sp in range(1, l + 1):
        for sq in range(1, l + 1):
            p = make_path_family(fab_paths(semi_lengths(l + 1, sp, a=2), start=100),
                                 cls=FamilyClass(SEMI, sp))
            q = make_path_family(fab_paths(semi_lengths(l + 1, sq, a=3), start=500),
                                 cls=FamilyClass(SEMI, sq))
            fam = glue_two_sided_semilength(p, q)
            assert fam.is_cycles and fam.cls.kind == LENGTH
            assert fam.k == 2 * l


# Reference copies of the row lists the construction sites used to write
# out by hand, kept to pin the shared schedules to them.


def old_two_sided_length_rows(p, q):
    rows = [(p[0], q[i]) for i in range(len(q))]
    rows += [(p[i], q[-1]) for i in range(1, len(p))]
    return rows


def old_cross_concat_rows(p, q):
    return [(p[0], b) for b in q] + [(p[1], q[-1])]


def old_two_sided_semi_rows(p, ps, q, qs):
    l = len(p) - 1
    rows = [(p[0], q[i - 1]) for i in range(1, qs + 1)]
    rows += [(p[i - 1], q[qs - 1]) for i in range(2, ps + 1)]
    rows += [(p[ps], q[qs])]
    rows += [(p[ps], q[i - 1]) for i in range(qs + 2, l + 2)]
    rows += [(p[i - 1], q[l]) for i in range(ps + 2, l + 2)]
    return rows


def old_double_semi_rows(p, q, w, r):
    l = len(p)
    rows = [(p[0], w[i - 1]) for i in range(1, r + 1)]
    rows += [(p[i - 1], w[r - 1]) for i in range(2, q + 1)]
    rows += [(p[q], w[r])]
    rows += [(p[q], w[i - 1]) for i in range(r + 2, l + 1)]
    rows += [(p[i - 1], w[l - 1]) for i in range(q + 2, l + 1)]
    return rows


SIDES = range(1, 7)


def test_length_rows_match_the_old_schedules():
    for np_, nq in itertools.product(SIDES, SIDES):
        p = [f"P{i}" for i in range(1, np_ + 1)]
        q = [f"Q{i}" for i in range(1, nq + 1)]
        assert length_rows(p, q) == old_two_sided_length_rows(p, q)
        if np_ >= 2:
            assert length_rows(p[:2], q) == old_cross_concat_rows(p, q)


def test_semi_rows_match_the_old_schedules():
    for n in SIDES:
        p = [f"P{i}" for i in range(1, n + 1)]
        q = [f"Q{i}" for i in range(1, n + 1)]
        for ps, qs in itertools.product(range(1, n), range(1, n)):
            rows = semi_rows(p, ps, q, qs)
            assert rows == old_two_sided_semi_rows(p, ps, q, qs)
            assert rows == old_double_semi_rows(p, ps, q, qs)
            assert len(rows) == 2 * n - 2


def fab_fan_paths(lengths, c, end, start=100):
    members, nxt = [], start
    for length in lengths:
        inner = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        members.append(tuple([c[0]] + inner + [end]))
    return members


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("phi", [0, 1])
def test_odd_cycle_fan_length_counts(l, phi):
    m = 3
    c = tuple(range(2 * m + 1))
    fam = make_path_family(fab_fan_paths(length_lengths(l, a=2), c, end=m), cls=FamilyClass(LENGTH))
    out = odd_cycle_fan(c, fam, phi)
    assert out.cls.kind == CONSECUTIVE
    assert out.k == 2 * l


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_odd_cycle_fan_semi_counts(l):
    m = 3
    c = tuple(range(2 * m + 1))
    for j in range(1, l):
        fam = make_path_family(fab_fan_paths(semi_lengths(l, j, a=2), c, end=m),
                               cls=FamilyClass(SEMI, j))
        out = odd_cycle_fan(c, fam, phi=0)
        assert out.cls.kind == CONSECUTIVE
        assert out.k == 2 * l - 1


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_odd_cycle_x_fan_counts(l):
    m = 3
    c = tuple(range(2 * m + 1))
    x = 99
    members, nxt = [], 100
    for length in length_lengths(l - 1, a=2):
        inner = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        members.append(tuple([x] + inner + [m]))
    fam = make_path_family(members, cls=FamilyClass(LENGTH))
    out = odd_cycle_x_fan(c, x, fam, l)
    assert out.cls.kind == CONSECUTIVE
    assert out.k == 2 * l


# -- residue coverage --------------------------------------------------------


def test_residues_mod_k():
    assert residues_mod_k([3, 4, 5], 3) == ({0, 1, 2}, True)
    assert residues_mod_k([4, 6, 8], 3) == ({0, 1, 2}, True)
    res, full = residues_mod_k([4, 6, 8], 5)
    assert not full and res == {4, 1, 3}


@given(st.integers(1, 4), st.integers(3, 12))
def test_length_condition_covers_residues_for_odd_k(i, a):
    k = 2 * i + 1
    lengths = [a + 2 * j for j in range(k)]
    _res, full = residues_mod_k(lengths, k)
    assert full


# -- rejections ----------------------------------------------------------------


K5, C5 = complete_graph(5), cycle_graph(5)
C7 = tuple(range(7))  # an odd cycle as its rotation from u = 0; antipodes 3, 4


def _paths(*members, cls=None):
    """A path family of the members in cls, or else in the class that
    classify reads off their lengths."""
    return make_path_family(members, cls=cls or classify([len(m) - 1 for m in members]))


@pytest.mark.parametrize("call, error, prefix", [
    (lambda: validate_path_family(K5, make_cycle_family([(0, 1, 2)], cls=FamilyClass(LENGTH))),
     InvalidWitness, "expected a path family"),
    (lambda: validate_path_family(C5, _paths((0, 2, 1))),
     InvalidWitness, "not a path in the host graph"),
    (lambda: validate_path_family(K5, _paths((0, 2, 1)), 3, 1),
     InvalidWitness, "member does not start at 3"),
    (lambda: validate_path_family(K5, _paths((0, 2, 1)), 0, 3),
     InvalidWitness, "member does not end at 3"),
    (lambda: validate_path_family(K5, _paths((0, 2, 1), (0, 2, 3, 1)), allowed=(LENGTH, SEMI)),
     InvalidWitness, "class consecutive not allowed here"),
    (lambda: validate_cycle_family(K5, _paths((0, 2, 1))),
     InvalidWitness, "expected a cycle family"),
    (lambda: validate_cycle_family(C5, make_cycle_family([(0, 1, 2)], cls=FamilyClass(LENGTH))),
     InvalidWitness, "not a cycle in the host graph"),
    (lambda: close_cycle((0, 2, 1), (0, 3, 4)),
     InvalidWitness, "paths do not share endpoints"),
    (lambda: glue_two_sided_length(_paths(*fab_paths([2, 3])), _paths(*fab_paths([3]))),
     InvalidArgument, "both sides must satisfy the length condition"),
    (lambda: glue_two_sided_semilength(_paths(*fab_paths([2, 4])), _paths(*fab_paths([2, 3]))),
     InvalidArgument, "both sides must satisfy the semi-length condition"),
    (lambda: glue_two_sided_semilength(_paths(*fab_paths([2, 4, 5])),
                                       _paths(*fab_paths([2, 3], start=500))),
     InvalidArgument, "sides must have equally many members"),
    (lambda: odd_cycle_fan((0, 1, 2, 3), _paths((0, 9, 2)), 0),
     InvalidArgument, "need an odd cycle of length >= 3"),
    (lambda: odd_cycle_fan(C7, _paths((0, 9, 3), (0, 10, 11, 3), cls=FamilyClass(SEMI, 1)), 1),
     InvalidArgument, "semi-length fan only available when phi = 0"),
    (lambda: odd_cycle_fan(C7, _paths((0, 9, 3), (0, 10, 11, 3)), 0),
     InvalidArgument, "fan needs a length or semi-length family"),
    (lambda: odd_cycle_fan(C7, _paths((0, 9, 2)), 0),
     InvalidWitness, "fan member must run from u to an antipode of u"),
    (lambda: odd_cycle_fan(C7, _paths((0, 1, 9, 3)), 0),
     InvalidWitness, "fan member not internally disjoint from the cycle"),
    (lambda: odd_cycle_x_fan((0, 1, 2, 3, 4, 5), 99, _paths((99, 9, 3)), 2),
     InvalidArgument, "need an odd cycle"),
    (lambda: odd_cycle_x_fan((0, 1, 2), 99, _paths((99, 9, 1)), 2),
     InvalidArgument, "need |C| >= 5 here"),
    (lambda: odd_cycle_x_fan(C7, 99, _paths((99, 9, 3)), 3),
     InvalidArgument, "need l - 1 paths satisfying the length condition"),
    (lambda: odd_cycle_x_fan(C7, 99, _paths((99, 9, 4)), 2),
     InvalidWitness, "member must run from x to the antipode"),
    (lambda: odd_cycle_x_fan(C7, 99, _paths((99, 1, 3)), 2),
     InvalidWitness, "member interior touches the cycle or x"),
    (lambda: odd_cycle_x_fan(C7, 99, _paths((99, 9, 99, 3)), 2),
     InvalidWitness, "member interior touches the cycle or x"),
    (lambda: residues_mod_k([3, 4, 5], 0),
     InvalidArgument, "k must be positive"),
    (lambda: FamilyClass(SEMI),
     InvalidArgument, "semi-length class needs a switch index"),
    (lambda: classify([]),
     InvalidArgument, "classify needs a nonempty list"),
], ids=[
    "path-validate-cycle-family", "path-not-in-g", "path-wrong-start", "path-wrong-end",
    "path-class-not-allowed", "cycle-validate-path-family", "cycle-not-in-g",
    "close-cycle-different-ends", "glue-length-semi-side", "glue-semi-no-semi-reading",
    "glue-semi-unequal-sides", "fan-even-cycle", "fan-semi-at-phi-1", "fan-consecutive",
    "fan-off-the-antipodes", "fan-through-c", "x-fan-even-cycle", "x-fan-triangle",
    "x-fan-member-count", "x-fan-wrong-end", "x-fan-through-c", "x-fan-through-x",
    "residues-k-0", "semi-class-no-switch", "classify-empty",
])
def test_each_rejection_names_its_reason(call, error, prefix):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(prefix)

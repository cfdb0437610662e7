"""The trace, stream, certificate, problem, check and subgroup-term
records: which fields can be assigned, how they compare and print, and
what their constructors refuse."""

import pytest

from qshift.construction import (EStream, ShiftStep, ShiftTrace,
                                 run_shift_construction)
from qshift.hfa import Atom
from qshift.ndsets import NDSet, ndset_points
from qshift.plmaps import PLMap
from qshift.rationals import Interval
from qshift.reporting import Check, Grid
from qshift.serial import _CanonTexts, _recorded, plmap_to_obj
from qshift.subgroups import FULL_GROUP, Conj, Fix, Inter, ShiftProblem, Stab
from qshift.theorem import BranchCertificate, TreeInstance


def _stream():
    return EStream([ndset_points(0), ndset_points(1)])


def _trace():
    return run_shift_construction(_stream(), 2)


def _frozen_records():
    identity = PLMap.identity()
    return [
        (_stream(), "increments", ()),
        (TreeInstance([Atom(1)], NDSet()), "base", ()),
        (BranchCertificate([Atom(1)], [Atom(2)], [identity]), "tau", ()),
        (ShiftProblem([FULL_GROUP], [identity], NDSet()), "candidate",
         NDSet()),
    ]


def test_stream_certificate_and_problem_fields_cannot_be_assigned():
    for record, name, value in _frozen_records():
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is before, type(record).__name__


def test_step_and_trace_fields_stay_assignable():
    trace = _trace()
    step = trace.steps[1]
    gap = Interval(5, 6)
    step.gap = gap
    assert step.gap is gap and trace.steps[1].gap is gap
    trace.steps = trace.steps[:1]
    assert len(trace) == 1


def test_steps_and_traces_compare_by_value():
    a, b = _trace(), _trace()
    assert a is not b and a == b
    assert a.steps[2] is not b.steps[2] and a.steps[2] == b.steps[2]
    assert ShiftTrace(list(a.steps)) == a
    b.steps[2].n = 7
    assert a.steps[2] != b.steps[2] and a != b
    assert a.steps[0] != "step" and a != a.steps


def test_other_records_compare_by_identity():
    for (record, _, _), (twin, _, _) in zip(_frozen_records(),
                                            _frozen_records()):
        assert record == record and record != twin, type(record).__name__
        assert hash(record) != hash(twin)


def test_recorded_compares_through_its_own_equality():
    f = PLMap([(0, 0), (1, 2)])
    rec = _recorded(plmap_to_obj(f), PLMap, _CanonTexts())
    assert rec == f and rec == _recorded(plmap_to_obj(f), PLMap, _CanonTexts())
    assert rec != PLMap.identity()
    with pytest.raises(TypeError):
        hash(rec)


def test_constructors_coerce_to_tuples():
    trace = _trace()
    assert type(ShiftTrace(list(trace.steps)).steps) is tuple
    assert type(EStream([NDSet()]).increments) is tuple
    inst = TreeInstance([Atom(1), Atom(2)], NDSet())
    assert inst.base == (Atom(1), Atom(2))
    cert = BranchCertificate([Atom(1)], [Atom(2)], [PLMap.identity()])
    assert [type(v) for v in (cert.x, cert.t, cert.tau)] == [tuple] * 3
    problem = ShiftProblem([FULL_GROUP], [], NDSet())
    assert problem.groups == (FULL_GROUP,) and problem.witness == ()


def test_constructors_keep_their_validation_messages():
    with pytest.raises(ValueError,
                       match="^demo tree instances take atom sequences$"):
        TreeInstance([Atom(1), "not an atom"], NDSet())
    with pytest.raises(ValueError, match="^certificate components must "
                                         "have equal length$"):
        BranchCertificate([Atom(1)], [], [PLMap.identity()])
    with pytest.raises(ValueError, match="^more witness maps than groups$"):
        ShiftProblem([FULL_GROUP], [PLMap.identity()] * 2, NDSet())


def test_stream_levels_are_built_once_and_kept_out_of_init_and_repr():
    s = _stream()
    first = s.level(1)
    assert s.level(1) is first and s.level(9) is first
    assert s.level(0) is s.level(0)
    assert "_levels" not in repr(s)
    with pytest.raises(TypeError):
        EStream([], _levels=[])


def test_step_keeps_its_short_repr():
    step = ShiftStep(3, Interval(0, 1), Interval(0, 1), PLMap.identity(),
                     PLMap.identity(), NDSet())
    assert repr(step) == "ShiftStep(n=3, J=Interval(0, 1))"


def _value_records():
    # (make, text, other): make() builds a fresh record, ``text`` is its
    # repr, and other() builds one that differs in one field
    f = PLMap([(0, 0), (1, 2)])
    return [
        (lambda: Check("a", True), "Check(name='a', ok=True, index=None, "
                                   "detail='')",
         lambda: Check("a", True, 0)),
        (lambda: Check("b", False, 3, "x"),
         "Check(name='b', ok=False, index=3, detail='x')",
         lambda: Check("b", False, 3, "y")),
        (lambda: Grid("g", 2, ("a", "b"), ((0, 1, "d"),)),
         "Grid(name='g', sets=2, labels=('a', 'b'), failing=((0, 1, 'd'),))",
         lambda: Grid("g", 3, ("a", "b"), ((0, 1, "d"),))),
        (lambda: Fix(ndset_points(1)), "Fix(support=NDSet({1}, []))",
         lambda: Fix(ndset_points(2))),
        (lambda: Stab(Atom(1)), "Stab(obj=Atom(1))", lambda: Stab(Atom(2))),
        (lambda: Conj(f, FULL_GROUP),
         "Conj(by=PLMap([(0, 0), (1, 2)], left=1, right=1), inner=FullGroup)",
         lambda: Conj(f, Fix(NDSet()))),
        (lambda: Inter([FULL_GROUP, Fix(NDSet())]),
         "Inter(parts=(FullGroup, Fix(support=NDSet({}, []))))",
         lambda: Inter([FULL_GROUP])),
        (lambda: FULL_GROUP, "FullGroup", lambda: Fix(NDSet())),
    ]


def test_value_records_compare_and_hash_by_their_fields():
    for make, _, other in _value_records():
        a, b = make(), make()
        assert a == b and not a != b and hash(a) == hash(b), repr(a)
        assert a != other() and other() != a, repr(a)
        assert a != repr(a) and a != (), repr(a)


def test_value_records_of_different_classes_are_unequal():
    s = ndset_points(1)
    assert Fix(s) != Stab(s) and Stab(s) != Fix(s)
    assert Check("a", True) != ("a", True, None, "")


def test_value_records_cannot_be_assigned():
    for make, _, _ in _value_records():
        record = make()
        for name in type(record).__slots__:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            assert getattr(record, name) is before, repr(record)


def test_value_records_keep_their_reprs():
    for make, text, _ in _value_records():
        assert repr(make()) == text


def test_intersections_coerce_their_parts_to_a_tuple():
    parts = [FULL_GROUP, Fix(NDSet())]
    term = Inter(parts)
    assert type(term.parts) is tuple and term.parts == tuple(parts)
    assert term == Inter(tuple(parts)) and hash(term) == hash(Inter(parts))


def test_conjugates_leave_their_cached_inverse_out_of_eq_hash_and_repr():
    f = PLMap([(0, 0), (1, 2)])
    warm, cold = Conj(f, FULL_GROUP), Conj(f, FULL_GROUP)
    text, key = repr(warm), hash(warm)
    inverse = warm.by_inverse()
    assert inverse == f.invert() and warm.by_inverse() is inverse
    assert warm == cold and hash(warm) == key == hash(cold)
    assert repr(warm) == text and "inverse" not in text


def test_steps_and_traces_are_unhashable():
    trace = _trace()
    for record in (trace, trace.steps[0], ShiftTrace([])):
        with pytest.raises(TypeError):
            hash(record)


def test_trace_and_frozen_record_reprs():
    trace = run_shift_construction(EStream([ndset_points(0)]), 1)
    assert repr(trace) == ("ShiftTrace(steps=(ShiftStep(n=0, J=Interval("
                           "1/3, 2/3)), ShiftStep(n=1, J=Interval(1/3, "
                           "2/3))))")
    identity = PLMap.identity()
    assert repr(EStream([ndset_points(0)])) == (
        "EStream(increments=(NDSet({0}, []),))")
    assert repr(TreeInstance([Atom(1)], NDSet())) == (
        "TreeInstance(base=(Atom(1),), base_support=NDSet({}, []))")
    assert repr(BranchCertificate([Atom(1)], [Atom(2)], [identity])) == (
        "BranchCertificate(x=(Atom(1),), t=(Atom(2),), "
        "tau=(PLMap([(0, 0)], left=1, right=1),))")
    assert repr(ShiftProblem([FULL_GROUP], [identity], NDSet())) == (
        "ShiftProblem(groups=(FullGroup,), witness=(PLMap([(0, 0)], "
        "left=1, right=1),), candidate=NDSet({}, []))")

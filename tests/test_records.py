"""The trace, stream, certificate and problem records: which fields can
be assigned, how they compare, and what their constructors refuse."""

import pytest

from qshift.construction import (EStream, ShiftStep, ShiftTrace,
                                 run_shift_construction)
from qshift.hfa import Atom
from qshift.ndsets import NDSet, ndset_points
from qshift.plmaps import PLMap
from qshift.rationals import Interval
from qshift.serial import _CanonTexts, _recorded, plmap_to_obj
from qshift.subgroups import FULL_GROUP, ShiftProblem
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

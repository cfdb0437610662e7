import io
import json
from bisect import bisect_left
from collections import Counter
from operator import itemgetter
from random import Random

import pytest

from qshift import construction
from qshift.construction import (EStream, EvacuationError, ShiftStep,
                                 ShiftTrace, _insert_closed, _merge_closed,
                                 canonical_interval, evacuate, pair_index,
                                 rational_enum, run_shift_construction,
                                 verify_shift_trace, witness_subgroup)
from qshift.ndsets import EMPTY_NDSET, GeomTail, NDSet, ndset_points
from qshift.plmaps import PLMap, squeeze_map
from qshift.rationals import Interval, Q, rat_str, simplest_between
from qshift.reporting import Check, write_rows
from qshift.sampling import (rng_geomtail, rng_interval, rng_ndset,
                             rng_rational)
from qshift.serial import (canon_dumps, interval_from_obj, ndset_from_obj,
                           plmap_from_obj, plmap_to_obj, trace_from_obj,
                           trace_to_obj)
from qshift.subgroups import fix_violation


def test_rational_enum_prefix():
    want = ["0", "1", "-1", "2", "-2", "1/2", "-1/2", "1/3", "-1/3", "3"]
    from qshift.rationals import rat_str
    assert [rat_str(rational_enum(i)) for i in range(10)] == want


def test_rational_enum_injective_and_covering():
    seen = {rational_enum(i) for i in range(4000)}
    assert len(seen) == 4000
    for num in range(-9, 10):
        for den in range(1, 10):
            assert Q(num, den) in seen


def test_canonical_interval_first():
    assert canonical_interval(0) == Interval(0, 1)


def test_canonical_interval_coverage():
    # every pair with both enumeration indices <= 60 appears below 10000
    intervals = {}
    for n in range(10001):
        iv = canonical_interval(n)
        intervals.setdefault((iv.lower, iv.upper), n)
    for i in range(60):
        for j in range(60):
            assert pair_index(i, j) <= 10000
            qi, qj = rational_enum(i), rational_enum(j)
            if qi == qj:
                key = (qi, qi + 1)
            else:
                key = (min(qi, qj), max(qi, qj))
            assert key in intervals


def test_estream_levels_and_padding():
    s = EStream([ndset_points(0), ndset_points(1)])
    assert s.level(0) == ndset_points(0)
    assert s.level(1) == ndset_points(0, 1)
    assert s.level(7) == s.level(1)
    assert EStream([]).level(3) == EMPTY_NDSET


def test_evacuate_identity_when_nothing_moves():
    e = NDSet([Q(5)], [GeomTail(0, 1, Q(1, 2))])
    assert evacuate(e, e, [(Q(2), Q(3))]).is_identity
    assert evacuate(EMPTY_NDSET, EMPTY_NDSET, [(Q(0), Q(1))]).is_identity


def test_evacuate_moves_single_point():
    pi = evacuate(EMPTY_NDSET, ndset_points(Q(1, 2)), [(Q(0), Q(1))])
    out = pi.apply(Q(1, 2))
    assert out < 0 or out > 1


def test_evacuate_fixes_and_clears():
    fixed = ndset_points(0)
    moving = ndset_points(0, Q(1, 2), Q(3, 4))
    blocked = [(Q(1, 3), Q(5, 6))]
    pi = evacuate(fixed, moving, blocked)
    assert pi.apply(Q(0)) == 0
    img = moving.image(pi)
    for a, b in blocked:
        assert img.closure_meets_closed(a, b) is None


def test_evacuate_precondition_error():
    with pytest.raises(EvacuationError) as err:
        evacuate(ndset_points(Q(1, 2)), ndset_points(Q(1, 2)),
                 [(Q(0), Q(1))])
    assert err.value.witness == Q(1, 2)


def test_empty_stream_trace():
    s = EStream([])
    trace = run_shift_construction(s, 3)
    assert all(st.pi.is_identity for st in trace.steps)
    assert trace.steps[0].gap == Interval(Q(1, 3), Q(2, 3))
    for st in trace.steps:
        # the gap is the (snapped) middle third of its interval
        window = st.interval
        third = (window.upper - window.lower) / 3
        assert window.lower + third <= st.gap.lower
        assert st.gap.upper <= window.upper - third
    assert verify_shift_trace(trace, s).passed


def test_dense_singletons_construction():
    incs = [ndset_points(rational_enum(i)) for i in range(12)]
    s = EStream(incs)
    trace = run_shift_construction(s, 10)
    report = verify_shift_trace(trace, s)
    assert report.passed, report.summary()


def test_tail_start_construction():
    incs = [NDSet(tails=[GeomTail(0, 1, Q(1, 2))])] + \
        [ndset_points(Q(1, 2 * k + 1)) for k in range(1, 7)]
    s = EStream(incs)
    trace = run_shift_construction(s, 5)
    assert verify_shift_trace(trace, s).passed


def test_later_maps_fix_earlier_shifted_sets():
    incs = [ndset_points(rational_enum(i)) for i in range(8)]
    s = EStream(incs)
    trace = run_shift_construction(s, 6)
    sigmas = trace.sigmas
    for n in range(len(trace.steps)):
        for k in range(n + 1):
            assert s.level(k).image(sigmas[n]) == trace.steps[k].shifted


def test_witness_subgroup():
    assert witness_subgroup(run_shift_construction(EStream([]), 2)).is_empty
    incs = [ndset_points(rational_enum(i)) for i in range(8)]
    s = EStream(incs)
    trace = run_shift_construction(s, 6)
    w = witness_subgroup(trace)
    for st in trace.steps:
        assert st.shifted.subset_of_closure(w) is None
    rng = Random(3)
    for _ in range(25):
        iv = rng_interval(rng)
        gap = w.find_gap(iv)
        assert w.closure_meets_closed(gap.lower, gap.upper) is None


def test_verify_catches_mutated_map():
    incs = [ndset_points(rational_enum(i)) for i in range(8)]
    s = EStream(incs)
    trace = run_shift_construction(s, 6)
    steps = list(trace.steps)
    bad = steps[3]
    bad.pi = PLMap.translation(1).compose(bad.pi)
    report = verify_shift_trace(type(trace)(steps), s)
    assert not report.passed
    fixing = [c for c in report.checks
              if c.name == "fixes-shifted" and not c.ok]
    assert fixing and fixing[0].index == 3


def test_verify_catches_bad_gap():
    incs = [ndset_points(rational_enum(i)) for i in range(8)]
    s = EStream(incs)
    trace = run_shift_construction(s, 6)
    steps = list(trace.steps)
    steps[2].gap = Interval(steps[2].gap.lower - 10, steps[2].gap.upper)
    report = verify_shift_trace(type(trace)(steps), s)
    assert not report.passed
    assert any(not c.ok for c in report.checks
               if c.name == "gap-in-interval")


def test_verify_empty_trace_vacuous():
    from qshift.construction import ShiftTrace
    assert verify_shift_trace(ShiftTrace([]), EStream([])).passed


def test_random_streams_roundtrip():
    rng = Random(77)
    for _ in range(5):
        incs = [rng_ndset(rng, max_points=2, max_tails=1)
                for _ in range(rng.randint(1, 3))]
        s = EStream(incs)
        trace = run_shift_construction(s, 4)
        assert verify_shift_trace(trace, s).passed


def quadratic_gap_records(trace, stream):
    """Reference gap-disjoint sweep: every shifted set against every gap,
    as (n, detail) pairs in report order."""
    sigma = PLMap.identity()
    shifted = []
    for step in trace.steps:
        shifted.append(stream.level(step.n).image(sigma))
        sigma = step.pi.compose(sigma)
    out = []
    for m, e in enumerate(shifted):
        for k, step in enumerate(trace.steps):
            w = e.closure_meets_closed(step.gap.lower, step.gap.upper)
            out.append((m, f"J_{k}" if w is None
                        else f"J_{k} contains {rat_str(w)}"))
    return out


def _mutations(trace, rng):
    """Corrupted copies: a moved pi breakpoint, a gap centred on a closure
    point of some shifted set, the same after pi_0 carried everything
    away (so only shifted_0 meets the gap), a wrong step index."""
    def copy_steps():
        return [ShiftStep(st.n, st.interval, st.gap, st.pi, st.sigma_next,
                          st.shifted) for st in trace.steps]

    def closure(e):
        return list(e.points) + [t.limit for t in e.tails]

    steps = copy_steps()
    k = rng.randrange(len(steps))
    (x, y), *rest = steps[k].pi.breakpoints
    y_next = rest[0][1] if rest else y + 2
    steps[k].pi = PLMap([(x, (y + y_next) / 2)] + rest,
                        steps[k].pi.left_slope, steps[k].pi.right_slope)
    yield steps

    m = rng.randrange(len(steps))
    if closure(trace.steps[m].shifted):
        p = rng.choice(closure(trace.steps[m].shifted))
        steps = copy_steps()
        steps[rng.randrange(len(steps))].gap = \
            Interval(p - Q(1, 1000), p + Q(1, 1000))
        yield steps

    if closure(trace.steps[0].shifted):
        p = rng.choice(closure(trace.steps[0].shifted))
        steps = copy_steps()
        steps[0].pi = PLMap.translation(1000).compose(steps[0].pi)
        steps[-1].gap = Interval(p - Q(1, 1000), p + Q(1, 1000))
        yield steps

    steps = copy_steps()
    steps[-1].n += 1
    yield steps


def test_gap_sweep_matches_quadratic_oracle():
    rng = Random(31)
    streams = [EStream([ndset_points(rational_enum(i)) for i in range(9)])]
    streams += [EStream([rng_ndset(rng, max_points=1, max_tails=1)
                         for _ in range(6)]) for _ in range(4)]
    hits = 0
    for s in streams:
        trace = run_shift_construction(s, 5)
        candidates = [list(trace.steps)] + list(_mutations(trace, rng))
        for steps in candidates:
            t = ShiftTrace(steps)
            got = [(c.index, c.detail) for c in verify_shift_trace(t, s).checks
                   if c.name == "gap-disjoint"]
            want = quadratic_gap_records(t, s)
            assert got == want
            hits += any("contains" in detail for _, detail in want)
    assert hits >= len(streams)  # the corrupted gaps were caught


# -- the incremental recursion and verifier against from-scratch replays ---

def tail_streams(rng, count, length):
    """Streams of one random point and one random tail per increment."""
    return [EStream([NDSet([rng_rational(rng, 10)], [rng_geomtail(rng)])
                     for _ in range(length)]) for _ in range(count)]


def test_recorded_shifted_sets_are_whole_level_images():
    for s in tail_streams(Random(12), 6, 8):
        trace = run_shift_construction(s, 7)
        sigmas = trace.sigmas
        for n, step in enumerate(trace.steps):
            assert step.shifted == s.level(n).image(sigmas[n])
            # each later map fixed it: sigma_n``E_k is shifted_k for k <= n
            for k in range(n):
                assert s.level(k).image(sigmas[n]) == trace.steps[k].shifted


def test_recursion_builds_no_shifted_set_past_its_last_step(monkeypatch):
    # shifted_{n+1} = shifted_n united with pi_n``incoming is needed by
    # step n+1 only, so steps 0..upto take upto unions
    real = NDSet.union
    calls = []

    def counting(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(NDSet, "union", counting)
    for upto, s in enumerate(tail_streams(Random(77), 10, 8)):
        calls.clear()
        run_shift_construction(s, upto)
        assert len(calls) == upto, upto


def test_evacuating_the_increment_matches_the_whole_moving_set():
    # the recursion hands evacuate only sigma_n``increment(n+1); the
    # brute-force oracle evacuates the whole moving set shifted_n united
    # with it, against the same merged gaps J_0..J_n
    rng = Random(31)
    streams = tail_streams(rng, 30, 13)
    streams += [EStream([rng_ndset(rng, 3, 2) for _ in range(6)])
                for _ in range(30)]
    streams.append(EStream([ndset_points(rational_enum(i))
                            for i in range(62)]))
    moved = 0
    for s in streams:
        trace = run_shift_construction(s, len(s) - 2)
        sigmas = trace.sigmas
        gaps = []
        for n, step in enumerate(trace.steps):
            gaps.append((step.gap.lower, step.gap.upper))
            blocked = _merge_closed(gaps)
            incoming = s.increment(n + 1).image(sigmas[n])
            pi = evacuate(step.shifted, incoming, blocked)
            assert pi == step.pi
            assert evacuate(step.shifted, step.shifted.union(incoming),
                            blocked) == pi
            moved += not pi.is_identity
    assert moved >= 50


def scratch_replay_records(trace, stream):
    """Reference verifier: every shifted set re-derived as the image of
    its whole level, every gap checked against every shifted set; records
    as (check, n, ok, detail) in report order."""
    out = []
    sigma = PLMap.identity()
    for i, step in enumerate(trace.steps):
        n = step.n
        derived = stream.level(n).image(sigma)
        moved = fix_violation(step.pi, derived)
        out += [("step-index", n, n == i, ""),
                ("shifted-matches", n, derived == step.shifted, ""),
                ("interval-enumeration", n,
                 step.interval == canonical_interval(n), ""),
                ("gap-in-interval", n,
                 step.interval.contains_open(step.gap), ""),
                ("fixes-shifted", n, moved is None,
                 "pi_n in Fix(shifted_n)" if moved is None
                 else f"pi_n moves {rat_str(moved)}")]
        sigma = step.pi.compose(sigma)
        out.append(("sigma-telescoping", n, sigma == step.sigma_next, ""))
    out += [("gap-disjoint", m, " contains " not in detail, detail)
            for m, detail in quadratic_gap_records(trace, stream)]
    return out


def _oracle_line(name, index, ok, detail):
    obj = {"check": name, "ok": ok, "mode": "exact", "n": index}
    if detail:
        obj["detail"] = detail
    return canon_dumps(obj) + "\n"


def assert_report_matches(report, want):
    """Every view of ``report`` equals the row-by-row oracle ``want``, a
    list of (check, n, ok, detail) records in report order."""
    rows = [(name, ok, n, detail) for name, n, ok, detail in want]
    assert report.rows == rows
    assert len(report.rows) == report.count == len(want)
    assert report.checks == [Check(*row) for row in rows]
    failed = [Check(*row) for row in rows if not row[1]]
    assert report.failures == failed and report.failed == len(failed)
    assert report.passed == (not failed)
    named = [f"{c.name}[{c.index}]" for c in failed]
    assert report.summary() == (
        f"{len(failed)} of {len(want)} checks failed: " + ", ".join(named[:5])
        if failed else f"all {len(want)} checks passed")
    out = io.StringIO()
    write_rows(report.entries, out)
    assert out.getvalue() == "".join(_oracle_line(*r) for r in want)


def test_verifier_matches_scratch_replay():
    rng = Random(99)
    streams = tail_streams(rng, 5, 7)
    streams.append(EStream([ndset_points(rational_enum(i)) for i in range(7)]))
    unfixed = one_step = hit = 0
    for s in streams:
        for upto in (5, 0):
            trace = run_shift_construction(s, upto)
            for steps in [list(trace.steps)] + list(_mutations(trace, rng)):
                t = ShiftTrace(steps)
                want = scratch_replay_records(t, s)
                assert_report_matches(verify_shift_trace(t, s), want)
                # a map that moves its shifted set before the last step
                # sends the later derivations down the whole-level path
                unfixed += any(name == "fixes-shifted" and not ok
                               for name, _, ok, _ in
                               want[:-6 - len(steps) ** 2])
                one_step += len(steps) == 1
                hit += any(name == "gap-disjoint" and not ok
                           for name, _, ok, _ in want)
    assert unfixed >= len(streams)
    assert one_step >= 2 * len(streams) and hit >= len(streams)


# -- decoded traces share repeated maps ------------------------------------------

def fresh_decode(obj):
    """Reference reader: every record of a trace object decoded on its own."""
    return ShiftTrace([ShiftStep(s["n"], interval_from_obj(s["I"]),
                                 interval_from_obj(s["J"]),
                                 plmap_from_obj(s["pi"]),
                                 plmap_from_obj(s["sigma_next"]),
                                 ndset_from_obj(s["shifted"]))
                       for s in obj["steps"]])


def test_decoded_traces_share_repeated_maps():
    point = EStream([ndset_points(rational_enum(i)) for i in range(62)])
    cases = [(point, 60)] + [(s, 12) for s in tail_streams(Random(2024), 3, 14)]
    for s, upto in cases:
        text = canon_dumps(trace_to_obj(run_shift_construction(s, upto), s))
        obj = json.loads(text)
        steps, raw = trace_from_obj(obj)[0].steps, obj["steps"]
        assert steps == fresh_decode(obj).steps
        for key in ("pi", "sigma_next"):
            # a map is shared exactly where its record repeats the last one
            shared = [getattr(b, key) is getattr(a, key)
                      for a, b in zip(steps, steps[1:])]
            assert shared == [b[key] == a[key] for a, b in zip(raw, raw[1:])]
        if s is point:
            assert sum(b.sigma_next is a.sigma_next
                       for a, b in zip(steps, steps[1:])) >= 50
            point_text = text

    # tamper with a repeated sigma_next, alone and with the repeats after it
    raw = json.loads(point_text)["steps"]
    k = next(k for k in range(1, len(raw) - 1)
             if raw[k - 1]["sigma_next"] == raw[k]["sigma_next"]
             == raw[k + 1]["sigma_next"])
    run = [k]
    while (run[-1] + 1 < len(raw)
           and raw[run[-1] + 1]["sigma_next"] == raw[k]["sigma_next"]):
        run.append(run[-1] + 1)
    bad = plmap_to_obj(PLMap.translation(Q(1, 7)).compose(
        plmap_from_obj(raw[k]["sigma_next"])))
    for tampered in ([k], run):
        edited = json.loads(point_text)
        for j in tampered:
            edited["steps"][j]["sigma_next"] = bad
        report = verify_shift_trace(trace_from_obj(edited)[0], point)
        got = [(c.name, c.index, c.ok, c.detail) for c in report.checks]
        assert got == scratch_replay_records(fresh_decode(edited), point)
        assert [c.index for c in report.failures] == tampered


# -- evacuate's postconditions --------------------------------------------------

def test_evacuate_fixes_final_segment_of_moving_tail():
    c_fix = NDSet(tails=[GeomTail(0, Q(1, 4), Q(1, 2))])
    c_move = NDSet(tails=[GeomTail(0, 1, Q(1, 2))])
    blocked = [(Q(3, 8), Q(5, 8))]  # holds the moving term 1/2
    pi = evacuate(c_fix, c_move, blocked)
    assert fix_violation(pi, c_fix) is None
    assert c_move.image(pi).closure_meets_closed(*blocked[0]) is None


def test_evacuate_accepts_tail_covered_by_power_ratio_tails():
    # {1/2^k} is the union of {1/4^k} and {1/2 * 1/4^k}, and nothing of
    # either meets [2, 3]
    c_fix = NDSet(tails=[GeomTail(0, 1, Q(1, 2))])
    c_move = NDSet(tails=[GeomTail(0, 1, Q(1, 4)), GeomTail(0, Q(1, 2), Q(1, 4))])
    assert evacuate(c_fix, c_move, [(Q(2), Q(3))]).is_identity


def test_evacuate_fixes_tail_whose_six_terms_are_moving_points():
    # c_move holds the first six terms of c_fix = {1/2^k} as points and
    # lacks the rest; the map fixes all of c_fix and clears c_move anyway
    c_fix = NDSet(tails=[GeomTail(0, 1, Q(1, 2))])
    c_move = NDSet([Q(1, 2 ** k) for k in range(6)] + [Q(3, 4), Q(5, 2)])
    blocked = [(Q(2), Q(3)), (Q(5, 8), Q(7, 8))]
    pi = evacuate(c_fix, c_move, blocked)
    assert not pi.is_identity
    assert fix_violation(pi, c_fix) is None
    img = c_move.image(pi)
    assert all(img.closure_meets_closed(a, b) is None for a, b in blocked)


# -- evacuate's sweeps against the ordered per-interval scans -----------------

def ordered_scan_outcome(c_fix, c_move, blocked):
    """Reference for evacuate's checks, one closure query per interval in
    the given order: ('blocked', witness, interval) for the first blocked
    interval that meets the closure of c_fix; else ('moves', whether the
    closure of c_move meets a blocked interval)."""
    for a, b in blocked:
        w = c_fix.closure_meets_closed(a, b)
        if w is not None:
            return "blocked", w, (a, b)
    return "moves", any(c_move.closure_meets_closed(a, b) is not None
                        for a, b in blocked)


def closure_centres(rng, e):
    """Points, limits and tail terms of e."""
    out = list(e.points)
    for t in e.tails:
        out += [t.limit, t.term(0), t.term(rng.randint(1, 4))]
    return out


def blocked_around(rng, centres, count):
    """Closed intervals in shuffled order, most around the centres (some
    degenerate), the rest random."""
    out = []
    for _ in range(count):
        if centres and rng.random() < 0.8:
            c = rng.choice(centres)
            out.append((c - rng.choice((0, Q(1, 64), Q(1, 9))),
                        c + rng.choice((0, Q(1, 50), Q(1, 7)))))
        else:
            iv = rng_interval(rng)
            out.append((iv.lower, iv.upper))
    rng.shuffle(out)
    return out


def sweep_cases(rng, cases):
    """(c_fix, c_move, blocked) triples: c_fix takes some members of c_move
    and sometimes a foreign point; the blocked intervals sit around c_fix,
    around the rest of c_move, or in gaps of c_move."""
    for _ in range(cases):
        c_move = rng_ndset(rng, max_points=6, max_tails=2)
        points = [p for p in c_move.points if rng.random() < 0.6]
        tails = [t for t in c_move.tails if rng.random() < 0.6]
        if rng.random() < 0.3:
            points.append(rng_rational(rng))
        c_fix = NDSet(points, tails)
        count, kind = rng.randint(1, 7), rng.random()
        if kind < 0.4:
            blocked = blocked_around(rng, closure_centres(rng, c_fix), count)
        elif kind < 0.75:
            # around members of c_move off the closure of c_fix
            blocked = blocked_around(
                rng, [c for c in closure_centres(rng, c_move)
                      if not c_fix.closure_contains(c)], count)
        else:
            gaps = [c_move.find_gap(rng_interval(rng)) for _ in range(count)]
            blocked = [(g.lower, g.upper) for g in gaps]
        yield c_fix, c_move, blocked


def test_evacuate_sweeps_match_ordered_scans():
    seen = {"blocked": 0, "moves": 0, "still": 0}
    several = foreign = 0
    for c_fix, c_move, blocked in sweep_cases(Random(8080), 300):
        want = ordered_scan_outcome(c_fix, c_move, blocked)
        if want[0] == "blocked":
            seen["blocked"] += 1
            several += sum(c_fix.closure_meets_closed(a, b) is not None
                           for a, b in blocked) > 1
            with pytest.raises(EvacuationError) as err:
                evacuate(c_fix, c_move, blocked)
            assert (err.value.witness, err.value.blocked) == want[1:]
            assert str(err.value) == str(EvacuationError(*want[1:]))
        else:
            pi = evacuate(c_fix, c_move, blocked)
            seen["moves" if want[1] else "still"] += 1
            # c_fix need not be part of c_move: the map never relies on it
            foreign += any(not c_move.contains(p) for p in c_fix.points)
            assert pi.is_identity != want[1]
            assert fix_violation(pi, c_fix) is None
            img = c_move.image(pi)
            assert all(img.closure_meets_closed(a, b) is None
                       for a, b in blocked)
    assert min(seen.values()) >= 20 and several >= 20, (seen, several)
    assert foreign >= 20, foreign


# -- the one closure sweep against the sweeps it replaced ---------------------

def merged_sweep_meets(s, merged):
    """Reference: whether the closure of s meets one of the sorted,
    disjoint closed intervals, by a linear sweep of the points and a
    bisection of the intervals for each tail's hull."""
    pts = s.points
    i, n = 0, len(pts)
    for a, b in merged:
        while i < n and pts[i] < a:
            i += 1
        if i == n:
            break
        if pts[i] <= b:
            return True
    for t in s.tails:
        j = bisect_left(merged, t.lo, key=itemgetter(1))
        while j < len(merged) and merged[j][0] <= t.hi:
            if t.closure_meets_closed(*merged[j]) is not None:
                return True
            j += 1
    return False


def single_interval_witness(s, a, b):
    """Reference: the first point in [a, b], else the first tail's
    closure point there, else None."""
    pts = s.points
    i = bisect_left(pts, a)
    if i < len(pts) and pts[i] <= b:
        return pts[i]
    for t in s.tails:
        w = t.closure_meets_closed(a, b)
        if w is not None:
            return w
    return None


def straddling(rng, e):
    """Closed intervals across the tails' limits, terms and hull ends, and
    ending on points."""
    out = []
    for t in e.tails:
        k = rng.randint(0, 3)
        w = abs(t.coeff) * t.ratio ** (k + 2)
        out += [(t.term(k) - w, t.term(k) + w), (t.limit - w, t.limit + w),
                (min(t.term(k + 1), t.term(k)), max(t.term(k + 1), t.term(k))),
                (t.lo - w, t.lo), (t.hi, t.hi + w)]
    for p in e.points:
        w = Q(1, rng.randint(1, 9))
        out += [(p - w, p), (p, p + w)]
    rng.shuffle(out)
    return out


def test_closure_meets_sorted_matches_reference_sweeps(crowded_presentation):
    cases = []
    for c_fix, c_move, blocked in sweep_cases(Random(8080), 300):
        cases += [(c_fix, blocked), (c_move, blocked)]
    rng = Random(9090)
    for i in range(300):
        e = rng_ndset(rng) if i % 2 else NDSet(*crowded_presentation(rng))
        cases.append((e, blocked_around(rng, closure_centres(rng, e),
                                        rng.randint(1, 6))
                      + straddling(rng, e)))
    hits = misses = several = 0
    tail_witnesses = end_points = 0
    for e, blocked in cases:
        merged = _merge_closed(blocked)
        w = e.closure_meets_sorted(merged)
        assert (w is not None) == merged_sweep_meets(e, merged), (e, merged)
        if w is not None:
            assert e.closure_contains(w)
            assert any(a <= w <= b for a, b in merged)
        hits += w is not None
        misses += w is None
        several += len(merged) > 1
        for a, b in blocked:
            got = e.closure_meets_closed(a, b)
            assert got == single_interval_witness(e, a, b), (e, a, b)
            tail_witnesses += got is not None and got not in e.points
            end_points += got in (a, b) and got in e.points
    assert hits >= 300 and misses >= 100 and several >= 300, \
        (hits, misses, several)
    assert tail_witnesses >= 2000 and end_points >= 500, \
        (tail_witnesses, end_points)


# -- evacuate's one-pass covers against sorting then merging ------------------

def evacuate_sorting_covers(c_fix, c_move, blocked):
    """Reference evacuate for inputs it accepts: every cover built first,
    then sorted, then merged in a second loop."""
    if all(c_move.closure_meets_closed(a, b) is None for a, b in blocked):
        return PLMap.identity()
    covers = []
    for a, b in _merge_closed(blocked):
        below, above = c_fix.neighbours(a)
        u = a - 1 if below is None else simplest_between(below, a)
        v = b + 1 if above is None else simplest_between(b, above)
        covers.append((u, v, [(a, b)]))
    covers.sort()
    merged = []
    for u, v, blk in covers:
        if merged and u <= merged[-1][1]:
            pu, pv, pblk = merged[-1]
            merged[-1] = (pu, max(pv, v), pblk + blk)
        else:
            merged.append((u, v, blk))
    g = PLMap.identity()
    for u, v, blk in merged:
        targets = []
        cursor = u
        for a, b in blk:
            gap = c_move.find_gap(Interval(cursor, v))
            targets.append(((a, b), gap))
            cursor = gap.upper
        g = g.compose(squeeze_map(Interval(u, v), targets))
    return g.invert()


def test_one_pass_covers_match_sorted_merge(monkeypatch):
    calls = [case for case in sweep_cases(Random(8080), 300)
             if ordered_scan_outcome(*case)[0] == "moves"]
    sweep = len(calls)
    # the recursion calls evacuate's body on its merged blocked list; the
    # body's arguments replay through the public evacuate
    real = construction._evacuate_merged

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(construction, "_evacuate_merged", recording)
    for s in tail_streams(Random(5150), 8, 12):
        run_shift_construction(s, 11)
    monkeypatch.undo()
    assert sweep >= 100 and len(calls) - sweep == 8 * 12
    several = 0  # maps built from two or more merged blocked intervals
    for c_fix, c_move, blocked in calls:
        pi = evacuate(c_fix, c_move, blocked)
        assert pi == evacuate_sorting_covers(c_fix, c_move, blocked)
        several += not pi.is_identity and len(_merge_closed(blocked)) > 1
    assert several >= 30, several


def test_evacuate_neither_composes_nor_inverts(monkeypatch):
    # the covers' squeeze tables are laid end to end and inverted in place
    cases = [case for case in sweep_cases(Random(8080), 300)
             if ordered_scan_outcome(*case)[0] == "moves"]
    want = [evacuate_sorting_covers(*case) for case in cases]

    def refuse(*args):
        raise AssertionError("evacuate composed or inverted a map")

    monkeypatch.setattr(PLMap, "compose", refuse)
    monkeypatch.setattr(PLMap, "invert", refuse)
    assert [evacuate(*case) for case in cases] == want
    assert sum(len(pi.breakpoints) > 2 for pi in want) >= 50


# -- the recursion's blocked list, merged by insertion ------------------------

def test_insert_closed_matches_merge_closed():
    # ends on a grid of halves, so the new interval often touches, nests in
    # or shares an end with a merged one
    rng = Random(6161)

    def closed():
        return tuple(sorted(Q(rng.randint(-12, 12), 2) for _ in range(2)))

    seen = dict.fromkeys(
        ("apart", "touching", "nested", "equal end", "joins several"), 0)
    for _ in range(3000):
        merged = _merge_closed([closed() for _ in range(rng.randint(0, 7))])
        before = list(merged)
        a, b = closed()
        got = _insert_closed(merged, a, b)
        assert got == _merge_closed(merged + [(a, b)]), (merged, a, b)
        assert merged == before
        seen["apart"] += all(d < a or b < c for c, d in merged)
        seen["touching"] += any(d == a or b == c for c, d in merged)
        seen["nested"] += any(c <= a and b <= d or a <= c and d <= b
                              for c, d in merged)
        seen["equal end"] += any(c == a or d == b for c, d in merged)
        seen["joins several"] += len(got) < len(merged)
    assert min(seen.values()) >= 100, seen
    with pytest.raises(ValueError, match="endpoints out of order"):
        _insert_closed([(Q(0), Q(1))], Q(3), Q(2))


# -- the recursion's incremental precondition against the full sweep ----------

def point_stream(count):
    """The singletons rational_enum(0..count-1)."""
    return EStream([ndset_points(rational_enum(i)) for i in range(count)])


def sweeping_construction(stream, upto):
    """The recursion with the public ``evacuate`` on every step, which
    merges the blocked list and sweeps the whole set to fix against it."""
    sigma = PLMap.identity()
    shifted = stream.increment(0)
    blocked = []
    steps = []
    for n in range(upto + 1):
        if n:
            shifted = shifted.union(incoming.image(pi))
        interval = canonical_interval(n)
        gap = shifted.find_gap(interval)
        blocked = _insert_closed(blocked, gap.lower, gap.upper)
        incoming = stream.increment(n + 1).image(sigma)
        pi = construction.evacuate(shifted, incoming, blocked)
        sigma = pi.compose(sigma)
        steps.append(ShiftStep(n, interval, gap, pi, sigma, shifted))
    return ShiftTrace(steps)


def run_outcome(build, stream, upto):
    """The fields of every step a run records, or the text, witness and
    blocked interval of the ``EvacuationError`` it raises."""
    try:
        trace = build(stream, upto)
    except EvacuationError as exc:
        return "raised", str(exc), exc.witness, exc.blocked
    return "ran", [(s.n, s.interval, s.gap, s.pi, s.sigma_next, s.shifted)
                   for s in trace.steps]


def recording_steps(monkeypatch):
    """Patch the recursion to log (set to fix, blocked list, whether the
    public ``evacuate`` was called) for each step: the body's arguments, or
    the public call's on a step whose precondition check hit."""
    body, public = construction._evacuate_merged, construction.evacuate
    log = []

    def recording_body(c_fix, c_move, blocked):
        log.append((c_fix, blocked, False))
        return body(c_fix, c_move, blocked)

    def recording_public(c_fix, c_move, blocked):
        log.append((c_fix, blocked, True))
        return public(c_fix, c_move, blocked)

    monkeypatch.setattr(construction, "_evacuate_merged", recording_body)
    monkeypatch.setattr(construction, "evacuate", recording_public)
    return log


def assert_verdicts_match_full_sweep(log):
    for shifted, blocked, checked in log:
        assert blocked == _merge_closed(blocked)
        clear = shifted.closure_meets_sorted(_merge_closed(blocked)) is None
        assert clear == (not checked), (shifted, blocked)


def test_incremental_precondition_matches_full_sweep(monkeypatch):
    # valid streams never hit; a gap widened onto a point of the set to fix
    # makes the recursion hit on that step, and raise the sweep's error
    streams = [(s, 11) for s in tail_streams(Random(4242), 8, 12)]
    streams.append((point_stream(62), 60))
    real_gap = NDSet.find_gap
    rng = Random(4343)
    raised = clean = 0
    for stream, upto in streams:
        for target in (None, rng.randrange(upto + 1), rng.randrange(upto + 1)):
            def widened(self, interval):
                gap = real_gap(self, interval)
                if (target is not None and self.points
                        and interval == canonical_interval(target)):
                    p = self.points[len(self.points) // 2]
                    return Interval(min(gap.lower, p), max(gap.upper, p))
                return gap

            monkeypatch.setattr(NDSet, "find_gap", widened)
            want = run_outcome(sweeping_construction, stream, upto)
            log = recording_steps(monkeypatch)
            got = run_outcome(run_shift_construction, stream, upto)
            monkeypatch.undo()
            assert got == want
            assert_verdicts_match_full_sweep(log)
            if target is None:
                assert got[0] == "ran" and len(log) == upto + 1
                clean += 1
            else:
                assert got[0] == "raised" and log[-1][2]
                raised += 1
    assert clean == 9 and raised == 18


def test_broken_evacuation_map_raises_the_sweeps_error(monkeypatch):
    # a body whose map puts the moving set onto a blocked gap, leaves it
    # there (the identity where a move was due) or nudges it at random:
    # the recursion raises exactly where, and what, the full sweep raises
    body = construction._evacuate_merged
    rng = Random(5353)
    seen = Counter()
    for stream in tail_streams(Random(5252), 12, 12):
        for kind in ("onto gap", "identity", "nudge"):
            target = rng.randrange(10)
            nudges = {n: Q(rng.choice((1, -1)), rng.randint(2, 40))
                      for n in rng.sample(range(12), 4)}
            calls = []

            def broken(c_fix, c_move, blocked):
                n = len(calls)
                calls.append(n)
                pi = body(c_fix, c_move, blocked)
                if kind == "onto gap" and n == target:
                    x = c_move.points[0] if c_move.points else \
                        c_move.tails[0].term(0)
                    a, b = blocked[rng.randrange(len(blocked))]
                    return PLMap.translation((a + b) / 2 - x)
                if kind == "identity" and pi is not None:
                    return PLMap.identity()
                if kind == "nudge" and n in nudges:
                    return PLMap.translation(nudges[n]).compose(
                        pi or PLMap.identity())
                return pi

            monkeypatch.setattr(construction, "_evacuate_merged", broken)
            draws = rng.getstate()
            want = run_outcome(sweeping_construction, stream, 11)
            calls.clear()
            rng.setstate(draws)
            got = run_outcome(run_shift_construction, stream, 11)
            monkeypatch.undo()
            assert got == want, kind
            seen[kind, got[0]] += 1
    assert seen["onto gap", "raised"] == 12
    assert seen["identity", "raised"] >= 8
    assert seen["nudge", "raised"] >= 4 and seen["nudge", "ran"] >= 2, seen


def test_recursion_never_sweeps_the_set_to_fix(monkeypatch):
    # the sweeps left on the recursion's path are of pi``incoming and of
    # incoming, never of the shifted set against the whole blocked list
    real = NDSet.closure_meets_sorted
    swept = []

    def recording(self, intervals):
        swept.append(self)
        return real(self, intervals)

    monkeypatch.setattr(NDSet, "closure_meets_sorted", recording)
    log = recording_steps(monkeypatch)
    for s in tail_streams(Random(6262), 8, 12):
        run_shift_construction(s, 11)
    monkeypatch.undo()
    fixed = {id(shifted) for shifted, _, _ in log}
    assert len(log) == 8 * 12 and not any(checked for _, _, checked in log)
    assert swept and not any(id(s) in fixed for s in swept)

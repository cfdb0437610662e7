import math
from collections import Counter
from random import Random

import pytest

from qshift import ndsets
from qshift.construction import (EStream, rational_enum,
                                 run_shift_construction, verify_shift_trace)
from qshift.ndsets import (EMPTY_NDSET, GeomTail, NDSet, fix_violation,
                           ndset_points, tail_final_piece)
from qshift.plmaps import PLMap
from qshift.properties import brute_scan_gap
from qshift.rationals import Interval, LimitError, Q, rat_str
from qshift.sampling import (rng_distinct_rationals, rng_geomtail, rng_ndset,
                             rng_interval, rng_plmap, rng_positive_rational,
                             rng_rational, sample_points)
from qshift.serial import ndset_to_obj


def tail_contains_brute(tail, q, kmax=200):
    """Independent membership oracle: scan term indices directly."""
    for k in range(kmax):
        t = tail.term(k)
        if t == q:
            return True
        if abs(t - tail.limit) < abs(q - tail.limit):
            return False  # terms have passed q on their way to the limit
    return False


def test_contains_examples():
    assert not EMPTY_NDSET.contains(Q(0))
    half = GeomTail(0, 1, Q(1, 2))
    e = NDSet(tails=[half])
    assert e.contains(Q(1, 8))       # k = 3
    assert not e.contains(Q(1, 3))   # no power of two equals 3
    assert not e.contains(Q(0))
    assert e.closure_contains(Q(0))


def test_contains_matches_brute_oracle():
    rng = Random(17)
    for _ in range(300):
        tail = rng_geomtail(rng)
        e = NDSet(tails=[tail])
        q = rng_rational(rng)
        assert e.contains(q) == tail_contains_brute(tail, q)
        k = rng.randrange(0, 12)
        assert e.contains(tail.term(k))


def test_closure_contains():
    e = ndset_points(Q(1, 2))
    assert e.closure_contains(Q(1, 2))
    assert not e.closure_contains(Q(1, 3))
    t = NDSet(tails=[GeomTail(0, 1, Q(1, 2))])
    assert t.closure_contains(Q(0))


def test_head_drop_folds_into_coefficient():
    a = GeomTail(0, 1, Q(1, 2), head_drop=3)
    b = GeomTail(0, Q(1, 8), Q(1, 2))
    assert a == b
    assert a.term(0) == Q(1, 8)


def test_union():
    e = ndset_points(0)
    assert e.union(EMPTY_NDSET) == e
    assert ndset_points(0).union(ndset_points(0)) == ndset_points(0)
    u = ndset_points(Q(1, 2)).union(NDSet(tails=[GeomTail(Q(1, 2), 1, Q(1, 3))]))
    assert len(u.points) == 1 and len(u.tails) == 1
    assert u.closure_contains(Q(1, 2))
    assert u.contains(Q(1, 2))


def test_image_cases():
    e = NDSet([Q(3)], [GeomTail(0, 1, Q(1, 2))])
    assert e.image(PLMap.identity()) == e
    shifted = NDSet(tails=[GeomTail(0, 1, Q(1, 2))]).image(PLMap.translation(1))
    assert shifted == NDSet(tails=[GeomTail(1, 1, Q(1, 2))])


def test_image_under_the_identity_is_the_set_itself(crowded_presentation):
    # the presentation is normalized and immutable, so the identity's
    # image is the set, whichever identity object is applied
    rng = Random(41)
    f = PLMap([(Q(1, 3), Q(1, 2))], Q(2), Q(1, 2))
    identities = (PLMap.identity(), PLMap([(Q(5), Q(5))]), f.compose(f.invert()))
    assert all(g.is_identity for g in identities)
    for i in range(200):
        e = NDSet(*crowded_presentation(rng)) if i % 2 else rng_ndset(rng)
        rebuilt = NDSet(e.points, e.tails)
        for g in identities:
            img = e.image(g)
            assert img is e and img == rebuilt


def test_image_with_breakpoint_pointwise_oracle():
    tail = GeomTail(0, 1, Q(1, 2))
    e = NDSet(tails=[tail])
    f = PLMap([(Q(1, 4), Q(1, 4))], 1, 2)  # kink at 1/4
    img = e.image(f)
    for k in range(12):
        assert img.contains(f.apply(tail.term(k))), k
    # and the reverse direction of the membership equivalence
    for p in sample_points(img, 12):
        assert e.contains(f.invert().apply(p))


def test_find_gap_examples():
    assert EMPTY_NDSET.find_gap(Interval(0, 1)) == Interval(Q(1, 3), Q(2, 3))
    # singletons always admit a gap in any interval
    rng = Random(5)
    for _ in range(50):
        q = rng_rational(rng)
        iv = Interval(q - 1, q + 1)
        gap = ndset_points(q).find_gap(iv)
        assert iv.contains_closed(gap.lower, gap.upper)
        assert not (gap.lower <= q <= gap.upper)
    # the dyadic-tail gap lands between consecutive powers of two
    e = NDSet(tails=[GeomTail(0, 1, Q(1, 2))])
    gap = e.find_gap(Interval(0, 1))
    assert e.closure_meets_closed(gap.lower, gap.upper) is None
    ks = [k for k in range(12)
          if Q(1, 2 ** (k + 1)) <= gap.lower and gap.upper <= Q(1, 2 ** k)]
    assert ks, f"gap {gap} not inside a dyadic step"


def test_find_gap_brute_scan():
    rng = Random(23)
    for _ in range(60):
        e = rng_ndset(rng)
        iv = Interval(*sorted({rng_rational(rng), rng_rational(rng) + 3}))
        gap = e.find_gap(iv)
        assert iv.contains_closed(gap.lower, gap.upper)
        assert brute_scan_gap(e, gap, 128) is None


def test_find_gap_infinite_windows():
    e = ndset_points(0)
    for iv in (Interval(None, None), Interval(None, 0), Interval(0, None)):
        gap = e.find_gap(iv)
        assert iv.contains_closed(gap.lower, gap.upper)
        assert e.closure_meets_closed(gap.lower, gap.upper) is None


def test_subset_of_closure_examples():
    half = NDSet(tails=[GeomTail(0, 1, Q(1, 2))])
    assert half.subset_of_closure(half) is None
    assert ndset_points(Q(1, 4)).subset_of_closure(half) is None
    # 3^-k is never a power of two past k=0
    assert NDSet(tails=[GeomTail(0, 1, Q(1, 3))]).subset_of_closure(half) \
        == Q(1, 3)


def test_subset_of_closure_split_cover():
    half = NDSet(tails=[GeomTail(0, 1, Q(1, 2))])
    quarters = NDSet(tails=[GeomTail(0, 1, Q(1, 4)),
                            GeomTail(0, Q(1, 2), Q(1, 4))])
    assert half.subset_of_closure(quarters) is None
    assert quarters.subset_of_closure(half) is None
    one_parity = NDSet(tails=[GeomTail(0, 1, Q(1, 4))])
    assert half.subset_of_closure(one_parity) == Q(1, 2)
    # 1/8 and 1/4 are powers of 1/2, neither a power of the other:
    # 8^-k = 4^-(3k/2) for even k and (1/2) * 4^-((3k-1)/2) for odd k
    eighths = NDSet([0], [GeomTail(0, 1, Q(1, 8))])
    assert eighths.subset_of_closure(quarters.union(ndset_points(0))) is None
    assert eighths.subset_of_closure(one_parity) == Q(1, 8)
    assert half.subset_of_closure(NDSet(tails=[GeomTail(0, 1, Q(1, 8))])) \
        == Q(1, 2)


def test_subset_of_closure_no_with_point_witness():
    assert ndset_points(Q(5)).subset_of_closure(ndset_points(Q(4))) == Q(5)


def test_nearest_closure_queries():
    e = NDSet([Q(10)], [GeomTail(0, 1, Q(1, 2))])
    assert e.neighbours(Q(3, 4))[0] == Q(1, 2)
    assert e.neighbours(Q(3, 4))[1] == Q(1)
    assert e.neighbours(Q(2))[1] == Q(10)
    assert e.neighbours(Q(-5))[0] is None
    assert e.neighbours(Q(11))[1] is None
    # below-the-limit side of a positive tail is empty
    assert e.neighbours(Q(-1, 2))[0] is None
    with pytest.raises(ValueError):
        e.neighbours(Q(1, 4))  # in the closure


def test_closure_meets_closed():
    e = NDSet([Q(10)], [GeomTail(0, -1, Q(1, 2))])  # terms -1, -1/2, -1/4, ...
    assert e.closure_meets_closed(Q(-1), Q(-1, 2)) == Q(-1)
    assert e.closure_meets_closed(Q(-3, 4), Q(-1, 2)) == Q(-1, 2)
    assert e.closure_meets_closed(Q(-1, 3), Q(-1, 5)) == Q(-1, 4)
    assert e.closure_meets_closed(Q(-1, 10), Q(1)) == Q(0)  # the limit
    assert e.closure_meets_closed(Q(1, 10), Q(5)) is None
    assert e.closure_meets_closed(Q(9), Q(11)) == Q(10)


def test_backward_extension_canonicalization():
    a = NDSet([Q(2)], [GeomTail(0, 1, Q(1, 2))])
    b = NDSet(tails=[GeomTail(0, 2, Q(1, 2))])
    assert a == b
    # point equal to an existing term is absorbed
    c = NDSet([Q(1, 2)], [GeomTail(0, 1, Q(1, 2))])
    assert c == NDSet(tails=[GeomTail(0, 1, Q(1, 2))])


def test_validation():
    with pytest.raises(ValueError):
        GeomTail(0, 0, Q(1, 2))
    with pytest.raises(ValueError):
        GeomTail(0, 1, Q(3, 2))
    with pytest.raises(ValueError):
        GeomTail(0, 1, Q(1, 2), head_drop=-1)


# -- linear-scan oracles for the ordered queries -------------------------

def tail_closure_upto(tail, dist):
    """The tail's limit and its terms up to the first one within dist of
    the limit; every later term lies strictly between that one and the
    limit, so it is never the answer to a query that ``dist`` bounds."""
    out = [tail.limit]
    k = 0
    while True:
        out.append(tail.term(k))
        if abs(tail.term(k) - tail.limit) <= dist:
            return out
        k += 1


def tail_member_scan(tail, q):
    """Membership by walking the terms until they pass q."""
    if q == tail.limit:
        return False
    dist = abs(q - tail.limit)
    k = 0
    while abs(tail.term(k) - tail.limit) >= dist:
        if tail.term(k) == q:
            return True
        k += 1
    return False


def scan_contains(e, q):
    return (any(p == q for p in e.points)
            or any(tail_member_scan(t, q) for t in e.tails))


def scan_closure_meets_closed(e, a, b):
    for p in e.points:
        if a <= p <= b:
            return p
    for t in e.tails:
        if a <= t.limit <= b:
            return t.limit
        dist = min(abs(a - t.limit), abs(b - t.limit))
        inside = [c for c in tail_closure_upto(t, dist)[1:] if a <= c <= b]
        if inside:
            # the term nearest the limit, as the tail query reports it
            return max(inside) if t.coeff > 0 else min(inside)
    return None


def scan_nearest(e, q, below):
    cands = list(e.points)
    for t in e.tails:
        cands.extend(tail_closure_upto(t, abs(q - t.limit)))
    side = [c for c in cands if (c < q if below else c > q)]
    if not side:
        return None
    return max(side) if below else min(side)


def scan_canonical(points, tails):
    """Reference canonical form: extend each tail backwards through the
    set's members, then keep the points no extended tail holds."""
    given = set(points)
    tails = set(tails)
    extended = set()
    for t in tails:
        coeff = t.coeff
        while True:
            prev = t.limit + coeff / t.ratio
            if not (prev in given
                    or any(tail_member_scan(s, prev) for s in tails)):
                break
            coeff = coeff / t.ratio
        extended.add(GeomTail(t.limit, coeff, t.ratio))
    pts = tuple(sorted(p for p in given
                       if not any(tail_member_scan(t, p) for t in extended)))
    return pts, tuple(t._key() for t in sorted(extended, key=GeomTail._key))


def entangled_presentation(rng):
    """Points and tails that overlap: tail terms and backward terms listed
    as points, and tails whose heads sit on other tails' members."""
    tails = [rng_geomtail(rng) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(0, 2)):
        t = rng.choice(tails)
        p = t.term(rng.randint(0, 3))
        limit = rng_rational(rng, 8)
        if limit != p:
            tails.append(GeomTail(limit, p - limit, Q(1, rng.randint(2, 4))))
    points = [rng_rational(rng, 10) for _ in range(rng.randint(0, 4))]
    for t in tails:
        if rng.random() < 0.5:
            points.append(t.term(rng.randint(0, 4)))
        if rng.random() < 0.5:
            points.append(t.limit + t.coeff / t.ratio ** rng.randint(1, 2))
    return points, tails


def probe_points(rng, e):
    qs = [rng_rational(rng, 12) for _ in range(6)]
    qs.extend(e.points)
    for t in e.tails:
        qs.extend((t.limit, t.lo, t.hi, t.term(2), (t.term(0) + t.term(1)) / 2,
                   t.limit + 2 * t.coeff, t.limit - t.coeff))
    return qs


def scan_closure_contains(e, q):
    return scan_contains(e, q) or any(t.limit == q for t in e.tails)


def test_ordered_queries_match_linear_scans(crowded_presentation):
    # entangled presentations, then crowded ones whose hulls pile up, so
    # the hull tests that skip tails run on deeply overlapping hulls
    rng = Random(2024)
    inside = 0  # probes off the closure inside three or more hulls
    for i in range(250):
        points, tails = (entangled_presentation(rng) if i < 150
                         else crowded_presentation(rng))
        e = NDSet(points, tails)
        assert e._key() == scan_canonical(points, tails)
        qs = probe_points(rng, e)
        for q in qs:
            assert e.contains(q) == scan_contains(e, q), q
            assert e.closure_contains(q) == scan_closure_contains(e, q), q
            for t in e.tails:
                assert t.contains(q) == tail_member_scan(t, q), (t, q)
            if not e.closure_contains(q):
                assert e.neighbours(q)[0] == scan_nearest(e, q, True)
                assert e.neighbours(q)[1] == scan_nearest(e, q, False)
                inside += sum(t.lo < q < t.hi for t in e.tails) >= 3
        for _ in range(8):
            a, b = sorted(rng.sample(qs, 2))
            assert e.closure_meets_closed(a, b) == \
                scan_closure_meets_closed(e, a, b), (a, b)
    assert inside >= 100, inside


# -- canonical presentation --------------------------------------------

def test_functoriality_counterexamples():
    # two tails whose head points coincide: the presentation of the
    # image must not depend on which tail is extended first
    e = NDSet([], [GeomTail(Q(-1, 2), Q(-2, 3), Q(1, 2)),
                   GeomTail(Q(1, 2), -2, Q(2, 3))])
    f = PLMap([(0, 0)])
    g = PLMap([(0, Q(7, 4))], 3, 3)
    assert e.image(f.compose(g)) == e.image(g).image(f)
    # a tail's head abuts another tail's term, which only one assembly
    # lists as a point
    e = NDSet([], [GeomTail(Q(3, 4), Q(-3, 4), Q(1, 2)),
                   GeomTail(1, Q(-1, 2), Q(1, 2))])
    f = PLMap([(Q(5, 3), Q(5, 3))], Q(2, 3), Q(3, 4))
    g = PLMap.identity()
    assert e.image(f.compose(g)) == e.image(g).image(f)


def test_presentation_independent_of_assembly():
    rng = Random(4711)
    for _ in range(150):
        points, tails = entangled_presentation(rng)
        want = NDSet(points, tails)._key()
        for _ in range(4):
            pts = points + rng.sample(points, len(points) // 2)
            tls = tails + rng.sample(tails, len(tails) // 2)
            rng.shuffle(pts)
            rng.shuffle(tls)
            # list a tail's head as a point and start the tail after it
            if rng.random() < 0.5:
                i = rng.randrange(len(tls))
                t = tls[i]
                pts.append(t.term(0))
                tls[i] = GeomTail(t.limit, t.coeff, t.ratio, head_drop=1)
            assert NDSet(pts, tls)._key() == want


# -- one query for both directions, against term walks --------------------

def tail_walk_neighbours(tail, q):
    """Nearest closure points of the tail below and above q, from the
    limit and the terms up to the first one strictly nearer the limit
    than q (every later term lies between that one and the limit)."""
    dist = abs(q - tail.limit)
    cands = [tail.limit]
    k = 0
    while True:
        cands.append(tail.term(k))
        if abs(tail.term(k) - tail.limit) < dist:
            break
        k += 1
    below = [c for c in cands if c < q]
    above = [c for c in cands if c > q]
    return (max(below) if below else None, min(above) if above else None)


def tail_walk_meets(tail, a, b):
    """The limit if [a, b] holds it, else the term in [a, b] farthest
    from the limit, by walking the terms until they leave [a, b]."""
    if a <= tail.limit <= b:
        return tail.limit
    dist = min(abs(a - tail.limit), abs(b - tail.limit))
    inside = [c for c in tail_closure_upto(tail, dist)[1:] if a <= c <= b]
    return max(inside, key=lambda c: abs(c - tail.limit)) if inside else None


def tail_probes(rng, tail):
    qs = [tail.term(k) for k in range(4)]
    qs += [(tail.term(k) + tail.term(k + 1)) / 2 for k in range(3)]
    qs += [tail.limit - tail.coeff / 3, tail.limit + 2 * tail.coeff,
           tail.limit + tail.coeff / tail.ratio, tail.limit]
    qs += [rng_rational(rng, 10) for _ in range(4)]
    return qs


def test_tail_neighbours_and_meets_match_term_walks():
    rng = Random(31337)
    signs = set()
    for _ in range(150):
        tail = rng_geomtail(rng)
        signs.add(tail.coeff > 0)
        qs = tail_probes(rng, tail)
        for q in qs:
            if q == tail.limit:
                with pytest.raises(ValueError):
                    tail.neighbours(q)
            else:
                assert tail.neighbours(q) == tail_walk_neighbours(tail, q), \
                    (tail, q)
        for a in qs:
            for b in qs:
                if a <= b:
                    assert tail.closure_meets_closed(a, b) == \
                        tail_walk_meets(tail, a, b), (tail, a, b)
    assert signs == {True, False}


def map_through(rng, anchors):
    """An increasing map with a breakpoint at every anchor and a few more."""
    xs = sorted(set(anchors) | set(rng_distinct_rationals(rng, rng.randint(1, 3))))
    ys = rng_distinct_rationals(rng, len(xs), span=40)
    return PLMap(tuple(zip(xs, ys)), Q(rng.randint(1, 4), rng.randint(1, 4)),
                 Q(rng.randint(1, 4), rng.randint(1, 4)))


def test_tail_final_piece_exact_and_minimal():
    rng = Random(5150)
    for _ in range(300):
        tail = rng_geomtail(rng)
        anchors = rng.sample([tail.limit, tail.term(0), tail.term(1),
                              tail.term(3), (tail.term(1) + tail.term(2)) / 2,
                              tail.limit - tail.coeff], rng.randint(0, 3))
        f = map_through(rng, anchors)
        k0, slope = tail_final_piece(f, tail)
        fl = f.apply(tail.limit)
        affine = lambda x: fl + slope * (x - tail.limit)
        # exact: every term from k0 on maps affinely
        for k in range(k0, k0 + 6):
            assert f.apply(tail.term(k)) == affine(tail.term(k)), (f, tail, k)
        # minimal: a breakpoint lies between the limit (excluded) and
        # term k0 - 1 (included), and nothing lies before term k0
        side = [x for x in f._xs if 0 < (x - tail.limit) / tail.coeff]
        nearest = lambda k: [x for x in side
                             if (x - tail.limit) / tail.coeff <= tail.ratio ** k]
        assert not nearest(k0)
        if k0:
            assert nearest(k0 - 1)
            # the term before k0 sits on the piece's far breakpoint or in
            # the next piece, where the slope differs
            x_star = min(side, key=lambda x: abs(x - tail.limit))
            x = tail.term(k0 - 1)
            if x == x_star:
                assert f.apply(x) == affine(x)
            elif len(nearest(k0 - 1)) == 1:
                assert f.apply(x) != affine(x)


def covered_by_aps(aps, k):
    return any(k >= start and (k - start) % step == 0 for start, step in aps)


def test_tail_cover_aps_match_term_walks():
    # one rule for every pair of ratios that are powers of one root rho:
    # term k of t is a term of s on one progression with step b/gcd(a, b)
    limit = Q(1, 3)
    for rho in (Q(2, 3), Q(1, 2)):
        for c in (Q(3, 2), Q(-5, 7)):
            for a in (1, 2, 3, 4, 6):
                for b in (1, 2, 3, 4, 6):
                    for e in range(-7, 4):
                        s = GeomTail(limit, c, rho ** b)
                        t = GeomTail(limit, c * rho ** e, rho ** a)
                        aps, independent = \
                            NDSet(tails=[s])._tail_cover_aps(t)
                        g = math.gcd(a, b)
                        assert independent == 0
                        assert [step for _, step in aps] == \
                            ([b // g] if e % g == 0 else []), (a, b, e)
                        if b == 1:
                            # t.ratio == s.ratio**a: every exponent from
                            # a start on
                            assert aps == [(max(0, -(e // a)), 1)]
                        for k in range(40):
                            assert covered_by_aps(aps, k) == \
                                s.contains(t.term(k)), (a, b, e, k)


def test_tail_cover_aps_of_ratios_not_powers_of_each_other():
    def aps(t_coeff, t_ratio, s_coeff, s_ratio):
        s = GeomTail(0, s_coeff, s_ratio)
        return NDSet(tails=[s])._tail_cover_aps(GeomTail(0, t_coeff, t_ratio))

    # 8^-k is 4^-j for even k, and (1/2) * 4^-j for odd k
    assert aps(1, Q(1, 8), 1, Q(1, 4)) == ([(0, 2)], 0)
    assert aps(1, Q(1, 8), Q(1, 2), Q(1, 4)) == ([(1, 2)], 0)
    assert aps(1, Q(1, 4), 1, Q(1, 8)) == ([(0, 3)], 0)
    # (4/9)^k = (8/27)^j iff 2k = 3j, and (2/3) * (8/27)^j iff 2k = 3j + 1
    assert aps(1, Q(4, 9), 1, Q(8, 27)) == ([(0, 3)], 0)
    assert aps(1, Q(4, 9), Q(2, 3), Q(8, 27)) == ([(2, 3)], 0)
    assert aps(1, Q(8, 27), 1, Q(4, 9)) == ([(0, 2)], 0)
    assert aps(Q(2, 3), Q(8, 27), 1, Q(4, 9)) == ([(1, 2)], 0)
    # (1/2) * 4^-k is an odd power of 1/2, 16^-j an even one
    assert aps(Q(1, 2), Q(1, 4), 1, Q(1, 16)) == ([], 0)
    # independent ratios share at most one term; other sides share none
    assert aps(1, Q(1, 2), Q(1, 4), Q(1, 3)) == ([], 1)
    assert aps(1, Q(1, 2), -1, Q(1, 2)) == ([], 0)


def test_common_roots():
    for rho in (Q(1, 2), Q(2, 3), Q(1, 6), Q(5, 12), Q(7, 8)):
        for a in (1, 2, 3, 4, 6, 12):
            for b in (1, 2, 3, 5, 8, 12):
                assert ndsets._common_root(rho ** a, rho ** b) == \
                    rho ** math.gcd(a, b), (rho, a, b)
    assert ndsets._common_root(Q(1, 2 ** 600), Q(1, 2 ** 450)) == \
        Q(1, 2 ** 150)
    for u, v in ((Q(1, 2), Q(1, 3)), (Q(1, 4), Q(3, 8)), (Q(4, 9), Q(2, 9)),
                 (Q(1, 2), Q(2, 3)), (Q(2, 3), Q(3, 4)),
                 (Q(1, 6), Q(1, 180))):
        assert ndsets._common_root(u, v) is None, (u, v)
        assert ndsets._common_root(v, u) is None, (v, u)


# roots shared by families of ratios, and ratios independent of all of them
_ROOT_POWERS = ((Q(1, 2), (1, 2, 3)), (Q(2, 3), (2, 3)))
_INDEPENDENT = (Q(1, 3), Q(1, 5))


def _same_limit_family(rng):
    """A tail and a set whose tails mostly share its limit, with ratios
    that are powers of the tail's root (1/2, 1/4, 1/8, 4/9, 8/27) or
    independent of it, plus points: some terms of the tail, some stray."""
    limit = Q(rng.randint(-2, 2), rng.choice((1, 2, 3)))
    rho, powers = rng.choice(_ROOT_POWERS)
    c = rng.choice((1, -1)) * rng.choice((Q(1), Q(3, 2), Q(4, 9)))
    t = GeomTail(limit, c, rho ** rng.choice(powers))
    tails = []
    for _ in range(rng.randint(0, 4)):
        u = rng.random()
        if u < 0.7:
            tails.append(GeomTail(limit, c * rho ** rng.randint(-2, 5),
                                  rho ** rng.choice(powers)))
        elif u < 0.8:
            tails.append(GeomTail(limit, -c, rho ** rng.choice(powers)))
        elif u < 0.9:
            tails.append(GeomTail(limit, c * rng.choice((1, Q(1, 3))),
                                  rng.choice(_INDEPENDENT)))
        else:
            tails.append(GeomTail(limit + Q(rng.randint(-2, 2), 7), c,
                                  t.ratio))
    points = [t.term(k) for k in range(rng.randint(0, 6))
              if rng.random() < 0.8]
    points += [limit + Q(rng.randint(-9, 9), rng.randint(1, 40))
               for _ in range(rng.randint(0, 2))]
    return t, NDSet(points, tails)


def _head_brute(e, t):
    """The least k from which the terms of t lie nearer to its limit than
    every closure point of e but the limit and the terms of the tails
    with that limit, by walking the terms."""
    rest = NDSet([p for p in e.points if p != t.limit],
                 [s for s in e.tails if s.limit != t.limit])
    below, above = rest._neighbours(t.limit)
    near = above if t.coeff > 0 else below
    k = 0
    while near is not None and abs(t.term(k) - t.limit) >= \
            abs(near - t.limit):
        k += 1
    return k


def test_subset_of_closure_matches_term_scan_on_same_limit_families():
    # the oracle scans the closure for the first 400 terms; every witness
    # is the same, and lies below the bound the exact scan relies on
    rng = Random(2024)
    held = escaped = 0
    for _ in range(400):
        t, e = _same_limit_family(rng)
        want = next((t.term(k) for k in range(400)
                     if not e.closure_contains(t.term(k))), None)
        assert NDSet(tails=[t]).subset_of_closure(e) == want, (t, e)
        if want is None:
            held += 1
            continue
        escaped += 1
        aps, independent = e._tail_cover_aps(t)
        start = max((s for s, _ in aps), default=0)
        period = math.lcm(*(step for _, step in aps))
        k = next(k for k in range(400) if t.term(k) == want)
        assert k < max(start, _head_brute(e, t)) + period * (independent + 1)
    assert held > 80 and escaped > 200, (held, escaped)


def test_power_search_refuses_past_the_digit_cap():
    assert ndsets._min_pow_lt(Q(1, 2), Q(1, 1000)) == (10, Q(1, 1024))
    # 10**4200 has 4201 digits: the square 10**-8192 passes the cap, but
    # the answer does not
    assert ndsets._min_pow_lt(Q(1, 10), Q(1, 10 ** 4200)) == \
        (4200, Q(1, 10 ** 4200))
    # 10**4300 has 4301
    with pytest.raises(LimitError):
        ndsets._min_pow_lt(Q(1, 10), Q(1, 10 ** 4300))
    # a ratio near 1: the least power below 1/3 has about 550,000 digits
    with pytest.raises(LimitError):
        ndsets._min_pow_lt(Q(99999, 100000), Q(1, 3))


def min_pow_two_modes(r, bound, strict=True):
    """The exponent search with both of its former modes: minimal k >= 0
    with r**k < bound (<= when strict=False); None if no k."""
    if bound <= 0:
        return None
    one = Q(1)
    if (one < bound) if strict else (one <= bound):
        return 0
    hi = 1
    while not ((r ** hi < bound) if strict else (r ** hi <= bound)):
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if (r ** mid < bound) if strict else (r ** mid <= bound):
            hi = mid
        else:
            lo = mid
    return hi


def neighbours_by_two_searches(tail, q):
    """``GeomTail.neighbours`` as it was: one strict and one non-strict
    search per query."""
    t = (q - tail.limit) / tail.coeff
    if t < 0:
        under, over = None, tail.limit
    else:
        under = tail.term(min_pow_two_modes(tail.ratio, t))
        k = min_pow_two_modes(tail.ratio, t, strict=False)
        over = tail.term(k - 1) if k else None
    return (under, over) if tail.coeff > 0 else (over, under)


def test_one_power_search_matches_the_two_mode_oracle():
    rng = Random(2718)
    exact = 0
    for _ in range(300):
        tail = rng_geomtail(rng)
        r = tail.ratio
        # exact powers (1 among them), points between powers, t >= 1,
        # t <= 0 and random bounds
        ts = [r ** rng.randint(0, 40) for _ in range(3)]
        ts += [(r ** k + r ** (k + 1)) / 2 for k in (0, 2, 7)]
        ts += [Q(1), 1 / r, Q(5, 2), Q(0), -r, rng_rational(rng, 10)]
        ts += [rng_positive_rational(rng) for _ in range(3)]
        for t in ts:
            k = min_pow_two_modes(r, t, strict=False)
            assert ndsets._min_pow_lt(r, t) == \
                (None if k is None else (k, r ** k)), (r, t)
            q = tail.limit + tail.coeff * t
            assert tail.first_k_inside(q) == min_pow_two_modes(r, t), (tail, t)
            if t != 0:
                assert tail.neighbours(q) == neighbours_by_two_searches(
                    tail, q), (tail, t)
            # the modes differ exactly where t is a power of r
            exact += min_pow_two_modes(r, t) != min_pow_two_modes(
                r, t, strict=False)
    assert exact > 900, exact


def test_subset_of_closure_refuses_past_its_caps(monkeypatch):
    half = NDSet(tails=[GeomTail(0, 1, Q(1, 2))])
    # the first four terms are points of the other set, the fifth escapes
    crowded = ndset_points(1, Q(1, 2), Q(1, 4), Q(1, 8))
    assert half.subset_of_closure(crowded) == Q(1, 16)
    monkeypatch.setattr(ndsets, "_HEAD_CAP", 3)
    with pytest.raises(LimitError):
        half.subset_of_closure(crowded)
    # the tails with ratios 1/4 and 1/8 cover the exponents with period 6
    parts = NDSet(tails=[GeomTail(0, 1, Q(1, 4)), GeomTail(0, 1, Q(1, 8))])
    assert half.subset_of_closure(parts) == Q(1, 2)
    monkeypatch.setattr(ndsets, "_AP_MODULUS_CAP", 5)
    with pytest.raises(LimitError):
        half.subset_of_closure(parts)


# -- union merges two normalized presentations -----------------------------

def union_pair(rng):
    """Two sets dealt out of one entangled presentation, so tails of one
    side often abut members of the other; some parts go to both."""
    points, tails = entangled_presentation(rng)
    sides = ([], []), ([], [])
    for part, kind in [(p, 0) for p in points] + [(t, 1) for t in tails]:
        for side in rng.choice(((0,), (1,), (0, 1))):
            sides[side][kind].append(part)
    return NDSet(*sides[0]), NDSet(*sides[1])


def test_union_examples():
    half = GeomTail(0, 1, Q(1, 2))
    e = NDSet([5], [half])
    assert e.union(EMPTY_NDSET) is e and EMPTY_NDSET.union(e) is e
    assert e.union(NDSet([5], [half])) == e
    # grows through the other side's point 2, then through its own point 4
    u = NDSet([4], [half]).union(ndset_points(2))
    assert u.points == () and u.tails == (GeomTail(0, 4, Q(1, 2)),)
    # grows through a term of the other side's tail (3 - 1 = 2)
    u = NDSet(tails=[half]).union(NDSet(tails=[GeomTail(3, -1, Q(1, 3))]))
    assert GeomTail(0, 2, Q(1, 2)) in u.tails
    # a head term listed as a point on the other side is absorbed
    u = NDSet(tails=[half]).union(ndset_points(1, Q(1, 3)))
    assert u.points == (Q(1, 3),) and u.tails == (half,)


def test_union_matches_from_scratch_normalization():
    rng = Random(5150)
    grew = absorbed = 0
    for _ in range(400):
        a, b = union_pair(rng)
        if rng.random() < 0.1:
            a = EMPTY_NDSET
        want = NDSet(a.points + b.points, a.tails + b.tails)
        got = a.union(b)
        assert got._key() == want._key(), (a, b)
        assert b.union(a)._key() == want._key(), (a, b)
        grew += not set(got.tails) <= set(a.tails + b.tails)
        absorbed += len(got.points) < len(set(a.points + b.points))
    # the grown-tail and absorbed-point paths were both exercised
    assert grew >= 20 and absorbed >= 20, (grew, absorbed)


def lopsided_pair(rng):
    """Sixty points against one, with duplicates across the sides and,
    sometimes, a tail on one side holding points of the other."""
    many = [rng_rational(rng, 9) for _ in range(60)]
    one = [rng.choice(many) if rng.random() < 0.4 else rng_rational(rng, 9)]
    many_tails, one_tails = [], []
    if rng.random() < 0.5:
        t = rng_geomtail(rng)
        many += [t.term(k) for k in range(rng.randint(0, 3))]
        one_tails.append(t)
    if rng.random() < 0.3:
        t = rng_geomtail(rng)
        one.append(t.term(rng.randint(0, 3)))
        many_tails.append(t)
    return NDSet(many, many_tails), NDSet(one, one_tails)


def test_union_of_lopsided_sets_matches_from_scratch_build():
    rng = Random(6060)
    shared = absorbed = 0
    for _ in range(200):
        a, b = lopsided_pair(rng)
        want = NDSet(a.points + b.points, a.tails + b.tails)
        assert a.union(b)._key() == want._key(), (a, b)
        assert b.union(a)._key() == want._key(), (a, b)
        shared += bool(set(a.points) & set(b.points))
        absorbed += len(want.points) < len(set(a.points + b.points))
    assert shared >= 40 and absorbed >= 40, (shared, absorbed)


def hash_then_sort_build(points, tails):
    """Reference construction: a hash set of the points, sorted, with
    the tails extended and the held points dropped as NDSet does."""
    given = {Q(p) for p in points}
    tails = set(tails)
    extended = set()
    for t in tails:
        coeff = t.coeff
        prev = t.limit + coeff / t.ratio
        while prev in given or any(s.contains(prev) for s in tails):
            coeff = coeff / t.ratio
            prev = t.limit + coeff / t.ratio
        extended.add(GeomTail(t.limit, coeff, t.ratio))
    tl = tuple(sorted(extended, key=GeomTail._key))
    pts = tuple(p for p in sorted(given)
                if not any(t.contains(p) for t in tl))
    return pts, tuple(t._key() for t in tl)


def test_construction_matches_hash_then_sort_build(crowded_presentation):
    rng = Random(7070)
    grew = 0  # crowded presentations in which a tail was extended
    for i in range(400):
        if i >= 300:
            points, tails = crowded_presentation(rng)
        else:
            points, tails = ([], []) if rng.random() < 0.4 else \
                entangled_presentation(rng)
        points += [rng_rational(rng, 5) for _ in range(rng.randint(0, 12))]
        points += rng.choices(points, k=rng.randint(0, 6)) if points else []
        order = rng.random()
        if order < 0.3:
            points.sort()
        elif order < 0.5:
            points.sort(reverse=True)
        else:
            rng.shuffle(points)
        want = hash_then_sort_build(points, tails)
        assert NDSet(points, tails)._key() == want, (points, tails)
        assert NDSet(sorted(points) + sorted(points))._key() == \
            hash_then_sort_build(points, [])
        grew += i >= 300 and not set(want[1]) <= {t._key() for t in tails}
    assert grew >= 50, grew


# -- the brute gap scan reads only the part of the set near the gap ---------

def unwindowed_scan_gap(e, gap, max_den):
    """The brute gap scan over the whole set, as it was before windowing."""
    a, b = gap.lower, gap.upper
    for d in range(1, max_den + 1):
        n = -((-a.numerator * d) // a.denominator)  # ceil(a*d)
        top = (b.numerator * d) // b.denominator    # floor(b*d)
        while n <= top:
            if math.gcd(n, d) == 1 and e.closure_contains(Q(n, d)):
                return Q(n, d)
            n += 1
    return None


def scan_candidates(a, b, max_den):
    for d in range(1, max_den + 1):
        for n in range(-((-a.numerator * d) // a.denominator),
                       (b.numerator * d) // b.denominator + 1):
            if math.gcd(n, d) == 1:
                yield Q(n, d)


def max_hull_depth(e):
    return max((sum(t.lo <= q <= t.hi for t in e.tails)
                for q in probe_points(Random(0), e)), default=0)


def test_windowed_gap_scan_matches_unwindowed_oracle(crowded_presentation):
    rng = Random(777)
    max_den = 12
    pairs = hits = nonempty_misses = crowded = 0
    for i in range(250):
        kind = i % 3
        if kind == 0:
            e = rng_ndset(rng)
        elif kind == 1:
            e = NDSet(*entangled_presentation(rng))
        else:
            e = NDSet(*crowded_presentation(rng))
            crowded += max_hull_depth(e) >= 5
        qs = probe_points(rng, e)
        intervals = [e.find_gap(rng_interval(rng))]
        for _ in range(3):
            q = rng.choice(qs)
            w = Q(1, rng.randint(1, 8))
            # the lower end is q itself a quarter of the time
            intervals.append(Interval(q - w * Q(rng.randint(0, 3), 3), q + w))
        a, b = sorted(rng.sample(qs, 2)) if len(set(qs)) > 1 else (qs[0],
                                                                  qs[0] + 1)
        if a < b and b - a <= 2:
            intervals.append(Interval(a, b))
        for gap in intervals:
            a, b = gap.lower, gap.upper
            view = e.within(a, b)
            rebuilt = NDSet(view.points, view.tails)
            assert view._key() == rebuilt._key(), (e, gap)
            for q in scan_candidates(a, b, max_den):
                assert view.closure_contains(q) == e.closure_contains(q), \
                    (e, gap, q)
            got = brute_scan_gap(e, gap, max_den)
            assert got == unwindowed_scan_gap(e, gap, max_den), (e, gap)
            pairs += 1
            hits += got is not None
            nonempty_misses += got is None and not view.is_empty
    # witnesses were found, gaps were scanned through a nonempty view, and
    # sets with deeply overlapping hulls were among the inputs
    assert pairs >= 1000 and hits >= 300 and nonempty_misses >= 100, \
        (pairs, hits, nonempty_misses)
    assert crowded >= 40, crowded


def test_within_keeps_what_can_meet_the_interval():
    e = NDSet([-3, 0, 1, 5], [GeomTail(2, 1, Q(1, 2)),
                              GeomTail(-2, -1, Q(1, 3))])
    v = e.within(Q(1), Q(5, 2))
    assert v.points == (Q(1),) and v.tails == (GeomTail(2, 1, Q(1, 2)),)
    # hulls are closed: an interval ending on a limit keeps the tail
    assert e.within(-5, -2).tails == (GeomTail(-2, -1, Q(1, 3)),)
    assert e.within(Q(7, 2), Q(9, 2)).is_empty


# -- hull-first tail queries ---------------------------------------------------

def test_previous_term_is_derived_and_kept_out_of_identity():
    rng = Random(2828)
    for _ in range(200):
        t = rng_geomtail(rng)  # some with a head drop folded in
        assert t.prev == t.limit + t.coeff / t.ratio
        assert t._key() == (t.limit, t.coeff, t.ratio)
        assert hash(t) == hash((t.limit, t.coeff, t.ratio))
        assert t == GeomTail(t.limit, t.coeff / t.ratio, t.ratio, head_drop=1)
        assert ndset_to_obj(NDSet(tails=[t]))["tails"] == [
            {"limit": rat_str(t.limit), "coeff": rat_str(t.coeff),
             "ratio": rat_str(t.ratio), "headDrop": 0}]
    with pytest.raises(AttributeError):
        t.prev = t.limit


def seeded_tail_streams(count=8, steps=12):
    """(stream, steps) for streams of one random point and one random
    tail per increment, the shape of the benchmark's tail streams."""
    for i in range(count):
        rng = Random(f"hull-first:{i}")
        yield EStream([NDSet([rng_rational(rng, 10)], [rng_geomtail(rng)])
                       for _ in range(steps + 2)]), steps


def construct_and_replay(streams):
    for stream, steps in streams:
        trace = run_shift_construction(stream, steps)
        assert verify_shift_trace(trace, stream).passed


def test_every_union_of_tail_streams_matches_from_scratch_build(monkeypatch):
    union = NDSet.union
    seen = Counter()

    def checked(a, b):
        got = union(a, b)
        want = NDSet(a.points + b.points, a.tails + b.tails)
        assert got._key() == want._key(), (a, b)
        seen["unions"] += 1
        seen["grown"] += not set(got.tails) <= set(a.tails + b.tails)
        seen["merged"] += bool(a.tails and b.tails)
        return got

    monkeypatch.setattr(NDSet, "union", checked)
    construct_and_replay(seeded_tail_streams())
    assert seen["unions"] >= 150 and seen["merged"] >= 150, seen
    assert seen["grown"] >= 8, seen


def hull_span(e):
    """Least and greatest closure point of a nonempty set, from scratch."""
    ends = list(e.points) + [x for t in e.tails for x in (t.limit, t.term(0))]
    return min(ends), max(ends)


def test_tail_queries_search_only_the_hulls_that_matter(monkeypatch):
    calls = Counter()
    neighbours = GeomTail.neighbours
    extend_through = ndsets._extend_through

    def neighbours_inside_hull(t, q):
        assert t.lo < q < t.hi, (t, q)
        calls["neighbours"] += 1
        return neighbours(t, q)

    def extend_from_inside_hull(t, mine, theirs):
        lo, hi = hull_span(theirs)
        assert lo <= t.prev <= hi, (t, theirs)
        calls["extend"] += 1
        return extend_through(t, mine, theirs)

    monkeypatch.setattr(GeomTail, "neighbours", neighbours_inside_hull)
    monkeypatch.setattr(ndsets, "_extend_through", extend_from_inside_hull)
    construct_and_replay(seeded_tail_streams())
    assert calls["neighbours"] >= 50 and calls["extend"] >= 200, calls


def test_union_of_tail_free_sets_does_no_tail_work(monkeypatch):
    calls = Counter()
    for name in ("_extend_through", "_held_points"):
        def counted(*args, _f=getattr(ndsets, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(ndsets, name, counted)
    union = NDSet.union
    tail_free = 0

    def checked(a, b):
        nonlocal tail_free
        before = sum(calls.values())
        got = union(a, b)
        if not (a.tails or b.tails):
            assert sum(calls.values()) == before, (a, b)
            tail_free += 1
        return got

    monkeypatch.setattr(NDSet, "union", checked)
    points = EStream([ndset_points(rational_enum(i)) for i in range(14)])
    construct_and_replay([(points, 12)])
    assert tail_free >= 20, tail_free
    a, b = ndset_points(1, 3), ndset_points(2)
    before = sum(calls.values())
    assert a.union(b).points == (1, 2, 3)
    assert sum(calls.values()) == before


def every_tail_fix_violation(f, support):
    """``fix_violation`` as it was before tails were skipped by hull: every
    tail's final piece and head terms are evaluated."""
    if f.is_identity:
        return None
    p = f.first_moved(support.points)
    if p is not None:
        return p
    for t in support.tails:
        k0, slope = tail_final_piece(f, t)
        if slope != 1 or f.apply(t.term(k0)) != t.term(k0):
            return t.term(k0)
        for k in range(k0):
            if f.apply(t.term(k)) != t.term(k):
                return t.term(k)
    return None


def map_around_hulls(rng, e):
    """An increasing map that is the identity on the hulls of some tails,
    fixes only the members of some others (limit and head terms pinned,
    a breakpoint between two terms) and may move points elsewhere."""
    fixed, identity_hulls = set(rng_distinct_rationals(rng, 2)), []
    for t in e.tails:
        r = rng.random()
        if r < 0.5:
            fixed |= {t.lo, t.hi}
            identity_hulls.append((t.lo, t.hi))
        elif r < 0.7:
            fixed |= {t.limit, t.term(1), t.term(0)}
    xs = sorted(fixed)
    bps = []
    for x, nxt in zip(xs, xs[1:] + [None]):
        bps.append((x, x))
        if (nxt is not None and rng.random() < 0.6
                and not any(lo <= x and nxt <= hi for lo, hi in identity_hulls)):
            bps.append(((x + nxt) / 2,
                        x + (nxt - x) * rng.choice((Q(1, 4), Q(3, 4)))))
    slopes = (Q(1), Q(1, 2), Q(2))
    return PLMap(bps, rng.choice(slopes), rng.choice(slopes))


def test_fix_violation_matches_every_tail_oracle(crowded_presentation):
    rng = Random(2829)
    seen = Counter()
    for i in range(600):
        e = (NDSet(*crowded_presentation(rng)) if i % 3 == 0
             else rng_ndset(rng, max_points=2, max_tails=4))
        f = rng_plmap(rng) if i % 5 == 0 else map_around_hulls(rng, e)
        got = fix_violation(f, e)
        assert got == every_tail_fix_violation(f, e), (f, e)
        skipped = [t for t in e.tails
                   if all(f.apply(x) == x for x in (t.lo, t.hi))
                   and f.piece_beside(t.lo, True)[1] == 1
                   and f.piece_beside(t.hi, False)[1] == 1]
        seen["skippable"] += bool(skipped) and not f.is_identity
        seen["tail witness"] += got is not None and got not in e.points
        seen["fixed with tails"] += got is None and bool(e.tails)
    assert min(seen.values()) >= 60, seen


# -- image keeps the parts an increasing map leaves normalized -----------------

def renormalizing_image(e, f):
    """``NDSet.image`` as it was before its fast paths: every tail's final
    piece evaluated, and the parts normalized from scratch."""
    if f.is_identity:
        return e
    pts = [f.apply(p) for p in e.points]
    tails = []
    for t in e.tails:
        k0, slope = tail_final_piece(f, t)
        pts.extend(f.apply(t.term(k)) for k in range(k0))
        tails.append(GeomTail(f.apply(t.limit),
                              slope * t.coeff * t.ratio ** k0, t.ratio))
    return NDSet(pts, tails)


def prev_onto_member(rng):
    """A tail, a point and a map with one breakpoint x between the tail's
    head and previous terms, under which the image of the point is the
    image tail's previous term: with slope s1 on the limit's side of x and
    s2 on the other, the point is x + s1 * (prev - x) / s2.  Half the maps
    are the identity on the limit's side, so the image keeps the tail."""
    t = GeomTail(rng_rational(rng, 6),
                 rng.choice((1, -1)) * rng_positive_rational(rng, 3),
                 Q(1, rng.randint(2, 5)))
    x = (t.term(0) + t.prev) / 2
    if rng.random() < 0.5:
        s1, s2, y = Q(1), rng.choice((Q(1, 2), Q(2), Q(3))), x
    else:
        s1, s2 = rng.sample((Q(1), Q(1, 2), Q(2), Q(3)), 2)
        y = rng_rational(rng, 6)
    f = PLMap([(x, y)], *((s1, s2) if t.coeff > 0 else (s2, s1)))
    extra = rng_ndset(rng, max_points=2, max_tails=1)
    e = NDSet([x + s1 * (t.prev - x) / s2, *extra.points],
              [t, *extra.tails])
    return e, f


def test_image_matches_renormalizing_oracle(crowded_presentation,
                                            monkeypatch):
    real_init = NDSet.__init__
    builds = []

    def counting(self, *args, **kwargs):
        builds.append(None)
        real_init(self, *args, **kwargs)

    rng = Random(2929)
    seen = Counter()
    for i in range(1200):
        if i % 4 == 3:
            e, f = prev_onto_member(rng)
        else:
            e = (NDSet(*crowded_presentation(rng)) if i % 4 == 0
                 else rng_ndset(rng, max_points=3, max_tails=4))
            f = (rng_plmap(rng) if i % 3 == 0 else map_around_hulls(rng, e))
        if i % 11 == 0 and not e.is_empty:
            # a bump beyond the set's hull
            hi = max([*e.points, *(t.hi for t in e.tails)])
            f = PLMap([(hi + 1, hi + 1), (hi + 2, hi + 3), (hi + 4, hi + 4)])
        monkeypatch.setattr(NDSet, "__init__", counting)
        builds.clear()
        got = e.image(f)
        monkeypatch.undo()
        assert got == renormalizing_image(e, f), (e, f)
        assert type(got.points) is tuple and type(got.tails) is tuple
        if f.is_identity:
            continue
        if got is e:
            seen["whole set kept"] += 1
            continue
        seen["tail kept"] += any(t is s for t in got.tails for s in e.tails)
        heads = any(tail_final_piece(f, t)[0] for t in e.tails)
        if not builds:
            seen["wrapped"] += 1
        elif heads:
            seen["head terms normalized"] += 1
        else:
            seen["previous term on a member"] += 1
    assert min(seen.values()) >= 40, seen

"""Seeded invariant suites for every module, with counterexample shrinking.

Each property draws its own cases from a random.Random seeded by the
caller, so a (seed, cases) pair fully determines the verdict and any
counterexample.  On failure the offending inputs are greedily shrunk
through type-aware reductions before being reported.
"""

from __future__ import annotations

import math
from random import Random
from typing import Any, Callable, Dict, Iterable, List, Optional

from .construction import (EStream, canonical_interval, pair_index,
                           rational_enum, run_shift_construction,
                           verify_shift_trace, witness_subgroup)
from .hfa import Atom, HFAValue, SeqNode, SetNode, act, atoms_support, in_sym
from .ndsets import NDSet
from .plmaps import PLMap, squeeze_map
from .rationals import Interval, Q, QshiftError, rat_str
from .sampling import (_below, fix_members, rng_distinct_rationals, rng_hfa,
                       rng_interval, rng_ndset, rng_plmap, rng_rational,
                       sample_points)
from .serial import (hfa_to_obj, interval_to_obj, ndset_to_obj, plmap_to_obj,
                     term_to_obj)
from .subgroups import (Conj, Fix, Inter, ShiftProblem, Stab, SubgroupTerm,
                        check_shift_witness, fix_leq, fix_violation,
                        member, normalize)


# -- counterexample helpers ---------------------------------------------------

def to_jsonable(v: Any) -> Any:
    if isinstance(v, Q):
        return rat_str(v)
    if isinstance(v, PLMap):
        return plmap_to_obj(v)
    if isinstance(v, NDSet):
        return ndset_to_obj(v)
    if isinstance(v, Interval):
        return interval_to_obj(v)
    if isinstance(v, HFAValue):
        return hfa_to_obj(v)
    if isinstance(v, SubgroupTerm):
        return term_to_obj(v)
    if isinstance(v, (list, tuple)):
        return [to_jsonable(x) for x in v]
    return v


def _variants(v: Any) -> Iterable[Any]:
    """Simpler candidates for one value, best first."""
    if isinstance(v, Q):
        if v != 0:
            yield Q(0)
        whole = Q(v.numerator // v.denominator)
        if whole != v:
            yield whole
    elif isinstance(v, PLMap):
        if not v.is_identity:
            yield PLMap.identity()
        if len(v.breakpoints) > 1:
            for i in range(len(v.breakpoints)):
                bps = v.breakpoints[:i] + v.breakpoints[i + 1:]
                yield PLMap(bps, v.left_slope, v.right_slope)
        if v.left_slope != 1 or v.right_slope != 1:
            yield PLMap(v.breakpoints)
    elif isinstance(v, NDSet):
        for i in range(len(v.points)):
            yield NDSet(v.points[:i] + v.points[i + 1:], v.tails)
        for i in range(len(v.tails)):
            yield NDSet(v.points, v.tails[:i] + v.tails[i + 1:])
    elif isinstance(v, (SetNode, SeqNode)):
        kids = v.elements if isinstance(v, SetNode) else v.items
        make = SetNode if isinstance(v, SetNode) else SeqNode
        for i in range(len(kids)):
            yield make(kids[:i] + kids[i + 1:])
        yield from kids
    elif isinstance(v, Atom):
        if v.value != 0:
            yield Atom(0)


_SHRINK_BUDGET = 200  # candidate inputs tried per counterexample


def _shrink(inputs: Dict[str, Any],
            still_fails: Callable[[Dict[str, Any]], bool]) -> Dict[str, Any]:
    current = dict(inputs)
    spent = 0
    improved = True
    while improved and spent < _SHRINK_BUDGET:
        improved = False
        for key in list(current):
            for cand in _variants(current[key]):
                trial = dict(current)
                trial[key] = cand
                spent += 1
                try:
                    bad = still_fails(trial)
                except Exception:
                    bad = False
                if bad:
                    current = trial
                    improved = True
                    break
                if spent >= _SHRINK_BUDGET:
                    return current
            if improved:
                break
    return current


def _counterexample(law: str, inputs: Dict[str, Any],
                    detail: Optional[str] = None) -> dict:
    """A counterexample record; without a detail it has no detail field."""
    rec = {"law": law}
    if detail is not None:
        rec["detail"] = detail
    rec["inputs"] = {k: to_jsonable(v) for k, v in inputs.items()}
    return rec


def _fail_case(name: str, inputs: Dict[str, Any],
               still_fails: Callable[[Dict[str, Any]], bool],
               detail: str = "") -> dict:
    return _counterexample(name, _shrink(inputs, still_fails), detail)


# -- individual properties ------------------------------------------------------

def prop_group_laws(rng: Random, cases: int) -> Optional[dict]:
    def broken(xs) -> Optional[str]:
        f, g, h, p, q = xs["f"], xs["g"], xs["h"], xs["p"], xs["q"]
        if f.compose(g).compose(h) != f.compose(g.compose(h)):
            return "associativity"
        f_inv = f.invert()
        if f.compose(f_inv) != PLMap.identity():
            return "right inverse"
        if f_inv.compose(f) != PLMap.identity():
            return "left inverse"
        if f.compose(PLMap.identity()) != f or PLMap.identity().compose(f) != f:
            return "identity"
        if p != q:
            lo, hi = (p, q) if p < q else (q, p)
            if not f.apply(lo) < f.apply(hi):
                return "order preservation"
        return None

    for _ in range(cases):
        xs = {"f": rng_plmap(rng), "g": rng_plmap(rng), "h": rng_plmap(rng),
              "p": rng_rational(rng), "q": rng_rational(rng)}
        law = broken(xs)
        if law is not None:
            return _fail_case(law, xs, lambda t: broken(t) is not None)
    return None


def prop_eval_compose(rng: Random, cases: int) -> Optional[dict]:
    def bad(xs):
        f, g, q = xs["f"], xs["g"], xs["q"]
        return f.compose(g).apply(q) != f.apply(g.apply(q))

    for _ in range(cases):
        xs = {"f": rng_plmap(rng), "g": rng_plmap(rng), "q": rng_rational(rng)}
        if bad(xs):
            return _fail_case("evaluation/composition coherence", xs, bad)
    return None


def prop_squeeze(rng: Random, cases: int) -> Optional[dict]:
    for _ in range(cases):
        e = rng_ndset(rng, max_points=2, max_tails=1)
        u, v = rng_distinct_rationals(rng, 2, span=10)
        if v - u < 2:
            v = u + 2
        cover = Interval(u, v)
        width = v - u
        inner = sorted(u + width * Q(i + 1, 6) for i in range(4))
        blocked = [(inner[0], inner[1]), (inner[2], inner[3])]
        targets = []
        cursor = u
        feasible = True
        for a, b in blocked:
            try:
                gap = e.find_gap(Interval(cursor, v))
            except QshiftError:
                raise  # a refusal is reported, not counted as infeasible
            except ValueError:
                feasible = False
                break
            targets.append(((a, b), gap))
            cursor = gap.upper
        if not feasible:
            continue
        g = squeeze_map(cover, targets)
        for (a, b), gap in targets:
            if not (gap.contains(g.apply(a)) and gap.contains(g.apply(b))):
                return _counterexample("blocked interval lands in its gap",
                                       {"cover": cover, "targets": targets})
        for probe in (u - 1, v + 1, u - Q(1, 2), v + Q(7, 3)):
            if g.apply(probe) != probe:
                return _counterexample("identity outside the cover",
                                       {"cover": cover, "probe": probe})
        samples = sorted(rng_distinct_rationals(rng, 6, span=14))
        for p, q in zip(samples, samples[1:]):
            if not g.apply(p) < g.apply(q):
                return _counterexample("order preservation",
                                       {"cover": cover, "p": p, "q": q})
    return None


def prop_ndset_equivariance(rng: Random, cases: int) -> Optional[dict]:
    def bad_contains(xs, img=None):
        # img: e.image(f), shared by a case's probes
        f, e, q = xs["f"], xs["e"], xs["q"]
        if img is None:
            img = e.image(f)
        return img.contains(f.apply(q)) != e.contains(q)

    def bad_functor(xs):
        f, g, e = xs["f"], xs["g"], xs["e"]
        return e.image(f.compose(g)) != e.image(g).image(f)

    for _ in range(cases):
        f, g, e = rng_plmap(rng), rng_plmap(rng), rng_ndset(rng)
        probes = [rng_rational(rng)] + list(sample_points(e, 3))
        img = e.image(f)
        for q in probes:
            xs = {"f": f, "e": e, "q": q}
            if bad_contains(xs, img):
                return _fail_case("membership equivariance", xs, bad_contains)
        xs = {"f": f, "g": g, "e": e}
        if bad_functor(xs):
            return _fail_case("image functoriality", xs, bad_functor)
    return None


def brute_scan_gap(e: NDSet, gap: Interval, max_den: int) -> Optional[Q]:
    """Exhaustively scan rationals with bounded denominator in the closed
    gap for closure members; independent of how the gap was found.  Only
    the part of ``e`` that can meet the gap is scanned."""
    a, b = gap.lower, gap.upper
    view = e.within(a, b)
    if view.is_empty:
        return None
    for d in range(1, max_den + 1):
        n = -((-a.numerator * d) // a.denominator)  # ceil(a*d)
        top = (b.numerator * d) // b.denominator    # floor(b*d)
        while n <= top:
            if math.gcd(n, d) == 1 and view.closure_contains(Q(n, d)):
                return Q(n, d)
            n += 1
    return None


def prop_gap_soundness(rng: Random, cases: int) -> Optional[dict]:
    for _ in range(cases):
        e = rng_ndset(rng)
        iv = rng_interval(rng)
        gap = e.find_gap(iv)
        if not iv.contains_closed(gap.lower, gap.upper):
            return _counterexample("gap inside the requested interval",
                                   {"e": e, "i": iv, "gap": gap})
        w = brute_scan_gap(e, gap, 64)
        if w is not None:
            return _counterexample("closure-free gap",
                                   {"e": e, "i": iv, "gap": gap}, rat_str(w))
    return None


def prop_closure_coherence(rng: Random, cases: int) -> Optional[dict]:
    for _ in range(cases):
        e, f_set = rng_ndset(rng), rng_ndset(rng)
        u = e.union(f_set)
        probes = sample_points(e, 4) + e.limits
        for q in probes:
            if not u.closure_contains(q):
                return _counterexample("closure monotone under union",
                                       {"e": e, "f": f_set, "q": q})
        m = rng_plmap(rng)
        img = e.image(m)
        for q in probes:
            if not img.closure_contains(m.apply(q)):
                return _counterexample(
                    "closure of image contains image of closure",
                    {"e": e, "m": m, "q": q})
    return None


def prop_hfa_action(rng: Random, cases: int) -> Optional[dict]:
    def bad_id(xs):
        return act(PLMap.identity(), xs["x"]) != xs["x"]

    def bad_comp(xs):
        f, g, x = xs["f"], xs["g"], xs["x"]
        return act(f, act(g, x)) != act(f.compose(g), x)

    for _ in range(cases):
        xs = {"f": rng_plmap(rng), "g": rng_plmap(rng), "x": rng_hfa(rng)}
        if bad_id(xs):
            return _fail_case("identity action", xs, bad_id)
        if bad_comp(xs):
            return _fail_case("action composition", xs, bad_comp)
    return None


def prop_hfa_support(rng: Random, cases: int) -> Optional[dict]:
    def bad_equiv(xs, support=None):
        f, x = xs["f"], xs["x"]
        if support is None:
            support = atoms_support(x)
        return atoms_support(act(f, x)) != support.image(f)

    for _ in range(cases):
        x = rng_hfa(rng)
        f = rng_plmap(rng)
        xs = {"f": f, "x": x}
        support = atoms_support(x)
        if bad_equiv(xs, support):
            return _fail_case("support equivariance", xs, bad_equiv)
        for g in fix_members(support, rng, 2):
            if not in_sym(g, x):
                return _counterexample(
                    "fixing the support stabilizes the value",
                    {"x": x, "g": g})
            if not member(Stab(x), g):
                return _counterexample("Fix(support) below Stab",
                                       {"x": x, "g": g})
    return None


def prop_hfa_conjugation(rng: Random, cases: int) -> Optional[dict]:
    def bad(xs):
        f, p, x = xs["f"], xs["p"], xs["x"]
        twisted = p.invert().compose(f).compose(p)
        return in_sym(f, act(p, x)) != in_sym(twisted, x)

    for _ in range(cases):
        xs = {"f": rng_plmap(rng), "p": rng_plmap(rng), "x": rng_hfa(rng)}
        if bad(xs):
            return _fail_case("stabilizer conjugation identity", xs, bad)
    return None


def _rng_term(rng: Random, depth: int = 2) -> SubgroupTerm:
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        if rng.random() < 0.5:
            return Fix(rng_ndset(rng, max_points=2, max_tails=1))
        return Stab(rng_hfa(rng, max_depth=2, max_width=2))
    if roll < 0.7:
        return Conj(rng_plmap(rng, max_breaks=2), _rng_term(rng, depth - 1))
    return Inter([_rng_term(rng, depth - 1), _rng_term(rng, depth - 1)])


def prop_subgroup_normalize(rng: Random, cases: int) -> Optional[dict]:
    for _ in range(cases):
        h = _rng_term(rng)
        probes = [rng_plmap(rng) for _ in range(3)] + [PLMap.identity()]
        n = normalize(h)
        for f in probes:
            if member(h, f) != member(n, f):
                return _counterexample("membership preserved by normalization",
                                       {"h": h, "f": f})
    return None


def prop_subgroup_conj_routes(rng: Random, cases: int) -> Optional[dict]:
    def bad(xs, img=None, term=None):
        # img: e.image(p), and term: Conj(p, Fix(e)), shared by a case's
        # probes
        p, e, f = xs["p"], xs["e"], xs["f"]
        if img is None:
            img, term = e.image(p), Conj(p, Fix(e))
        via_def = member(term, f)
        via_fix = fix_violation(f, img) is None
        return via_def != via_fix

    for _ in range(cases):
        e = rng_ndset(rng, max_points=2, max_tails=1)
        p = rng_plmap(rng)
        img, term = e.image(p), Conj(p, Fix(e))
        probes = [rng_plmap(rng)] + fix_members(img, rng, 1)
        for f in probes:
            xs = {"p": p, "e": e, "f": f}
            if bad(xs, img, term):
                return _fail_case("conjugate membership two routes", xs, bad)
    return None


def prop_fix_leq(rng: Random, cases: int) -> Optional[dict]:
    for _ in range(cases):
        e = rng_ndset(rng)
        extra = rng_ndset(rng, max_points=2, max_tails=1)
        bigger = e.union(extra)
        if fix_leq(bigger, e) is not None:
            return _counterexample("larger support gives smaller stabilizer",
                                   {"e": e, "bigger": bigger})
        probe = Q(10 ** 7) + rng_rational(rng)
        if not e.closure_contains(probe):
            if fix_leq(e, NDSet(points=[probe])) != probe:
                return _counterexample("point off the closure is movable",
                                       {"e": e, "probe": probe})
    return None


def prop_construction(rng: Random, cases: int) -> Optional[dict]:
    runs = max(1, cases // 40)
    for _ in range(runs):
        incs = [rng_ndset(rng, max_points=2, max_tails=1)
                for _ in range(1 + _below(rng, 3))]
        stream = EStream(incs)
        trace = run_shift_construction(stream, 3)
        report = verify_shift_trace(trace, stream)
        if not report.passed:
            return _counterexample("construction verifies",
                                   {"increments": incs}, report.summary())
        sigmas = trace.sigmas
        for n in range(len(trace.steps)):
            for k in range(n + 1):
                if stream.level(k).image(sigmas[n]) != trace.steps[k].shifted:
                    return _counterexample(
                        "later maps fix earlier shifted sets",
                        {"increments": incs}, f"n={n} k={k}")
        problem = ShiftProblem(
            [Fix(stream.level(n)) for n in range(len(trace.steps))],
            [st.pi for st in trace.steps[:-1]],
            witness_subgroup(trace))
        wreport = check_shift_witness(problem)
        if not wreport.passed:
            return _counterexample(
                "witness check passes on construction output",
                {"increments": incs}, wreport.summary())
    return None


def prop_enumeration(rng: Random, cases: int) -> Optional[dict]:
    seen = set()
    bound = 24
    for i in range(bound):
        q = rational_enum(i)
        if q in seen:
            return _counterexample("rational enumeration injective",
                                   {"index": i, "value": q})
        seen.add(q)
    for i in range(12):
        for j in range(12):
            n = pair_index(i, j)
            iv = canonical_interval(n)
            qi, qj = rational_enum(i), rational_enum(j)
            want = (Interval(qi, qi + 1) if qi == qj
                    else Interval(min(qi, qj), max(qi, qj)))
            if iv != want:
                return _counterexample("interval enumeration decodes pairs",
                                       {"n": n, "got": iv, "want": want})
    return None


PROPERTIES: Dict[str, Callable[[Random, int], Optional[dict]]] = {
    "group-laws": prop_group_laws,
    "eval-compose": prop_eval_compose,
    "squeeze-postconditions": prop_squeeze,
    "ndset-equivariance": prop_ndset_equivariance,
    "gap-soundness": prop_gap_soundness,
    "closure-coherence": prop_closure_coherence,
    "hfa-action-laws": prop_hfa_action,
    "hfa-support-sufficiency": prop_hfa_support,
    "hfa-conjugation-identity": prop_hfa_conjugation,
    "subgroup-normalize": prop_subgroup_normalize,
    "subgroup-conj-routes": prop_subgroup_conj_routes,
    "fix-leq-order": prop_fix_leq,
    "construction-roundtrip": prop_construction,
    "enumeration-coverage": prop_enumeration,
}


def run_properties(seed: int, cases: int) -> List[dict]:
    """Run the suites; one result record per property."""
    results = []
    for name, fn in PROPERTIES.items():
        if cases <= 0:
            results.append({"property": name, "cases": 0, "ok": True})
            continue
        rng = Random(f"{seed}:{name}")
        counterexample = fn(rng, cases)
        rec = {"property": name, "cases": cases,
               "ok": counterexample is None}
        if counterexample is not None:
            rec["counterexample"] = counterexample
        results.append(rec)
    return results


__all__ = ["PROPERTIES", "run_properties", "brute_scan_gap", "to_jsonable"]

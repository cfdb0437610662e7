import json
from random import Random

from qshift import properties
from qshift.ndsets import GeomTail, NDSet
from qshift.plmaps import PLMap
from qshift.properties import (PROPERTIES, _shrink, run_properties,
                               to_jsonable)
from qshift.rationals import Q
from qshift.subgroups import Conj, Inter


def test_all_suites_pass_on_small_budget():
    results = run_properties(seed=0, cases=25)
    assert len(results) == len(PROPERTIES)
    assert all(rec["ok"] for rec in results), results


def test_results_are_deterministic_in_seed():
    a = run_properties(seed=7, cases=10)
    b = run_properties(seed=7, cases=10)
    assert a == b


def test_seed_variation_keeps_verdict():
    for seed in (1, 2, 3, 4, 5):
        assert all(rec["ok"] for rec in run_properties(seed=seed, cases=8))


def test_zero_cases_is_vacuous():
    results = run_properties(seed=0, cases=0)
    assert all(rec["ok"] and rec["cases"] == 0 for rec in results)


def test_shrink_minimizes_planted_failure():
    # pretend any map with more than one breakpoint is broken
    big = PLMap([(0, 0), (1, 3), (2, 4), (5, 9)], 2, 3)
    small = _shrink({"f": big},
                    lambda t: len(t["f"].breakpoints) > 1)
    assert len(small["f"].breakpoints) == 2
    # and a set-level shrink drops unused components
    e = NDSet([Q(1), Q(2)], [GeomTail(0, 1, Q(1, 2))])
    shrunk = _shrink({"e": e}, lambda t: bool(t["e"].tails))
    assert shrunk["e"].points == ()
    assert len(shrunk["e"].tails) == 1


def test_counterexamples_serialize():
    payload = to_jsonable(PLMap.identity())
    json.dumps(payload)  # must be plain JSON data
    assert payload["breakpoints"] == [["0", "0"]]
    assert to_jsonable([Q(1, 2), Q(3)]) == ["1/2", "3"]


IDENTITY_OBJ = {"breakpoints": [["0", "0"]], "leftSlope": "1",
                "rightSlope": "1"}

# (suite, module attribute replaced to force a failure, replacement, the
# record the suite returns on its first case under seed 0)
PLANTED_FAILURES = [
    # shrunk through _fail_case, which always carries a detail
    ("hfa-action-laws", "act", lambda f, x: None,
     {"law": "identity action", "detail": "",
      "inputs": {"f": IDENTITY_OBJ, "g": IDENTITY_OBJ, "x": {"atom": "0"}}}),
    # no detail
    ("enumeration-coverage", "rational_enum", lambda i: Q(0),
     {"law": "rational enumeration injective",
      "inputs": {"index": 1, "value": "0"}}),
    # a detail
    ("gap-soundness", "brute_scan_gap", lambda e, gap, max_den: Q(1, 2),
     {"law": "closure-free gap", "detail": "1/2",
      "inputs": {"e": {"points": ["1/9", "2/3"],
                       "tails": [{"limit": "8/5", "coeff": "-2/3",
                                  "ratio": "1/3", "headDrop": 0}]},
                 "i": {"lower": "-1", "upper": "7/2"},
                 "gap": {"lower": "8/7", "upper": "6/5"}}}),
    # nested targets: pairs of a blocked interval and its gap
    ("squeeze-postconditions", "squeeze_map",
     lambda cover, targets: PLMap.identity(),
     {"law": "blocked interval lands in its gap",
      "inputs": {"cover": {"lower": "3/7", "upper": "17/7"},
                 "targets": [[["16/21", "23/21"],
                              {"lower": "4/3", "upper": "3/2"}],
                             [["10/7", "37/21"],
                              {"lower": "11/6", "upper": "2"}]]}}),
]


def test_counterexample_records_keep_their_shape(monkeypatch):
    for name, attr, fake, want in PLANTED_FAILURES:
        monkeypatch.setattr(properties, attr, fake)
        got = PROPERTIES[name](Random(f"0:{name}"), 1)
        monkeypatch.undo()
        assert json.dumps(got) == json.dumps(want), name


def _calls(monkeypatch, cls, attr, name, cases):
    """Calls of method ``attr`` of ``cls`` made by ``cases`` cases of
    suite ``name`` under seed 0, which must pass."""
    calls = []
    method = getattr(cls, attr)

    def counted(self, *args):
        calls.append(1)
        return method(self, *args)

    monkeypatch.setattr(cls, attr, counted)
    assert PROPERTIES[name](Random(f"0:{name}"), cases) is None
    monkeypatch.undo()
    return len(calls)


def test_each_case_images_its_shared_sets_once(monkeypatch):
    # ndset-equivariance: e.image(f) for every probe, then e.image(f o g),
    # e.image(g) and its image under f; subgroup-conj-routes: e.image(p)
    # for the Fix members and every probe
    assert _calls(monkeypatch, NDSet, "image", "ndset-equivariance",
                  30) == 4 * 30
    assert _calls(monkeypatch, NDSet, "image", "subgroup-conj-routes",
                  30) == 30


def _conjugates(term):
    if isinstance(term, Conj):
        return 1 + _conjugates(term.inner)
    if isinstance(term, Inter):
        return sum(_conjugates(p) for p in term.parts)
    return 0


def test_each_conjugate_inverts_its_map_once(monkeypatch):
    # subgroup-conj-routes: one Conj(p, Fix(e)) per case, shared by its
    # probes
    assert _calls(monkeypatch, PLMap, "invert", "subgroup-conj-routes",
                  30) == 30
    # subgroup-normalize: the identity probe reaches every conjugate in a
    # term, and the other probes reuse the inverse it computed
    terms = []
    normalize = properties.normalize

    def keep(term):
        terms.append(term)
        return normalize(term)

    monkeypatch.setattr(properties, "normalize", keep)
    inverts = _calls(monkeypatch, PLMap, "invert", "subgroup-normalize", 30)
    assert len(terms) == 30
    assert inverts == sum(_conjugates(t) for t in terms) > 0

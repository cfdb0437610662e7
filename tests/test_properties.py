import json

from qshift.ndsets import GeomTail, NDSet
from qshift.plmaps import PLMap
from qshift.properties import (PROPERTIES, _shrink, run_properties,
                               to_jsonable)
from qshift.rationals import Q


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

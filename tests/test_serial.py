import gc
import json
import tracemalloc
from importlib import resources
from random import Random

import pytest

from qshift import serial
from qshift.construction import (EStream, ShiftStep, ShiftTrace,
                                 rational_enum, run_shift_construction,
                                 witness_subgroup)
from qshift.hfa import Atom, SeqNode, SetNode
from qshift.ndsets import GeomTail, NDSet, ndset_points
from qshift.plmaps import PLMap
from qshift.rationals import Interval, Q, QshiftError, parse_rational
from qshift.sampling import (rng_geomtail, rng_hfa, rng_ndset, rng_plmap,
                             rng_rational)
from qshift.serial import (SerializationError, canon_dumps,
                           hfa_from_obj, hfa_to_obj, interval_from_obj,
                           interval_to_obj, ndset_from_obj, ndset_to_obj,
                           plmap_from_obj, plmap_to_obj, stream_from_obj,
                           read_json_file, stream_hash, stream_to_obj,
                           term_from_obj, term_to_obj, trace_from_obj,
                           trace_from_text, trace_text, trace_to_obj)
from qshift.subgroups import FULL_GROUP, Conj, Fix, Inter, Stab


def test_rational_text_in_json():
    obj = ndset_to_obj(ndset_points(Q(3, 4), Q(-2), Q(5)))
    assert obj["points"] == ["-2", "3/4", "5"]


def test_plmap_roundtrip_corpus():
    rng = Random(19)
    for _ in range(200):
        f = rng_plmap(rng)
        blob = canon_dumps(plmap_to_obj(f))
        assert plmap_from_obj(json.loads(blob)) == f


def test_ndset_roundtrip_corpus():
    rng = Random(20)
    for _ in range(200):
        e = rng_ndset(rng)
        blob = canon_dumps(ndset_to_obj(e))
        assert ndset_from_obj(json.loads(blob)) == e


def test_hfa_roundtrip_and_canonical_order():
    rng = Random(21)
    for _ in range(200):
        x = rng_hfa(rng)
        blob = canon_dumps(hfa_to_obj(x))
        assert hfa_from_obj(json.loads(blob)) == x
    # set elements serialize in canonical order regardless of input order
    a = SetNode([Atom(2), Atom(1)])
    b = SetNode([Atom(1), Atom(2)])
    assert canon_dumps(hfa_to_obj(a)) == canon_dumps(hfa_to_obj(b))


def test_term_roundtrip():
    e = NDSet([Q(1)], [GeomTail(0, 1, Q(1, 2))])
    terms = [
        FULL_GROUP,
        Fix(e),
        Stab(SeqNode([Atom(0), Atom(1)])),
        Conj(PLMap.translation(2), Fix(e)),
        Inter([Fix(e), Stab(Atom(0))]),
    ]
    for t in terms:
        blob = canon_dumps(term_to_obj(t))
        assert term_from_obj(json.loads(blob)) == t


def test_interval_roundtrip():
    for iv in (Interval(0, 1), Interval(None, 5), Interval(Q(-7, 2), None),
               Interval(None, None)):
        assert interval_from_obj(json.loads(canon_dumps(interval_to_obj(iv)))) == iv


def read_both_ways(text):
    """The trace file ``text`` as each reader reads it: ``trace_from_text``
    and ``trace_from_obj``."""
    return trace_from_text(text), trace_from_obj(json.loads(text))


def test_trace_roundtrip_bit_exact():
    stream = EStream([ndset_points(0), ndset_points(1), ndset_points(Q(1, 2))])
    trace = run_shift_construction(stream, 2)
    obj = trace_to_obj(trace, stream)
    blob = canon_dumps(obj)
    reads = read_both_ways(blob + "\n")
    for parsed, recorded_hash, n in reads:
        assert parsed == trace and trace == parsed
        assert recorded_hash == stream_hash(stream)
        assert n == 2
        assert canon_dumps(trace_to_obj(parsed, stream)) == blob
    assert reads[0][0] == reads[1][0] and reads[1][0] == reads[0][0]


def test_stream_roundtrip_and_hash_stability():
    stream = EStream([ndset_points(0), NDSet(tails=[GeomTail(0, 1, Q(1, 2))])])
    blob = canon_dumps(stream_to_obj(stream))
    again = stream_from_obj(json.loads(blob))
    assert list(again.increments) == list(stream.increments)
    assert stream_hash(again) == stream_hash(stream)


def test_strict_parsing_failures():
    bad_cases = [
        (plmap_from_obj, {"breakpoints": [], "leftSlope": "1", "rightSlope": "1"}),
        (plmap_from_obj, {"breakpoints": [["0", "0"]], "leftSlope": "0",
                          "rightSlope": "1"}),
        (plmap_from_obj, {"breakpoints": [["0"]], "leftSlope": "1",
                          "rightSlope": "1"}),
        (ndset_from_obj, {"points": ["1/0"], "tails": []}),
        (ndset_from_obj, {"points": []}),
        (ndset_from_obj, {"points": [], "tails": [{"limit": "0", "coeff": "1",
                                                   "ratio": "2", "headDrop": 0}]}),
        (hfa_from_obj, {"atom": "x"}),
        (hfa_from_obj, {"pair": []}),
        (term_from_obj, {"fix": {"points": []}}),
        (term_from_obj, "fullish"),
        (interval_from_obj, {"lower": "1", "upper": "0"}),
        (stream_from_obj, {"increments": "nope"}),
    ]
    for fn, obj in bad_cases:
        with pytest.raises(SerializationError):
            fn(obj)


def test_trace_header_validation():
    with pytest.raises(SerializationError):
        trace_from_obj({"streamHash": 5, "N": 0, "steps": []})
    with pytest.raises(SerializationError):
        trace_from_obj({"streamHash": "x", "N": 0})


def recorded(raw, kind):
    """The record ``trace_from_obj`` keeps for the parsed record ``raw``
    of a value of ``kind``."""
    return serial._recorded(raw, kind, serial._CanonTexts())


def test_recorded_set_compares_from_either_side():
    e = NDSet([Q(3), Q(-1)], [GeomTail(0, 1, Q(1, 2))])
    rec = recorded(json.loads(canon_dumps(ndset_to_obj(e))), NDSet)
    assert rec == e and e == rec and not rec != e and not e != rec
    other = ndset_points(Q(3))
    assert rec != other and other != rec
    assert rec != "not a set" and rec != None  # noqa: E711
    # the same set out of normal form: points unsorted, a tail term listed
    # as a point, the tail given with a dropped head
    loose = recorded({"points": ["3", "1/2", "-1"], "tails": [
        {"limit": "0", "coeff": "2", "ratio": "1/2", "headDrop": 1}]}, NDSet)
    assert loose == e and e == loose and loose == rec and rec == loose
    for drop in (False, 0.0, -1):
        bad = recorded({"points": [], "tails": [
            {"limit": "0", "coeff": "1", "ratio": "1/2", "headDrop": drop}]},
            NDSet)
        with pytest.raises(SerializationError):
            bad == e
        with pytest.raises(SerializationError):
            e == bad


def test_recorded_set_against_a_set_with_no_text():
    # a rational of more than 4300 digits has no str(); the record is
    # compared by decoding it instead
    huge = NDSet([Q(1, 3 ** 9100), Q(1)], [])
    rec = recorded({"points": ["1"], "tails": []}, NDSet)
    assert rec != huge and huge != rec
    assert recorded({"points": ["1", "1/3"], "tails": []}, NDSet) != huge


def test_read_trace_gives_the_same_witness_subgroup():
    stream = EStream([NDSet([Q(1, 3)], [GeomTail(0, 1, Q(1, 2))]),
                      ndset_points(Q(-2), Q(5)), ndset_points(Q(7, 2))])
    trace = run_shift_construction(stream, 3)
    for parsed, _, _ in read_both_ways(trace_text(trace, "")):
        assert witness_subgroup(parsed) == witness_subgroup(trace)
        assert isinstance(parsed.steps[0].shifted, serial.Recorded)
    assert not witness_subgroup(trace).is_empty


def test_decoded_trace_reencodes_canonically():
    stream = EStream([NDSet([Q(1, 3)], [GeomTail(0, 1, Q(1, 2))]),
                      ndset_points(Q(-2), Q(5))])
    trace = run_shift_construction(stream, 2)
    blob = canon_dumps(trace_to_obj(trace, stream))
    obj = json.loads(blob)
    # an equal record out of normal form is written in normal form
    obj["steps"][1]["shifted"]["points"].reverse()
    assert canon_dumps(obj) != blob
    parsed = trace_from_obj(obj)[0]
    assert parsed == trace and trace == parsed
    assert canon_dumps(trace_to_obj(parsed, stream)) == blob


# -- the trace text against the dict encoding --------------------------------

def writer_cases():
    """(stream, steps): the bundled specs, the 60-step singleton stream and
    seeded streams of one point and one tail per increment."""
    specs = resources.files("qshift").joinpath("specs")
    for name in ("dense_singletons.json", "tail_start.json", "empty.json"):
        yield stream_from_obj(read_json_file(str(specs / name))), 15
    yield EStream([ndset_points(rational_enum(i)) for i in range(62)]), 60
    rng = Random(2424)
    for _ in range(6):
        yield EStream([NDSet([rng_rational(rng, 10)], [rng_geomtail(rng)])
                       for _ in range(14)]), 12


def test_trace_text_is_the_dict_encoding():
    kept = moved = 0  # sigma_next runs: repeated, and new after a repeat
    for stream, steps in writer_cases():
        trace = run_shift_construction(stream, steps)
        text = trace_text(trace, stream_hash(stream))
        assert text == canon_dumps(trace_to_obj(trace, stream)) + "\n"
        # a trace read back holds undecoded records, and writes the same;
        # both readers read the same trace
        reads = read_both_ways(text)
        for parsed, _, _ in reads:
            assert trace_text(parsed, stream_hash(stream)) == text
        assert reads[0] == reads[1]
        sigmas = [st.sigma_next for st in trace.steps]
        same = [b is a for a, b in zip(sigmas, sigmas[1:])]
        kept += sum(same)
        moved += sum(a and not b for a, b in zip(same, same[1:]))
    assert kept >= 100 and moved >= 10, (kept, moved)


def test_trace_with_no_text_form_is_refused_by_both_writers():
    # the recursion can grow a rational past the 4300 digits rat_str
    # writes; both writers name the step that holds it
    huge = Q(1, 3 ** 9100)
    stream = EStream([ndset_points(Q(0)), ndset_points(Q(1))])
    step = run_shift_construction(stream, 0).steps[0]
    wide = PLMap([(Q(0), Q(0)), (Q(1), 1 + huge)])
    for field, value in (("shifted", NDSet([huge, Q(1)], [])), ("pi", wide),
                         ("sigma_next", wide)):
        fields = {"n": 1, "interval": step.interval, "gap": step.gap,
                  "pi": step.pi, "sigma_next": step.sigma_next,
                  "shifted": step.shifted, field: value}
        trace = ShiftTrace([step, ShiftStep(**fields)])
        for write in (lambda: trace_to_obj(trace, stream),
                      lambda: trace_text(trace, stream_hash(stream))):
            with pytest.raises(SerializationError) as err:
                write()
            assert str(err.value) == ("step 1 holds a rational of more than "
                                      "4300 digits, which has no text form")


# -- record comparison against the canonical-text rule ------------------------

def text_rule_eq(raw, kind, value):
    """``recorded(raw, kind) == value`` by the canonical-text rule: equal
    when the record's canonical text is that of the value's encoding, else
    decode and compare."""
    read, write = ((ndset_from_obj, ndset_to_obj) if kind is NDSet
                   else (plmap_from_obj, plmap_to_obj))
    try:
        same = canon_dumps(write(value)) == canon_dumps(raw)
    except ValueError:
        same = False
    return same or read(raw) == value


def _verdict(compare):
    try:
        return bool(compare())
    except SerializationError as exc:
        return f"error: {exc}"


def _hostile(raw):
    """(label, record) variants of a set or map record: look-alike values,
    texts out of normal form, wrong shapes."""
    def edit(fn):
        out = json.loads(json.dumps(raw))
        fn(out)
        return out
    yield "list", [raw]
    yield "string", canon_dumps(raw)
    yield "missing key", edit(lambda r: r.pop(sorted(r)[0]))
    yield "extra key", edit(lambda r: r.update(note="x"))
    if "tails" in raw:
        for drop in (False, 0.0, -0.0, True, 1, "0"):
            if raw["tails"]:
                yield f"headDrop {drop!r}", edit(
                    lambda r, d=drop: r["tails"][0].__setitem__("headDrop", d))
        if raw["points"]:
            p = raw["points"][0]
            yield "number", edit(lambda r: r["points"].__setitem__(0, 3))
            num, _, den = p.partition("/")
            yield "2p/2q", edit(lambda r: r["points"].__setitem__(
                0, f"{2 * int(num)}/{2 * int(den or 1)}"))
        if len(raw["points"]) > 1:
            yield "unsorted", edit(lambda r: r["points"].reverse())
    else:
        y = raw["breakpoints"][0][1]
        yield "number", edit(lambda r: r["breakpoints"][0].__setitem__(0, 0))
        num, _, den = y.partition("/")
        yield "2p/2q", edit(lambda r: r["breakpoints"][0].__setitem__(
            1, f"{2 * int(num)}/{2 * int(den or 1)}"))
        if len(raw["breakpoints"]) > 1:
            yield "unsorted", edit(lambda r: r["breakpoints"].reverse())


def test_record_comparison_matches_the_canonical_text_rule():
    huge = Q(1, 3 ** 9100)
    seen = {}  # label -> verdicts met
    for stream, steps in writer_cases():
        trace = run_shift_construction(stream, steps)
        obj = json.loads(trace_text(trace, ""))
        parsed = trace_from_obj(obj)[0]
        for k, (st, rd, ro) in enumerate(zip(trace.steps, parsed.steps,
                                             obj["steps"])):
            other = trace.steps[k - 1]
            for rec, value, unequal, long, intact in (
                    (rd.shifted, st.shifted, other.shifted,
                     NDSet([huge, *st.shifted.points], st.shifted.tails),
                     ro["shifted"]),
                    (rd.sigma_next, st.sigma_next, other.sigma_next,
                     PLMap([(Q(-1), Q(-1)), (Q(0), huge)]),
                     ro["sigma_next"])):
                variants = [("intact", intact), *_hostile(intact)]
                for label, raw in variants:
                    r = recorded(raw, rec.kind)
                    for v in (value, unequal, long):
                        want = _verdict(lambda: text_rule_eq(raw, r.kind, v))
                        assert _verdict(lambda: r == v) == want, (label, k)
                        assert _verdict(lambda: v == r) == want, (label, k)
                        seen.setdefault(label, set()).add(
                            want if isinstance(want, bool) else "error")
                assert _verdict(lambda: rec == value) is True
    assert len(seen) == 14, sorted(seen)
    assert seen["intact"] == {True, False}
    # look-alikes of a headDrop of 0 are refused, not read as 0
    for drop in ("False", "0.0", "-0.0", "True", "'0'"):
        assert seen[f"headDrop {drop}"] == {"error"}, drop


# -- each rational text of a trace is parsed once per read --------------------

def test_each_rational_text_is_parsed_once_per_read(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_rational(text)
    monkeypatch.setattr(serial, "parse_rational", counted)
    for stream, steps in writer_cases():
        obj = json.loads(trace_text(run_shift_construction(stream, steps), ""))
        texts = {t for s in obj["steps"]
                 for t in (*s["I"].values(), *s["J"].values(),
                           *(x for bp in s["pi"]["breakpoints"] for x in bp),
                           s["pi"]["leftSlope"], s["pi"]["rightSlope"])
                 if t is not None}
        for _ in range(2):  # and again on a second read
            calls.clear()
            trace_from_obj(obj)
            assert sorted(calls) == sorted(texts)


def test_trace_reads_keep_no_memo():
    # the parse memo lives for one read: after it, the net allocation is
    # what it was before, however many reads there were
    point = EStream([ndset_points(rational_enum(i)) for i in range(62)])
    obj = json.loads(trace_text(run_shift_construction(point, 60), ""))
    warm = json.loads(trace_text(run_shift_construction(point, 5), ""))

    def net_after(reads):
        for _ in range(reads):
            trace_from_obj(obj)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    tracemalloc.start()
    try:
        trace_from_obj(warm)  # first-use allocations of the reader
        base = net_after(0)
        grown = [net_after(1) - base, net_after(50) - base]
    finally:
        tracemalloc.stop()
    assert max(grown) < 2000, grown


# -- every reader, called directly with hostile values -------------------------

def _nested_list(depth):
    o = []
    for _ in range(depth):
        o = [o]
    return o


def _nested_set(depth):
    o = {"atom": "0"}
    for _ in range(depth):
        o = {"set": [o]}
    return o


HOSTILE_VALUES = [
    None, 7, 1.5, True, "1/0", "", [], {}, "9" * 5000, "1/" + "3" * 5000,
    _nested_list(5000), _nested_set(3000), -1, 1.0, 10 ** 9, ["0"],
]


def _paths(o, path=()):
    """The path of every value inside a JSON document, the root first."""
    yield path
    items = (o.items() if isinstance(o, dict)
             else enumerate(o) if isinstance(o, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replaced(o, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(o))
    inner = out
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return out


def _reader_documents():
    """(reader, a document the reader accepts) for each of the 8 readers."""
    point_set = {"points": ["1"], "tails": [
        {"limit": "0", "coeff": "1", "ratio": "1/2", "headDrop": 0}]}
    pl = {"breakpoints": [["0", "0"], ["1", "2"]],
          "leftSlope": "1", "rightSlope": "1"}
    value = {"set": [{"atom": "1"}, {"seq": [{"atom": "2"}]}]}
    stream = EStream([NDSet([Q(1, 3)], [GeomTail(0, 1, Q(1, 2))]),
                      ndset_points(2), ndset_points(Q(-1, 2))])
    trace = trace_to_obj(run_shift_construction(stream, 1), stream)
    specs = resources.files("qshift").joinpath("specs")
    instance = read_json_file(str(specs / "theorem_identity.json"))
    return [
        (serial.interval_from_obj, {"lower": "0", "upper": "1"}),
        (serial.plmap_from_obj, pl),
        (serial.ndset_from_obj, point_set),
        (serial.hfa_from_obj, value),
        (serial.term_from_obj, {"inter": [
            {"fix": point_set}, {"stab": value},
            {"conj": {"by": pl, "inner": "full"}}]}),
        (serial.stream_from_obj, stream_to_obj(stream)),
        (serial.trace_from_obj, trace),
        (serial.instance_from_obj, instance),
    ]


def test_every_reader_lets_only_input_errors_escape():
    # each hostile value in place of the whole document and of every
    # value inside it; a reader may accept what it is given, or refuse it
    # with a QshiftError, and nothing else
    refused = {}
    for reader, doc in _reader_documents():
        reader(doc)
        for path in _paths(doc):
            for value in HOSTILE_VALUES:
                try:
                    reader(_replaced(doc, path, value))
                except QshiftError:
                    refused[reader.__name__] = refused.get(reader.__name__, 0) + 1
    assert len(refused) == 8 and min(refused.values()) >= 40, refused

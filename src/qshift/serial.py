"""Canonical JSON forms for every value the package exchanges.

Writers emit canonical presentations (sorted keys, compact separators,
sorted set elements), so serialization is deterministic and golden files
can be compared byte for byte.  Readers are strict: any shape violation
raises SerializationError, which the CLI maps to exit code 2.

A trace has two readers, and both keep the records the verifier only
compares, ``shifted`` and ``sigma_next``, as JSON text (``Recorded``):
a record equals a replayed value whose canonical text it is, and is
decoded, and the value compared, only when it is not.  Each rational
text of the other fields is parsed once per read, through a memo dropped
when the read returns.  ``trace_from_text`` reads a trace in the layout
``trace_text`` writes: it walks the text literally, decodes ``N``, ``I``,
``J``, ``n``, ``pi`` and ``streamHash`` at their offsets, and keeps each
record as a span of the text.  A layout it does not follow, or a span
that is not JSON, raises ``TextMismatch``, and the caller reads the text
again with ``json`` and ``trace_from_obj``, which keeps the canonical
text of each parsed record.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List, Tuple

from .construction import EStream, ShiftStep, ShiftTrace
from .hfa import Atom, HFAValue, SeqNode, SetNode
from .ndsets import GeomTail, NDSet
from .plmaps import PLMap
from .rationals import (_MAX_DIGITS, Interval, Q, QshiftError, parse_rational,
                        rat_str)
from .subgroups import (FULL_GROUP, Conj, Fix, Inter, Stab, SubgroupTerm,
                        _FullGroup, normalize)
from .theorem import BranchCertificate, TreeInstance


class SerializationError(QshiftError):
    """Unreadable or ill-formed input."""


# built once: json.dumps with any non-default argument builds an encoder
# per call
_CANON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canon_dumps(obj: Any) -> str:
    return _CANON.encode(obj)


def _need(obj: Any, keys: Tuple[str, ...], what: str) -> None:
    if not isinstance(obj, dict) or set(obj) != set(keys):
        raise SerializationError(
            f"malformed {what}: expected keys {sorted(keys)}")


def _is_int(o: Any) -> bool:
    """Whether a JSON value is an integer; ``true``/``false`` are not,
    although Python's ``bool`` subclasses ``int``."""
    return isinstance(o, int) and not isinstance(o, bool)


def _rat_from(o: Any, what: str) -> Q:
    if not isinstance(o, str):
        raise SerializationError(
            f"malformed {what}: rational must be a string")
    try:
        return parse_rational(o)
    except ValueError as exc:
        raise SerializationError(f"malformed {what}: {exc}") from exc


def _memo_rat(memo: dict):
    """``_rat_from`` that keeps each text it parsed, and its value, in
    ``memo``: a text that fails is not kept, so it fails again, with the
    same error, wherever it recurs."""
    def rat(o: Any, what: str) -> Q:
        q = memo.get(o) if isinstance(o, str) else None
        if q is None:
            q = memo[o] = _rat_from(o, what)
        return q
    return rat


# -- intervals ---------------------------------------------------------------

def interval_to_obj(iv: Interval) -> dict:
    return {
        "lower": None if iv.lower is None else rat_str(iv.lower),
        "upper": None if iv.upper is None else rat_str(iv.upper),
    }


def interval_from_obj(o: Any, rat=_rat_from) -> Interval:
    _need(o, ("lower", "upper"), "interval")
    lo = None if o["lower"] is None else rat(o["lower"], "interval")
    hi = None if o["upper"] is None else rat(o["upper"], "interval")
    try:
        return Interval(lo, hi)
    except ValueError as exc:
        raise SerializationError(f"malformed interval: {exc}") from exc


# -- maps --------------------------------------------------------------------

def plmap_to_obj(f: PLMap) -> dict:
    return {
        "breakpoints": [[rat_str(x), rat_str(y)] for x, y in f.breakpoints],
        "leftSlope": rat_str(f.left_slope),
        "rightSlope": rat_str(f.right_slope),
    }


def plmap_from_obj(o: Any, rat=_rat_from) -> PLMap:
    _need(o, ("breakpoints", "leftSlope", "rightSlope"), "map")
    if not isinstance(o["breakpoints"], list) or not o["breakpoints"]:
        raise SerializationError(
            "malformed map: breakpoints must be a nonempty list")
    bps = []
    for item in o["breakpoints"]:
        if not (isinstance(item, list) and len(item) == 2):
            raise SerializationError(
                "malformed map: breakpoint must be a pair")
        bps.append((rat(item[0], "map"), rat(item[1], "map")))
    left = rat(o["leftSlope"], "map")
    right = rat(o["rightSlope"], "map")
    try:
        return PLMap(bps, left, right)
    except ValueError as exc:
        raise SerializationError(f"malformed map: {exc}") from exc


# -- nowhere-dense sets --------------------------------------------------------

def _tail_obj(t: GeomTail) -> dict:
    return {"limit": rat_str(t.limit), "coeff": rat_str(t.coeff),
            "ratio": rat_str(t.ratio), "headDrop": 0}


def ndset_to_obj(e: NDSet) -> dict:
    return {"points": [rat_str(p) for p in e.points],
            "tails": [_tail_obj(t) for t in e.tails]}


def ndset_from_obj(o: Any) -> NDSet:
    _need(o, ("points", "tails"), "set")
    if not isinstance(o["points"], list) or not isinstance(o["tails"], list):
        raise SerializationError(
            "malformed set: points and tails must be lists")
    pts = [_rat_from(p, "set") for p in o["points"]]
    tails = []
    for t in o["tails"]:
        _need(t, ("limit", "coeff", "ratio", "headDrop"), "tail")
        drop = t["headDrop"]
        if not _is_int(drop) or drop < 0:
            raise SerializationError(
                "malformed tail: headDrop must be a nonnegative int")
        coeff, ratio = _rat_from(t["coeff"], "tail"), _rat_from(t["ratio"], "tail")
        # bound the digits of the folded coeff * ratio**drop before
        # computing the power
        if drop and max(len(str(abs(c))) + drop * len(str(abs(r))) for c, r in (
                (coeff.numerator, ratio.numerator),
                (coeff.denominator, ratio.denominator))) > _MAX_DIGITS:
            raise SerializationError(
                f"malformed tail: headDrop {drop} could give the "
                f"coefficient more than {_MAX_DIGITS} digits")
        limit = _rat_from(t["limit"], "tail")
        try:
            tails.append(GeomTail(limit, coeff, ratio, head_drop=drop))
        except ValueError as exc:
            raise SerializationError(f"malformed tail: {exc}") from exc
    return NDSet(pts, tails)


# -- nested values -------------------------------------------------------------

# levels of nesting read in a value or in a subgroup term: everything that
# walks them recurses once per level, so deeper input is refused here
_MAX_NESTING = 100


def _nested(depth: int, what: str) -> int:
    if depth >= _MAX_NESTING:
        raise SerializationError(
            f"malformed {what}: nested more than {_MAX_NESTING} levels deep")
    return depth + 1


def hfa_to_obj(x: HFAValue) -> dict:
    if isinstance(x, Atom):
        return {"atom": rat_str(x.value)}
    if isinstance(x, SetNode):
        return {"set": [hfa_to_obj(e) for e in x.elements]}
    if isinstance(x, SeqNode):
        return {"seq": [hfa_to_obj(e) for e in x.items]}
    raise SerializationError(f"not an HFA value: {type(x).__name__}")


def hfa_from_obj(o: Any, depth: int = 0) -> HFAValue:
    if not isinstance(o, dict) or len(o) != 1:
        raise SerializationError(
            "malformed value: expected one of atom/set/seq")
    if "atom" in o:
        return Atom(_rat_from(o["atom"], "atom"))
    if "set" in o:
        if not isinstance(o["set"], list):
            raise SerializationError("malformed value: set must hold a list")
        depth = _nested(depth, "value")
        return SetNode(hfa_from_obj(e, depth) for e in o["set"])
    if "seq" in o:
        if not isinstance(o["seq"], list):
            raise SerializationError("malformed value: seq must hold a list")
        depth = _nested(depth, "value")
        return SeqNode(hfa_from_obj(e, depth) for e in o["seq"])
    raise SerializationError("malformed value: expected one of atom/set/seq")


# -- subgroup terms -------------------------------------------------------------

def term_to_obj(t: SubgroupTerm) -> Any:
    if isinstance(t, _FullGroup):
        return "full"
    if isinstance(t, Fix):
        return {"fix": ndset_to_obj(t.support)}
    if isinstance(t, Stab):
        return {"stab": hfa_to_obj(t.obj)}
    if isinstance(t, Conj):
        return {"conj": {"by": plmap_to_obj(t.by), "inner": term_to_obj(t.inner)}}
    if isinstance(t, Inter):
        return {"inter": [term_to_obj(p) for p in t.parts]}
    raise SerializationError(f"not a subgroup term: {type(t).__name__}")


def term_from_obj(o: Any, depth: int = 0) -> SubgroupTerm:
    if o == "full":
        return FULL_GROUP
    if not isinstance(o, dict) or len(o) != 1:
        raise SerializationError("malformed subgroup term")
    if "fix" in o:
        return Fix(ndset_from_obj(o["fix"]))
    if "stab" in o:
        return Stab(hfa_from_obj(o["stab"]))
    if "conj" in o:
        _need(o["conj"], ("by", "inner"), "conjugate")
        return Conj(plmap_from_obj(o["conj"]["by"]),
                    term_from_obj(o["conj"]["inner"],
                                  _nested(depth, "subgroup term")))
    if "inter" in o:
        if not isinstance(o["inter"], list):
            raise SerializationError(
                "malformed subgroup term: inter must hold a list")
        depth = _nested(depth, "subgroup term")
        return Inter([term_from_obj(p, depth) for p in o["inter"]])
    raise SerializationError("malformed subgroup term")


# -- streams and traces ----------------------------------------------------------

def stream_to_obj(s: EStream) -> dict:
    return {"increments": [ndset_to_obj(d) for d in s.increments]}


def stream_from_obj(o: Any) -> EStream:
    _need(o, ("increments",), "stream")
    if not isinstance(o["increments"], list):
        raise SerializationError(
            "malformed stream: increments must be a list")
    return EStream([ndset_from_obj(d) for d in o["increments"]])


def stream_hash(s: EStream) -> str:
    return hashlib.sha256(canon_dumps(stream_to_obj(s)).encode()).hexdigest()


class _CanonTexts:
    """The canonical text of a set or a map, ``canon_dumps`` of its
    encoding.  The text of each point, tail and map is kept by identity for
    the life of this object, and a set's is joined from its members':
    the recursion, and its replay, carry the members of ``shifted_n`` into
    ``shifted_{n+1}`` as the same objects."""

    __slots__ = ("_kept",)

    def __init__(self):
        # id(value) -> (value, its text): holding the value keeps its id
        # from being taken by another object while texts are kept
        self._kept = {}

    def _text(self, value, obj_of) -> str:
        got = self._kept.get(id(value))
        if got is None:
            got = self._kept[id(value)] = value, canon_dumps(obj_of(value))
        return got[1]

    def __call__(self, value) -> str:
        if not isinstance(value, NDSet):
            return self._text(value, plmap_to_obj)
        points = ",".join([self._text(p, rat_str) for p in value.points])
        tails = ",".join([self._text(t, _tail_obj) for t in value.tails])
        return f'{{"points":[{points}],"tails":[{tails}]}}'


class TextMismatch(SerializationError):
    """A trace text that ``trace_from_text`` does not read: out of the
    layout ``trace_text`` writes, refused by a check, or holding a record
    that is not JSON.  Its reader then reads the text with ``json`` and
    ``trace_from_obj``, which gives the verdict or the error."""

    def __init__(self):
        super().__init__("not a trace in canonical layout")


class Recorded:
    """A trace's ``shifted`` or ``sigma_next`` record, kept as the JSON
    text ``text[start:end]``; ``kind`` is the class of value it encodes,
    ``NDSet`` or ``PLMap``.

    The verifier only compares a record with the value it replays.  A
    record equals a value of ``kind`` whose canonical text (``texts``)
    it is; otherwise, or when the value has no text, it is decoded and
    the values are compared.  So an equal value out of normal form still
    compares equal, a malformed record raises SerializationError, and a
    text that is not JSON raises ``TextMismatch``."""

    # a plain slotted class, like every record in the package, so that
    # no command imports ``dataclasses``
    __slots__ = ("text", "start", "end", "kind", "texts")

    def __init__(self, text: str, start: int, end: int, kind: type,
                 texts: _CanonTexts):
        self.text, self.start, self.end = text, start, end
        self.kind, self.texts = kind, texts

    def decode(self) -> Any:
        try:
            obj = json.loads(self.text[self.start:self.end])
        except (ValueError, RecursionError):
            raise TextMismatch from None
        return (ndset_from_obj if self.kind is NDSet else plmap_from_obj)(obj)

    def __eq__(self, other):
        if isinstance(other, Recorded):
            return self.decode() == other.decode()
        if not isinstance(other, self.kind):
            return NotImplemented
        try:
            want = self.texts(other)
        except ValueError:
            # a rational of more than _MAX_DIGITS digits has no text
            return self.decode() == other
        return ((len(want) == self.end - self.start
                 and self.text.startswith(want, self.start))
                or self.decode() == other)


def _recorded(obj: Any, kind: type, texts: _CanonTexts) -> Recorded:
    """A parsed record, kept as its canonical text."""
    try:
        text = canon_dumps(obj)
    except (ValueError, RecursionError) as exc:
        # only a value built in Python: json.loads refuses text nested
        # past the recursion limit, or with an integer past str()'s limit
        raise SerializationError(f"malformed trace record: {exc}") from exc
    return Recorded(text, 0, len(text), kind, texts)


def _decoded(value: Any) -> Any:
    return value.decode() if isinstance(value, Recorded) else value


def _step_objs(trace: ShiftTrace, shifted_obj=ndset_to_obj):
    """Each step's record, as ``trace_to_obj`` writes it, with ``shifted``
    written by ``shifted_obj``.  A step holding the same ``pi`` or
    ``sigma_next`` object as the step before holds the same dict: an
    identity pi keeps sigma, and each run of one map is encoded once."""
    pi = sigma = None
    for st in trace.steps:
        # records are decoded outside the try: a malformed one raises its
        # own error
        shifted = _decoded(st.shifted)
        if st.sigma_next is not sigma:
            sigma = st.sigma_next
            sigma_map, sigma_obj = _decoded(sigma), None
        try:
            if st.pi is not pi:
                pi, pi_obj = st.pi, plmap_to_obj(st.pi)
            if sigma_obj is None:
                sigma_obj = plmap_to_obj(sigma_map)
            obj = {
                "n": st.n,
                "I": interval_to_obj(st.interval),
                "J": interval_to_obj(st.gap),
                "pi": pi_obj,
                "sigma_next": sigma_obj,
                "shifted": shifted_obj(shifted),
            }
        except ValueError as exc:
            # the recursion can grow a parsed coefficient past the digits
            # rat_str writes
            raise SerializationError(
                f"step {st.n} holds a rational of more than {_MAX_DIGITS} "
                "digits, which has no text form") from exc
        yield obj


def trace_to_obj(trace: ShiftTrace, stream: EStream) -> dict:
    steps = list(_step_objs(trace))
    return {"streamHash": stream_hash(stream), "N": len(steps) - 1,
            "steps": steps}


def trace_text(trace: ShiftTrace, digest: str) -> str:
    """The trace file's text: ``canon_dumps(trace_to_obj(trace, stream))``
    and a newline, where ``digest`` is ``stream_hash(stream)``.  Each step
    is written in canonical key order with each value through
    ``canon_dumps``; the text of a ``pi`` or ``sigma_next`` record the
    step shares with the step before is reused, not encoded again.  A
    ``shifted`` set is joined from the text of each point and tail, kept
    by identity for the whole trace: the recursion carries the members of
    ``shifted_n`` into ``shifted_{n+1}`` as the same objects."""
    parts = []
    pi = sigma = None
    for obj in _step_objs(trace, _CanonTexts()):
        if obj["pi"] is not pi:
            pi = obj["pi"]
            pi_text = canon_dumps(pi)
        if obj["sigma_next"] is not sigma:
            sigma = obj["sigma_next"]
            sigma_text = canon_dumps(sigma)
        parts.append(f'{{"I":{canon_dumps(obj["I"])},'
                     f'"J":{canon_dumps(obj["J"])},"n":{canon_dumps(obj["n"])},'
                     f'"pi":{pi_text},"shifted":{obj["shifted"]},'
                     f'"sigma_next":{sigma_text}}}')
    return (f'{{"N":{len(parts) - 1},"steps":[{",".join(parts)}],'
            f'"streamHash":{canon_dumps(digest)}}}\n')


# the last step index construct and the trace reader take: cost is ~steps^2
_MAX_STEPS = 10_000
_UNREAD = object()  # equal to no JSON value


def trace_from_obj(o: Any) -> Tuple[ShiftTrace, str, int]:
    _need(o, ("streamHash", "N", "steps"), "trace")
    if not isinstance(o["streamHash"], str) or not _is_int(o["N"]):
        raise SerializationError("malformed trace header")
    if not isinstance(o["steps"], list):
        raise SerializationError("malformed trace: steps must be a list")
    # construct writes step 0 at least; an empty trace certifies nothing
    if not o["steps"]:
        raise SerializationError("malformed trace: steps must not be empty")
    if o["N"] < 0:
        raise SerializationError(
            "malformed trace header: N must be nonnegative")
    if o["N"] > _MAX_STEPS or len(o["steps"]) > _MAX_STEPS + 1:
        raise SerializationError(f"malformed trace: N and every step index "
                                 f"must be at most {_MAX_STEPS}")
    steps: List[ShiftStep] = []
    # a pi record equal to the previous step's decodes to an equal map,
    # and a malformed one raised at its first occurrence: each run of
    # equal records is decoded once.  sigma_next and shifted records are
    # kept as canonical text until they are compared (Recorded); a run of
    # equal sigma_next records shares one record.  Each rational text of
    # I, J and pi is parsed once per read: the memo is dropped on return
    pi_obj = sigma_obj = _UNREAD
    rat = _memo_rat({})
    texts = _CanonTexts()
    for i, s in enumerate(o["steps"]):
        _need(s, ("n", "I", "J", "pi", "sigma_next", "shifted"), "trace step")
        if not _is_int(s["n"]):
            raise SerializationError("malformed trace step: n must be an int")
        if s["n"] != i:
            raise SerializationError(f"malformed trace step {i}: n must equal "
                                     "the step's position (0, 1, 2, ...)")
        gap = interval_from_obj(s["J"], rat)
        if gap.lower is None or gap.upper is None:
            # the verifier tests every gap as a closed interval
            raise SerializationError(
                f"malformed trace step {i}: J must be bounded")
        interval = interval_from_obj(s["I"], rat)
        if s["pi"] != pi_obj:
            pi_obj, pi = s["pi"], plmap_from_obj(s["pi"], rat)
        if s["sigma_next"] != sigma_obj:
            sigma_obj = s["sigma_next"]
            sigma = _recorded(sigma_obj, PLMap, texts)
        steps.append(ShiftStep(s["n"], interval, gap, pi, sigma,
                               _recorded(s["shifted"], NDSet, texts)))
    return ShiftTrace(steps), o["streamHash"], o["N"]


_DECODER = json.JSONDecoder()


def trace_from_text(text: str) -> Tuple[ShiftTrace, str, int]:
    """``trace_from_obj(json.loads(text))`` for a trace in the layout
    ``trace_text`` writes, or ``TextMismatch``.

    The reader follows that layout literally.  It decodes the values of
    ``N``, ``I``, ``J``, ``n``, ``pi`` and ``streamHash`` where they start
    and gives them ``trace_from_obj``'s checks; a check that fails raises
    ``TextMismatch``, so the json reader reports it.  Each distinct ``pi``
    text is decoded once.  A ``shifted`` or ``sigma_next`` record ends
    where the layout's next key starts; it is kept as that span of the
    text (``Recorded``), and a run of equal ``sigma_next`` texts shares
    one record."""
    def value(at):
        try:
            return _DECODER.raw_decode(text, at)
        except (ValueError, RecursionError):
            raise TextMismatch from None

    def after(key, at):
        if not text.startswith(key, at):
            raise TextMismatch
        return at + len(key)

    def until(key, at):
        end = text.find(key, at)
        if end < 0:
            raise TextMismatch
        return end

    try:
        n_header, at = value(after('{"N":', 0))
        at = after(',"steps":[', at)
        steps: List[ShiftStep] = []
        pis = {}  # pi text -> map
        rat = _memo_rat({})
        texts = _CanonTexts()
        sigma_text = None
        while True:
            if len(steps) > _MAX_STEPS:
                raise TextMismatch
            iv, at = value(after('{"I":', at))
            gap, at = value(after(',"J":', at))
            n, at = value(after(',"n":', at))
            if not _is_int(n) or n != len(steps):
                raise TextMismatch
            gap = interval_from_obj(gap, rat)
            if gap.lower is None or gap.upper is None:
                raise TextMismatch
            interval = interval_from_obj(iv, rat)
            at = after(',"pi":', at)
            end = until(',"shifted":', at)
            pi = pis.get(text[at:end])
            if pi is None:
                obj, stop = value(at)
                if stop != end:
                    raise TextMismatch
                pi = pis[text[at:end]] = plmap_from_obj(obj, rat)
            at = end + len(',"shifted":')
            end = until(',"sigma_next":', at)
            shifted = Recorded(text, at, end, NDSet, texts)
            at = end + len(',"sigma_next":')
            end = text.find(',{"I":', at)
            last = end < 0
            if last:
                end = until('],"streamHash":', at)
            # the step's closing brace ends its last record
            if text[end - 1] != "}":
                raise TextMismatch
            if text[at:end - 1] != sigma_text:
                sigma_text = text[at:end - 1]
                sigma = Recorded(text, at, end - 1, PLMap, texts)
            steps.append(ShiftStep(n, interval, gap, pi, sigma, shifted))
            at = end + 1
            if last:
                break
        digest, at = value(after(',"streamHash":', at))
        at = after("}", at)
    except SerializationError:
        raise TextMismatch from None
    # after the document json.loads takes JSON whitespace only
    if (text[at:].strip(" \t\n\r") or not isinstance(digest, str)
            or not _is_int(n_header) or not 0 <= n_header <= _MAX_STEPS):
        raise TextMismatch
    return ShiftTrace(steps), digest, n_header


# -- theorem instances -------------------------------------------------------------

def instance_from_obj(o: Any):
    """Decode a theorem instance: a nonempty certificate with a declared
    group per level, the first of them a pointwise stabilizer, whose
    support doubles as the orbit base."""
    _need(o, ("x", "t", "tau", "H"), "theorem instance")
    for key in ("x", "t", "tau", "H"):
        if not isinstance(o[key], list):
            raise SerializationError(
                f"malformed theorem instance: {key} must be a list")
    xs = [hfa_from_obj(v) for v in o["x"]]
    ts = [hfa_from_obj(v) for v in o["t"]]
    taus = [plmap_from_obj(m) for m in o["tau"]]
    hs = [term_from_obj(h) for h in o["H"]]
    if not xs:
        raise SerializationError(
            "malformed theorem instance: x must not be empty")
    if len(hs) < len(xs):
        raise SerializationError("malformed theorem instance: H must "
                                 "declare one group per entry of x")
    h0 = normalize(hs[0])
    if not isinstance(h0, Fix):
        raise SerializationError(
            "malformed theorem instance: the first group must normalize to "
            "Fix form to declare the orbit base")
    try:
        inst = TreeInstance(xs, h0.support)
        cert = BranchCertificate(xs, ts, taus)
    except ValueError as exc:
        raise SerializationError(f"malformed theorem instance: {exc}") from exc
    return inst, cert, hs


def write_json_file(path: str, obj: Any) -> None:
    write_text_file(path, canon_dumps(obj) + "\n")


def write_text_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SerializationError(f"cannot write {path}: {exc}") from exc


def read_text_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        # ValueError: bytes that are not UTF-8
        raise SerializationError(f"cannot read {path}: {exc}") from exc


def parse_json_text(text: str, path: str) -> Any:
    """``json.loads(text)``, the text read from ``path``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integer literals over
        # Python's int conversion limit; RecursionError, arrays or objects
        # nested deeper than the decoder recurses
        raise SerializationError(f"cannot read {path}: {exc}") from exc


def read_json_file(path: str) -> Any:
    return parse_json_text(read_text_file(path), path)


__all__ = [
    "SerializationError", "canon_dumps", "interval_to_obj", "interval_from_obj",
    "plmap_to_obj", "plmap_from_obj", "ndset_to_obj", "ndset_from_obj",
    "hfa_to_obj", "hfa_from_obj", "term_to_obj", "term_from_obj",
    "stream_to_obj", "stream_from_obj", "stream_hash", "Recorded",
    "trace_to_obj", "trace_text", "trace_from_obj", "TextMismatch",
    "trace_from_text", "instance_from_obj", "write_json_file",
    "write_text_file", "read_text_file", "parse_json_text", "read_json_file",
]

"""Pass/fail reports shared by the verifiers, and their JSON lines.

A ``Report`` keeps each check as a plain row ``(name, ok, index,
detail)`` beside a count of the failed ones, so adding a check costs one
tuple and ``passed`` one comparison.  ``checks`` and ``failures`` build
``Check`` objects only when they are read.

``write_rows`` prints rows as JSON lines from one template, in the
canonical form ``serial.canon_dumps`` gives the dict
``{"check", "ok", "mode": "exact", "n"?, "detail"?}``: keys sorted
(``check``, ``detail``, ``mode``, ``n``, ``ok``), compact separators, and
strings escaped by ``json.encoder.encode_basestring_ascii``, the escaping
the canonical encoder applies.  So the bytes are those of encoding each
row's dict, without building the dict.  Every check is exact; the
``mode`` field only keeps the line format stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterable, List, Optional, TextIO, Tuple

# (name, ok, index, detail)
Row = Tuple[str, bool, Optional[int], str]


@dataclass(frozen=True, slots=True)
class Check:
    name: str
    ok: bool
    index: Optional[int] = None
    detail: str = ""


class Report:
    __slots__ = ("rows", "failed")

    def __init__(self):
        self.rows: List[Row] = []
        self.failed = 0

    def add(self, name: str, ok: bool, index: Optional[int] = None,
            detail: str = "") -> bool:
        ok = bool(ok)
        self.rows.append((name, ok, index, detail))
        if not ok:
            self.failed += 1
        return ok

    def extend(self, other: "Report") -> None:
        self.rows.extend(other.rows)
        self.failed += other.failed

    @property
    def passed(self) -> bool:
        return not self.failed

    @property
    def checks(self) -> List[Check]:
        return [Check(*row) for row in self.rows]

    @property
    def failures(self) -> List[Check]:
        return [Check(*row) for row in self.rows if not row[1]]

    def summary(self) -> str:
        if not self.failed:
            return f"all {len(self.rows)} checks passed"
        bad = (name if index is None else f"{name}[{index}]"
               for name, ok, index, _ in self.rows if not ok)
        return (f"{self.failed} of {len(self.rows)} checks failed: "
                + ", ".join(islice(bad, 5)))

    def __repr__(self):
        return f"Report({self.summary()})"


_OK_TAIL = {True: ',"ok":true}\n', False: ',"ok":false}\n'}
_LINES_PER_WRITE = 1024


def write_rows(rows: Iterable[Row], stream: TextIO) -> None:
    """Write each row to ``stream`` as its canonical JSON line.

    Lines go out in writes of at most ``_LINES_PER_WRITE``, so the whole
    report is never one string.  The encoded head of a line (name and
    detail) is kept for the rest of the call: a verifier family repeats a
    few heads many times.
    """
    heads = {}
    lines = []
    for name, ok, index, detail in rows:
        head = heads.get((name, detail))
        if head is None:
            head = '{"check":' + encode_basestring_ascii(name)
            if detail:
                head += ',"detail":' + encode_basestring_ascii(detail)
            head += ',"mode":"exact"'
            heads[name, detail] = head
        if index is None:
            lines.append(head + _OK_TAIL[ok])
        else:
            lines.append(f'{head},"n":{index}{_OK_TAIL[ok]}')
        if len(lines) == _LINES_PER_WRITE:
            stream.write("".join(lines))
            lines.clear()
    stream.write("".join(lines))


__all__ = ["Check", "Report", "Row", "write_rows"]

"""Pass/fail reports shared by the verifiers, and their JSON lines.

A ``Report`` keeps its checks as entries beside a count of the checks
and of the failed ones, so ``passed`` is one comparison.  An entry is a
plain row ``(name, ok, index, detail)``, or a ``Grid``: one check over
every cell of a family, stored as its shape and its failing cells, so a
family of N² passes costs N labels, not N² rows.  ``rows``, ``checks``,
``failures`` and ``summary`` expand grids, and build ``Check`` objects,
only when they are read.

``write_rows`` prints entries as JSON lines from one template, in the
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
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    TextIO, Tuple, Union)

# (name, ok, index, detail)
Row = Tuple[str, bool, Optional[int], str]


@dataclass(frozen=True, slots=True)
class Check:
    name: str
    ok: bool
    index: Optional[int] = None
    detail: str = ""


@dataclass(frozen=True, slots=True)
class Grid:
    """Check ``name`` on every cell (m, k) for m < ``sets`` and k <
    ``len(labels)``, as rows in m-major order.

    Cell (m, k) is the row ``(name, True, m, labels[k])``, unless it is
    listed in ``failing`` as ``(m, k, detail)``, in cell order: then it is
    ``(name, False, m, detail)``.
    """

    name: str
    sets: int
    labels: Tuple[str, ...]
    failing: Tuple[Tuple[int, int, str], ...]

    def rows(self) -> Iterator[Row]:
        hits = {(m, k): detail for m, k, detail in self.failing}
        for m in range(self.sets):
            for k, label in enumerate(self.labels):
                if (m, k) in hits:
                    yield self.name, False, m, hits[m, k]
                else:
                    yield self.name, True, m, label

    def failed_rows(self) -> Iterator[Row]:
        return ((self.name, False, m, detail)
                for m, _, detail in self.failing)


Entry = Union[Row, Grid]


def _rows(entries: Iterable[Entry]) -> Iterator[Row]:
    for entry in entries:
        if isinstance(entry, Grid):
            yield from entry.rows()
        else:
            yield entry


class Report:
    __slots__ = ("entries", "count", "failed")

    def __init__(self):
        self.entries: List[Entry] = []
        self.count = 0
        self.failed = 0

    def add(self, name: str, ok: bool, index: Optional[int] = None,
            detail: str = "") -> bool:
        ok = bool(ok)
        self.entries.append((name, ok, index, detail))
        self.count += 1
        if not ok:
            self.failed += 1
        return ok

    def add_grid(self, name: str, sets: int, labels: Sequence[str],
                 failing: Sequence[Tuple[int, int, str]]) -> None:
        """Add the ``sets`` x ``len(labels)`` checks of a ``Grid``."""
        grid = Grid(name, sets, tuple(labels), tuple(failing))
        self.entries.append(grid)
        self.count += sets * len(grid.labels)
        self.failed += len(grid.failing)

    def extend(self, other: "Report") -> None:
        self.entries.extend(other.entries)
        self.count += other.count
        self.failed += other.failed

    @property
    def passed(self) -> bool:
        return not self.failed

    @property
    def rows(self) -> List[Row]:
        return list(_rows(self.entries))

    def failed_rows(self) -> Iterator[Row]:
        """The failed rows in report order, passes left unexpanded."""
        for entry in self.entries:
            if isinstance(entry, Grid):
                yield from entry.failed_rows()
            elif not entry[1]:
                yield entry

    @property
    def checks(self) -> List[Check]:
        return [Check(*row) for row in _rows(self.entries)]

    @property
    def failures(self) -> List[Check]:
        return [Check(*row) for row in self.failed_rows()]

    def summary(self) -> str:
        if not self.failed:
            return f"all {self.count} checks passed"
        bad = (name if index is None else f"{name}[{index}]"
               for name, _, index, _ in self.failed_rows())
        return (f"{self.failed} of {self.count} checks failed: "
                + ", ".join(islice(bad, 5)))

    def __repr__(self):
        return f"Report({self.summary()})"


_OK_TAIL = {True: ',"ok":true}\n', False: ',"ok":false}\n'}
_LINES_PER_WRITE = 1024


class _Heads(dict):
    """The encoded head of a line (name and detail), by (name, detail),
    made on first use."""

    def __missing__(self, key: Tuple[str, str]) -> str:
        name, detail = key
        text = '{"check":' + encode_basestring_ascii(name)
        if detail:
            text += ',"detail":' + encode_basestring_ascii(detail)
        text += ',"mode":"exact"'
        self[key] = text
        return text


def _chunks(entries: Iterable[Entry], heads: _Heads
            ) -> Iterator[Tuple[str, int]]:
    """The lines of ``entries`` as (text, number of lines): one line per
    row, one set's lines per grid set."""
    for entry in entries:
        if not isinstance(entry, Grid):
            name, ok, index, detail = entry
            if index is None:
                yield heads[name, detail] + _OK_TAIL[ok], 1
            else:
                yield f'{heads[name, detail]},"n":{index}{_OK_TAIL[ok]}', 1
            continue
        name, width = entry.name, len(entry.labels)
        set_heads = [heads[name, label] for label in entry.labels]
        failing: Dict[int, List[Tuple[int, str]]] = {}
        for m, k, detail in entry.failing:
            failing.setdefault(m, []).append((k, detail))
        for m in range(entry.sets if width else 0):
            tail = f',"n":{m}{_OK_TAIL[True]}'
            if m not in failing:
                yield tail.join(set_heads) + tail, width
                continue
            lines = [h + tail for h in set_heads]
            for k, detail in failing[m]:
                lines[k] = f'{heads[name, detail]},"n":{m}{_OK_TAIL[False]}'
            yield "".join(lines), width


def write_rows(entries: Iterable[Entry], stream: TextIO) -> None:
    """Write each row of ``entries`` to ``stream`` as its canonical JSON
    line.

    Lines go out in writes of about ``_LINES_PER_WRITE`` (a grid adds
    one set's lines at a time), so the whole report is never one string.
    Each line head is encoded once per call: a verifier family repeats a
    few heads many times.  A grid set with no failing cell is one join
    of its heads with the set's tail.
    """
    chunks: List[str] = []
    pending = 0
    for text, lines in _chunks(entries, _Heads()):
        chunks.append(text)
        pending += lines
        if pending >= _LINES_PER_WRITE:
            stream.write("".join(chunks))
            chunks.clear()
            pending = 0
    stream.write("".join(chunks))


__all__ = ["Check", "Grid", "Report", "Row", "write_rows"]

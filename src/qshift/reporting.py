"""Structured pass/fail reports shared by the verifiers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True, slots=True)
class Check:
    name: str
    ok: bool
    index: Optional[int] = None
    mode: str = "exact"  # "exact" or "sampled"
    detail: str = ""

    def to_json_obj(self):
        obj = {"check": self.name, "ok": self.ok, "mode": self.mode}
        if self.index is not None:
            obj["n"] = self.index
        if self.detail:
            obj["detail"] = self.detail
        return obj


class Report:
    def __init__(self):
        self.checks: List[Check] = []

    def add(self, name: str, ok: bool, index: Optional[int] = None,
            mode: str = "exact", detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), index, mode, detail))
        return ok

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        bad = self.failures
        if not bad:
            return f"all {len(self.checks)} checks passed"
        head = ", ".join(
            f"{c.name}[{c.index}]" if c.index is not None else c.name
            for c in bad[:5])
        return f"{len(bad)} of {len(self.checks)} checks failed: {head}"

    def __repr__(self):
        return f"Report({self.summary()})"


__all__ = ["Check", "Report"]

"""Symbolic subgroup terms with decidable membership.

Subgroups of the automorphism group are represented intensionally: the
full group, pointwise stabilizers Fix(E) of a nowhere-dense set, setwise
stabilizers Stab(x) of a nested value, conjugates, and finite
intersections.  Everything downstream needs only membership tests,
containment of Fix-form terms, and conjugation, so no group element
enumeration is ever attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import List, Optional, Sequence

from .hfa import HFAValue, act, in_sym
from .ndsets import NDSet, SubsetResult, SubsetVerdict, fix_violation
from .plmaps import PLMap
from .rationals import rat_str
from .reporting import Report
from .sampling import fix_members, mixed_maps


# -- terms ---------------------------------------------------------------

class SubgroupTerm:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class _FullGroup(SubgroupTerm):
    def __repr__(self):
        return "FullGroup"


FULL_GROUP = _FullGroup()


@dataclass(frozen=True, slots=True)
class Fix(SubgroupTerm):
    """Pointwise stabilizer of a nowhere-dense set of atoms."""

    support: NDSet


@dataclass(frozen=True, slots=True)
class Stab(SubgroupTerm):
    """Setwise stabilizer of a hereditarily finite value."""

    obj: HFAValue


@dataclass(frozen=True, slots=True)
class Conj(SubgroupTerm):
    """Conjugate subgroup: by . inner . by^-1."""

    by: PLMap
    inner: SubgroupTerm


@dataclass(frozen=True, slots=True)
class Inter(SubgroupTerm):
    parts: Sequence[SubgroupTerm]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


# -- membership ----------------------------------------------------------

def member(term: SubgroupTerm, f: PLMap) -> bool:
    """Membership oracle; decidable for every constructor."""
    if isinstance(term, _FullGroup):
        return True
    if isinstance(term, Fix):
        return fix_violation(f, term.support) is None
    if isinstance(term, Stab):
        return in_sym(f, term.obj)
    if isinstance(term, Conj):
        inner_elt = term.by.invert().compose(f).compose(term.by)
        return member(term.inner, inner_elt)
    if isinstance(term, Inter):
        return all(member(p, f) for p in term.parts)
    raise TypeError(f"not a subgroup term: {type(term).__name__}")


# -- normalization --------------------------------------------------------

def normalize(term: SubgroupTerm) -> SubgroupTerm:
    """Membership-preserving rewriting to a conjugation-free form.

    Conjugates push through every constructor: over Fix as the image of
    the support, over Stab as the image of the object, over
    intersections componentwise, and nested conjugates compose.
    """
    if isinstance(term, (_FullGroup, Fix, Stab)):
        return term
    if isinstance(term, Conj):
        if isinstance(term.inner, Conj):
            merged = term.by.compose(term.inner.by)
            return normalize(Conj(merged, term.inner.inner))
        inner = normalize(term.inner)
        if term.by.is_identity:
            return inner
        if isinstance(inner, _FullGroup):
            return FULL_GROUP
        if isinstance(inner, Fix):
            return Fix(inner.support.image(term.by))
        if isinstance(inner, Stab):
            return Stab(act(term.by, inner.obj))
        if isinstance(inner, Inter):
            return normalize(Inter([Conj(term.by, p) for p in inner.parts]))
        raise TypeError(f"not a subgroup term: {type(inner).__name__}")
    if isinstance(term, Inter):
        flat: List[SubgroupTerm] = []
        for part in term.parts:
            n = normalize(part)
            if isinstance(n, _FullGroup):
                continue
            if isinstance(n, Inter):
                flat.extend(n.parts)
            else:
                flat.append(n)
        uniq: List[SubgroupTerm] = []
        for p in flat:
            if p not in uniq:
                uniq.append(p)
        if not uniq:
            return FULL_GROUP
        if len(uniq) == 1:
            return uniq[0]
        return Inter(uniq)
    raise TypeError(f"not a subgroup term: {type(term).__name__}")


# -- containment of Fix-form terms ----------------------------------------

def fix_leq(support: NDSet, other: NDSet) -> SubsetResult:
    """Verdict on Fix(support) <= Fix(other).

    Holds exactly when every member of ``other`` lies in the closure of
    ``support``: maps fixing a set pointwise fix its closure, and any
    rational off the closure is movable by one.
    """
    return other.subset_of_closure(support)


# -- filters ---------------------------------------------------------------

class FilterDescriptor(Enum):
    """Which pointwise stabilizers generate the subgroup filter."""

    NOWHERE_DENSE_SUPPORTS = "nowhere-dense"
    FINITE_SUPPORTS = "finite"

    def admits_basis(self, support: NDSet) -> bool:
        if self is FilterDescriptor.FINITE_SUPPORTS:
            return not support.tails
        return True


# -- shifted-sequence witness checking --------------------------------------

class ShiftProblem:
    """A decreasing subgroup sequence, a map sequence to check against it,
    and a declared generator for the intersection."""

    __slots__ = ("groups", "witness", "candidate")

    def __init__(self, groups: Sequence[SubgroupTerm],
                 witness: Sequence[PLMap], candidate: NDSet):
        if len(witness) > len(groups):
            raise ValueError("more witness maps than groups")
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "witness", tuple(witness))
        object.__setattr__(self, "candidate", candidate)

    def __setattr__(self, name, value):
        raise AttributeError("ShiftProblem is immutable")


def shifted_groups(groups: Sequence[SubgroupTerm],
                   witness: Sequence[PLMap]) -> List[SubgroupTerm]:
    """K_n, normalized: the n-th group conjugated by the composition of
    the first n witness maps (K_0 is the plain first group)."""
    out = []
    sigma = PLMap.identity()
    for n, H in enumerate(groups):
        out.append(normalize(Conj(sigma, H)))
        if n < len(witness):
            sigma = witness[n].compose(sigma)
    return out


def check_decreasing(report: Report, groups: Sequence[SubgroupTerm],
                     rng: Random) -> None:
    """One ``decreasing`` record per consecutive pair of groups: exact
    when both sides normalize to Fix form, otherwise sampled on maps
    from ``rng`` (drawn only for such pairs)."""
    for n in range(len(groups) - 1):
        lo, hi = normalize(groups[n + 1]), normalize(groups[n])
        if isinstance(lo, Fix) and isinstance(hi, Fix):
            res = fix_leq(lo.support, hi.support)
            ok, mode = res.verdict is SubsetVerdict.YES, "exact"
            detail = ("" if res.witness is None
                      else f"witness {rat_str(res.witness)}")
        else:
            support = lo.support if isinstance(lo, Fix) else NDSet()
            ok = all(member(hi, g) for g in mixed_maps(support, rng, 20)
                     if member(lo, g))
            mode, detail = "sampled", ""
        report.add("decreasing", ok, n, mode=mode, detail=detail)


def check_shift_witness(problem: ShiftProblem, rng: Optional[Random] = None,
                        samples: int = 100,
                        filter_descriptor: FilterDescriptor =
                        FilterDescriptor.NOWHERE_DENSE_SUPPORTS) -> Report:
    """Per-step verdicts for a shifted-sequence witness.

    Checks, for each step: membership of the n-th map in the n-th
    shifted group (exact), containment of Fix(candidate) in every
    shifted group (exact in Fix form, sampled otherwise), that the
    declared groups are decreasing, and that the candidate generates a
    basis element of the declared filter.
    """
    rng = rng if rng is not None else Random(0)
    report = Report()
    ks = shifted_groups(problem.groups, problem.witness)

    report.add("candidate-basis",
               filter_descriptor.admits_basis(problem.candidate),
               detail=filter_descriptor.value)

    check_decreasing(report, problem.groups, rng)

    for n, pi in enumerate(problem.witness):
        report.add("member", member(ks[n], pi), n)

    for n, K in enumerate(ks):
        if isinstance(K, _FullGroup):
            report.add("candidate-leq", True, n)
            continue
        if isinstance(K, Fix):
            res = fix_leq(problem.candidate, K.support)
            if res.verdict is not SubsetVerdict.UNKNOWN:
                report.add("candidate-leq", res.verdict is SubsetVerdict.YES,
                           n, detail="" if res.witness is None
                           else f"witness {rat_str(res.witness)}")
                continue
        gens = fix_members(problem.candidate, rng, samples)
        report.add("candidate-leq", all(member(K, g) for g in gens), n,
                   mode="sampled", detail=f"{len(gens)} generated members")
    return report


__all__ = [
    "SubgroupTerm", "FULL_GROUP", "Fix", "Stab", "Conj", "Inter",
    "member", "fix_violation", "normalize", "fix_leq",
    "FilterDescriptor", "ShiftProblem", "shifted_groups", "check_decreasing",
    "check_shift_witness",
]

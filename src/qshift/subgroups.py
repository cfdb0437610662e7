"""Symbolic subgroup terms with decidable membership.

Subgroups of the automorphism group are represented intensionally: the
full group, pointwise stabilizers Fix(E) of a nowhere-dense set, setwise
stabilizers Stab(x) of a nested value, conjugates, and finite
intersections.  Everything downstream needs only membership tests,
containment of Fix-form terms, and conjugation, so no group element
enumeration is ever attempted.
"""

from __future__ import annotations

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


class _FullGroup(SubgroupTerm):
    __slots__ = ()

    def __repr__(self):
        return "FullGroup"

    def __eq__(self, other):
        return isinstance(other, _FullGroup)

    def __hash__(self):
        return hash("full")


FULL_GROUP = _FullGroup()


class Fix(SubgroupTerm):
    """Pointwise stabilizer of a nowhere-dense set of atoms."""

    __slots__ = ("support",)

    def __init__(self, support: NDSet):
        object.__setattr__(self, "support", support)

    def __setattr__(self, name, value):
        raise AttributeError("Fix is immutable")

    def __repr__(self):
        return f"Fix({self.support!r})"

    def __eq__(self, other):
        return isinstance(other, Fix) and self.support == other.support

    def __hash__(self):
        return hash(("fix", self.support))


class Stab(SubgroupTerm):
    """Setwise stabilizer of a hereditarily finite value."""

    __slots__ = ("obj",)

    def __init__(self, obj: HFAValue):
        object.__setattr__(self, "obj", obj)

    def __setattr__(self, name, value):
        raise AttributeError("Stab is immutable")

    def __repr__(self):
        return f"Stab({self.obj!r})"

    def __eq__(self, other):
        return isinstance(other, Stab) and self.obj == other.obj

    def __hash__(self):
        return hash(("stab", self.obj))


class Conj(SubgroupTerm):
    """Conjugate subgroup: by . inner . by^-1."""

    __slots__ = ("by", "inner")

    def __init__(self, by: PLMap, inner: SubgroupTerm):
        object.__setattr__(self, "by", by)
        object.__setattr__(self, "inner", inner)

    def __setattr__(self, name, value):
        raise AttributeError("Conj is immutable")

    def __repr__(self):
        return f"Conj({self.by!r}, {self.inner!r})"

    def __eq__(self, other):
        return (isinstance(other, Conj) and self.by == other.by
                and self.inner == other.inner)

    def __hash__(self):
        return hash(("conj", self.by, self.inner))


class Inter(SubgroupTerm):
    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[SubgroupTerm]):
        object.__setattr__(self, "parts", tuple(parts))

    def __setattr__(self, name, value):
        raise AttributeError("Inter is immutable")

    def __repr__(self):
        return f"Inter({list(self.parts)!r})"

    def __eq__(self, other):
        return isinstance(other, Inter) and self.parts == other.parts

    def __hash__(self):
        return hash(("inter", self.parts))


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


def shifted_groups(problem: ShiftProblem) -> List[SubgroupTerm]:
    """K_n: the n-th group conjugated by the composition of the first n
    witness maps (K_0 is the plain first group)."""
    out = []
    sigma = PLMap.identity()
    for n, H in enumerate(problem.groups):
        out.append(normalize(Conj(sigma, H)))
        if n < len(problem.witness):
            sigma = problem.witness[n].compose(sigma)
    return out


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
    ks = shifted_groups(problem)

    report.add("candidate-basis",
               filter_descriptor.admits_basis(problem.candidate),
               detail=filter_descriptor.value)

    for n in range(len(problem.groups) - 1):
        lo, hi = problem.groups[n + 1], problem.groups[n]
        lo_n, hi_n = normalize(lo), normalize(hi)
        if isinstance(lo_n, Fix) and isinstance(hi_n, Fix):
            res = fix_leq(lo_n.support, hi_n.support)
            report.add("decreasing", res.verdict is SubsetVerdict.YES, n,
                       detail="" if res.witness is None
                       else f"witness {rat_str(res.witness)}")
        else:
            support = lo_n.support if isinstance(lo_n, Fix) else NDSet()
            ok = all(member(hi_n, g) for g in mixed_maps(support, rng, 20)
                     if member(lo_n, g))
            report.add("decreasing", ok, n, mode="sampled")

    for n, pi in enumerate(problem.witness):
        report.add("member", member(ks[n], pi), n)

    for n, K in enumerate(ks):
        Kn = normalize(K)
        if isinstance(Kn, _FullGroup):
            report.add("candidate-leq", True, n)
            continue
        if isinstance(Kn, Fix):
            res = fix_leq(problem.candidate, Kn.support)
            if res.verdict is not SubsetVerdict.UNKNOWN:
                report.add("candidate-leq", res.verdict is SubsetVerdict.YES,
                           n, detail="" if res.witness is None
                           else f"witness {rat_str(res.witness)}")
                continue
        gens = fix_members(problem.candidate, rng, samples)
        report.add("candidate-leq", all(member(Kn, g) for g in gens), n,
                   mode="sampled", detail=f"{len(gens)} generated members")
    return report


__all__ = [
    "SubgroupTerm", "FULL_GROUP", "Fix", "Stab", "Conj", "Inter",
    "member", "fix_violation", "normalize", "fix_leq",
    "FilterDescriptor", "ShiftProblem", "shifted_groups",
    "check_shift_witness",
]

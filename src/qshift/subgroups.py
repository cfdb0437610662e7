"""Symbolic subgroup terms with decidable membership.

Subgroups of the automorphism group are represented intensionally: the
full group, pointwise stabilizers Fix(E) of a nowhere-dense set, setwise
stabilizers Stab(x) of a nested value, conjugates, and finite
intersections.  Every term normalizes to a Fix term, and containment of
Fix terms is decided on their supports, so no group element enumeration
is ever attempted; ``member`` on the terms as written is the oracle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .hfa import HFAValue, atoms_support, in_sym
from .ndsets import EMPTY_NDSET, NDSet, fix_violation
from .plmaps import PLMap
from .rationals import Frozen, Q, Record, Value, describe_rat
from .reporting import Report


# -- terms ---------------------------------------------------------------

class SubgroupTerm(Frozen, Value):
    __slots__ = ()


class _FullGroup(SubgroupTerm):
    __slots__ = ()

    def __repr__(self):
        return "FullGroup"


FULL_GROUP = _FullGroup()


class Fix(SubgroupTerm):
    """Pointwise stabilizer of a nowhere-dense set of atoms."""

    __slots__ = ("support",)

    def __init__(self, support: NDSet):
        object.__setattr__(self, "support", support)


class Stab(SubgroupTerm):
    """Setwise stabilizer of a hereditarily finite value."""

    __slots__ = ("obj",)

    def __init__(self, obj: HFAValue):
        object.__setattr__(self, "obj", obj)


class Conj(SubgroupTerm):
    """Conjugate subgroup: by . inner . by^-1."""

    # _by_inverse is by^-1, computed on first use by ``by_inverse``
    __slots__ = ("by", "inner", "_by_inverse")

    def __init__(self, by: PLMap, inner: SubgroupTerm):
        object.__setattr__(self, "by", by)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "_by_inverse", None)

    def by_inverse(self) -> PLMap:
        if self._by_inverse is None:
            object.__setattr__(self, "_by_inverse", self.by.invert())
        return self._by_inverse


class Inter(SubgroupTerm):
    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[SubgroupTerm]):
        object.__setattr__(self, "parts", tuple(parts))


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
        inner_elt = term.by_inverse().compose(f).compose(term.by)
        return member(term.inner, inner_elt)
    if isinstance(term, Inter):
        return all(member(p, f) for p in term.parts)
    raise TypeError(f"not a subgroup term: {type(term).__name__}")


# -- normalization --------------------------------------------------------

def normalize(term: SubgroupTerm) -> Fix:
    """Membership-preserving rewriting of every term to Fix form.

    An increasing map that stabilizes a hereditarily finite value maps
    its finite atom support onto itself, so it fixes each atom:
    Stab(x) = Fix(atoms_support(x)).  Conjugation carries Fix(E) to Fix
    of the image of E, Fix(A) and Fix(B) meet in Fix(A u B), and the full
    group is Fix of the empty set.
    """
    if isinstance(term, Fix):
        return term
    if isinstance(term, _FullGroup):
        return Fix(EMPTY_NDSET)
    if isinstance(term, Stab):
        return Fix(atoms_support(term.obj))
    if isinstance(term, Conj):
        inner = normalize(term.inner)
        if term.by.is_identity:
            return inner
        return Fix(inner.support.image(term.by))
    if isinstance(term, Inter):
        support = EMPTY_NDSET
        for part in term.parts:
            support = support.union(normalize(part).support)
        return Fix(support)
    raise TypeError(f"not a subgroup term: {type(term).__name__}")


# -- containment of Fix-form terms ----------------------------------------

def fix_leq(support: NDSet, other: NDSet) -> Optional[Q]:
    """None when Fix(support) <= Fix(other), else a member of ``other``
    that some map in Fix(support) moves.

    Holds exactly when every member of ``other`` lies in the closure of
    ``support``: maps fixing a set pointwise fix its closure, and any
    rational off the closure is movable by one.
    """
    return other.subset_of_closure(support)


# -- shifted-sequence witness checking --------------------------------------

class ShiftProblem(Frozen, Record):
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


def shifted_groups(groups: Sequence[SubgroupTerm],
                   witness: Sequence[PLMap]) -> List[Fix]:
    """K_n, normalized: the n-th group conjugated by the composition of
    the first n witness maps (K_0 is the plain first group)."""
    out = []
    sigma = PLMap.identity()
    for n, H in enumerate(groups):
        out.append(normalize(Conj(sigma, H)))
        if n < len(witness):
            sigma = witness[n].compose(sigma)
    return out


def add_fix_leq(report: Report, name: str, support: NDSet, other: NDSet,
                index: Optional[int] = None) -> None:
    """One record of Fix(support) <= Fix(other), naming the witness from
    ``fix_leq`` when it fails."""
    witness = fix_leq(support, other)
    report.add(name, witness is None, index,
               detail="" if witness is None
               else f"witness {describe_rat(witness)}")


def check_decreasing(report: Report, groups: Sequence[SubgroupTerm]) -> None:
    """One exact ``decreasing`` record per consecutive pair of groups."""
    supports = [normalize(h).support for h in groups]
    for n in range(len(supports) - 1):
        add_fix_leq(report, "decreasing", supports[n + 1], supports[n], n)


def check_shift_witness(problem: ShiftProblem) -> Report:
    """Per-step verdicts for a shifted-sequence witness, all exact.

    Checks, for each step: membership of the n-th map in the n-th
    shifted group, containment of Fix(candidate) in every shifted group,
    and that the declared groups are decreasing.  ``candidate-basis``
    always passes: every ``NDSet`` is nowhere dense.
    """
    report = Report()
    ks = shifted_groups(problem.groups, problem.witness)

    report.add("candidate-basis", True, detail="nowhere-dense")

    check_decreasing(report, problem.groups)

    for n, pi in enumerate(problem.witness):
        report.add("member", member(ks[n], pi), n)

    for n, K in enumerate(ks):
        add_fix_leq(report, "candidate-leq", problem.candidate, K.support, n)
    return report


__all__ = [
    "SubgroupTerm", "FULL_GROUP", "Fix", "Stab", "Conj", "Inter",
    "member", "fix_violation", "normalize", "fix_leq", "add_fix_leq",
    "ShiftProblem", "shifted_groups", "check_decreasing",
    "check_shift_witness",
]

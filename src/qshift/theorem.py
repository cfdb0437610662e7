"""Finite-prefix executions of the two directions relating shifted
stabilizer sequences to infinite branches, plus the essential-subfilter
shift of a value sequence.

Demo tree instances are orbits of atom-sequence prefixes under the
pointwise stabilizer of a declared base support, ordered by
end-extension.  Orbit membership for such instances is decidable: a
candidate sequence is reachable exactly when an increasing map fixing
the support carries the base prefix to it, which reduces to an order
pattern and closure-gap placement check (and the witness map itself is
constructed explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .construction import EStream
from .hfa import Atom, HFAValue, SeqNode, act, atoms_support
from .ndsets import EMPTY_NDSET, NDSet
from .plmaps import PLMap
from .rationals import Q, QshiftError
from .reporting import Report
from .subgroups import (Conj, Fix, Inter, Stab, SubgroupTerm, add_fix_leq,
                        check_decreasing, member, normalize, shifted_groups)


class CertificateError(QshiftError):
    """A certificate is internally inconsistent (hard error, not a verdict)."""
    exit_code = 1
    label = "certificate error"

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"certificate invalid at index {index}: {message}")


# -- order isomorphisms with prescribed values -------------------------------

def order_iso_fixing(support: NDSet,
                     pairs: Sequence[Tuple[Q, Q]]) -> Optional[PLMap]:
    """Increasing map fixing ``support`` pointwise with f(a) = b for every
    pair (a, b), or None when no such map exists.

    Points of the support's closure can only map to themselves; any
    other point can move freely inside its closure gap, so the map
    exists iff prescribed values respect the order pattern and stay in
    the gap of their argument.
    """
    wanted: Dict[Q, Q] = {}
    for a, b in pairs:
        if a in wanted and wanted[a] != b:
            return None
        wanted[a] = b
    moved = []
    for a in sorted(wanted):
        b = wanted[a]
        if support.closure_contains(a):
            if a != b:
                return None
            continue  # fixed automatically by any member of Fix(support)
        moved.append((a, b))
    anchors: Dict[Q, Q] = {}
    for a, b in moved:
        lo, hi = support.neighbours(a)
        if (lo is not None and not b > lo) or (hi is not None and not b < hi):
            return None  # target leaves the closure gap of its argument
        if lo is not None:
            anchors[lo] = lo
        if hi is not None:
            anchors[hi] = hi
    bps = sorted(set(moved) | set(anchors.items()))
    if not bps:
        return PLMap.identity()
    for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
        if not (x0 < x1 and y0 < y1):
            return None  # order pattern violated
    return PLMap(bps)


# -- tree instances -----------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False)
class TreeInstance:
    """Orbit tree of atom-sequence prefixes under Fix(base_support)."""

    base: Sequence[HFAValue]
    base_support: NDSet

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        if not all(isinstance(x, Atom) for x in self.base):
            raise ValueError("demo tree instances take atom sequences")

    def prefix(self, n: int) -> SeqNode:
        if n > len(self.base):
            raise ValueError("prefix longer than the base sequence")
        return SeqNode(self.base[:n])

    def branch_prefixes(self, upto: int) -> List[SeqNode]:
        """The base branch s_0, ..., s_upto (s_n has length n)."""
        return [self.prefix(n) for n in range(upto + 1)]

    def declared_groups(self, count: int) -> List[SubgroupTerm]:
        """Fix-form generators: H_0 = Fix(support), H_{n+1} adds the atoms
        of the length-n prefix."""
        s = self.induced_stream(count - 1)
        return [Fix(s.level(n)) for n in range(count)]

    def induced_stream(self, upto: int) -> EStream:
        """Support increments matching declared_groups: level n carries
        the support of H_n; past the base sequence the increments are
        empty, so the chain stays constant."""
        incs: List[NDSet] = []
        for n in range(upto + 1):
            if n == 0:
                incs.append(self.base_support)
            elif n == 1:
                incs.append(EMPTY_NDSET)
            else:
                incs.append(NDSet(points=[x.value
                                          for x in self.base[n - 2:n - 1]]))
        return EStream(incs)


def orbit_member(inst: TreeInstance, candidate: SeqNode) -> bool:
    """Whether the candidate sequence is an image of the base prefix of
    the same length under a map fixing the base support pointwise."""
    if not isinstance(candidate, SeqNode):
        raise ValueError("orbit membership takes a sequence node")
    for item in candidate.items:
        if not isinstance(item, Atom):
            raise ValueError("demo orbit membership takes atom sequences")
    n = len(candidate.items)
    if n > len(inst.base):
        raise ValueError("candidate longer than the available base prefix")
    pairs = [(inst.base[i].value, candidate.items[i].value) for i in range(n)]
    return order_iso_fixing(inst.base_support, pairs) is not None


# -- direction: shifted maps to a branch --------------------------------------

def branch_from_shifts(inst: TreeInstance, s: Sequence[SeqNode],
                       pis: Sequence[PLMap]) -> Tuple[List[HFAValue], Report]:
    """Shift a chain through the maps and verify it stays a branch.

    t_n is the image of s_n under pi_n . ... . pi_0.  Checks: each t_n
    end-extends its predecessor, each pi_{n+1} fixes t_n, and each t_n
    lies in the orbit tree.
    """
    s = list(s)
    for a, b in zip(s, s[1:]):
        if not (b.extends(a) and len(b) == len(a) + 1):
            raise ValueError("chain must grow by one item per step")
    if len(pis) < len(s):
        raise ValueError("need one map per chain element")
    report = Report()
    ts: List[HFAValue] = []
    sigma = PLMap.identity()
    for n, node in enumerate(s):
        sigma = pis[n].compose(sigma)
        ts.append(act(sigma, node))
    for n in range(len(ts) - 1):
        ok = (isinstance(ts[n + 1], SeqNode) and ts[n + 1].extends(ts[n])
              and len(ts[n + 1]) == len(ts[n]) + 1)
        report.add("chain", ok, n,
                   detail="t_{n+1} end-extends t_n")
    for n in range(len(ts)):
        if n + 1 < len(pis):
            report.add("fixed-point", act(pis[n + 1], ts[n]) == ts[n], n,
                       detail="pi_{n+1} fixes t_n")
    for n, t in enumerate(ts):
        report.add("orbit-member", orbit_member(inst, t), n)
    return ts, report


# -- direction: a branch to shifted maps ---------------------------------------

@dataclass(frozen=True, slots=True, eq=False)
class BranchCertificate:
    """Base values, a claimed branch over them, and maps carrying each
    base prefix onto the branch prefix of the same length."""

    x: Sequence[HFAValue]
    t: Sequence[HFAValue]
    tau: Sequence[PLMap]

    def __post_init__(self):
        if not (len(self.x) == len(self.t) == len(self.tau)):
            raise ValueError("certificate components must have equal length")
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "t", tuple(self.t))
        object.__setattr__(self, "tau", tuple(self.tau))

    def __len__(self):
        return len(self.x)

    def check_consistency(self) -> None:
        """tau_n must carry the x-prefix to the t-prefix (hard error)."""
        for n in range(len(self.x)):
            want = SeqNode(self.t[:n + 1])
            got = act(self.tau[n], SeqNode(self.x[:n + 1]))
            if got != want:
                raise CertificateError(n, "tau does not map the base prefix "
                                          "onto the branch prefix")


def shifts_from_branch(inst: TreeInstance, cert: BranchCertificate,
                       hs: Sequence[SubgroupTerm]
                       ) -> Tuple[List[PLMap], List[Fix], Report]:
    """Derive the map sequence pi_n = tau_n . tau_{n-1}^{-1} and the
    shifted groups, then verify both membership claims, all exactly.

    The declared groups are checked to decrease, pair by pair, as in
    ``subgroups.check_shift_witness``.  Claim 1: each pi_n belongs to its
    shifted group K_n.  Claim 2: the group generated by the base support
    and the branch's atoms lies in the stabilizer of the branch met with
    K_0, and in every K_n; both are containments of Fix terms.
    """
    cert.check_consistency()
    if len(hs) < len(cert):
        raise ValueError("need one declared group per certificate level")
    pis: List[PLMap] = []
    for n in range(len(cert)):
        if n == 0:
            pis.append(cert.tau[0])
        else:
            pis.append(cert.tau[n].compose(cert.tau[n - 1].invert()))
    report = Report()

    sigma = PLMap.identity()
    for n, pi in enumerate(pis):
        sigma = pi.compose(sigma)
        report.add("telescoping", sigma == cert.tau[n], n,
                   detail="pi_n . ... . pi_0 == tau_n")

    check_decreasing(report, hs[:len(cert)])

    # equal to conjugating H_n by tau_{n-1} wherever telescoping holds
    ks = shifted_groups(hs[:len(cert)], pis)
    for n, (k, pi) in enumerate(zip(ks, pis)):
        report.add("claim1", member(k, pi), n, detail="pi_n in K_n")

    branch_prefix = SeqNode(cert.t)
    k_top = normalize(Inter([Stab(branch_prefix), ks[0]]))
    gen_support = inst.base_support.union(atoms_support(branch_prefix))
    add_fix_leq(report, "claim2-generators", gen_support, k_top.support)
    for n, k in enumerate(ks):
        add_fix_leq(report, "claim2", gen_support, k.support, n)
    return pis, ks, report


# -- essential-subfilter shift -------------------------------------------------

def essential_shift(xs: Sequence[HFAValue], pis: Sequence[PLMap]
                    ) -> Tuple[List[HFAValue], Report]:
    """Shift a value sequence: y_n is the image of x_n under
    pi_{n-1} . ... . pi_0 (the empty composition for n = 0).

    Verifies the conjugation identity between the stabilizer of y_n and
    the conjugated stabilizer of x_n (the normal form of the conjugate
    against Fix of the support of y_n), and that stabilizing every y_n is
    the same as stabilizing the sequence of all of them.
    """
    if xs and len(pis) < len(xs) - 1:
        raise ValueError("need a map per step between consecutive values")
    report = Report()
    ys: List[HFAValue] = []
    sigmas: List[PLMap] = []
    sigma = PLMap.identity()
    for n, x in enumerate(xs):
        sigmas.append(sigma)
        ys.append(act(sigma, x))
        if n < len(pis):
            sigma = pis[n].compose(sigma)

    union_support = EMPTY_NDSET
    for y in ys:
        union_support = union_support.union(atoms_support(y))

    for n, (x, y, sig) in enumerate(zip(xs, ys, sigmas)):
        report.add("conjugation-two-route",
                   normalize(Conj(sig, Stab(x))) == Fix(atoms_support(y)), n)

    report.add("sequence-stabilizer",
               Fix(union_support) == normalize(Stab(SeqNode(ys))))
    return ys, report


__all__ = [
    "CertificateError", "order_iso_fixing", "TreeInstance", "orbit_member",
    "branch_from_shifts", "BranchCertificate", "shifts_from_branch",
    "essential_shift",
]

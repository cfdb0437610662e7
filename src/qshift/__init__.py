"""Exact piecewise-linear order automorphisms of the rationals, nowhere
dense supports, shifted stabilizer sequences, and the certificates tying
them together."""

from ._qarith import BACKEND, Q
from .construction import (EStream, EvacuationError, ShiftTrace,
                           canonical_interval, evacuate, rational_enum,
                           run_shift_construction, verify_shift_trace,
                           witness_subgroup)
from .hfa import Atom, SeqNode, SetNode, act, atom_seq, atoms_support, in_sym
from .ndsets import EMPTY_NDSET, GeomTail, NDSet, ndset_points
from .plmaps import PLMap, squeeze_map
from .rationals import Interval, LimitError, QshiftError, rat, rat_str
from .reporting import Check, Report
from .subgroups import (FULL_GROUP, Conj, Fix, Inter, ShiftProblem, Stab,
                        check_shift_witness, fix_leq, member, normalize)
from .theorem import (BranchCertificate, CertificateError, TreeInstance,
                      branch_from_shifts, essential_shift, orbit_member,
                      order_iso_fixing, shifts_from_branch)

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "Q", "Interval", "LimitError", "QshiftError", "rat", "rat_str",
    "PLMap", "squeeze_map",
    "GeomTail", "NDSet", "EMPTY_NDSET", "ndset_points",
    "Atom", "SetNode", "SeqNode", "atom_seq", "act", "atoms_support", "in_sym",
    "FULL_GROUP", "Fix", "Stab", "Conj", "Inter", "member", "normalize",
    "fix_leq", "ShiftProblem", "check_shift_witness",
    "EStream", "EvacuationError", "ShiftTrace", "canonical_interval",
    "rational_enum", "evacuate", "run_shift_construction",
    "verify_shift_trace", "witness_subgroup",
    "TreeInstance", "BranchCertificate", "CertificateError", "orbit_member",
    "order_iso_fixing", "branch_from_shifts", "shifts_from_branch",
    "essential_shift",
    "Check", "Report",
]

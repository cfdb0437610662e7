"""Hereditarily finite sets and sequences over rational atoms.

Values are atoms (rational numbers), finite sets, or finite sequences,
nested to any finite depth.  An increasing bijection of the rationals
acts recursively: on an atom through the map itself, elementwise on sets
and itemwise on sequences.  Set elements are kept sorted by a total
structural order and deduplicated, so extensional equality is plain
structural equality.
"""

from __future__ import annotations

from typing import Iterable

from .ndsets import NDSet
from .plmaps import PLMap
from .rationals import Frozen, rat, rat_str


class HFAValue(Frozen):
    __slots__ = ("_key",)

    def __eq__(self, other):
        return isinstance(other, HFAValue) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


class Atom(HFAValue):
    __slots__ = ("value",)

    def __init__(self, value):
        value = rat(value)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_key", (0, value))

    def __repr__(self):
        return f"Atom({rat_str(self.value)})"


class SetNode(HFAValue):
    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[HFAValue] = ()):
        uniq = {}
        for e in elements:
            if not isinstance(e, HFAValue):
                raise TypeError("set elements must be HFA values")
            uniq[e._key] = e
        ordered = tuple(uniq[k] for k in sorted(uniq))
        object.__setattr__(self, "elements", ordered)
        object.__setattr__(self, "_key", (1, tuple(e._key for e in ordered)))

    def __repr__(self):
        return "SetNode({" + ", ".join(map(repr, self.elements)) + "})"


class SeqNode(HFAValue):
    __slots__ = ("items",)

    def __init__(self, items: Iterable[HFAValue] = ()):
        items = tuple(items)
        for e in items:
            if not isinstance(e, HFAValue):
                raise TypeError("sequence items must be HFA values")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_key", (2, tuple(e._key for e in items)))

    def __repr__(self):
        return "SeqNode([" + ", ".join(map(repr, self.items)) + "])"

    def __len__(self):
        return len(self.items)

    def extends(self, other: "SeqNode") -> bool:
        """End-extension: other is an initial segment of self."""
        return (len(other.items) <= len(self.items)
                and self.items[:len(other.items)] == other.items)


def atom_seq(values: Iterable) -> SeqNode:
    return SeqNode([Atom(v) for v in values])


def act(f: PLMap, x: HFAValue) -> HFAValue:
    """Recursive action of an automorphism on a value."""
    if isinstance(x, Atom):
        return Atom(f.apply(x.value))
    if isinstance(x, SetNode):
        return SetNode(act(f, e) for e in x.elements)
    if isinstance(x, SeqNode):
        return SeqNode(act(f, e) for e in x.items)
    raise TypeError(f"not an HFA value: {type(x).__name__}")


def _collect_atoms(x: HFAValue, sink: set) -> None:
    if isinstance(x, Atom):
        sink.add(x.value)
    elif isinstance(x, SetNode):
        for e in x.elements:
            _collect_atoms(e, sink)
    elif isinstance(x, SeqNode):
        for e in x.items:
            _collect_atoms(e, sink)
    else:
        raise TypeError(f"not an HFA value: {type(x).__name__}")


def atoms_support(x: HFAValue) -> NDSet:
    """All atom values in the transitive closure, as a point set."""
    atoms: set = set()
    _collect_atoms(x, atoms)
    return NDSet(points=atoms)


def in_sym(f: PLMap, x: HFAValue) -> bool:
    """Membership oracle for the setwise stabilizer of x."""
    return act(f, x) == x


__all__ = ["HFAValue", "Atom", "SetNode", "SeqNode", "atom_seq", "act",
           "atoms_support", "in_sym"]

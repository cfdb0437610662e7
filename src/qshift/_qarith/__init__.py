"""Exact rational kernel with backend selection.

Every rational number in the package is a ``Q``.  Two interchangeable
backends exist:

* ``speedups`` -- a Cython extension type, compiled from the committed
  ``_speedups.c``;
* ``pure`` -- a slotted Python class in ``pure.py``, ported from
  ``_speedups.pyx`` method by method.

Both keep one contract.  A ``Q`` is ``numerator / denominator`` with
``denominator > 0`` and the two parts coprime, so ``0`` is ``0/1``.
``Q(n)`` and ``Q(n, d)`` take ints (``Q(q)`` gives an equal ``Q``); any
other operand is refused.  ``+ - * /``, ``**`` by an int, negation,
``abs`` and the six comparisons mix a ``Q`` with a ``Q`` or an ``int``,
and answer ``NotImplemented`` to anything else, so a stray
``fractions.Fraction`` raises ``TypeError`` instead of taking a slow path.
``hash`` is ``hash(n)`` for an integer and ``hash((n, d))`` otherwise,
and ``str`` is ``"n/d"``, or ``"n"`` for an integer.

The compiled backend is preferred when importable.  Set the environment
variable ``QSHIFT_BACKEND=pure`` (or ``speedups``) to force a choice;
forcing ``speedups`` raises if the extension was not built.

Both backends produce identical exact values, so every artifact the
package writes (traces, reports, golden files) is byte-identical across
backends.  stdlib ``fractions.Fraction`` is only the oracle the tests
check both backends against.
"""

import os

_requested = os.environ.get("QSHIFT_BACKEND", "").strip().lower()
if _requested not in ("", "pure", "speedups"):
    raise RuntimeError(
        f"QSHIFT_BACKEND must be 'pure' or 'speedups', got {_requested!r}"
    )

if _requested == "pure":
    from .pure import Q

    BACKEND = "pure"
elif _requested == "speedups":
    from ._speedups import Q

    BACKEND = "speedups"
else:
    try:
        from ._speedups import Q

        BACKEND = "speedups"
    except ImportError:
        from .pure import Q

        BACKEND = "pure"

__all__ = ["Q", "BACKEND"]

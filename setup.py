"""Build script.

Compiles the optional rational-arithmetic speedup extension from the
committed C source ``_speedups.c`` (generated from ``_speedups.pyx``), so
no Cython is needed.  The package is fully functional without it (the
pure backend is a Python port of the same kernel), so the extension is
marked optional: a failed compile downgrades to a pure-Python install instead
of aborting.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("qshift._qarith._speedups",
                             ["src/qshift/_qarith/_speedups.c"],
                             optional=True)])

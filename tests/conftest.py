"""Shared fixtures: the compiled rational kernel, built when missing, both
kernels' ``Q`` side by side, and a sampler of sets whose tail hulls
overlap deeply.

Both kernels are tested in every run.  When ``qshift._qarith._speedups``
is not importable (a plain checkout run with ``PYTHONPATH=src``), the
committed ``_speedups.c`` is compiled into the pytest cache, keyed by the
source's digest, and loaded from there by path.  A failed build fails
the tests that need the kernel; it never skips them.
"""

import hashlib
import importlib.machinery
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "qshift" / "_qarith" / "_speedups.c"
MODULE = "qshift._qarith._speedups"


def _build(out: Path) -> Path:
    so = out / "qshift" / "_qarith" / (
        "_speedups" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not so.is_file():
        # setup.py marks the extension optional, so a failed compile still
        # exits 0: the built file is what tells
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
             "--build-temp", str(out / "tmp")],
            cwd=ROOT, capture_output=True, text=True)
        if not so.is_file():
            pytest.fail("building the compiled kernel failed:\n"
                        + proc.stdout + proc.stderr, pytrace=False)
    return so


@pytest.fixture(scope="session")
def speedups(request):
    """The compiled kernel module, built from the committed C source into
    the pytest cache when it is not importable."""
    try:
        return importlib.import_module(MODULE)
    except ImportError:
        pass
    digest = hashlib.sha256(SOURCE.read_bytes()).hexdigest()[:16]
    out = Path(request.config.cache.mkdir(f"qshift-speedups-{digest}"))
    spec = importlib.util.spec_from_file_location(MODULE, _build(out))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def kernels(speedups):
    """Both kernels' ``Q``: the pure one, then the compiled one."""
    from qshift._qarith.pure import Q as PureQ
    return (PureQ, speedups.Q)


@pytest.fixture(scope="session")
def crowded_presentation():
    """Sampler of points and many tails whose hulls pile up around a few
    nearby limits: ``crowded_presentation(rng) -> (points, tails)``."""
    from qshift.ndsets import GeomTail
    from qshift.rationals import Q
    from qshift.sampling import rng_positive_rational, rng_rational

    def sample(rng):
        limits = [rng_rational(rng, 3) for _ in range(2)]
        tails = [GeomTail(rng.choice(limits),
                          rng.choice((1, -1)) * rng_positive_rational(rng, 3),
                          Q(1, rng.randint(2, 5)))
                 for _ in range(rng.randint(5, 9))]
        return [rng_rational(rng, 4) for _ in range(rng.randint(0, 4))], tails

    return sample

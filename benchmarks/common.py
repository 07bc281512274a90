"""Shared set-up for the benchmark scripts: one BLAS thread, and the
intersim package imported from this checkout's ``src/`` and nowhere else."""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURE = BENCH_DIR / "fixtures" / "levelk_policy.json"
MANIFEST = BENCH_DIR / "fixtures" / "levelk_policy.manifest.json"

# Pinned before numpy loads anywhere in the process, and inherited by the
# set-up probes the runner starts. Every timing is single-threaded.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def pin_blas() -> None:
    os.environ.update(BLAS_ENV)


# The host speed probe: a fixed loop of the kind the simulator runs, small
# numpy array kernels between interpreted Python, about 1 ms. Other tenants
# of a shared host slow the processor by up to 2x in phases that last from
# a fraction of a second to minutes; the probe, timed between ticks, tells
# how fast the host ran at that moment. PROBE_REF_S is about its fastest
# time between ticks on the 2-core Xeon VM used to size the workloads:
# timings scaled by PROBE_REF_S / probe time read as host time on that
# machine when nothing else loads it.
PROBE_REF_S = 0.8e-3
_PROBE_A = None
_PROBE_B = None


def speed_probe() -> float:
    """Seconds the probe loop takes now."""
    global _PROBE_A, _PROBE_B
    import numpy as np

    if _PROBE_A is None:
        rng = np.random.default_rng(0)
        _PROBE_A, _PROBE_B = rng.random((400, 2)), rng.random((30, 2))
    t0 = time.perf_counter()
    hits = 0
    for _ in range(2):
        d = _PROBE_A[:, None, :] - _PROBE_B[None, :, :]
        hits += int((np.hypot(d[..., 0], d[..., 1]) < 0.5).sum())
        hits += sum(j % 7 for j in range(60))
    return time.perf_counter() - t0


class SourceMissing(RuntimeError):
    """The checkout has no intersim sources to benchmark."""


def import_intersim():
    """Import intersim from ``<checkout>/src``; refuse any other copy."""
    pkg = SRC / "intersim"
    if not (pkg / "harness.py").is_file():
        raise SourceMissing(f"no intersim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import intersim.harness

    # intersim is a namespace package, so a second copy elsewhere on the
    # path would merge into it silently
    found = [Path(p).resolve() for p in intersim.__path__]
    if found != [pkg.resolve()]:
        raise SourceMissing(f"intersim resolved to {found}, not {pkg}")
    return intersim

"""Shared benchmark machinery.

Every benchmark file regenerates one table or figure of the paper (see
DESIGN.md §4).  Conventions:

* grids default to the registry's bench dims (64^3-class); set
  ``REPRO_SCALE=2`` (or higher) to scale every axis up,
* each benchmark prints its paper-style table (visible with ``-s``) and
  writes it to ``benchmarks/out/<name>.txt`` so results persist in any
  capture mode,
* "shape" assertions encode the paper's qualitative claims (who wins,
  roughly by how much) — they are the reproduction criteria, since our
  substrate is numpy, not the authors' C++ testbed.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

# tests/ modules do `from conftest import max_err, smooth_field`; if a
# single pytest invocation ever collects tests/ and benchmarks/
# together, this module wins the `conftest` import, so keep those
# helpers (and the shared synthetic-volume fixtures) available here too
# (the default run is scoped to tests/ by pytest.ini precisely to avoid
# the shadowing).  Fixture bodies live in repro.testing — one
# definition for both trees.
from repro.testing import (  # noqa: F401
    max_err,
    rng,
    smooth2d_f32,
    smooth3d_f32,
    smooth3d_f64,
    smooth_field,
)
from repro.util.alloc import tune_allocator

# malloc tuning is opt-in (it raises steady-state RSS); the benchmark
# harness is a throughput-measuring entry point, so it opts in —
# without this both encode paths are page-fault-bound (DESIGN.md §3)
tune_allocator()

OUT_DIR = Path(__file__).parent / "out"

#: relative error bounds swept by the rate-distortion benchmarks
REL_EBS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


@pytest.fixture(scope="session")
def artifact():
    """Writer: artifact("name", text) persists and echoes a table."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text)
        print(f"\n=== {name} ===\n{text}")

    return write


def fmt_table(
    headers: list[str], rows: list[list], widths: list[int] | None = None
) -> str:
    """Plain-text table used by every benchmark printout."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0 or math.isinf(v) or math.isnan(v):
            return f"{v}"
        if abs(v) >= 1000 or abs(v) < 1e-3:
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)


def eb_for_target_cr(
    compress: Callable[[np.ndarray, float], bytes],
    data: np.ndarray,
    target_cr: float,
    lo: float = 1e-6,
    hi: float = 0.3,
    iters: int = 10,
) -> float:
    """Bisect (in log error-bound) for the bound hitting a target CR —
    the paper compares codecs "at similar compression ratios"."""
    lo_l, hi_l = math.log(lo), math.log(hi)
    for _ in range(iters):
        mid = math.exp(0.5 * (lo_l + hi_l))
        cr = data.nbytes / len(compress(data, mid))
        if cr < target_cr:
            lo_l = math.log(mid)
        else:
            hi_l = math.log(mid)
    return math.exp(0.5 * (lo_l + hi_l))

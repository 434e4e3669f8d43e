"""Hierarchical multi-dimensional interpolation predictors (paper §3.1).

Predicts a parity-``eps`` sub-block of the next finer lattice from the
reconstructed coarse lattice ``C``.  A sub-block point with index ``k``
sits at coarse coordinate ``k + eps/2`` per axis: axes with ``eps=0`` are
aligned with the coarse grid, axes with ``eps=1`` sit at midpoints.  The
paper's prediction ladder (its Figure 5 ablation) maps to ``interp``:

* ``"direct"``  — Optimization 1, Eq. (1): copy the base coarse neighbor.
* ``"linear"``  — Optimization 2, Eqs. (3)-(5): (bi/tri)linear midpoint
  interpolation.
* ``"cubic"``   — Optimization 4, Eqs. (6)-(8): 1D cubic spline along one
  odd axis, and the paper's *diagonal* bi-/tri-cubic approximations for
  two and three odd axes (``mode="diagonal"``).  ``mode="tensor"``
  applies the 1D cubic operator separably instead (a design-choice
  ablation the benchmarks exercise).

Boundary policy matches the paper: cubic needs the full 4-point stencil,
so points whose stencil leaves the lattice fall back to linear, and the
final midpoint of an even-sized axis (no right neighbor) falls back to a
direct copy.  One edge rule gives that copy: every stencil term is an
offset view of the coarse lattice, edge-padded by one cell past the end
of an axis where the points reach it (:func:`_edge_pad`), so the linear
formula averages the last cell with its duplicate.

Every stencil is one combine, ``sum(near)*wn - sum(outer)*wo``, and
one region plan (:func:`_grid_plan`) decides which stencil covers which
slab of the requested points, so every path agrees *bit-for-bit*:

* :func:`predict_block` — a parity sub-block, or any box of it, by
  pure slicing.  Compression predicts whole sub-blocks; decompression
  predicts the box a window covers, from the coarse window alone
  (``origin``/``full_shape``: the cubic-interior test and the edge
  pad follow the whole lattice, so a window prediction equals the
  crop of the whole-block one — which is what makes ``ROI
  decompression == cropped full decompression`` exact),
* :func:`predict_dequant_block` — the fused decode, walking the same
  plan through the compiled ``jit.combine_dequant`` kernel,
* :func:`interp_axis_midpoints` — the 1D operator of the tensor mode
  and of SZ3's cascade, kept off the plan because those batches are
  many and thin.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.partition import Box, Offset
from repro.util import jit


def _cubic_weights(j: int) -> tuple[float, float]:
    """Diagonal cubic weights ``(wn, wo) = (9, 1) / 2**(j + 3)`` for
    ``j`` odd axes: pred = wn * sum(nearest 2^j) - wo * sum(outer-
    diagonal 2^j).  Eqs. 6-8 give j = 1..3 (1/16, 1/32, 1/64); dividing
    by a power of two is exact, so the rule reproduces them bit for bit
    and extends them to any rank."""
    scale = 2.0 ** (j + 3)
    return 9.0 / scale, 1.0 / scale


INTERP_KINDS = ("direct", "linear", "cubic")
CUBIC_MODES = ("diagonal", "tensor")


def _sum_seq(arrays: list[np.ndarray]) -> np.ndarray:
    """Left-to-right sum with a fixed op sequence (bit-reproducible)."""
    s = arrays[0] + arrays[1] if len(arrays) > 1 else arrays[0].copy()
    for a in arrays[2:]:
        s = s + a
    return s


def _combine(
    near: list[np.ndarray], outer: list[np.ndarray], wn: float, wo: float
) -> np.ndarray:
    """``sum(near)*wn - sum(outer)*wo`` (no outer term when ``outer`` is
    empty): the one stencil evaluation behind every predictor."""
    # compiled fused combine (repro.util.jit, DESIGN.md §10): one pass
    # over the strided views instead of 2^j temporaries; the weights are
    # dyadic, so the scalar cast is exact and the result is bit-identical
    # to the reference expression below
    out = jit.combine(near, outer, wn, wo)
    if out is not None:
        return out
    pred = _sum_seq(near) * wn
    return pred - _sum_seq(outer) * wo if outer else pred


def _edge_pad(C: np.ndarray, axes) -> np.ndarray:
    """``C`` with one more cell past the end of each axis in ``axes``,
    a copy of its last cell: ``P[k + 1] == C[min(k + 1, n - 1)]``.

    The one edge rule of every predictor: the +1 neighbour of the last
    midpoint of an even axis reads the duplicated cell, so the linear
    formula there averages a cell with itself (the paper's copy
    fallback, evaluated by the same combine as every other point).
    Returns ``C`` itself, no copy, when ``axes`` is empty.
    """
    if not axes:
        return C
    P = np.empty([n + (a in axes) for a, n in enumerate(C.shape)], C.dtype)
    P[tuple(slice(0, n) for n in C.shape)] = C
    for a in axes:
        # later axes copy the cells this one adds, corners included
        P[(slice(None),) * a + (-1,)] = P[(slice(None),) * a + (-2,)]
    return P


def _validate(
    C: np.ndarray,
    eps: Offset,
    ts: tuple[int, ...],
    box: Box | None,
    origin: tuple[int, ...] | None,
    full_shape: tuple[int, ...] | None,
) -> tuple[list[int], Box, tuple[int, ...], tuple[int, ...]]:
    """Check one prediction request; returns the odd axes and the
    window ``(box, origin, full)`` with its defaults filled in: the
    whole sub-block ``[0, ts)`` predicted from the whole lattice ``C``.

    A coarse window ``C`` sits at ``origin`` in a lattice of shape
    ``full_shape``.  It must cover every cell the box's stencils read —
    ``k - 1 .. k + 2`` on an odd axis, clipped to the lattice — so that
    a box reaches the window's end only where it reaches the lattice's,
    the one place :func:`_grid_plan` edge-pads.
    """
    if (origin is None) != (full_shape is None):
        raise ValueError("origin and full_shape must be given together")
    full = C.shape if full_shape is None else tuple(full_shape)
    org = (0,) * C.ndim if origin is None else tuple(origin)
    box = tuple((0, t) for t in ts) if box is None else tuple(box)
    if not len(eps) == len(ts) == len(full) == len(org) == len(box) == C.ndim:
        raise ValueError("eps/ts/window rank mismatch with coarse array")
    odd = [a for a in range(C.ndim) if eps[a]]
    if not odd:
        raise ValueError("eps must be a nonzero parity offset")
    for a, ((lo, hi), o, n, w) in enumerate(zip(box, org, full, C.shape)):
        if eps[a] == 0 and ts[a] != n:
            raise ValueError(
                f"aligned axis {a}: target size {ts[a]} != coarse {n}"
            )
        if eps[a] == 1 and not (ts[a] in (n, n - 1) or n <= 1):
            raise ValueError(
                f"odd axis {a}: target size {ts[a]} incompatible with "
                f"coarse {n}"
            )
        if not 0 <= lo <= hi <= ts[a]:
            raise ValueError(
                f"axis {a}: box {(lo, hi)} outside the sub-block extent "
                f"{ts[a]}"
            )
        need = (max(lo - 1, 0), min(hi + 2, n)) if eps[a] else (lo, hi)
        if not (0 <= o <= need[0] and need[1] <= o + w <= n):
            raise ValueError(
                f"axis {a}: coarse window [{o}, {o + w}) does not cover "
                f"cells {need} of the box {(lo, hi)}"
            )
    return odd, box, org, full


# ---------------------------------------------------------------------------
# region plan
# ---------------------------------------------------------------------------

def _grid_plan(
    C: np.ndarray,
    odd: list[int],
    box: Box,
    interp: str,
    origin: tuple[int, ...],
    full: tuple[int, ...],
) -> list[tuple]:
    """The stencil regions of the sub-block points in ``box``: disjoint
    ``(region, near, outer, wn, wo)`` tuples, each ``region`` (relative
    to the box) predicted as ``sum(near)*wn - sum(outer)*wo``.  ``C``
    is the coarse window at ``origin`` in a lattice of shape ``full``.

    Every stencil term is an offset view of the window, edge-padded
    (:func:`_edge_pad`) on the odd axes where the box reaches its end —
    which :func:`_validate` allows only at the lattice end.  Linear, or
    cubic with an empty interior, is one whole-box region (the padded
    +1 corner copies at the last midpoint of an even axis).  Cubic is
    the interior slab where the 4-point stencil fits (``k`` in
    ``[1, full-3]`` per odd axis, within the box), then linear on the
    boundary shell in disjoint slabs: slab ``i`` fixes odd axis ``a_i``
    to one boundary run and keeps the earlier odd axes on the interior.
    Each point gets the element-wise formula of evaluating linear
    everywhere and overwriting the interior, so values are
    bit-identical to that whatever the box.
    """
    j = len(odd)
    P = _edge_pad(
        C, [a for a in odd if box[a][1] - origin[a] >= C.shape[a]]
    )
    start = tuple(lo for lo, _ in box)

    def taps(bounds, offsets: tuple[int, int]) -> list[np.ndarray]:
        # the views of ``bounds`` shifted by every offset combination
        # on the odd axes, the last odd axis varying fastest
        choices = [
            [slice(lo - o + d, hi - o + d) for d in offsets]
            if a in odd
            else [slice(lo - o, hi - o)]
            for a, ((lo, hi), o) in enumerate(zip(bounds, origin))
        ]
        return [P[sl] for sl in itertools.product(*choices)]

    def linear(bounds) -> tuple:
        return _at(bounds, start), taps(bounds, (0, 1)), [], 0.5**j, 0.0

    inner = list(box)
    for a in odd:
        inner[a] = (max(1, box[a][0]), min(full[a] - 2, box[a][1]))
    if interp == "linear" or any(inner[a][1] <= inner[a][0] for a in odd):
        return [linear(box)]

    near, outer = taps(inner, (0, 1)), taps(inner, (-1, 2))
    plan = [(_at(inner, start), near, outer, *_cubic_weights(j))]
    for i, a in enumerate(odd):
        for run in ((box[a][0], inner[a][0]), (inner[a][1], box[a][1])):
            if run[0] < run[1]:
                bounds = [
                    inner[b] if b in odd[:i] else box[b]
                    for b in range(C.ndim)
                ]
                bounds[a] = run
                plan.append(linear(bounds))
    return plan


def _at(bounds, origin) -> tuple[slice, ...]:
    """Slices selecting the cells ``bounds`` (per-axis ``(lo, hi)``)
    of an array whose first cell sits at ``origin``."""
    return tuple(
        [slice(lo - o, hi - o) for (lo, hi), o in zip(bounds, origin)]
    )


def predict_block(
    C: np.ndarray,
    eps: Offset,
    ts: tuple[int, ...],
    interp: str = "cubic",
    mode: str = "diagonal",
    *,
    box: Box | None = None,
    origin: tuple[int, ...] | None = None,
    full_shape: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Predict the parity-``eps`` sub-block of shape ``ts``, or only
    its points ``box`` (per-axis ``(lo, hi)`` sub-block indices; the
    result has the box's shape).

    ``C`` is the whole coarse lattice, or a window of it at ``origin``
    in a lattice of shape ``full_shape`` (see :func:`_validate` for
    what the window must cover); the result equals the same box of the
    whole-lattice prediction bit for bit.

    Every stencil reads offset views of ``C``; the only copy is the
    edge pad of :func:`_grid_plan`, at most one per call, made only
    when the box reaches the end of an odd axis of the lattice.  No
    state is shared between calls, so the sub-blocks of a level can be
    predicted from one ``C`` by any number of threads.
    """
    odd, box, origin, full = _validate(C, eps, ts, box, origin, full_shape)
    shape = tuple(hi - lo for lo, hi in box)
    if 0 in shape:
        return np.empty(shape, dtype=C.dtype)
    if interp not in INTERP_KINDS:
        raise ValueError(f"unknown interp {interp!r}")
    if interp == "cubic" and mode == "tensor":
        if shape != tuple(ts) or C.shape != full:
            raise NotImplementedError(
                "tensor cubic predicts whole sub-blocks only; use "
                "diagonal mode for random-access decompression"
            )
        return _predict_block_tensor(C, odd, ts)
    if interp == "direct":
        return np.ascontiguousarray(C[_at(box, origin)])

    plan = _grid_plan(C, odd, box, interp, origin, full)
    if len(plan) == 1:
        return _combine(*plan[0][1:])
    pred = np.empty(shape, dtype=C.dtype)
    for region, *stencil in plan:
        pred[region] = _combine(*stencil)
    return pred


def predict_dequant_block(
    C: np.ndarray,
    eps: Offset,
    ts: tuple[int, ...],
    interp: str,
    mode: str,
    codes: np.ndarray,
    eb: float,
    radius: int,
    f32_mode: bool,
    *,
    box: Box | None = None,
    origin: tuple[int, ...] | None = None,
    full_shape: tuple[int, ...] | None = None,
) -> np.ndarray | None:
    """Fused predict + dequantize of one sub-block, or of its ``box``
    (window arguments as for :func:`predict_block`; ``codes`` always
    holds the whole sub-block's ``prod(ts)`` codes).  DESIGN.md §10.

    Walks the same region plan as :func:`predict_block`, but each
    region runs the compiled ``jit.combine_dequant`` kernel, which
    computes the combine *and* the quantizer reconstruction formula in
    one pass, writing straight into the result — no materialized
    prediction array, no second dequantize sweep.  Returns the
    reconstruction (the box's shape, outliers **not** yet scattered),
    or None whenever the compiled path cannot run — the caller falls
    back to ``predict_block`` + ``dequantize``, which is bit-identical:
    the kernel replicates the per-element op order of both stages.

    Eligibility: the compiled kernels loaded, linear or diagonal-cubic
    interpolation (direct and tensor-cubic stay on the reference), at
    most 4 dims, at most 16 corner views, and one code per sub-block
    point.
    """
    if interp not in ("linear", "cubic") or (
        interp == "cubic" and mode == "tensor"
    ):
        return None
    if not jit.has("dqc_f32"):
        return None
    odd, box, origin, full = _validate(C, eps, ts, box, origin, full_shape)
    shape = tuple(hi - lo for lo, hi in box)
    if 0 in shape:
        return np.empty(shape, dtype=C.dtype)
    narr = (1 << len(odd)) * (2 if interp == "cubic" else 1)
    if C.ndim > 4 or narr > 16:
        return None
    if codes.size != math.prod(ts):
        return None

    out = np.empty(shape, dtype=C.dtype)
    qv = codes.reshape(ts)[_at(box, (0,) * len(box))]
    for region, near, outer, wn, wo in _grid_plan(
        C, odd, box, interp, origin, full
    ):
        if not jit.combine_dequant(
            near, outer, wn, wo, qv[region], out[region], eb, radius, f32_mode
        ):
            return None
    return out


def interp_axis_midpoints(
    C: np.ndarray, axis: int, t: int, interp: str = "cubic"
) -> np.ndarray:
    """1D midpoint interpolation along one axis, producing ``t``
    midpoints (midpoint ``k`` lies between ``C[k]`` and ``C[k+1]``).

    ``interp="cubic"`` uses the 4-point spline stencil in the interior
    with linear/copy fallback at the edges; ``"linear"`` averages the
    two neighbors (copying at a missing right edge).  This is both the
    tensor-mode building block and the 1D pass of the SZ3-style
    cascaded interpolator.
    """
    if interp not in ("linear", "cubic"):
        raise ValueError(f"unknown 1D interp {interp!r}")
    n = C.shape[axis]
    P = _edge_pad(C, [axis] if t >= n else [])

    def sl(lo: int, hi: int, delta: int) -> tuple[slice, ...]:
        return (slice(None),) * axis + (slice(lo + delta, hi + delta),)

    pred = _combine([P[sl(0, t, 0)], P[sl(0, t, 1)]], [], 0.5, 0.0)
    if interp == "linear":
        return pred
    lo, hi = 1, min(n - 2, t)
    if hi > lo:
        pred[sl(lo, hi, 0)] = _combine(
            [C[sl(lo, hi, 0)], C[sl(lo, hi, 1)]],
            [C[sl(lo, hi, -1)], C[sl(lo, hi, 2)]],
            *_cubic_weights(1),
        )
    return pred


def _predict_block_tensor(
    C: np.ndarray, odd: list[int], ts: tuple[int, ...]
) -> np.ndarray:
    """Separable (tensor-product) cubic: apply the 1D operator per odd
    axis in ascending order."""
    X = C
    for a in odd:
        X = interp_axis_midpoints(X, a, ts[a], "cubic")
    return np.ascontiguousarray(X)

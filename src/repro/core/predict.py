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
direct copy — which the clamped-index linear formula produces naturally.

Every stencil is one combine, ``sum(near)*wn - sum(outer)*wo``, and
one region plan (:func:`_grid_plan`) decides which stencil covers which
slab of the requested points, so every path agrees *bit-for-bit*:

* :func:`predict_block` — a parity sub-block, or any box of it, by
  pure slicing.  Compression predicts whole sub-blocks; decompression
  predicts the box a window covers, from the coarse window alone
  (``origin``/``full_shape``: the cubic-interior test and the edge
  clamp follow the whole lattice, so a window prediction equals the
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


def _clamp_shift(arr: np.ndarray, axis: int) -> np.ndarray:
    """``out[k] = arr[min(k+1, n-1)]`` along ``axis`` (edge-clamped)."""
    n = arr.shape[axis]
    if n == 1:
        return arr
    head = tuple(
        slice(1, None) if a == axis else slice(None) for a in range(arr.ndim)
    )
    tail = tuple(
        slice(n - 1, None) if a == axis else slice(None)
        for a in range(arr.ndim)
    )
    return np.concatenate([arr[head], arr[tail]], axis=axis)


def _fill_shifts(C: np.ndarray, cache: dict, axes) -> dict:
    """Ensure ``cache`` holds the clamp-shift of ``C`` for every subset
    of ``axes`` (keyed by axis frozenset), building each combination
    from its one-axis-smaller parent.  The single construction loop
    shared by the lazy per-call fill and the thread-safe pre-fill."""
    cache.setdefault(frozenset(), C)
    for a in axes:
        for key in list(cache):
            if a not in key and (key | {a}) not in cache:
                cache[key | {a}] = _clamp_shift(cache[key], a)
    return cache


def populate_shift_cache(C: np.ndarray, cache: dict) -> dict:
    """Precompute every clamp-shift combination of ``C`` into ``cache``.

    :func:`predict_block` fills its ``shift_cache`` lazily, which is
    fine serially but is a check-then-insert race when the sub-blocks
    of a level are predicted from a thread pool.  Filling all
    ``2**d - 1`` axis combinations up front (the union every parity
    offset of the level will ask for) makes the dict strictly read-only
    for the workers.  Returns ``cache``.
    """
    return _fill_shifts(C, cache, range(C.ndim))


def uses_shift_cache(interp: str, mode: str) -> bool:
    """Whether :func:`predict_block` reads ``shift_cache`` at all
    (direct prediction and the tensor cubic path never do)."""
    return interp in ("linear", "cubic") and not (
        interp == "cubic" and mode == "tensor"
    )


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
    its own edge clamp only acts where the lattice's does.
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
    shift_cache: dict | None,
    origin: tuple[int, ...],
    full: tuple[int, ...],
) -> list[tuple]:
    """The stencil regions of the sub-block points in ``box``: disjoint
    ``(region, near, outer, wn, wo)`` tuples, each ``region`` (relative
    to the box) predicted as ``sum(near)*wn - sum(outer)*wo``.  ``C``
    is the coarse window at ``origin`` in a lattice of shape ``full``.

    Linear, or cubic with an empty interior, is one whole-box region
    (the clamped +1 shift handles every boundary, copying at the last
    midpoint of an even axis).  Cubic is the interior slab where the
    4-point stencil fits (``k`` in ``[1, full-3]`` per odd axis, within
    the box), then linear on the boundary shell in disjoint slabs: slab
    ``i`` fixes odd axis ``a_i`` to one boundary run and keeps the
    earlier odd axes on the interior.  Each point gets the element-wise
    formula of evaluating linear everywhere and overwriting the
    interior, so values are bit-identical to that whatever the box.
    """
    j = len(odd)
    shifted = _fill_shifts(
        C, shift_cache if shift_cache is not None else {}, odd
    )
    start = tuple(lo for lo, _ in box)

    def linear(bounds) -> tuple:
        at = _at(bounds, origin)
        corners = [
            shifted[frozenset(a for a, d in zip(odd, delta) if d)][at]
            for delta in itertools.product((0, 1), repeat=j)
        ]
        region = at if start == origin else _at(bounds, start)
        return region, corners, [], 0.5**j, 0.0

    inner = list(box)
    for a in odd:
        inner[a] = (max(1, box[a][0]), min(full[a] - 2, box[a][1]))
    if interp == "linear" or any(inner[a][1] <= inner[a][0] for a in odd):
        return [linear(box)]

    def taps(offsets: tuple[int, int]) -> list[np.ndarray]:
        views = []
        for delta in itertools.product(offsets, repeat=j):
            bounds = list(inner)
            for a, d in zip(odd, delta):
                bounds[a] = (inner[a][0] + d, inner[a][1] + d)
            views.append(C[_at(bounds, origin)])
        return views

    plan = [
        (_at(inner, start), taps((0, 1)), taps((-1, 2)), *_cubic_weights(j))
    ]
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
    shift_cache: dict | None = None,
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

    ``shift_cache`` (optional) memoizes the clamp-shifted copies of
    ``C`` across calls: the ``2**d - 1`` sub-blocks of one level share
    shift combinations, so a per-level cache dict avoids recomputing
    (and reallocating) the same shifted array for every parity offset.
    Callers must pass a fresh dict per coarse lattice ``C``.
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

    plan = _grid_plan(C, odd, box, interp, shift_cache, origin, full)
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
    shift_cache: dict | None,
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
        C, odd, box, interp, shift_cache, origin, full
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
    shifted = _clamp_shift(C, axis)
    cut = tuple(
        slice(0, t) if a == axis else slice(None) for a in range(C.ndim)
    )
    pred = _combine([C[cut], shifted[cut]], [], 0.5, 0.0)
    if interp == "linear":
        return pred
    lo, hi = 1, min(C.shape[axis] - 2, t)
    if hi > lo:

        def sl(delta: int) -> tuple[slice, ...]:
            return tuple(
                slice(lo + delta, hi + delta) if a == axis else slice(None)
                for a in range(C.ndim)
            )

        pred[sl(0)] = _combine(
            [C[sl(0)], C[sl(1)]], [C[sl(-1)], C[sl(2)]], *_cubic_weights(1)
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

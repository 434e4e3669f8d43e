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

Every stencil is one combine, ``sum(near)*wn - sum(outer)*wo``, so the
code paths agree *bit-for-bit*:

* :func:`predict_block` — full sub-block, pure slicing (fast path used
  by compression and full decompression).  One region plan decides
  which stencil covers which slab of the sub-block; the fused decode
  :func:`predict_dequant_block` walks the same plan,
* :func:`predict_points` — arbitrary point sets via gathers (used by
  random-access decompression; the equality of the two paths is what
  makes ``ROI decompression == full decompression`` exact),
* :func:`interp_axis_midpoints` — the 1D operator of the tensor mode
  and of SZ3's cascade, kept off the plan because those batches are
  many and thin.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.partition import Offset
from repro.util import jit

# diagonal cubic weights per number of odd axes (Eqs. 6, 7, 8):
# pred = wn * sum(nearest 2^j) - wo * sum(outer-diagonal 2^j)
_CUBIC_WEIGHTS = {
    1: (9.0 / 16.0, 1.0 / 16.0),
    2: (9.0 / 32.0, 1.0 / 32.0),
    3: (9.0 / 64.0, 1.0 / 64.0),
}

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


def _odd_axes(C: np.ndarray, eps: Offset) -> list[int]:
    if len(eps) != C.ndim:
        raise ValueError("eps rank mismatch with coarse array")
    odd = [a for a in range(C.ndim) if eps[a]]
    if not odd:
        raise ValueError("eps must be a nonzero parity offset")
    return odd


def _validate(C: np.ndarray, eps: Offset, ts: tuple[int, ...]) -> list[int]:
    if len(ts) != C.ndim:
        raise ValueError("ts rank mismatch with coarse array")
    odd = _odd_axes(C, eps)
    for a in range(C.ndim):
        if eps[a] == 0 and ts[a] != C.shape[a]:
            raise ValueError(
                f"aligned axis {a}: target size {ts[a]} != coarse {C.shape[a]}"
            )
        if eps[a] == 1 and not (
            ts[a] in (C.shape[a], C.shape[a] - 1) or C.shape[a] <= 1
        ):
            raise ValueError(
                f"odd axis {a}: target size {ts[a]} incompatible with "
                f"coarse {C.shape[a]}"
            )
    return odd


# ---------------------------------------------------------------------------
# grid path
# ---------------------------------------------------------------------------

def _grid_plan(
    C: np.ndarray,
    odd: list[int],
    ts: tuple[int, ...],
    interp: str,
    shift_cache: dict | None,
) -> list[tuple]:
    """The stencil regions of one parity sub-block of shape ``ts``:
    disjoint ``(region, near, outer, wn, wo)`` tuples, each ``region``
    of the sub-block predicted as ``sum(near)*wn - sum(outer)*wo``.

    Linear, or cubic with an empty interior, is one whole-block region
    (the clamped +1 shift handles every boundary, copying at the last
    midpoint of an even axis).  Cubic is the interior slab where the
    4-point stencil fits (``k`` in ``[1, cs-3]`` per odd axis, within
    the target extent), then linear on the boundary shell in disjoint
    slabs: slab ``i`` fixes odd axis ``a_i`` to one boundary run and
    keeps the earlier odd axes on the interior.  Each point gets the
    element-wise formula of evaluating linear everywhere and overwriting
    the interior, so values are bit-identical to that and to
    :func:`predict_points`.
    """
    j = len(odd)
    shifted = _fill_shifts(
        C, shift_cache if shift_cache is not None else {}, odd
    )
    whole = [(0, t) for t in ts]

    def linear(bounds: list[tuple[int, int]]) -> tuple:
        region = tuple(slice(lo, hi) for lo, hi in bounds)
        corners = [
            shifted[frozenset(a for a, d in zip(odd, delta) if d)][region]
            for delta in itertools.product((0, 1), repeat=j)
        ]
        return region, corners, [], 0.5**j, 0.0

    inner = list(whole)
    for a in odd:
        inner[a] = (1, min(C.shape[a] - 2, ts[a]))
    if interp == "linear" or any(inner[a][1] <= inner[a][0] for a in odd):
        return [linear(whole)]

    def taps(offsets: tuple[int, int]) -> list[np.ndarray]:
        views = []
        for delta in itertools.product(offsets, repeat=j):
            box = list(inner)
            for a, d in zip(odd, delta):
                box[a] = (inner[a][0] + d, inner[a][1] + d)
            views.append(C[tuple(slice(lo, hi) for lo, hi in box)])
        return views

    plan = [(
        tuple(slice(lo, hi) for lo, hi in inner),
        taps((0, 1)),
        taps((-1, 2)),
        *_CUBIC_WEIGHTS[j],
    )]
    for i, a in enumerate(odd):
        for run in ((0, inner[a][0]), (inner[a][1], ts[a])):
            if run[0] < run[1]:
                bounds = [
                    inner[b] if b in odd[:i] else whole[b]
                    for b in range(C.ndim)
                ]
                bounds[a] = run
                plan.append(linear(bounds))
    return plan


def predict_block(
    C: np.ndarray,
    eps: Offset,
    ts: tuple[int, ...],
    interp: str = "cubic",
    mode: str = "diagonal",
    shift_cache: dict | None = None,
) -> np.ndarray:
    """Predict the full parity-``eps`` sub-block of shape ``ts``.

    ``shift_cache`` (optional) memoizes the clamp-shifted copies of
    ``C`` across calls: the ``2**d - 1`` sub-blocks of one level share
    shift combinations, so a per-level cache dict avoids recomputing
    (and reallocating) the same shifted array for every parity offset.
    Callers must pass a fresh dict per coarse lattice ``C``.
    """
    odd = _validate(C, eps, ts)
    if any(t == 0 for t in ts):
        return np.empty(ts, dtype=C.dtype)
    if interp not in INTERP_KINDS:
        raise ValueError(f"unknown interp {interp!r}")
    if interp == "cubic" and mode == "tensor":
        return _predict_block_tensor(C, odd, ts)
    if interp == "direct":
        return np.ascontiguousarray(C[tuple(slice(0, t) for t in ts)])

    plan = _grid_plan(C, odd, ts, interp, shift_cache)
    if len(plan) == 1:
        return _combine(*plan[0][1:])
    pred = np.empty(ts, dtype=C.dtype)
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
) -> np.ndarray | None:
    """Fused predict + dequantize of one sub-block (DESIGN.md §10).

    Walks the same region plan as :func:`predict_block`, but each
    region runs the compiled ``jit.combine_dequant`` kernel, which
    computes the combine *and* the quantizer reconstruction formula in
    one pass, writing straight into the sub-block — no materialized
    prediction array, no second dequantize sweep.  Returns the
    reconstruction (shape ``ts``, outliers **not** yet scattered), or
    None whenever the compiled path cannot run — the caller falls back
    to ``predict_block`` + ``dequantize``, which is bit-identical: the
    kernel replicates the per-element op order of both stages.

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
    odd = _validate(C, eps, ts)
    if any(t == 0 for t in ts):
        return np.empty(ts, dtype=C.dtype)
    narr = (1 << len(odd)) * (2 if interp == "cubic" else 1)
    if C.ndim > 4 or narr > 16:
        return None
    if codes.size != int(np.prod(ts)):
        return None

    out = np.empty(ts, dtype=C.dtype)
    qv = codes.reshape(ts)
    for region, near, outer, wn, wo in _grid_plan(
        C, odd, ts, interp, shift_cache
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
            [C[sl(0)], C[sl(1)]], [C[sl(-1)], C[sl(2)]], *_CUBIC_WEIGHTS[1]
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


# ---------------------------------------------------------------------------
# gather path (random access)
# ---------------------------------------------------------------------------

def predict_points(
    C: np.ndarray,
    eps: Offset,
    idx: tuple[np.ndarray, ...],
    interp: str = "cubic",
    mode: str = "diagonal",
    origin: tuple[int, ...] | None = None,
    full_shape: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Predict arbitrary sub-block points given per-axis index arrays.

    ``idx[a]`` holds the sub-block coordinate of each requested point
    along axis ``a`` (all arrays the same length).  Bit-identical to
    :func:`predict_block` at the same points.

    Random-access decompression reconstructs only a *window* of the
    coarse lattice; pass that window as ``C`` together with its
    ``origin`` (coarse coordinates of ``C[0,...,0]``) and the
    ``full_shape`` of the whole lattice.  Indices stay global:
    boundary clamping and the cubic-stencil test are evaluated against
    ``full_shape``, so a window prediction equals the full-lattice one
    wherever the window covers the stencil (the ROI dilation guarantees
    it does).
    """
    odd = _odd_axes(C, eps)
    if interp == "cubic" and mode == "tensor":
        raise NotImplementedError(
            "tensor cubic has no gather path; use diagonal mode for "
            "random-access decompression"
        )
    if interp not in INTERP_KINDS:
        raise ValueError(f"unknown interp {interp!r}")
    if (origin is None) != (full_shape is None):
        raise ValueError("origin and full_shape must be given together")
    org = origin or (0,) * C.ndim
    cs = full_shape or C.shape
    npts = idx[0].size
    if npts == 0:
        return np.empty(0, dtype=C.dtype)
    ix = [np.asarray(i, dtype=np.int64) for i in idx]

    if interp == "direct":
        return C[tuple(v - o for v, o in zip(ix, org))]

    j = len(odd)
    odd_set = set(odd)

    def corner(delta_map: dict[int, int], clamp: bool) -> np.ndarray:
        sel = []
        for a in range(C.ndim):
            if a in odd_set:
                v = ix[a] + delta_map[a]
                if clamp:
                    v = np.minimum(v, cs[a] - 1)
                sel.append(v - org[a])
            else:
                sel.append(ix[a] - org[a])
        return C[tuple(sel)]

    corners = [
        corner({a: d for a, d in zip(odd, delta)}, clamp=True)
        for delta in itertools.product((0, 1), repeat=j)
    ]
    pred = _combine(corners, [], 0.5**j, 0.0)
    if interp == "linear":
        return pred

    # cubic where every odd axis has the full stencil: 1 <= k <= cs-3
    mask = np.ones(npts, dtype=bool)
    for a in odd:
        mask &= (ix[a] >= 1) & (ix[a] <= cs[a] - 3)
    if not mask.any():
        return pred
    sub = [v[mask] for v in ix]

    def sub_corner(delta_map: dict[int, int]) -> np.ndarray:
        sel = [
            sub[a] + delta_map[a] - org[a]
            if a in odd_set
            else sub[a] - org[a]
            for a in range(C.ndim)
        ]
        return C[tuple(sel)]

    near = [
        sub_corner({a: d for a, d in zip(odd, delta)})
        for delta in itertools.product((0, 1), repeat=j)
    ]
    outer = [
        sub_corner({a: d for a, d in zip(odd, delta)})
        for delta in itertools.product((-1, 2), repeat=j)
    ]
    pred[mask] = _combine(near, outer, *_CUBIC_WEIGHTS[j])
    return pred

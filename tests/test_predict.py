"""Tests for the hierarchical interpolation predictors.

The central invariant: a window prediction — a box of a sub-block
predicted from a coarse window that covers its stencils — is
bit-identical to the same box of the whole-sub-block prediction, on
every parity offset, shape parity and interpolation kind, for the
reference and the fused decode alike.  Random-access decompression
runs exactly that, so it is what makes ROI equal cropped full decode.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    lattice_shape,
    nonzero_offsets,
    subblock_shape,
    take_subblock,
)
from repro.core.predict import (
    interp_axis_midpoints,
    predict_block,
    predict_dequant_block,
)
from repro.encoding.quantizer import _f32_mode, dequantize
from repro.util import jit

#: fine lattices, ranks 1-4: odd and even extents, unit and short
#: axes, and coarse extents on both sides of the cubic-interior
#: threshold (the first six keep their test ids)
_FINE_SHAPES = [
    (9, 10), (8, 8), (7, 9, 11), (8, 8, 8), (4, 5, 6), (16, 3, 9),
    (1,), (2,), (5,), (8,), (13,), (7, 3), (2, 11),
    (8, 9, 10, 7), (5, 4, 8, 9),
]


def _boxes(rng, ts):
    """The whole sub-block (touching both edges of every axis), then
    random boxes whose ends land on an edge half the time."""
    yield tuple((0, t) for t in ts)
    for _ in range(3):
        box = []
        for t in ts:
            lo = 0 if rng.random() < 0.5 else int(rng.integers(0, t))
            hi = t if rng.random() < 0.5 else int(rng.integers(lo + 1, t + 1))
            box.append((lo, hi))
        yield tuple(box)


def _covering_window(C, eps, box, rng):
    """A coarse window that just covers ``box``'s stencils (``k - 1 ..
    k + 2`` on odd axes, clipped), widened by 0-1 cells per side."""
    lo_hi = []
    for (lo, hi), e, n in zip(box, eps, C.shape):
        clo, chi = (max(lo - 1, 0), min(hi + 2, n)) if e else (lo, hi)
        lo_hi.append(
            (max(clo - int(rng.integers(2)), 0),
             min(chi + int(rng.integers(2)), n))
        )
    origin = tuple(lo for lo, _ in lo_hi)
    return C[tuple(slice(lo, hi) for lo, hi in lo_hi)], origin


class TestGridGatherEquality:
    """A window of the region plan against the crop of the whole
    sub-block.  (The class and test names date from the removed
    gather predictor; they are kept so the suite's test ids stay.)"""

    @pytest.mark.parametrize("shape", _FINE_SHAPES)
    @pytest.mark.parametrize("interp", ["direct", "linear", "cubic"])
    def test_bit_identical(self, shape, interp, rng):
        radius, eb = 1 << 15, 1e-3
        f32 = _f32_mode(np.dtype(np.float32), np.dtype(np.float32), eb, radius)
        ndim = len(shape)
        C = take_subblock(
            rng.normal(size=shape).astype(np.float32), (0,) * ndim
        )
        assert C.shape == lattice_shape(shape, 2)
        for kernels, eps in itertools.product(
            (True, False), nonzero_offsets(ndim)
        ):
            ts = subblock_shape(shape, eps)
            if 0 in ts:
                continue
            codes = rng.integers(
                radius - 300, radius + 300, size=int(np.prod(ts))
            ).astype(np.uint32)
            with jit.override(kernels):
                whole = predict_block(C, eps, ts, interp)
                fused = predict_dequant_block(
                    C, eps, ts, interp, "diagonal", codes, eb, radius, f32
                )
                for box in _boxes(rng, ts):
                    Cw, origin = _covering_window(C, eps, box, rng)
                    window = dict(box=box, origin=origin, full_shape=C.shape)
                    sel = tuple(slice(lo, hi) for lo, hi in box)
                    got = predict_block(Cw, eps, ts, interp, **window)
                    assert got.tobytes() == whole[sel].tobytes(), (eps, box)
                    rec = predict_dequant_block(
                        Cw, eps, ts, interp, "diagonal", codes, eb, radius,
                        f32, **window,
                    )
                    if fused is None:
                        assert rec is None
                    else:
                        assert rec.tobytes() == fused[sel].tobytes(), (
                            eps, box,
                        )

    def test_windowed_gather_matches(self, rng):
        # the random-access configuration: coarse window + origin +
        # full_shape, a box of the sub-block
        shape = (20, 18, 16)
        C = take_subblock(rng.normal(size=shape).astype(np.float32), (0, 0, 0))
        eps = (1, 1, 0)
        ts = subblock_shape(shape, eps)
        full = predict_block(C, eps, ts, "cubic")
        got = predict_block(
            C[2:9, 3:8, :], eps, ts, "cubic",
            box=((4, 6), (5, 6), (0, ts[2])), origin=(2, 3, 0),
            full_shape=C.shape,
        )
        assert np.array_equal(got, full[4:6, 5:6, :])

    def test_origin_requires_full_shape(self, rng):
        C = rng.normal(size=(8, 8)).astype(np.float32)
        with pytest.raises(ValueError, match="together"):
            predict_block(C, (1, 0), (8, 8), "linear", origin=(0, 0))

    def test_window_must_cover_stencil(self, rng):
        C = rng.normal(size=(12, 12))
        box = ((4, 6), (0, 12))
        ok = dict(box=box, origin=(3, 0), full_shape=C.shape)
        predict_block(C[3:8], (1, 0), (12, 12), **ok)
        with pytest.raises(ValueError, match="does not cover"):
            predict_block(C[4:8], (1, 0), (12, 12), **{**ok, "origin": (4, 0)})
        with pytest.raises(ValueError, match="does not cover"):
            predict_block(C[3:7], (1, 0), (12, 12), **ok)
        with pytest.raises(ValueError, match="outside"):
            predict_block(C, (1, 0), (12, 12), box=((4, 13), (0, 12)))


#: coarse lattices with every extent 1-5 on every axis: the cubic
#: interior (``k`` in ``[1, n-3]``) is empty below ``n = 4``
_COARSE_SHAPES = {
    1: [(n,) for n in range(1, 6)],
    2: list(itertools.product(range(1, 6), repeat=2)),
    3: [(1, 2, 3), (4, 5, 1), (3, 4, 5), (5, 5, 4)],
    4: [(1, 2, 3, 4), (5, 4, 3, 2), (4, 5, 4, 5)],
}


def _target_shapes(shape, eps):
    """The nonempty sub-block shapes of ``eps``: ``n`` or ``n - 1`` on
    each odd axis (odd and even fine extents)."""
    choices = [(n, n - 1) if e else (n,) for n, e in zip(shape, eps)]
    return [ts for ts in itertools.product(*choices) if all(ts)]


class TestFusedDecode:
    """The compiled fused decode walks the predictor's region plan; with
    outliers scattered it must equal the reference predict_block +
    dequantize byte for byte."""

    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize(
        "dtype,f32",
        [(np.float64, False), (np.float32, False), (np.float32, True)],
    )
    def test_matches_predict_then_dequantize(
        self, ndim, interp, dtype, f32, rng
    ):
        radius, eb = 1 << 15, 1e-3
        f32_mode = f32 and _f32_mode(
            np.dtype(dtype), np.dtype(dtype), eb, radius
        )
        with jit.override(True):
            if not jit.has("dqc_f32"):
                pytest.skip("compiled kernels unavailable")
            for shape in _COARSE_SHAPES[ndim]:
                C = rng.normal(size=shape).astype(dtype)
                for eps in nonzero_offsets(ndim):
                    for ts in _target_shapes(shape, eps):
                        n = int(np.prod(ts))
                        codes = rng.integers(
                            radius - 300, radius + 300, size=n
                        ).astype(np.uint32)
                        pos = np.flatnonzero(rng.random(n) < 0.2)
                        val = rng.normal(size=pos.size).astype(dtype)
                        got = predict_dequant_block(
                            C, eps, ts, interp, "diagonal", codes, eb,
                            radius, f32_mode,
                        )
                        if ndim == 4 and interp == "cubic" and all(eps):
                            assert got is None  # 32 views > kernel's 16
                            continue
                        got.reshape(-1)[pos] = val
                        with jit.override(False):
                            pred = predict_block(C, eps, ts, interp)
                            want = dequantize(
                                codes, pred, eb, pos, val, radius, f32
                            )
                        assert got.tobytes() == want.tobytes(), (
                            shape, eps, ts,
                        )


def _traced_peak(fn):
    """``fn()`` and the peak bytes tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEdgePadMemory:
    """The one edge rule copies at most one padded lattice per call,
    and nothing where the points stop short of the lattice end.
    Cubic's multi-region plan also holds the largest region's combine
    result while it is written into the output: one more output's
    worth at most."""

    SLACK = 16 << 10

    @pytest.fixture(autouse=True)
    def _kernels(self):
        with jit.override(True):
            if not jit.has("combine_f32"):
                pytest.skip("compiled kernels unavailable")
            yield

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    def test_whole_lattice_pads_once(self, interp, rng):
        # even fine extents: the all-odd sub-block reaches the end of
        # every axis, so the one pad covers all three
        C = rng.normal(size=(40, 40, 40)).astype(np.float32)
        ts, eps = C.shape, (1, 1, 1)
        predict_block(C, eps, ts, interp)  # load the kernels untraced
        out, peak = _traced_peak(lambda: predict_block(C, eps, ts, interp))
        assert out.shape == ts
        padded = 41**3 * C.itemsize
        outputs = 1 if interp == "linear" else 2
        assert peak <= outputs * out.nbytes + padded + self.SLACK, peak

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    def test_window_short_of_the_end_pads_nothing(self, interp, rng):
        C = rng.normal(size=(40, 40, 40)).astype(np.float32)
        ts, eps = C.shape, (1, 1, 1)
        box = ((4, 30),) * 3
        window = dict(box=box, origin=(3, 3, 3), full_shape=C.shape)
        Cw = C[3:32, 3:32, 3:32]  # just covers the box's stencils
        radius, eb = 1 << 15, 1e-3
        codes = np.full(int(np.prod(ts)), radius, dtype=np.uint32)
        outputs = 1 if interp == "linear" else 2
        calls = {
            "predict_block": (
                lambda: predict_block(Cw, eps, ts, interp, **window),
                outputs,
            ),
            "predict_dequant_block": (
                lambda: predict_dequant_block(
                    Cw, eps, ts, interp, "diagonal", codes, eb, radius,
                    False, **window,
                ),
                1,  # every region writes straight into the output
            ),
        }
        for name, (call, n_out) in calls.items():
            call()
            out, peak = _traced_peak(call)
            assert out.shape == (26, 26, 26)
            # a pad of the window would add 30**3 * 4 bytes
            assert peak <= n_out * out.nbytes + self.SLACK, (name, peak)


class TestExactness:
    def test_linear_exact_on_linear_field(self):
        n = 21
        x = np.arange(n, dtype=np.float64)
        C = 3 * x[:, None] + 2 * np.arange(7)[None, :] + 1
        for eps in [(1, 0), (0, 1), (1, 1)]:
            ts = subblock_shape((2 * n - 1, 13), eps)
            ts = tuple(
                min(t, s) for t, s in zip(ts, (n - eps[0], 7 - eps[1]))
            )
            pred = predict_block(C, eps, (n - eps[0], 7 - eps[1]), "linear")
            xm = x[: n - eps[0]] + eps[0] * 0.5
            ym = np.arange(7 - eps[1]) + eps[1] * 0.5
            true = 3 * xm[:, None] + 2 * ym[None, :] + 1
            # interior only (boundary falls back to copy)
            assert np.abs(pred[:-1, :-1] - true[:-1, :-1]).max() < 1e-12

    def test_cubic_exact_on_cubic_polynomial(self):
        n = 33
        x = np.arange(n, dtype=np.float64)
        C = (0.5 * x**3 - x**2 + 3 * x)[:, None] * np.ones((1, 5))
        pred = predict_block(C, (1, 0), (n - 1, 5), "cubic")
        xm = x[:-1] + 0.5
        true = (0.5 * xm**3 - xm**2 + 3 * xm)[:, None] * np.ones((1, 5))
        interior = slice(1, n - 3)
        assert np.abs(pred[interior] - true[interior]).max() < 1e-9

    def test_cubic_beats_linear_on_smooth_field(self):
        x = np.linspace(0, 3, 40)
        C = np.sin(x)[:, None] * np.cos(x / 2)[None, :]
        true_mid = np.sin(x[:-1] + x[1] / 2 * 0 + (x[1] - x[0]) / 2)[
            :, None
        ] * np.cos(x / 2)[None, :]
        lin = predict_block(C, (1, 0), (39, 40), "linear")
        cub = predict_block(C, (1, 0), (39, 40), "cubic")
        interior = slice(1, 36)
        el = np.abs(lin[interior] - true_mid[interior]).max()
        ec = np.abs(cub[interior] - true_mid[interior]).max()
        assert ec < el

    def test_diagonal_weights_sum_to_one(self):
        # constant field must be predicted exactly (interior AND edges)
        C = np.full((9, 9, 9), 7.25, dtype=np.float64)
        for eps in nonzero_offsets(3):
            ts = subblock_shape((17, 17, 17), eps)
            for interp in ("direct", "linear", "cubic"):
                for mode in ("diagonal", "tensor"):
                    pred = predict_block(C, eps, ts, interp, mode)
                    assert np.all(pred == 7.25), (eps, interp, mode)


class TestBoundaries:
    def test_last_midpoint_of_even_axis_copies(self):
        # even fine axis: final midpoint has no right neighbor
        C = np.arange(4, dtype=np.float64)[:, None] * np.ones((1, 3))
        pred = predict_block(C, (1, 0), (4, 3), "linear")
        assert np.all(pred[3] == C[3])  # clamped average == copy

    def test_tiny_coarse_axes(self, rng):
        for cs in [(1, 5), (2, 2), (1, 1)]:
            C = rng.normal(size=cs)
            eps = (1, 0)
            ts = (cs[0], cs[1])
            pred = predict_block(C, eps, ts, "cubic")
            assert pred.shape == ts

    def test_empty_target(self, rng):
        # fine shape (1, 5): a size-1 axis has no odd-parity points
        C = rng.normal(size=(1, 3))
        pred = predict_block(C, (1, 1), (0, 2), "cubic")
        assert pred.shape == (0, 2)

    def test_rejects_aligned_mismatch(self, rng):
        C = rng.normal(size=(4, 4))
        with pytest.raises(ValueError):
            predict_block(C, (1, 0), (4, 3), "linear")

    def test_rejects_zero_offset(self, rng):
        C = rng.normal(size=(4, 4))
        with pytest.raises(ValueError):
            predict_block(C, (0, 0), (4, 4), "linear")

    def test_rejects_unknown_interp(self, rng):
        C = rng.normal(size=(4, 4))
        with pytest.raises(ValueError):
            predict_block(C, (1, 0), (4, 4), "quintic")

    def test_tensor_gather_unsupported(self, rng):
        # tensor cubic applies 1D passes over whole axes: a whole
        # sub-block only, never a box of it
        C = rng.normal(size=(8, 8))
        pred = predict_block(C, (1, 0), (8, 8), "cubic", mode="tensor")
        assert pred.shape == (8, 8)
        with pytest.raises(NotImplementedError):
            predict_block(
                C, (1, 0), (8, 8), "cubic", mode="tensor",
                box=((2, 3), (2, 3)),
            )
        with pytest.raises(NotImplementedError):
            predict_block(
                C[1:6], (1, 0), (8, 8), "cubic", mode="tensor",
                box=((2, 3), (0, 8)), origin=(1, 0), full_shape=C.shape,
            )


class TestMidpointOperator:
    def test_midpoints_linear(self):
        C = np.array([0.0, 2.0, 4.0, 8.0])
        out = interp_axis_midpoints(C, 0, 3, "linear")
        assert np.allclose(out, [1.0, 3.0, 6.0])

    def test_midpoints_cubic_matches_eq6(self):
        C = np.array([1.0, 2.0, 4.0, 7.0, 11.0])
        out = interp_axis_midpoints(C, 0, 4, "cubic")
        # interior point k=1 uses the Eq. 6 stencil
        expected = (9 / 16) * (C[1] + C[2]) - (1 / 16) * (C[0] + C[3])
        assert out[1] == pytest.approx(expected)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            interp_axis_midpoints(np.zeros(4), 0, 3, "nearest")

    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (5,), (8,), (3, 7), (6, 2), (4, 5, 6), (7, 3, 2)]
    )
    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("kernels", [True, False])
    def test_agrees_with_predict_block(self, shape, interp, kernels, rng):
        # SZ3's cascade evaluates this 1D operator instead of the grid
        # predictor's region plan; on a unit offset they must agree
        with jit.override(kernels):
            for dtype in (np.float32, np.float64):
                C = rng.normal(size=shape).astype(dtype)
                for a, n in enumerate(shape):
                    eps = tuple(int(b == a) for b in range(len(shape)))
                    for t in sorted({n, n - 1} - {0}):
                        ts = shape[:a] + (t,) + shape[a + 1 :]
                        mid = interp_axis_midpoints(C, a, t, interp)
                        blk = predict_block(C, eps, ts, interp)
                        assert mid.tobytes() == blk.tobytes(), (a, t)

    @given(
        st.integers(2, 40),
        st.integers(0, 2**31),
        st.sampled_from(["linear", "cubic"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_midpoint_within_neighbor_envelope_property(
        self, n, seed, interp
    ):
        # linear midpoints stay within [min, max] of neighbors; cubic
        # can overshoot but must stay within the global envelope + the
        # stencil's worst-case overshoot (bounded weights)
        C = np.random.default_rng(seed).uniform(-1, 1, n)
        t = n - 1
        out = interp_axis_midpoints(C, 0, t, interp)
        bound = 1.0 if interp == "linear" else 1.25
        assert np.all(np.abs(out) <= bound + 1e-12)

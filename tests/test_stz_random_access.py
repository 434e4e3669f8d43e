"""Random-access decompression: the core invariant is bit-identity with
cropped full decompression, plus the decode-savings accounting of §4.5."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_field
from repro.core.config import ABLATION_CONFIGS, STZConfig
from repro.core.pipeline import stz_compress, stz_decompress
from repro.core.random_access import (
    _coarsen_box,
    normalize_roi,
    stz_decompress_roi,
)


@pytest.fixture(scope="module")
def packed3d():
    data = smooth_field((48, 40, 44), seed=20).astype(np.float32)
    blob = stz_compress(data, 1e-3)
    return data, blob, stz_decompress(blob)


#: ROI property containers: the 3-D f32 default, a 1-D one, a 4-D one
#: whose all-odd cubic windows (32 corner views) exceed the fused
#: kernel and take the predict_block + dequantize fallback, and f64
_CONTAINERS = {
    "3d-f32": ((48, 40, 44), np.float32),
    "1d-f32": ((203,), np.float32),
    "4d-f32": ((10, 10, 10, 10), np.float32),
    "3d-f64": ((30, 26, 21), np.float64),
}


@pytest.fixture(scope="module", params=list(_CONTAINERS))
def container(request):
    shape, dtype = _CONTAINERS[request.param]
    blob = stz_compress(smooth_field(shape, seed=20).astype(dtype), 1e-3)
    return blob, stz_decompress(blob)


class TestNormalize:
    def test_slices_and_ints(self):
        box = normalize_roi((10, 10), (slice(2, 5), 7))
        assert box == ((2, 5), (7, 8))

    def test_full_slice(self):
        assert normalize_roi((10,), (slice(None),)) == ((0, 10),)

    def test_negative_indices(self):
        assert normalize_roi((10,), (slice(-3, None),)) == ((7, 10),)

    def test_rejects_step(self):
        with pytest.raises(ValueError):
            normalize_roi((10,), (slice(0, 10, 2),))

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            normalize_roi((10, 10), (slice(None),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_roi((10,), (slice(5, 5),))


class TestCoarsen:
    def test_dilation_covers_stencil(self):
        box = _coarsen_box(((8, 12),), (64,))
        lo, hi = box[0]
        assert lo <= 8 // 2 - 2
        assert hi >= (12 - 1) // 2 + 3

    def test_clipping_at_edges(self):
        box = _coarsen_box(((0, 4),), (3,))
        assert box[0] == (0, 3)


class TestBitIdentity:
    @pytest.mark.parametrize(
        "roi",
        [
            (slice(10, 25), slice(3, 38), slice(0, 44)),
            (slice(17, 18), slice(None), slice(None)),
            (slice(16, 17), slice(None), slice(None)),
            (slice(None), slice(21, 22), slice(None)),
            (slice(0, 5), slice(35, 40), slice(20, 21)),
            (slice(None), slice(None), slice(None)),
            (7, 9, 11),
            (slice(45, 48), slice(37, 40), slice(41, 44)),
        ],
        ids=[
            "box",
            "z-slice-odd",
            "z-slice-even",
            "y-slice",
            "sliver",
            "all",
            "point",
            "corner",
        ],
    )
    def test_roi_equals_cropped_full(self, packed3d, roi):
        data, blob, full = packed3d
        res = stz_decompress_roi(blob, roi)
        sel = tuple(slice(lo, hi) for lo, hi in res.box)
        assert np.array_equal(res.data, full[sel])

    def test_2d_container(self):
        data = smooth_field((51, 37), seed=21)
        blob = stz_compress(data, 1e-3)
        full = stz_decompress(blob)
        res = stz_decompress_roi(blob, (slice(10, 30), slice(5, 6)))
        assert np.array_equal(res.data, full[10:30, 5:6])

    def test_two_level_container(self):
        data = smooth_field((40, 40), seed=22).astype(np.float32)
        blob = stz_compress(data, 1e-3, config=STZConfig(levels=2))
        full = stz_decompress(blob)
        res = stz_decompress_roi(blob, (slice(3, 17), slice(22, 31)))
        assert np.array_equal(res.data, full[3:17, 22:31])

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_boxes_property(self, container, data):
        blob, full = container
        roi = []
        for n in full.shape:
            lo = data.draw(st.integers(0, n - 1))
            hi = data.draw(st.integers(lo + 1, n))
            roi.append(slice(lo, hi))
        res = stz_decompress_roi(blob, tuple(roi))
        sel = tuple(slice(lo, hi) for lo, hi in res.box)
        assert np.array_equal(res.data, full[sel])


class TestDecodeSavings:
    def test_slice_skips_subblocks(self, packed3d):
        # §4.5: a 2D slice needs only 3 (even) or 4 (odd) of the 7
        # finest-level sub-blocks
        _, blob, full = packed3d
        even = stz_decompress_roi(blob, (slice(16, 17), slice(None), slice(None)))
        odd = stz_decompress_roi(blob, (slice(17, 18), slice(None), slice(None)))
        assert even.segments_skipped == 4
        assert odd.segments_skipped == 3

    def test_box_decodes_everything(self, packed3d):
        _, blob, _ = packed3d
        res = stz_decompress_roi(
            blob, (slice(10, 30), slice(10, 30), slice(10, 30))
        )
        assert res.segments_skipped == 0

    def test_bytes_read_less_for_slice(self, packed3d):
        _, blob, _ = packed3d
        full = stz_decompress_roi(blob, (slice(None), slice(None), slice(None)))
        sl = stz_decompress_roi(blob, (slice(16, 17), slice(None), slice(None)))
        assert sl.bytes_read < full.bytes_read

    def test_timer_stages_present(self, packed3d):
        _, blob, _ = packed3d
        res = stz_decompress_roi(blob, (slice(0, 8), slice(0, 8), slice(0, 8)))
        assert "l1_sz3" in res.timer.stages
        assert "l3_predict" in res.timer.stages
        assert res.total_time > 0


class TestUnsupportedVariants:
    def test_partition_only_rejected(self, smooth3d_f32):
        blob = stz_compress(
            smooth3d_f32, 1e-3, config=ABLATION_CONFIGS["partition"]
        )
        with pytest.raises(NotImplementedError):
            stz_decompress_roi(blob, (slice(0, 4), slice(0, 4), slice(0, 4)))

    def test_sz3_residual_rejected(self, smooth3d_f32):
        blob = stz_compress(
            smooth3d_f32, 1e-3, config=ABLATION_CONFIGS["direct_pred"]
        )
        with pytest.raises(NotImplementedError):
            stz_decompress_roi(blob, (slice(0, 4), slice(0, 4), slice(0, 4)))

    def test_tensor_mode_rejected(self, smooth3d_f32):
        blob = stz_compress(
            smooth3d_f32, 1e-3, config=STZConfig(cubic_mode="tensor")
        )
        with pytest.raises(NotImplementedError):
            stz_decompress_roi(blob, (slice(0, 4), slice(0, 4), slice(0, 4)))

"""Cross-codec error-bound conformance suite (``pytest -m conformance``).

Every codec in :data:`helpers.BOUNDED_CODECS` claims the same contract:
for any supported input and any positive absolute bound, every
reconstructed point is within the bound.  This suite sweeps
dtype x eb x shape — cubes, strongly non-cubic boxes, size-1 dims,
1D/2D/4D, plus value-scale edges (huge, tiny, offset, constant) — and
asserts the contract point-wise through the one shared
``assert_error_bounded`` definition.  The streaming subsystem rides the
same sweep via ``compress_stream`` so temporal-delta frames obey the
identical contract.
"""

import numpy as np
import pytest

from conftest import conformance_field, smooth_field
from helpers import BOUNDED_CODECS, assert_error_bounded
from repro.core.api import compress_stream, iter_decompress
from repro.core.chunked import compress_chunked, decompress_chunked
from repro.util import jit

pytestmark = pytest.mark.conformance

CODEC_IDS = sorted(BOUNDED_CODECS)

#: shape sweep: cube, ragged primes, size-1 leading/trailing dims,
#: 1D, 2D, tiny, 4D (STZ-only sweep covers it separately below)
SHAPES = [
    (16, 16, 16),
    (5, 7, 11),
    (1, 16, 16),
    (16, 1, 1),
    (33,),
    (9, 31),
    (2, 2, 2),
]

DTYPES = [np.float32, np.float64]
EBS = [1e-2, 1e-4]


def field_for(shape, dtype, variant="unit"):
    # one cached, read-only array per (shape, dtype, variant) — shared
    # with the selector tests instead of regenerated per sweep row
    return conformance_field(shape, np.dtype(dtype).name, variant)


@pytest.mark.parametrize("codec", CODEC_IDS)
@pytest.mark.parametrize("shape", SHAPES, ids=[str(s) for s in SHAPES])
@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("eb", EBS)
def test_hard_bound_shape_sweep(codec, shape, dtype, eb):
    compress, decompress = BOUNDED_CODECS[codec]
    data = field_for(shape, dtype)
    # scale the absolute bound to the field's range so both eb values
    # exercise real quantization (not a degenerate everything-outlier
    # or everything-zero regime)
    abs_eb = eb * float(data.max() - data.min())
    recon = decompress(compress(data, abs_eb))
    assert recon.dtype == data.dtype
    assert_error_bounded(data, recon, abs_eb, context=f"{codec} {shape}")


@pytest.mark.parametrize("codec", CODEC_IDS)
@pytest.mark.parametrize(
    "variant", ["large", "tiny", "shifted", "constant"]
)
@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
def test_hard_bound_value_edges(codec, variant, dtype):
    """NaN-free edge values: magnitudes far from O(1), constant data."""
    compress, decompress = BOUNDED_CODECS[codec]
    data = field_for((16, 16, 16), dtype, variant)
    vrange = float(data.max() - data.min())
    abs_eb = 1e-3 * vrange if vrange else 1e-3
    recon = decompress(compress(data, abs_eb))
    assert_error_bounded(
        data, recon, abs_eb, context=f"{codec} {variant}"
    )


@pytest.mark.parametrize(
    "shape",
    [
        (4, 4, 4, 4),
        (3, 8, 2, 5),
        # extents 8-12 give the coarse levels a cubic interior on all
        # 4 or 5 odd axes (the rank-free weight rule, DESIGN.md §2)
        (8, 8, 8, 8),
        (10, 10, 10, 10),
        (12, 12, 12, 12),
        (9, 9, 9, 9, 9),
        (12, 12, 12, 12, 12),
    ],
)
def test_stz_four_dimensional(shape):
    compress, decompress = BOUNDED_CODECS["stz"]
    data = field_for(shape, np.float32)
    abs_eb = 1e-3 * float(data.max() - data.min())
    blobs = []
    for mode in (True, False):
        with jit.override(mode):
            blob = compress(data, abs_eb)
            chunked = compress_chunked(data, abs_eb, chunks=6)
            for recon in (decompress(blob), decompress_chunked(chunked)):
                assert_error_bounded(
                    data, recon, abs_eb, context=f"stz {shape} jit={mode}"
                )
            blobs.append((blob, chunked))
    # the compiled kernels and the NumPy reference emit the same bytes
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("shape", [(12, 10, 8), (1, 9, 9), (17,)])
@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
def test_streaming_rides_the_same_contract(shape, dtype):
    base = field_for(shape, dtype)
    steps = [
        base + dtype(0.05) * smooth_field(shape, seed=40 + t).astype(dtype)
        for t in range(4)
    ]
    abs_eb = 1e-3 * float(steps[0].max() - steps[0].min())
    blob = compress_stream(steps, abs_eb, keyframe_interval=2)
    for t, rec in enumerate(iter_decompress(blob)):
        assert_error_bounded(
            steps[t], rec, abs_eb, context=f"stream {shape} step {t}"
        )

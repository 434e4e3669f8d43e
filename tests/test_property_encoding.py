"""Property-based tests for the encoding substrates.

Two layers, per the harness policy: seeded-random parametrized sweeps
always run (no extra dependency), and hypothesis drives the same
properties through adversarial search when it is installed.

Properties:

* ``quantize``/``dequantize`` round-trip: the decoder reproduces the
  encoder's tracked reconstruction bit-for-bit, the hard bound holds on
  finite points, non-finite points are stored exactly, and codes stay
  inside the alphabet.
* ``quantize_many`` segment identity: fusing blocks is an execution
  strategy, never a result change.
* ``huffman_encode_many`` segment identity vs per-block
  ``huffman_encode``, and decode round-trips.
"""

import numpy as np
import pytest

from helpers import assert_error_bounded
from repro.encoding.huffman import (
    huffman_decode,
    huffman_encode,
    huffman_encode_many,
)
from repro.encoding.quantizer import (
    DEFAULT_RADIUS,
    dequantize,
    quantize,
    quantize_many,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the image bakes hypothesis in
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)


# ---------------------------------------------------------------------------
# shared property checks
# ---------------------------------------------------------------------------

def check_quantizer_roundtrip(values, pred, eb, radius, f32):
    qb = quantize(values, pred, eb, radius, f32)
    # codes stay inside the alphabet (0 = outlier marker)
    if qb.codes.size:
        assert int(qb.codes.max()) < 2 * radius
    # the decoder's output is the encoder's tracked recon, bit for bit
    recon = dequantize(
        qb.codes, pred, eb, qb.outlier_pos, qb.outlier_val, radius, f32
    )
    assert recon.tobytes() == qb.recon.reshape(-1).tobytes()
    # hard bound on finite points, exact storage of non-finite ones
    assert_error_bounded(values, recon.reshape(values.shape), eb)


def check_quantize_many_identity(blocks, preds, eb, radius, f32):
    fused = quantize_many(blocks, preds, eb, radius, f32)
    for qb, block, pred in zip(fused, blocks, preds):
        solo = quantize(block, pred, eb, radius, f32)
        assert np.array_equal(qb.codes, solo.codes)
        assert np.array_equal(qb.outlier_pos, solo.outlier_pos)
        assert qb.outlier_val.tobytes() == solo.outlier_val.tobytes()
        assert qb.recon.tobytes() == solo.recon.reshape(-1).tobytes()


def check_huffman_many_identity(streams):
    fused = huffman_encode_many(streams)
    assert len(fused) == len(streams)
    for blob, stream in zip(fused, streams):
        assert bytes(blob) == huffman_encode(stream)
        assert np.array_equal(huffman_decode(blob), stream)


# ---------------------------------------------------------------------------
# seeded-random sweeps (always run)
# ---------------------------------------------------------------------------

def _random_pair(rng, dtype, n, scale):
    values = (scale * rng.standard_normal(n)).astype(dtype)
    pred = values + (0.1 * scale * rng.standard_normal(n)).astype(dtype)
    return values, pred.astype(dtype)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("f32", [False, True], ids=["f64path", "f32path"])
def test_quantizer_roundtrip_seeded(seed, dtype, f32):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 400))
    scale = float(10.0 ** rng.integers(-4, 5))
    values, pred = _random_pair(rng, dtype, n, scale)
    if n >= 4:  # sprinkle non-finite and far-outlier points
        values[rng.integers(0, n)] = np.nan
        values[rng.integers(0, n)] = np.inf
        values[rng.integers(0, n)] = dtype(50 * scale)
    eb = float(scale * 10.0 ** rng.integers(-5, 0))
    radius = int(rng.choice([4, 128, DEFAULT_RADIUS]))
    check_quantizer_roundtrip(
        values.reshape(values.shape), pred, eb, radius, f32
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("f32", [False, True], ids=["f64path", "f32path"])
def test_quantize_many_identity_seeded(seed, f32):
    rng = np.random.default_rng(100 + seed)
    dtype = np.float32 if seed % 2 else np.float64
    nblocks = int(rng.integers(1, 6))
    blocks, preds = [], []
    for _ in range(nblocks):
        v, p = _random_pair(rng, dtype, int(rng.integers(0, 200)), 1.0)
        blocks.append(v)
        preds.append(p)
    check_quantize_many_identity(blocks, preds, 1e-3, DEFAULT_RADIUS, f32)


@pytest.mark.parametrize("seed", range(6))
def test_huffman_many_identity_seeded(seed):
    rng = np.random.default_rng(200 + seed)
    streams = []
    for _ in range(int(rng.integers(1, 6))):
        n = int(rng.integers(0, 3000))
        alphabet = int(rng.choice([1, 2, 40, 5000, 40000]))
        streams.append(
            rng.integers(0, alphabet, size=n).astype(np.uint32)
        )
    check_huffman_many_identity(streams)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("f32", [False, True], ids=["f64path", "f32path"])
def test_quantizer_negative_zero_bin(dtype, f32):
    # rint(-0.5) is -0.0; with pred = -0.0 the tracked recon must still
    # be the decoder's +0.0 (it rebuilds the bin from the integer code)
    values = np.array([-1.0, -0.0, 1.0], dtype=dtype)
    pred = np.array([-0.0, -0.0, -0.0], dtype=dtype)
    check_quantizer_roundtrip(values, pred, 1.0, 4, f32)


def test_quantizer_rejects_nonpositive_eb():
    v = np.zeros(4, dtype=np.float32)
    with pytest.raises(ValueError):
        quantize(v, v, 0.0)
    with pytest.raises(ValueError):
        quantize_many([v], [v], -1.0)


# ---------------------------------------------------------------------------
# hypothesis-driven search (when installed)
# ---------------------------------------------------------------------------

if HAVE_HYPOTHESIS:
    # bounded magnitudes plus explicit specials (this hypothesis
    # version disallows allow_nan together with min/max bounds)
    _floats32 = st.one_of(
        st.floats(min_value=-1e6, max_value=1e6, width=32),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    )
    _floats64 = st.one_of(
        st.floats(min_value=-1e12, max_value=1e12),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    )

    def _pair(draw, dtype, max_n=120):
        n = draw(st.integers(0, max_n))
        elems = _floats32 if dtype == np.float32 else _floats64
        values = draw(hnp.arrays(dtype, n, elements=elems))
        pred = draw(
            hnp.arrays(
                dtype,
                n,
                elements=st.floats(
                    min_value=-1e6,
                    max_value=1e6,
                    width=32 if dtype == np.float32 else 64,
                ),
            )
        )
        return values, pred

    @needs_hypothesis
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_quantizer_roundtrip_hypothesis(data):
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        values, pred = _pair(data.draw, dtype)
        eb = data.draw(
            st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)
        )
        radius = data.draw(st.sampled_from([4, 128, DEFAULT_RADIUS]))
        f32 = data.draw(st.booleans())
        check_quantizer_roundtrip(values, pred, eb, radius, f32)

    @needs_hypothesis
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_quantize_many_identity_hypothesis(data):
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        nblocks = data.draw(st.integers(1, 5))
        blocks, preds = [], []
        for _ in range(nblocks):
            v, p = _pair(data.draw, dtype, max_n=80)
            blocks.append(v)
            preds.append(p)
        eb = data.draw(
            st.floats(min_value=1e-6, max_value=1e2, allow_nan=False)
        )
        f32 = data.draw(st.booleans())
        check_quantize_many_identity(blocks, preds, eb, DEFAULT_RADIUS, f32)

    @needs_hypothesis
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1500), st.integers(1, 40000)),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_huffman_many_identity_hypothesis(sizes, seed):
        rng = np.random.default_rng(seed)
        streams = [
            rng.integers(0, alphabet, size=n).astype(np.uint32)
            for n, alphabet in sizes
        ]
        check_huffman_many_identity(streams)

"""Random-access Huffman decoding — the paper's §5 future-work item,
implemented on top of the chunk sync index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import huffman
from repro.encoding.huffman import (
    huffman_decode,
    huffman_decode_range,
    huffman_encode,
)
from repro.util import jit


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(99)
    syms = (50 + np.rint(rng.normal(0, 8, 100_000))).astype(np.uint32)
    return syms, huffman_encode(syms)


class TestDecodeRange:
    @pytest.mark.parametrize(
        "start,count",
        [
            (0, 10),
            (0, 100_000),
            (99_990, 10),
            (12_345, 6_789),
            (5, 0),
            (4096, 4096),  # chunk-aligned
            (4095, 2),  # straddles a chunk boundary
        ],
    )
    def test_matches_full_decode(self, stream, start, count):
        syms, blob = stream
        got = huffman_decode_range(blob, start, count)
        assert np.array_equal(got, syms[start : start + count])

    def test_out_of_range(self, stream):
        _, blob = stream
        with pytest.raises(IndexError):
            huffman_decode_range(blob, 99_999, 2)
        with pytest.raises(ValueError):
            huffman_decode_range(blob, -1, 2)

    def test_constant_stream(self):
        syms = np.full(5000, 3, np.uint32)
        blob = huffman_encode(syms)
        assert np.array_equal(
            huffman_decode_range(blob, 100, 50), syms[100:150]
        )

    def test_empty_stream(self):
        blob = huffman_encode(np.zeros(0, np.uint32))
        assert huffman_decode_range(blob, 0, 0).size == 0
        with pytest.raises(IndexError):
            huffman_decode_range(blob, 0, 1)

    def test_small_stream_single_chunk(self):
        syms = np.arange(100, dtype=np.uint32) % 7
        blob = huffman_encode(syms)
        assert np.array_equal(huffman_decode_range(blob, 30, 40), syms[30:70])

    def test_partial_is_cheaper_than_full(self, stream, monkeypatch):
        """The point of the feature: decoding a sliver must touch far
        fewer symbols than a full decode."""
        import time

        syms, blob = stream
        if not jit.has("huff_decode"):
            # the NumPy reference walks one step per codeword of a chunk
            # whatever the chunk count, so its time cannot resolve the
            # margin; assert the work instead — the range walks only
            # the 2 chunks covering it, a full decode all 196
            walked = []

            def spy(payloads, table, pos, steps, base=None):
                walked.append(pos.size)
                return real(payloads, table, pos, steps, base)

            real = huffman._lockstep_walk
            monkeypatch.setattr(huffman, "_lockstep_walk", spy)
            huffman_decode(blob)
            huffman_decode_range(blob, 50_000, 256)
            assert walked == [196, 2]
            return
        huffman_decode(blob)  # warm
        t0 = time.perf_counter()
        for _ in range(20):
            huffman_decode(blob)
        t_full = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(20):
            huffman_decode_range(blob, 50_000, 256)
        t_part = time.perf_counter() - t0
        assert t_part < t_full

    @given(st.integers(0, 2**31), st.integers(0, 9999), st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    def test_range_property(self, seed, start, count):
        rng = np.random.default_rng(seed)
        syms = rng.integers(0, 40, 10_000).astype(np.uint32)
        blob = huffman_encode(syms)
        count = min(count, syms.size - start)
        got = huffman_decode_range(blob, start, count)
        assert np.array_equal(got, syms[start : start + count])

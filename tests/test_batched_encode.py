"""Level encode path: equivalence with the per-segment primitives.

The many-batch entry points must be drop-in equivalent to their
per-segment counterparts: ``huffman_encode_many`` byte-identical to
``huffman_encode``, ``quantize_many`` bit-identical to ``quantize``,
and containers written through the level pipeline decodable by the
unchanged reader path.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_err, smooth_field
from repro.core.config import STZConfig
from repro.core.pipeline import stz_compress, stz_decompress
from repro.core.stream import StreamReader
from repro.encoding.bitstream import pack_bits, pack_codes
from repro.encoding.huffman import (
    huffman_decode,
    huffman_encode,
    huffman_encode_many,
)
from repro.encoding.quantizer import dequantize, quantize, quantize_many


def _stream_cases(rng):
    """Mixed symbol streams: empty, constant, tiny/wide alphabets."""
    cases = [
        np.zeros(0, np.uint32),  # empty
        np.array([5], np.uint32),  # single symbol
        np.full(4096, 7, np.uint32),  # constant
        np.array([0, 1], np.uint32),  # minimal two-symbol
    ]
    for _ in range(20):
        m = int(rng.integers(1, 20000))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            s = np.zeros(m, np.uint32)
        elif kind == 1:
            s = rng.integers(0, 3, m).astype(np.uint32)
        elif kind == 2:
            s = (16384 + np.rint(rng.normal(0, 40, m))).astype(np.uint32)
        else:
            s = rng.integers(0, 60000, m).astype(np.uint32)
        cases.append(s)
    return cases


class TestHuffmanEncodeMany:
    def test_byte_identical_to_single(self, rng):
        cases = _stream_cases(rng)
        fused = huffman_encode_many(cases)
        for i, (syms, blob) in enumerate(zip(cases, fused)):
            assert blob == huffman_encode(syms), f"stream {i}"

    def test_roundtrip(self, rng):
        cases = _stream_cases(rng)
        for syms, blob in zip(cases, huffman_encode_many(cases)):
            assert np.array_equal(huffman_decode(blob), syms)

    def test_empty_list(self):
        assert huffman_encode_many([]) == []

    def test_explicit_chunk(self, rng):
        syms = rng.integers(0, 9, 5000).astype(np.uint32)
        a = huffman_encode(syms, chunk=128)
        (b,) = huffman_encode_many([syms], chunk=128)
        assert a == b

    @given(st.integers(0, 2**31), st.integers(1, 9))
    @settings(max_examples=25, deadline=None)
    def test_many_streams_property(self, seed, n):
        rng = np.random.default_rng(seed)
        cases = [
            rng.integers(0, int(rng.integers(1, 300)), int(rng.integers(0, 3000)))
            .astype(np.uint32)
            for _ in range(n)
        ]
        fused = huffman_encode_many(cases)
        assert [huffman_encode(s) for s in cases] == fused


class TestPackCodesAt:
    def test_matches_pack_bits(self, rng):
        for _ in range(50):
            n = int(rng.integers(0, 1500))
            lens = rng.integers(1, 17, n)
            codes = (
                rng.integers(0, 1 << 16, n).astype(np.uint64)
                & ((np.uint64(1) << lens.astype(np.uint64)) - np.uint64(1))
            )
            a, na = pack_bits(codes, lens)
            b, nb = pack_codes(codes, lens)
            assert na == nb
            assert np.array_equal(a, b)


class TestQuantizeMany:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("eb", [1e-6, 0.004, 2.0])
    @pytest.mark.parametrize("f32", [False, True])
    def test_bit_identical_to_per_block(self, rng, dtype, eb, f32):
        blocks, preds = [], []
        for _ in range(9):
            n = int(rng.integers(0, 30000))
            v = (rng.normal(0, 10, n) * rng.choice([1e-6, 1, 1e6], n)).astype(
                dtype
            )
            if n > 4:
                v[:4] = [np.nan, np.inf, -np.inf, 0.0]
            blocks.append(v)
            preds.append((v + rng.normal(0, 0.01, n)).astype(dtype))
        blocks.append(np.zeros(0, dtype))
        preds.append(np.zeros(0, dtype))
        fused = quantize_many(blocks, preds, eb, f32=f32)
        for i, (v, p, qb) in enumerate(zip(blocks, preds, fused)):
            single = quantize(v, p, eb, f32=f32)
            assert np.array_equal(single.codes, qb.codes), i
            assert np.array_equal(single.outlier_pos, qb.outlier_pos), i
            assert np.array_equal(
                single.outlier_val, qb.outlier_val, equal_nan=True
            ), i
            assert np.array_equal(single.recon, qb.recon, equal_nan=True), i

    @pytest.mark.parametrize("f32", [False, True])
    def test_recon_matches_dequantize(self, rng, f32):
        """Encoder recon == decoder recon (same flag), so the bound is
        hard."""
        for dtype in (np.float32, np.float64):
            v = (rng.normal(0, 5, 20000)).astype(dtype)
            p = (v + rng.normal(0, 0.01, v.size)).astype(dtype)
            for eb in (1e-5, 0.004):
                (qb,) = quantize_many([v], [p], eb, f32=f32)
                rec = dequantize(
                    qb.codes, p, eb, qb.outlier_pos, qb.outlier_val, f32=f32
                )
                assert np.array_equal(rec, qb.recon)
                assert (
                    np.max(
                        np.abs(
                            rec.astype(np.float64) - v.astype(np.float64)
                        )
                    )
                    <= eb
                )

    def test_empty_list(self):
        assert quantize_many([], [], 0.1) == []

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            quantize_many([np.ones(3)], [np.zeros(4)], 0.1)

    def test_mixed_dtype_rejected(self):
        with pytest.raises(ValueError):
            quantize_many(
                [np.ones(3, np.float32), np.ones(3, np.float64)],
                [np.zeros(3, np.float32), np.zeros(3, np.float64)],
                0.1,
            )


class TestEndToEnd:
    """Containers from the batched writer decode via the reader path."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batched_container_roundtrip(self, dtype):
        data = smooth_field((33, 31, 29), seed=9).astype(dtype)
        eb = 1e-3
        blob = stz_compress(data, eb)
        assert max_err(stz_decompress(blob), data) <= eb
        # memoryview source (zero-copy reader) and file source agree
        from_mem = stz_decompress(memoryview(blob))
        from_file = stz_decompress(StreamReader(io.BytesIO(blob)))
        assert np.array_equal(from_mem, from_file)

    def test_serial_and_threaded_containers_identical(self):
        data = smooth_field((32, 32, 32), seed=10).astype(np.float32)
        assert stz_compress(data, 1e-3) == stz_compress(
            data, 1e-3, threads=4
        )

    def test_read_segment_is_zero_copy_view(self):
        data = smooth_field((24, 24), seed=12).astype(np.float32)
        blob = stz_compress(data, 1e-3)
        reader = StreamReader(blob)
        seg = reader.header.segments[0]
        payload = reader.read_segment(seg)
        assert isinstance(payload, memoryview)
        assert len(payload) == seg.length

    def test_unknown_flag_bits_rejected(self):
        """Flag bits can change decode semantics (the f32-quant bit
        does), so a reader must refuse bits it does not understand
        rather than silently decode with the wrong arithmetic."""
        data = smooth_field((24, 24), seed=16).astype(np.float32)
        blob = bytearray(stz_compress(data, 1e-3))
        flags_off = 11  # magic(4) version dtype ndim levels interp mode resid
        blob[flags_off] |= 0x80
        with pytest.raises(ValueError, match="unknown feature flags"):
            StreamReader(bytes(blob))

    def test_f32_flag_roundtrips_in_container(self):
        data = smooth_field((24, 24), seed=14).astype(np.float32)
        blob = stz_compress(data, 1e-3)
        assert StreamReader(blob).header.config.f32_quant is True
        legacy = stz_compress(data, 1e-3, config=STZConfig(f32_quant=False))
        assert StreamReader(legacy).header.config.f32_quant is False

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pre_flag_container_decodes_within_bound(self, dtype):
        """Containers without the f32-quant bit (everything written by
        pre-flag encoders, modeled by ``f32_quant=False``) reconstruct
        with the float64 formula they were encoded with; flagged
        containers reconstruct with the float32 formula.  Either way
        the one reader path honors the hard bound, because the flag
        travels with the container instead of being guessed from the
        payload dtype."""
        data = smooth_field((33, 31, 29), seed=15).astype(dtype)
        eb = 1e-3
        for cfg in (STZConfig(f32_quant=False), STZConfig()):
            blob = stz_compress(data, eb, config=cfg)
            assert max_err(stz_decompress(blob), data) <= eb

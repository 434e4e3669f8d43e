"""SPERR-like codec: CDF 9/7 wavelet + per-level coding + outlier pass.

Wavelet coefficients are uniformly quantized at ``eb / quality`` (the
quality factor absorbs the synthesis gain of the biorthogonal basis) and
Huffman-coded *per resolution level* — one segment per level, coarsest
readable without the rest, which is what makes the codec
resolution-progressive like SPERR.

Because a transform coder cannot bound point-wise error by construction,
compression finishes with SPERR's signature *outlier correction*: the
encoder reconstructs, finds every point whose error exceeds the bound,
and stores a quantized correction for it.  The decoder applies the
corrections, so ``max|x - x_hat| <= eb`` is a hard guarantee.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.encoding.huffman import (
    huffman_decode,
    huffman_encode_many,
)
from repro.encoding.lossless import compress_bytes, decompress_bytes
from repro.encoding.quantizer import (
    DEFAULT_RADIUS,
    dequantize,
    quantize_many,
)
from repro.sperr.wavelet import (
    DC_GAIN,
    cdf97_forward,
    cdf97_inverse,
    corner_shapes,
    level_band_regions,
    max_levels,
)
from repro.util.sections import pack_sections, unpack_sections
from repro.util.validation import (
    as_float_array,
    dtype_code,
    dtype_from_code,
    resolve_eb,
)

_MAGIC = b"SPRr"
_VERSION = 1
_HEADER = struct.Struct("<4sBBBBddI")
# magic, version, dtype, ndim, levels, eb, quality, radius
DEFAULT_QUALITY = 4.0


def _encode_bands(
    coeffs: np.ndarray,
    bands: list[list[tuple[slice, ...]]],
    ebw: float,
    radius: int,
    zlib_level: int,
) -> list[bytes]:
    """Quantize + Huffman every resolution level's band.

    Each band (disjoint coefficient rectangles, flattened) quantizes
    and entropy-codes on its own through :func:`quantize_many` and
    :func:`huffman_encode_many` (DESIGN.md §2).  The dequantized values
    are written back into ``coeffs`` so the encoder's outlier pass sees
    exactly the decoder's reconstruction.
    """
    live = [(i, regions) for i, regions in enumerate(bands) if regions]
    vals = [
        np.concatenate([coeffs[r].reshape(-1) for r in regions])
        for _i, regions in live
    ]
    qbs = quantize_many(vals, [np.zeros_like(v) for v in vals], ebw, radius)
    huffs = huffman_encode_many([qb.codes for qb in qbs])
    payloads = [b""] * len(bands)
    for (i, regions), qb, huff in zip(live, qbs, huffs):
        off = 0
        for r in regions:
            size = coeffs[r].size
            coeffs[r] = qb.recon[off : off + size].reshape(coeffs[r].shape)
            off += size
        payloads[i] = pack_sections(
            [
                compress_bytes(huff, zlib_level),
                struct.pack("<Q", qb.outlier_pos.size)
                + qb.outlier_pos.astype(np.uint64).tobytes()
                + qb.outlier_val.tobytes(),
            ]
        )
    return payloads


def _decode_band(
    payload: bytes | memoryview,
    coeffs: np.ndarray,
    regions: list[tuple[slice, ...]],
    ebw: float,
    radius: int,
) -> None:
    if len(payload) == 0 or not regions:
        return
    sections = unpack_sections(payload)
    # the band's regions fix the code count: a stream declaring another
    # is rejected before its output is allocated
    codes = huffman_decode(
        decompress_bytes(sections[0]), sum(coeffs[r].size for r in regions)
    )
    blob = bytes(sections[1])
    (n_out,) = struct.unpack_from("<Q", blob, 0)
    pos = np.frombuffer(blob, dtype=np.uint64, count=n_out, offset=8).astype(
        np.int64
    )
    val = np.frombuffer(blob, dtype=np.float64, offset=8 + 8 * n_out)
    rec = dequantize(
        codes, np.zeros(codes.size, dtype=np.float64), ebw, pos, val, radius
    )
    off = 0
    for r in regions:
        size = coeffs[r].size
        coeffs[r] = rec[off : off + size].reshape(coeffs[r].shape)
        off += size


def sperr_compress(
    data: np.ndarray,
    eb: float,
    eb_mode: str = "abs",
    levels: int | None = None,
    quality: float = DEFAULT_QUALITY,
    radius: int = DEFAULT_RADIUS,
    zlib_level: int = 1,
) -> bytes:
    """Compress with hard absolute/relative L-infinity bound ``eb``."""
    return _sperr_compress_impl(
        data, eb, eb_mode, levels, quality, radius, zlib_level, False
    )[0]


def sperr_compress_with_recon(
    data: np.ndarray,
    eb: float,
    eb_mode: str = "abs",
    levels: int | None = None,
    quality: float = DEFAULT_QUALITY,
    radius: int = DEFAULT_RADIUS,
    zlib_level: int = 1,
) -> tuple[bytes, np.ndarray]:
    """:func:`sperr_compress` plus the decoder's exact reconstruction.

    The outlier-correction pass already reconstructs from the
    *dequantized* coefficients (written back band by band during
    encoding), which is bit-identical to what the decoder rebuilds from
    the payloads; applying the quantized corrections to that
    reconstruction reproduces :func:`sperr_decompress`'s output exactly
    — no second inverse transform, no decompression pass.
    """
    blob, recon = _sperr_compress_impl(
        data, eb, eb_mode, levels, quality, radius, zlib_level, True
    )
    return blob, recon


def _sperr_compress_impl(
    data: np.ndarray,
    eb: float,
    eb_mode: str,
    levels: int | None,
    quality: float,
    radius: int,
    zlib_level: int,
    want_recon: bool,
) -> tuple[bytes, np.ndarray | None]:
    data = as_float_array(data)
    abs_eb = resolve_eb(data, eb, eb_mode)
    L = levels if levels is not None else max_levels(data.shape)
    ebw = abs_eb / quality

    coeffs = cdf97_forward(data, L)
    bands = level_band_regions(data.shape, L)  # finest..coarsest, then root
    payloads = _encode_bands(coeffs, bands, ebw, radius, zlib_level)

    # outlier correction pass against the decoder's reconstruction
    rec = cdf97_inverse(coeffs, L)
    resid = data.astype(np.float64) - rec
    bad = np.flatnonzero(np.abs(resid).reshape(-1) > abs_eb)
    corr = np.rint(resid.reshape(-1)[bad] / abs_eb).astype(np.int32)
    outliers = (
        struct.pack("<Q", bad.size)
        + bad.astype(np.uint64).tobytes()
        + corr.tobytes()
    )

    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        dtype_code(data.dtype),
        data.ndim,
        L,
        abs_eb,
        quality,
        radius,
    ) + struct.pack(f"<{data.ndim}Q", *data.shape)
    blob = pack_sections(
        [header, compress_bytes(outliers, max(zlib_level, 1)), *payloads]
    )
    if not want_recon:
        return blob, None
    # mirror the decoder's final correction + cast on the encoder-side
    # reconstruction (int32 corrections round-trip exactly)
    rec.reshape(-1)[bad] += corr.astype(np.float64) * abs_eb
    return blob, np.ascontiguousarray(rec.astype(data.dtype))


def sperr_decompress(
    blob: bytes | memoryview, level: int | None = None
) -> np.ndarray:
    """Decompress fully, or progressively: ``level=k`` decodes only the
    root plus the ``k-1`` coarsest detail levels and returns the
    low-resolution corner block (k=1 -> root lattice).

    The progressive path skips the finer levels' segments entirely —
    wavelet-domain decode savings, as in SPERR.
    """
    sections = unpack_sections(blob)
    header = bytes(sections[0])
    magic, version, dt, ndim, L, abs_eb, quality, radius = _HEADER.unpack(
        header[: _HEADER.size]
    )
    if magic != _MAGIC:
        raise ValueError("not a SPERR-like container")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    shape = struct.unpack(f"<{ndim}Q", header[_HEADER.size :])
    dtype = dtype_from_code(dt)
    ebw = abs_eb / quality
    bands = level_band_regions(shape, L)
    payloads = sections[2:]

    if level is not None:
        if not (1 <= level <= L + 1):
            raise ValueError(f"level must be in [1, {L + 1}]")
        keep = level - 1  # number of detail levels to decode
        cshapes = corner_shapes(shape, L)
        coeffs = np.zeros(cshapes[L - keep], dtype=np.float64)
        sub_bands = level_band_regions(cshapes[L - keep], keep)
        # root
        _decode_band(payloads[L], coeffs, sub_bands[keep], ebw, radius)
        for k in range(keep):  # finest kept .. coarsest detail
            _decode_band(
                payloads[L - keep + k], coeffs, sub_bands[k], ebw, radius
            )
        out = cdf97_inverse(coeffs, keep) if keep else coeffs
        # undo the low-pass scaling so the preview is value-comparable
        # with the original field
        out = out / DC_GAIN ** (ndim * (L - keep))
        return np.ascontiguousarray(out.astype(dtype))

    coeffs = np.zeros(shape, dtype=np.float64)
    for regions, payload in zip(bands, payloads):
        _decode_band(payload, coeffs, regions, ebw, radius)
    rec = cdf97_inverse(coeffs, L)

    blob_out = decompress_bytes(sections[1])
    (n_out,) = struct.unpack_from("<Q", blob_out, 0)
    if n_out:
        pos = np.frombuffer(
            blob_out, dtype=np.uint64, count=n_out, offset=8
        ).astype(np.int64)
        corr = np.frombuffer(blob_out, dtype=np.int32, offset=8 + 8 * n_out)
        flat = rec.reshape(-1)
        flat[pos] += corr.astype(np.float64) * abs_eb
    return np.ascontiguousarray(rec.astype(dtype))


class SPERRCompressor:
    """Object API with Table 1 capability flags."""

    name = "SPERR"
    supports_progressive = True
    supports_random_access = False

    def __init__(self, eb: float, eb_mode: str = "abs"):
        self.eb = eb
        self.eb_mode = eb_mode

    def compress(self, data: np.ndarray) -> bytes:
        return sperr_compress(data, self.eb, self.eb_mode)

    def decompress(self, blob: bytes) -> np.ndarray:
        return sperr_decompress(blob)

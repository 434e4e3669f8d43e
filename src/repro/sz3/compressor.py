"""SZ3-style compressor: cascaded interpolation + quantization + Huffman.

Container layout (little-endian, via length-prefixed sections):

  header   : magic, version, dtype, ndim, interp, shape, eb, radius,
             anchor stride
  codes    : one Huffman segment over all quantization codes
  outliers : per-batch counts + in-batch positions + exact values
  anchors  : raw anchor lattice bytes (zlib)

The OMP mode mirrors real SZ3's OpenMP build: the domain is split into
independent chunks along axis 0 and compressed in a thread pool.  Each
chunk pays its own anchors and Huffman table, which is exactly why the
paper's Table 3 marks SZ3-OMP with a compression-ratio-drop asterisk —
the effect reproduces here structurally.
"""

from __future__ import annotations

import struct
import numpy as np

from repro.core.parallel import pmap
from repro.encoding.huffman import (
    huffman_decode,
    huffman_encode,
    huffman_encode_many,
)
from repro.encoding.lossless import compress_bytes, decompress_bytes
from repro.encoding.quantizer import DEFAULT_RADIUS, dequantize, quantize
from repro.sz3.interpolation import anchor_stride, predict_batch, schedule
from repro.util.sections import pack_sections, unpack_sections
from repro.util.validation import (
    as_float_array,
    dtype_code,
    dtype_from_code,
    resolve_eb,
)

_MAGIC = b"SZ3r"
#: v1: float64 quantizer arithmetic, plain interp byte.  v2 is emitted
#: only when the f32 fast-path flag is set: the high bit of the interp
#: byte records that quantization ran in float32 where the bound
#: analysis allows (the same record-it-in-the-container contract as the
#: STZ header's f32-quant bit, repro.encoding.quantizer docstring).
#: Readers accept both; pre-flag readers reject v2 with a clean version
#: error instead of silently decoding with the wrong formula.
_VERSION = 1
_VERSION_F32 = 2
_INTERP_CODE = {"linear": 0, "cubic": 1}
_INTERP_NAME = {v: k for k, v in _INTERP_CODE.items()}
_F32_BIT = 0x80  # in the interp byte, v2 only
_HEADER = struct.Struct("<4sBBBBdII")
# magic, version, dtype, ndim, interp, eb, radius, astride


class _SZ3Stages:
    """Prediction/quantization output of one (sub-)domain, pre-entropy.

    Splitting the pipeline here lets the OMP mode run each stage —
    prediction and quantization, Huffman, assembly — as its own map
    over the chunks (DESIGN.md §2).  ``recon`` is the
    decompressor's exact output, so callers embedding SZ3 (the STZ
    level-1 stage) can skip a full decompression round-trip.
    """

    __slots__ = ("header", "codes", "outliers", "anchors", "recon")

    def __init__(self, header, codes, outliers, anchors, recon):
        self.header = header
        self.codes = codes
        self.outliers = outliers
        self.anchors = anchors
        self.recon = recon


def _sz3_encode(
    data: np.ndarray, abs_eb: float, interp: str, radius: int,
    f32: bool = False,
) -> _SZ3Stages:
    """Run the cascaded predict+quantize passes (no entropy coding)."""
    astride = anchor_stride(data.shape)
    recon = data.copy()
    anchors_sel = tuple(slice(0, None, astride) for _ in data.shape)
    anchors = np.ascontiguousarray(data[anchors_sel])

    codes_parts: list[np.ndarray] = []
    out_counts: list[int] = []
    out_pos: list[np.ndarray] = []
    out_val: list[np.ndarray] = []
    for batch in schedule(data.shape, astride):
        pred = predict_batch(recon, batch, interp)
        values = np.ascontiguousarray(recon[batch.target_sel])
        # the f32 fast path needs the container to record the arithmetic
        # mode so the decoder provably mirrors it: opting in bumps the
        # version and sets the interp byte's high bit (header below)
        qb = quantize(values, pred, abs_eb, radius, f32)
        codes_parts.append(qb.codes)
        out_counts.append(qb.outlier_pos.size)
        out_pos.append(qb.outlier_pos.astype(np.uint32))
        out_val.append(qb.outlier_val)
        recon[batch.target_sel] = qb.recon.reshape(values.shape)

    codes = (
        np.concatenate(codes_parts)
        if codes_parts
        else np.zeros(0, dtype=np.uint32)
    )
    header = _HEADER.pack(
        _MAGIC,
        _VERSION_F32 if f32 else _VERSION,
        dtype_code(data.dtype),
        data.ndim,
        _INTERP_CODE[interp] | (_F32_BIT if f32 else 0),
        abs_eb,
        radius,
        astride,
    ) + struct.pack(f"<{data.ndim}Q", *data.shape)
    outliers = (
        np.asarray(out_counts, dtype=np.uint32).tobytes()
        + (np.concatenate(out_pos).tobytes() if out_pos else b"")
        + (np.concatenate(out_val).tobytes() if out_val else b"")
    )
    return _SZ3Stages(header, codes, outliers, anchors, recon)


def _sz3_assemble(
    stages: _SZ3Stages, huff_blob: bytes, zlib_level: int
) -> bytes:
    return pack_sections(
        [
            stages.header,
            compress_bytes(huff_blob, zlib_level),
            compress_bytes(stages.outliers, zlib_level),
            compress_bytes(stages.anchors.tobytes(), max(zlib_level, 1)),
        ]
    )


def sz3_compress(
    data: np.ndarray,
    eb: float,
    eb_mode: str = "abs",
    interp: str = "cubic",
    radius: int = DEFAULT_RADIUS,
    zlib_level: int = 1,
    f32: bool = False,
) -> bytes:
    """Compress a float32/float64 array with absolute/relative bound.

    ``f32=True`` opts float32 payloads into float32 quantizer
    arithmetic where the bound analysis allows (borderline points are
    re-verified in exact float64, so the hard bound is unchanged); the
    container records the mode as version 2 so the decoder provably
    reconstructs with the encoder's formula.  Default off: containers
    stay byte-identical to pre-flag encoders.
    """
    return sz3_compress_with_recon(
        data, eb, eb_mode, interp, radius, zlib_level, f32
    )[0]


def sz3_compress_with_recon(
    data: np.ndarray,
    eb: float,
    eb_mode: str = "abs",
    interp: str = "cubic",
    radius: int = DEFAULT_RADIUS,
    zlib_level: int = 1,
    f32: bool = False,
) -> tuple[bytes, np.ndarray]:
    """:func:`sz3_compress` plus the decompressor's exact reconstruction.

    The compressor tracks the decoded values while encoding (it must,
    to keep prediction consistent), so callers that need both — STZ
    uses level 1's reconstruction as its prediction basis — can avoid
    paying a decompression pass over the fresh container.
    """
    data = as_float_array(data)
    abs_eb = resolve_eb(data, eb, eb_mode)
    if abs_eb <= 0:
        raise ValueError("error bound must be > 0")
    if interp not in _INTERP_CODE:
        raise ValueError(f"unknown interp {interp!r}")
    stages = _sz3_encode(data, abs_eb, interp, radius, f32)
    blob = _sz3_assemble(stages, huffman_encode(stages.codes), zlib_level)
    return blob, stages.recon


def sz3_decompress(blob: bytes | memoryview) -> np.ndarray:
    """Decompress an :func:`sz3_compress` container."""
    sections = unpack_sections(blob)
    header = bytes(sections[0])
    (magic, version, dt, ndim, interp_c, abs_eb, radius, astride) = (
        _HEADER.unpack(header[: _HEADER.size])
    )
    if magic != _MAGIC:
        raise ValueError("not an SZ3 container")
    if version not in (_VERSION, _VERSION_F32):
        raise ValueError(f"unsupported SZ3 container version {version}")
    # v2 carries the f32-quant flag in the interp byte's high bit; v1
    # predates the flag and always decodes with the float64 formula
    f32 = version == _VERSION_F32 and bool(interp_c & _F32_BIT)
    shape = struct.unpack(f"<{ndim}Q", header[_HEADER.size :])
    dtype = dtype_from_code(dt)
    interp = _INTERP_NAME[interp_c & ~_F32_BIT]

    batches = schedule(shape, astride)
    # the schedule fixes the code count: a stream declaring another is
    # rejected before its output is allocated
    codes = huffman_decode(
        decompress_bytes(sections[1]), sum(b.size for b in batches)
    )
    out_blob = decompress_bytes(sections[2])
    nb = len(batches)
    counts = np.frombuffer(out_blob[: 4 * nb], dtype=np.uint32)
    total_out = int(counts.sum())
    pos_all = np.frombuffer(
        out_blob[4 * nb : 4 * nb + 4 * total_out], dtype=np.uint32
    )
    val_all = np.frombuffer(out_blob[4 * nb + 4 * total_out :], dtype=dtype)
    anchors_bytes = decompress_bytes(sections[3])

    recon = np.empty(shape, dtype=dtype)
    anchors_sel = tuple(slice(0, None, astride) for _ in shape)
    recon[anchors_sel] = np.frombuffer(anchors_bytes, dtype=dtype).reshape(
        recon[anchors_sel].shape
    )

    c_off = 0
    o_off = 0
    for i, batch in enumerate(batches):
        pred = predict_batch(recon, batch, interp)
        bcodes = codes[c_off : c_off + batch.size]
        c_off += batch.size
        n_out = int(counts[i])
        pos = pos_all[o_off : o_off + n_out].astype(np.int64)
        val = val_all[o_off : o_off + n_out]
        o_off += n_out
        rec = dequantize(bcodes, pred, abs_eb, pos, val, radius, f32)
        recon[batch.target_sel] = rec.reshape(pred.shape)
    return recon


# ---------------------------------------------------------------------------
# OMP (thread-chunked) mode
# ---------------------------------------------------------------------------

_OMP_MAGIC = b"SZ3c"


def _chunk_slices(n: int, parts: int) -> list[slice]:
    """Split axis length ``n`` into at most ``parts`` contiguous runs."""
    parts = max(1, min(parts, n))
    bounds = np.linspace(0, n, parts + 1).astype(int)
    return [
        slice(int(a), int(b))
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]


def sz3_compress_omp(
    data: np.ndarray,
    eb: float,
    eb_mode: str = "abs",
    interp: str = "cubic",
    threads: int = 8,
    radius: int = DEFAULT_RADIUS,
    zlib_level: int = 1,
    f32: bool = False,
) -> bytes:
    """Domain-decomposed parallel compression (reduced CR vs serial).

    Prediction, Huffman coding and assembly each map over the chunks
    in the thread pool.  Each chunk's container is byte-identical to a
    serial :func:`sz3_compress` of the chunk.
    """
    data = as_float_array(data)
    abs_eb = resolve_eb(data, eb, eb_mode)
    if abs_eb <= 0:
        raise ValueError("error bound must be > 0")
    if interp not in _INTERP_CODE:
        raise ValueError(f"unknown interp {interp!r}")
    slices = _chunk_slices(data.shape[0], threads)
    chunks = [np.ascontiguousarray(data[sl]) for sl in slices]
    stages = pmap(
        lambda c: _sz3_encode(c, abs_eb, interp, radius, f32), chunks, threads
    )
    huffs = huffman_encode_many([st.codes for st in stages], threads=threads)
    blobs = pmap(
        lambda sh: _sz3_assemble(sh[0], sh[1], zlib_level),
        list(zip(stages, huffs)),
        threads,
    )
    return pack_sections([_OMP_MAGIC, *blobs])


def sz3_decompress_omp(
    blob: bytes | memoryview, threads: int = 8
) -> np.ndarray:
    sections = unpack_sections(blob)
    if bytes(sections[0]) != _OMP_MAGIC:
        raise ValueError("not an SZ3 OMP container")
    parts = pmap(sz3_decompress, sections[1:], threads)
    return np.concatenate(parts, axis=0)


class SZ3Compressor:
    """Object API with the capability flags used by Table 1."""

    name = "SZ3"
    supports_progressive = False
    supports_random_access = False

    def __init__(
        self, eb: float, eb_mode: str = "abs", interp: str = "cubic"
    ):
        self.eb = eb
        self.eb_mode = eb_mode
        self.interp = interp

    def compress(self, data: np.ndarray) -> bytes:
        return sz3_compress(data, self.eb, self.eb_mode, self.interp)

    def decompress(self, blob: bytes) -> np.ndarray:
        return sz3_decompress(blob)

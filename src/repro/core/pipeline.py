"""The STZ compression/decompression pipeline (paper §3.1-3.2, Figure 2).

Compression walks the hierarchy coarsest-first:

1. level 1 (the stride ``2**(levels-1)`` lattice) is compressed with the
   embedded SZ3 codec at the tightest error bound of the adaptive
   schedule, then *decompressed* so every later prediction uses exactly
   the values the decompressor will have;
2. each finer level's ``2**d - 1`` parity sub-blocks are predicted from
   the reconstructed coarser lattice (multi-dimensional interpolation),
   their residuals quantized and Huffman-encoded per sub-block — the
   per-sub-block segmentation is what later enables selective decoding;
3. the reconstructed sub-blocks are interleaved with the coarse lattice
   to form the next level's prediction basis.

Decompression mirrors this and may stop at any level (progressive).
All per-sub-block work at one level is independent, so each level runs
stage by stage, every stage a map over the sub-blocks; both directions
accept a ``threads`` argument (the paper's OMP mode) that fans those
maps across a pool, and serial and threaded runs share the one path.

The hot kernels under this pipeline — quantization, Huffman tree and
packing, interpolation combination — engage compiled implementations
through the ``repro.util.jit`` facade when available (DESIGN.md §10);
the facade's contract is byte-identical output, so nothing at this
layer branches on it.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.core.config import STZConfig
from repro.core.partition import (
    Box,
    Offset,
    interleave,
    lattice_shape,
    level_strides,
    nonzero_offsets,
    subblock_shape,
    subblock_view_in,
)
from repro.core.parallel import pmap
from repro.core.predict import predict_block, predict_dequant_block
from repro.core.stream import (
    KIND_L1_SZ3,
    KIND_RESIDUAL_Q,
    KIND_RESIDUAL_SZ3,
    KIND_SZ3_BLOCK,
    SegmentInfo,
    StreamReader,
    StreamWriter,
)
from repro.encoding.huffman import huffman_decode_many, huffman_encode_many
from repro.encoding.lossless import compress_bytes, decompress_bytes
from repro.encoding.quantizer import _f32_mode, dequantize_many, quantize_many
from repro.sz3.compressor import (
    sz3_compress,
    sz3_compress_with_recon,
    sz3_decompress,
)
from repro.util.sections import pack_sections, unpack_sections
from repro.util.timer import StageTimer
from repro.util.validation import as_float_array, resolve_eb

_ZERO_EPS_LIMIT = 8  # eps mask fits u8


# ---------------------------------------------------------------------------
# residual segment payloads
# ---------------------------------------------------------------------------

def _residual_payload(huff_blob: bytes, qb, config: STZConfig) -> bytes:
    """Assemble one sub-block payload from its Huffman blob + outliers.

    Huffman output is near entropy-optimal, so the lossless backend is
    applied in probe mode: segments that will not deflate skip the full
    zlib pass and are stored raw (same tagged format either way).
    """
    return pack_sections(
        [
            compress_bytes(huff_blob, config.zlib_level, probe=True),
            struct.pack("<Q", qb.outlier_pos.size)
            + qb.outlier_pos.astype(np.uint32).tobytes()
            + qb.outlier_val.tobytes(),
        ]
    )


def _encode_residual_level(
    blocks: list[np.ndarray],
    preds: list[np.ndarray],
    eb: float,
    config: STZConfig,
    threads: int | None,
) -> tuple[list[bytes], list[np.ndarray]]:
    """Quantize, Huffman-encode and assemble the sub-blocks of one level.

    Each stage maps over the sub-blocks (across the pool when
    ``threads`` asks for it); every payload depends on its own
    sub-block alone, so the bytes do not depend on ``threads``.
    """
    qbs = quantize_many(
        blocks, preds, eb, config.quant_radius, config.f32_quant,
        threads=threads,
    )
    huffs = huffman_encode_many([qb.codes for qb in qbs], threads=threads)
    payloads = pmap(
        lambda hq: _residual_payload(hq[0], hq[1], config),
        list(zip(huffs, qbs)),
        threads,
    )
    return payloads, [qb.recon for qb in qbs]


def _split_residual_payload(
    payload: bytes | memoryview, dtype: np.dtype
) -> tuple[bytes, np.ndarray, np.ndarray]:
    """Parse one sub-block payload into (huffman blob, out_pos, out_val).

    Parses the outlier section straight from the zero-copy section
    view — the returned arrays alias the container buffer.
    """
    sections = unpack_sections(payload)
    blob = sections[1]
    (n_out,) = struct.unpack_from("<Q", blob, 0)
    pos = np.frombuffer(blob, dtype=np.uint32, count=n_out, offset=8).astype(
        np.int64
    )
    val = np.frombuffer(blob, dtype=dtype, offset=8 + 4 * n_out)
    return decompress_bytes(sections[0]), pos, val


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def stz_compress(
    data: np.ndarray,
    eb: float,
    eb_mode: str = "abs",
    config: STZConfig | None = None,
    threads: int | None = None,
) -> bytes:
    """Compress ``data`` with finest-level absolute bound ``abs(eb)``.

    Every reconstructed value is within the user bound: finer levels use
    exactly ``abs_eb`` and coarser levels tighter bounds (when
    ``config.adaptive_eb``), so the container-wide guarantee is
    ``max|x - x_hat| <= abs_eb``.
    """
    return stz_compress_with_recon(data, eb, eb_mode, config, threads)[0]


def stz_compress_with_recon(
    data: np.ndarray,
    eb: float,
    eb_mode: str = "abs",
    config: STZConfig | None = None,
    threads: int | None = None,
) -> tuple[bytes, np.ndarray]:
    """:func:`stz_compress` plus the decompressor's exact reconstruction.

    The encoder already tracks the decoded values level by level (it
    must, to keep prediction consistent), so the final prediction basis
    ``C`` *is* the full-resolution array :func:`stz_decompress` will
    produce — bit for bit.  Callers that need both, like the streaming
    subsystem's closed-loop temporal predictor
    (:mod:`repro.core.streaming`), avoid a decompression pass per frame.
    The ``partition_only`` ablation tracks no reconstruction and falls
    back to an explicit round-trip.
    """
    config = config or STZConfig()
    if config.codec != "stz":
        # codec dispatch (fixed foreign backends, "auto" selection)
        # happens a layer up; silently running the STZ cascade under a
        # config that names another backend would mislabel the output
        raise ValueError(
            f"config.codec={config.codec!r}: use repro.core.api.compress "
            "for codec dispatch; the STZ pipeline only encodes codec='stz'"
        )
    data = as_float_array(data)
    if data.ndim > _ZERO_EPS_LIMIT:
        raise ValueError("STZ supports at most 8 dimensions")
    abs_eb = resolve_eb(data, eb, eb_mode)
    writer = StreamWriter(data.shape, data.dtype, config, abs_eb)
    offsets = nonzero_offsets(data.ndim)
    strides = level_strides(config.levels)

    if config.partition_only:
        _compress_partition_only(data, abs_eb, config, writer, threads)
        blob = writer.tobytes()
        return blob, stz_decompress(blob)

    # level 1: embedded SZ3 on the coarsest lattice; the encoder tracks
    # the decoder's exact reconstruction, so no decompression round-trip
    eb1 = config.level_eb(abs_eb, 1)
    A = np.ascontiguousarray(data[tuple(slice(0, None, strides[0]) for _ in data.shape)])
    seg1, C = sz3_compress_with_recon(
        A, eb1, "abs", config.sz3_interp, config.quant_radius, config.zlib_level
    )
    writer.add_segment(1, (0,) * data.ndim, KIND_L1_SZ3, seg1)

    for level in range(2, config.levels + 1):
        stride = strides[level - 1]
        fine_shape = lattice_shape(data.shape, stride)
        ebl = config.level_eb(abs_eb, level)

        if config.residual_codec == "quantize":
            C = _compress_level_q(
                data, C, level, stride, fine_shape, ebl, config, writer,
                offsets, threads,
            )
            continue

        def work(eps: Offset, _C=C, _stride=stride, _ebl=ebl, _fs=fine_shape):
            B = np.ascontiguousarray(subblock_view_in(data, eps, _stride))
            ts = subblock_shape(_fs, eps)
            if B.size == 0:
                return eps, b"", np.empty(ts, dtype=data.dtype)
            pred = predict_block(
                _C, eps, ts, config.interp, config.cubic_mode
            )
            diff = B - pred
            payload = sz3_compress(
                diff,
                _ebl,
                "abs",
                config.sz3_interp,
                config.quant_radius,
                config.zlib_level,
            )
            recon = pred + sz3_decompress(payload)
            return eps, payload, recon

        results = pmap(work, offsets, threads)
        blocks = {}
        for eps, payload, recon in results:
            writer.add_segment(level, eps, KIND_RESIDUAL_SZ3, payload)
            blocks[eps] = recon
        C = interleave(C, blocks, fine_shape)

    return writer.tobytes(), C


def _compress_level_q(
    data: np.ndarray,
    C: np.ndarray,
    level: int,
    stride: int,
    fine_shape: tuple[int, ...],
    ebl: float,
    config: STZConfig,
    writer: StreamWriter,
    offsets: list[Offset],
    threads: int | None,
) -> np.ndarray:
    """One level of the quantize-residual encode path.

    Stage by stage over the level's sub-blocks: prediction, then
    :func:`_encode_residual_level` (quantize, Huffman, payload
    assembly).  Serial and threaded runs (the paper's OMP) take the
    same path — each stage is a :func:`pmap`, a plain loop when serial
    — so both emit the same container bytes.
    """

    def predict(eps: Offset):
        B = np.ascontiguousarray(subblock_view_in(data, eps, stride))
        if B.size == 0:
            return None
        ts = subblock_shape(fine_shape, eps)
        return B, predict_block(C, eps, ts, config.interp, config.cubic_mode)

    pairs = pmap(predict, offsets, threads)
    live = [p for p in pairs if p is not None]
    payloads, recons = _encode_residual_level(
        [B for B, _ in live], [pred for _, pred in live], ebl, config,
        threads,
    )
    encoded = iter(zip(payloads, recons))
    blocks = {}
    for eps, pair in zip(offsets, pairs):
        ts = subblock_shape(fine_shape, eps)
        if pair is None:
            payload, recon = b"", np.empty(ts, dtype=data.dtype)
        else:
            payload, recon = next(encoded)
        writer.add_segment(level, eps, KIND_RESIDUAL_Q, payload)
        blocks[eps] = recon.reshape(ts)
    return interleave(C, blocks, fine_shape)


def _compress_partition_only(
    data: np.ndarray,
    abs_eb: float,
    config: STZConfig,
    writer: StreamWriter,
    threads: int | None,
) -> None:
    """Figure 5 "Partition" baseline: every sub-block through SZ3
    independently, no cross-level prediction."""
    strides = level_strides(config.levels)
    tasks: list[tuple[int, Offset, np.ndarray]] = []
    A = np.ascontiguousarray(
        data[tuple(slice(0, None, strides[0]) for _ in data.shape)]
    )
    tasks.append((1, (0,) * data.ndim, A))
    for level in range(2, config.levels + 1):
        stride = strides[level - 1]
        for eps in nonzero_offsets(data.ndim):
            B = np.ascontiguousarray(subblock_view_in(data, eps, stride))
            tasks.append((level, eps, B))

    def work(task):
        level, eps, block = task
        ebl = config.level_eb(abs_eb, level)
        if block.size == 0:
            return level, eps, b""
        return level, eps, sz3_compress(
            block,
            ebl,
            "abs",
            config.sz3_interp,
            config.quant_radius,
            config.zlib_level,
        )

    for level, eps, payload in pmap(work, tasks, threads):
        writer.add_segment(level, eps, KIND_SZ3_BLOCK, payload)


# ---------------------------------------------------------------------------
# decompression (full / progressive)
# ---------------------------------------------------------------------------

def stz_decompress(
    source: bytes | memoryview | "StreamReader",
    level: int | None = None,
    threads: int | None = None,
    timer: StageTimer | None = None,
) -> np.ndarray:
    """Reconstruct up to ``level`` (None = full resolution).

    ``level=1`` returns the coarsest lattice (1/64th of a 3D grid for 3
    levels) — the paper's progressive preview.  ``timer`` (optional)
    collects the per-stage breakdown of Table 4.
    """
    reader = source if isinstance(source, StreamReader) else StreamReader(source)
    header = reader.header
    config = header.config
    target = config.levels if level is None else level
    if not (1 <= target <= config.levels):
        raise ValueError(
            f"level must be in [1, {config.levels}], got {target}"
        )
    if config.partition_only:
        return _decompress_partition_only(reader, target, threads)
    boxes = [
        tuple((0, n) for n in lattice_shape(header.shape, stride))
        for stride in level_strides(config.levels)[:target]
    ]
    timer = timer if timer is not None else StageTimer()
    return _walk(reader, boxes, threads, timer)[0]


def _walk(
    reader: StreamReader,
    boxes: list[Box],
    threads: int | None,
    timer: StageTimer,
) -> tuple[np.ndarray, int, int]:
    """The one level walk under full, progressive and ROI decode.

    ``boxes[l - 1]`` is the window of the level-``l`` lattice to
    rebuild, for ``l = 1 .. len(boxes)``: the whole lattice at every
    level for a full decode, the dilated ROI windows for random access
    (each window covers the stencils of the next finer one).  Level 1
    is decoded whole and cropped; every finer level

    1. skips the sub-blocks the window misses,
    2. entropy-decodes the rest whole (intra-sub-block bit
       dependencies) in one batched :func:`huffman_decode_many` call,
    3. reconstructs the window's points of each through the fused
       :func:`predict_dequant_block` kernel, falling back to
       :func:`predict_block` + :func:`dequantize_many` (bit-identical),
       and scatters the outliers that fall inside the window,
    4. interleaves them with the aligned points of the coarse window.

    A full decode is this walk over whole windows, so ROI equals a
    cropped full decode by construction.  Returns the target window
    and the (decoded, skipped) sub-block counts.
    """
    header = reader.header
    config = header.config
    quantized = config.residual_codec == "quantize"
    shapes = [
        lattice_shape(header.shape, s) for s in level_strides(config.levels)
    ]
    offsets = nonzero_offsets(header.ndim)
    zero = (0,) * header.ndim
    decoded = skipped = 0

    with timer.time("l1_sz3"):
        C = sz3_decompress(reader.read_segment(header.segments_at(1)[0]))
    C = np.ascontiguousarray(C[_slices(boxes[0])])
    for lvl in range(2, len(boxes) + 1):
        cbox, fbox = boxes[lvl - 2], boxes[lvl - 1]
        origin = tuple(lo for lo, _ in cbox)
        parity = tuple(lo & 1 for lo, _ in fbox)
        ebl = config.level_eb(header.abs_eb, lvl)
        segs = {s.eps: s for s in header.segments_at(lvl)}
        # sub-block eps holds the fine points f = 2k + eps: its window
        # is the k with f in fbox
        windows = {
            eps: tuple(
                ((lo - e + 1) // 2, (hi - e + 1) // 2)
                for (lo, hi), e in zip(fbox, eps)
            )
            for eps in offsets
        }
        needed = [
            eps for eps in offsets
            if all(lo < hi for lo, hi in windows[eps])
        ]
        for eps in needed:
            # the encoder writes an empty segment only for a sub-block
            # without points; any other is damage, not zero residuals
            if not segs[eps].length:
                raise ValueError(
                    f"level {lvl} sub-block {eps}: empty segment for "
                    f"{math.prod(subblock_shape(shapes[lvl - 1], eps))} "
                    "points"
                )
        decoded += len(needed)
        skipped += len(offsets) - len(needed)

        with timer.time(f"l{lvl}_decode"):
            payloads = _decode_subblocks(
                reader,
                [segs[eps] for eps in needed],
                [math.prod(subblock_shape(shapes[lvl - 1], e))
                 for e in needed],
                header.dtype, quantized, threads,
            )

        def reconstruct(item):
            eps, payload = item
            ts = subblock_shape(shapes[lvl - 1], eps)
            box = windows[eps]
            window = dict(box=box, origin=origin, full_shape=shapes[lvl - 2])
            args = (C, eps, ts, config.interp, config.cubic_mode)
            if not quantized:
                return predict_block(*args, **window) + payload[_slices(box)]
            codes, pos, val = payload
            pos, val = _outliers_in(pos, val, ts, box)
            rec = predict_dequant_block(
                *args, codes, ebl, config.quant_radius, f32_mode, **window
            )
            if rec is None:
                pred = predict_block(*args, **window)
                codes = np.ascontiguousarray(codes.reshape(ts)[_slices(box)])
                (flat,) = dequantize_many(
                    [codes.ravel()], [pred], ebl, [pos], [val],
                    config.quant_radius, config.f32_quant,
                )
                return flat.reshape(pred.shape)
            if pos.size:
                rec.reshape(-1)[pos] = val
            return rec

        with timer.time(f"l{lvl}_predict"):
            f32_mode = config.f32_quant and _f32_mode(
                header.dtype, header.dtype, ebl, config.quant_radius
            )
            recs = pmap(reconstruct, list(zip(needed, payloads)), threads)
            # the level's codes are dead: free them before the
            # reassembly allocates the finer lattice
            del payloads
        with timer.time(f"l{lvl}_reassemble"):
            # every part goes to its parity within the window — flipped
            # on axes where the window starts at an odd index; the
            # aligned points come straight from the coarse window, and
            # a skipped sub-block has no points inside it
            wshape = tuple(hi - lo for lo, hi in fbox)

            def flip(eps):
                return tuple(e ^ p for e, p in zip(eps, parity))

            local = {flip(eps): rec for eps, rec in zip(needed, recs)}
            local[flip(zero)] = C[
                tuple(
                    slice((lo + 1) // 2 - o, (hi + 1) // 2 - o)
                    for (lo, hi), o in zip(fbox, origin)
                )
            ]
            for eps in set(offsets) - set(needed):
                shape = subblock_shape(wshape, flip(eps))
                local[flip(eps)] = np.empty(shape, dtype=header.dtype)
            C = interleave(local.pop(zero), local, wshape)
    return C, decoded, skipped


def _decode_subblocks(
    reader: StreamReader,
    segs: list[SegmentInfo],
    counts: list[int],
    dtype: np.dtype,
    quantized: bool,
    threads: int | None,
) -> list:
    """Entropy-decode whole sub-block segments (no prediction): each
    becomes ``(codes, out_pos, out_val)`` for the quantize codec, or
    the residual array for the sz3-residual ablation.

    Quantized sub-blocks are batched into one :func:`huffman_decode_many`
    call, each stream checked against its sub-block's point count
    (``counts``) before its output is allocated.  ``threads`` fan the
    compiled per-segment decoders across a pool (they release the
    GIL); the NumPy reference walks every stream in one lockstep loop.
    """
    if not quantized:
        return pmap(
            lambda seg: sz3_decompress(reader.read_segment(seg)),
            segs,
            threads,
        )
    parts = [
        _split_residual_payload(reader.read_segment(seg), dtype)
        for seg in segs
    ]
    codes = huffman_decode_many(
        [huff for huff, _, _ in parts], threads=threads, counts=counts
    ) if parts else []
    return [(q, pos, val) for q, (_, pos, val) in zip(codes, parts)]


def _slices(box: Box) -> tuple[slice, ...]:
    return tuple(slice(lo, hi) for lo, hi in box)


def _outliers_in(
    pos: np.ndarray, val: np.ndarray, ts: tuple[int, ...], box: Box
) -> tuple[np.ndarray, np.ndarray]:
    """The outliers of a ``ts``-shaped sub-block that fall inside
    ``box``, with positions flattened in the box's own shape."""
    shape = tuple(hi - lo for lo, hi in box)
    if shape == tuple(ts) or not pos.size:
        return pos, val
    idx = np.unravel_index(pos, ts)
    inside = np.logical_and.reduce(
        [(i >= lo) & (i < hi) for i, (lo, hi) in zip(idx, box)]
    )
    local = tuple(i[inside] - lo for i, (lo, _) in zip(idx, box))
    return np.ravel_multi_index(local, shape), val[inside]


def _decompress_partition_only(
    reader: StreamReader, target: int, threads: int | None
) -> np.ndarray:
    header = reader.header
    strides = level_strides(header.config.levels)
    seg1 = header.segments_at(1)[0]
    C = sz3_decompress(reader.read_segment(seg1))
    for lvl in range(2, target + 1):
        fine_shape = lattice_shape(header.shape, strides[lvl - 1])
        segs = header.segments_at(lvl)

        def work(seg, _fs=fine_shape):
            ts = subblock_shape(_fs, seg.eps)
            if seg.length == 0:
                return seg.eps, np.empty(ts, dtype=header.dtype)
            return seg.eps, sz3_decompress(reader.read_segment(seg))

        blocks = dict(pmap(work, segs, threads))
        C = interleave(C, blocks, fine_shape)
    return C


def level_output_shape(
    shape: tuple[int, ...], levels: int, level: int
) -> tuple[int, ...]:
    """Shape returned by :func:`stz_decompress` at ``level``."""
    return lattice_shape(shape, level_strides(levels)[level - 1])

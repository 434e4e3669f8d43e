"""MGARD-like codec: multilevel surplus decomposition + correction.

Decomposition (fine -> coarse, per level):

1. split the lattice into its stride-2 decimation and the ``2**d - 1``
   parity detail blocks;
2. detail coefficients = actual values - multilinear prediction from the
   decimated lattice (the hierarchical surplus of the piecewise-linear
   basis);
3. quantize the detail coefficients *now*, and compute the correction
   from the **dequantized** coefficients: ``coarse' = decimated +
   corr(d_hat)``.  Because the decompressor decodes the same ``d_hat``,
   the correction cancels exactly during recomposition, so it improves
   the stored coarse representation (MGARD's L2 projection role) without
   costing error-bound slack;
4. recurse on the corrected coarse lattice; the tiny root is stored raw.

The level error budget is geometric (``eb/2`` at the finest detail
level, ``eb/4`` next, ...), which keeps the telescoped L-infinity error
strictly within ``eb``.

The correction operator is the adjoint of multilinear interpolation
followed by a damped tensor mass-matrix solve (tridiagonal [1/6, 2/3,
1/6] per axis) — the multigrid smoother that gives MGARD both its
quality character and its computational cost.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from scipy.linalg import solve_banded

from repro.core.partition import (
    interleave,
    lattice_shape,
    nonzero_offsets,
    subblock_shape,
    take_subblock,
)
from repro.core.predict import predict_block
from repro.encoding.huffman import huffman_decode, huffman_encode
from repro.encoding.lossless import compress_bytes, decompress_bytes
from repro.encoding.quantizer import DEFAULT_RADIUS, dequantize, quantize
from repro.util.sections import pack_sections, unpack_sections
from repro.util.validation import (
    as_float_array,
    dtype_code,
    dtype_from_code,
    resolve_eb,
)

_MAGIC = b"MGDr"
_VERSION = 1
_HEADER = struct.Struct("<4sBBBBBdI")
# magic, version, dtype, ndim, levels, correction, eb, radius
_CORR_DAMP = 0.5  # damping of the projection correction


def default_levels(shape: tuple[int, ...]) -> int:
    """Decompose while every axis stays >= 4 points (max 6 levels)."""
    levels = 0
    dims = list(shape)
    while min(dims) >= 4 and levels < 6:
        dims = [-(-n // 2) for n in dims]
        levels += 1
    return max(1, levels)


def _mass_solve(arr: np.ndarray) -> np.ndarray:
    """Solve the tensor mass system M x = arr, axis by axis.

    M per axis is the 1D hat-function mass matrix tridiag(1/6, 2/3, 1/6)
    with lumped boundary rows (diag 5/6) so every row sums to 1 —
    constants are fixed points and the correction cannot blow up at
    domain edges.  Symmetric and diagonally dominant, so the solve is
    stable; this is the expensive multigrid ingredient MGARD-X pays for
    on every level.
    """
    out = arr.astype(np.float64, copy=True)
    for axis in range(arr.ndim):
        n = arr.shape[axis]
        if n < 2:
            continue
        ab = np.zeros((3, n))
        ab[0, 1:] = 1.0 / 6.0
        ab[1, :] = 2.0 / 3.0
        ab[1, 0] = ab[1, -1] = 5.0 / 6.0
        ab[2, :-1] = 1.0 / 6.0
        moved = np.moveaxis(out, axis, 0).reshape(n, -1)
        solved = solve_banded((1, 1), ab, moved)
        out = np.moveaxis(
            solved.reshape(np.moveaxis(out, axis, 0).shape), 0, axis
        )
    return out


def _interp_adjoint(
    details: dict[tuple[int, ...], np.ndarray], cshape: tuple[int, ...]
) -> np.ndarray:
    """Scatter detail residuals onto coarse nodes with the transposed
    multilinear weights (each detail point feeds its 2**j corner
    neighbors with weight 0.5**j)."""
    contrib = np.zeros(cshape, dtype=np.float64)
    for eps, d in details.items():
        if d.size == 0:
            continue
        odd = [a for a, e in enumerate(eps) if e]
        j = len(odd)
        w = 0.5**j
        import itertools

        for delta in itertools.product((0, 1), repeat=j):
            dst, src = [], []
            valid = True
            for a in range(len(cshape)):
                ts_a = d.shape[a]
                if a in odd:
                    dd = delta[odd.index(a)]
                    hi = min(ts_a, cshape[a] - dd)
                    if hi <= 0:
                        valid = False
                        break
                    dst.append(slice(dd, dd + hi))
                    src.append(slice(0, hi))
                else:
                    dst.append(slice(0, ts_a))
                    src.append(slice(0, ts_a))
            if valid:
                contrib[tuple(dst)] += w * d[tuple(src)].astype(np.float64)
    return contrib


def _correction(
    details: dict[tuple[int, ...], np.ndarray], cshape: tuple[int, ...]
) -> np.ndarray:
    return _CORR_DAMP * _mass_solve(_interp_adjoint(details, cshape))


def _level_eb(eb: float, level: int, levels: int) -> float:
    """Geometric budget: finest detail level gets eb/2, next eb/4, ..."""
    return eb / 2.0 ** (levels - level + 1)


def mgard_compress(
    data: np.ndarray,
    eb: float,
    eb_mode: str = "abs",
    levels: int | None = None,
    correction: bool = True,
    radius: int = DEFAULT_RADIUS,
    zlib_level: int = 1,
) -> bytes:
    """Compress with strict absolute/relative L-infinity bound ``eb``."""
    return _mgard_compress_impl(
        data, eb, eb_mode, levels, correction, radius, zlib_level, False
    )[0]


def mgard_compress_with_recon(
    data: np.ndarray,
    eb: float,
    eb_mode: str = "abs",
    levels: int | None = None,
    correction: bool = True,
    radius: int = DEFAULT_RADIUS,
    zlib_level: int = 1,
) -> tuple[bytes, np.ndarray]:
    """:func:`mgard_compress` plus the decoder's exact reconstruction.

    The encoder already holds every dequantized detail block (it needs
    them for the projection correction) and the root lattice it stores
    raw, so the decoder's output is obtained by replaying the
    recomposition loop on those tracked values — the same arithmetic
    :func:`mgard_decompress` runs, minus all entropy decoding.
    """
    blob, recon = _mgard_compress_impl(
        data, eb, eb_mode, levels, correction, radius, zlib_level, True
    )
    return blob, recon


def _mgard_compress_impl(
    data: np.ndarray,
    eb: float,
    eb_mode: str,
    levels: int | None,
    correction: bool,
    radius: int,
    zlib_level: int,
    want_recon: bool,
) -> tuple[bytes, np.ndarray | None]:
    data = as_float_array(data)
    abs_eb = resolve_eb(data, eb, eb_mode)
    L = levels if levels is not None else default_levels(data.shape)
    if L < 1:
        raise ValueError("levels must be >= 1")
    offsets = nonzero_offsets(data.ndim)

    current = data.astype(np.float64)
    codes_parts: list[np.ndarray] = []
    out_counts: list[int] = []
    out_pos: list[np.ndarray] = []
    out_val: list[np.ndarray] = []
    #: level -> its dequantized detail blocks, kept for the encoder-side
    #: recomposition when the caller wants the reconstruction
    details_by_level: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
    # fine -> coarse; details of level l quantized at the level budget
    for level in range(L, 0, -1):
        coarse = take_subblock(current, (0,) * data.ndim)
        ebl = _level_eb(abs_eb, level, L)
        details_hat: dict[tuple[int, ...], np.ndarray] = {}
        for eps in offsets:
            ts = subblock_shape(current.shape, eps)
            vals = take_subblock(current, eps)
            if vals.size == 0:
                details_hat[eps] = np.zeros(ts)
                codes_parts.append(np.zeros(0, dtype=np.uint32))
                out_counts.append(0)
                out_pos.append(np.zeros(0, dtype=np.uint32))
                out_val.append(np.zeros(0, dtype=np.float64))
                continue
            pred = predict_block(coarse, eps, ts, "linear")
            qb = quantize(vals - pred, np.zeros_like(pred), ebl, radius)
            codes_parts.append(qb.codes)
            out_counts.append(qb.outlier_pos.size)
            out_pos.append(qb.outlier_pos.astype(np.uint32))
            out_val.append(qb.outlier_val)
            details_hat[eps] = qb.recon.reshape(ts)
        if correction:
            coarse = coarse + _correction(details_hat, coarse.shape)
        if want_recon:
            details_by_level[level] = details_hat
        current = coarse

    codes = np.concatenate(codes_parts) if codes_parts else np.zeros(0, np.uint32)
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        dtype_code(data.dtype),
        data.ndim,
        L,
        int(correction),
        abs_eb,
        radius,
    ) + struct.pack(f"<{data.ndim}Q", *data.shape)
    sections = [
        header,
        compress_bytes(huffman_encode(codes), zlib_level),
        compress_bytes(
            np.asarray(out_counts, dtype=np.uint32).tobytes()
            + (np.concatenate(out_pos).tobytes() if out_pos else b"")
            + (np.concatenate(out_val).tobytes() if out_val else b""),
            zlib_level,
        ),
        compress_bytes(current.tobytes(), max(zlib_level, 1)),  # root, f64
    ]
    blob = pack_sections(sections)
    if not want_recon:
        return blob, None
    # replay the decoder's coarse -> fine recomposition on the tracked
    # dequantized details and the stored root: bit-identical inputs
    # through identical operations, so the result *is* the decoder's
    # output (stz_decompress equivalence tests pin this per backend)
    lat_shapes = [tuple(data.shape)]
    for _ in range(L):
        lat_shapes.append(lattice_shape(lat_shapes[-1], 2))
    rec = current  # the raw-stored root round-trips exactly (f64 bytes)
    for lvl in range(1, L + 1):
        fine_shape = lat_shapes[L - lvl]
        details_hat = details_by_level[lvl]
        if correction:
            rec = rec - _correction(details_hat, rec.shape)
        blocks = {}
        for eps in offsets:
            ts = subblock_shape(fine_shape, eps)
            if not all(ts):
                blocks[eps] = np.zeros(ts)
                continue
            pred = predict_block(rec, eps, ts, "linear")
            blocks[eps] = pred + details_hat[eps]
        rec = interleave(rec, blocks, fine_shape)
    return blob, np.ascontiguousarray(rec.astype(data.dtype))


def mgard_decompress(
    blob: bytes | memoryview, level: int | None = None
) -> np.ndarray:
    """Recompose; ``level=k`` stops early and returns the coarse lattice
    of stride ``2**(levels-k)`` (progressive decompression)."""
    sections = unpack_sections(blob)
    header = bytes(sections[0])
    magic, version, dt, ndim, L, correction, abs_eb, radius = _HEADER.unpack(
        header[: _HEADER.size]
    )
    if magic != _MAGIC:
        raise ValueError("not an MGARD-like container")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    shape = struct.unpack(f"<{ndim}Q", header[_HEADER.size :])
    dtype = dtype_from_code(dt)
    if level is not None and not (1 <= level <= L + 1):
        raise ValueError(f"level must be in [1, {L + 1}] (1 = root lattice)")
    refinements = L if level is None else level - 1

    offsets = nonzero_offsets(ndim)
    # reproduce the exact batch structure of compression
    lat_shapes = [tuple(shape)]
    for _ in range(L):
        lat_shapes.append(lattice_shape(lat_shapes[-1], 2))
    batches = [
        (lvl, eps, subblock_shape(lat_shapes[L - lvl], eps))
        for lvl in range(L, 0, -1)
        for eps in offsets
    ]
    # the batch sizes fix the code count: a stream declaring another is
    # rejected before its output is allocated
    codes = huffman_decode(
        decompress_bytes(sections[1]),
        sum(math.prod(ts) for _, _, ts in batches),
    )
    out_blob = decompress_bytes(sections[2])
    nb = L * len(offsets)
    counts = np.frombuffer(out_blob[: 4 * nb], dtype=np.uint32)
    total_out = int(counts.sum())
    pos_all = np.frombuffer(
        out_blob[4 * nb : 4 * nb + 4 * total_out], dtype=np.uint32
    )
    val_all = np.frombuffer(out_blob[4 * nb + 4 * total_out :])

    # pre-split code/outlier runs in compression order (fine -> coarse)
    runs = []
    c_off = o_off = 0
    for i, (lvl, eps, ts) in enumerate(batches):
        size = math.prod(ts)
        n_out = int(counts[i])
        runs.append(
            (
                lvl,
                eps,
                ts,
                codes[c_off : c_off + size],
                pos_all[o_off : o_off + n_out].astype(np.int64),
                val_all[o_off : o_off + n_out],
            )
        )
        c_off += size
        o_off += n_out

    current = (
        np.frombuffer(decompress_bytes(sections[3]), dtype=np.float64)
        .reshape(lat_shapes[L])
        .copy()
    )
    # coarse -> fine
    for lvl in range(1, refinements + 1):
        fine_shape = lat_shapes[L - lvl]
        lvl_runs = [r for r in runs if r[0] == lvl]
        ebl = _level_eb(abs_eb, lvl, L)
        details_hat: dict[tuple[int, ...], np.ndarray] = {}
        for _, eps, ts, bcodes, pos, val in lvl_runs:
            if bcodes.size == 0:
                details_hat[eps] = np.zeros(ts)
                continue
            d = dequantize(
                bcodes, np.zeros(ts, dtype=np.float64), ebl, pos, val, radius
            )
            details_hat[eps] = d.reshape(ts)
        if correction:
            current = current - _correction(details_hat, current.shape)
        blocks = {}
        for eps in offsets:
            ts = subblock_shape(fine_shape, eps)
            if not all(ts):
                blocks[eps] = np.zeros(ts)
                continue
            pred = predict_block(current, eps, ts, "linear")
            blocks[eps] = pred + details_hat[eps]
        current = interleave(current, blocks, fine_shape)
    return np.ascontiguousarray(current.astype(dtype))


class MGARDCompressor:
    """Object API with Table 1 capability flags."""

    name = "MGARD-X"
    supports_progressive = True
    supports_random_access = False

    def __init__(self, eb: float, eb_mode: str = "abs"):
        self.eb = eb
        self.eb_mode = eb_mode

    def compress(self, data: np.ndarray) -> bytes:
        return mgard_compress(data, self.eb, self.eb_mode)

    def decompress(self, blob: bytes) -> np.ndarray:
        return mgard_decompress(blob)

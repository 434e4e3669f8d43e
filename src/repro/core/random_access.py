"""Random-access (ROI) decompression (paper §3.3, Table 4).

Reconstructs an arbitrary box (including 2D slices of 3D data) at full
resolution while touching as little work as possible.  There is no
separate ROI decoder: the box becomes one window per level — the
coarser level's window dilated by 2 coarse cells per side to cover the
cubic stencil (:func:`_coarsen_box`) — and the pipeline's one level
walk (``repro.core.pipeline._walk``) runs over those windows instead
of the whole lattices.  The savings follow from the walk:

* **prediction/reassembly savings** — levels 2+ have no intra-level
  dependencies, so only the points inside each window are predicted
  and reconstructed;
* **decoding savings** — sub-blocks are Huffman-encoded independently,
  so sub-blocks whose parity pattern cannot intersect the window are
  never entropy-decoded (for a 2D slice of 3D data that skips 4 of 7
  finest sub-blocks — the paper's "up to 57%" decode saving); a decoded
  sub-block is decoded in full (intra-sub-block bit dependencies),
  which is why box access saves little decode time, exactly as Table 4
  shows;
* **I/O savings** — the container's segment table lets skipped
  sub-blocks stay unread on disk.

A full decode is the same walk over whole windows, and the region plan
predicts a window bit-identically to the crop of a whole sub-block, so
the result equals the crop of a full decompression by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partition import Box, lattice_shape, level_strides
from repro.core.pipeline import _walk
from repro.core.stream import StreamReader
from repro.util.timer import StageTimer

# Compatibility names: perfbench's tracer (perfbench/layers.py) wraps
# these four on this module by attribute.  Nothing here calls them —
# the ROI walk's spans land on ``repro.core.pipeline``'s names — and
# they go when the tracer reads in-program spans (ROADMAP item 5).
from repro.core.predict import predict_block as predict_points  # noqa: F401
from repro.encoding.huffman import huffman_decode_many  # noqa: F401
from repro.encoding.quantizer import dequantize  # noqa: F401
from repro.sz3.compressor import sz3_decompress  # noqa: F401

#: stencil halo per side, in coarse cells (cubic needs k-1 .. k+2)
_DILATION = 2


@dataclass
class RandomAccessResult:
    """ROI reconstruction plus the §4.5 accounting."""

    data: np.ndarray
    box: Box
    timer: StageTimer
    segments_decoded: int
    segments_skipped: int
    bytes_read: int

    @property
    def total_time(self) -> float:
        return self.timer.total


def normalize_roi(
    shape: tuple[int, ...], roi: tuple[slice | int, ...]
) -> Box:
    """Normalize a user ROI (slices and/or ints) to per-axis (lo, hi)."""
    if len(roi) != len(shape):
        raise ValueError(f"ROI rank {len(roi)} != data rank {len(shape)}")
    box = []
    for n, r in zip(shape, roi):
        if isinstance(r, (int, np.integer)):
            lo, hi = int(r), int(r) + 1
        else:
            lo, hi, step = r.indices(n)
            if step != 1:
                raise ValueError("ROI slices must have step 1")
        if not (0 <= lo < hi <= n):
            raise ValueError(f"ROI ({lo},{hi}) out of bounds for axis of {n}")
        box.append((lo, hi))
    return tuple(box)


def _coarsen_box(box: Box, coarse_shape: tuple[int, ...]) -> Box:
    """The coarse-lattice window needed to predict a fine-lattice box.

    A fine point ``f`` uses coarse cells ``floor(f/2) - 2`` through
    ``floor(f/2) + 2`` (cubic stencil and reassembly included)."""
    out = []
    for (lo, hi), cn in zip(box, coarse_shape):
        clo = max(0, lo // 2 - _DILATION)
        chi = min(cn, (hi - 1) // 2 + _DILATION + 2)
        out.append((clo, chi))
    return tuple(out)


def stz_decompress_roi(
    source: bytes | memoryview | StreamReader,
    roi: tuple[slice | int, ...],
    threads: int | None = None,
) -> RandomAccessResult:
    """Decompress only the given region of interest at full resolution."""
    reader = source if isinstance(source, StreamReader) else StreamReader(source)
    header = reader.header
    config = header.config
    if config.partition_only:
        raise NotImplementedError(
            "random access is not implemented for the partition-only "
            "ablation variant"
        )
    if config.interp == "cubic" and config.cubic_mode == "tensor":
        raise NotImplementedError(
            "tensor cubic mode has no random-access path (use diagonal)"
        )
    if config.residual_codec != "quantize":
        raise NotImplementedError(
            "random access requires the quantize residual codec "
            "(the sz3-residual ablation variant couples whole sub-blocks)"
        )
    timer = StageTimer()
    bytes_before = reader.bytes_read
    boxes = [normalize_roi(header.shape, roi)]
    for stride in level_strides(config.levels)[-2::-1]:
        boxes.insert(
            0, _coarsen_box(boxes[0], lattice_shape(header.shape, stride))
        )
    data, decoded, skipped = _walk(reader, boxes, threads, timer)
    return RandomAccessResult(
        data=data,
        box=boxes[-1],
        timer=timer,
        segments_decoded=decoded,
        segments_skipped=skipped,
        bytes_read=reader.bytes_read - bytes_before,
    )

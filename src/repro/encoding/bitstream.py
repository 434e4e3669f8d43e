"""Vectorized variable-length bit packing.

The Huffman encoder needs to concatenate ``n`` codewords of varying bit
length into one bitstream.  A per-symbol Python loop would dominate the
whole compressor, so we scatter all bits with numpy:

* ``np.repeat(starts, lengths)`` expands per-symbol start offsets to one
  entry per emitted bit,
* ``arange(total) - repeat(starts)`` recovers the bit index *within* each
  codeword,
* a single shift/mask extracts the bit values, and ``np.packbits`` packs.

Bit order is MSB-first within a byte (``np.packbits`` convention).
"""

from __future__ import annotations

import sys

import numpy as np


def pack_bits(codes: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack variable-length codewords into a byte array.

    Parameters
    ----------
    codes:
        Unsigned integer codewords; only the low ``lengths[i]`` bits of
        ``codes[i]`` are emitted (MSB of the codeword first).
    lengths:
        Bit length of each codeword (0 is allowed and emits nothing).

    Returns
    -------
    (packed, nbits):
        ``packed`` is a uint8 array (padded with zero bits to a byte
        boundary) and ``nbits`` the exact number of meaningful bits.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have identical shapes")
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.uint8), 0

    ends = np.cumsum(lengths)
    starts = ends - lengths
    # one row per emitted bit
    sym = np.repeat(np.arange(codes.size, dtype=np.int64), lengths)
    bit_in_code = np.arange(total, dtype=np.int64) - starts[sym]
    shift = (lengths[sym] - 1 - bit_in_code).astype(np.uint64)
    bits = ((codes[sym] >> shift) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits), total


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """Fast path of :func:`pack_bits` for codewords of <= 16 bits.

    Codewords are packed back to back starting at bit 0.  Adjacent
    codeword pairs fuse into one <=32-bit unit, halving the number of
    scatter operations, which dominate this function.  Each unit is
    shifted into a 64-bit word aligned to its 32-bit lane (a <=32-bit
    unit at a <=31-bit in-lane offset spans at most two lanes).
    Because no two units share a bit, each lane's sum is really a
    bitwise OR of disjoint contributions and never exceeds
    ``2**32 - 1`` — well inside float64's ``2**53`` exact-integer range
    — so accumulating the two lane planes with ``np.bincount`` (one
    C-speed scatter per plane) is exact.  The accumulation dtype must
    hold ``2**32 - 1`` exactly; float32 (exact only to ``2**24``) would
    silently corrupt the stream.
    """
    codes = np.asarray(codes, dtype=np.uint32)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have identical shapes")
    if lengths.size and int(lengths.max()) > 16:
        raise ValueError("pack_codes requires code lengths <= 16")
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.zeros(0, dtype=np.uint8), 0
    nbytes = (total + 7) >> 3

    starts = (ends - lengths)[0::2]  # bit offset of every pair
    if codes.size % 2:  # zero-length dummy: contributes no bits
        codes = np.append(codes, np.uint32(0))
        lengths = np.append(lengths, 0)
    l0, l1 = lengths[0::2], lengths[1::2]
    pair_len = l0 + l1
    c0, c1 = codes[0::2], codes[1::2]
    pair_code = (c0.astype(np.uint64) << l1.astype(np.uint64)) | c1

    rem = starts & 31
    lane_idx = starts >> 5
    shift = (64 - pair_len - rem).astype(np.uint64)
    w = pair_code << shift
    nlanes = (nbytes + 3) >> 2
    out = np.bincount(
        lane_idx, weights=(w >> np.uint64(32)).astype(np.float64),
        minlength=nlanes + 1,
    )
    out += np.bincount(
        lane_idx + 1,
        weights=(w & np.uint64(0xFFFFFFFF)).astype(np.float64),
        minlength=nlanes + 1,
    )
    lanes = out[:nlanes].astype(np.uint32)
    if sys.byteorder == "little":
        lanes.byteswap(inplace=True)  # bitstream bytes are MSB-first
    return lanes.view(np.uint8)[:nbytes], total


def unpack_bits(packed: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits` down to the raw bit array."""
    packed = np.asarray(packed, dtype=np.uint8)
    bits = np.unpackbits(packed, count=nbits)
    return bits


def windows_at(
    packed: np.ndarray, positions: np.ndarray, width: int = 16
) -> np.ndarray:
    """Return the ``width``-bit big-endian window starting at each bit
    position.

    Used by the Huffman decoder: the window at a codeword boundary is
    looked up in a ``2**width`` table to resolve (symbol, length) in one
    gather.  ``packed`` must be padded with at least 3 spare bytes past
    the last meaningful bit (the encoder segment format guarantees this).
    """
    if width > 16:
        raise ValueError("window width above 16 bits is not supported")
    positions = np.asarray(positions, dtype=np.int64)
    byte = positions >> 3
    r = (positions & 7).astype(np.uint32)
    b = packed
    u = (
        (b[byte].astype(np.uint32) << np.uint32(16))
        | (b[byte + 1].astype(np.uint32) << np.uint32(8))
        | b[byte + 2].astype(np.uint32)
    )
    win = (u >> (np.uint32(8) - r)) & np.uint32(0xFFFF)
    if width < 16:
        win >>= np.uint32(16 - width)
    return win

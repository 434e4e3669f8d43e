"""Canonical Huffman codec, fully vectorized.

Huffman coding is the entropy stage of SZ3, MGARD and STZ (§2.1 of the
paper).  A textbook decoder walks the bitstream one symbol at a time,
which in pure Python is orders of magnitude too slow for the throughput
experiments (Table 3).  This implementation avoids per-symbol Python
loops on both sides:

Encoding
    Symbols are mapped to (codeword, length) with table gathers and
    packed with the vectorized scatter in
    :mod:`repro.encoding.bitstream` (or the compiled single-pass
    packer).  :func:`huffman_encode_many` encodes each sub-block stream
    of an STZ level on its own, optionally across a thread pool
    (DESIGN.md §2).

Decoding
    Code lengths are limited to 16 bits (Kraft fix-up), so a
    ``2**16``-entry table resolves the (symbol, length) of the codeword
    starting at any bit position with one gather.  To know *where*
    codewords start, the encoder stores the bit offset of every
    ``chunk``-th symbol (a few bytes per thousand symbols).  The decoder
    then advances all chunks in lockstep: iteration ``t`` decodes symbol
    ``t`` of every chunk simultaneously with batched gathers.  Total work
    is O(m) gathers for m symbols, and the chunks also parallelize across
    threads.  When the compiled kernels are available the same table
    walk runs as one GIL-releasing native call per segment
    (``jit.huffman_decode``), bit-identical by construction; the
    lockstep loop remains the ``STZ_JIT=0`` reference.

The segment produced by :func:`huffman_encode` is self-describing bytes;
:func:`huffman_decode` needs nothing else.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np

from repro.util import jit
from repro.util.cache import BoundedLRU

from repro.encoding.bitstream import pack_codes

MAX_CODE_LEN = 16
_MAGIC = 0xB7
_HEADER = struct.Struct("<BBIIQQII")
# magic, flags, chunk, alphabet, n_symbols, nbits, len(lens_z), len(sync_z)

_FLAG_CONST = 1


# ---------------------------------------------------------------------------
# code construction
# ---------------------------------------------------------------------------

def _code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Optimal prefix-code lengths (two-queue Huffman, O(n log n) in the
    sort).  Returns uint8 lengths, 0 for absent symbols."""
    freqs = np.asarray(freqs, dtype=np.int64)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    present = np.flatnonzero(freqs)
    n = present.size
    if n == 0:
        return lengths
    if n == 1:
        lengths[present[0]] = 1
        return lengths

    order = np.argsort(freqs[present], kind="stable")
    # compiled merge loop (repro.util.jit): identical tie-breaks and
    # depth walk, so the lengths — and every downstream segment byte —
    # match the Python two-queue below exactly
    depths = jit.huffman_tree(np.ascontiguousarray(freqs[present][order]))
    if depths is not None:
        lengths[present[order]] = depths
        return lengths
    leaf_freq = freqs[present][order].tolist()
    # merged-node queue; two-queue merge keeps both queues sorted so no heap
    # is needed.
    node_freq: list[int] = []
    parent = np.empty(2 * n - 1, dtype=np.int64)
    li = 0  # next leaf
    ni = 0  # next internal node
    created = 0
    for new_id in range(n, 2 * n - 1):
        picks = []
        for _ in range(2):
            take_leaf = li < n and (
                ni >= created or leaf_freq[li] <= node_freq[ni]
            )
            if take_leaf:
                picks.append((leaf_freq[li], li))
                li += 1
            else:
                picks.append((node_freq[ni], n + ni))
                ni += 1
        (f1, a), (f2, b) = picks
        parent[a] = new_id
        parent[b] = new_id
        node_freq.append(f1 + f2)
        created += 1

    root = 2 * n - 2
    depth = np.zeros(2 * n - 1, dtype=np.int64)
    for node in range(root - 1, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths[present[order]] = depth[:n].astype(np.uint8)
    return lengths


def _limit_lengths(
    lengths: np.ndarray, freqs: np.ndarray, maxlen: int = MAX_CODE_LEN
) -> np.ndarray:
    """Clamp code lengths to ``maxlen`` and restore the Kraft inequality
    by lengthening the rarest symbols (near-optimal, zlib-style)."""
    L = lengths.astype(np.int64).copy()
    present = np.flatnonzero(L)
    if present.size == 0:
        return L.astype(np.uint8)
    if present.size > (1 << maxlen):
        raise ValueError(
            f"{present.size} distinct symbols cannot fit {maxlen}-bit codes"
        )
    L[present] = np.minimum(L[present], maxlen)
    limited = jit.huffman_limit(L, present, freqs, maxlen)
    if limited is not None:
        return limited
    budget = 1 << maxlen
    kraft = int(np.sum(1 << (maxlen - L[present])))
    if kraft > budget:
        by_rarity = present[np.argsort(freqs[present], kind="stable")]
        idx = 0
        while kraft > budget:
            s = by_rarity[idx % by_rarity.size]
            idx += 1
            if L[s] < maxlen:
                kraft -= 1 << (maxlen - L[s] - 1)
                L[s] += 1
    # tighten: shorten the most frequent symbols while Kraft allows
    by_freq = present[np.argsort(-freqs[present], kind="stable")]
    for s in by_freq:
        while L[s] > 1 and kraft + (1 << (maxlen - L[s])) <= budget:
            kraft += 1 << (maxlen - L[s])
            L[s] -= 1
    return L.astype(np.uint8)


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codewords given code lengths (uint32, by symbol)."""
    codes = np.zeros(lengths.size, dtype=np.uint32)
    present = np.flatnonzero(lengths)
    if present.size == 0:
        return codes
    lens = lengths[present].astype(np.int64)
    bl_count = np.bincount(lens, minlength=MAX_CODE_LEN + 1)
    next_code = np.zeros(MAX_CODE_LEN + 1, dtype=np.int64)
    code = 0
    for l in range(1, MAX_CODE_LEN + 1):
        code = (code + bl_count[l - 1]) << 1
        next_code[l] = code
    order = np.lexsort((present, lens))
    o_sym = present[order]
    o_len = lens[order]
    # rank within each length group
    group_start = np.zeros(o_len.size, dtype=np.int64)
    new_group = np.flatnonzero(np.diff(o_len)) + 1
    group_start[new_group] = new_group
    np.maximum.accumulate(group_start, out=group_start)
    rank = np.arange(o_len.size) - group_start
    codes[o_sym] = (next_code[o_len] + rank).astype(np.uint32)
    return codes


#: digest-of-lengths -> ready decode table.  Building a table is ~1 ms
#: of repeats/concatenates and segment shapes repeat heavily (every
#: frame of a stream, every case of a conformance sweep re-uses a
#: handful of code tables), so the cache turns the rebuild into a hash
#: of the lengths bytes.  Tables are 256 KiB each; the LRU bound keeps
#: the cache under ~8 MiB.  Entries are handed out read-only — decoders
#: only gather from them.  Safe under concurrent decodes (the serve
#: layer's request threads): each cache op is lock-guarded, and the
#: unsynchronized get→build→put window is the benign pure-function
#: race documented in :mod:`repro.util.cache` — a double build of the
#: identical table, never a torn one.
_TABLE_CACHE: BoundedLRU[np.ndarray] = BoundedLRU(32)


def _decode_table(lengths: np.ndarray) -> np.ndarray:
    """Fused window-lookup table: for every 16-bit window, ``(symbol <<
    5) | code_length`` of the codeword that starts there (canonical
    codes tile the window space contiguously).  One gather resolves both
    the emitted symbol and the bit advance.  Cached by a digest of the
    lengths bytes (the table is a pure function of them)."""
    key = hashlib.blake2b(lengths.tobytes(), digest_size=16).digest()
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = _build_decode_table(lengths)
        table.setflags(write=False)
        _TABLE_CACHE.put(key, table)
    return table


def _build_decode_table(lengths: np.ndarray) -> np.ndarray:
    present = np.flatnonzero(lengths)
    lens = lengths[present].astype(np.int64)
    order = np.lexsort((present, lens))
    o_sym = present[order].astype(np.uint32)
    o_len = lens[order]
    counts = (1 << (MAX_CODE_LEN - o_len)).astype(np.int64)
    fused = np.repeat(
        (o_sym << np.uint32(5)) | o_len.astype(np.uint32), counts
    )
    fill = (1 << MAX_CODE_LEN) - fused.size
    if fill > 0:  # incomplete Kraft sum after limiting: unreachable windows
        fused = np.concatenate(
            [fused, np.full(fill, MAX_CODE_LEN, dtype=np.uint32)]
        )
    return fused


def _choose_chunk(m: int) -> int:
    """Chunk size balancing decoder loop count (= chunk) against sync
    index overhead (~ m/chunk entries).  Targets ~256 chunks per
    segment: wide enough to amortize numpy dispatch, small enough that
    the sync index stays ~1% of the payload."""
    if m <= 256:
        return max(1, m)
    c = 64
    while c * 256 < m and c < 4096:
        c <<= 1
    return c


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def _normalize_symbols(symbols: np.ndarray) -> np.ndarray:
    symbols = np.ascontiguousarray(symbols)
    if symbols.ndim != 1:
        symbols = symbols.ravel()
    if symbols.size and symbols.dtype.kind not in "ui":
        raise TypeError("huffman_encode expects unsigned integer symbols")
    return symbols.astype(np.uint32, copy=False)


def _pack_stream(
    symbols: np.ndarray,
    lengths: np.ndarray,
    codes: np.ndarray,
    chunk: int,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Pack one stream's payload: ``(packed, nbits, sync_starts)``.

    Prefers the compiled single-pass packer (repro.util.jit, DESIGN.md
    §10) which emits the payload bytes and the sync index in one walk;
    the vectorized gather/cumsum/scatter below is the byte-identical
    reference and the fallback."""
    compiled = jit.huffman_pack(
        symbols, (codes << np.uint32(5)) | lengths, chunk
    )
    if compiled is not None:
        return compiled
    sym_codes = codes[symbols]
    sym_lens = lengths[symbols].astype(np.int64)
    packed, nbits = pack_codes(sym_codes, sym_lens)
    starts = np.cumsum(sym_lens) - sym_lens
    return packed, nbits, starts[::chunk]


def huffman_encode(symbols: np.ndarray, chunk: int | None = None) -> bytes:
    """Encode a non-negative integer array into a self-describing segment."""
    symbols = _normalize_symbols(symbols)
    m = symbols.size
    if m == 0:
        return _HEADER.pack(_MAGIC, 0, 0, 0, 0, 0, 0, 0)
    freqs = np.bincount(symbols)
    present = np.flatnonzero(freqs)
    if present.size == 1:  # constant stream: header only
        return _HEADER.pack(
            _MAGIC, _FLAG_CONST, 0, freqs.size, m, int(present[0]), 0, 0
        )

    lengths = _limit_lengths(_code_lengths(freqs), freqs)
    codes = _canonical_codes(lengths)

    if chunk is None:
        chunk = _choose_chunk(m)
    packed, nbits, sync_starts = _pack_stream(symbols, lengths, codes, chunk)
    sync = sync_starts.astype(np.uint64)
    sync_delta = np.diff(sync, prepend=np.uint64(0)).astype(np.uint32)
    lens_z = zlib.compress(lengths.tobytes(), 6)
    sync_z = zlib.compress(sync_delta.tobytes(), 6)
    header = _HEADER.pack(
        _MAGIC, 0, chunk, freqs.size, m, nbits, len(lens_z), len(sync_z)
    )
    pad = b"\x00\x00\x00\x00"
    return b"".join([header, lens_z, sync_z, packed.tobytes(), pad])


def huffman_encode_many(
    arrays: list[np.ndarray],
    chunk: int | None = None,
    threads: int | None = None,
) -> list[bytes]:
    """:func:`huffman_encode` each symbol array.

    ``threads`` (optional) maps the streams across a thread pool — the
    compiled packer releases the GIL.
    """
    # lazy import: encoding stays import-independent of the executor layer
    from repro.core.parallel import pmap

    return pmap(lambda a: huffman_encode(a, chunk), arrays, threads)


def huffman_decode(
    blob: bytes | memoryview, count: int | None = None
) -> np.ndarray:
    """Decode a segment produced by :func:`huffman_encode` (uint32).
    ``count`` (optional) is the symbol count the caller expects, as
    for :func:`huffman_decode_many`'s ``counts``."""
    return huffman_decode_many([blob], counts=[count])[0]


def _parse_segment(blob: bytes | memoryview, expected: int | None = None):
    """Parse one segment's header and tables.  ``expected`` (optional)
    is the symbol count the caller already knows; a header that
    declares another count is rejected before anything of that size
    is allocated."""
    blob = memoryview(blob)
    (magic, flags, chunk, alphabet, m, nbits, n_lens, n_sync) = _HEADER.unpack(
        blob[: _HEADER.size]
    )
    if magic != _MAGIC:
        raise ValueError("not a huffman segment (bad magic)")
    if expected is not None and m != expected:
        raise ValueError(
            f"huffman segment declares {m} symbols, expected {expected}"
        )
    if m == 0:
        return ("empty", np.zeros(0, dtype=np.uint32))
    if flags & _FLAG_CONST:
        return ("const", np.full(m, np.uint32(nbits), dtype=np.uint32))
    off = _HEADER.size
    lengths = np.frombuffer(
        zlib.decompress(blob[off : off + n_lens]), dtype=np.uint8
    )
    off += n_lens
    sync_delta = np.frombuffer(
        zlib.decompress(blob[off : off + n_sync]), dtype=np.uint32
    )
    off += n_sync
    payload = blob[off:]
    sync = np.cumsum(sync_delta.astype(np.int64))
    return ("stream", (chunk, m, lengths, sync, payload))


def _decode_stream_compiled(spec) -> np.ndarray | None:
    """One stream through the compiled table-driven decoder, or None.

    The kernel decodes each chunk sequentially from its sync offset —
    the symbols are a pure function of the (table, payload, sync) walk,
    so the output is bit-identical to the reference lockstep loop (and
    already in symbol order: no transpose pass).  The ctypes call
    releases the GIL, which is what lets :func:`huffman_decode_many`'s
    thread fan-out (and the chunk-parallel decode executors above it)
    actually overlap entropy decoding."""
    chunk, m, lengths, sync, payload = spec
    return jit.huffman_decode(
        np.frombuffer(payload, dtype=np.uint8),
        _decode_table(lengths),
        sync,
        chunk,
        m,
    )


def _lockstep_walk(
    payloads: list[np.ndarray],
    table: np.ndarray,
    pos: np.ndarray,
    steps: int,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """The reference table walk: every chunk decodes ``steps`` codewords
    in lockstep, one batched gather per step.

    ``payloads`` are concatenated into one byte buffer; ``pos`` holds
    each chunk's starting bit offset into it (advanced in place), and
    ``base`` (optional) each chunk's offset into a fused multi-segment
    ``table``.  Returns the ``(steps, chunks)`` table entries
    ``symbol << 5 | length``; entries past a chunk's end are garbage
    for the caller to trim.
    """
    # generous tail padding lets the loop run past stream ends without
    # any per-step clamping
    pad = np.zeros(2 * steps + 8, dtype=np.uint8)
    big = np.concatenate(payloads + [pad])
    # 24-bit windows anchored at every byte: covers any in-byte offset
    u24 = (
        (big[:-2].astype(np.uint32) << np.uint32(16))
        | (big[1:-1].astype(np.uint32) << np.uint32(8))
        | big[2:].astype(np.uint32)
    )
    out = np.empty((steps, pos.size), dtype=np.uint32)
    mask = np.uint32(0xFFFF)
    shift_base = np.uint32(8)
    low5 = np.uint32(31)
    for t in range(steps):
        w = (u24[pos >> 3] >> (shift_base - (pos & 7).astype(np.uint32))) & mask
        e = table[w if base is None else base + w]
        out[t] = e
        pos += e & low5
    return out


def huffman_decode_many(
    blobs: list[bytes | memoryview],
    threads: int | None = None,
    counts: list[int] | None = None,
) -> list[np.ndarray]:
    """Decode several segments in one interleaved chunk-parallel loop.

    When the compiled decoder (``repro.util.jit``, DESIGN.md §10) is
    available, each stream decodes through one GIL-releasing native
    call instead; ``threads`` (optional) fans the per-stream calls
    across a thread pool — profitable exactly because the kernel drops
    the GIL.  The pure-NumPy path below is the byte-identical reference
    and the ``STZ_JIT=0`` fallback: it advances all chunks of *all*
    segments in lockstep, so the per-step numpy dispatch overhead is
    shared across every stream — this is what makes decompressing the
    many per-sub-block segments of an STZ level as cheap as one
    monolithic stream.  Per-segment code tables are fused into one
    array indexed by ``(segment_base | window)``.

    ``counts`` (optional) gives each segment's expected symbol count;
    a segment declaring another count raises ``ValueError`` before its
    output is allocated.
    """
    parsed = [
        _parse_segment(b, n)
        for b, n in zip(blobs, counts or [None] * len(blobs))
    ]
    streams = [
        (i, spec) for i, (kind, spec) in enumerate(parsed) if kind == "stream"
    ]
    results: list[np.ndarray | None] = [
        spec if kind != "stream" else None for kind, spec in parsed
    ]
    if not streams:
        return results  # type: ignore[return-value]

    if jit.has("huff_decode"):
        # lazy import: encoding stays import-independent of the
        # executor layer
        from repro.core.parallel import pmap

        decoded = pmap(
            _decode_stream_compiled, [spec for _i, spec in streams], threads
        )
        if all(d is not None for d in decoded):
            for (i, _spec), syms in zip(streams, decoded):
                results[i] = syms
            return results  # type: ignore[return-value]
        # a stream declined (corrupt sync geometry): the whole batch
        # falls back so damaged archives keep the reference behavior

    tables = []
    payload_parts: list[np.ndarray] = []
    pos_parts: list[np.ndarray] = []
    base_parts: list[np.ndarray] = []
    meta = []  # (result_idx, chunk, m, nchunks)
    steps = 0
    bit_off = 0
    for k, (i, (chunk, m, lengths, sync, payload)) in enumerate(streams):
        tables.append(_decode_table(lengths))
        buf = np.frombuffer(payload, dtype=np.uint8)
        payload_parts.append(buf)
        pos_parts.append(sync + bit_off)
        base_parts.append(
            np.full(sync.size, k << MAX_CODE_LEN, dtype=np.int64)
        )
        last = m - (sync.size - 1) * chunk
        steps = max(steps, chunk if sync.size > 1 else last)
        meta.append((i, chunk, m, sync.size))
        bit_off += buf.size * 8

    out = _lockstep_walk(
        payload_parts, np.concatenate(tables), np.concatenate(pos_parts),
        steps, np.concatenate(base_parts),
    )
    col = 0
    for i, chunk, m, nchunks in meta:
        seg = out[:, col : col + nchunks]
        col += nchunks
        if nchunks > 1:
            syms = np.ascontiguousarray(seg[:chunk].T).reshape(-1)[:m]
        else:
            syms = seg[:, 0][:m].copy()
        results[i] = syms >> np.uint32(5)
    return results  # type: ignore[return-value]


def huffman_decode_range(
    blob: bytes | memoryview, start: int, count: int
) -> np.ndarray:
    """Decode only symbols ``[start, start + count)`` of a segment.

    This is the paper's stated future-work item (§5: "enable
    random-access Huffman decoding to further reduce the overhead in
    random-access decompression").  The encoder already stores the bit
    offset of every chunk boundary, so decoding can begin at the first
    chunk covering ``start`` and stop after the chunk covering the last
    requested symbol — O(count + chunk) work instead of O(m).
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    kind, spec = _parse_segment(blob)
    if kind == "empty":
        if start != 0 or count != 0:
            raise IndexError("range outside segment")
        return np.zeros(0, dtype=np.uint32)
    if kind == "const":
        if start + count > spec.size:
            raise IndexError("range outside segment")
        return spec[start : start + count]
    chunk, m, lengths, sync, payload = spec
    if start + count > m:
        raise IndexError("range outside segment")
    if count == 0:
        return np.zeros(0, dtype=np.uint32)

    first_chunk = start // chunk
    last_chunk = (start + count - 1) // chunk
    nchunks = last_chunk - first_chunk + 1
    table = _decode_table(lengths)
    buf = np.frombuffer(payload, dtype=np.uint8)

    # symbols to decode in the last selected chunk
    last_total = min(m - last_chunk * chunk, chunk)
    steps = chunk if nchunks > 1 else (
        min(start + count - first_chunk * chunk, last_total)
    )
    lo = start - first_chunk * chunk

    # compiled chunk-bounded decode: same O(count + chunk) bound (the
    # kernel walks only the selected chunks' bits), same symbols by
    # construction; codeword-suffix window bits past the last chunk's
    # boundary cannot change a canonical-table lookup, so slicing the
    # payload is unnecessary here
    total = (nchunks - 1) * chunk + (last_total if nchunks > 1 else steps)
    syms = jit.huffman_decode(
        buf,
        table,
        np.ascontiguousarray(sync[first_chunk : last_chunk + 1]),
        chunk,
        total,
    )
    if syms is not None:
        return syms[lo : lo + count]
    # touch only the bytes covering the selected chunks, so a sliver
    # read stays O(count) instead of O(m): the window runs from the
    # first selected chunk's sync position to the next chunk boundary
    # (or payload end); codeword-suffix window bits past the boundary
    # are zero-filled, which canonical-table lookups ignore.
    first_bit = int(sync[first_chunk])
    end_bit = (
        int(sync[last_chunk + 1])
        if last_chunk + 1 < sync.size
        else buf.size * 8
    )
    byte0 = first_bit >> 3
    byte1 = min(buf.size, (end_bit + 7) >> 3)
    pos = sync[first_chunk : last_chunk + 1] - byte0 * 8
    out = _lockstep_walk([buf[byte0:byte1]], table, pos, steps)
    syms = np.ascontiguousarray(out.T).reshape(-1) >> np.uint32(5)
    return syms[lo : lo + count]


class HuffmanCodec:
    """Object wrapper exposing the code table for inspection/testing."""

    def __init__(self, freqs: np.ndarray):
        freqs = np.asarray(freqs, dtype=np.int64)
        self.lengths = _limit_lengths(_code_lengths(freqs), freqs)
        self.codes = _canonical_codes(self.lengths)

    def expected_bits(self, freqs: np.ndarray) -> int:
        """Total payload bits this table spends on the given histogram."""
        freqs = np.asarray(freqs, dtype=np.int64)
        return int(np.sum(freqs * self.lengths[: freqs.size]))

    @staticmethod
    def encode(symbols: np.ndarray) -> bytes:
        return huffman_encode(symbols)

    @staticmethod
    def decode(blob: bytes) -> np.ndarray:
        return huffman_decode(blob)

"""STZ streaming container format.

The container is built for *partial reads*: a fixed-size segment table
up front records (level, parity offset, kind, offset, length) for every
compressed segment, so progressive decompression reads a prefix of the
segments and random-access decompression seeks directly to the
sub-blocks it needs — from bytes or from a file on disk without loading
the payload.

Assembly and parsing are zero-copy where the buffer model allows
(DESIGN.md §2): the writer appends payloads into one growing
``bytearray`` and emits the segment table from a packed structured
dtype in one shot; the reader parses the table with a single
``np.frombuffer``, hands out ``memoryview`` segments for in-memory
sources, and serves ``segments_at`` from a prebuilt per-level index.

Layout (little-endian)::

    magic 'STZ1' | u8 version | u8 dtype | u8 ndim | u8 levels
    u8 interp | u8 cubic_mode | u8 residual_codec | u8 flags
    f64 abs_eb | f64 eb_ratio | u32 quant_radius | u32 nseg
    u64 shape[ndim]
    nseg x { u8 level, u8 eps_mask, u8 kind, u8 _pad, u64 offset, u64 length }
    payload bytes (segments back to back)

``eps_mask`` packs the parity offset bitwise (bit a = offset along axis
a); segment kinds are in :data:`KIND_NAMES`.

Container v2 (multi-frame) wraps a *sequence* of the containers above —
one complete, independently decodable STZ1 blob per time step — for the
streaming subsystem (:mod:`repro.core.streaming`).  Layout::

    magic 'STZM' | u8 version | u8 flags | u16 reserved
    frame payloads back to back (each a full STZ1 container)
    frame table: nframes x { u64 offset, u64 length, u8 flags,
                             u8 codec, u32 crc, 2 pad }
    trailer: u64 table_offset | u32 nframes | magic 'STZE'

The frame table lives at the *end*, located through the fixed-size
trailer, so a :class:`MultiFrameWriter` only ever appends — frames
stream to disk as they are produced, with O(1 frame) writer memory.
Per-frame flags reuse the PR-1 flag-bit mechanism: bit 0
(:data:`FRAME_DELTA`) marks a temporal-delta frame whose payload
encodes ``step - recon(previous step)``, and unknown bits are rejected
at open for the same reason unknown STZ1 header flags are — a flag bit
may change decode semantics, and ignoring one would produce
plausible-looking garbage outside the hard error bound.  Single-frame
STZ1 archives are untouched by all of this (the golden-container tests
pin their bytes), and :class:`StreamReader` keeps decoding them.

Codec selection (:mod:`repro.core.select`) adds one byte in two places,
both with the same unknown-value-rejection policy:

* **v2 frame table** — each row carries a *codec id*
  (:data:`CODEC_NAMES`) naming the backend that encoded the frame's
  payload, so ``auto`` streams can route every step to the winning
  codec.  The byte occupies what was a zero pad byte, so all-STZ
  archives written before the field existed (and after: id 0 = STZ)
  are byte-identical.  Archives that *use* a non-STZ codec must set the
  container-level :data:`MULTI_CODEC` flag bit — the version gate that
  makes pre-codec-id readers reject them cleanly at open instead of
  misparsing a foreign payload.  Unknown codec ids are rejected at
  open.
* **selected-codec envelope** (magic ``'STZC'``) — a 8-byte wrapper for
  single-array archives whose codec was chosen per container (``stz
  compress --codec auto``/fixed non-STZ backends): magic, version,
  codec id, flags, then the chosen codec's own container verbatim.
  Unknown codec ids and unknown flag bits are rejected.

Container v3 (magic ``'STZS'``) is the *sharded* archive of the chunked
execution engine (:mod:`repro.core.chunked`): one array decomposed by a
:class:`~repro.core.partition.ChunkPlan` into independently decodable
chunk blobs — each a complete STZ1 container or 'STZC' envelope, i.e.
exactly what the single-array writers produce for that chunk.  Layout::

    magic 'STZS' | u8 version | u8 flags | u8 dtype | u8 ndim
    u64 shape[ndim] | u64 chunk_shape[ndim]
    chunk payloads back to back, in plan (C) order
    chunk table: nchunks x the v2 frame-table row
    trailer: u64 table_offset | u32 nchunks | magic 'STZE'

The chunk grid is *derived* from ``(shape, chunk_shape)`` — both sides
rebuild the identical :class:`~repro.core.partition.ChunkPlan`, so the
table stores only per-chunk byte extents plus the codec id that encoded
the chunk's payload (0 = a plain STZ1 blob; anything else means the
payload is an 'STZC' envelope whose inner codec matches the byte — the
table is how ``stz info`` and the parallel decoder route without
parsing payloads).  Everything after the head is v2's table, digest
and trailer, written and parsed by the same core
(:class:`_TableWriter`, :class:`_TableReader`): the writer only ever
appends, so out-of-core compression streams chunk blobs straight to any
append-only sink with O(1 chunk) writer memory, and the reader's
chunk-granular random access reads exactly the chunks a query touches.
Unknown container flags, unknown per-chunk flags and unknown codec ids
are all rejected at open — same policy, same reason, as every flag
field above; v1/v2 readers reject v3 archives cleanly by magic (and
pre-v3 builds never parse past it).

**Integrity and crash recovery** (DESIGN.md §9) ride on the same
flag-bit evolution pattern, in three independent, writer-opt-in layers:

* **Per-unit checksums** — ``checksum=True`` writers record a CRC32 of
  every frame/chunk payload in 4 of the 6 spare pad bytes of the v2
  frame table / v3 chunk table row (old rows parse as crc 0), mark the
  row with :data:`FRAME_CHECKSUM` / :data:`CHUNK_CHECKSUM`, and append
  a *whole-archive digest* (CRC32 of every byte up to the digest
  block) between table and trailer, gated by the container-level
  :data:`MULTI_CHECKSUM` / :data:`SHARD_CHECKSUM` bit.  Archives
  without the bits verify as "unchecked"; archives *with* them are
  rejected cleanly by pre-checksum readers (unknown-flag policy).
  Single-array containers get the same property from a trailing CRC32
  gated by an STZ1 header flag bit / 'STZC' envelope flag bit
  (:func:`add_archive_checksum`).
* **Recoverable appends** — ``recoverable=True`` (implies checksums)
  prefixes every frame/chunk payload with a 20-byte ``'STZR'`` record
  (magic, payload length, payload CRC32, frame flags, codec id) so an
  archive whose table/trailer was lost to a crash mid-stream is
  reconstructible by forward scan: each record revalidates its payload
  by checksum, and :func:`repro.core.integrity.repair_archive` rebuilds
  the table from the longest valid record prefix.  Gated by
  :data:`MULTI_RECOVER` / :data:`SHARD_RECOVER`.
* **Decode-time verification** — readers expose the stored CRCs
  (:class:`FrameInfo.crc` / :class:`ChunkEntry.crc`); the decode layers
  (:mod:`repro.core.chunked`, :mod:`repro.core.streaming`) verify each
  payload before parsing it and surface mismatches as structured
  corruption errors with ``on_error`` degradation.  The whole-archive
  digest is only checked by :func:`repro.core.integrity.verify_archive`
  (checking it on open would read the entire file and defeat random
  access).
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.core.config import STZConfig
from repro.core.partition import ChunkPlan, Offset
from repro.util.validation import dtype_code, dtype_from_code

MAGIC = b"STZ1"
VERSION = 1

MULTI_MAGIC = b"STZM"
MULTI_END_MAGIC = b"STZE"
MULTI_VERSION = 1

SHARD_MAGIC = b"STZS"
SHARD_VERSION = 1
_SHARD_FIXED = struct.Struct("<4sBBBB")
# magic, version, flags, dtype, ndim
#: container-level v3 flag: the chunk table carries per-chunk payload
#: CRC32s and a whole-archive digest precedes the trailer
SHARD_CHECKSUM = 1
#: container-level v3 flag: every chunk payload is prefixed by a 20-byte
#: 'STZR' record so a lost table/trailer is rebuildable by forward scan
SHARD_RECOVER = 2
#: sharded-container flag bits this reader understands (unknown bits
#: are rejected like every other flag field here)
_KNOWN_SHARD_FLAGS = SHARD_CHECKSUM | SHARD_RECOVER
#: per-chunk flag: the table row's crc field holds the payload's CRC32
CHUNK_CHECKSUM = 1
#: per-chunk flag bits this reader understands
_KNOWN_CHUNK_FLAGS = CHUNK_CHECKSUM

SELECT_MAGIC = b"STZC"
SELECT_VERSION = 1
_SELECT_HEADER = struct.Struct("<4sBBBB")
# magic, version, codec_id, flags, pad
#: envelope flag: the container ends with a CRC32 of every preceding
#: byte (set by :func:`add_archive_checksum`)
SELECT_CHECKSUM = 1
#: envelope flag bits this reader understands (unknown bits are
#: rejected like every other flag field in this module)
_KNOWN_SELECT_FLAGS = SELECT_CHECKSUM

#: frame payload is the STZ1 compression of ``step - prev_recon``; the
#: decoder must add the previous frame's reconstruction back
FRAME_DELTA = 1
#: frame payload is a sharded (container v3, 'STZS') archive instead of
#: a single-codec blob — the chunked streaming mode.  Riding on the
#: unknown-bit rejection below, the bit doubles as the version gate:
#: pre-sharding readers reject such archives at open instead of handing
#: a v3 container to a codec parser.
FRAME_SHARDED = 2
#: the frame-table row's crc field holds the payload's CRC32; decoders
#: verify before parsing (a mismatch is surfaced as corruption, never
#: decoded into plausible garbage)
FRAME_CHECKSUM = 4
#: frame flags this reader understands (unknown bits are rejected at
#: open, mirroring the STZ1 header-flag policy)
_KNOWN_FRAME_FLAGS = FRAME_DELTA | FRAME_SHARDED | FRAME_CHECKSUM
#: container-level v2 flag: some frame's payload may be encoded by a
#: non-STZ backend (see the per-frame codec id).  Writers set it for
#: codec-selected streams so pre-codec-id readers reject the archive at
#: open instead of handing a foreign payload to the STZ1 parser.
MULTI_CODEC = 1
#: container-level v2 flag: frames carry CRC32s and a whole-archive
#: digest precedes the trailer (see the module docstring)
MULTI_CHECKSUM = 2
#: container-level v2 flag: every frame payload is prefixed by a
#: 20-byte 'STZR' record — the crash-recovery discipline
MULTI_RECOVER = 4
#: container-level v2 flags this reader understands (unknown bits are
#: rejected at open so a future semantic change fails loudly)
_KNOWN_MULTI_FLAGS = MULTI_CODEC | MULTI_CHECKSUM | MULTI_RECOVER

#: stable on-disk codec ids for codec-selected containers — the v2
#: frame-table codec byte and the 'STZC' envelope.  0 (STZ) doubles as
#: the pre-codec-id pad byte, which is what keeps old all-STZ v2
#: archives decoding byte-identically.  Ids are append-only: never
#: renumber, never reuse.
CODEC_STZ = 0
CODEC_SZ3 = 1
CODEC_ZFP = 2
CODEC_SPERR = 3
CODEC_SZX = 4
CODEC_MGARD = 5
CODEC_NAMES = {
    CODEC_STZ: "stz",
    CODEC_SZ3: "sz3",
    CODEC_ZFP: "zfp",
    CODEC_SPERR: "sperr",
    CODEC_SZX: "szx",
    CODEC_MGARD: "mgard",
}
CODEC_IDS = {name: cid for cid, name in CODEC_NAMES.items()}

KIND_L1_SZ3 = 0  # coarsest level, full SZ3 container
KIND_RESIDUAL_Q = 1  # quantized prediction residuals (+ Huffman)
KIND_SZ3_BLOCK = 2  # independent SZ3 sub-block ("partition" ablation)
KIND_RESIDUAL_SZ3 = 3  # residuals compressed by full SZ3 (ablation)
KIND_NAMES = {
    KIND_L1_SZ3: "l1-sz3",
    KIND_RESIDUAL_Q: "residual-quant",
    KIND_SZ3_BLOCK: "sz3-block",
    KIND_RESIDUAL_SZ3: "residual-sz3",
}

_INTERP_CODE = {"direct": 0, "linear": 1, "cubic": 2}
_INTERP_NAME = {v: k for k, v in _INTERP_CODE.items()}
_MODE_CODE = {"diagonal": 0, "tensor": 1}
_MODE_NAME = {v: k for k, v in _MODE_CODE.items()}
_RESID_CODE = {"quantize": 0, "sz3": 1}
_RESID_NAME = {v: k for k, v in _RESID_CODE.items()}

_FLAG_PARTITION_ONLY = 1
_FLAG_ADAPTIVE = 2
#: residual quantization ran in float32 arithmetic (where the bound
#: analysis allowed) — the decoder must reconstruct with the same
#: formula, so the bit travels with the container; its absence selects
#: the float64 formula every pre-flag encoder used
_FLAG_F32_QUANT = 4
#: the container ends with a CRC32 of every preceding byte (set by
#: :func:`add_archive_checksum`) — whole-archive integrity for
#: single-array STZ1 blobs
_FLAG_CHECKSUM = 8
#: flags this reader understands; unknown bits are *rejected*, because
#: a flag may change decode semantics (as _FLAG_F32_QUANT does) and
#: silently ignoring one would decode plausibly-looking garbage that
#: can violate the hard error bound
_KNOWN_FLAGS = (
    _FLAG_PARTITION_ONLY | _FLAG_ADAPTIVE | _FLAG_F32_QUANT | _FLAG_CHECKSUM
)

_FIXED = struct.Struct("<4sBBBBBBBBddII")
_SEG = struct.Struct("<BBBBQQ")
_MULTI_FIXED = struct.Struct("<4sBBH")
_MULTI_TRAILER = struct.Struct("<QI4s")
#: the v2 frame-table and v3 chunk-table row, ``<QQBBI2x``: offset,
#: length, flags, codec id, crc, 2 zero pad bytes — emitted and parsed
#: in one shot.  The codec byte sits where a zero pad byte used to: old
#: rows parse identically (codec 0 = STZ) and all-STZ tables stay
#: byte-exact.  The crc field reuses 4 more of the original pad bytes
#: the same way: pre-checksum rows parse as crc 0 with the checksum
#: flag unset.
_FRAME_DTYPE = np.dtype(
    {
        "names": ["offset", "length", "flags", "codec", "crc"],
        "formats": ["<u8", "<u8", "u1", "u1", "<u4"],
        "offsets": [0, 8, 16, 17, 18],
        "itemsize": 24,
    }
)

#: whole-archive digest block (v2/v3, gated by MULTI_CHECKSUM /
#: SHARD_CHECKSUM): CRC32 of every container byte before this block,
#: i.e. head + records + payloads + table.  Sits between the table and
#: the 16-byte trailer so the trailer geometry stays fixed-size.
_DIGEST = struct.Struct("<I4x")

#: recoverable-append record: prefixes each frame/chunk payload when
#: the writer runs with ``recoverable=True``.  Self-delimiting and
#: self-validating (payload length + payload CRC32 + the table fields),
#: which is exactly what a forward scan needs to rebuild a table lost
#: to a crash before :meth:`MultiFrameWriter.finalize`.
RECORD_MAGIC = b"STZR"
_RECORD = struct.Struct("<4sQIBB2x")
# magic, payload length, payload crc32, flags, codec id
#: numpy mirror of ``_SEG`` — lets the writer emit and the reader parse
#: the whole segment table with one vectorized call instead of a
#: per-segment ``struct`` loop
_SEG_DTYPE = np.dtype(
    [
        ("level", "u1"),
        ("mask", "u1"),
        ("kind", "u1"),
        ("pad", "u1"),
        ("offset", "<u8"),
        ("length", "<u8"),
    ]
)
assert _SEG_DTYPE.itemsize == _SEG.size


#: header byte holding the flag field, per magic — used by
#: :func:`add_archive_checksum` and the integrity scrubber
_FLAG_BYTE_OFFSET = {MAGIC: 11, SELECT_MAGIC: 6}


def add_archive_checksum(blob: bytes | memoryview) -> bytes:
    """Append a whole-container CRC32 to a single-array archive.

    Works on 'STZ1' containers and 'STZC' envelopes: sets the
    container's checksum flag bit and appends the CRC32 of every byte
    of the (flag-updated) archive.  Readers that predate the bit reject
    the result cleanly (unknown-flag policy); readers that know it
    verify the trailing CRC before decoding in-memory sources.
    Idempotent on already-checksummed archives.
    """
    buf = bytearray(blob)
    magic = _peek_magic(buf)
    if magic == MAGIC:
        off, bit = _FLAG_BYTE_OFFSET[MAGIC], _FLAG_CHECKSUM
    elif magic == SELECT_MAGIC:
        off, bit = _FLAG_BYTE_OFFSET[SELECT_MAGIC], SELECT_CHECKSUM
    else:
        raise ValueError(
            "whole-archive checksums apply to single-array containers "
            "(STZ1 / STZC); multi-frame and sharded archives carry "
            "per-unit checksums instead (checksum=True writers)"
        )
    if len(buf) <= off:
        raise ValueError("truncated STZ container")
    if buf[off] & bit:
        return bytes(buf)
    buf[off] |= bit
    buf += struct.pack("<I", zlib.crc32(buf))
    return bytes(buf)


def _verify_trailing_crc(buf: memoryview, what: str) -> None:
    """Check a container's trailing CRC32 (covers all preceding bytes,
    including the flag byte that gates it)."""
    if len(buf) < 4:
        raise ValueError(f"truncated {what} container")
    (stored,) = struct.unpack("<I", buf[-4:])
    computed = zlib.crc32(buf[:-4])
    if computed != stored:
        raise ValueError(
            f"{what} container checksum mismatch "
            f"(stored 0x{stored:08x}, computed 0x{computed:08x})"
        )


def eps_to_mask(eps: Offset) -> int:
    return sum(b << a for a, b in enumerate(eps))


def mask_to_eps(mask: int, ndim: int) -> Offset:
    return tuple((mask >> a) & 1 for a in range(ndim))


def _peek_magic(source: bytes | bytearray | memoryview | io.IOBase) -> bytes:
    """The first four bytes of ``source``; file sources are restored to
    their prior position, so sniffing is safe before handing the object
    to any reader."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        return bytes(memoryview(source)[:4])
    pos = source.tell()
    head = source.read(4)
    source.seek(pos)
    return head


#: what a reader handed another container's magic says instead of a
#: bare "not an X container" — the pointer at the right opener
_WRONG_MAGIC = {
    MAGIC: "single-frame STZ container; open it with StreamReader",
    MULTI_MAGIC: (
        "multi-frame STZ container; open it with "
        "MultiFrameReader / the streaming API"
    ),
    SELECT_MAGIC: (
        "codec-selected container; open it with repro.core.api.decompress"
    ),
    SHARD_MAGIC: (
        "sharded (chunked, container v3) archive; open it "
        "with ShardedReader / repro.core.api.decompress"
    ),
}


def read_extent(
    src: bytes | memoryview | io.IOBase, offset: int, length: int, what: str
) -> bytes | memoryview:
    """``length`` bytes at ``offset`` of an in-memory buffer (a
    zero-copy slice) or a seekable binary file; an extent past the end
    raises "truncated ``what`` container".  The one extent reader of
    every container reader and of the chunked decode workers."""
    if isinstance(src, (bytes, bytearray, memoryview)):
        if offset + length > len(src):
            raise ValueError(f"truncated {what} container")
        return memoryview(src)[offset : offset + length]
    src.seek(offset)
    data = src.read(length)
    if len(data) != length:
        raise ValueError(f"truncated {what} container")
    return data


class _Source:
    """Where a reader's bytes come from: an in-memory buffer, served as
    zero-copy ``memoryview`` slices, or a seekable binary file read on
    demand — so untouched units are never read."""

    def __init__(self, source: bytes | memoryview | io.IOBase, what: str):
        self._what = what  # names the container in truncation errors
        if isinstance(source, (bytes, bytearray, memoryview)):
            self._buf: memoryview | None = memoryview(source)
            self._file: io.IOBase | None = None
        else:
            self._buf = None
            self._file = source

    def _truncated(self) -> ValueError:
        return ValueError(f"truncated {self._what} container")

    def _size(self) -> int:
        if self._buf is not None:
            return len(self._buf)
        return self._file.seek(0, io.SEEK_END)

    def _read_at(self, offset: int, length: int) -> bytes | memoryview:
        src = self._buf if self._buf is not None else self._file
        return read_extent(src, offset, length, self._what)

    def worker_source(self) -> bytes | memoryview | str:
        """What a pool worker reads payloads from: the in-memory buffer
        (zero-copy via fork/thread sharing) or the archive's file path.
        File objects without a real path are drained into memory once."""
        if self._buf is not None:
            return self._buf
        name = getattr(self._file, "name", None)
        if isinstance(name, (str, Path)) and Path(name).is_file():
            return str(name)
        self._file.seek(0)
        return self._file.read()


@dataclass(frozen=True)
class SegmentInfo:
    """One entry of the segment table."""

    level: int
    eps: Offset
    kind: int
    offset: int  # relative to payload start
    length: int


@dataclass(frozen=True)
class StreamHeader:
    """Everything needed to interpret the payload."""

    shape: tuple[int, ...]
    dtype: np.dtype
    config: STZConfig
    abs_eb: float
    segments: tuple[SegmentInfo, ...]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @cached_property
    def _level_index(self) -> dict[int, list[SegmentInfo]]:
        idx: dict[int, list[SegmentInfo]] = {}
        for s in self.segments:
            idx.setdefault(s.level, []).append(s)
        return idx

    def segments_at(self, level: int) -> list[SegmentInfo]:
        """Segments of one level, via a lazily built per-level index
        (every decompression walks levels; a linear scan per call would
        be quadratic in the segment count)."""
        return list(self._level_index.get(level, ()))


class StreamWriter:
    """Accumulates segments, then serializes the container.

    Payloads are appended into one growing ``bytearray`` as they
    arrive — the writer accepts ``bytes`` or ``memoryview`` payloads
    (the batched encoder hands out views into its fused pack buffer),
    and final assembly is a single join of the header with the already
    contiguous body instead of re-joining every payload.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype,
        config: STZConfig,
        abs_eb: float,
    ):
        if len(shape) > 8:
            raise ValueError("eps_mask packing supports at most 8 dims")
        self.shape = tuple(int(n) for n in shape)
        self.dtype = np.dtype(dtype)
        self.config = config
        self.abs_eb = float(abs_eb)
        self._body = bytearray()
        self._levels: list[int] = []
        self._masks: list[int] = []
        self._kinds: list[int] = []
        self._lengths: list[int] = []

    def add_segment(
        self, level: int, eps: Offset, kind: int, payload: bytes | memoryview
    ) -> None:
        if kind not in KIND_NAMES:
            raise ValueError(f"unknown segment kind {kind}")
        self._levels.append(level)
        self._masks.append(eps_to_mask(eps))
        self._kinds.append(kind)
        self._lengths.append(len(payload))
        self._body += payload

    def tobytes(self) -> bytes:
        cfg = self.config
        flags = (
            (_FLAG_PARTITION_ONLY if cfg.partition_only else 0)
            | (_FLAG_ADAPTIVE if cfg.adaptive_eb else 0)
            | (_FLAG_F32_QUANT if cfg.f32_quant else 0)
        )
        fixed = _FIXED.pack(
            MAGIC,
            VERSION,
            dtype_code(self.dtype),
            len(self.shape),
            cfg.levels,
            _INTERP_CODE[cfg.interp],
            _MODE_CODE[cfg.cubic_mode],
            _RESID_CODE[cfg.residual_codec],
            flags,
            self.abs_eb,
            cfg.eb_ratio,
            cfg.quant_radius,
            len(self._levels),
        )
        shape_bytes = struct.pack(f"<{len(self.shape)}Q", *self.shape)
        table = np.empty(len(self._levels), dtype=_SEG_DTYPE)
        table["level"] = self._levels
        table["mask"] = self._masks
        table["kind"] = self._kinds
        table["pad"] = 0
        lengths = np.asarray(self._lengths, dtype=np.uint64)
        ends = np.cumsum(lengths, dtype=np.uint64)
        table["offset"] = ends - lengths
        table["length"] = lengths
        return b"".join([fixed, shape_bytes, table.tobytes(), self._body])


class StreamReader(_Source):
    """Parses the header/table and reads segments lazily.

    Accepts in-memory bytes or a binary file object; file mode seeks to
    each requested segment so untouched sub-blocks are never read — the
    I/O half of the paper's random-access story.
    """

    def __init__(self, source: bytes | memoryview | io.IOBase):
        super().__init__(source, "STZ")
        head = self._read_at(0, _FIXED.size)
        (
            magic,
            version,
            dt,
            ndim,
            levels,
            interp_c,
            mode_c,
            resid_c,
            flags,
            abs_eb,
            eb_ratio,
            radius,
            nseg,
        ) = _FIXED.unpack(head)
        if magic != MAGIC:
            raise ValueError(_WRONG_MAGIC.get(magic, "not an STZ container"))
        if version != VERSION:
            raise ValueError(f"unsupported STZ container version {version}")
        if flags & ~_KNOWN_FLAGS:
            raise ValueError(
                "container uses unknown feature flags "
                f"0x{flags & ~_KNOWN_FLAGS:02x}; upgrade the reader"
            )
        self.has_checksum = bool(flags & _FLAG_CHECKSUM)
        if self.has_checksum and self._buf is not None:
            # in-memory sources verify at open (pure compute, no extra
            # I/O); file sources stay lazy so random access never reads
            # the whole archive — `stz verify` covers them
            _verify_trailing_crc(self._buf, "STZ")
        shape = struct.unpack(
            f"<{ndim}Q", self._read_at(_FIXED.size, 8 * ndim)
        )
        table_off = _FIXED.size + 8 * ndim
        table = np.frombuffer(
            self._read_at(table_off, _SEG.size * nseg), dtype=_SEG_DTYPE
        )
        segs = [
            SegmentInfo(level, mask_to_eps(mask, ndim), kind, off, length)
            for level, mask, kind, _pad, off, length in table.tolist()
        ]
        self._payload_start = table_off + _SEG.size * nseg
        config = STZConfig(
            levels=levels,
            interp=_INTERP_NAME[interp_c],
            cubic_mode=_MODE_NAME[mode_c],
            residual_codec=_RESID_NAME[resid_c],
            adaptive_eb=bool(flags & _FLAG_ADAPTIVE),
            eb_ratio=eb_ratio,
            quant_radius=radius,
            partition_only=bool(flags & _FLAG_PARTITION_ONLY),
            f32_quant=bool(flags & _FLAG_F32_QUANT),
        )
        self.header = StreamHeader(
            shape=tuple(shape),
            dtype=dtype_from_code(dt),
            config=config,
            abs_eb=abs_eb,
            segments=tuple(segs),
        )
        self.bytes_read = 0  # payload bytes actually fetched

    def read_segment(self, seg: SegmentInfo) -> bytes | memoryview:
        """Fetch one segment's payload.

        In-memory sources return a ``memoryview`` into the container
        buffer (no copy); file sources return the ``bytes`` the read
        produced.  All downstream parsers (:mod:`repro.util.sections`,
        ``np.frombuffer``, ``struct``) accept either.
        """
        self.bytes_read += seg.length
        return self._read_at(self._payload_start + seg.offset, seg.length)


# ---------------------------------------------------------------------------
# the table core shared by container v2 (multi-frame) and v3 (sharded)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _TableFormat:
    """What a table container's head decides.  Everything after the
    head — payloads, 'STZR' records, the ``_FRAME_DTYPE`` table, the
    digest and the 'STZE' trailer — is the same in v2 and v3, written
    by :class:`_TableWriter` and parsed by :class:`_TableReader`."""

    magic: bytes
    version: int
    name: str  # the container, as error messages name it
    flags: int  # container flag bits this reader understands
    checksum_flag: int  # container bit: row CRCs + whole-archive digest
    recover_flag: int  # container bit: an 'STZR' record per payload
    unit: str  # what one table row describes: "frame" | "chunk"
    row: type  # the row class: FrameInfo | ChunkEntry
    unit_flags: int  # per-row flag bits this reader understands
    unit_checksum: int  # per-row bit: the row's crc field is valid

    def check_head(self, magic: bytes, version: int, flags: int) -> None:
        """Reject another container's magic, an unknown version and
        unknown container flag bits (they may change decode semantics)."""
        if magic != self.magic:
            raise ValueError(
                _WRONG_MAGIC.get(magic, f"not a {self.name} container")
            )
        if version != self.version:
            raise ValueError(
                f"unsupported {self.name} container version {version}"
            )
        if flags & ~self.flags:
            raise ValueError(
                "container uses unknown feature flags "
                f"0x{flags & ~self.flags:02x}; upgrade the reader"
            )


class _TableWriter:
    """Append-only writer core of the table containers.

    Unit payloads are written to ``sink`` as they arrive; only their
    24-byte table rows are retained, so writer memory is O(1 unit).
    The table, digest and trailer land at the end on :meth:`finalize`,
    so the sink is never seeked: any append-only byte sink works.  With
    no ``sink`` an in-memory buffer is used and :meth:`getvalue`
    returns the archive bytes.
    """

    _fmt: _TableFormat

    def __init__(
        self,
        sink: io.IOBase | None,
        flags: int,
        checksum: bool,
        recoverable: bool,
    ):
        fmt = self._fmt
        if flags & ~fmt.flags:
            raise ValueError(f"unknown container flags 0x{flags:02x}")
        # flag bits and keyword arguments are equivalent spellings: a
        # checksum bit without checksum behaviour would produce an
        # archive whose geometry contradicts its own flags
        self.recoverable = recoverable or bool(flags & fmt.recover_flag)
        self.checksum = (
            checksum or self.recoverable or bool(flags & fmt.checksum_flag)
        )
        if self.checksum:
            flags |= fmt.checksum_flag
        if self.recoverable:
            flags |= fmt.recover_flag
        self.flags = flags
        self._own = sink is None
        self._sink: io.IOBase = io.BytesIO() if sink is None else sink
        self._pos = 0
        self._digest = 0
        self._rows: list[tuple[int, int, int, int, int]] = []
        self._finalized = False

    def _write(self, data: bytes | memoryview) -> None:
        """Append ``data``, tracking position and the running digest."""
        self._sink.write(data)
        self._pos += len(data)
        if self.checksum:
            self._digest = zlib.crc32(data, self._digest)

    @property
    def in_memory(self) -> bool:
        """Whether the writer owns an in-memory sink (:meth:`getvalue`
        is only valid then)."""
        return self._own

    def _check_unit(self, codec_id: int) -> None:
        """What the head adds to admitting the next unit (a hook)."""

    def _append(self, payload: bytes | memoryview, flags: int, codec_id: int):
        """Append one unit; returns its table entry."""
        fmt = self._fmt
        if self._finalized:
            raise ValueError("archive already finalized")
        if flags & ~fmt.unit_flags:
            raise ValueError(f"unknown {fmt.unit} flags 0x{flags:02x}")
        if codec_id not in CODEC_NAMES:
            raise ValueError(f"unknown codec id {codec_id}")
        self._check_unit(codec_id)
        crc = 0
        if self.checksum:
            crc = zlib.crc32(payload)
            flags |= fmt.unit_checksum
        if self.recoverable:
            # the record carries everything the table row would — a
            # forward scan can rebuild the table byte-exactly from the
            # records alone (integrity.repair_archive)
            self._write(
                _RECORD.pack(RECORD_MAGIC, len(payload), crc, flags, codec_id)
            )
        row = (self._pos, len(payload), flags, codec_id, crc)
        self._rows.append(row)
        self._write(payload)
        return fmt.row(len(self._rows) - 1, *row)

    def finalize(self) -> None:
        """Write the table, the digest (checksummed writers) and the
        trailer (idempotent)."""
        if self._finalized:
            return
        table = np.zeros(len(self._rows), dtype=_FRAME_DTYPE)
        for name, column in zip(_FRAME_DTYPE.names, zip(*self._rows)):
            table[name] = column
        table_off = self._pos
        self._write(table.tobytes())
        if self.checksum:
            # digest of every byte written so far (head through table);
            # written raw — it cannot cover itself
            self._sink.write(_DIGEST.pack(self._digest))
        self._sink.write(
            _MULTI_TRAILER.pack(table_off, len(self._rows), MULTI_END_MAGIC)
        )
        self._finalized = True

    def getvalue(self) -> bytes:
        """The finished archive (in-memory sinks only)."""
        if not self._own:
            raise ValueError("writer streams to an external sink")
        self.finalize()
        return self._sink.getvalue()


class _TableReader(_Source):
    """Random-access reader core of the table containers.

    Opening parses the head (the container's own), the 16-byte trailer,
    the digest and the table; unit payloads are fetched on demand, so
    random access to unit ``k`` of a file archive reads exactly that
    unit's bytes.  Unknown container flags, per-unit flags and codec
    ids are rejected at open (they may change decode semantics — see
    the module docstring).
    """

    _fmt: _TableFormat

    def __init__(self, source: bytes | memoryview | io.IOBase):
        super().__init__(source, self._fmt.name)

    def _open_table(self, start: int) -> None:
        """Parse what follows a ``start``-byte head (``self.flags`` set)."""
        fmt = self._fmt
        total = self._size()
        if total < start + _MULTI_TRAILER.size:
            raise self._truncated()
        table_off, n, end_magic = _MULTI_TRAILER.unpack(
            self._read_at(total - _MULTI_TRAILER.size, _MULTI_TRAILER.size)
        )
        if end_magic != MULTI_END_MAGIC:
            raise self._truncated()
        self.has_digest = bool(self.flags & fmt.checksum_flag)
        #: where the whole-archive digest coverage ends (== digest block
        #: start when has_digest) — verify_archive checks CRC32 of
        #: bytes [0, digest_offset) against stored_digest
        self.digest_offset = table_off + _FRAME_DTYPE.itemsize * n
        extra = _DIGEST.size if self.has_digest else 0
        if self.digest_offset + extra + _MULTI_TRAILER.size != total:
            raise self._bad_geometry()
        self.stored_digest: int | None = None
        if self.has_digest:
            (self.stored_digest,) = _DIGEST.unpack(
                self._read_at(self.digest_offset, _DIGEST.size)
            )
        table = np.frombuffer(
            self._read_at(table_off, self.digest_offset - table_off),
            dtype=_FRAME_DTYPE,
        )
        columns = (table[name].tolist() for name in _FRAME_DTYPE.names)
        self._entries = tuple(
            fmt.row(i, *row) for i, row in enumerate(zip(*columns))
        )
        unit = fmt.unit
        for e in self._entries:
            if e.flags & ~fmt.unit_flags:
                raise ValueError(
                    f"{unit} {e.index} uses unknown {unit} flags "
                    f"0x{e.flags & ~fmt.unit_flags:02x}; upgrade the reader"
                )
            if e.codec_id not in CODEC_NAMES:
                raise ValueError(
                    f"{unit} {e.index} uses unknown codec id "
                    f"{e.codec_id}; upgrade the reader"
                )
        # every payload extent lies between the head and the table (so
        # the table starts after the head too), and no two overlap; a
        # recoverable archive also keeps room for the 'STZR' record in
        # front of each payload
        record = _RECORD.size if self.flags & fmt.recover_flag else 0
        end = start
        for e in sorted(self._entries, key=lambda e: (e.offset, e.length)):
            if e.offset < end + record:
                raise self._bad_geometry()
            end = e.offset + e.length
        if end > table_off:
            raise self._bad_geometry()
        self.bytes_read = 0  # unit payload bytes actually fetched

    def _bad_geometry(self) -> ValueError:
        return ValueError(f"corrupt {self._fmt.name} table geometry")

    def _entry(self, index: int):
        """The table entry of unit ``index``."""
        if not (0 <= index < len(self._entries)):
            raise IndexError(
                f"{self._fmt.unit} index {index} out of range "
                f"[0, {len(self._entries)})"
            )
        return self._entries[index]

    def _read_entry(self, index: int) -> bytes | memoryview:
        """The payload of unit ``index`` (zero-copy in memory)."""
        entry = self._entry(index)
        self.bytes_read += entry.length
        return self._read_at(entry.offset, entry.length)


# ---------------------------------------------------------------------------
# container v2: multi-frame archives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameInfo:
    """One entry of the v2 frame table."""

    index: int
    offset: int  # absolute, from container start
    length: int
    flags: int
    codec_id: int = CODEC_STZ
    crc: int = 0  # CRC32 of the payload, valid iff has_checksum

    @property
    def is_delta(self) -> bool:
        return bool(self.flags & FRAME_DELTA)

    @property
    def has_checksum(self) -> bool:
        """Whether ``crc`` holds the payload's CRC32 (pre-checksum rows
        parse with the flag unset and crc 0 — "unchecked")."""
        return bool(self.flags & FRAME_CHECKSUM)

    @property
    def is_sharded(self) -> bool:
        """Whether the payload is a sharded (container v3) archive."""
        return bool(self.flags & FRAME_SHARDED)

    @property
    def codec(self) -> str:
        """Name of the backend that encoded this frame's payload
        (``"sharded"`` for chunked frames, whose codec choice lives in
        the v3 chunk table)."""
        if self.is_sharded:
            return "sharded"
        return CODEC_NAMES[self.codec_id]


def is_multiframe(source: bytes | memoryview | io.IOBase) -> bool:
    """Whether ``source`` starts with the v2 multi-frame magic.

    File sources are restored to their prior position, so sniffing is
    safe before handing the object to either reader.
    """
    return _peek_magic(source) == MULTI_MAGIC


_MULTI = _TableFormat(
    MULTI_MAGIC,
    MULTI_VERSION,
    "multi-frame STZ",
    _KNOWN_MULTI_FLAGS,
    MULTI_CHECKSUM,
    MULTI_RECOVER,
    "frame",
    FrameInfo,
    _KNOWN_FRAME_FLAGS,
    FRAME_CHECKSUM,
)


def _multi_head(src: _Source) -> tuple[int, int]:
    """Parse and check the 'STZM' head: (container flags, head size)."""
    magic, version, flags, _ = _MULTI_FIXED.unpack(
        src._read_at(0, _MULTI_FIXED.size)
    )
    _MULTI.check_head(magic, version, flags)
    return flags, _MULTI_FIXED.size


class MultiFrameWriter(_TableWriter):
    """Append-only writer for multi-frame (container v2) archives.

    Frames — complete STZ1 blobs — are written to ``sink`` as they
    arrive, with O(1 frame) writer memory regardless of stream length
    (see :class:`_TableWriter`).

    ``checksum=True`` records a CRC32 per frame plus a whole-archive
    digest; ``recoverable=True`` (implies ``checksum``) additionally
    prefixes every payload with an 'STZR' record so the archive is
    salvageable by forward scan if the process dies before
    :meth:`finalize` — see the module docstring and DESIGN.md §9.
    """

    _fmt = _MULTI

    def __init__(
        self,
        sink: io.IOBase | None = None,
        flags: int = 0,
        checksum: bool = False,
        recoverable: bool = False,
    ):
        super().__init__(sink, flags, checksum, recoverable)
        self._write(
            _MULTI_FIXED.pack(MULTI_MAGIC, MULTI_VERSION, self.flags, 0)
        )

    @property
    def nframes(self) -> int:
        return len(self._rows)

    def _check_unit(self, codec_id: int) -> None:
        if codec_id != CODEC_STZ and not (self.flags & MULTI_CODEC):
            # the version gate: non-STZ payloads are only legal in
            # archives whose header flag warns pre-codec-id readers off
            raise ValueError(
                "non-STZ frame codec requires a writer opened with "
                "flags=MULTI_CODEC"
            )

    def add_frame(
        self,
        payload: bytes | memoryview,
        flags: int = 0,
        codec_id: int = CODEC_STZ,
    ) -> FrameInfo:
        """Append one frame; returns its table entry."""
        return self._append(payload, flags, codec_id)


class MultiFrameReader(_TableReader):
    """Random-access reader for multi-frame archives.

    Opening parses only the 8-byte head, the 16-byte trailer and the
    frame table; frame payloads are fetched on demand (see
    :class:`_TableReader`).  Frame 0 must be intra.
    """

    _fmt = _MULTI

    def __init__(self, source: bytes | memoryview | io.IOBase):
        super().__init__(source)
        self.flags, start = _multi_head(self)
        self._open_table(start)
        if self.frames and self.frames[0].is_delta:
            raise ValueError("frame 0 cannot be a temporal delta")

    @property
    def frames(self) -> tuple[FrameInfo, ...]:
        return self._entries

    @property
    def nframes(self) -> int:
        return len(self._entries)

    frame = _TableReader._entry
    read_frame = _TableReader._read_entry

    def open_frame(self, index: int) -> StreamReader:
        """A :class:`StreamReader` over frame ``index``'s payload."""
        return StreamReader(self.read_frame(index))


# ---------------------------------------------------------------------------
# selected-codec envelope (single-array archives with a chosen backend)
# ---------------------------------------------------------------------------

def is_selected(source: bytes | memoryview | io.IOBase) -> bool:
    """Whether ``source`` starts with the selected-codec envelope magic.

    File sources are restored to their prior position, like
    :func:`is_multiframe`.
    """
    return _peek_magic(source) == SELECT_MAGIC


def wrap_selected(codec_id: int, payload: bytes | memoryview) -> bytes:
    """Wrap one codec's container in the 'STZC' envelope."""
    if codec_id not in CODEC_NAMES:
        raise ValueError(f"unknown codec id {codec_id}")
    return (
        _SELECT_HEADER.pack(SELECT_MAGIC, SELECT_VERSION, codec_id, 0, 0)
        + bytes(payload)
    )


def unwrap_selected(
    source: bytes | memoryview,
) -> tuple[int, memoryview]:
    """Parse an 'STZC' envelope into (codec_id, inner payload view).

    Unknown codec ids and unknown flag bits are rejected — either could
    change decode semantics, and misrouting a payload to the wrong
    backend parser would at best fail confusingly and at worst decode
    plausible garbage.
    """
    buf = memoryview(source)
    if len(buf) < _SELECT_HEADER.size:
        raise ValueError("truncated codec-selected container")
    magic, version, codec_id, flags, _pad = _SELECT_HEADER.unpack(
        buf[: _SELECT_HEADER.size]
    )
    if magic != SELECT_MAGIC:
        raise ValueError("not a codec-selected container")
    if version != SELECT_VERSION:
        raise ValueError(
            f"unsupported codec-selected container version {version}"
        )
    if flags & ~_KNOWN_SELECT_FLAGS:
        raise ValueError(
            "container uses unknown feature flags "
            f"0x{flags & ~_KNOWN_SELECT_FLAGS:02x}; upgrade the reader"
        )
    if codec_id not in CODEC_NAMES:
        raise ValueError(
            f"container uses unknown codec id {codec_id}; "
            "upgrade the reader"
        )
    if flags & SELECT_CHECKSUM:
        # trailing CRC covers the whole envelope; strip it so the
        # inner codec sees exactly the payload it produced
        _verify_trailing_crc(buf, "codec-selected")
        return codec_id, buf[_SELECT_HEADER.size : len(buf) - 4]
    return codec_id, buf[_SELECT_HEADER.size :]


# ---------------------------------------------------------------------------
# container v3: sharded (chunked) archives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChunkEntry:
    """One entry of the v3 chunk table."""

    index: int
    offset: int  # absolute, from container start
    length: int
    flags: int
    codec_id: int = CODEC_STZ
    crc: int = 0  # CRC32 of the payload, valid iff has_checksum

    @property
    def codec(self) -> str:
        """Name of the backend that encoded this chunk's payload."""
        return CODEC_NAMES[self.codec_id]

    @property
    def has_checksum(self) -> bool:
        """Whether ``crc`` holds the payload's CRC32 (pre-checksum rows
        parse with the flag unset and crc 0 — "unchecked")."""
        return bool(self.flags & CHUNK_CHECKSUM)


def is_sharded(source: bytes | memoryview | io.IOBase) -> bool:
    """Whether ``source`` starts with the v3 sharded magic.

    File sources are restored to their prior position, like
    :func:`is_multiframe`.
    """
    return _peek_magic(source) == SHARD_MAGIC


_SHARD = _TableFormat(
    SHARD_MAGIC,
    SHARD_VERSION,
    "sharded STZ",
    _KNOWN_SHARD_FLAGS,
    SHARD_CHECKSUM,
    SHARD_RECOVER,
    "chunk",
    ChunkEntry,
    _KNOWN_CHUNK_FLAGS,
    CHUNK_CHECKSUM,
)


def _shard_head(src: _Source) -> tuple[int, int, np.dtype, ChunkPlan]:
    """Parse and check the 'STZS' head: (container flags, head size,
    dtype, chunk plan)."""
    magic, version, flags, dt, ndim = _SHARD_FIXED.unpack(
        src._read_at(0, _SHARD_FIXED.size)
    )
    _SHARD.check_head(magic, version, flags)
    dims = struct.unpack(
        f"<{2 * ndim}Q", src._read_at(_SHARD_FIXED.size, 16 * ndim)
    )
    plan = ChunkPlan(dims[:ndim], dims[ndim:])
    return flags, _SHARD_FIXED.size + 16 * ndim, dtype_from_code(dt), plan


class ShardedWriter(_TableWriter):
    """Append-only writer for sharded (container v3) archives.

    Chunk payloads — complete STZ1 blobs or 'STZC' envelopes, in plan
    (C) order — are written to ``sink`` as they arrive, with O(1 chunk)
    writer memory however large the array (see :class:`_TableWriter`);
    :meth:`finalize` also checks the plan was fully covered.
    """

    _fmt = _SHARD

    def __init__(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype,
        chunk_shape: tuple[int, ...],
        sink: io.IOBase | None = None,
        flags: int = 0,
        checksum: bool = False,
        recoverable: bool = False,
    ):
        super().__init__(sink, flags, checksum, recoverable)
        self.plan = ChunkPlan(
            tuple(int(n) for n in shape), tuple(int(c) for c in chunk_shape)
        )
        self.dtype = np.dtype(dtype)
        ndim = len(self.plan.shape)
        self._write(
            _SHARD_FIXED.pack(
                SHARD_MAGIC, SHARD_VERSION, self.flags,
                dtype_code(self.dtype), ndim,
            )
            + struct.pack(
                f"<{2 * ndim}Q", *self.plan.shape, *self.plan.chunk_shape
            )
        )

    @property
    def nchunks(self) -> int:
        return len(self._rows)

    def _check_unit(self, codec_id: int) -> None:
        if self.nchunks >= self.plan.nchunks:
            raise ValueError(
                f"plan has only {self.plan.nchunks} chunks; chunk "
                f"{self.nchunks} does not exist"
            )

    def add_chunk(
        self, payload: bytes | memoryview, codec_id: int = CODEC_STZ
    ) -> ChunkEntry:
        """Append the next chunk's payload (plan order); returns its
        table entry."""
        return self._append(payload, 0, codec_id)

    def finalize(self) -> None:
        """Write the chunk table and trailer (idempotent)."""
        if not self._finalized and self.nchunks != self.plan.nchunks:
            raise ValueError(
                f"plan needs {self.plan.nchunks} chunks, got {self.nchunks}"
            )
        super().finalize()


class ShardedReader(_TableReader):
    """Random-access reader for sharded (container v3) archives.

    Opening parses the head, rebuilds the
    :class:`~repro.core.partition.ChunkPlan` from the stored ``(shape,
    chunk_shape)`` and parses the trailer and chunk table, which must
    cover the plan; chunk payloads are fetched on demand, so
    chunk-granular random access to a file archive reads exactly the
    chunks it touches (see :class:`_TableReader`).
    """

    _fmt = _SHARD

    def __init__(self, source: bytes | memoryview | io.IOBase):
        super().__init__(source)
        self.flags, start, self.dtype, self.plan = _shard_head(self)
        self._open_table(start)
        if self.nchunks != self.plan.nchunks:
            raise ValueError(
                f"chunk table has {self.nchunks} entries; the stored plan "
                f"{self.plan.shape} / {self.plan.chunk_shape} needs "
                f"{self.plan.nchunks}"
            )

    @property
    def chunks(self) -> tuple[ChunkEntry, ...]:
        return self._entries

    @property
    def shape(self) -> tuple[int, ...]:
        return self.plan.shape

    @property
    def nchunks(self) -> int:
        return len(self._entries)

    chunk = _TableReader._entry
    read_chunk = _TableReader._read_entry

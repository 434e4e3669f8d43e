"""Archive integrity: structured corruption errors, scrubbing, repair.

This module is the read-side half of the integrity layer whose on-disk
format lives in :mod:`repro.core.stream` (DESIGN.md §9):

* **Errors** — :class:`ChunkCorruptionError` / :class:`FrameCorruptionError`
  carry the failing unit's index and codec so a partial-failure report
  is actionable (which chunk of which archive, encoded by what).  Both
  pickle cleanly across process boundaries — the chunked decoder's fork
  workers raise them.
* **Decode reports** — :class:`DecodeReport` accumulates the failures a
  fault-tolerant decode (``on_error="skip"|"fill"``) degraded over, so
  callers can distinguish "clean" from "NaN-filled two chunks".
* **Scrubbing** — :func:`verify_archive` walks any container version
  and classifies every unit as ``ok`` (checksum present and matching),
  ``unchecked`` (written before checksums existed — the backward-compat
  state every pre-existing archive is in), or ``corrupt``.  It is the
  only place the whole-archive digest is checked: doing that on every
  open would read the entire file and defeat chunk-granular random
  access.
* **Repair** — :func:`repair_archive` rebuilds the table/trailer of a
  ``recoverable=True`` archive from its 'STZR' record prefixes by
  forward scan, salvaging the longest valid prefix of a stream
  truncated mid-append (crash before ``finalize()``).  The rebuild
  re-runs the normal writer, so a repaired archive is byte-identical to
  what the writer would have produced for the surviving frames.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from repro.core.stream import (
    _FLAG_BYTE_OFFSET,
    _FLAG_CHECKSUM,
    _MULTI,
    _RECORD,
    _SHARD,
    CODEC_NAMES,
    MAGIC,
    MULTI_MAGIC,
    MultiFrameReader,
    MultiFrameWriter,
    RECORD_MAGIC,
    SELECT_CHECKSUM,
    SELECT_MAGIC,
    SHARD_MAGIC,
    ShardedReader,
    ShardedWriter,
    _multi_head,
    _peek_magic,
    _shard_head,
    _Source,
)

__all__ = [
    "ChunkCorruptionError",
    "FrameCorruptionError",
    "DecodeReport",
    "UnitStatus",
    "VerifyReport",
    "RepairReport",
    "verify_archive",
    "repair_archive",
]


class ChunkCorruptionError(ValueError):
    """A chunk of a sharded archive failed verification or decode.

    Carries the chunk index and codec name so multi-chunk failure
    reports are actionable.  Defined with an explicit ``__reduce__``:
    fork workers raise these and the default ``ValueError`` reduction
    would drop the structured fields in transit.
    """

    def __init__(self, chunk_index: int, codec: str, detail: str):
        self.chunk_index = int(chunk_index)
        self.codec = codec
        self.detail = detail
        super().__init__(f"chunk {chunk_index} ({codec}): {detail}")

    def __reduce__(self):
        return (type(self), (self.chunk_index, self.codec, self.detail))


class FrameCorruptionError(ValueError):
    """A frame of a multi-frame archive failed verification or decode."""

    def __init__(self, frame_index: int, codec: str, detail: str):
        self.frame_index = int(frame_index)
        self.codec = codec
        self.detail = detail
        super().__init__(f"frame {frame_index} ({codec}): {detail}")

    def __reduce__(self):
        return (type(self), (self.frame_index, self.codec, self.detail))


@dataclass
class DecodeReport:
    """What a fault-tolerant decode degraded over.

    Passed as ``report=`` to the decode entry points; populated in
    place so one report can span a whole stream (every frame's chunk
    failures accumulate into it).
    """

    #: the Chunk/FrameCorruptionError of every unit that was skipped or
    #: NaN-filled instead of decoded
    failures: list = field(default_factory=list)
    #: units (chunks/frames) the decode attempted
    attempted: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def nfailed(self) -> int:
        return len(self.failures)

    def record(self, err: Exception) -> None:
        self.failures.append(err)

    def summary(self) -> str:
        if self.ok:
            return f"{self.attempted} units decoded, no failures"
        lines = [
            f"{self.nfailed} of {self.attempted} units failed:",
        ]
        lines += [f"  {err}" for err in self.failures]
        return "\n".join(lines)


@dataclass(frozen=True)
class UnitStatus:
    """Verification outcome for one archive unit."""

    kind: str  # "archive" | "frame" | "chunk" | "digest"
    index: int | None
    status: str  # "ok" | "unchecked" | "corrupt"
    detail: str = ""
    codec: str | None = None

    def describe(self) -> str:
        where = self.kind if self.index is None else f"{self.kind} {self.index}"
        codec = f" ({self.codec})" if self.codec else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"{where}{codec}: {self.status}{tail}"


@dataclass(frozen=True)
class VerifyReport:
    """The full scrub result for one archive."""

    fmt: str  # "stz1" | "stzc" | "multiframe" | "sharded"
    units: tuple[UnitStatus, ...]

    @property
    def corrupt(self) -> tuple[UnitStatus, ...]:
        return tuple(u for u in self.units if u.status == "corrupt")

    @property
    def unchecked(self) -> tuple[UnitStatus, ...]:
        return tuple(u for u in self.units if u.status == "unchecked")

    @property
    def ok(self) -> bool:
        """No corruption found (unchecked units do not fail a scrub —
        they are the documented state of pre-checksum archives)."""
        return not self.corrupt

    def summary(self) -> str:
        counts = {"ok": 0, "unchecked": 0, "corrupt": 0}
        for u in self.units:
            counts[u.status] += 1
        parts = [f"{n} {s}" for s, n in counts.items() if n]
        return f"{self.fmt}: {len(self.units)} units ({', '.join(parts)})"


def _crc(data) -> int:
    return zlib.crc32(data)


def _verify_single(blob: memoryview, fmt: str) -> VerifyReport:
    """Scrub an STZ1 container or STZC envelope (trailing-CRC layout)."""
    off = _FLAG_BYTE_OFFSET[MAGIC if fmt == "stz1" else SELECT_MAGIC]
    bit = _FLAG_CHECKSUM if fmt == "stz1" else SELECT_CHECKSUM
    if len(blob) <= off:
        unit = UnitStatus("archive", None, "corrupt", "truncated header")
    elif not blob[off] & bit:
        unit = UnitStatus("archive", None, "unchecked")
    elif len(blob) < off + 5:
        unit = UnitStatus("archive", None, "corrupt", "truncated checksum")
    else:
        (stored,) = struct.unpack("<I", blob[-4:])
        computed = _crc(blob[:-4])
        if computed == stored:
            unit = UnitStatus("archive", None, "ok")
        else:
            unit = UnitStatus(
                "archive",
                None,
                "corrupt",
                f"checksum mismatch (stored 0x{stored:08x}, "
                f"computed 0x{computed:08x})",
            )
    return VerifyReport(fmt, (unit,))


def _digest_unit(blob: memoryview, reader) -> UnitStatus:
    if not reader.has_digest:
        return UnitStatus("digest", None, "unchecked")
    computed = _crc(blob[: reader.digest_offset])
    if computed == reader.stored_digest:
        return UnitStatus("digest", None, "ok")
    return UnitStatus(
        "digest",
        None,
        "corrupt",
        f"whole-archive digest mismatch (stored "
        f"0x{reader.stored_digest:08x}, computed 0x{computed:08x})",
    )


def _verify_table(
    blob: memoryview, reader_cls: type[MultiFrameReader | ShardedReader]
) -> list[UnitStatus]:
    """Per-unit + digest statuses of a v2 or v3 archive.  A sharded
    frame is a whole v3 archive: its chunks are scrubbed too, annotated
    with the frame they belong to."""
    try:
        reader = reader_cls(blob)
    except ValueError as exc:
        return [UnitStatus("archive", None, "corrupt", str(exc))]
    kind = reader._fmt.unit
    units: list[UnitStatus] = []
    for entry in reader._entries:
        try:
            payload = reader._read_entry(entry.index)
        except ValueError as exc:
            units.append(
                UnitStatus(kind, entry.index, "corrupt", str(exc), entry.codec)
            )
            continue
        if not entry.has_checksum:
            status, detail = "unchecked", ""
        elif _crc(payload) == entry.crc:
            status, detail = "ok", ""
        else:
            status, detail = "corrupt", "payload checksum mismatch"
        units.append(UnitStatus(kind, entry.index, status, detail, entry.codec))
        if kind == "frame" and entry.is_sharded and status != "corrupt":
            where = f"frame {entry.index}"
            for u in _verify_table(memoryview(payload), ShardedReader):
                detail = f"{where}: {u.detail}" if u.detail else where
                units.append(
                    UnitStatus(u.kind, u.index, u.status, detail, u.codec)
                )
    units.append(_digest_unit(blob, reader))
    return units


def verify_archive(source: bytes | bytearray | memoryview) -> VerifyReport:
    """Scrub any STZ archive; never raises on corrupt input.

    Every verifiable unit (chunk, frame, whole-archive digest, trailing
    CRC) is classified as ``ok`` / ``unchecked`` / ``corrupt``; archives
    written before checksums existed come back all-``unchecked`` with
    ``report.ok`` still true — absence of checksums is not corruption.
    """
    blob = memoryview(source)
    magic = _peek_magic(blob)
    if magic == MULTI_MAGIC:
        return VerifyReport(
            "multiframe", tuple(_verify_table(blob, MultiFrameReader))
        )
    if magic == SHARD_MAGIC:
        return VerifyReport(
            "sharded", tuple(_verify_table(blob, ShardedReader))
        )
    if magic == MAGIC:
        return _verify_single(blob, "stz1")
    if magic == SELECT_MAGIC:
        return _verify_single(blob, "stzc")
    return VerifyReport(
        "unknown",
        (UnitStatus("archive", None, "corrupt", "not an STZ container"),),
    )


# ---------------------------------------------------------------------------
# forward-scan repair of recoverable archives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepairReport:
    """What :func:`repair_archive` salvaged."""

    fmt: str  # "multiframe" | "sharded"
    nrecovered: int  # frames/chunks in the rebuilt archive
    bytes_in: int
    bytes_out: int
    #: the input was already a complete, finalized archive (the rebuild
    #: reproduced it byte-exactly)
    intact: bool

    def summary(self) -> str:
        if self.intact:
            return f"{self.fmt}: intact, {self.nrecovered} units"
        return (
            f"{self.fmt}: recovered {self.nrecovered} units "
            f"({self.bytes_in} B damaged -> {self.bytes_out} B repaired)"
        )


def _scan_records(
    blob: memoryview, start: int
) -> list[tuple[memoryview, int, int]]:
    """Forward-scan 'STZR' records from ``start``; returns the longest
    valid prefix as (payload, flags, codec_id) tuples.

    The scan stops at the first record whose magic, length bound or
    payload CRC fails — everything after a torn write is untrusted, so
    a mid-stream corruption truncates the recovery there (longest
    *valid prefix*, by design).
    """
    out: list[tuple[memoryview, int, int]] = []
    pos = start
    while pos + _RECORD.size <= len(blob):
        magic, length, crc, flags, codec_id = _RECORD.unpack(
            blob[pos : pos + _RECORD.size]
        )
        if magic != RECORD_MAGIC:
            break
        payload_start = pos + _RECORD.size
        if payload_start + length > len(blob):
            break
        payload = blob[payload_start : payload_start + length]
        if zlib.crc32(payload) != crc:
            break
        if codec_id not in CODEC_NAMES:
            break
        out.append((payload, flags, codec_id))
        pos = payload_start + length
    return out


def repair_archive(source: bytes | bytearray | memoryview) -> tuple[
    bytes, RepairReport
]:
    """Rebuild a recoverable archive's table/trailer by forward scan.

    Only archives written with ``recoverable=True`` carry the per-unit
    'STZR' records the scan needs; anything else raises, and so does a
    head the readers would reject (another magic, an unknown version or
    unknown flag bits).  Multi-frame streams are salvaged up to the last
    complete frame.  Sharded archives can only be repaired when *every*
    chunk survived (a v3 archive is one array — the chunk table must
    cover the whole plan), which handles the lost-trailer crash but not
    payload loss.
    """
    blob = memoryview(source)
    magic = _peek_magic(blob)
    if magic == MULTI_MAGIC:
        fmt, name = _MULTI, "multiframe"
        flags, start = _multi_head(_Source(blob, fmt.name))
        writer = MultiFrameWriter(flags=flags)
    elif magic == SHARD_MAGIC:
        fmt, name = _SHARD, "sharded"
        flags, start, dtype, plan = _shard_head(_Source(blob, fmt.name))
        writer = ShardedWriter(
            plan.shape, dtype, plan.chunk_shape, flags=flags
        )
    else:
        raise ValueError(
            "repair applies to multi-frame ('STZM') and sharded ('STZS') "
            "archives; single-array containers have no table to rebuild"
        )
    if not flags & fmt.recover_flag:
        raise ValueError(
            "archive was not written in recoverable mode (no 'STZR' "
            "records to scan); only recoverable=True archives can be "
            "repaired"
        )
    recovered = _scan_records(blob, start)
    if fmt is _SHARD and len(recovered) != plan.nchunks:
        raise ValueError(
            f"only {len(recovered)} of {plan.nchunks} chunks "
            "recoverable; a sharded archive is one array and cannot "
            "be partially rebuilt (use on_error='fill' decode for "
            "partial extraction instead)"
        )
    if not recovered:
        raise ValueError("no complete frames could be recovered")
    for payload, unit_flags, codec_id in recovered:
        # the writer re-derives the checksum flag and CRC itself —
        # that is what makes the rebuild byte-exact vs. a reference
        # archive of the same units
        writer._append(payload, unit_flags & ~fmt.unit_checksum, codec_id)
    rebuilt = writer.getvalue()
    return rebuilt, RepairReport(
        name,
        len(recovered),
        len(blob),
        len(rebuilt),
        intact=rebuilt == bytes(blob),
    )

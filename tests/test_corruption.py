"""Corruption conformance suite (DESIGN.md §9).

The integrity contract under test, for every container version and
every injected fault: **no silent wrong data**.  A damaged archive must
either

1. raise a clean error at open/decode ("clean rejection"),
2. still decode to exactly the reference bytes (the damage hit
   redundant bytes — a checksum field, a record prefix, padding), or
3. be flagged corrupt by :func:`verify_archive` (damage the decoder
   cannot see, e.g. a flipped table flag that changes semantics, is
   caught by the whole-archive digest).

The exhaustive sweep drives every byte of small checksummed archives
through that three-way contract; the structural matrix extends the
golden-fixture tamper tests on *unchecked* archives, where only
structural fields carry a rejection guarantee.  The ``on_error``
classes pin the documented degraded-decode behavior, ``repair`` pins
byte-exact crash salvage, and the executor classes pin worker-crash
containment.  All fault injection goes through the deterministic
harness in :mod:`repro.testing`.
"""

import os
import struct

import numpy as np
import pytest

from conftest import smooth_field
from repro.core import api
from repro.core.chunked import decompress_chunked
from repro.core.integrity import (
    ChunkCorruptionError,
    DecodeReport,
    FrameCorruptionError,
    repair_archive,
    verify_archive,
)
from repro.core.parallel import execute_map, fork_available
from repro.core.stream import (
    _FRAME_DTYPE,
    MultiFrameReader,
    MultiFrameWriter,
    ShardedReader,
    StreamReader,
    add_archive_checksum,
)
from repro.core.streaming import StreamingDecompressor
from repro.testing import (
    WorkerKiller,
    corrupt_chunk_payload,
    corrupt_frame_payload,
    flip_bit,
    flip_byte,
    truncate_at,
)

EB = 1e-3

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def field():
    return smooth_field((12, 14), seed=50).astype(np.float32)


@pytest.fixture(scope="module")
def steps(field):
    return [field + np.float32(0.01) * t for t in range(3)]


@pytest.fixture(scope="module")
def v1(field):
    blob = api.compress(field, EB, checksum=True)
    return blob, api.decompress(blob)


@pytest.fixture(scope="module")
def v3(field):
    blob = api.compress_chunked(
        field, EB, chunks=(6, 7), checksum=True, recoverable=True
    )
    return blob, api.decompress(blob)


@pytest.fixture(scope="module")
def v2(steps):
    blob = api.compress_stream(
        steps, EB, keyframe_interval=2, checksum=True, recoverable=True
    )
    return blob, np.stack(list(api.iter_decompress(blob)))


def _no_silent_wrong_data(damaged, decode, reference):
    """Assert the three-way contract for one damaged archive."""
    try:
        out = decode(damaged)
    except Exception:
        return  # (1) clean rejection
    if out.shape == reference.shape and np.array_equal(out, reference):
        return  # (2) damage hit redundant bytes
    # (3) a silent difference must be detectable by the scrub
    try:
        report = verify_archive(damaged)
    except ValueError:
        return
    assert report.corrupt, (
        "decode silently returned wrong data and verify did not flag it"
    )


class TestExhaustiveByteSweep:
    """Flip every byte of a checksummed archive; the contract must hold
    at every offset — header, tables, payloads, records, digest,
    trailer alike."""

    def test_single_frame_every_byte(self, v1):
        blob, ref = v1
        for off in range(len(blob)):
            _no_silent_wrong_data(
                flip_byte(blob, off), api.decompress, ref
            )

    def test_sharded_every_byte(self, v3):
        blob, ref = v3
        for off in range(len(blob)):
            _no_silent_wrong_data(
                flip_byte(blob, off), api.decompress, ref
            )

    def test_multiframe_every_byte(self, v2):
        blob, ref = v2
        decode = lambda b: np.stack(list(api.iter_decompress(b)))  # noqa: E731
        for off in range(len(blob)):
            _no_silent_wrong_data(flip_byte(blob, off), decode, ref)

    def test_single_bit_flips_detected(self, v1):
        """Single-bit rot (the realistic fault) across a sample of
        offsets and all eight bit positions."""
        blob, ref = v1
        for off in range(0, len(blob), 7):
            for bit in range(8):
                _no_silent_wrong_data(
                    flip_bit(blob, off, bit), api.decompress, ref
                )


class TestTruncation:
    """Truncation at every section boundary (and just inside each) is
    rejected cleanly — never parsed as a shorter valid archive."""

    def _section_offsets(self, blob, fmt):
        if fmt == "v3":
            reader = ShardedReader(blob)
            offs = [e.offset + e.length for e in reader.chunks]
        else:
            reader = MultiFrameReader(blob)
            offs = [f.offset + f.length for f in reader.frames]
        table_off = struct.unpack("<QI4s", blob[-16:])[0]
        return sorted(
            {0, 4, 8, *offs, table_off, reader.digest_offset, len(blob) - 16,
             len(blob) - 1}
        )

    @pytest.mark.parametrize("fmt", ["v2", "v3"])
    def test_boundary_truncations_rejected(self, fmt, v2, v3):
        blob, _ = v2 if fmt == "v2" else v3
        decode = (
            (lambda b: np.stack(list(api.iter_decompress(b))))
            if fmt == "v2"
            else api.decompress
        )
        for off in self._section_offsets(blob, fmt):
            if off == len(blob):
                continue
            with pytest.raises(Exception):
                decode(truncate_at(blob, off))

    def test_single_frame_truncations_rejected(self, v1):
        blob, _ = v1
        for off in (0, 4, 11, len(blob) // 2, len(blob) - 5, len(blob) - 1):
            with pytest.raises(ValueError):
                api.decompress(truncate_at(blob, off))


class TestUncheckedStructuralMatrix:
    """Archives written before the checksum flag existed carry no
    payload guarantee, but every *structural* field still rejects
    cleanly when tampered — the golden tamper tests, systematized."""

    @pytest.fixture(scope="class")
    def plain_v1(self, field):
        return api.compress(field, EB)

    @pytest.fixture(scope="class")
    def plain_v3(self, field):
        return api.compress_chunked(field, EB, chunks=(6, 7))

    @pytest.fixture(scope="class")
    def plain_v2(self, steps):
        return api.compress_stream(steps, EB, keyframe_interval=2)

    def test_v1_magic_version_flags(self, plain_v1):
        for off in (0, 1, 2, 3, 4):  # magic + version
            with pytest.raises(ValueError):
                StreamReader(flip_byte(plain_v1, off))
        with pytest.raises(ValueError, match="unknown feature flags"):
            StreamReader(flip_byte(plain_v1, 11, 0x80))

    @pytest.mark.parametrize("fmt", ["v2", "v3"])
    def test_container_head_and_trailer(self, fmt, plain_v2, plain_v3):
        blob = plain_v2 if fmt == "v2" else plain_v3
        opener = MultiFrameReader if fmt == "v2" else ShardedReader
        for off in (0, 1, 2, 3, 4):  # magic + version
            with pytest.raises(ValueError):
                opener(flip_byte(blob, off))
        with pytest.raises(ValueError, match="unknown feature flags"):
            opener(flip_byte(blob, 5, 0x80))
        # trailer: table offset, count, end magic — each field, each byte
        for off in range(len(blob) - 16, len(blob)):
            with pytest.raises(ValueError):
                opener(flip_byte(blob, off))

    def test_checksum_flag_without_checksum_rejected(
        self, plain_v1, plain_v2, plain_v3
    ):
        """Setting an integrity flag on an archive that carries no
        integrity data must fail at open (mismatched geometry or CRC),
        never decode as if verified."""
        from repro.core.stream import (
            _FLAG_CHECKSUM,
            MULTI_CHECKSUM,
            SHARD_CHECKSUM,
        )

        with pytest.raises(ValueError):
            StreamReader(flip_byte(plain_v1, 11, _FLAG_CHECKSUM))
        with pytest.raises(ValueError):
            MultiFrameReader(flip_byte(plain_v2, 5, MULTI_CHECKSUM))
        with pytest.raises(ValueError):
            ShardedReader(flip_byte(plain_v3, 5, SHARD_CHECKSUM))

    def test_unchecked_archives_verify_as_unchecked(
        self, plain_v1, plain_v2, plain_v3
    ):
        for blob in (plain_v1, plain_v2, plain_v3):
            report = verify_archive(blob)
            assert not report.corrupt
            assert report.unchecked  # reported, not silently "ok"


def _set_row_offset(blob: bytes, row: int, offset: int) -> bytes:
    """Rewrite the ``offset`` field of table row ``row`` of a v2/v3
    archive (the trailer's first field locates the table)."""
    (table_off,) = struct.unpack_from("<Q", blob, len(blob) - 16)
    out = bytearray(blob)
    row_off = table_off + row * _FRAME_DTYPE.itemsize
    struct.pack_into("<Q", out, row_off, offset)
    return bytes(out)


class TestTableBounds:
    """A table row may only point between the head and the table, at
    an extent no other row covers — checked at open, so an unchecked
    archive can never hand head or record bytes to a payload parser."""

    @pytest.fixture(scope="class")
    def one_frame(self):
        writer = MultiFrameWriter()
        writer.add_frame(b"payload")
        return writer.getvalue()

    @pytest.fixture(scope="class")
    def sharded(self, field):
        return api.compress_chunked(field, EB, chunks=(6, 7))

    def test_untouched_archives_open(self, one_frame, sharded):
        assert bytes(MultiFrameReader(one_frame).read_frame(0)) == b"payload"
        ShardedReader(sharded)

    @pytest.mark.parametrize("fmt", ["v2", "v3"])
    def test_row_offset_into_head_rejected(self, fmt, one_frame, sharded):
        blob = one_frame if fmt == "v2" else sharded
        opener = MultiFrameReader if fmt == "v2" else ShardedReader
        with pytest.raises(ValueError, match="table geometry"):
            opener(_set_row_offset(blob, 0, 0))

    def test_overlapping_rows_rejected(self, sharded):
        second = ShardedReader(sharded).chunk(1).offset
        with pytest.raises(ValueError, match="table geometry"):
            ShardedReader(_set_row_offset(sharded, 2, second))

    def test_row_offset_into_record_rejected(self, v2):
        blob, _ = v2
        first = MultiFrameReader(blob).frames[0].offset
        with pytest.raises(ValueError, match="table geometry"):
            MultiFrameReader(_set_row_offset(blob, 0, first - 1))


class TestOnErrorChunked:
    @pytest.fixture()
    def damaged(self, v3):
        blob, ref = v3
        return corrupt_chunk_payload(blob, 2, byte=5), ref

    def test_raise_is_structured(self, damaged):
        blob, _ = damaged
        with pytest.raises(ChunkCorruptionError) as ei:
            api.decompress(blob)
        assert ei.value.chunk_index == 2
        assert ei.value.codec == "stz"
        assert "checksum mismatch" in str(ei.value)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_fill_nans_only_the_damaged_chunk(self, damaged, executor):
        blob, ref = damaged
        report = DecodeReport()
        out = api.decompress(
            blob, executor=executor, workers=2, on_error="fill",
            report=report,
        )
        entry_slice = ShardedReader(blob).plan.chunk(2).slices
        assert np.all(np.isnan(out[entry_slice]))
        mask = np.ones(ref.shape, dtype=bool)
        mask[entry_slice] = False
        assert np.array_equal(out[mask], ref[mask])
        assert report.nfailed == 1
        assert isinstance(report.failures[0], ChunkCorruptionError)

    def test_skip_preserves_caller_buffer(self, damaged):
        blob, ref = damaged
        out = np.full(ref.shape, 7.5, dtype=ref.dtype)
        api.decompress(blob, out=out, on_error="skip")
        entry_slice = ShardedReader(blob).plan.chunk(2).slices
        assert np.all(out[entry_slice] == 7.5)  # skipped, not clobbered
        mask = np.ones(ref.shape, dtype=bool)
        mask[entry_slice] = False
        assert np.array_equal(out[mask], ref[mask])

    def test_roi_fill(self, damaged):
        blob, ref = damaged
        report = DecodeReport()
        roi = (slice(None), slice(None))
        out = api.decompress_roi(blob, roi, on_error="fill", report=report)
        assert report.nfailed == 1
        assert np.any(np.isnan(out))
        finite = ~np.isnan(out)
        assert np.array_equal(out[finite], ref[finite])

    def test_invalid_policy_rejected(self, v3):
        blob, _ = v3
        with pytest.raises(ValueError, match="on_error"):
            api.decompress(blob, on_error="ignore")

    @needs_fork
    def test_process_executor_raises_structured(self, damaged):
        """The corruption error crosses the fork boundary with its
        fields intact (pickling via __reduce__)."""
        blob, _ = damaged
        with pytest.raises(ChunkCorruptionError) as ei:
            api.decompress(blob, executor="process", workers=2)
        assert ei.value.chunk_index == 2


class TestOnErrorStream:
    @pytest.fixture()
    def damaged(self, v2):
        blob, ref = v2
        # frame 1 is the delta frame between the two intra frames
        return corrupt_frame_payload(blob, 1, byte=3), ref

    def test_raise_is_structured(self, damaged):
        blob, _ = damaged
        sd = StreamingDecompressor(blob)
        with pytest.raises(FrameCorruptionError) as ei:
            sd.read_frame(1)
        assert ei.value.frame_index == 1
        assert "checksum mismatch" in str(ei.value)

    def test_fill_poisons_until_next_keyframe(self, damaged):
        blob, ref = damaged
        report = DecodeReport()
        frames = list(
            api.iter_decompress(blob, on_error="fill", report=report)
        )
        assert np.array_equal(frames[0], ref[0])  # before the damage
        assert np.all(np.isnan(frames[1]))  # the corrupt frame
        assert np.array_equal(frames[2], ref[2])  # intra frame resets
        assert report.nfailed == 1

    def test_first_frame_corruption_raises_even_with_fill(self, v2):
        blob, _ = v2
        damaged = corrupt_frame_payload(blob, 0, byte=3)
        with pytest.raises(FrameCorruptionError):
            list(api.iter_decompress(damaged, on_error="fill"))


class TestVerify:
    def test_clean_archives_verify_ok(self, v1, v2, v3):
        for blob, _ in (v1, v2, v3):
            report = verify_archive(blob)
            assert report.ok
            assert not report.unchecked  # fully covered by checksums

    def test_payload_corruption_flagged(self, v3):
        blob, _ = v3
        report = verify_archive(corrupt_chunk_payload(blob, 1, byte=2))
        assert not report.ok
        kinds = {(u.kind, u.index) for u in report.corrupt}
        assert ("chunk", 1) in kinds
        assert ("digest", None) in kinds

    def test_table_tamper_caught_by_digest(self, v2):
        """Decode cannot see a flipped delta flag (the payload CRC
        still matches) — the digest is the layer that catches it."""
        blob, _ = v2
        table_off = struct.unpack("<QI4s", blob[-16:])[0]
        damaged = flip_byte(blob, table_off + 24 + 16, 0x01)  # frame 1 flags
        report = verify_archive(damaged)
        assert any(u.kind == "digest" for u in report.corrupt)

    def test_verify_reads_sharded_frames_recursively(self, field):
        steps = [field, field + np.float32(0.01)]
        blob = api.compress_stream(
            steps, EB, keyframe_interval=2, chunks=(6, 7), checksum=True
        )
        report = verify_archive(blob)
        assert report.ok
        assert any(u.kind == "chunk" for u in report.units)


class TestRepair:
    def test_multiframe_prefix_is_byte_exact(self, steps):
        """The acceptance bar: a truncated recoverable stream repairs
        to the byte-exact archive of the surviving step prefix."""
        blob = api.compress_stream(
            steps, EB, keyframe_interval=2, checksum=True, recoverable=True
        )
        reference2 = api.compress_stream(
            steps[:2], EB, keyframe_interval=2, checksum=True,
            recoverable=True,
        )
        frame2 = MultiFrameReader(blob).frame(2)
        # cut mid-frame-2: frames 0 and 1 survive
        rebuilt, report = repair_archive(
            truncate_at(blob, frame2.offset + 3)
        )
        assert report.nrecovered == 2
        assert not report.intact
        assert rebuilt == reference2
        assert verify_archive(rebuilt).ok

    def test_lost_trailer_recovers_everything(self, steps):
        blob = api.compress_stream(
            steps, EB, checksum=True, recoverable=True
        )
        table_off = struct.unpack("<QI4s", blob[-16:])[0]
        rebuilt, report = repair_archive(truncate_at(blob, table_off))
        assert report.nrecovered == len(steps)
        assert rebuilt == blob

    def test_intact_archive_reports_intact(self, v2):
        blob, _ = v2
        rebuilt, report = repair_archive(blob)
        assert report.intact
        assert rebuilt == blob

    def test_sharded_lost_trailer_recovers(self, v3):
        blob, ref = v3
        table_off = struct.unpack("<QI4s", blob[-16:])[0]
        rebuilt, report = repair_archive(truncate_at(blob, table_off))
        assert rebuilt == blob
        assert np.array_equal(api.decompress(rebuilt), ref)

    def test_non_recoverable_archive_refused(self, steps):
        blob = api.compress_stream(steps, EB, checksum=True)
        with pytest.raises(ValueError, match="recover"):
            repair_archive(truncate_at(blob, len(blob) - 4))

    def test_unrecoverable_prefix_refused(self, v2):
        blob, _ = v2
        frame0 = MultiFrameReader(blob).frame(0)
        with pytest.raises(ValueError):
            repair_archive(truncate_at(blob, frame0.offset + 1))

    @pytest.mark.parametrize("container", ["v2", "v3"])
    @pytest.mark.parametrize(
        "offset, xor, match",
        [(4, 0x08, "version 9"), (5, 0x40, "unknown feature flags")],
        ids=["version", "unknown-flag"],
    )
    def test_unknown_head_refused(
        self, request, container, offset, xor, match
    ):
        """Both heads are magic4 | u8 version | u8 flags.  Repair checks
        them as the readers do: an unknown version or flag bit is
        refused, never rebuilt as a version-1 archive without it."""
        blob, _ = request.getfixturevalue(container)
        with pytest.raises(ValueError, match=match):
            repair_archive(flip_byte(blob, offset, xor))


class TestExecutorFaults:
    @needs_fork
    def test_killed_worker_heals_with_retry(self, tmp_path):
        killer = WorkerKiller(tmp_path)

        def fn(state, item):
            killer.maybe_die()
            return item * 10

        out = execute_map(
            fn, [1, 2, 3, 4], None, executor="process", workers=2, retry=1
        )
        assert out == [10, 20, 30, 40]
        assert not killer.armed()  # the kill actually happened

    @needs_fork
    def test_killed_worker_without_retry_raises(self, tmp_path):
        killer = WorkerKiller(tmp_path)

        def fn(state, item):
            killer.maybe_die()
            return item

        with pytest.raises(Exception):
            execute_map(
                fn, [1, 2, 3, 4], None, executor="process", workers=2
            )

    def test_deterministic_failure_survives_retry(self):
        def fn(state, item):
            if item == 2:
                raise ValueError("item 2 is cursed")
            return item

        with pytest.raises(ValueError, match="cursed"):
            execute_map(
                fn, [1, 2, 3], None, executor="thread", workers=2, retry=2
            )
        # healthy items still map under retry when nothing fails
        assert execute_map(
            fn, [1, 3], None, executor="thread", workers=2, retry=1
        ) == [1, 3]

    @pytest.mark.parametrize(
        "executor", ["serial", pytest.param("process", marks=needs_fork)]
    )
    def test_truncated_file_archive(self, field, executor, tmp_path):
        """A file cut short after open fails the same way whichever
        executor reads it: process workers read through the readers'
        extent reader, not their own."""
        path = tmp_path / "a.stz"
        path.write_bytes(api.compress_chunked(field, EB, chunks=(6, 7)))
        with open(path, "rb") as fh:
            reader = ShardedReader(fh)
            os.truncate(path, reader.chunk(2).offset + 1)
            with pytest.raises(ChunkCorruptionError) as ei:
                decompress_chunked(reader, executor=executor, workers=2)
        assert ei.value.chunk_index == 2
        assert "truncated sharded STZ container" in str(ei.value)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_decode_exception_carries_chunk_context(self, field, executor):
        """Satellite (a): a chunk whose *contents* fail to parse (no
        checksum to catch it first) surfaces as a structured error
        naming the chunk index and codec, not a bare codec exception."""
        blob = api.compress_chunked(field, EB, chunks=(6, 7))  # unchecked
        entry = ShardedReader(blob).chunk(1)
        damaged = flip_byte(blob, entry.offset)  # break the inner magic
        with pytest.raises(ChunkCorruptionError) as ei:
            api.decompress(damaged, executor=executor, workers=2)
        assert ei.value.chunk_index == 1
        assert ei.value.codec == entry.codec
        assert ei.value.__cause__ is not None  # original error chained


class TestCLI:
    def _run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_verify_ok_and_corrupt(self, v3, tmp_path, capsys):
        blob, _ = v3
        good = tmp_path / "good.stz"
        good.write_bytes(blob)
        assert self._run("verify", str(good)) == 0
        bad = tmp_path / "bad.stz"
        bad.write_bytes(corrupt_chunk_payload(blob, 0, byte=1))
        assert self._run("verify", str(bad)) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out

    def test_verify_strict_flags_unchecked(self, field, tmp_path):
        plain = tmp_path / "plain.stz"
        plain.write_bytes(api.compress(field, EB))
        assert self._run("verify", str(plain)) == 0
        assert self._run("verify", str(plain), "--strict") == 1

    def test_repair_roundtrip(self, steps, tmp_path):
        blob = api.compress_stream(
            steps, EB, keyframe_interval=2, checksum=True, recoverable=True
        )
        frame2 = MultiFrameReader(blob).frame(2)
        damaged = tmp_path / "damaged.stz"
        damaged.write_bytes(truncate_at(blob, frame2.offset + 3))
        fixed = tmp_path / "fixed.stz"
        assert self._run("repair", str(damaged), str(fixed)) == 0
        assert verify_archive(fixed.read_bytes()).ok
        assert self._run("verify", str(fixed)) == 0

    def test_decompress_on_error_fill(self, v3, tmp_path, capsys):
        blob, ref = v3
        bad = tmp_path / "bad.stz"
        bad.write_bytes(corrupt_chunk_payload(blob, 2, byte=5))
        out = tmp_path / "out.npy"
        assert self._run(
            "decompress", str(bad), str(out), "--on-error", "fill"
        ) == 0
        assert "warning" in capsys.readouterr().err
        arr = np.load(out)
        assert np.any(np.isnan(arr))
        finite = ~np.isnan(arr)
        assert np.array_equal(arr[finite], ref[finite])

    def test_decompress_default_raises_on_corruption(self, v3, tmp_path):
        blob, _ = v3
        bad = tmp_path / "bad.stz"
        bad.write_bytes(corrupt_chunk_payload(blob, 2, byte=5))
        with pytest.raises(ChunkCorruptionError):
            self._run("decompress", str(bad), str(tmp_path / "x.npy"))
        assert not (tmp_path / "x.npy").exists()  # atomic: no torn output

    def test_stream_empty_input_leaves_no_file(self, tmp_path):
        src = tmp_path / "empty.npy"
        np.save(src, np.zeros((0, 4, 4), np.float32))
        out = tmp_path / "out.stz"
        with pytest.raises(SystemExit):
            self._run(
                "stream", str(out), str(src), "--eb", "1e-3",
                "--time-axis", "0",
            )
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_compress_checksum_flag(self, field, tmp_path):
        src = tmp_path / "f.npy"
        np.save(src, field)
        out = tmp_path / "f.stz"
        assert self._run(
            "compress", str(src), str(out), "--eb", "1e-3", "--checksum"
        ) == 0
        report = verify_archive(out.read_bytes())
        assert report.ok and not report.unchecked


class TestGoldenArchivesStayUnchecked:
    """Every committed golden archive predates the checksum flag: it
    must verify with zero corruption, report its units as unchecked,
    and keep decoding byte-exactly (covered by test_golden)."""

    def test_all_golden_fixtures(self):
        from pathlib import Path

        golden = Path(__file__).parent / "golden"
        names = sorted(p.name for p in golden.glob("*.stz"))
        assert names, "golden fixtures missing"
        for p in sorted(golden.glob("*.stz")):
            report = verify_archive(p.read_bytes())
            assert not report.corrupt, f"{p.name}: {report.summary()}"
            if p.stem.startswith(("checksummed", "recoverable")):
                assert not report.unchecked, p.name
            else:
                assert report.unchecked, p.name


def test_archive_checksum_is_idempotent(field):
    blob = api.compress(field, EB)
    once = add_archive_checksum(blob)
    assert add_archive_checksum(once) == once
    assert verify_archive(once).ok

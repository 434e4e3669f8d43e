"""Golden container fixtures: the format lock.

``tests/golden/`` holds archives produced by the writer at the time the
format was frozen (see ``make_golden.py`` there), together with the
exact inputs and the exact reconstructions.  These tests pin three
things independently:

1. **Reader stability** — today's reader decodes yesterday's archives
   bit-exactly.  This is the contract that let the multi-frame (v2)
   extension ship without touching single-frame STZ1 archives.
2. **Writer stability** — today's encoder reproduces the committed
   archives byte-for-byte from the committed inputs.  Any intentional
   format change must be flag-gated (new flag bit or version), at
   which point the fixtures are *extended*, not regenerated.
3. **Unknown-flag rejection** — a tampered flag bit must hard-fail,
   never decode to plausible garbage; that rejection is what makes the
   flag mechanism a safe evolution path.
"""

import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.api import (
    compress,
    compress_chunked,
    compress_stream,
    decompress,
    decompress_frame,
)
from repro.core.pipeline import stz_compress, stz_decompress
from repro.core.stream import (
    CODEC_NAMES,
    MultiFrameReader,
    ShardedReader,
    StreamReader,
    unwrap_selected,
)
from repro.core.streaming import StreamingDecompressor

GOLDEN = Path(__file__).parent / "golden"

#: STZ1 fixed header: flags is byte 11 (after magic4 + 7 u8 fields)
_STZ1_FLAGS_OFFSET = 11
#: v2 head: flags is byte 5 (after magic4 + version)
_MULTI_FLAGS_OFFSET = 5
#: 'STZC' envelope: codec id is byte 5, flags byte 6
_SELECT_CODEC_OFFSET = 5
_SELECT_FLAGS_OFFSET = 6
#: v2 frame-table row <QQBB6x>: codec id is byte 17 of the row
_FRAME_ROW_SIZE = 24
_FRAME_CODEC_OFFSET = 17

SINGLE_CONFIGS = [
    ("single_f32", {}),
    ("single_f64", {"levels": 2, "interp": "linear", "f32_quant": False}),
]

#: the archives embed DEFLATE streams, so *writer* byte-stability is
#: only meaningful against the zlib that produced the fixtures; on a
#: host with a different deflate (e.g. zlib-ng) the writer tests skip
#: while the reader bit-exactness tests — the actual compat contract —
#: still run.  Canaries cover both levels the encoders use (payloads
#: at zlib_level=1, Huffman side tables at 6).
_REFERENCE_ZLIB = all(
    zlib.compress(b"stz golden canary" * 8, lvl).hex() == hexdigest
    for lvl, hexdigest in [
        (1, "78012b2ea95248cfcf4949cd53484ecc4b2caa2c1e1801001c7a34c1"),
        (6, "789c2b2ea95248cfcf4949cd53484ecc4b2caa2c1e1801001c7a34c1"),
    ]
)
needs_reference_zlib = pytest.mark.skipif(
    not _REFERENCE_ZLIB, reason="non-reference zlib deflate output"
)


@pytest.mark.parametrize("name", [n for n, _ in SINGLE_CONFIGS])
class TestSingleFrameGolden:
    def test_reader_decodes_bit_exactly(self, name):
        blob = (GOLDEN / f"{name}.stz").read_bytes()
        expected = np.load(GOLDEN / f"{name}_recon.npy")
        recon = stz_decompress(blob)
        assert recon.dtype == expected.dtype
        assert np.array_equal(recon, expected)

    @needs_reference_zlib
    def test_writer_reproduces_archive_bytes(self, name):
        from repro.core.config import STZConfig

        cfg_kw = dict(SINGLE_CONFIGS)[name]
        data = np.load(GOLDEN / f"{name}_input.npy")
        eb = StreamReader((GOLDEN / f"{name}.stz").read_bytes()).header.abs_eb
        blob = stz_compress(data, eb, "abs", STZConfig(**cfg_kw))
        assert blob == (GOLDEN / f"{name}.stz").read_bytes()

    def test_unknown_flag_rejected(self, name):
        blob = bytearray((GOLDEN / f"{name}.stz").read_bytes())
        blob[_STZ1_FLAGS_OFFSET] |= 0x80
        with pytest.raises(ValueError, match="unknown feature flags"):
            StreamReader(bytes(blob))


class TestMultiFrameGolden:
    def test_reader_decodes_bit_exactly(self):
        blob = (GOLDEN / "multi.stz").read_bytes()
        expected = np.load(GOLDEN / "multi_recon.npy")
        frames = list(StreamingDecompressor(blob))
        assert len(frames) == expected.shape[0]
        for t, rec in enumerate(frames):
            assert np.array_equal(rec, expected[t]), f"frame {t}"
        # random access must agree with the sequential decode
        assert np.array_equal(decompress_frame(blob, 1), expected[1])

    @needs_reference_zlib
    def test_writer_reproduces_archive_bytes(self):
        steps = np.load(GOLDEN / "multi_input.npy")
        blob = compress_stream(list(steps), 4e-3, keyframe_interval=2)
        assert blob == (GOLDEN / "multi.stz").read_bytes()

    def test_unknown_container_flag_rejected(self):
        blob = bytearray((GOLDEN / "multi.stz").read_bytes())
        blob[_MULTI_FLAGS_OFFSET] |= 0x20
        with pytest.raises(ValueError, match="unknown feature flags"):
            MultiFrameReader(bytes(blob))

    def test_unknown_flag_in_embedded_frame_rejected(self):
        """A frame payload is a full STZ1 container, so the STZ1 flag
        policy keeps protecting it inside the v2 wrapper."""
        blob = bytearray((GOLDEN / "multi.stz").read_bytes())
        frame0 = MultiFrameReader(bytes(blob)).frame(0)
        blob[frame0.offset + _STZ1_FLAGS_OFFSET] |= 0x80
        sd = StreamingDecompressor(bytes(blob))
        with pytest.raises(ValueError, match="unknown feature flags"):
            sd.read_frame(0)

    def test_pre_codec_id_archive_reads_as_all_stz(self):
        """The codec-id byte took over a zero pad byte: archives written
        before it existed must parse as codec 0 (STZ) on every frame,
        with the MULTI_CODEC gate bit unset."""
        reader = MultiFrameReader((GOLDEN / "multi.stz").read_bytes())
        assert reader.flags == 0
        assert all(f.codec == "stz" for f in reader.frames)


#: golden codec-selected fixtures: name -> (abs_eb, expected codec).
#: The expected codec pins the *selection* itself: a probe-scoring
#: change that silently flips a historical choice should be a
#: conscious fixture regeneration, not an accident.
AUTO_SINGLE_GOLDEN = {
    "auto_const": (1e-3, "szx"),
    "auto_smooth": (4e-3, "sz3"),
}


@pytest.mark.parametrize("name", sorted(AUTO_SINGLE_GOLDEN))
class TestAutoEnvelopeGolden:
    def test_reader_decodes_bit_exactly(self, name):
        blob = (GOLDEN / f"{name}.stz").read_bytes()
        expected = np.load(GOLDEN / f"{name}_recon.npy")
        eb, codec = AUTO_SINGLE_GOLDEN[name]
        assert CODEC_NAMES[unwrap_selected(blob)[0]] == codec
        recon = decompress(blob)
        assert recon.dtype == expected.dtype
        assert np.array_equal(recon, expected)
        data = np.load(GOLDEN / f"{name}_input.npy")
        err = np.abs(
            recon.astype(np.float64) - data.astype(np.float64)
        ).max()
        assert err <= eb

    @needs_reference_zlib
    def test_writer_reproduces_archive_bytes(self, name):
        data = np.load(GOLDEN / f"{name}_input.npy")
        eb, _ = AUTO_SINGLE_GOLDEN[name]
        blob = compress(data, eb, "abs", codec="auto")
        assert blob == (GOLDEN / f"{name}.stz").read_bytes()

    def test_unknown_codec_id_rejected(self, name):
        blob = bytearray((GOLDEN / f"{name}.stz").read_bytes())
        blob[_SELECT_CODEC_OFFSET] = 0x7F
        with pytest.raises(ValueError, match="unknown codec id"):
            decompress(bytes(blob))

    def test_unknown_envelope_flag_rejected(self, name):
        blob = bytearray((GOLDEN / f"{name}.stz").read_bytes())
        blob[_SELECT_FLAGS_OFFSET] |= 0x40
        with pytest.raises(ValueError, match="unknown feature flags"):
            decompress(bytes(blob))


class TestAutoMultiGolden:
    EB = 1e-3
    KEYFRAME = 2
    #: per-frame (codec, is_delta) pinned at fixture time — the v2
    #: codec-id byte layer plus the per-step selection choices
    EXPECTED_FRAMES = [
        ("szx", False), ("sz3", True), ("szx", False), ("szx", True),
    ]

    def test_reader_decodes_bit_exactly(self):
        blob = (GOLDEN / "auto_multi.stz").read_bytes()
        expected = np.load(GOLDEN / "auto_multi_recon.npy")
        reader = MultiFrameReader(blob)
        assert [
            (f.codec, f.is_delta) for f in reader.frames
        ] == self.EXPECTED_FRAMES
        frames = list(StreamingDecompressor(blob))
        assert len(frames) == expected.shape[0]
        for t, rec in enumerate(frames):
            assert np.array_equal(rec, expected[t]), f"frame {t}"
        assert np.array_equal(decompress_frame(blob, 3), expected[3])
        inputs = np.load(GOLDEN / "auto_multi_input.npy")
        for t in range(expected.shape[0]):
            err = np.abs(
                expected[t].astype(np.float64)
                - inputs[t].astype(np.float64)
            ).max()
            assert err <= self.EB, f"frame {t}"

    @needs_reference_zlib
    def test_writer_reproduces_archive_bytes(self):
        steps = np.load(GOLDEN / "auto_multi_input.npy")
        blob = compress_stream(
            list(steps), self.EB,
            keyframe_interval=self.KEYFRAME, codec="auto",
        )
        assert blob == (GOLDEN / "auto_multi.stz").read_bytes()

    def test_unknown_frame_codec_id_rejected(self):
        blob = bytearray((GOLDEN / "auto_multi.stz").read_bytes())
        table_off, _nframes, _magic = struct.unpack(
            "<QI4s", bytes(blob[-16:])
        )
        blob[table_off + _FRAME_ROW_SIZE + _FRAME_CODEC_OFFSET] = 0x7F
        with pytest.raises(ValueError, match="unknown codec id"):
            MultiFrameReader(bytes(blob))

    def test_multi_codec_gate_bit_is_set(self):
        reader = MultiFrameReader((GOLDEN / "auto_multi.stz").read_bytes())
        from repro.core.stream import MULTI_CODEC

        assert reader.flags & MULTI_CODEC


#: sharded (container v3) fixtures: name -> (abs_eb, codec, chunks,
#: expected per-chunk codec ids).  The codec list pins the chunk-level
#: *selection* the same way AUTO_SINGLE_GOLDEN pins envelope choices.
CHUNKED_GOLDEN = {
    "chunked_single": (
        4e-3, "stz", (10, 9, 14), ["stz", "stz", "stz", "stz"],
    ),
    "chunked_auto": (
        4e-3, "auto", (24, 20, 16), ["szx", "sz3", "szx"],
    ),
}

#: v3 fixed head: flags is byte 5 (after magic4 + version)
_SHARD_FLAGS_OFFSET = 5
#: v3 chunk-table row <QQBB6x>: flags byte 16, codec id byte 17
_CHUNK_FLAGS_OFFSET = 16
_CHUNK_CODEC_OFFSET = 17


@pytest.mark.parametrize("name", sorted(CHUNKED_GOLDEN))
class TestChunkedGolden:
    def test_reader_decodes_bit_exactly(self, name):
        blob = (GOLDEN / f"{name}.stz").read_bytes()
        expected = np.load(GOLDEN / f"{name}_recon.npy")
        eb, _codec, chunks, codec_ids = CHUNKED_GOLDEN[name]
        reader = ShardedReader(blob)
        assert reader.plan.chunk_shape == chunks
        assert [c.codec for c in reader.chunks] == codec_ids
        recon = decompress(blob)
        assert recon.dtype == expected.dtype
        assert np.array_equal(recon, expected)
        data = np.load(GOLDEN / f"{name}_input.npy")
        err = np.abs(
            recon.astype(np.float64) - data.astype(np.float64)
        ).max()
        assert err <= eb

    @needs_reference_zlib
    def test_writer_reproduces_archive_bytes(self, name):
        data = np.load(GOLDEN / f"{name}_input.npy")
        eb, codec, chunks, _ = CHUNKED_GOLDEN[name]
        blob = compress_chunked(data, eb, "abs", codec=codec, chunks=chunks)
        assert blob == (GOLDEN / f"{name}.stz").read_bytes()

    def test_unknown_container_flag_rejected(self, name):
        blob = bytearray((GOLDEN / f"{name}.stz").read_bytes())
        blob[_SHARD_FLAGS_OFFSET] |= 0x40
        with pytest.raises(ValueError, match="unknown feature flags"):
            ShardedReader(bytes(blob))

    def _table_offset(self, blob: bytes) -> int:
        table_off, _nchunks, _magic = struct.unpack("<QI4s", blob[-16:])
        return table_off

    def test_unknown_chunk_flag_rejected(self, name):
        blob = bytearray((GOLDEN / f"{name}.stz").read_bytes())
        blob[self._table_offset(bytes(blob)) + _CHUNK_FLAGS_OFFSET] |= 0x04
        with pytest.raises(ValueError, match="unknown chunk flags"):
            ShardedReader(bytes(blob))

    def test_unknown_chunk_codec_id_rejected(self, name):
        blob = bytearray((GOLDEN / f"{name}.stz").read_bytes())
        blob[self._table_offset(bytes(blob)) + _CHUNK_CODEC_OFFSET] = 0x7F
        with pytest.raises(ValueError, match="unknown codec id"):
            ShardedReader(bytes(blob))

    def test_pre_v3_readers_reject_cleanly(self, name):
        """The backward-compat rule: v1/v2 readers fail by magic with a
        pointer at the right opener, never a misparse."""
        blob = (GOLDEN / f"{name}.stz").read_bytes()
        with pytest.raises(ValueError, match="sharded"):
            StreamReader(blob)
        with pytest.raises(ValueError, match="sharded"):
            MultiFrameReader(blob)


#: integrity fixtures: flag-gated checksum/recoverable layers of each
#: container version (constants mirror make_golden.py INTEGRITY_*)
INTEGRITY_GOLDEN = ("checksummed_single", "recoverable_sharded",
                    "recoverable_multi")
_INTEGRITY_EB = 2e-3
_INTEGRITY_KEYFRAME = 2
_INTEGRITY_CHUNKS = (7, 6)


@pytest.mark.parametrize("name", INTEGRITY_GOLDEN)
class TestIntegrityGolden:
    """The checksum/recoverable flag-gated layer, pinned like the base
    formats: reader bit-exactness, writer byte-stability, full
    verification coverage, and pre-integrity reader rejection."""

    def _decode(self, name, blob):
        if name == "recoverable_multi":
            return np.stack(list(StreamingDecompressor(blob)))
        return decompress(blob)

    def test_reader_decodes_bit_exactly(self, name):
        blob = (GOLDEN / f"{name}.stz").read_bytes()
        expected = np.load(GOLDEN / f"{name}_recon.npy")
        assert np.array_equal(self._decode(name, blob), expected)

    @needs_reference_zlib
    def test_writer_reproduces_archive_bytes(self, name):
        data = np.load(GOLDEN / f"{name}_input.npy")
        if name == "checksummed_single":
            blob = compress(data, _INTEGRITY_EB, "abs", checksum=True)
        elif name == "recoverable_sharded":
            blob = compress_chunked(
                data, _INTEGRITY_EB, "abs", chunks=_INTEGRITY_CHUNKS,
                checksum=True, recoverable=True,
            )
        else:
            blob = compress_stream(
                list(data), _INTEGRITY_EB,
                keyframe_interval=_INTEGRITY_KEYFRAME,
                checksum=True, recoverable=True,
            )
        assert blob == (GOLDEN / f"{name}.stz").read_bytes()

    def test_verifies_fully_checked(self, name):
        from repro.core.integrity import verify_archive

        report = verify_archive((GOLDEN / f"{name}.stz").read_bytes())
        assert report.ok
        assert not report.unchecked

    def test_repair_returns_committed_bytes(self, name):
        """Repair only re-frames the recorded payloads (no zlib), so
        the committed bytes need no reference-zlib gate."""
        from repro.core.integrity import repair_archive

        blob = (GOLDEN / f"{name}.stz").read_bytes()
        if name == "checksummed_single":
            with pytest.raises(ValueError, match="single-array"):
                repair_archive(blob)
            return
        rebuilt, report = repair_archive(blob)
        assert report.intact
        assert rebuilt == blob

    def test_integrity_flags_are_set(self, name):
        from repro.core.stream import (
            _FLAG_CHECKSUM,
            MULTI_CHECKSUM,
            MULTI_RECOVER,
            SHARD_CHECKSUM,
            SHARD_RECOVER,
        )

        blob = (GOLDEN / f"{name}.stz").read_bytes()
        if name == "checksummed_single":
            assert blob[_STZ1_FLAGS_OFFSET] & _FLAG_CHECKSUM
        elif name == "recoverable_sharded":
            flags = blob[_SHARD_FLAGS_OFFSET]
            assert flags & SHARD_CHECKSUM and flags & SHARD_RECOVER
        else:
            flags = blob[_MULTI_FLAGS_OFFSET]
            assert flags & MULTI_CHECKSUM and flags & MULTI_RECOVER


@pytest.mark.parametrize("name", ["single_f32", "multi", "chunked_single"])
def test_pre_integrity_fixtures_verify_unchecked(name):
    """The other direction of the compat contract: adding the integrity
    fixtures changed nothing for pre-integrity archives (their bytes are
    pinned by the classes above; here we pin that the *new* verifier
    reports them unchecked, not corrupt)."""
    from repro.core.integrity import verify_archive

    report = verify_archive((GOLDEN / f"{name}.stz").read_bytes())
    assert not report.corrupt
    assert report.unchecked

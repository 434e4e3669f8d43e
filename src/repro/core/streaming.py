"""Stateful streaming compression of time-step sequences (container v2).

Scientific simulations (WarpX, Nyx, ...) emit one field snapshot per
time step, and consecutive snapshots are highly correlated.  The
batch pipeline in :mod:`repro.core.pipeline` treats every array as an
island; this module adds the temporal dimension on top of it without
touching the per-frame format:

* :class:`StreamingCompressor` accepts steps one at a time under a
  bounded-memory window — it holds the previous step's *reconstruction*
  (never the raw inputs) plus one in-flight frame, so memory is O(1
  step) for arbitrarily long sequences.
* Each step is compressed as a *temporal delta*: the residual
  ``step - recon(previous step)`` runs through the full spatial STZ
  cascade (SZ3 level 1 + interpolation levels, the stage-wise
  ``quantize_many``/``huffman_encode_many`` encode path).  Prediction
  is closed-loop — the delta is taken against the decoder's exact
  reconstruction (:func:`repro.core.pipeline.stz_compress_with_recon`),
  so per-step errors never accumulate: every step individually
  satisfies ``max|x_t - x_hat_t| <= abs_eb``.
* Every ``keyframe_interval``-th step is encoded *intra* (no temporal
  prediction), which bounds the roll-forward cost of random access to
  any frame; frame 0 is always intra.
* Frames land in the v2 multi-frame container
  (:class:`repro.core.stream.MultiFrameWriter`): each one is a
  complete, independently seekable STZ1 blob, with the temporal-delta
  fact recorded as a per-frame flag bit.

``codec="auto"`` re-selects the backend per step with *amortized*
probing (DESIGN.md §7): every step pays only a ~0.1 ms feature sample;
full compression probes run once per distinct data regime — at stream
start, when :func:`repro.core.select.features_drifted` fires, or when
the seeded epsilon-greedy cadence schedules a one-candidate refresh.
Scores transfer between the intra and delta selectors through a
stream-scoped cache keyed on the :class:`~repro.core.select.BlockProbe`
feature label, and every committed frame feeds its achieved
bits-per-value back into the winner's score for free.  All of it is
deterministic given (steps, seed).

``overlap=True`` opts into the double-buffered engine: ``append``
hands the encode/verify/write chain to a single worker thread and
returns a future, so the caller's next-step work (simulation output,
file loads, validation, feature sampling) overlaps the previous step's
encode.  The worker runs the *same* serial state machine in the same
order, so the archive is byte-identical to ``overlap=False`` — the
serial path is the determinism reference, and the equality is pinned
by tests.

The hard bound on delta frames deserves a note.  The decoder computes
``recon_t = recon_{t-1} + decode(frame_t)`` in the payload dtype; the
encoder performs the bit-identical addition with bit-identical operands
(both reconstructions are decoder-exact by induction), so it *knows*
the decoder's output and verifies ``max|step - recon_t| <= abs_eb`` in
exact float64.  The spatial pipeline guarantees the residual itself is
within the bound, but the final addition can round in float32 near the
bound edge; on the (rare) step where verification fails, the encoder
falls back to an intra frame — the guarantee stays hard instead of
probabilistic.  :class:`StreamingDecompressor` mirrors all of this and
serves both sequential iteration (O(1) work per step via a one-frame
cache) and per-frame random access (roll-forward from the nearest
keyframe at or before the request).
"""

from __future__ import annotations

import io
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.chunked import (
    _validate_on_error,
    compress_chunked_with_recon,
    decompress_chunked,
)
from repro.core.integrity import (
    ChunkCorruptionError,
    DecodeReport,
    FrameCorruptionError,
)
from repro.core.config import STZConfig
from repro.core.parallel import WorkerPool
from repro.core.pipeline import stz_compress_with_recon
from repro.core.select import (
    CANDIDATES,
    SHORTLISTS,
    BlockProbe,
    CodecSelector,
    bound_holds,
    decode_by_id,
    features_drifted,
    probe_features,
    select_and_compress,
)
from repro.core.stream import (
    CODEC_IDS,
    CODEC_NAMES,
    CODEC_STZ,
    FRAME_DELTA,
    FRAME_SHARDED,
    MULTI_CODEC,
    FrameInfo,
    MultiFrameReader,
    MultiFrameWriter,
)
from repro.util.validation import as_float_array, resolve_eb

#: default intra-frame cadence: random access rolls forward through at
#: most this many delta frames
DEFAULT_KEYFRAME_INTERVAL = 8


@dataclass(frozen=True)
class FrameStats:
    """Accounting for one appended step."""

    index: int
    nbytes: int
    is_delta: bool
    #: the delta encoding was attempted but its closed-loop verification
    #: exceeded the bound (float32 rounding of the final addition), so
    #: the step was re-encoded intra
    fallback: bool
    #: backend that encoded this frame's payload (always "stz" unless
    #: the stream runs a fixed foreign codec or codec="auto")
    codec: str = "stz"


class StreamingCompressor:
    """Compress a sequence of equal-shape time steps, one at a time.

    Parameters
    ----------
    eb, eb_mode:
        Error bound for *every* step.  ``"rel"`` resolves against the
        value range of the first step and then stays fixed, so the
        whole stream shares one absolute bound (a per-step relative
        bound would make the guarantee depend on decode order).
    config:
        Spatial pipeline configuration, applied per frame.
    keyframe_interval:
        Every ``k``-th frame is encoded intra; 1 disables temporal
        prediction entirely.
    sink:
        Optional append-only binary sink (e.g. a file opened ``"wb"``).
        Frames stream straight into it; without a sink the archive
        accumulates in memory and :meth:`close` returns the bytes.
    threads:
        Passed through to the spatial pipeline (the paper's OMP mode).
    overlap:
        Double-buffer the engine: :meth:`append` validates and
        feature-samples on the calling thread, queues the
        encode/verify/write chain on a single worker, and returns a
        ``concurrent.futures.Future[FrameStats]`` instead of a
        :class:`FrameStats` — at most one frame is in flight, so
        memory stays O(1 step).  The archive bytes are identical to
        the serial engine (module docstring).
    chunks, chunk_executor, chunk_workers:
        When ``chunks`` is set, every frame payload — intra steps and
        temporal-delta residuals alike — is a sharded (container v3)
        archive produced by the chunked engine
        (:func:`repro.core.chunked.compress_chunked_with_recon`) under
        the given chunk-level executor, and the frame carries the
        :data:`~repro.core.stream.FRAME_SHARDED` flag (pre-sharding
        readers reject such archives at open).  ``codec="auto"``
        re-selects *per chunk* through the selection engine's
        content-digest probe cache; the stream-level amortized probe
        gate does not apply.  The closed-loop delta contract is
        unchanged: the sharded encoder tracks the decoder-exact
        reconstruction chunk by chunk, and every frame is verified in
        float64 before commit with the intra fallback behind it.
    """

    def __init__(
        self,
        eb: float,
        eb_mode: str = "abs",
        config: STZConfig | None = None,
        keyframe_interval: int = DEFAULT_KEYFRAME_INTERVAL,
        sink: io.IOBase | None = None,
        threads: int | None = None,
        overlap: bool = False,
        chunks: int | tuple[int, ...] | None = None,
        chunk_executor: str = "thread",
        chunk_workers: int | None = None,
        checksum: bool = False,
        recoverable: bool = False,
    ):
        if keyframe_interval < 1:
            raise ValueError("keyframe_interval must be >= 1")
        self.eb = eb
        self.eb_mode = eb_mode
        self.config = config or STZConfig()
        self.keyframe_interval = int(keyframe_interval)
        self.threads = threads
        # codec-selected streams set the MULTI_CODEC gate bit so
        # pre-codec-id readers reject the archive at open; plain STZ
        # streams keep flags 0 and stay byte-identical to before the
        # codec byte existed
        self._chunks = chunks
        self._chunk_executor = chunk_executor
        self._chunk_workers = chunk_workers
        # integrity options (DESIGN.md §9): checksum => per-frame CRCs
        # + whole-archive digest; recoverable => 'STZR' record prefixes
        # so a crash mid-stream leaves a repairable archive.  Sharded
        # frame payloads inherit the checksum so their inner chunk
        # tables verify too.
        self._checksum = bool(checksum) or bool(recoverable)
        # sharded frames record codec id 0 (the codec story lives in
        # the per-chunk v3 table), so the MULTI_CODEC gate only matters
        # for non-sharded foreign-codec frames
        self._writer = MultiFrameWriter(
            sink,
            flags=MULTI_CODEC
            if (self.config.codec != "stz" and chunks is None)
            else 0,
            checksum=checksum,
            recoverable=recoverable,
        )
        if self.config.codec == "auto":
            # independent scorers for intra and delta payloads: a field
            # and its temporal residual have very different statistics,
            # and one EMA would let either pollute the other's ranking.
            # Scores still *transfer* between them when the feature
            # label matches, via the stream-scoped label cache below —
            # a cheap prior that a probe/refresh later corrects.
            explore = self.config.select_explore
            self._sel_intra = CodecSelector(
                seed=self.config.select_seed, explore=explore
            )
            self._sel_delta = CodecSelector(
                seed=self.config.select_seed + 1, explore=explore
            )
            self._last_probe: dict[str, BlockProbe | None] = {
                "intra": None, "delta": None,
            }
            #: feature label -> raw scores of the last full probe in
            #: this stream (either selector) — the label-keyed probe
            #: cache that lets the first delta frame inherit the intra
            #: probe's ranking instead of paying its own
            self._label_scores: dict[str, dict[str, float]] = {}
        self.abs_eb: float | None = None  # resolved at the first step
        self._shape: tuple[int, ...] | None = None
        self._dtype: np.dtype | None = None
        self._prev_recon: np.ndarray | None = None
        self._result: bytes | None = None
        self._closed = False
        self._nappended = 0
        self._overlap = bool(overlap)
        self._pool = ThreadPoolExecutor(max_workers=1) if overlap else None
        self._pending: Future | None = None
        #: warm chunk-level worker pool shared by every sharded frame —
        #: without it each frame pays thread-pool startup/teardown
        #: inside compress_chunked_with_recon (process requests run as
        #: threads there: the private recon buffer must stay in-process)
        self._chunk_pool = (
            WorkerPool("thread", chunk_workers)
            if self._chunks is not None
            else None
        )

    @property
    def nframes(self) -> int:
        """Steps appended so far (including one possibly still being
        encoded by the overlap worker)."""
        return self._nappended

    def _delta_eb(self, step: np.ndarray) -> float:
        """Residual bound for a delta frame: the user bound minus the
        worst-case rounding of the decoder's final ``prev + residual``
        addition (0.5 ulp at the reconstruction's magnitude).  The
        spatial pipeline uses its bound fully — quantized points sit up
        to exactly ``eb`` off — so without this headroom the edge points
        spill past the user bound and every delta frame would fail
        closed-loop verification.  Nonpositive means the bound is below
        the dtype's resolution at this data scale and delta frames
        cannot guarantee it — the caller encodes intra instead.
        """
        if self._prev_recon is None or not step.size:
            return self.abs_eb
        # max|x| == max(|min|, |max|), without materializing |x|
        scale = (
            max(
                abs(float(self._prev_recon.min())),
                abs(float(self._prev_recon.max())),
            )
            + self.abs_eb
        )
        ulp = 2.0**-23 if step.dtype == np.float32 else 2.0**-52
        return self.abs_eb - scale * ulp

    def _maybe_probe(
        self, kind: str, payload: np.ndarray, eb: float
    ) -> tuple[str, ...]:
        """Amortized probe gate for one ``auto`` frame (module
        docstring): feature-sample always; full-probe only into a cold
        selector, on feature drift, or — via the label cache — not at
        all; epsilon-refresh one challenger otherwise."""
        sel = self._sel_intra if kind == "intra" else self._sel_delta
        probe = probe_features(payload, eb)
        shortlist = SHORTLISTS[probe.label]
        # the drift anchor is the features at the last (real or
        # inherited) scoring event, NOT the previous step: comparing
        # consecutive steps would let slow cumulative drift walk
        # arbitrarily far under the tolerance without ever re-probing
        prev = self._last_probe[kind]
        if prev is None:  # cold selector: first frame of this kind
            cached = self._label_scores.get(probe.label)
            if cached is not None:
                sel.fold(cached)  # cross-selector prior, no compressions
            else:
                raw = sel.probe(
                    payload, eb, self.config, shortlist,
                    threads=self.threads, label=probe.label,
                )
                self._label_scores[probe.label] = raw
            self._last_probe[kind] = probe
        elif features_drifted(prev, probe, self.config.select_drift):
            raw = sel.probe(
                payload, eb, self.config, shortlist,
                threads=self.threads, label=probe.label,
            )
            self._label_scores[probe.label] = raw
            self._last_probe[kind] = probe
        elif sel.explore_draw():
            sel.refresh_probe(
                payload, eb, self.config, shortlist, threads=self.threads
            )
        return shortlist

    def _encode_intra(self, step: np.ndarray) -> tuple[bytes, np.ndarray, str]:
        """Encode ``step`` with no temporal prediction; returns
        ``(blob, recon, codec name)``.

        ``codec="auto"`` re-selects per step through the amortized
        probe gate.  Fixed codecs are verified at commit time against
        their encoder-tracked reconstruction and drop to STZ on a bound
        violation, so the stream guarantee never depends on a foreign
        backend's certification being correct.
        """
        if self._chunks is not None:
            blob, recon = compress_chunked_with_recon(
                step, self.abs_eb, "abs", self.config, self._chunks,
                self._chunk_executor, self._chunk_workers, self.threads,
                checksum=self._checksum, pool=self._chunk_pool,
            )
            return blob, recon, "sharded"
        if self.config.codec == "auto":
            shortlist = self._maybe_probe("intra", step, self.abs_eb)
            name, blob, recon = select_and_compress(
                step, self.abs_eb, self.config, self.threads,
                selector=self._sel_intra, shortlist=shortlist,
            )
            return blob, recon, name
        if self.config.codec != "stz":
            cand = CANDIDATES[self.config.codec]
            blob, recon = cand.compress_with_recon(
                step, self.abs_eb, self.config, self.threads
            )
            if bound_holds(step, recon, self.abs_eb):
                return blob, recon, cand.name
        blob, recon = stz_compress_with_recon(
            step, self.abs_eb, "abs", self.config.with_(codec="stz"),
            self.threads,
        )
        return blob, recon, "stz"

    def _encode_delta(
        self, resid: np.ndarray, delta_eb: float
    ) -> tuple[bytes, np.ndarray, str]:
        """Encode one temporal residual; returns ``(blob, resid recon,
        codec name)``.

        ``codec="auto"`` keeps a separate selector over residual
        statistics, behind the same amortized probe gate (drift
        detector + label cache + epsilon challenger refresh).
        """
        if self._chunks is not None:
            blob, rr = compress_chunked_with_recon(
                resid, delta_eb, "abs", self.config, self._chunks,
                self._chunk_executor, self._chunk_workers, self.threads,
                checksum=self._checksum, pool=self._chunk_pool,
            )
            return blob, rr, "sharded"
        if self.config.codec == "auto":
            shortlist = self._maybe_probe("delta", resid, delta_eb)
            name, blob, rr = select_and_compress(
                resid, delta_eb, self.config, self.threads,
                selector=self._sel_delta, shortlist=shortlist,
            )
            return blob, rr, name
        if self.config.codec != "stz":
            cand = CANDIDATES[self.config.codec]
            blob, rr = cand.compress_with_recon(
                resid, delta_eb, self.config, self.threads
            )
            return blob, rr, cand.name
        blob, rr = stz_compress_with_recon(
            resid, delta_eb, "abs", self.config, self.threads
        )
        return blob, rr, "stz"

    def _prepare(self, step: np.ndarray) -> np.ndarray:
        """Caller-thread half of :meth:`append`: validation, dtype
        conversion, and first-step bound resolution.  In overlap mode
        this is the work that runs concurrently with the previous
        frame's encode."""
        if self._closed:
            raise ValueError("compressor already closed")
        step = as_float_array(np.asarray(step))
        if self._shape is None:
            self._shape = step.shape
            self._dtype = step.dtype
            self.abs_eb = resolve_eb(step, self.eb, self.eb_mode)
        elif step.shape != self._shape or step.dtype != self._dtype:
            raise ValueError(
                f"step {self._nappended} is {step.shape} {step.dtype}; "
                f"stream is {self._shape} {self._dtype}"
            )
        self._nappended += 1
        return step

    def _append_sync(self, step: np.ndarray) -> FrameStats:
        """Encode/verify/write one prepared step (the serial state
        machine; the overlap worker runs exactly this)."""
        index = self._writer.nframes
        is_keyframe = index % self.keyframe_interval == 0
        fallback = False
        delta_eb = self._delta_eb(step)
        if self._prev_recon is not None and not is_keyframe and delta_eb > 0:
            blob, resid_recon, name = self._encode_delta(
                step - self._prev_recon, delta_eb
            )
            # the decoder's exact output for this frame — verify the
            # end-to-end bound in float64 before committing (see module
            # docstring for why the final addition can spill)
            recon = self._prev_recon + resid_recon
            err = (
                float(
                    np.max(
                        np.abs(np.subtract(recon, step, dtype=np.float64))
                    )
                )
                if step.size
                else 0.0
            )
            if err <= self.abs_eb:
                self._writer.add_frame(
                    blob, FRAME_DELTA | self._frame_flags,
                    codec_id=self._frame_codec_id(name),
                )
                self._prev_recon = recon
                if self.config.codec == "auto" and self._chunks is None:
                    self._sel_delta.observe(name, 8.0 * len(blob) / step.size)
                return FrameStats(index, len(blob), True, False, name)
            fallback = True
        blob, recon, name = self._encode_intra(step)
        self._writer.add_frame(
            blob, self._frame_flags, codec_id=self._frame_codec_id(name)
        )
        self._prev_recon = recon
        if self.config.codec == "auto" and self._chunks is None:
            self._sel_intra.observe(name, 8.0 * len(blob) / step.size)
        return FrameStats(index, len(blob), False, fallback, name)

    @property
    def _frame_flags(self) -> int:
        return FRAME_SHARDED if self._chunks is not None else 0

    @staticmethod
    def _frame_codec_id(name: str) -> int:
        # sharded frames park the codec byte at 0: the real per-chunk
        # codec choices live in the payload's v3 chunk table
        return CODEC_STZ if name == "sharded" else CODEC_IDS[name]

    def append(self, step: np.ndarray) -> "FrameStats | Future[FrameStats]":
        """Compress and write one time step; returns its accounting
        (a future resolving to it in overlap mode)."""
        step = self._prepare(step)
        if not self._overlap:
            return self._append_sync(step)
        prev, self._pending = self._pending, None
        if prev is not None:
            prev.result()  # depth-1 pipeline; propagates worker errors
        fut = self._pool.submit(self._append_sync, step)
        self._pending = fut
        return fut

    def extend(self, steps) -> list[FrameStats]:
        """Append every step of an iterable (consumed lazily).  In
        overlap mode the iterable's own work — a simulation producing
        the next step, a loader reading it — runs while the previous
        step encodes; the returned stats are resolved."""
        out = [self.append(step) for step in steps]
        if self._overlap:
            return [f.result() for f in out]
        return out

    def _drain(self) -> None:
        """Wait for the in-flight overlap frame (propagates errors)."""
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.result()

    def close(self) -> bytes | None:
        """Finalize the archive.  Returns its bytes for in-memory
        sinks, ``None`` when streaming to an external sink (idempotent
        either way)."""
        if not self._closed:
            try:
                self._drain()
            finally:
                if self._pool is not None:
                    self._pool.shutdown(wait=True)
                if self._chunk_pool is not None:
                    self._chunk_pool.close()
            self._writer.finalize()
            self._result = (
                self._writer.getvalue() if self._writer.in_memory else None
            )
            self._prev_recon = None
            self._closed = True
        return self._result

    def __enter__(self) -> "StreamingCompressor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StreamingDecompressor:
    """Decode a multi-frame archive sequentially or by frame index.

    Holds at most one reconstruction (the last frame decoded), so
    iterating an arbitrarily long archive is O(1 step) memory, and
    sequential access decodes each frame exactly once.  Random access
    to frame ``k`` rolls forward from the nearest intra frame at or
    before ``k`` — at most ``keyframe_interval - 1`` extra decodes —
    or from the cache when it is closer.
    """

    def __init__(
        self,
        source: bytes | memoryview | io.IOBase,
        threads: int | None = None,
        on_error: str = "raise",
        report: DecodeReport | None = None,
    ):
        _validate_on_error(on_error)
        self.reader = MultiFrameReader(source)
        self.threads = threads
        #: fault policy (DESIGN.md §9): ``"raise"`` surfaces a
        #: structured :class:`FrameCorruptionError` /
        #: :class:`ChunkCorruptionError`; ``"fill"`` and ``"skip"``
        #: replace an undecodable frame with NaNs of the stream's
        #: shape/dtype and keep going (there is no caller-owned output
        #: buffer at the frame level, so skip degrades to fill).  A
        #: NaN-degraded frame poisons the delta chain after it — NaN +
        #: delta stays NaN — until the next intra frame resets it.
        self.on_error = on_error
        self.report = report
        self._cache_index = -1
        self._cache: np.ndarray | None = None

    @property
    def nframes(self) -> int:
        return self.reader.nframes

    def __len__(self) -> int:
        return self.nframes

    def frame_info(self, index: int) -> FrameInfo:
        return self.reader.frame(index)

    def _degrade(self, err: FrameCorruptionError) -> np.ndarray:
        """Apply the fault policy to an undecodable frame: raise, or
        record the failure and return a NaN frame.  Without a prior
        reconstruction in the cache the stream's shape/dtype are
        unknown, so the very first decodable frame must decode — the
        error propagates regardless of policy."""
        if self.on_error == "raise" or self._cache is None:
            raise err
        if self.report is not None:
            self.report.record(err)
        return np.full(self._cache.shape, np.nan, self._cache.dtype)

    def _decode_one(self, index: int) -> np.ndarray:
        """Decode frame ``index`` given its predecessor in the cache."""
        info = self.reader.frame(index)
        if self.report is not None:
            self.report.attempted += 1
        try:
            payload = self.reader.read_frame(index)
            if info.has_checksum and zlib.crc32(bytes(payload)) != info.crc:
                raise FrameCorruptionError(
                    index,
                    "sharded" if info.is_sharded else info.codec,
                    "frame payload checksum mismatch",
                )
            if info.is_sharded:
                # chunk-parallel when the caller asked for parallelism;
                # chunk-level faults inside the frame are handled by the
                # inner decode under the same policy (NaN regions, not a
                # whole NaN frame)
                arr = decompress_chunked(
                    payload,
                    executor="thread" if self.threads and self.threads > 1
                    else "serial",
                    workers=self.threads,
                    on_error=self.on_error,
                    report=self.report,
                )
            else:
                arr = decode_by_id(
                    info.codec_id, payload, threads=self.threads
                )
        except (FrameCorruptionError, ChunkCorruptionError) as exc:
            arr = self._degrade(
                exc if isinstance(exc, FrameCorruptionError)
                else FrameCorruptionError(index, exc.codec, str(exc))
            )
        except Exception as exc:
            codec = (
                CODEC_NAMES.get(info.codec_id, str(info.codec_id))
                if not info.is_sharded
                else "sharded"
            )
            err = FrameCorruptionError(index, codec, f"decode failed: {exc}")
            err.__cause__ = exc
            arr = self._degrade(err)
        else:
            if info.is_delta:
                # bit-identical to the encoder's commit-time addition
                arr = self._cache + arr
        self._cache = arr
        self._cache_index = index
        return arr

    def read_frame(self, index: int) -> np.ndarray:
        """The reconstruction of time step ``index`` (a private copy —
        mutating it cannot corrupt later decodes)."""
        info = self.reader.frame(index)  # validates the index
        if index == self._cache_index:
            return self._cache.copy()
        start = index
        while self.reader.frame(start).is_delta:
            start -= 1  # frame 0 is intra (enforced at open)
        if info.is_delta and start <= self._cache_index < index:
            start = self._cache_index + 1  # resume from the cache
        for i in range(start, index + 1):
            recon = self._decode_one(i)
        return recon.copy()

    def __iter__(self):
        for index in range(self.nframes):
            yield self.read_frame(index)

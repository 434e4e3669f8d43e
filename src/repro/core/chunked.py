"""Chunked execution engine: out-of-core compression, parallel
chunk-level decode, and chunk-granular random access (container v3).

Every other path in the repo materializes the full array and runs one
monolithic pipeline over it.  This module decomposes the domain with a
:class:`~repro.core.partition.ChunkPlan` and runs the *unchanged*
per-array pipeline over each chunk independently:

* **compression** (:func:`compress_chunked`) accepts an in-memory
  array, a memory-mapped array, or an iterator of chunk arrays in plan
  order.  Each chunk is compressed exactly as a standalone array would
  be — ``codec="stz"`` produces an STZ1 blob, fixed foreign codecs and
  ``codec="auto"`` produce 'STZC' envelopes through the selection
  engine (:mod:`repro.core.select`) unchanged, including its
  process-wide content-digest probe cache, which similar chunks hit —
  and appended to a :class:`~repro.core.stream.ShardedWriter`.  With a
  ``sink`` and the serial executor, peak memory is O(chunk) end to end
  (memory-mapped inputs additionally have their paged-in chunks
  dropped as the plan advances).
* **decompression** (:func:`decompress_chunked`) decodes chunks
  independently — in parallel under the thread or process executor —
  into a caller-supplied output array or a freshly allocated one.  A
  ``np.memmap`` output under the *serial* executor keeps the reverse
  direction O(chunk) too; the parallel executors leave decoded pages
  resident (speed over the memory bound — DESIGN.md §8).  With the
  compiled decode kernels engaged (DESIGN.md §10) the hot per-chunk
  work — Huffman walk, fused predict+dequantize, reassembly scatter —
  runs inside GIL-releasing ctypes calls, so the *thread* executor
  gets real chunk-level concurrency, not interpreter turn-taking.
* **random access** (:func:`decompress_chunked_roi`) uses the chunk
  table to touch only the chunks intersecting the query box, and
  within STZ-coded chunks reuses the sub-chunk random-access path.

Executor semantics (:mod:`repro.core.parallel`): results are assembled
in plan order and every chunk's bytes depend only on its content and
the config, so the archive is byte-identical across ``serial``,
``thread`` and ``process`` executors — the determinism contract the v3
golden/determinism tests pin.  The process paths avoid pickling chunk
arrays: workers inherit the source array (or archive buffer) through
fork and slice/decode locally; decoded chunks are written into a
shared mapping (``multiprocessing.shared_memory`` or the file-backed
output memmap) instead of being shipped back.

The hard L-infinity bound is preserved trivially: the absolute bound is
resolved once for the whole array (``"rel"`` scans the value range
chunk by chunk, matching the monolithic resolution exactly) and every
chunk is independently encoded at that bound, so no chunk seam can
exceed it — the chunked conformance sweep asserts this across seams
for every backend.  What chunking *does* cost is compression ratio
(per-chunk container overhead and lost cross-chunk prediction);
``tests/test_perf_gates.py::test_chunked_cr_penalty`` floors that
penalty.
"""

from __future__ import annotations

import io
import mmap
import zlib
from multiprocessing import shared_memory
from typing import Iterable, Iterator

import numpy as np

from repro.core.config import STZConfig
from repro.core.integrity import ChunkCorruptionError, DecodeReport
from repro.core.parallel import (
    WorkerPool,
    engine_executor,
    execute_map,
    resolve_executor,
)
from repro.core.partition import ChunkPlan
from repro.core.pipeline import stz_compress_with_recon, stz_decompress
from repro.core.random_access import normalize_roi, stz_decompress_roi
from repro.core.select import CANDIDATES, decode_by_id, select_and_compress
from repro.core.stream import (
    CODEC_STZ,
    ChunkEntry,
    ShardedReader,
    ShardedWriter,
    is_selected,
    read_extent,
    unwrap_selected,
    wrap_selected,
)
from repro.util.validation import check_positive

#: default per-axis chunk extent when the caller gives no spec — large
#: enough that per-chunk container overhead is small against payload,
#: small enough that O(chunk) working sets are a real memory bound
DEFAULT_CHUNK_EDGE = 64


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _validate_array(data: np.ndarray) -> None:
    """Dtype/size checks without materializing (memmap-safe: the
    :func:`repro.util.validation.as_float_array` contiguity copy would
    page the whole file in)."""
    if data.dtype not in (np.float32, np.float64):
        raise TypeError(
            f"expected float32/float64 data, got {data.dtype}"
        )
    if data.size == 0:
        raise ValueError("cannot compress an empty array")


def _release_mapped(arr: np.ndarray) -> None:
    """Drop a memory-mapped array's resident pages (best effort).

    Called between chunks on the serial paths so walking an
    arbitrarily large ``np.memmap`` keeps RSS at O(chunk): without it
    every paged-in chunk stays resident until the kernel feels memory
    pressure, and the out-of-core benchmark's peak-RSS assertion would
    measure page-cache behavior instead of the engine's working set.
    Dirty pages of writable maps are flushed first so DONTNEED cannot
    discard unwritten output.
    """
    mm = getattr(arr, "_mmap", None)
    if mm is None and isinstance(getattr(arr, "base", None), mmap.mmap):
        mm = arr.base
    if mm is None:
        return
    try:  # flush fails on read-only maps; DONTNEED is still safe there
        mm.flush()
    except (AttributeError, ValueError, OSError):
        pass
    try:
        mm.madvise(mmap.MADV_DONTNEED)
    except (AttributeError, ValueError, OSError):
        pass  # madvise is advisory; platforms without it just keep pages


def _chunkwise_range(data: np.ndarray, plan: ChunkPlan) -> tuple[float, float]:
    """Global (min, max) computed one chunk at a time (O(chunk) memory,
    same result as ``np.min``/``np.max`` over the whole array).

    Accumulation uses ``np.minimum``/``np.maximum`` so a NaN anywhere
    poisons the result exactly like the monolithic reduction would —
    Python's ``min``/``max`` would silently *drop* NaN chunks and
    resolve a relative bound from whatever finite chunks remain, a
    bound that would depend on chunk geometry.
    """
    lo = np.float64(np.inf)
    hi = np.float64(-np.inf)
    for info in plan:
        block = data[info.slices]
        lo = np.minimum(lo, np.min(block))
        hi = np.maximum(hi, np.max(block))
        _release_mapped(data)
    return float(lo), float(hi)


def _resolve_eb_chunked(
    data: np.ndarray, eb: float, eb_mode: str, plan: ChunkPlan
) -> float:
    """Chunk-wise twin of :func:`repro.util.validation.resolve_eb` —
    one absolute bound for the whole array, every chunk encodes at it."""
    check_positive(eb, "error bound")
    if eb_mode == "abs":
        return float(eb)
    if eb_mode == "rel":
        lo, hi = _chunkwise_range(data, plan)
        rng = hi - lo
        return float(eb) * (rng if rng > 0 else 1.0)
    raise ValueError(f"unknown eb_mode {eb_mode!r} (use 'abs' or 'rel')")


def _encode_chunk(
    chunk: np.ndarray,
    abs_eb: float,
    config: STZConfig,
    threads: int | None,
    with_recon: bool,
) -> tuple[bytes, int, np.ndarray | None]:
    """Compress one chunk exactly like a standalone array.

    Returns ``(payload, codec_id, recon-or-None)``: an STZ1 blob for
    ``codec="stz"``, an 'STZC' envelope otherwise — byte-identical to
    what :func:`repro.core.api.compress` would emit for this chunk with
    an absolute bound, which is what lets per-chunk ``auto`` reuse the
    selection engine (probes, verification, probe cache) unchanged.
    """
    chunk = np.ascontiguousarray(chunk)
    if config.codec == "stz":
        blob, recon = stz_compress_with_recon(
            chunk, abs_eb, "abs", config, threads
        )
        return blob, CODEC_STZ, recon if with_recon else None
    if config.codec == "auto":
        name, blob, recon = select_and_compress(
            chunk, abs_eb, config, threads
        )
        cand = CANDIDATES[name]
        return (
            wrap_selected(cand.codec_id, blob),
            cand.codec_id,
            recon if with_recon else None,
        )
    cand = CANDIDATES[config.codec]
    if with_recon:
        blob, recon = cand.compress_with_recon(chunk, abs_eb, config, threads)
    else:
        blob = cand.compress(chunk, abs_eb, config, threads)
        recon = None
    return wrap_selected(cand.codec_id, blob), cand.codec_id, recon


def _decode_chunk_payload(
    payload: bytes | memoryview, threads: int | None = None
) -> np.ndarray:
    """Decode one chunk payload (plain STZ1 blob or 'STZC' envelope)."""
    if is_selected(payload):
        codec_id, inner = unwrap_selected(payload)
        return decode_by_id(codec_id, inner, threads)
    return stz_decompress(payload, threads=threads)


def _check_chunk_payload(
    entry: ChunkEntry, payload: bytes | memoryview
) -> None:
    """Verify a chunk payload against its table CRC (checksummed
    archives only — pre-checksum rows are "unchecked" by design)."""
    if not entry.has_checksum:
        return
    computed = zlib.crc32(payload)
    if computed != entry.crc:
        raise ChunkCorruptionError(
            entry.index,
            entry.codec,
            f"payload checksum mismatch (stored 0x{entry.crc:08x}, "
            f"computed 0x{computed:08x})",
        )


def _as_chunk_error(exc: Exception, entry: ChunkEntry) -> ChunkCorruptionError:
    """Attach chunk index + codec context to a decode failure (already
    structured errors pass through untouched)."""
    if isinstance(exc, ChunkCorruptionError):
        return exc
    err = ChunkCorruptionError(entry.index, entry.codec, str(exc))
    err.__cause__ = exc
    return err


def _decode_verified(
    entry: ChunkEntry,
    payload: bytes | memoryview,
    threads: int | None = None,
    local: tuple[slice, ...] | None = None,
) -> np.ndarray:
    """CRC-check and decode one chunk payload — the whole chunk, or
    only its chunk-``local`` window.  Any failure surfaces as a
    :class:`ChunkCorruptionError` with chunk context.  Reading the
    payload, and what a failure means (``on_error``), stay with the
    caller.

    A window of an STZ-coded chunk (plain STZ1 blob or 'STZC'-enveloped
    auto selection) runs the sub-chunk random-access path; foreign
    codecs and ablation configs decode fully and crop.
    """
    try:
        _check_chunk_payload(entry, payload)
        if local is not None:
            if is_selected(payload):
                inner_id, inner = unwrap_selected(payload)
            else:
                inner_id, inner = entry.codec_id, payload
            if inner_id == CODEC_STZ:
                try:
                    return stz_decompress_roi(
                        inner, local, threads=threads
                    ).data
                except NotImplementedError:
                    pass  # ablation configs: fall back to full decode
            return _decode_chunk_payload(payload, threads)[local]
        return _decode_chunk_payload(payload, threads)
    except Exception as exc:
        raise _as_chunk_error(exc, entry)


def roi_chunk_windows(
    box: tuple[tuple[int, int], ...], info
) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """The two windows a chunk contributes to a normalized ROI box:
    ``(local, dest)`` — the chunk-local slice of the intersection and
    where it lands in the box-shaped output.  One definition shared by
    :func:`decompress_chunked_roi` and the serve layer's cache-fed ROI
    assembly, so the two paths cannot disagree about geometry."""
    local = tuple(
        slice(max(lo, o) - o, min(hi, o + n) - o)
        for (lo, hi), o, n in zip(box, info.origin, info.shape)
    )
    dest = tuple(
        slice(o + sl.start - lo, o + sl.stop - lo)
        for (lo, _), o, sl in zip(box, info.origin, local)
    )
    return local, dest


def _validate_on_error(on_error: str) -> None:
    if on_error not in ("raise", "skip", "fill"):
        raise ValueError(
            f"unknown on_error policy {on_error!r} "
            "(use 'raise', 'skip' or 'fill')"
        )


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def _compress_worker(state, index: int) -> tuple[bytes, int]:
    """Executor task: slice chunk ``index`` out of the (inherited or
    shared) source array and compress it.  Only the index crosses a
    process boundary inbound; the returned payload is already
    compressed."""
    data, plan, abs_eb, config, threads, recon_out = state
    info = plan.chunk(index)
    try:
        blob, codec_id, recon = _encode_chunk(
            data[info.slices], abs_eb, config, threads, recon_out is not None
        )
    except Exception as exc:
        # chunk context makes multi-chunk failure reports actionable —
        # and survives the pickle back from a fork worker
        raise RuntimeError(
            f"compressing chunk {index} (codec {config.codec!r}, origin "
            f"{info.origin}) failed: {exc}"
        ) from exc
    if recon_out is not None:
        recon_out[info.slices] = recon
    return blob, codec_id


def _run_compress(
    data: np.ndarray,
    plan: ChunkPlan,
    abs_eb: float,
    config: STZConfig,
    writer: ShardedWriter,
    executor: str,
    workers: int | None,
    threads: int | None,
    recon_out: np.ndarray | None,
    pool: WorkerPool | None = None,
) -> None:
    # capacity-gated: a 1-core host runs the serial reference walk
    # (byte-identical output, none of the pool overhead)
    kind, n = engine_executor(executor, workers)
    if kind == "serial":
        # the O(chunk)-memory reference walk: one chunk in flight,
        # memmap pages dropped as the plan advances
        state = (data, plan, abs_eb, config, threads, recon_out)
        for index in range(plan.nchunks):
            blob, codec_id = _compress_worker(state, index)
            writer.add_chunk(blob, codec_id)
            _release_mapped(data)
        return
    # parallel chunk-level compression: intra-chunk threading is
    # disabled (chunk-level parallelism replaces it; nesting pools
    # oversubscribes), and results are folded back in plan order
    state = (data, plan, abs_eb, config, None, recon_out)
    if kind == "process" and recon_out is not None and not _is_shared(recon_out):
        # fork gives workers copy-on-write memory: their recon writes
        # would be invisible to the parent.  Private recon buffers only
        # work in-process.
        raise ValueError(
            "process executor needs a shared (memmap/shared-memory) "
            "reconstruction buffer"
        )
    # retry=1: a worker lost to the OOM killer / a segfault breaks the
    # pool, not the chunks — the survivors re-run serially in-process
    for blob, codec_id in execute_map(
        _compress_worker, list(range(plan.nchunks)), state, kind, n,
        retry=1, pool=pool,
    ):
        writer.add_chunk(blob, codec_id)
    _release_mapped(data)


def _is_shared(arr: np.ndarray) -> bool:
    """Whether child-process writes into ``arr`` reach this process
    (file-backed memmap or shared-memory-backed ndarray)."""
    if getattr(arr, "_mmap", None) is not None:
        return True
    base = arr
    while getattr(base, "base", None) is not None:
        base = base.base
        if isinstance(base, (mmap.mmap, shared_memory.SharedMemory)):
            return True
    return isinstance(base, mmap.mmap)


def compress_chunked(
    data: "np.ndarray | Iterable[np.ndarray]",
    eb: float,
    eb_mode: str = "abs",
    config: STZConfig | None = None,
    chunks: int | tuple[int, ...] | None = None,
    executor: str = "thread",
    workers: int | None = None,
    threads: int | None = None,
    sink: io.IOBase | None = None,
    shape: tuple[int, ...] | None = None,
    checksum: bool = False,
    recoverable: bool = False,
    pool: WorkerPool | None = None,
) -> bytes | None:
    """Compress ``data`` into a sharded (container v3) archive.

    ``checksum=True`` records per-chunk CRC32s plus a whole-archive
    digest (flag-gated: pre-checksum readers reject the archive
    cleanly); ``recoverable=True`` additionally prefixes every chunk
    with an 'STZR' record so a crash before finalize leaves a
    repairable stream — see DESIGN.md §9.

    ``data`` is an ndarray (memory-mapped arrays welcome — chunks are
    sliced out one at a time and released) or an iterator yielding the
    plan's chunk arrays in C order (``shape`` is then required and
    ``eb_mode`` must be ``"abs"``; the engine never holds more than the
    in-flight chunks).  ``chunks`` is a per-axis chunk shape or one
    edge for all axes (default ``64``); ``executor``/``workers`` pick
    the chunk-level pool (:data:`repro.core.parallel.EXECUTORS`) and
    ``threads`` feeds the intra-chunk pipeline on the serial executor.
    With a ``sink`` the archive streams to it and ``None`` is returned;
    otherwise the archive bytes are returned.  ``pool`` (an optional
    :class:`~repro.core.parallel.WorkerPool` of the matching kind)
    reuses warm workers across engine calls — repeated compressions,
    streaming frames, bench reps — instead of paying pool startup per
    call; its lifetime (and ``close()``) belongs to the caller.

    The archive bytes are identical for every executor (module
    docstring); the hard bound is the single resolved absolute bound,
    enforced independently inside every chunk.
    """
    config = config or STZConfig()
    if isinstance(data, np.ndarray):
        return _compress_chunked_array(
            data, eb, eb_mode, config, chunks, executor, workers,
            threads, sink, None, checksum, recoverable, pool,
        )
    if shape is None:
        raise ValueError("chunk-iterator input requires shape=")
    if eb_mode != "abs":
        raise ValueError(
            "chunk-iterator input supports only eb_mode='abs' (the "
            "relative range cannot be known without buffering the "
            "whole stream)"
        )
    check_positive(eb, "error bound")
    return _compress_chunk_iter(
        iter(data), float(eb), config, chunks, executor, workers,
        threads, shape, sink, checksum, recoverable, pool,
    )


def compress_chunked_with_recon(
    data: np.ndarray,
    eb: float,
    eb_mode: str = "abs",
    config: STZConfig | None = None,
    chunks: int | tuple[int, ...] | None = None,
    executor: str = "thread",
    workers: int | None = None,
    threads: int | None = None,
    checksum: bool = False,
    pool: WorkerPool | None = None,
) -> tuple[bytes, np.ndarray]:
    """:func:`compress_chunked` plus the decoder's exact reconstruction
    (assembled chunk by chunk from the encoder-tracked per-chunk
    recons) — the closed-loop input the streaming subsystem's sharded
    delta frames need.  In-memory by necessity: the reconstruction is
    a full array.  ``pool`` follows the :func:`compress_chunked`
    contract (the streaming subsystem passes one so its per-frame
    thread pool stays warm across the whole stream)."""
    config = config or STZConfig()
    _validate_array(data)
    recon = np.empty(data.shape, dtype=data.dtype)
    kind, _ = resolve_executor(executor, workers)
    if kind == "process":
        executor = "thread"  # private recon buffer: stay in-process
    blob = _compress_chunked_array(
        data, eb, eb_mode, config, chunks, executor, workers, threads,
        None, recon, checksum, False, pool,
    )
    return blob, recon


def _compress_chunked_array(
    data: np.ndarray,
    eb: float,
    eb_mode: str,
    config: STZConfig,
    chunks: int | tuple[int, ...] | None,
    executor: str,
    workers: int | None,
    threads: int | None,
    sink: io.IOBase | None,
    recon_out: np.ndarray | None,
    checksum: bool = False,
    recoverable: bool = False,
    pool: WorkerPool | None = None,
) -> bytes | None:
    _validate_array(data)
    plan = ChunkPlan.regular(
        data.shape, chunks if chunks is not None else DEFAULT_CHUNK_EDGE
    )
    abs_eb = _resolve_eb_chunked(data, eb, eb_mode, plan)
    writer = ShardedWriter(
        data.shape, data.dtype, plan.chunk_shape, sink,
        checksum=checksum, recoverable=recoverable,
    )
    _run_compress(
        data, plan, abs_eb, config, writer, executor, workers, threads,
        recon_out, pool,
    )
    writer.finalize()
    return writer.getvalue() if writer.in_memory else None


def _compress_chunk_iter(
    it: Iterator[np.ndarray],
    abs_eb: float,
    config: STZConfig,
    chunks: int | tuple[int, ...] | None,
    executor: str,
    workers: int | None,
    threads: int | None,
    shape: tuple[int, ...],
    sink: io.IOBase | None,
    checksum: bool = False,
    recoverable: bool = False,
    pool: WorkerPool | None = None,
) -> bytes | None:
    """Compress a chunk iterator with a bounded in-flight window.

    The thread executor keeps at most ``workers`` chunks in flight (a
    depth-``workers`` pipeline: the producer fills the window while
    finished chunks drain to the writer in plan order); the serial
    executor holds exactly one.  The process executor degrades to
    threads — future chunks cannot be fork-inherited.  A matching
    ``pool`` supplies the (warm) thread pool instead of a per-call one.
    """
    shape = tuple(int(n) for n in shape)
    plan = ChunkPlan.regular(
        shape, chunks if chunks is not None else DEFAULT_CHUNK_EDGE
    )
    kind, n = engine_executor(
        "thread" if executor == "process" else executor, workers
    )
    writer: ShardedWriter | None = None
    dtype: np.dtype | None = None

    def pull(index: int) -> np.ndarray:
        nonlocal writer, dtype
        info = plan.chunk(index)
        try:
            chunk = np.asarray(next(it))
        except StopIteration:
            raise ValueError(
                f"chunk iterator exhausted at chunk {index}; the plan "
                f"needs {plan.nchunks} chunks"
            ) from None
        if dtype is None:
            if chunk.dtype not in (np.float32, np.float64):
                raise TypeError(
                    f"expected float32/float64 chunks, got {chunk.dtype}"
                )
            dtype = chunk.dtype
            writer = ShardedWriter(
                shape, dtype, plan.chunk_shape, sink,
                checksum=checksum, recoverable=recoverable,
            )
        if chunk.shape != info.shape or chunk.dtype != dtype:
            raise ValueError(
                f"chunk {index} is {chunk.shape} {chunk.dtype}; the plan "
                f"expects {info.shape} {dtype}"
            )
        return np.ascontiguousarray(chunk)

    if kind == "serial":
        for index in range(plan.nchunks):
            blob, codec_id, _ = _encode_chunk(
                pull(index), abs_eb, config, threads, False
            )
            writer.add_chunk(blob, codec_id)
    else:
        window = max(2, n)
        owned = pool is None or pool.kind != "thread"
        if owned:
            pool = WorkerPool("thread", n)
        tpe = pool.thread_pool()
        try:
            pending: list = []
            for index in range(plan.nchunks):
                pending.append(
                    tpe.submit(
                        _encode_chunk, pull(index), abs_eb, config, None,
                        False,
                    )
                )
                while len(pending) >= window:
                    blob, codec_id, _ = pending.pop(0).result()
                    writer.add_chunk(blob, codec_id)
            for fut in pending:
                blob, codec_id, _ = fut.result()
                writer.add_chunk(blob, codec_id)
        finally:
            if owned:  # a caller-owned pool outlives this call
                pool.close()
    remaining = next(it, None)
    if remaining is not None:
        raise ValueError(
            f"chunk iterator yielded more than the plan's "
            f"{plan.nchunks} chunks"
        )
    writer.finalize()
    return writer.getvalue() if writer.in_memory else None


# ---------------------------------------------------------------------------
# decompression
# ---------------------------------------------------------------------------

def _open_sharded(
    source: "bytes | memoryview | io.IOBase | ShardedReader",
) -> ShardedReader:
    if isinstance(source, ShardedReader):
        return source
    return ShardedReader(source)


def _decode_worker(state, index: int) -> "ChunkCorruptionError | None":
    """Executor task: fetch chunk ``index``'s payload from the
    (inherited) archive, verify its checksum, decode it, and write it
    into the shared output mapping.  Nothing heavier than the index
    crosses a process boundary in either direction.

    Under ``on_error != "raise"`` a failed chunk *returns* its
    structured error instead of raising — one corrupt chunk must not
    fail the other chunks' futures (and the error still pickles back
    with full context, via ``ChunkCorruptionError.__reduce__``).
    """
    src, entries, plan, out, threads, on_error = state
    entry = entries[index]
    try:
        what = ShardedReader._fmt.name
        if isinstance(src, str):
            # file path: workers read independently (no shared fd offset)
            with open(src, "rb") as fh:
                payload = read_extent(fh, entry.offset, entry.length, what)
        else:
            payload = read_extent(src, entry.offset, entry.length, what)
        out[plan.chunk(index).slices] = _decode_verified(
            entry, payload, threads
        )
    except Exception as exc:
        err = _as_chunk_error(exc, entry)
        if on_error == "raise":
            raise err
        return err
    return None


def decompress_chunked(
    source: "bytes | memoryview | io.IOBase | ShardedReader",
    out: np.ndarray | None = None,
    executor: str = "serial",
    workers: int | None = None,
    threads: int | None = None,
    on_error: str = "raise",
    report: DecodeReport | None = None,
    pool: WorkerPool | None = None,
) -> np.ndarray:
    """Reconstruct a sharded archive, chunk-parallel.

    ``out`` (optional) receives the reconstruction in place — pass a
    ``np.memmap`` with the serial executor to keep decompression at
    O(chunk) memory (decoded pages are dropped as the walk advances;
    the parallel executors skip that release, so their peak RSS is
    bounded by the output size, not the chunk size — DESIGN.md §8's
    memory contract).  ``out`` must match the archive's shape and
    dtype.  ``executor``/``workers`` parallelize across chunks; under
    the process executor decoded chunks land directly in a shared
    mapping (the ``out`` memmap, or an anonymous shared-memory buffer
    that is copied out once at the end), never in a pickle.

    ``on_error`` is the fault-tolerance contract (DESIGN.md §9):
    ``"raise"`` (default) surfaces the first corrupt chunk as a
    :class:`~repro.core.integrity.ChunkCorruptionError`; ``"fill"``
    decodes everything decodable and NaN-fills the failed chunks'
    regions; ``"skip"`` leaves failed regions untouched in a
    caller-provided ``out`` (without ``out`` a fresh allocation has no
    prior contents, so skip fills NaN too — never uninitialized
    memory).  Degraded chunks are recorded in ``report`` (a
    :class:`~repro.core.integrity.DecodeReport`), so "clean" and
    "NaN-filled two chunks" are distinguishable.
    """
    _validate_on_error(on_error)
    reader = _open_sharded(source)
    plan = reader.plan
    if out is not None:
        if tuple(out.shape) != plan.shape or out.dtype != reader.dtype:
            raise ValueError(
                f"out is {tuple(out.shape)} {out.dtype}; archive is "
                f"{plan.shape} {reader.dtype}"
            )
    # capacity-gated like _run_compress: a truly 1-core host decodes
    # through the serial walk (identical result, no pool overhead)
    kind, n = engine_executor(executor, workers)
    if report is not None:
        report.attempted += plan.nchunks
    # "skip" without a caller buffer would leave np.empty garbage —
    # silent wrong data, the one thing this layer exists to prevent
    fill_failed = on_error == "fill" or (on_error == "skip" and out is None)

    def degrade(err: ChunkCorruptionError, target: np.ndarray) -> None:
        if report is not None:
            report.record(err)
        if fill_failed:
            target[plan.chunk(err.chunk_index).slices] = np.nan

    if kind == "serial":
        result = (
            out if out is not None
            else np.empty(plan.shape, dtype=reader.dtype)
        )
        for info in plan:
            entry = reader.chunk(info.index)
            try:
                payload = reader.read_chunk(info.index)
                result[info.slices] = _decode_verified(entry, payload, threads)
            except Exception as exc:
                err = _as_chunk_error(exc, entry)
                if on_error == "raise":
                    raise err
                degrade(err, result)
            _release_mapped(result)
        return result

    shm: shared_memory.SharedMemory | None = None
    if out is not None and (kind != "process" or _is_shared(out)):
        target = out
    elif kind == "process":
        # decoded chunks must reach the parent: write them into an
        # anonymous shared-memory buffer the workers inherit
        shm = shared_memory.SharedMemory(
            create=True, size=int(np.prod(plan.shape)) * reader.dtype.itemsize
        )
        target = np.ndarray(plan.shape, dtype=reader.dtype, buffer=shm.buf)
    else:
        target = np.empty(plan.shape, dtype=reader.dtype)
    if target is not out and out is not None and on_error == "skip":
        # skipped regions must keep the caller buffer's prior contents
        # even though the decode stages through a separate mapping
        target[...] = out
    try:
        state = (
            reader.worker_source(),
            reader.chunks,
            plan,
            target,
            None,  # intra-chunk threads off under chunk-level pools
            on_error,
        )
        # retry=1: BrokenProcessPool (a killed worker) fails futures,
        # not chunks — the affected chunks re-run serially in-process.
        # Genuinely corrupt chunks raise the same structured error on
        # the retry (on_error="raise") or came back as error values
        # (skip/fill), so retries never mask corruption.
        for outcome in execute_map(
            _decode_worker, list(range(plan.nchunks)), state, kind, n,
            retry=1, pool=pool,
        ):
            if isinstance(outcome, ChunkCorruptionError):
                degrade(outcome, target)
        reader.bytes_read += sum(c.length for c in reader.chunks)
        if target is out:
            return out
        if out is not None:
            out[...] = target
            return out
        if shm is not None:
            return target.copy()
        return target
    finally:
        if shm is not None:
            shm.close()
            shm.unlink()


# ---------------------------------------------------------------------------
# chunk-granular random access
# ---------------------------------------------------------------------------

def decompress_chunked_roi(
    source: "bytes | memoryview | io.IOBase | ShardedReader",
    roi: tuple[slice | int, ...],
    threads: int | None = None,
    workers: int | None = None,
    on_error: str = "raise",
    report: DecodeReport | None = None,
    pool: WorkerPool | None = None,
) -> np.ndarray:
    """Reconstruct only the chunks intersecting ``roi``.

    The chunk table bounds the work to the intersecting chunks (all
    others are never read — the I/O half), and STZ-coded chunks
    additionally run the sub-chunk random-access path
    (:func:`repro.core.random_access.stz_decompress_roi`) over their
    local window, so a small box inside a large chunk still skips the
    sub-blocks it cannot touch.  Bit-identical to cropping a full
    decompression.

    ``on_error``/``report`` follow the :func:`decompress_chunked`
    contract; the ROI output is always freshly allocated, so both
    ``"skip"`` and ``"fill"`` NaN-fill a failed chunk's slice of the
    box (never uninitialized memory).
    """
    _validate_on_error(on_error)
    reader = _open_sharded(source)
    plan = reader.plan
    box = normalize_roi(plan.shape, roi)
    out = np.empty(tuple(hi - lo for lo, hi in box), dtype=reader.dtype)

    indices = plan.intersecting(box)
    # when the decode fans out, payloads are fetched serially up front:
    # file-backed readers share one fd whose seek()+read() pairs must
    # not interleave across threads (in-memory sources hand back
    # zero-copy views, so the prefetch costs nothing there).  The
    # serial walk has no such hazard and keeps reading one payload at a
    # time.  Only the intersecting chunks are ever read either way.
    fan_out = bool(workers and workers > 1) and len(indices) > 1
    if fan_out:
        # same capacity gate as the other engine entry points: on a
        # truly 1-core host the serial walk wins (and skips the
        # up-front payload prefetch the fan-out needs)
        fan_out = engine_executor("thread", workers)[0] == "thread"

    def prefetch(index: int) -> "bytes | memoryview | None":
        # a payload that cannot even be *read* is re-fetched (and
        # re-failed, with chunk context) inside one() — where the
        # on_error policy applies
        try:
            return reader.read_chunk(index)
        except ValueError:
            return None

    tasks = [
        (index, prefetch(index) if fan_out else None)
        for index in indices
    ]
    if report is not None:
        report.attempted += len(indices)
    # chunk-level parallelism replaces intra-chunk threading (nesting
    # pools oversubscribes — same rule as _run_compress)
    threads = None if fan_out else threads

    def one(task: "tuple[int, bytes | memoryview | None]") -> None:
        index, payload = task
        entry = reader.chunk(index)
        info = plan.chunk(index)
        local, dest = roi_chunk_windows(box, info)
        try:
            if payload is None:
                payload = reader.read_chunk(index)
            out[dest] = _decode_verified(entry, payload, threads, local)
        except Exception as exc:
            err = _as_chunk_error(exc, entry)
            if on_error == "raise":
                raise err
            if report is not None:
                report.record(err)
            out[dest] = np.nan

    # same worker semantics as the other chunked entry points: an
    # explicit multi-worker request is honored (resolve_executor), not
    # capacity-gated away like pmap would on a 1-core host.  Threads
    # only — the workers write into the caller-local `out` closure.
    execute_map(
        lambda _state, task: one(task),
        tasks,
        None,
        "thread" if fan_out else "serial",
        workers,
        pool=pool,
    )
    return out

"""CPU engine behind the serve endpoints.

All tenants' CPU-bound work funnels through one :class:`ServeEngine`:

* a small **dispatch** thread pool that the asyncio loop offloads
  blocking calls onto (``loop.run_in_executor``) — sized with the
  admission gate so a full gate, not a full pool, is what callers hit
  first;
* one shared warm :class:`~repro.core.parallel.WorkerPool` that every
  dispatched call drives through :func:`~repro.core.parallel.
  execute_map` — chunk-level decode/compress parallelism is pooled
  across tenants instead of per-request pool startup.  The handle
  serializes its own fork side, so process-executor maps from
  concurrent requests queue inside it; the thread side is driven
  concurrently as designed — and since the compiled decode kernels
  (DESIGN.md §10) release the GIL for the Huffman/reconstruction work,
  concurrent cache-miss decodes on the thread executor genuinely
  overlap instead of serializing on the interpreter;
* the process-wide :class:`~repro.serve.cache.DecodedChunkCache`,
  consulted before any decode work is scheduled and populated only
  with *verified* chunks (checksum passed and decode succeeded —
  the :class:`~repro.core.integrity.ChunkCorruptionError` path can
  never insert).

Request deadlines ride on :func:`execute_map`'s ``timeout``: when a
request's remaining budget expires mid-map, the map raises, abandoned
work is drained or the warm fork pool discarded (the PR-8 contract in
``core/parallel.py``), and the engine translates the
:class:`TimeoutError` into a 503 :class:`~repro.serve.errors.
RequestTimeout`.  A timed-out request therefore cannot poison the
pool for the tenants behind it.

``fault_prologue`` is the test seam: a callable invoked inside every
decode task (in the worker, wherever the worker runs).  The
:class:`~repro.testing.ServerHarness` injects sleeps (admission/
timeout tests) and :class:`~repro.testing.WorkerKiller` (pool-death
tests) through it; production servers leave it ``None``.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from repro.core.chunked import (
    _decode_verified,
    compress_chunked,
    roi_chunk_windows,
)
from repro.core.config import STZConfig
from repro.core.parallel import WorkerPool, execute_map, resolve_executor
from repro.core.random_access import normalize_roi
from repro.serve.cache import DecodedChunkCache
from repro.serve.errors import RequestTimeout
from repro.serve.session import ServedArchive


def _seconds_left(deadline: float | None) -> float | None:
    if deadline is None:
        return None
    return max(0.0, deadline - time.monotonic())


def _check_deadline(deadline: float | None, what: str) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise RequestTimeout(f"deadline expired before {what}")


def _decode_task(state, index: int) -> np.ndarray:
    """Executor task: verify + decode one whole chunk.

    Raises :class:`~repro.core.integrity.ChunkCorruptionError` with
    chunk context on any failure — under ``execute_map(retry=1)`` a
    *deterministic* failure (real corruption) re-raises identically on
    the serial retry, while a killed worker's items re-run cleanly;
    retries can heal pool casualties but never mask corruption.
    """
    blob, entries, prologue = state
    if prologue is not None:
        prologue(index)
    entry = entries[index]
    payload = memoryview(blob)[entry.offset : entry.offset + entry.length]
    return np.ascontiguousarray(_decode_verified(entry, payload))


class ServeEngine:
    """Shared CPU executor + decoded-chunk cache for one server."""

    def __init__(
        self,
        executor: str = "thread",
        workers: int | None = 2,
        cache_bytes: int = 64 * 1024 * 1024,
        dispatchers: int = 8,
        fault_prologue: Callable[[int], None] | None = None,
    ):
        self.kind, self.workers = resolve_executor(executor, workers)
        self.pool = (
            WorkerPool(self.kind, self.workers)
            if self.kind != "serial"
            else None
        )
        self._dispatch = ThreadPoolExecutor(
            max_workers=dispatchers, thread_name_prefix="stz-serve"
        )
        self.cache = DecodedChunkCache(cache_bytes)
        self.fault_prologue = fault_prologue

    # -- offload ----------------------------------------------------------

    async def run(self, fn, *args):
        """Run a blocking engine call on the dispatch pool."""
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._dispatch, lambda: fn(*args))

    # -- blocking engine calls (dispatch-pool side) -----------------------

    def _map(self, fn, items, state, deadline: float | None) -> list:
        """One deadline-bounded ``execute_map`` over the shared pool."""
        try:
            return execute_map(
                fn, items, state, self.kind, self.workers, retry=1,
                pool=self.pool, timeout=_seconds_left(deadline),
            )
        except TimeoutError as exc:
            raise RequestTimeout(str(exc)) from None

    def decode_chunks(
        self,
        archive: ServedArchive,
        indices: list[int],
        deadline: float | None = None,
    ) -> dict[int, np.ndarray]:
        """Decoded chunk arrays for ``indices`` — cache first, one
        pooled map for the misses, verified results cached."""
        out: dict[int, np.ndarray] = {}
        missing: list[int] = []
        for index in indices:
            arr = self.cache.get(archive.digest, index)
            if arr is None:
                missing.append(index)
            else:
                out[index] = arr
        if missing:
            _check_deadline(deadline, "decoding started")
            state = (archive.blob, archive.reader.chunks, self.fault_prologue)
            decoded = self._map(_decode_task, missing, state, deadline)
            for index, arr in zip(missing, decoded):
                # only here — after checksum + decode succeeded — may a
                # chunk enter the cache (the 422 path raised above us)
                self.cache.put(archive.digest, index, arr)
                out[index] = arr
        return out

    def decode_roi(
        self,
        archive: ServedArchive,
        roi: tuple,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Cache-fed ROI extraction: decode (or fetch) only the chunks
        intersecting the box, crop each through the same
        :func:`roi_chunk_windows` geometry the offline path uses."""
        plan = archive.reader.plan
        box = normalize_roi(plan.shape, roi)
        indices = plan.intersecting(box)
        chunks = self.decode_chunks(archive, indices, deadline)
        out = np.empty(
            tuple(hi - lo for lo, hi in box), dtype=archive.reader.dtype
        )
        for index in indices:
            local, dest = roi_chunk_windows(box, plan.chunk(index))
            out[dest] = chunks[index][local]
        return out

    def decode_full(
        self, archive: ServedArchive, deadline: float | None = None
    ) -> np.ndarray:
        """Full reconstruction, assembled from (possibly cached) chunks."""
        plan = archive.reader.plan
        chunks = self.decode_chunks(
            archive, list(range(plan.nchunks)), deadline
        )
        out = np.empty(plan.shape, dtype=archive.reader.dtype)
        for index in range(plan.nchunks):
            out[plan.chunk(index).slices] = chunks[index]
        return out

    def compress(
        self,
        data: np.ndarray,
        eb: float,
        eb_mode: str,
        config: STZConfig | None,
        chunks: int | tuple[int, ...] | None,
        deadline: float | None = None,
    ) -> bytes:
        """Compress one array into a checksummed sharded archive.

        ``checksum=True`` unconditionally: every archive this server
        stores must be verifiable at decode time, or the 422 contract
        (bounded error on every served byte) would be unenforceable
        for server-compressed data.  The deadline is checked at the
        boundaries; the map inside ``compress_chunked`` is not
        deadline-bounded (its own retry/degradation contract applies)
        — the serve timeout tests therefore drive the decode paths.
        """
        _check_deadline(deadline, "compression started")
        blob = compress_chunked(
            data, eb, eb_mode, config=config, chunks=chunks,
            executor=self.kind, workers=self.workers,
            pool=self.pool, checksum=True,
        )
        _check_deadline(deadline, "compression finished")
        return blob

    # -- lifecycle --------------------------------------------------------

    def stats(self) -> dict:
        return {
            "executor": self.kind,
            "workers": self.workers,
            "cache": self.cache.stats(),
        }

    def close(self) -> None:
        self._dispatch.shutdown(wait=True)
        if self.pool is not None:
            self.pool.close()

"""Chunked execution engine: plan, executors, v3 container, engine.

Four contracts pinned here (DESIGN.md §8):

* **hard bound across chunk seams** — the absolute bound is resolved
  once and enforced independently inside every chunk, so no seam can
  exceed it; the conformance class sweeps every bounded codec (and
  ``auto``) through the chunked path, including chunks that are pure
  NaN/inf edges.
* **byte determinism** — a v3 archive's bytes depend only on (input,
  config), never on the executor: serial, thread and process pools
  produce identical archives (chunk blobs are content-deterministic
  and assembly is plan-ordered).
* **out-of-core O(chunk) memory** — compressing from and decompressing
  into memory-mapped arrays allocates working memory proportional to a
  chunk, not the array (tracemalloc, which sees numpy buffers but not
  mmap pages — exactly the engine's own allocations).
* **format safety** — v1/v2 readers reject v3 archives cleanly, v3
  rejects unknown container/chunk flags and codec ids, and the chunk
  table geometry is validated.
"""

from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest

from conftest import smooth_field
from helpers import BOUNDED_CODECS, assert_error_bounded
from repro.core.api import (
    compress_chunked,
    compress_stream,
    decompress,
    decompress_frame,
    decompress_progressive,
    decompress_roi,
    iter_decompress,
)
from repro.core.chunked import (
    compress_chunked_with_recon,
    decompress_chunked,
    decompress_chunked_roi,
)
from repro.core.config import STZConfig
from repro.core.parallel import (
    EXECUTORS,
    WorkerPool,
    _slice_spans,
    effective_workers,
    engine_executor,
    execute_map,
    fork_available,
    parallel_capacity,
    resolve_executor,
)
from repro.core.partition import ChunkPlan, normalize_chunk_shape
from repro.core.stream import (
    CODEC_STZ,
    FRAME_SHARDED,
    MultiFrameReader,
    ShardedReader,
    ShardedWriter,
    StreamReader,
    is_sharded,
)
from repro.core.streaming import StreamingDecompressor

#: codecs whose contract includes bit-exact non-finite storage (sperr
#: and mgard predate that support; their chunked rows stay NaN-free)
NONFINITE_CODECS = ("stz", "sz3", "zfp", "szx", "auto")


def field(shape=(40, 36, 28), seed=3, dtype=np.float32):
    return smooth_field(shape, seed=seed).astype(dtype)


# ---------------------------------------------------------------------------
# chunk plan
# ---------------------------------------------------------------------------

class TestChunkPlan:
    def test_grid_and_ragged_edges(self):
        plan = ChunkPlan.regular((40, 36, 28), 16)
        assert plan.chunk_shape == (16, 16, 16)
        assert plan.grid == (3, 3, 2)
        assert plan.nchunks == 18
        # every cell covered exactly once
        hits = np.zeros((40, 36, 28), dtype=np.int32)
        for info in plan:
            assert info.shape == tuple(
                sl.stop - sl.start for sl in info.slices
            )
            hits[info.slices] += 1
        assert (hits == 1).all()

    def test_c_order_and_coords_roundtrip(self):
        plan = ChunkPlan.regular((10, 10), (4, 4))
        origins = [info.origin for info in plan]
        assert origins == [
            (0, 0), (0, 4), (0, 8), (4, 0), (4, 4), (4, 8),
            (8, 0), (8, 4), (8, 8),
        ]
        for i in range(plan.nchunks):
            cc = plan.coords(i)
            flat = 0
            for k, g in zip(cc, plan.grid):
                flat = flat * g + k
            assert flat == i

    def test_single_chunk_plan(self):
        plan = ChunkPlan.regular((7, 5), 64)  # clamped to the array
        assert plan.chunk_shape == (7, 5)
        assert plan.nchunks == 1
        assert plan.chunk(0).slices == (slice(0, 7), slice(0, 5))

    def test_normalize_chunk_shape(self):
        assert normalize_chunk_shape((40, 30), 16) == (16, 16)
        assert normalize_chunk_shape((40, 30), (64, 8)) == (40, 8)
        with pytest.raises(ValueError, match="rank"):
            normalize_chunk_shape((40, 30), (16, 16, 16))
        with pytest.raises(ValueError, match=">= 1"):
            normalize_chunk_shape((40, 30), 0)
        with pytest.raises(ValueError, match="zero-size"):
            normalize_chunk_shape((40, 0), 16)

    def test_intersecting_matches_brute_force(self):
        plan = ChunkPlan.regular((19, 23, 11), (8, 7, 4))
        box = ((3, 17), (6, 21), (0, 5))
        expected = [
            info.index
            for info in plan
            if all(
                lo < o + n and o < hi
                for (lo, hi), o, n in zip(box, info.origin, info.shape)
            )
        ]
        assert plan.intersecting(box) == expected
        with pytest.raises(ValueError, match="out of bounds"):
            plan.intersecting(((0, 25), (0, 1), (0, 1)))

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ChunkPlan((8, 8), (9, 4))
        with pytest.raises(ValueError, match="rank"):
            ChunkPlan((8, 8), (4,))
        with pytest.raises(IndexError):
            ChunkPlan.regular((8, 8), 4).chunk(4)


# ---------------------------------------------------------------------------
# executor layer
# ---------------------------------------------------------------------------

class TestExecutorLayer:
    def test_resolve_executor_normalization(self):
        assert resolve_executor("serial", 8) == ("serial", 1)
        assert resolve_executor("thread", None) == ("serial", 1)
        assert resolve_executor("thread", 1) == ("serial", 1)
        assert resolve_executor("thread", 3) == ("thread", 3)
        kind, n = resolve_executor("process", 3)
        assert n == 3
        assert kind == ("process" if fork_available() else "thread")
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("mpi", 4)

    def test_worker_resolution_shared_between_facades(self):
        assert effective_workers(None) == 1
        assert effective_workers(2) == 2

    def test_execute_map_order_preserved_every_executor(self):
        items = list(range(23))

        def fn(state, x):
            return state + x * x

        for kind in EXECUTORS:
            out = execute_map(fn, items, 7, kind, 4)
            assert out == [7 + x * x for x in items], kind

    @pytest.mark.skipif(not fork_available(), reason="no fork")
    def test_one_shot_fork_inherits_state_without_pickling(self):
        # the state is intentionally unpicklable: fork inheritance is
        # the only way it can reach the workers
        state = (lambda x: x * 3, np.arange(10))

        def fn(st, i):
            f, arr = st
            return int(f(arr[i]))

        assert execute_map(fn, list(range(10)), state, "process", 2) == [
            3 * i for i in range(10)
        ]

    @pytest.mark.skipif(not fork_available(), reason="no fork")
    def test_one_shot_fork_concurrent_callers_do_not_cross_contaminate(self):
        # two threads starting one-shot fork maps at once must each run
        # their own (fn, state): the published _FORK_STATE is
        # lock-guarded, and the loser of the race degrades to the
        # inline serial loop
        from concurrent.futures import ThreadPoolExecutor

        def run(tag):
            def fn(state, i):
                return (state, i)

            return execute_map(fn, list(range(8)), tag, "process", 2)

        for _ in range(5):
            with ThreadPoolExecutor(max_workers=2) as pool:
                a, b = pool.map(run, ["A", "B"])
            assert a == [("A", i) for i in range(8)]
            assert b == [("B", i) for i in range(8)]

    @pytest.mark.skipif(not fork_available(), reason="no fork")
    def test_worker_pool_fork_side_serializes_concurrent_callers(self):
        # one shared handle, several threads, different (fn, state)
        # pairs: the handle serializes its own fork side, so every
        # caller gets a pool forked with its own payload
        import threading
        from concurrent.futures import ThreadPoolExecutor

        import repro.core.parallel as par

        def scaled(st, i):
            arr, scale = st
            return float(arr[i]) * scale

        def tagged(st, i):
            return (st, i)

        jobs = [
            (scaled, (np.arange(6), 1.5), [1.5 * i for i in range(6)]),
            (scaled, (np.arange(6), 2.0), [2.0 * i for i in range(6)]),
            (tagged, "A", [("A", i) for i in range(6)]),
            (tagged, "B", [("B", i) for i in range(6)]),
        ]
        start = threading.Barrier(len(jobs))
        with WorkerPool("process", 2) as pool:

            def run(job):
                fn, state, _ = job
                start.wait()
                return [
                    execute_map(
                        fn, list(range(6)), state, "process", 2, pool=pool
                    )
                    for _ in range(6)
                ]

            with ThreadPoolExecutor(max_workers=len(jobs)) as tpe:
                results = list(tpe.map(run, jobs))
            for (_, _, want), got in zip(jobs, results):
                assert got == [want] * 6
        assert par._FORK_STATE is None
        assert par._FORK_LOCK.acquire(blocking=False)
        par._FORK_LOCK.release()

    def test_parallel_capacity_is_affinity_aware(self, monkeypatch):
        import repro.core.parallel as par

        # a container quota masks the process to 3 of many CPUs: the
        # affinity mask, not the machine count, is the capacity
        monkeypatch.delattr(par.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(
            par.os, "sched_getaffinity", lambda pid: {0, 2, 5},
            raising=False,
        )
        monkeypatch.setattr(par.os, "cpu_count", lambda: 48)
        assert parallel_capacity() == 3
        assert effective_workers(100) == 12  # 4x usable, not 4x machine
        # 3.13+: os.process_cpu_count wins when present
        monkeypatch.setattr(
            par.os, "process_cpu_count", lambda: 2, raising=False
        )
        assert parallel_capacity() == 2

    def test_engine_executor_gates_single_core(self, monkeypatch):
        import repro.core.parallel as par

        monkeypatch.delenv("STZ_FORCE_POOLS", raising=False)
        monkeypatch.setattr(par, "_usable_cpus", lambda: 1)
        # parallel requests degrade to the serial walk on 1 core...
        assert engine_executor("process", 4) == ("serial", 1)
        assert engine_executor("thread", 4) == ("serial", 1)
        assert engine_executor("serial", None) == ("serial", 1)
        # ...but resolve_executor (direct execute_map callers)
        # still honors the explicit request
        assert resolve_executor("thread", 3) == ("thread", 3)
        # the override keeps pool mechanics testable anywhere
        monkeypatch.setenv("STZ_FORCE_POOLS", "1")
        assert engine_executor("thread", 4) == ("thread", 4)
        # with real capacity the gate never triggers
        monkeypatch.delenv("STZ_FORCE_POOLS")
        monkeypatch.setattr(par, "_usable_cpus", lambda: 8)
        assert engine_executor("thread", 4) == ("thread", 4)

    def test_slice_spans_cover_and_balance(self):
        for nitems in (1, 2, 3, 7, 8, 23, 100):
            for nslices in (1, 2, 4, 7, 200):
                spans = _slice_spans(nitems, nslices)
                # contiguous, complete, in order
                assert spans[0][0] == 0 and spans[-1][1] == nitems
                assert all(
                    a2 == b1 for (_, b1), (a2, _) in zip(spans, spans[1:])
                )
                # never more slices than items; sizes within 1 of even
                assert len(spans) == min(nslices, nitems)
                sizes = [b - a for a, b in spans]
                assert max(sizes) - min(sizes) <= 1

    def test_worker_pool_thread_reuse_and_outcomes(self):
        def fn(state, x):
            if x == 5:
                raise ValueError("five")
            return state * x

        with WorkerPool("thread", 3) as pool:
            first = execute_map(
                fn, [0, 1, 2, 3], 2, "thread", 3, pool=pool
            )
            assert first == [0, 2, 4, 6]
            tpe = pool.thread_pool()
            assert execute_map(
                fn, [4, 6], 2, "thread", 3, pool=pool
            ) == [8, 12]
            assert pool.thread_pool() is tpe  # warm across maps
            # deterministic failures still surface with their own error
            with pytest.raises(ValueError, match="five"):
                execute_map(fn, [4, 5], 2, "thread", 3, retry=1, pool=pool)

    @pytest.mark.skipif(not fork_available(), reason="no fork")
    def test_worker_pool_fork_warm_reuse_and_repool(self):
        import repro.core.parallel as par

        state_a = (np.arange(6), 1.5)
        state_b = (np.arange(6), 2.5)

        def fn(st, i):
            arr, scale = st
            return float(arr[i]) * scale

        with WorkerPool("process", 2) as pool:
            out = execute_map(fn, [0, 1, 2], state_a, "process", 2, pool=pool)
            assert out == [0.0, 1.5, 3.0]
            proc = pool._proc
            assert proc is not None
            # same payload (same array object, equal scalars): warm
            out = execute_map(fn, [3, 4], state_a, "process", 2, pool=pool)
            assert out == [4.5, 6.0]
            assert pool._proc is proc
            # the pool holds the fork lock while warm
            assert not par._FORK_LOCK.acquire(blocking=False)
            # different payload: children hold a stale snapshot — repool
            out = execute_map(fn, [0, 1], state_b, "process", 2, pool=pool)
            assert out == [0.0, 2.5]
            assert pool._proc is not proc
        # close() released the lock and the workers
        assert par._FORK_LOCK.acquire(blocking=False)
        par._FORK_LOCK.release()
        assert par._FORK_STATE is None

    def test_execute_map_ignores_mismatched_pool(self):
        with WorkerPool("thread", 2) as pool:
            # a thread handle passed to a process map is ignored, not
            # misused (and vice versa a serial map needs no pool)
            out = execute_map(
                lambda s, x: x + 1, [1, 2, 3], None, "process", 2,
                pool=pool,
            )
            assert out == [2, 3, 4]
            assert pool._proc is None

    def test_execute_map_timeout_serial(self):
        import time as _time

        def slow(state, x):
            _time.sleep(0.05)
            return x

        with pytest.raises(TimeoutError, match="deadline expired"):
            execute_map(slow, list(range(50)), None, "serial", 1,
                        timeout=0.12)

    def test_execute_map_timeout_thread_pool_not_poisoned(self):
        # a timed-out map raises TimeoutError — never per-item failure
        # markers, even with retry budget (a retry pass re-running the
        # abandoned items serially would defeat the timeout) — and the
        # warm pool keeps working for the next caller
        import time as _time

        def slow(state, x):
            _time.sleep(0.3)
            return x * 2

        with WorkerPool("thread", 2) as pool:
            t0 = _time.monotonic()
            with pytest.raises(TimeoutError, match="still"):
                execute_map(slow, list(range(8)), None, "thread", 2,
                            retry=1, pool=pool, timeout=0.2)
            # the waiter came back at the deadline, not after the queue
            assert _time.monotonic() - t0 < 1.0
            out = execute_map(
                lambda s, x: x + 1, list(range(6)), None, "thread", 2,
                pool=pool,
            )
            assert out == [1, 2, 3, 4, 5, 6]

    def test_execute_map_timeout_one_shot_thread_returns_promptly(self):
        import time as _time

        def slow(state, x):
            _time.sleep(0.5)
            return x

        t0 = _time.monotonic()
        with pytest.raises(TimeoutError):
            execute_map(slow, list(range(8)), None, "thread", 2,
                        timeout=0.15)
        # teardown must not block behind abandoned in-flight items
        assert _time.monotonic() - t0 < 0.45

    @pytest.mark.skipif(not fork_available(), reason="no fork")
    def test_execute_map_timeout_discards_warm_fork_pool(self):
        # drain-or-discard: a torn-away waiter must leave the warm
        # handle without live orphaned slices — the pool is discarded
        # (without waiting) and the fork lock freed, so the next map on
        # the same handle forks fresh instead of interleaving with work
        # the previous caller abandoned
        import time as _time

        import repro.core.parallel as par

        state = (np.arange(8), 2.0)

        def fn(st, i):
            arr, scale = st
            if scale > 2.0:  # only the slow_state maps stall
                _time.sleep(0.8)
            return float(arr[int(i)]) * scale

        slow_state = (np.arange(8), 3.0)
        with WorkerPool("process", 2) as pool:
            out = execute_map(fn, [0, 1, 2], state, "process", 2, pool=pool)
            assert out == [0.0, 2.0, 4.0]
            assert pool._proc is not None
            t0 = _time.monotonic()
            with pytest.raises(TimeoutError):
                execute_map(fn, list(range(8)), slow_state, "process", 2,
                            retry=1, pool=pool, timeout=0.25)
            assert _time.monotonic() - t0 < 0.7  # no drain of orphans
            # the abandoned pool is gone and the fork lock is free for
            # whoever maps next (one-shot or warm alike)
            assert pool._proc is None
            assert par._FORK_LOCK.acquire(blocking=False)
            par._FORK_LOCK.release()
            # the handle itself is immediately reusable: a fresh fork
            # pool, fresh snapshot, correct results
            out = execute_map(fn, [3, 4], state, "process", 2, pool=pool)
            assert out == [6.0, 8.0]

    @pytest.mark.skipif(not fork_available(), reason="no fork")
    def test_execute_map_timeout_one_shot_fork_releases_lock(self):
        import time as _time

        import repro.core.parallel as par

        def slow(st, i):
            _time.sleep(0.8)
            return i

        with pytest.raises(TimeoutError):
            execute_map(slow, list(range(8)), None, "process", 2,
                        timeout=0.25)
        # the module lock and published state were restored on the way
        # out; a follow-up map can fork immediately
        assert par._FORK_STATE is None
        assert par._FORK_LOCK.acquire(blocking=False)
        par._FORK_LOCK.release()
        assert execute_map(
            lambda s, x: x * x, list(range(5)), None, "process", 2
        ) == [0, 1, 4, 9, 16]


# ---------------------------------------------------------------------------
# round trips and seam conformance
# ---------------------------------------------------------------------------

class TestChunkedRoundTrip:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_round_trip_holds_bound(self, executor):
        data = field()
        eb = 1e-3
        blob = compress_chunked(
            data, eb, "abs", chunks=16, executor=executor, workers=4
        )
        assert is_sharded(blob)
        recon = decompress_chunked(blob, executor=executor, workers=4)
        assert recon.dtype == data.dtype
        assert_error_bounded(data, recon, eb, context=executor)

    @pytest.mark.parametrize(
        "chunks", [7, (17, 13, 9), (40, 36, 28), (40, 1, 28)]
    )
    def test_ragged_and_degenerate_chunk_shapes(self, chunks):
        data = field()
        eb = 5e-4
        blob = compress_chunked(data, eb, "abs", chunks=chunks)
        assert_error_bounded(
            data, decompress_chunked(blob), eb, context=str(chunks)
        )

    def test_rel_mode_matches_monolithic_resolution(self):
        data = field()
        blob = compress_chunked(data, 1e-3, "rel", chunks=16)
        reader = ShardedReader(blob)
        # every chunk stores the one globally resolved absolute bound
        abs_ebs = {
            StreamReader(reader.read_chunk(i)).header.abs_eb
            for i in range(reader.nchunks)
        }
        expected = 1e-3 * float(data.max() - data.min())
        assert abs_ebs == {expected}
        assert_error_bounded(data, decompress_chunked(blob), expected)

    def test_rel_mode_nan_matches_monolithic_resolution(self):
        """A NaN anywhere must poison the chunk-wise range reduction
        exactly like the monolithic one (rng = NaN -> eb * 1.0), not
        get dropped chunk by chunk into a geometry-dependent bound."""
        from repro.util.validation import resolve_eb

        data = field().copy()
        data[2, 3, 4] = np.nan  # a single chunk carries the NaN
        blob = compress_chunked(data, 1e-3, "rel", chunks=16)
        reader = ShardedReader(blob)
        stored = StreamReader(reader.read_chunk(0)).header.abs_eb
        assert stored == resolve_eb(data, 1e-3, "rel") == 1e-3

    def test_2d_and_1d(self):
        for shape, chunks in [((50, 31), (16, 8)), ((257,), 64)]:
            data = smooth_field(shape, seed=5).astype(np.float32)
            blob = compress_chunked(data, 1e-3, "abs", chunks=chunks)
            assert_error_bounded(data, decompress_chunked(blob), 1e-3)

    def test_decompress_into_out_array(self):
        data = field()
        blob = compress_chunked(data, 1e-3, "abs", chunks=16)
        out = np.empty(data.shape, dtype=data.dtype)
        result = decompress_chunked(blob, out=out)
        assert result is out
        assert_error_bounded(data, out, 1e-3)
        bad = np.empty((2, 2), dtype=data.dtype)
        with pytest.raises(ValueError, match="archive is"):
            decompress_chunked(blob, out=bad)

    def test_with_recon_is_decoder_exact(self):
        data = field()
        blob, recon = compress_chunked_with_recon(
            data, 1e-3, "abs", chunks=16
        )
        assert np.array_equal(recon, decompress_chunked(blob))

    def test_chunk_iterator_input_matches_array_input(self):
        data = field()
        plan = ChunkPlan.regular(data.shape, 16)
        it = (np.ascontiguousarray(data[c.slices]) for c in plan)
        via_iter = compress_chunked(
            it, 1e-3, "abs", chunks=16, shape=data.shape,
            executor="thread", workers=3,
        )
        assert via_iter == compress_chunked(data, 1e-3, "abs", chunks=16)

    def test_chunk_iterator_input_errors(self):
        data = field()
        plan = ChunkPlan.regular(data.shape, 16)
        chunks = [np.ascontiguousarray(data[c.slices]) for c in plan]
        with pytest.raises(ValueError, match="requires shape"):
            compress_chunked(iter(chunks), 1e-3, "abs", chunks=16)
        with pytest.raises(ValueError, match="abs"):
            compress_chunked(
                iter(chunks), 1e-3, "rel", chunks=16, shape=data.shape
            )
        with pytest.raises(ValueError, match="exhausted"):
            compress_chunked(
                iter(chunks[:-1]), 1e-3, "abs", chunks=16, shape=data.shape
            )
        with pytest.raises(ValueError, match="more than the plan"):
            compress_chunked(
                iter(chunks + chunks[:1]), 1e-3, "abs", chunks=16,
                shape=data.shape,
            )
        with pytest.raises(ValueError, match="the plan expects"):
            compress_chunked(
                iter([chunks[1]] + chunks[1:]), 1e-3, "abs", chunks=16,
                shape=data.shape,
            )

    def test_progressive_cleanly_rejected(self):
        blob = compress_chunked(field(), 1e-3, "abs", chunks=16)
        with pytest.raises(ValueError, match="progressive"):
            decompress_progressive(blob, 1)


@pytest.mark.conformance
class TestChunkedConformance:
    """The chunked path rides the cross-codec hard-bound contract:
    every bounded codec, compressed chunk by chunk, must hold the
    bound at every point — chunk seams included."""

    #: chunk shape chosen so (20, 17, 13) yields 8 chunks with ragged
    #: edges on every axis — seams everywhere
    SHAPE = (20, 17, 13)
    CHUNKS = (11, 9, 7)

    @pytest.mark.parametrize("codec", sorted(BOUNDED_CODECS))
    @pytest.mark.parametrize("eb", [1e-2, 1e-4])
    def test_hard_bound_across_seams(self, codec, eb):
        data = smooth_field(self.SHAPE, seed=9).astype(np.float32)
        abs_eb = eb * float(data.max() - data.min())
        blob = compress_chunked(
            data, abs_eb, "abs", codec=codec, chunks=self.CHUNKS
        )
        recon = decompress(blob)
        assert recon.dtype == data.dtype
        assert_error_bounded(data, recon, abs_eb, context=f"chunked {codec}")
        # seam faces explicitly: both sides of every chunk boundary
        for axis, cut in ((0, 11), (1, 9), (2, 7)):
            sel = [slice(None)] * 3
            sel[axis] = slice(cut - 1, cut + 1)
            assert_error_bounded(
                data[tuple(sel)], recon[tuple(sel)], abs_eb,
                context=f"chunked {codec} seam axis{axis}",
            )

    @pytest.mark.parametrize("codec", NONFINITE_CODECS)
    def test_nonfinite_value_edge_chunks(self, codec):
        """Chunks that are pure NaN/inf edges: one chunk all-NaN, one
        mixed, the rest finite — non-finite points must come back
        bit-exact, finite points within the bound."""
        data = smooth_field(self.SHAPE, seed=10).astype(np.float32)
        data = data.copy()
        # chunk (0,0,0) fully NaN; chunk (1,1,1) gets inf spikes
        data[:11, :9, :7] = np.nan
        data[11, 9, 7] = np.inf
        data[-1, -1, -1] = -np.inf
        eb = 1e-3
        blob = compress_chunked(
            data, eb, "abs", codec=codec, chunks=self.CHUNKS
        )
        recon = decompress(blob)
        assert_error_bounded(
            data, recon, eb, context=f"chunked nonfinite {codec}"
        )

    def test_auto_selects_per_chunk(self):
        """A mixed-statistics array routes different chunks to
        different codecs — the quality dividend of chunk-level
        selection."""
        shape = (72, 20, 16)
        rng = np.random.default_rng(11)
        data = np.empty(shape, dtype=np.float32)
        data[:24] = 2.5  # constant: the szx short-circuit
        data[24:48] = smooth_field((24, 20, 16), seed=24).astype(np.float32)
        data[48:] = rng.normal(size=(24, 20, 16)).astype(np.float32)
        blob = compress_chunked(
            data, 4e-3, "abs", codec="auto", chunks=(24, 20, 16)
        )
        reader = ShardedReader(blob)
        codecs = [c.codec for c in reader.chunks]
        assert len(set(codecs)) > 1, codecs
        assert codecs[0] == "szx"  # constant chunk
        assert_error_bounded(data, decompress(blob), 4e-3)


# ---------------------------------------------------------------------------
# byte determinism across executors
# ---------------------------------------------------------------------------

class TestByteDeterminism:
    @pytest.mark.parametrize("codec", ["stz", "auto"])
    def test_archive_bytes_identical_across_executors(self, codec):
        data = field()
        blobs = {
            executor: compress_chunked(
                data, 1e-3, "abs", codec=codec, chunks=16,
                executor=executor, workers=4,
            )
            for executor in EXECUTORS
        }
        assert blobs["serial"] == blobs["thread"] == blobs["process"]

    def test_repeated_runs_identical(self):
        data = field(seed=8)
        a = compress_chunked(data, 1e-3, "abs", codec="auto", chunks=16)
        b = compress_chunked(data, 1e-3, "abs", codec="auto", chunks=16)
        assert a == b


# ---------------------------------------------------------------------------
# out-of-core: O(chunk) working memory both directions
# ---------------------------------------------------------------------------

class TestOutOfCore:
    SHAPE = (64, 64, 64)
    #: 4x the cells of SHAPE — the growth assertion's second point
    BIG_SHAPE = (128, 128, 64)
    CHUNK = 16

    def _memmap(self, tmp_path, name, shape, data=None):
        mm = np.memmap(
            tmp_path / name, dtype=np.float32, mode="w+", shape=shape
        )
        if data is not None:
            mm[...] = data
            mm.flush()
        return mm

    def _roundtrip_peaks(self, tmp_path, shape, tag):
        """(compress peak, decompress peak) for one memmap round trip,
        measured with tracemalloc (numpy buffers are traced; mmap pages
        are not — exactly the engine's own allocations)."""
        data = field(shape, seed=13)
        src = self._memmap(tmp_path, f"src{tag}.raw", shape, data)
        tracemalloc.start()
        with open(tmp_path / f"a{tag}.stz", "wb") as sink:
            compress_chunked(
                src, 1e-3, "abs", chunks=self.CHUNK, executor="serial",
                sink=sink,
            )
        _, comp_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        out = self._memmap(tmp_path, f"dst{tag}.raw", shape)
        with open(tmp_path / f"a{tag}.stz", "rb") as fh:
            tracemalloc.start()
            decompress_chunked(fh, out=out, executor="serial")
            _, dec_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert_error_bounded(data, np.asarray(out), 1e-3)
        return comp_peak, dec_peak

    def test_memmap_roundtrip_memory_is_o_chunk_not_o_array(self, tmp_path):
        """The pipeline has a fixed per-call working set (~2 MiB of
        transient tables/buffers), so the out-of-core claim is about
        *growth*: quadrupling the array must not move the peak by more
        than a few chunks — the engine never holds O(array) memory."""
        chunk_bytes = self.CHUNK**3 * 4
        small = self._roundtrip_peaks(tmp_path, self.SHAPE, "s")
        big = self._roundtrip_peaks(tmp_path, self.BIG_SHAPE, "b")
        grew = int(np.prod(self.BIG_SHAPE) - np.prod(self.SHAPE)) * 4
        for which, s, b in [
            ("compress", small[0], big[0]),
            ("decompress", small[1], big[1]),
        ]:
            assert b - s < 24 * chunk_bytes < grew // 4, (
                f"{which}: peak grew {b - s} B for {grew} B more data"
            )

    def test_memmap_process_executor_round_trip(self, tmp_path):
        """Fork workers slice the memmap themselves (no array pickling)
        and write decoded chunks into the shared output mapping."""
        data = field(self.SHAPE, seed=14)
        src = self._memmap(tmp_path, "psrc.raw", self.SHAPE, data)
        blob = compress_chunked(
            src, 1e-3, "abs", chunks=self.CHUNK,
            executor="process", workers=2,
        )
        out = self._memmap(tmp_path, "pdst.raw", self.SHAPE)
        decompress_chunked(blob, out=out, executor="process", workers=2)
        assert_error_bounded(data, np.asarray(out), 1e-3)

    def test_sink_streams_chunks_as_produced(self, tmp_path):
        """The writer never seeks: chunk blobs land in the sink in plan
        order with only table rows retained."""
        data = field(self.SHAPE, seed=15)

        class AppendOnly(io.RawIOBase):
            def __init__(self):
                self.chunks = []

            def write(self, b):
                self.chunks.append(bytes(b))
                return len(b)

            def seek(self, *a, **k):  # pragma: no cover
                raise AssertionError("sink must never be seeked")

        sink = AppendOnly()
        compress_chunked(
            data, 1e-3, "abs", chunks=self.CHUNK, executor="serial",
            sink=sink,
        )
        blob = b"".join(sink.chunks)
        assert ShardedReader(blob).nchunks == 64
        assert_error_bounded(data, decompress_chunked(blob), 1e-3)


# ---------------------------------------------------------------------------
# chunk-granular random access
# ---------------------------------------------------------------------------

class TestChunkedROI:
    def test_roi_bit_identical_to_cropped_full_decode(self):
        data = field()
        blob = compress_chunked(data, 1e-3, "abs", chunks=16)
        full = decompress_chunked(blob)
        for roi in [
            (slice(5, 20), slice(3, 30), 7),
            (slice(None), slice(17, 18), slice(None)),
            (0, 0, 0),
            (slice(16, 32), slice(16, 32), slice(16, 28)),
        ]:
            expected = full[
                tuple(
                    slice(r, r + 1) if isinstance(r, int) else r
                    for r in roi
                )
            ]
            assert np.array_equal(decompress_roi(blob, roi), expected), roi

    def test_roi_touches_only_intersecting_chunks(self):
        data = field()
        blob = compress_chunked(data, 1e-3, "abs", chunks=16)
        reader = ShardedReader(blob)
        decompress_chunked_roi(reader, (slice(0, 8), slice(0, 8), slice(0, 8)))
        one_chunk = reader.chunk(0).length
        assert reader.bytes_read == one_chunk  # 1 of 18 chunks read

    def test_roi_parallel_workers_read_fd_serially(self, tmp_path):
        # a file-backed ShardedReader has ONE fd whose seek()+read()
        # pairs must never interleave across threads; the multi-worker
        # ROI path therefore prefetches payloads on the calling thread
        # and fans out only the decode
        import threading

        data = field()
        path = tmp_path / "a.stz"
        path.write_bytes(compress_chunked(data, 1e-3, "abs", chunks=8))
        full = decompress_chunked(path.read_bytes())

        read_threads: set[int] = set()

        class RecordingFile(io.FileIO):
            def read(self, *args):
                read_threads.add(threading.get_ident())
                return super().read(*args)

        roi = (slice(2, 30), slice(5, 33), slice(1, 27))
        with RecordingFile(path, "rb") as fh:
            got = decompress_chunked_roi(ShardedReader(fh), roi, workers=4)
        assert np.array_equal(got, full[roi])
        assert read_threads == {threading.get_ident()}

    def test_roi_on_auto_chunks(self):
        data = field(seed=21)
        blob = compress_chunked(data, 1e-3, "abs", codec="auto", chunks=16)
        full = decompress(blob)
        roi = (slice(10, 30), slice(0, 36), slice(20, 28))
        assert np.array_equal(decompress_roi(blob, roi), full[roi])

    def test_roi_auto_envelopes_use_subchunk_fast_path(self, monkeypatch):
        # auto-selected stz chunks are 'STZC'-enveloped; the ROI path
        # must unwrap them and still run the sub-chunk random-access
        # decode instead of silently decoding the whole chunk
        import repro.core.chunked as chunked_mod
        from repro.core.stream import wrap_selected

        data = field(seed=21)
        plain = compress_chunked(data, 1e-3, "abs", chunks=16)
        reader = ShardedReader(plain)
        # the exact bytes _encode_chunk emits when auto picks stz for
        # every chunk: each STZ1 blob wrapped in an 'STZC' envelope
        writer = ShardedWriter(
            reader.shape, reader.dtype, reader.plan.chunk_shape, None
        )
        for entry in reader.chunks:
            writer.add_chunk(
                wrap_selected(
                    CODEC_STZ, bytes(reader.read_chunk(entry.index))
                ),
                CODEC_STZ,
            )
        writer.finalize()
        blob = writer.getvalue()
        calls = []
        real = chunked_mod.stz_decompress_roi

        def recording(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(chunked_mod, "stz_decompress_roi", recording)
        full = decompress_chunked(blob)
        roi = (slice(3, 20), slice(20, 30), slice(5, 9))  # crosses a seam
        got = decompress_chunked_roi(ShardedReader(blob), roi)
        assert np.array_equal(got, full[roi])
        assert len(calls) == len(reader.plan.intersecting(
            tuple((s.start, s.stop) for s in roi)
        ))

    def test_selection_workflow_over_sharded_archive(self):
        """The Figure 10 workflow on a v3 archive: detect boxes on the
        data, size the chunk fetch set, extract each box through the
        chunk index — bit-identical to cropping, minimal chunks read."""
        from repro.core.roi import (
            extract_selection,
            select_blocks,
            selection_chunk_indices,
        )

        data = field(seed=22)
        blob = compress_chunked(data, 1e-3, "abs", chunks=16)
        reader = ShardedReader(blob)
        selection = select_blocks(data, block=8, top_fraction=0.02)
        indices = selection_chunk_indices(selection, reader.plan)
        assert 0 < len(indices) < reader.nchunks
        full = decompress_chunked(blob)
        boxes = extract_selection(reader, selection)
        for box, got in zip(selection.boxes, boxes):
            assert np.array_equal(got, full[box])
        # only the fetch set's chunks were read (each at most once per
        # box it serves)
        lengths = {i: reader.chunk(i).length for i in indices}
        assert reader.bytes_read <= sum(
            lengths.values()
        ) * len(selection.boxes)


# ---------------------------------------------------------------------------
# v3 container format safety
# ---------------------------------------------------------------------------

class TestShardedContainer:
    def blob(self):
        return compress_chunked(field(), 1e-3, "abs", chunks=16)

    def test_v1_v2_readers_reject_v3_cleanly(self):
        blob = self.blob()
        with pytest.raises(ValueError, match="sharded"):
            StreamReader(blob)
        with pytest.raises(ValueError, match="sharded"):
            MultiFrameReader(blob)

    def test_v3_reader_rejects_v1_v2(self):
        from repro.core.pipeline import stz_compress

        single = stz_compress(field((8, 8, 8)), 1e-3, "abs")
        with pytest.raises(ValueError, match="single-frame"):
            ShardedReader(single)
        multi = compress_stream([field((8, 8, 8))], 1e-3)
        with pytest.raises(ValueError, match="multi-frame"):
            ShardedReader(multi)
        with pytest.raises(ValueError, match="not a sharded"):
            ShardedReader(b"JUNK" + bytes(40))

    def test_unknown_container_flag_rejected(self):
        blob = bytearray(self.blob())
        blob[5] |= 0x40  # v3 head: magic4 | version | flags
        with pytest.raises(ValueError, match="unknown feature flags"):
            ShardedReader(bytes(blob))

    def _table_offset(self, blob):
        import struct

        table_off, nchunks, _ = struct.unpack("<QI4s", blob[-16:])
        return table_off, nchunks

    def test_unknown_chunk_flag_rejected(self):
        blob = bytearray(self.blob())
        table_off, _ = self._table_offset(bytes(blob))
        blob[table_off + 16] |= 0x08  # row <QQBB6x>: flags at byte 16
        with pytest.raises(ValueError, match="unknown chunk flags"):
            ShardedReader(bytes(blob))

    def test_unknown_chunk_codec_id_rejected(self):
        blob = bytearray(self.blob())
        table_off, _ = self._table_offset(bytes(blob))
        blob[table_off + 17] = 0x7F  # row <QQBB6x>: codec at byte 17
        with pytest.raises(ValueError, match="unknown codec id"):
            ShardedReader(bytes(blob))

    def test_truncation_rejected(self):
        blob = self.blob()
        with pytest.raises(ValueError, match="truncated|corrupt"):
            ShardedReader(blob[: len(blob) - 3])
        with pytest.raises(ValueError, match="truncated"):
            ShardedReader(blob[:10])

    def test_tampered_embedded_chunk_flag_rejected(self):
        """Chunk payloads are full STZ1 containers: the STZ1 flag
        policy keeps protecting them inside the v3 wrapper."""
        blob = bytearray(self.blob())
        reader = ShardedReader(bytes(blob))
        blob[reader.chunk(0).offset + 11] |= 0x80  # STZ1 flags byte
        with pytest.raises(ValueError, match="unknown feature flags"):
            decompress_chunked(bytes(blob))

    def test_writer_validates_plan_coverage(self):
        w = ShardedWriter((8, 8), np.dtype(np.float32), (4, 8))
        w.add_chunk(b"x")
        with pytest.raises(ValueError, match="needs 2 chunks"):
            w.finalize()
        w.add_chunk(b"y")
        with pytest.raises(ValueError, match="does not exist"):
            w.add_chunk(b"z")
        w.finalize()
        w.finalize()  # idempotent
        with pytest.raises(ValueError, match="already finalized"):
            w.add_chunk(b"late")
        with pytest.raises(ValueError, match="unknown codec id"):
            ShardedWriter((8, 8), np.dtype(np.float32), (8, 8)).add_chunk(
                b"x", codec_id=99
            )
        with pytest.raises(ValueError, match="unknown container flags"):
            ShardedWriter((8, 8), np.dtype(np.float32), (8, 8), flags=0x10)

    def test_file_source_reads_only_what_it_needs(self, tmp_path):
        blob = self.blob()
        path = tmp_path / "a.stz"
        path.write_bytes(blob)
        with open(path, "rb") as fh:
            reader = ShardedReader(fh)
            reader.read_chunk(3)
            assert reader.bytes_read == reader.chunk(3).length


# ---------------------------------------------------------------------------
# sharded streaming frames
# ---------------------------------------------------------------------------

class TestShardedStreaming:
    SHAPE = (24, 20, 16)
    EB = 1e-3

    def steps(self, n=5):
        base = smooth_field(self.SHAPE, seed=30).astype(np.float32)
        out = [base]
        for t in range(1, n):
            out.append(
                out[-1]
                + np.float32(0.05)
                * smooth_field(self.SHAPE, seed=60 + t).astype(np.float32)
            )
        return out

    def test_sharded_stream_round_trip_holds_bound(self):
        steps = self.steps()
        blob = compress_stream(
            steps, self.EB, keyframe_interval=3, chunks=12,
            chunk_workers=2,
        )
        reader = MultiFrameReader(blob)
        assert all(f.is_sharded for f in reader.frames)
        assert [f.is_delta for f in reader.frames] == [
            False, True, True, False, True,
        ]
        assert all(f.codec == "sharded" for f in reader.frames)
        for t, rec in enumerate(iter_decompress(blob)):
            assert_error_bounded(
                steps[t], rec, self.EB, context=f"sharded step {t}"
            )

    def test_random_access_matches_sequential(self):
        steps = self.steps()
        blob = compress_stream(
            steps, self.EB, keyframe_interval=3, chunks=12
        )
        seq = list(iter_decompress(blob))
        for t in (4, 0, 2):
            assert np.array_equal(decompress_frame(blob, t), seq[t])

    def test_sharded_frame_flag_gates_old_readers(self):
        """Clearing our knowledge of the bit simulates a pre-sharding
        reader: unknown frame flags are rejected at open."""
        blob = compress_stream(self.steps(2), self.EB, chunks=12)
        reader = MultiFrameReader(blob)
        assert reader.frames[0].flags & FRAME_SHARDED
        # an actually-unknown bit in the same field still hard-fails
        import struct

        raw = bytearray(blob)
        table_off, _, _ = struct.unpack("<QI4s", raw[-16:])
        raw[table_off + 16] |= 0x80
        with pytest.raises(ValueError, match="unknown frame flags"):
            MultiFrameReader(bytes(raw))

    def test_stream_bytes_deterministic_across_chunk_executors(self):
        steps = self.steps(3)
        blobs = [
            compress_stream(
                steps, self.EB, keyframe_interval=2, chunks=12,
                chunk_executor=ex, chunk_workers=3,
            )
            for ex in ("serial", "thread")
        ]
        assert blobs[0] == blobs[1]

    def test_auto_codec_sharded_frames(self):
        steps = self.steps(3)
        blob = compress_stream(
            steps, self.EB, keyframe_interval=2, codec="auto", chunks=12
        )
        reader = MultiFrameReader(blob)
        assert all(f.is_sharded for f in reader.frames)
        for t, rec in enumerate(iter_decompress(blob)):
            assert_error_bounded(steps[t], rec, self.EB)

    def test_overlap_matches_serial_engine(self):
        steps = self.steps(4)
        a = compress_stream(
            steps, self.EB, keyframe_interval=2, chunks=12
        )
        b = compress_stream(
            steps, self.EB, keyframe_interval=2, chunks=12, overlap=True
        )
        assert a == b


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

class TestChunkedCLI:
    def test_compress_info_decompress_roi(self, tmp_path, capsys):
        from repro.cli import main

        data = field()
        np.save(tmp_path / "in.npy", data)
        archive = tmp_path / "in.stz"
        assert main(
            [
                "compress", str(tmp_path / "in.npy"), str(archive),
                "--eb", "1e-3", "--mode", "abs", "--chunks", "16",
                "--workers", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "[sharded, 18 chunks]" in out

        assert main(["info", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "grid 3x3x2" in out
        assert out.count("stz") >= 18  # per-chunk codec ids listed

        assert main(
            [
                "decompress", str(archive), str(tmp_path / "out.npy"),
                "--workers", "2",
            ]
        ) == 0
        capsys.readouterr()
        assert_error_bounded(data, np.load(tmp_path / "out.npy"), 1e-3)

        assert main(
            [
                "decompress", str(archive), str(tmp_path / "roi.npy"),
                "--roi", "5:20,3:30,7",
            ]
        ) == 0
        capsys.readouterr()
        full = np.load(tmp_path / "out.npy")
        assert np.array_equal(
            np.load(tmp_path / "roi.npy"), full[5:20, 3:30, 7:8]
        )

    def test_stream_chunks_flag(self, tmp_path, capsys):
        from repro.cli import main

        steps = [
            smooth_field((16, 12, 10), seed=70 + t).astype(np.float32)
            for t in range(3)
        ]
        for t, s in enumerate(steps):
            np.save(tmp_path / f"t{t}.npy", s)
        archive = tmp_path / "steps.stz"
        assert main(
            [
                "stream", str(archive),
                *(str(tmp_path / f"t{t}.npy") for t in range(3)),
                "--eb", "1e-3", "--mode", "abs", "--chunks", "8",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded" in out
        for t, rec in enumerate(
            iter_decompress(archive.read_bytes())
        ):
            assert_error_bounded(steps[t], rec, 1e-3)

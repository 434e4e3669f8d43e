"""Execution of independent sub-block and chunk tasks.

Every map in the repo is a map over independent tasks, and every
pooled map runs on one :class:`WorkerPool`:

* **Thread facade** (:func:`pmap`) — the paper's "OMP mode" (Table 3).
  STZ's hierarchy makes every (level, parity-offset) sub-block task
  independent once the coarser lattice is reconstructed, so
  parallelism is a plain map.  The heavy kernels (interpolation
  arithmetic, quantization, Huffman bit manipulation) release the GIL,
  and threads avoid pickling multi-MB arrays.
* **Executor layer** (:func:`resolve_executor` / :func:`execute_map` /
  :class:`WorkerPool`) — the chunked engine's worker pool.
  ``"serial"`` and ``"thread"`` are what they say; ``"process"`` runs
  a fork-based pool whose workers *inherit* the parent's task payload
  (the source array or archive buffer) through the fork instead of
  receiving it by pickle: chunk indices cross the pipe inbound in
  contiguous per-worker slices (one task and one result pickle per
  worker, not per chunk), and outputs either come back as (small,
  already compressed) bytes or are written into a shared mapping
  (``multiprocessing.shared_memory`` / a file-backed ``np.memmap``) the
  workers inherited.  A caller-owned :class:`WorkerPool` keeps workers
  warm across maps; without one a map builds a one-shot pool and
  closes it on exit.  :func:`engine_executor` adds the capacity gate
  the chunked entry points use to degrade to the serial walk on truly
  1-core hosts.  Hosts without the ``fork`` start method fall back to
  the thread pool — same results, the chunked byte stream is
  deterministic by construction (each chunk's bytes depend only on its
  content and the config, and assembly order is the plan order).

DESIGN.md §3 documents the thread-mode substitution: absolute speedups
are below a C++ OpenMP build, but the *structural* contrast the paper
reports — STZ parallelizes without a compression-ratio penalty while
SZ3's OMP mode must domain-split and lose CR — is reproduced.  DESIGN.md
§8 documents the chunked executor contract.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

DEFAULT_THREADS = 8

#: executor kinds accepted by the chunked engine / CLI
EXECUTORS = ("serial", "thread", "process")


def _usable_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the *machine*, not the process: under a
    container quota or a ``taskset`` affinity mask the scheduler
    confines the process to a subset, and sizing pools (or arming the
    chunked bench's speedup gate) off the machine count claims
    parallelism that does not exist.  Resolution order:
    ``os.process_cpu_count`` (3.13+), the affinity mask, the machine
    count.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        n = counter()
        if n:
            return n
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            n = len(getaffinity(0))
            if n:
                return n
        except OSError:
            pass
    return os.cpu_count() or 1


def effective_workers(workers: int | None) -> int:
    """Resolve a worker/thread-count request (None/0/1 mean serial).

    The single resolution rule shared by the thread facade and the
    process executor: requests are honored up to ``4 *`` the usable-CPU
    count (an oversubscription allowance for I/O-ish stages), never
    below 1.
    """
    if workers is None or workers <= 1:
        return 1
    return min(workers, 4 * _usable_cpus())


def parallel_capacity() -> int:
    """CPUs that can actually run numpy kernels concurrently.

    On a single-core host a thread pool is pure overhead (the kernels
    are CPU-bound even though they release the GIL), so callers use
    this to fall back to their serial path — the same behavior as an
    OpenMP build with one core.  Thread-count *requests* are still
    honored by :func:`effective_workers` on multi-core hosts.
    Affinity-aware (:func:`_usable_cpus`): a 48-core machine with a
    1-CPU container quota has capacity 1, not 48.
    """
    return _usable_cpus()


def force_pools() -> bool:
    """Whether ``STZ_FORCE_POOLS`` disables the engine capacity gate.

    CI (and the executor test-suite) sets it so real pool mechanics
    are exercised even on 1-core runners, where
    :func:`engine_executor` would otherwise degrade every parallel
    request to the serial walk.
    """
    return os.environ.get("STZ_FORCE_POOLS", "").lower() in (
        "1", "true", "on", "yes"
    )


def engine_executor(executor: str, workers: int | None) -> tuple[str, int]:
    """:func:`resolve_executor` plus the chunked engine's capacity gate.

    On a host whose usable-CPU count is 1, a chunk-level pool cannot
    run anything concurrently: every pooled chunk pays submit/pickle/
    collect overhead for zero parallelism, which is exactly how the
    process executor used to *lose* to the serial walk on 1-core CI
    runners.  The chunked-engine entry points route parallel requests
    through this gate and degrade them to the serial walk when
    capacity is truly 1 — byte-identical output by the determinism
    contract, never slower than serial.  ``STZ_FORCE_POOLS=1``
    disables the gate.  Direct :func:`execute_map` calls are never
    gated: explicit requests are honored there (the fault-injection
    tests rely on real pools on any host).
    """
    kind, n = resolve_executor(executor, workers)
    if kind != "serial" and _usable_cpus() < 2 and not force_pools():
        return "serial", 1
    return kind, n


def _call(fn: Callable[[T], R], x: T) -> R:
    return fn(x)


def pmap(
    fn: Callable[[T], R], items: Sequence[T], threads: int | None = None
) -> list[R]:
    """Order-preserving map, serial or thread-pooled (a one-shot
    :func:`execute_map`; a failed item raises its own exception)."""
    n = effective_workers(threads)
    if n == 1 or len(items) <= 1 or parallel_capacity() < 2:
        return [fn(x) for x in items]
    return execute_map(_call, items, fn, "thread", n)


# ---------------------------------------------------------------------------
# chunked executor layer
# ---------------------------------------------------------------------------

def fork_available() -> bool:
    """Whether the no-pickle process executor can run on this host."""
    return "fork" in mp.get_all_start_methods()


def resolve_executor(
    executor: str, workers: int | None
) -> tuple[str, int]:
    """Normalize an (executor, workers) request.

    Returns the effective ``(kind, nworkers)``: unknown kinds are
    rejected, a resolved worker count of 1 degrades any kind to
    ``"serial"``, and ``"process"`` degrades to ``"thread"`` where the
    ``fork`` start method is unavailable (the process path relies on
    fork inheritance to avoid pickling chunk arrays).  Unlike
    :func:`pmap`'s capacity gate, an explicit multi-worker request is
    honored even on a single-core host — the chunked tests exercise
    real pools there, and determinism cannot depend on the fallback.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; known: {EXECUTORS}"
        )
    n = effective_workers(workers)
    if executor == "serial" or n == 1:
        return "serial", 1
    if executor == "process" and not fork_available():
        return "thread", n
    return executor, n


#: payload inherited by fork-pool workers: ``(fn, state)`` set by
#: :meth:`WorkerPool._fork_pool` immediately before the pool forks.
#: Module-level on purpose — fork inheritance is the whole point (no
#: pickling of the state, which holds the source array / archive
#: buffer / output mapping).  One pool at a time: ``_FORK_LOCK`` makes
#: the publish→fork→clear sequence atomic, so a second concurrent
#: caller (or a nested call — a forked child inherits the lock held)
#: degrades to the inline serial loop instead of hijacking the first
#: pool's published ``(fn, state)``.
_FORK_STATE: tuple | None = None
_FORK_LOCK = threading.Lock()


class _ItemFailure:
    """Per-item failure marker inside an outcome list — keeps one bad
    item from discarding the results of every other item (the raw
    material of :func:`execute_map`'s retry pass)."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


def _fork_invoke_batch(batch):
    """Worker task: run a contiguous slice of items, one result list
    back.  The *slice* is the submit/pickle unit (one task and one
    result pickle per worker instead of per chunk); the *item* stays
    the failure unit via per-item ``_ItemFailure`` markers, so the
    retry contract still identifies exactly which items failed."""
    fn, state = _FORK_STATE
    return [_run_item(fn, state, item) for item in batch]


def _run_item(fn, state, item):
    """``fn(state, item)``, or the failure as an outcome."""
    try:
        return fn(state, item)
    except Exception as exc:  # noqa: BLE001 — outcome, re-raised later
        return _ItemFailure(exc)


def _same_payload(old, new) -> bool:
    """Whether a warm fork pool's snapshot of ``old`` can stand in for
    ``new``.  Identical objects always can; tuples/lists recurse;
    arrays and other mutable buffers must be the *same object* — the
    children hold a copy-on-write snapshot from fork time, and the
    caller's side of the warm-pool contract is not to mutate payload
    it passes by identity while the pool is warm.  Everything else
    (frozen configs, plans, floats, paths, ``bytes``) compares by
    equality.
    """
    if old is new:
        return True
    if type(old) is not type(new):
        return False
    if isinstance(old, (tuple, list)):
        return len(old) == len(new) and all(
            _same_payload(a, b) for a, b in zip(old, new)
        )
    if (
        hasattr(old, "__array_interface__")
        or isinstance(old, (bytearray, memoryview))
    ):
        return False  # mutable buffers only match by identity (above)
    try:
        return bool(old == new)
    except Exception:  # noqa: BLE001 — incomparable payloads never match
        return False


def _slice_spans(nitems: int, nslices: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``(start, stop)`` spans — one per worker."""
    nslices = max(1, min(nslices, nitems))
    base, extra = divmod(nitems, nslices)
    spans, start = [], 0
    for i in range(nslices):
        stop = start + base + (1 if i < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def _remaining(deadline: float | None) -> float | None:
    """Seconds left until ``deadline`` (None = unbounded; 0 = expired)."""
    if deadline is None:
        return None
    return max(0.0, deadline - time.monotonic())


def _expired(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _cancel_all(futures) -> None:
    for fut in futures:
        fut.cancel()


def _map_timeout(nleft: int) -> TimeoutError:
    return TimeoutError(
        f"execute_map deadline expired with {nleft} task(s) still "
        "in flight; pending work was cancelled"
    )


def _collect_slices(
    pool_exec: ProcessPoolExecutor,
    items: Sequence,
    spans: list[tuple[int, int]],
    deadline: float | None = None,
) -> tuple[list, bool]:
    """Submit one slice per span and flatten the per-item outcomes.

    A child that *raises* fails only its own items (markers travel
    back inside the slice result); a child that dies outright (OOM
    kill, segfault, SIGKILL) breaks the pool and surfaces as
    ``BrokenProcessPool`` on the in-flight slice futures — every item
    of an affected slice is marked failed, and the second return value
    reports the breakage so a warm pool can be discarded.

    ``deadline`` (``time.monotonic()`` seconds) bounds the wait: on
    expiry the not-yet-started slices are cancelled and the whole map
    raises :class:`TimeoutError` — a timed-out map is the *caller's*
    casualty, never folded into per-item failure markers (the retry
    pass re-running every abandoned item serially would exactly defeat
    the timeout).  The caller is responsible for discarding a warm
    pool whose in-flight slices were abandoned.
    """
    futures = [
        pool_exec.submit(_fork_invoke_batch, list(items[a:b]))
        for a, b in spans
    ]
    outcomes: list = []
    broken = False
    for i, (fut, (a, b)) in enumerate(zip(futures, spans)):
        try:
            outcomes.extend(fut.result(timeout=_remaining(deadline)))
        except Exception as exc:  # noqa: BLE001 — see above
            if isinstance(exc, TimeoutError) and _expired(deadline):
                # the *wait* timed out (not a task raising TimeoutError
                # of its own before the deadline): abandon the map
                _cancel_all(futures[i:])
                raise _map_timeout(len(futures) - i) from None
            outcomes.extend(_ItemFailure(exc) for _ in range(b - a))
            broken = True
    return outcomes, broken


class WorkerPool:
    """Executor handle: the one place a map pool is built.

    Every pooled :func:`execute_map` runs on a ``WorkerPool`` — a
    caller-owned one that keeps workers warm across maps, or a one-shot
    one the map builds and closes itself.  Pool startup is pure
    overhead charged to every map — thread-stack or fork+interpreter
    setup, then teardown — and the chunked bench, the streaming
    subsystem and repeated engine invocations issue many maps back to
    back.  A warm handle amortizes it: the thread pool is created once
    and reused unconditionally; a fork pool is reused while the
    published ``(fn, state)`` pair is the *same objects* as at fork
    time (children snapshot them when they fork, so different state
    must repool), and while warm it keeps :data:`_FORK_STATE`
    published under :data:`_FORK_LOCK` — late-spawned workers of the
    same pool still snapshot the right payload, and concurrent one-shot
    process maps degrade inline exactly as they would against an
    in-flight one-shot pool.

    Thread-safety: both sides are safe to drive from concurrent
    callers.  The *thread* side takes no lock per map — creation of the
    thread pool is lock-guarded and ``ThreadPoolExecutor`` itself is
    thread-safe.  The *fork* side serializes itself: an internal lock
    is held across a whole fork map (warm-pool lookup or repool, slice
    collection, discard of a broken or abandoned pool), so concurrent
    process maps with different ``(fn, state)`` pairs queue and each
    sees its own payload.  Always :meth:`close` (or use as a context
    manager) — a warm fork pool holds the module fork lock.
    """

    def __init__(self, executor: str, workers: int | None = None):
        self.kind, self.workers = resolve_executor(executor, workers)
        self._threads: ThreadPoolExecutor | None = None
        self._tcreate = threading.Lock()
        self._proc: ProcessPoolExecutor | None = None
        self._key: tuple | None = None
        self._lock_held = False
        self._fork_side = threading.Lock()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def thread_pool(self) -> ThreadPoolExecutor:
        """The warm thread pool (created on first use; creation is
        atomic so concurrent first callers cannot leak a pool)."""
        if self._threads is None:
            with self._tcreate:
                if self._threads is None:
                    self._threads = ThreadPoolExecutor(
                        max_workers=self.workers
                    )
        return self._threads

    def _thread_outcomes(self, fn, items, state, deadline) -> list:
        """Per-item outcomes over the thread pool.  A ``deadline``
        expiry cancels every not-yet-started item and raises
        :class:`TimeoutError`; already-running items finish in the
        background and their results are discarded — thread pools are
        not poisoned by abandonment, so a warm pool stays usable."""
        tpe = self.thread_pool()
        futures = [tpe.submit(_run_item, fn, state, x) for x in items]
        outcomes: list = []
        for i, fut in enumerate(futures):
            try:
                outcomes.append(fut.result(timeout=_remaining(deadline)))
            except TimeoutError:
                if _expired(deadline):
                    _cancel_all(futures[i:])
                    raise _map_timeout(len(futures) - i) from None
                raise
        return outcomes

    def _fork_outcomes(
        self, fn, items, state, nslices: int, deadline
    ) -> list | None:
        """Per-item outcomes over the fork pool, or ``None`` when no
        pool can run here (fork unavailable, or another pool holds the
        module fork lock — including a nested map inside a forked
        worker, which inherited it held) and the caller should run
        inline.

        Items are submitted as ``nslices`` contiguous per-worker slices
        (:func:`_slice_spans` / :func:`_collect_slices`): one task
        pickle and one result pickle per worker instead of per chunk,
        while per-item failure markers keep :func:`execute_map`'s retry
        pass item-granular.

        Drain-or-discard: if the waiting caller is torn away mid-map —
        a ``deadline`` expiry, ``KeyboardInterrupt``, anything — the
        pool is discarded (without waiting on the orphaned in-flight
        slices) before the exception propagates.  A handle must never
        come back from an abandoned map still holding live slices: the
        next map on it would interleave with work the previous caller
        gave up on, and :meth:`close` would block on it.
        """
        remaining = _remaining(deadline)
        if not self._fork_side.acquire(
            timeout=-1 if remaining is None else remaining
        ):
            raise _map_timeout(len(items))
        try:
            proc = self._fork_pool(fn, state)
            if proc is None:
                return None
            try:
                outcomes, broken = _collect_slices(
                    proc, items, _slice_spans(len(items), nslices), deadline
                )
            except BaseException:
                self._release_fork(wait=False)
                raise
            if broken:
                self._release_fork()
            return outcomes
        finally:
            self._fork_side.release()

    def _fork_pool(self, fn, state) -> ProcessPoolExecutor | None:
        """The warm fork pool for ``(fn, state)`` (repooled when the
        payload changed), or ``None`` when no pool can run right now."""
        global _FORK_STATE
        if self._proc is not None:
            if self._key[0] is fn and _same_payload(self._key[1], state):
                return self._proc
            self._release_fork()  # children hold a stale snapshot
        if not fork_available():
            return None
        if not _FORK_LOCK.acquire(blocking=False):
            return None
        _FORK_STATE = (fn, state)
        self._lock_held = True
        try:
            self._proc = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=mp.get_context("fork")
            )
        except BaseException:
            self._release_fork()
            raise
        self._key = (fn, state)
        return self._proc

    def _release_fork(self, wait: bool = True) -> None:
        """Drop the fork pool and free the module fork lock.
        ``wait=False`` is the cancellation path: pending slices are
        cancelled, running ones finish detached in children that hold
        their own fork-time snapshot, and the handle (plus the module
        fork lock) is free for the next map immediately."""
        global _FORK_STATE
        if self._proc is not None:
            try:
                self._proc.shutdown(wait=wait, cancel_futures=True)
            except Exception:  # noqa: BLE001 — broken pools may misbehave
                pass
            self._proc = None
            self._key = None
        if self._lock_held:
            _FORK_STATE = None
            self._lock_held = False
            _FORK_LOCK.release()

    def _shutdown(self, wait: bool) -> None:
        with self._fork_side:
            self._release_fork(wait)
        if self._threads is not None:
            self._threads.shutdown(wait=wait, cancel_futures=not wait)
            self._threads = None

    def close(self) -> None:
        self._shutdown(wait=True)


def _settle(
    outcomes: list,
    fn: Callable[[object, T], R],
    items: Sequence[T],
    state: object,
    retry: int,
) -> list[R]:
    """Resolve ``_ItemFailure`` outcomes: re-run each failed item
    serially in the calling process up to ``retry`` times, then raise
    the (last) failure.  Serial re-execution is the degradation path
    for *worker* casualties — a ``BrokenProcessPool`` wipes every
    in-flight future, but the items themselves are typically fine."""
    for i, outcome in enumerate(outcomes):
        if not isinstance(outcome, _ItemFailure):
            continue
        exc = outcome.exc
        for _ in range(max(0, retry)):
            try:
                outcomes[i] = fn(state, items[i])
                break
            except Exception as retry_exc:  # noqa: BLE001 — raised below
                exc = retry_exc
        else:
            raise exc
    return outcomes


def execute_map(
    fn: Callable[[object, T], R],
    items: Sequence[T],
    state: object,
    executor: str = "serial",
    workers: int | None = None,
    retry: int = 0,
    pool: WorkerPool | None = None,
    timeout: float | None = None,
) -> list[R]:
    """Run ``fn(state, item)`` for every item under the chosen executor.

    The one entry point the chunked engine uses for both directions:
    ``serial`` is the reference loop, ``thread`` shares ``state`` by
    virtue of threads, ``process`` goes through the fork pool, whose
    workers inherit ``fn`` and ``state`` (published in
    :data:`_FORK_STATE` before the fork) so only items and results are
    pickled — unpicklable state is fine, and callers that need
    zero-copy *output* put a shared mapping (``SharedMemory`` buffer or
    file-backed memmap) into ``state``.  Results are returned in item
    order for every executor — the byte-determinism contract of the v3
    container.  Where no fork pool can run (another one is in flight,
    or this is a nested map inside a forked worker) the map runs
    inline.

    ``retry`` bounds a serial re-execution pass over items whose pooled
    run failed: a crashed worker (``BrokenProcessPool`` — OOM killer,
    segfault) fails every in-flight future, but the items are usually
    healthy, so the chunked engine passes ``retry=1`` and loses nothing
    but time.  Deterministic failures (a genuinely corrupt chunk) fail
    again in the parent and surface with their original, contextual
    exception — retries never mask an error, they only strip away pool
    mechanics.  The serial path never retries: it would deterministically
    re-raise.

    ``pool`` (a :class:`WorkerPool` of the matching kind) reuses warm
    workers across calls instead of paying pool startup/teardown per
    map; a mismatched or absent handle means a one-shot ``WorkerPool``
    that the map closes on exit.  The handle's lifetime belongs to the
    caller (the chunked engine scopes one to an engine invocation;
    benches to the timing loop).

    ``timeout`` (seconds) bounds the whole map's wall clock.  On
    expiry the map raises :class:`TimeoutError`: not-yet-started work
    is cancelled, in-flight pooled work is abandoned (running thread
    items finish detached and are discarded; a fork pool is discarded
    without waiting so its orphaned slices can never leak into a later
    map on the same handle), and the timeout is *never* converted into
    per-item failures — a retry pass serially re-running everything
    the deadline cut off would defeat it.  This is the serve layer's
    request-timeout contract: a cancelled caller leaves every pool
    either drained or discarded, never poisoned.
    """
    kind, n = resolve_executor(executor, workers)
    deadline = None if timeout is None else time.monotonic() + timeout
    outcomes = None
    if kind != "serial" and len(items) > 1:
        one_shot = pool is None or pool.kind != kind
        if one_shot:
            pool = WorkerPool(kind, min(n, len(items)))
        try:
            if kind == "thread":
                outcomes = pool._thread_outcomes(fn, items, state, deadline)
            else:
                outcomes = pool._fork_outcomes(fn, items, state, n, deadline)
        except BaseException:
            if one_shot:
                # torn-away caller: don't block behind abandoned work
                pool._shutdown(wait=False)
            raise
        if one_shot:
            pool.close()
    if outcomes is None:
        out = []
        for x in items:
            if _expired(deadline):
                raise _map_timeout(len(items) - len(out))
            out.append(fn(state, x))
        return out
    return _settle(outcomes, fn, items, state, retry)

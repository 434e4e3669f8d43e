"""Shared synthetic-volume fixtures for the test and benchmark trees.

``tests/conftest.py`` and ``benchmarks/conftest.py`` used to each
define their own copies of these fixtures; both now import from here,
so the two trees cannot drift apart (pytest discovers fixtures by name
in whatever conftest namespace they are imported into).  The module
also re-exports :func:`smooth_field` and :func:`max_err`, the helper
pair every test module pulls from its conftest.

:func:`conformance_field` and :func:`registry_field` are the *cached*
dataset builders shared by the conformance sweep and the
codec-selection tests: each (shape, dtype, variant) pair is generated
once per process instead of once per parametrized test (the sweep
multiplies every field by codecs x bounds), and the arrays are handed
out read-only so no codec under test can corrupt a neighbour's input.

The **fault-injection harness** (:func:`flip_bit` / :func:`flip_byte` /
:func:`truncate_at` / :func:`corrupt_chunk_payload` /
:func:`corrupt_frame_payload` / :class:`WorkerKiller`) drives the
corruption conformance suite (DESIGN.md §9): every injector is
deterministic — same archive + same arguments = same damaged bytes —
so a failing corruption test reproduces exactly.

The **server harness** (:class:`ServerHarness` / :class:`ServeClient`)
runs a real in-process :class:`~repro.serve.server.CompressionServer`
on a background event-loop thread and talks to it over real TCP — the
shared substrate of ``tests/test_serve.py`` and the serve gate in
``tests/test_perf_gates.py``, so the concurrency tests and the load
generator exercise the same client path.  Fault injection composes:
``fault_prologue`` threads a hook into every decode task (sleeps for
admission/timeout tests, :meth:`WorkerKiller.maybe_die` for
pool-death tests), and :meth:`ServeClient.abort_mid_request` produces
the mid-request disconnect the connection handler must absorb.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import socket
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.synthetic import smooth_field  # noqa: F401
from repro.metrics.error import max_abs_error as max_err  # noqa: F401

#: value-scale edge variants swept by the conformance and selector
#: suites (NaN-free by construction; non-finite handling has its own
#: dedicated tests)
FIELD_VARIANTS = ("unit", "large", "tiny", "shifted", "constant")


@lru_cache(maxsize=None)
def conformance_field(
    shape: tuple[int, ...],
    dtype_name: str = "float32",
    variant: str = "unit",
    seed: int = 11,
) -> np.ndarray:
    """One cached, read-only test field per (shape, dtype, variant)."""
    dtype = np.dtype(dtype_name)
    if variant == "constant":
        data = np.full(shape, 3.25, dtype=dtype)
    else:
        data = smooth_field(shape, seed=seed).astype(dtype)
        if variant == "large":
            data = data * dtype.type(1e6)
        elif variant == "tiny":
            data = data * dtype.type(1e-6)
        elif variant == "shifted":
            data = data + dtype.type(1000.0)
        elif variant != "unit":
            raise ValueError(f"unknown variant {variant!r}")
    data.setflags(write=False)
    return data


@lru_cache(maxsize=None)
def registry_field(
    name: str, shape: tuple[int, ...] = (32, 32, 32), seed: int = 0
) -> np.ndarray:
    """One cached, read-only registry dataset per (name, shape, seed)."""
    from repro.datasets.registry import load

    data = load(name, shape=shape, seed=seed)
    data.setflags(write=False)
    return data


@pytest.fixture
def smooth3d_f32() -> np.ndarray:
    return smooth_field((32, 32, 32), seed=1).astype(np.float32)


@pytest.fixture
def smooth3d_f64() -> np.ndarray:
    return smooth_field((24, 20, 28), seed=2)


@pytest.fixture
def smooth2d_f32() -> np.ndarray:
    return smooth_field((48, 40), seed=3).astype(np.float32)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def evolving_field(
    nsteps: int,
    shape: tuple[int, ...] = (16, 16, 16),
    dtype=np.float32,
    scale: float = 0.05,
    seed: int = 7,
    step_seed: int = 300,
):
    """Lazily yield a slowly evolving deterministic sequence: each step
    adds a small smooth forcing term to the previous one (the
    delta-friendly shape the streaming tests and benchmarks share)."""
    field = smooth_field(shape, seed=seed).astype(dtype)
    for t in range(nsteps):
        field = field + dtype(scale) * smooth_field(
            shape, seed=step_seed + t
        ).astype(dtype)
        yield field


# ---------------------------------------------------------------------------
# fault-injection harness
# ---------------------------------------------------------------------------

def flip_bit(blob: bytes, byte_offset: int, bit: int = 0) -> bytes:
    """Return ``blob`` with one bit flipped (deterministic bit rot)."""
    if not 0 <= byte_offset < len(blob):
        raise ValueError(
            f"byte_offset {byte_offset} outside blob of {len(blob)} B"
        )
    if not 0 <= bit < 8:
        raise ValueError(f"bit must be 0..7, got {bit}")
    damaged = bytearray(blob)
    damaged[byte_offset] ^= 1 << bit
    return bytes(damaged)


def flip_byte(blob: bytes, byte_offset: int, xor: int = 0xFF) -> bytes:
    """Return ``blob`` with one byte XORed (``xor`` must not be 0 —
    that would be a no-op masquerading as an injected fault)."""
    if not 0 <= byte_offset < len(blob):
        raise ValueError(
            f"byte_offset {byte_offset} outside blob of {len(blob)} B"
        )
    if not 1 <= xor <= 0xFF:
        raise ValueError(f"xor must be 1..255, got {xor}")
    damaged = bytearray(blob)
    damaged[byte_offset] ^= xor
    return bytes(damaged)


def truncate_at(blob: bytes, offset: int) -> bytes:
    """Return the first ``offset`` bytes of ``blob`` (a crash before
    the remaining bytes reached disk)."""
    if not 0 <= offset <= len(blob):
        raise ValueError(
            f"offset {offset} outside blob of {len(blob)} B"
        )
    return blob[:offset]


def corrupt_chunk_payload(
    blob: bytes, index: int, byte: int = 0, xor: int = 0xFF
) -> bytes:
    """Flip one payload byte of chunk ``index`` of a sharded archive."""
    from repro.core.stream import ShardedReader

    entry = ShardedReader(blob).chunk(index)
    if not 0 <= byte < entry.length:
        raise ValueError(
            f"byte {byte} outside chunk {index} payload of "
            f"{entry.length} B"
        )
    return flip_byte(blob, entry.offset + byte, xor)


def corrupt_frame_payload(
    blob: bytes, index: int, byte: int = 0, xor: int = 0xFF
) -> bytes:
    """Flip one payload byte of frame ``index`` of a multi-frame
    archive."""
    from repro.core.stream import MultiFrameReader

    info = MultiFrameReader(blob).frame(index)
    if not 0 <= byte < info.length:
        raise ValueError(
            f"byte {byte} outside frame {index} payload of "
            f"{info.length} B"
        )
    return flip_byte(blob, info.offset + byte, xor)


class WorkerKiller:
    """One-shot SIGKILL for exactly one pool worker.

    The claim is a file created with ``O_CREAT | O_EXCL`` — an atomic
    filesystem token that exactly one process can win, which makes the
    injector safe under any executor (fork pool, thread pool, serial)
    and idempotent across retries: the retried item finds the token
    taken and runs normally.  Usage::

        killer = WorkerKiller(tmp_path)
        def fn(state, item):
            killer.maybe_die()      # first worker to arrive dies
            return real_work(item)

    The parent observes the casualty as ``BrokenProcessPool``; with
    ``execute_map(..., retry=1)`` the item is re-run serially and the
    map heals (DESIGN.md §9's executor retry rule).
    """

    def __init__(self, directory: str | os.PathLike, name: str = "kill-token"):
        self.token = Path(directory) / name
        # the constructing process (the test) is never a valid target —
        # under the serial/thread executors maybe_die() must be a no-op
        # or the injector would kill the test run itself
        self._parent = os.getpid()

    def armed(self) -> bool:
        """Whether the kill has not happened yet."""
        return not self.token.exists()

    def maybe_die(self) -> None:
        """SIGKILL the calling *worker* process if it wins the claim
        (no-op in the constructing process and for every later
        caller)."""
        if os.getpid() == self._parent:
            return
        try:
            fd = os.open(self.token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)


# ---------------------------------------------------------------------------
# serve-layer harness (shared by test_serve.py and test_perf_gates.py)
# ---------------------------------------------------------------------------

@dataclass
class ServeResponse:
    """One HTTP reply, fully drained (keep-alive safe)."""

    status: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> dict:
        return json.loads(self.body.decode("utf-8"))

    def array(self) -> np.ndarray:
        """Decode an ``X-Shape``/``X-Dtype`` raw-array response."""
        shape = tuple(int(s) for s in self.headers["x-shape"].split(","))
        dtype = np.dtype(self.headers["x-dtype"])
        return np.frombuffer(self.body, dtype=dtype).reshape(shape)


class ServeClient:
    """Blocking keep-alive client for one tenant.

    Deliberately synchronous (``http.client`` over one reused TCP
    connection): the concurrency tests get real parallelism by running
    many clients on threads, and the closed-loop bench wants
    one-request-at-a-time latency per simulated tenant anyway.  Not
    thread-safe — one client per thread, like one tenant per terminal.
    """

    def __init__(
        self, host: str, port: int, tenant: str, timeout: float = 60.0
    ):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> ServeResponse:
        merged = {"X-Tenant": self.tenant}
        if headers:
            merged.update(headers)
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=merged)
            resp = conn.getresponse()
            payload = resp.read()
        except (http.client.HTTPException, OSError):
            # server closed the connection (e.g. after a framing 4xx):
            # reconnect once and retry — keep-alive is an optimization,
            # not part of the test contract
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=merged)
            resp = conn.getresponse()
            payload = resp.read()
        return ServeResponse(
            resp.status,
            {k.lower(): v for k, v in resp.getheaders()},
            payload,
        )

    # -- endpoint conveniences -------------------------------------------

    @staticmethod
    def _array_headers(arr: np.ndarray) -> dict[str, str]:
        return {
            "X-Shape": ",".join(map(str, arr.shape)),
            "X-Dtype": str(arr.dtype),
        }

    def compress(
        self,
        data: np.ndarray,
        eb: float,
        mode: str = "abs",
        chunks: "int | tuple[int, ...] | None" = None,
        codec: str | None = None,
    ) -> ServeResponse:
        headers = self._array_headers(data)
        headers["X-EB"] = repr(float(eb))
        headers["X-EB-Mode"] = mode
        if chunks is not None:
            spec = (
                str(chunks)
                if isinstance(chunks, int)
                else ",".join(map(str, chunks))
            )
            headers["X-Chunks"] = spec
        if codec is not None:
            headers["X-Codec"] = codec
        return self.request(
            "POST", "/v1/compress",
            np.ascontiguousarray(data).tobytes(), headers,
        )

    def upload(self, blob: bytes) -> ServeResponse:
        return self.request("POST", "/v1/archives", blob)

    def decompress(self, digest: str) -> ServeResponse:
        return self.request("POST", f"/v1/decompress?digest={digest}")

    def roi(self, digest: str, box: str) -> ServeResponse:
        return self.request("GET", f"/v1/roi?digest={digest}&box={box}")

    def stream_open(
        self,
        eb: float,
        shape: tuple[int, ...],
        dtype: str,
        mode: str = "abs",
        keyframe_interval: int | None = None,
    ) -> ServeResponse:
        headers = {
            "X-EB": repr(float(eb)),
            "X-EB-Mode": mode,
            "X-Shape": ",".join(map(str, shape)),
            "X-Dtype": dtype,
        }
        if keyframe_interval is not None:
            headers["X-Keyframe-Interval"] = str(keyframe_interval)
        return self.request("POST", "/v1/stream/open", b"", headers)

    def stream_append(self, step: np.ndarray) -> ServeResponse:
        return self.request(
            "POST", "/v1/stream/append",
            np.ascontiguousarray(step).tobytes(),
        )

    def stream_close(self) -> ServeResponse:
        return self.request("POST", "/v1/stream/close")

    def stats(self) -> dict:
        return self.request("GET", "/v1/stats").json()

    def abort_mid_request(self, claimed_body: int = 1 << 20) -> None:
        """The mid-request disconnect fault: open a raw socket, send a
        request head claiming ``claimed_body`` bytes, ship only a
        fragment, and vanish.  The server must absorb this as a
        disconnect (counted, never answered, never a 5xx in the log)
        and keep serving everyone else."""
        head = (
            f"POST /v1/compress HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"X-Tenant: {self.tenant}\r\n"
            f"Content-Length: {claimed_body}\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as sock:
            sock.sendall(head + b"\x00" * min(64, claimed_body))
            # hard close: RST-ish abandonment, not a polite shutdown


class ServerHarness:
    """A real :class:`~repro.serve.server.CompressionServer` on a
    background event-loop thread, reachable over TCP on an ephemeral
    port.  Usage::

        with ServerHarness(workers=2, cache_bytes=1 << 20) as h:
            client = h.client("tenant-a")
            r = client.compress(data, eb=1e-3, chunks=16)

    ``fault_prologue`` (a callable invoked inside every decode task)
    is the injection seam shared with :class:`WorkerKiller` — pass
    ``killer.maybe_die`` wrapped to ignore the index, or a sleep to
    congest the admission gate.  Keyword overrides go straight into
    :class:`~repro.serve.server.ServeConfig` (``port`` defaults to 0 =
    ephemeral).
    """

    def __init__(self, fault_prologue=None, **config_overrides):
        from repro.serve import CompressionServer, ServeConfig, ServeEngine

        self.config = ServeConfig(**config_overrides)
        self.engine = ServeEngine(
            executor=self.config.executor,
            workers=self.config.workers,
            cache_bytes=self.config.cache_bytes,
            dispatchers=self.config.max_inflight + 2,
            fault_prologue=fault_prologue,
        )
        self.server = CompressionServer(self.config, engine=self.engine)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._clients: list[ServeClient] = []
        self.port: int | None = None

    def start(self) -> "ServerHarness":
        ready = threading.Event()
        startup: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                startup.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.server.close())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="stz-serve-harness", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("serve harness failed to start in 30 s")
        if startup:
            raise startup[0]
        self.port = self.server.port
        return self

    def client(self, tenant: str, timeout: float = 60.0) -> ServeClient:
        assert self.port is not None, "harness not started"
        client = ServeClient(
            self.config.host, self.port, tenant, timeout=timeout
        )
        self._clients.append(client)
        return client

    def stop(self) -> None:
        for client in self._clients:
            client.close()
        self._clients.clear()
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop = None
            self._thread = None
        self.engine.close()

    def __enter__(self) -> "ServerHarness":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

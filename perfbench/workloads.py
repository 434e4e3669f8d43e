"""The three workloads: ``bulk``, ``chunked`` and ``serve``.

Every input is generated from the seed with ``repro.datasets``; the
program is driven only through ``repro.core.api`` and an in-process
``repro.testing.ServerHarness``.  Every output is checked: full decodes
against the hard L-inf bound (resolved the way ``resolve_eb`` does),
ROI and preview results bit for bit against the crop or stride of the
full reconstruction, and served bytes against the offline decode of
the same archive.

``bulk`` and ``chunked`` are closed loops of whole cycles (one cycle =
every field once: compress, full decompress, preview, then the cycle's
ROI mix).  ``serve`` is an open loop: seeded arrivals at a fixed
offered rate over two keep-alive connections, each request timed from
the moment it was due.  The metric definitions live in README.md.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core import api
from repro.datasets import registry

from layers import install, layer_metrics, op_uncovered_ms
from tracer import Patcher, Tracer, overlap_length, restored, union_length

now = time.perf_counter

#: (registry key, shape): smooth f32, rough f32, and the f64 path
FIELDS = (("nyx", (128, 128, 128)), ("magrec", (128, 128, 128)),
          ("warpx", (64, 64, 512)))
REL_EB = 1e-3
CHUNK = 32
WORKERS = 2
CUBE = 16
#: ROI mix per field per cycle: 16^3 cubes crossing these chunk
#: boundaries per axis, and this many axis planes
CUBE_CROSSINGS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1))
PLANES = 2
PREVIEW_LEVEL = 2
#: latency limit for goodput (operations or requests done within it)
LIMIT_S = 0.5
#: tail percentile per workload and operation kind: the highest of
#: p75/p90/p95/p99 that keeps at least ten samples beyond it at this
#: commit's sample counts in a 45 s run (README.md lists them); chunked
#: has too few compressions for that, so its write tail is the slowest
TAILS = {
    "bulk": {"roi": 95, "read": 99, "write": 90},
    "chunked": {"roi": 75, "read": 75, "write": 100},
    "serve": {"roi": 95, "read": 95, "write": 75},
}
#: serve open loop: offered rate (about 35% of the mix's closed-loop
#: capacity at this commit, 46 req/s: nearer half, a slower spell of a
#: shared host multiplies the queueing and the tails stop repeating),
#: write share, slab edge, and the cache's share of the read set's
#: decoded chunks
SERVE_RATE = 16.0
WRITE_SHARE = 0.10
SLAB = 64
CACHE_SHARE = 0.1
ZIPF_S = 1.1
TENANT = "bench"
#: served full decodes per archive after the loop
FULL_REPS = 3
#: give a stalled server this long past the schedule before giving up
GRACE_S = 60.0


class Violation(Exception):
    """An output broke a correctness contract."""


class NoSamples(Violation):
    """A metric has nothing to summarize: every operation it measures
    failed, so the run reports no metrics and fails."""


@dataclass
class Field:
    name: str
    data: np.ndarray
    abs_eb: float

    @property
    def mib(self) -> float:
        return self.data.nbytes / 2**20


def abs_bound(data: np.ndarray, eb: float = REL_EB) -> float:
    """The absolute bound a relative ``eb`` resolves to, computed the
    way ``repro.util.validation.resolve_eb`` does."""
    rng = float(np.max(data)) - float(np.min(data))
    return float(eb) * (rng if rng > 0 else 1.0)


def make_fields(seed: int) -> list[Field]:
    fields = []
    for name, shape in FIELDS:
        data = registry.load(name, shape=shape, seed=seed)
        fields.append(Field(name, data, abs_bound(data)))
    return fields


def check_bound(data: np.ndarray, recon: np.ndarray, eb: float, what: str) -> None:
    if recon.shape != data.shape or recon.dtype != data.dtype:
        raise Violation(f"{what}: got {recon.shape} {recon.dtype}")
    err = float(np.max(np.abs(recon.astype(np.float64) - data)))
    if not err <= eb:
        raise Violation(f"{what}: max error {err!r} > bound {eb!r}")


def check_equal(got: np.ndarray, want: np.ndarray, what: str) -> None:
    if (got.shape != want.shape or got.dtype != want.dtype
            or got.tobytes() != want.tobytes()):
        raise Violation(f"{what}: differs from the full reconstruction")


def psnr(data: np.ndarray, recon: np.ndarray) -> float:
    rng = float(np.max(data)) - float(np.min(data))
    mse = float(np.mean((recon.astype(np.float64) - data) ** 2))
    return 20 * math.log10(rng) - 10 * math.log10(mse)


def pct(values, p: float) -> float:
    if not len(values):
        raise NoSamples(f"no samples for a p{p:g}")
    return float(np.percentile(values, p))


def ratio(num: float, den: float, what: str) -> float:
    if not den:
        raise NoSamples(f"no samples for {what}")
    return num / den


@dataclass
class Ledger:
    """Operation outcomes: latencies by kind plus failure accounting."""

    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    lat: dict[str, list[float]] = field(default_factory=dict)

    def record(self, kind: str, seconds: float) -> None:
        self.lat.setdefault(kind, []).append(seconds)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def violate(self, message: str) -> None:
        self.failed += 1
        self.violations.append(message)

    def get(self, *kinds: str) -> list[float]:
        return [v for k in kinds for v in self.lat.get(k, [])]

    def measured(self, compute) -> dict:
        """``compute()``'s metrics, or none when a metric had no
        samples; that fails the run."""
        try:
            return compute()
        except NoSamples as exc:
            self.violations.append(str(exc))
            return {}


# ---------------------------------------------------------------------------
# bulk and chunked: closed loop
# ---------------------------------------------------------------------------

def roi_boxes(
    rng: np.random.Generator, shape: tuple[int, ...], cycle: int
) -> list[tuple]:
    """One cycle's ROI mix for one field.

    Cubes cross a fixed pattern of 32-chunk boundaries (so every cycle
    reads the same mix of 1-, 2-, 4- and 8-chunk boxes from a sharded
    archive) at drawn chunk rows.  Planes rotate through the axes with
    the cycle, at drawn positions."""
    boxes = []
    for crossings in CUBE_CROSSINGS:
        lo = []
        for cross, n in zip(crossings, shape):
            off = CHUNK - CUBE // 2 if cross else (CHUNK - CUBE) // 2
            rows = (n - off - CUBE) // CHUNK + 1
            lo.append(CHUNK * int(rng.integers(rows)) + off)
        boxes.append(tuple(slice(v, v + CUBE) for v in lo))
    for i in range(PLANES):
        axis = (cycle * PLANES + i) % len(shape)
        at = int(rng.integers(shape[axis]))
        boxes.append(tuple(
            slice(at, at + 1) if a == axis else slice(0, n)
            for a, n in enumerate(shape)
        ))
    return boxes


def mid_plane(shape: tuple[int, ...]) -> tuple:
    """Sharded archives have no progressive decode: their preview is
    the mid-plane across the first axis."""
    at = shape[0] // 2
    return (slice(at, at + 1),) + tuple(slice(0, n) for n in shape[1:])


class ClosedLoop:
    """``bulk`` (monolithic, serial) or ``chunked`` (sharded, 32^3
    chunks, checksummed, two threads)."""

    #: share of the resolved bound the checks accept; only the
    #: self-test lowers it, to prove that a violated bound fails a run
    bound_share = 1.0

    def __init__(self, name: str):
        self.name = name
        self.sharded = name == "chunked"

    def setup(self, seed: int) -> list[Field]:
        return make_fields(seed)

    def teardown(self, state) -> None:
        pass

    # -- the four operations --------------------------------------------

    def compress(self, data):
        if self.sharded:
            return api.compress_chunked(
                data, REL_EB, "rel", chunks=CHUNK, checksum=True,
                executor="thread", workers=WORKERS,
            )
        return api.compress(data, REL_EB, "rel")

    def decompress(self, blob):
        if self.sharded:
            return api.decompress(blob, executor="thread", workers=WORKERS)
        return api.decompress(blob)

    def preview(self, blob, shape):
        if self.sharded:
            return api.decompress_roi(blob, mid_plane(shape))
        return api.decompress_progressive(blob, PREVIEW_LEVEL)

    def roi(self, blob, box):
        return api.decompress_roi(blob, box)

    def preview_of(self, full: np.ndarray) -> np.ndarray:
        if self.sharded:
            return full[mid_plane(full.shape)]
        step = 2 ** (3 - PREVIEW_LEVEL)  # three-level lattice
        return full[(slice(None, None, step),) * full.ndim]

    # -- one cycle ------------------------------------------------------

    def cycle(self, fields, rng, index, ledger, tracer=None) -> dict:
        """Every field once; returns op seconds, archive sizes, PSNRs
        and the array MiB moved."""
        out = {"op_s": 0.0, "archive": {}, "psnr": {}, "mib": 0.0}

        def op(kind, fld, fn, *args):
            ledger.attempted += 1
            t0 = now()
            try:
                with tracer.span(f"op.{kind}") if tracer else nullcontext():
                    result = fn(*args)
            except Exception as exc:  # noqa: BLE001 — counted, reported
                ledger.fail(f"{kind} {fld.name}: {exc!r}")
                return None
            dt = now() - t0
            ledger.record(kind, dt)
            ledger.record(f"{kind}:{fld.name}", dt)
            out["op_s"] += dt
            return result

        for fld in fields:
            boxes = roi_boxes(rng, fld.data.shape, index)
            blob = op("compress", fld, self.compress, fld.data)
            if blob is None:
                continue
            out["archive"][fld.name] = len(blob)
            full = op("decompress", fld, self.decompress, blob)
            if full is None:
                continue
            out["mib"] += 2 * fld.mib
            try:
                check_bound(fld.data, full, self.bound_share * fld.abs_eb,
                            f"decompress {fld.name}")
                out["psnr"][fld.name] = psnr(fld.data, full)
                got = op("preview", fld, self.preview, blob, fld.data.shape)
                if got is not None:
                    want = self.preview_of(full)
                    out["mib"] += want.nbytes / 2**20
                    check_equal(got, want, f"preview {fld.name}")
                for box in boxes:
                    got = op("roi", fld, self.roi, blob, box)
                    if got is not None:
                        out["mib"] += got.nbytes / 2**20
                        check_equal(got, full[box], f"roi {fld.name} {box}")
            except Violation as exc:
                ledger.violate(str(exc))
        return out

    # -- the measured run ------------------------------------------------

    def run(self, fields, seed: int, seconds: float, trace: bool) -> dict:
        rng = np.random.default_rng([seed, 7])
        ledger = Ledger()
        tracer = Tracer()
        cycles = []
        traced_wall = []
        traced_cpu = 0.0
        mib = 0.0
        patched: list = []
        # one untimed warm-up cycle: its outputs are checked, and it
        # gives the ratio and PSNR, but its latencies are dropped
        warm = self.cycle(fields, rng, 0, ledger)
        ledger.lat.clear()
        start = now()
        # whole cycles only, so every field and ROI kind keeps its share;
        # the traced run alternates untraced and traced cycles
        while len(cycles) < (2 if trace else 1) or now() - start < seconds:
            traced = trace and len(cycles) % 2 == 1
            if traced:
                patcher = Patcher()
                install(tracer, patcher)
                cpu0, wall0 = sum(os.times()[:2]), now()
                try:
                    res = self.cycle(fields, rng, len(cycles), ledger, tracer)
                finally:
                    patched += patcher.restore()
                traced_wall.append(now() - wall0)
                traced_cpu += sum(os.times()[:2]) - cpu0
                mib += res["mib"]
            else:
                res = self.cycle(fields, rng, len(cycles), ledger)
            res["traced"] = traced
            cycles.append(res)
        elapsed = now() - start
        result = {"ledger": ledger}
        if not trace:
            result["metrics"] = ledger.measured(
                lambda: self.metrics(fields, ledger, warm, elapsed)
            )
            return result
        unrestored = restored(patched)
        if unrestored:
            ledger.violate(f"wrapped names not restored: {unrestored}")
        rounds = len(traced_wall)
        plain = [c["op_s"] for c in cycles if not c["traced"]]
        wrapped = [c["op_s"] for c in cycles if c["traced"]]
        extra = {
            "proc.cpu_s": traced_cpu / rounds,
            "proc.cpu_util": traced_cpu / sum(traced_wall),
            "trace.uncovered_ms": op_uncovered_ms(tracer, rounds),
            "trace.overhead_frac": float(np.median(wrapped))
            / float(np.median(plain)) - 1.0,
        }
        result["metrics"] = layer_metrics(tracer, rounds, mib / rounds, extra)
        return result

    def metrics(self, fields, ledger, first, elapsed) -> dict:
        tails = TAILS[self.name]

        def mib_per_s(kind: str) -> float:
            # work done per second: all MiB over all seconds.  The host
            # flips between a fast and a slow state for seconds to
            # minutes; a per-field median jumps with the share of slow
            # time while a total moves with it smoothly
            got = [ledger.get(f"{kind}:{f.name}") for f in fields]
            return ratio(sum(f.mib * len(t) for f, t in zip(fields, got)),
                         sum(map(sum, got)), kind)

        if len(first["psnr"]) < len(fields):
            raise NoSamples("a field's warm-up cycle did not decode")
        total_in = sum(f.data.nbytes for f in fields)
        reads = ledger.get("decompress", "preview", "roi")
        writes = ledger.get("compress")
        done = reads + writes
        return {
            "compress_mb_s": mib_per_s("compress"),
            "decompress_mb_s": mib_per_s("decompress"),
            "roi_p50_ms": pct(ledger.get("roi"), 50) * 1e3,
            "roi_tail_ms": pct(ledger.get("roi"), tails["roi"]) * 1e3,
            "preview_ms": pct(ledger.get("preview"), 50) * 1e3,
            "compression_ratio": total_in / sum(first["archive"].values()),
            "psnr_db": float(np.mean(list(first["psnr"].values()))),
            "serve_read_p50_ms": pct(reads, 50) * 1e3,
            "serve_read_tail_ms": pct(reads, tails["read"]) * 1e3,
            "serve_write_p50_ms": pct(writes, 50) * 1e3,
            "serve_write_tail_ms": pct(writes, tails["write"]) * 1e3,
            "serve_goodput_rps": sum(v <= LIMIT_S for v in done) / elapsed,
            "_samples": {k: len(ledger.get(k)) for k in ("compress", "decompress", "preview", "roi")},
        }


# ---------------------------------------------------------------------------
# serve: open loop against the in-process server
# ---------------------------------------------------------------------------

def serve_boxes() -> list[tuple[int, tuple]]:
    """The fixed read set, most popular first: (archive index, box).

    Per archive, eight 16^3 cubes, each inside one chunk and no two in
    the same chunk, so a read is a cache hit or one chunk decode; the
    archives are interleaved rank by rank so that popularity does not
    favour one field."""
    ranked = []
    for k, (_, shape) in enumerate(FIELDS):
        grid = tuple(n // CHUNK for n in shape)
        cells = [np.unravel_index((23 * j + 5) % math.prod(grid), grid)
                 for j in range(8)]
        ranked.append([
            (k, tuple(slice(CHUNK * int(c) + (CHUNK - CUBE) // 2,
                            CHUNK * int(c) + (CHUNK + CUBE) // 2)
                      for c in cell))
            for cell in cells
        ])
    return [boxes[rank] for rank in range(8) for boxes in ranked]


def preview_planes() -> list[tuple[int, tuple]]:
    """Two planes per archive across its longest axis, in chunk rows
    that share no chunk: read once each on a cold cache."""
    planes = []
    for k, (_, shape) in enumerate(FIELDS):
        axis = int(np.argmax(shape))
        for at in (shape[axis] // 8, shape[axis] * 5 // 8):
            planes.append((k, tuple(
                slice(at, at + 1) if a == axis else slice(0, n)
                for a, n in enumerate(shape)
            )))
    return planes


def box_spec(box: tuple) -> str:
    return ",".join(f"{s.start}:{s.stop}" for s in box)


def working_set_bytes(boxes) -> int:
    """Decoded bytes of every chunk the read set touches."""
    touched = set()
    for k, box in boxes:
        spans = [range(s.start // CHUNK, (s.stop - 1) // CHUNK + 1) for s in box]
        touched.update((k, c) for c in itertools.product(*spans))
    return sum(
        CHUNK**3 * np.dtype(registry.DATASETS[FIELDS[k][0]].dtype).itemsize
        for k, _ in touched
    )


def slab_origins() -> list[tuple[int, tuple[int, ...]]]:
    """The fixed write set: 64^3 slabs of the two f32 fields, taken in
    turn, at offsets on a fixed lattice."""
    out = []
    for j in range(8):
        for k in (0, 1):
            shape = FIELDS[k][1]
            out.append((k, tuple((7 + 29 * j + 17 * a) % (n - SLAB + 1)
                                 for a, n in enumerate(shape))))
    return out


@dataclass
class Request:
    due: float
    write: bool
    target: int
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    nbytes: int = 0
    archive: bytes = b""
    violation: str = ""
    error: str = ""


def apportion(total: int, weights: np.ndarray) -> np.ndarray:
    """Largest-remainder split of ``total`` by ``weights``."""
    exact = total * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    rest = total - counts.sum()
    counts[np.argsort(counts - exact)[:rest]] += 1
    return counts


def schedule(rng, seconds: float, nboxes: int, nslabs: int) -> list[Request]:
    """Seeded arrivals: ``SERVE_RATE * seconds`` requests at uniform
    random instants (a Poisson process conditioned on its count).  The
    mix is fixed — exactly one in ten a write, reads split over the
    read set in Zipf proportions — and the seed shuffles its order."""
    n = max(2, round(SERVE_RATE * seconds))
    dues = np.sort(rng.uniform(0.0, seconds, n))
    nwrites = max(1, round(WRITE_SHARE * n))
    weights = 1.0 / np.arange(1, nboxes + 1) ** ZIPF_S
    reads = np.repeat(np.arange(nboxes), apportion(n - nwrites, weights))
    kinds = [(False, int(b)) for b in reads]
    kinds += [(True, j % nslabs) for j in range(nwrites)]
    order = rng.permutation(n)
    return [Request(float(due), *kinds[i]) for due, i in zip(dues, order)]


@dataclass
class ServeState:
    fields: list
    archives: list
    harness: object
    digests: list
    refs: list = field(default_factory=list)


class ServeLoad:
    name = "serve"
    bound_share = ClosedLoop.bound_share

    def __init__(self):
        self.boxes = serve_boxes()
        self.planes = preview_planes()
        self.slabs = slab_origins()
        self.cache_bytes = int(CACHE_SHARE * working_set_bytes(self.boxes))

    def setup(self, seed: int) -> ServeState:
        from repro.testing import ServerHarness

        fields = make_fields(seed)
        archives = [
            api.compress_chunked(
                f.data, REL_EB, "rel", chunks=CHUNK, checksum=True,
                executor="thread", workers=WORKERS,
            )
            for f in fields
        ]
        harness = ServerHarness(
            executor="thread", workers=WORKERS, cache_bytes=self.cache_bytes,
            request_timeout=GRACE_S,
        )
        harness.start()
        try:
            client = harness.client(TENANT, timeout=GRACE_S)
            digests = []
            for blob in archives:
                resp = client.upload(blob)
                if resp.status != 201:
                    raise RuntimeError(f"upload answered {resp.status}")
                digests.append(resp.json()["digest"])
        except BaseException:
            harness.stop()
            raise
        return ServeState(fields, archives, harness, digests)

    def teardown(self, state: ServeState) -> None:
        state.harness.stop()

    def slab(self, state: ServeState, j: int) -> np.ndarray:
        k, lo = self.slabs[j]
        return state.fields[k].data[tuple(slice(v, v + SLAB) for v in lo)]

    def roi(self, client, digest: str, box: str):
        return client.roi(digest, box)

    def read(self, state: ServeState, client, k: int, box: tuple) -> tuple[bool, str]:
        """One ROI request, checked against the offline decode."""
        resp = self.roi(client, state.digests[k], box_spec(box))
        if resp.status != 200:
            return False, ""
        try:
            check_equal(resp.array(), state.refs[k][box], f"served roi {box}")
        except Violation as exc:
            return False, str(exc)
        return True, ""

    # -- the open loop ----------------------------------------------------

    def drive(self, state: ServeState, reqs: list[Request], ledger: Ledger) -> float:
        """Send every request when due over two connections and check
        each response.  Writes go over one connection only, which also
        takes reads when it is free; the other takes only reads.  A read
        thus never waits behind a write on the client side.  Returns,
        once all are answered (or given up on), the seconds from the
        schedule's start to the last answer."""
        lock = threading.Lock()
        stop = threading.Event()
        t_start = now() + 0.05
        for r in reqs:
            r.due += t_start
        give_up = reqs[-1].due + GRACE_S
        pending = {False: [r for r in reqs if not r.write][::-1],
                   True: [r for r in reqs if r.write][::-1]}

        def take(writes: bool) -> Request | None:
            """The earliest-due unsent request this connection may send."""
            with lock:
                heads = [pending[False]] + ([pending[True]] if writes else [])
                heads = [h for h in heads if h]
                if not heads:
                    return None
                return min(heads, key=lambda h: h[-1].due).pop()

        def worker(writes: bool):
            client = state.harness.client(TENANT, timeout=GRACE_S)
            try:
                while not stop.is_set() and (r := take(writes)) is not None:
                    wait = r.due - now()
                    if wait > 0:
                        time.sleep(wait)
                    if now() > give_up:
                        r.sent = r.done = now()
                        continue
                    self.send(state, client, r)
            finally:
                client.close()

        threads = [
            threading.Thread(target=worker, args=(writes,), name=f"bench-{name}")
            for name, writes in (("reader", False), ("writer", True))
        ]
        for t in threads:
            t.start()
        try:
            for t in threads:
                while t.is_alive():
                    t.join(timeout=0.2)
        finally:
            stop.set()
            for t in threads:
                t.join()
        for r in reqs:
            ledger.attempted += 1
            if r.violation:
                ledger.violate(r.violation)
            elif not r.ok:
                ledger.fail(f"request due at {r.due - t_start:.3f}s: {r.error}")
        return max(r.done for r in reqs) - t_start

    def send(self, state: ServeState, client, r: Request) -> None:
        r.sent = now()
        try:
            if r.write:
                slab = self.slab(state, r.target)
                resp = client.compress(slab, eb=REL_EB, mode="rel", chunks=CHUNK)
                r.done = now()
                r.ok = resp.status == 200
                r.error = f"HTTP {resp.status}"
                r.nbytes = slab.nbytes
                r.archive = resp.body
            else:
                k, box = self.boxes[r.target]
                r.ok, r.violation = self.read(state, client, k, box)
                r.done = now()
                r.error = "ROI read failed"
        except Exception as exc:  # noqa: BLE001 — a failed request, counted
            r.done = now()
            r.error = repr(exc)

    def prepare(self, state: ServeState, ledger: Ledger) -> list[float]:
        """Before the loop: the offline reference decodes, the cold-cache
        previews (returns their seconds), then one read of every box,
        least popular first, so the loop starts on a warm cache."""
        state.refs = []
        for fld, blob in zip(state.fields, state.archives):
            ref = api.decompress(blob, executor="thread", workers=WORKERS)
            try:
                check_bound(fld.data, ref, self.bound_share * fld.abs_eb,
                            f"offline {fld.name}")
            except Violation as exc:
                ledger.violate(str(exc))
            state.refs.append(ref)
        client = state.harness.client(TENANT, timeout=GRACE_S)
        previews = []
        for j, (k, box) in enumerate(self.planes + self.boxes[::-1]):
            ledger.attempted += 1
            t0 = now()
            try:
                ok, violation = self.read(state, client, k, box)
            except Exception as exc:  # noqa: BLE001 — counted, reported
                ok, violation = False, ""
                ledger.errors.append(repr(exc))
            if violation:
                ledger.violate(violation)
            elif not ok:
                ledger.fail(f"read {box} of archive {k} failed")
            elif j < len(self.planes):
                previews.append(now() - t0)
        return previews

    def verify(self, state: ServeState, reqs, ledger) -> dict:
        """After the loop: ``FULL_REPS`` served full decodes of every
        archive against the offline ones, and every write's archive
        against its bound."""
        client = state.harness.client(TENANT, timeout=GRACE_S)
        full_s, full_mib, psnrs = 0.0, 0.0, []
        for k, (fld, digest) in enumerate(zip(state.fields, state.digests)):
            times = []
            for _ in range(FULL_REPS):
                ledger.attempted += 1
                t0 = now()
                resp = client.decompress(digest)
                dt = now() - t0
                if resp.status != 200:
                    ledger.fail(f"served decompress {fld.name}: {resp.status}")
                    continue
                got = resp.array()
                try:
                    check_equal(got, state.refs[k], f"served decompress {fld.name}")
                except Violation as exc:
                    ledger.violate(str(exc))
                    continue
                times.append(dt)
                good = got
            if times:
                full_s += sum(times)
                full_mib += fld.mib * len(times)
                psnrs.append(psnr(fld.data, good))
        slab_bytes = archive_bytes = 0
        for r in reqs:
            if not (r.write and r.ok):
                continue
            slab = self.slab(state, r.target)
            try:
                check_bound(slab, api.decompress(r.archive),
                            self.bound_share * abs_bound(slab),
                            f"served compress of slab {self.slabs[r.target]}")
            except Violation as exc:
                ledger.violate(str(exc))
            slab_bytes += slab.nbytes
            archive_bytes += len(r.archive)
            r.archive = b""
        return {
            "decompress_mb_s": (full_mib, full_s),
            "psnr_db": psnrs,
            "compression_ratio": (slab_bytes, archive_bytes),
        }

    def stats(self, state: ServeState) -> dict:
        client = state.harness.client(TENANT, timeout=GRACE_S)
        return client.stats()

    def run(self, state: ServeState, seed: int, seconds: float, trace: bool) -> dict:
        ledger = Ledger()
        rng = np.random.default_rng([seed, 11])
        previews = self.prepare(state, ledger)
        n = (len(self.boxes), len(self.slabs))
        if not trace:
            reqs = schedule(rng, seconds, *n)
            elapsed = self.drive(state, reqs, ledger)
            checked = self.verify(state, reqs, ledger)
            return {"ledger": ledger, "metrics": ledger.measured(
                lambda: self.metrics(reqs, checked, previews, elapsed)
            )}
        # traced: first half untraced, second half traced
        plain = schedule(rng, seconds / 2, *n)
        self.drive(state, plain, ledger)
        wrapped = schedule(rng, seconds / 2, *n)
        tracer, patcher = Tracer(), Patcher()
        before = self.stats(state)
        cpu0, wall0 = sum(os.times()[:2]), now()
        install(tracer, patcher, engine=state.harness.engine)
        try:
            self.drive(state, wrapped, ledger)
        finally:
            slots = patcher.restore()
        wall = now() - wall0
        cpu = sum(os.times()[:2]) - cpu0
        after = self.stats(state)
        unrestored = restored(slots)
        if unrestored:
            ledger.violate(f"wrapped names not restored: {unrestored}")
        self.verify(state, plain + wrapped, ledger)

        def delta(*path):
            a, b = before, after
            for p in path:
                a, b = a[p], b[p]
            return b - a

        hits = delta("engine", "cache", "hits")
        misses = delta("engine", "cache", "misses")
        served = [r for r in wrapped if r.ok]
        service_ms = sum(r.done - r.sent for r in served) * 1e3
        engine_ms = sum(
            s.t1 - s.t0 for s in tracer.spans if s.name == "serve.engine"
        ) * 1e3
        in_flight = [(r.sent, r.done) for r in served]
        mib = sum(r.nbytes for r in served) / 2**20
        plain_ms = [r.done - r.sent for r in plain if r.ok]
        extra = {
            "serve.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "serve.cache_evictions": delta("engine", "cache", "evictions"),
            "serve.engine_ms": engine_ms,
            "serve.outside_engine_ms": service_ms - engine_ms,
            "serve.rejected": delta("admission", "rejected"),
            "serve.gen_lag_ms": float(np.mean([r.sent - r.due for r in wrapped])) * 1e3,
            "proc.cpu_s": cpu,
            "proc.cpu_util": cpu / wall,
            # wall time with a request in flight and no layer span open
            "trace.uncovered_ms": (union_length(in_flight) - overlap_length(
                in_flight, [(s.t0, s.t1) for s in tracer.spans]
            )) * 1e3,
            "trace.overhead_frac": service_ms / 1e3 / len(served)
            / float(np.mean(plain_ms)) - 1.0,
        }
        return {"ledger": ledger,
                "metrics": layer_metrics(tracer, 1, max(mib, 1e-9), extra)}

    def metrics(self, reqs, checked: dict, previews, elapsed: float) -> dict:
        tails = TAILS["serve"]
        ok = [r for r in reqs if r.ok]
        reads = [r for r in ok if not r.write]
        writes = [r for r in ok if r.write]
        service = [r.done - r.sent for r in reads]
        if len(checked["psnr_db"]) < len(FIELDS):
            raise NoSamples("an archive's served full decode failed")
        return {
            "compress_mb_s": ratio(
                sum(r.nbytes for r in writes) / 2**20,
                sum(r.done - r.sent for r in writes), "writes",
            ),
            "decompress_mb_s": ratio(*checked["decompress_mb_s"], "full decodes"),
            "roi_p50_ms": pct(service, 50) * 1e3,
            "roi_tail_ms": pct(service, tails["roi"]) * 1e3,
            "preview_ms": pct(previews, 50) * 1e3,
            "compression_ratio": ratio(*checked["compression_ratio"], "writes"),
            "psnr_db": float(np.mean(checked["psnr_db"])),
            "serve_read_p50_ms": pct([r.done - r.due for r in reads], 50) * 1e3,
            "serve_read_tail_ms": pct([r.done - r.due for r in reads], tails["read"]) * 1e3,
            "serve_write_p50_ms": pct([r.done - r.due for r in writes], 50) * 1e3,
            "serve_write_tail_ms": pct([r.done - r.due for r in writes], tails["write"]) * 1e3,
            "serve_goodput_rps": sum(r.done - r.due <= LIMIT_S for r in ok) / elapsed,
            "_samples": {"reads": len(reads), "writes": len(writes), "previews": len(previews)},
        }


WORKLOADS = {
    "bulk": lambda: ClosedLoop("bulk"),
    "chunked": lambda: ClosedLoop("chunked"),
    "serve": ServeLoad,
}

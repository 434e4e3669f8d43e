"""Serve-layer test suite: concurrency, fault injection, isolation.

Runs a real :class:`~repro.serve.server.CompressionServer` in-process
(:class:`~repro.testing.ServerHarness`) and drives it over real TCP
with blocking per-tenant clients on threads — the same substrate as
the serve gate in ``tests/test_perf_gates.py``.  The core contracts
under test:

* every served byte is **bounded**: a 200 body decodes within the
  requested error bound, and detected corruption is a structured 422,
  never silently wrong data — under concurrency and injected faults;
* sessions are the isolation boundary: 50 concurrent tenants, zero
  cross-tenant bleed (a foreign digest is 404 no matter who holds it);
* the decoded-chunk cache accounts deterministically and a
  :class:`ChunkCorruptionError` path can never populate it;
* admission control (429 + Retry-After), quotas (413), request
  timeouts (503, pool left clean), mid-request disconnects (absorbed),
  and a SIGKILLed pool worker (healed by the executor retry) all
  degrade exactly as specified.
"""

import asyncio
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import smooth_field
from repro.core.chunked import compress_chunked, decompress_chunked_roi
from repro.core.parallel import fork_available
from repro.core.pipeline import stz_compress, stz_decompress
from repro.serve import AdmissionGate, ServerBusy
from repro.testing import ServerHarness, WorkerKiller, corrupt_chunk_payload
from repro.util.cache import BoundedLRU

EB = 1e-3


def field(shape=(16, 16, 16), seed=5) -> np.ndarray:
    return smooth_field(shape, seed=seed).astype(np.float32)


@pytest.fixture(scope="module")
def harness():
    """One warm server shared by the plain-path tests (fault tests
    build their own, with injection hooks)."""
    with ServerHarness(workers=2, cache_bytes=1 << 22) as h:
        yield h


class TestEndpoints:
    def test_compress_decompress_roundtrip_holds_bound(self, harness):
        data = field(seed=10)
        client = harness.client("rt")
        r = client.compress(data, EB, chunks=8)
        assert r.status == 200
        digest = r.headers["x-archive-digest"]
        out = client.decompress(digest)
        assert out.status == 200
        rec = out.array()
        assert rec.shape == data.shape and rec.dtype == data.dtype
        assert np.max(np.abs(rec.astype(np.float64) - data)) <= EB

    def test_roi_matches_offline_engine(self, harness):
        data = field(seed=11)
        client = harness.client("roi")
        r = client.compress(data, EB, chunks=8)
        digest = r.headers["x-archive-digest"]
        served = client.roi(digest, "3:13,0:8,6:16").array()
        offline = decompress_chunked_roi(
            r.body, (slice(3, 13), slice(0, 8), slice(6, 16))
        )
        assert np.array_equal(served, offline)

    def test_upload_then_serve(self, harness):
        data = field(seed=12)
        blob = compress_chunked(data, EB, chunks=8, checksum=True)
        client = harness.client("up")
        r = client.upload(blob)
        assert r.status == 201
        meta = r.json()
        assert meta["shape"] == [16, 16, 16]
        rec = client.decompress(meta["digest"]).array()
        assert np.max(np.abs(rec.astype(np.float64) - data)) <= EB

    def test_stream_endpoints_roundtrip(self, harness):
        from repro.core.streaming import StreamingDecompressor

        client = harness.client("stream")
        steps = [field((8, 8), seed=20 + t) for t in range(4)]
        assert client.stream_open(EB, (8, 8), "float32").status == 201
        for t, step in enumerate(steps):
            r = client.stream_append(step)
            assert r.status == 200
            assert r.json()["frame"] == t
        r = client.stream_close()
        assert r.status == 200
        assert r.headers["x-frames"] == "4"
        sd = StreamingDecompressor(r.body)
        for t, step in enumerate(steps):
            err = np.max(np.abs(sd.read_frame(t).astype(np.float64) - step))
            assert err <= EB

    def test_error_statuses(self, harness):
        client = harness.client("err")
        assert client.request("GET", "/v1/nope").status == 404
        assert client.request("GET", "/v1/compress").status == 405
        assert client.decompress("deadbeef" * 4).status == 404
        # body/shape mismatch
        r = client.request(
            "POST", "/v1/compress", b"\x00" * 7,
            {"X-Shape": "4,4", "X-Dtype": "float32", "X-EB": "1e-3"},
        )
        assert r.status == 400
        # garbage archive upload
        assert client.upload(b"not an archive").status == 400
        r = client.compress(field(), EB, chunks=8, codec="nope")
        assert r.status == 400
        # ROI on a held archive with a malformed box
        digest = client.compress(field(seed=13), EB, chunks=8).headers[
            "x-archive-digest"
        ]
        assert client.roi(digest, "0:4").status == 400
        assert client.request("GET", "/v1/health").json()["status"] == "ok"


class TestDecodedChunkCacheServing:
    def test_repeated_roi_hits_cache_with_exact_accounting(self):
        data = field((16, 16, 16), seed=30)
        with ServerHarness(workers=2, cache_bytes=1 << 22) as h:
            client = h.client("hot")
            digest = client.compress(data, EB, chunks=8).headers[
                "x-archive-digest"
            ]
            first = client.roi(digest, "0:8,0:8,0:8").array()
            stats0 = h.engine.cache.stats()
            assert stats0["misses"] == 1 and stats0["hits"] == 0
            assert stats0["entries"] == 1
            # one decoded 8^3 float32 chunk, counted in bytes
            assert stats0["bytes"] == 8 * 8 * 8 * 4
            for _ in range(5):
                again = client.roi(digest, "0:8,0:8,0:8").array()
                assert np.array_equal(again, first)
            stats1 = h.engine.cache.stats()
            assert stats1["hits"] == 5 and stats1["misses"] == 1
            assert stats1["evictions"] == 0
            h.engine.cache.check()

    def test_sub_chunk_rois_share_one_decoded_chunk(self):
        data = field((16, 16, 16), seed=31)
        with ServerHarness(workers=2, cache_bytes=1 << 22) as h:
            client = h.client("sub")
            digest = client.compress(data, EB, chunks=16).headers[
                "x-archive-digest"
            ]
            # distinct boxes inside the single chunk: 1 miss, then hits
            boxes = ["0:4,0:4,0:4", "2:9,1:5,0:16", "10:16,10:16,10:16"]
            for box in boxes:
                assert client.roi(digest, box).status == 200
            stats = h.engine.cache.stats()
            assert stats["misses"] == 1
            assert stats["hits"] == len(boxes) - 1

    def test_cache_disabled_still_serves(self):
        data = field(seed=32)
        with ServerHarness(workers=2, cache_bytes=0) as h:
            client = h.client("cold")
            digest = client.compress(data, EB, chunks=8).headers[
                "x-archive-digest"
            ]
            a = client.roi(digest, "0:8,0:8,0:8").array()
            b = client.roi(digest, "0:8,0:8,0:8").array()
            assert np.array_equal(a, b)
            stats = h.engine.cache.stats()
            assert stats["hits"] == 0 and stats["entries"] == 0


class TestCorruption:
    def _corrupt_setup(self, h):
        data = field((16, 16, 16), seed=40)
        blob = compress_chunked(data, EB, chunks=8, checksum=True)
        bad = corrupt_chunk_payload(blob, index=7, byte=3)
        client = h.client("corrupt")
        r = client.upload(bad)
        assert r.status == 201  # the table parses; damage is payload-level
        return client, r.json()["digest"]

    def test_corrupt_chunk_is_422_and_never_cached(self):
        with ServerHarness(workers=2, cache_bytes=1 << 22) as h:
            client, digest = self._corrupt_setup(h)
            r = client.decompress(digest)
            assert r.status == 422
            assert "checksum" in r.json()["error"]
            # the failed map populated nothing — not even clean chunks
            # decoded alongside the corrupt one
            raw = bytes.fromhex(digest)
            assert all(key[0] != raw for key in h.engine.cache.keys())
            # ROI limited to the corrupt chunk: structured 422 again
            assert client.roi(digest, "8:16,8:16,8:16").status == 422
            assert all(key[0] != raw for key in h.engine.cache.keys())

    def test_clean_chunks_of_damaged_archive_still_serve(self):
        with ServerHarness(workers=2, cache_bytes=1 << 22) as h:
            client, digest = self._corrupt_setup(h)
            r = client.roi(digest, "0:8,0:8,0:8")  # chunk 0 only
            assert r.status == 200
            raw = bytes.fromhex(digest)
            cached = [k for k in h.engine.cache.keys() if k[0] == raw]
            assert cached == [(raw, 0)]  # the verified chunk, nothing else


class TestQuota:
    def test_upload_quota_413_and_accounting_is_atomic(self):
        blob = compress_chunked(
            field(seed=50), EB, chunks=8, checksum=True
        )
        quota = len(blob) + len(blob) // 2  # fits once, not twice
        with ServerHarness(workers=2, quota_bytes=quota) as h:
            client = h.client("q")
            assert client.upload(blob).status == 201
            # same bytes again: content-addressed, idempotent, no charge
            assert client.upload(blob).status == 201
            other = compress_chunked(
                field(seed=51), EB, chunks=8, checksum=True
            )
            r = client.upload(other)
            assert r.status == 413
            # the refused charge mutated nothing: the stored archive
            # still serves and the quota math is unchanged
            session = h.server.sessions["q"]
            assert session.used_bytes == len(blob)
            digest = client.upload(blob).json()["digest"]
            assert client.decompress(digest).status == 200
            # a different tenant has its own quota
            assert h.client("q2").upload(other).status == 201

    def test_stream_append_charges_quota(self):
        step = field((8, 8), seed=52)
        with ServerHarness(workers=2, quota_bytes=step.nbytes * 2) as h:
            client = h.client("qs")
            assert client.stream_open(EB, (8, 8), "float32").status == 201
            assert client.stream_append(step).status == 200
            assert client.stream_append(step).status == 200
            assert client.stream_append(step).status == 413
            # the stream survives the refusal and still closes cleanly
            r = client.stream_close()
            assert r.status == 200 and r.headers["x-frames"] == "2"


class TestAdmission:
    def test_gate_unit_semantics(self):
        async def run():
            gate = AdmissionGate(1, 1, retry_after=2.5)
            outcomes = []

            async def hold(evt):
                async with gate.admit():
                    outcomes.append("in")
                    await evt.wait()

            evt = asyncio.Event()
            first = asyncio.create_task(hold(evt))
            await asyncio.sleep(0.01)
            second = asyncio.create_task(hold(evt))  # queues (slot 1/1)
            await asyncio.sleep(0.01)
            with pytest.raises(ServerBusy) as exc:  # queue full: reject
                async with gate.admit():
                    pass
            assert exc.value.retry_after == 2.5
            evt.set()
            await asyncio.gather(first, second)
            assert gate.stats()["admitted"] == 2
            assert gate.stats()["rejected"] == 1

        asyncio.run(run())

    def test_overload_rejects_429_with_retry_after(self):
        data = field((16, 16, 16), seed=60)
        with ServerHarness(
            workers=2,
            cache_bytes=0,  # every request does real gated work
            max_inflight=1,
            max_queue=0,
            request_timeout=None,
            fault_prologue=lambda index: time.sleep(0.25),
        ) as h:
            setup = h.client("load-setup")
            digest = setup.compress(data, EB, chunks=8).headers[
                "x-archive-digest"
            ]
            # prologue only slows *decode* tasks, so the compress above
            # was quick but every ROI below holds the gate a while.
            # All clients act for the same tenant: the gate is global,
            # and one session holding the archive keeps the test about
            # admission, not addressing.
            statuses: list[tuple[int, dict]] = []

            def one_roi(i):
                c = h.client("load-setup")
                r = c.roi(digest, "0:8,0:8,0:8")
                statuses.append((r.status, r.headers))

            threads = [
                threading.Thread(target=one_roi, args=(i,))
                for i in range(4)
            ]
            threads[0].start()
            time.sleep(0.1)  # let the first request claim the gate
            for t in threads[1:]:
                t.start()
            for t in threads:
                t.join(timeout=30)
            codes = sorted(s for s, _ in statuses)
            assert 200 in codes, codes
            assert 429 in codes, codes
            for status, headers in statuses:
                if status == 429:
                    assert float(headers["retry-after"]) > 0
            # rejected load did not poison anything: server still serves
            ok = h.client("load-setup")
            assert ok.roi(digest, "0:8,0:8,0:8").status == 200


class TestTimeout:
    def test_deadline_503_then_pool_serves_again(self):
        data = field((16, 16, 16), seed=70)
        slow = {"seconds": 0.0}
        with ServerHarness(
            workers=2,
            cache_bytes=1 << 22,
            request_timeout=0.5,
            fault_prologue=lambda index: time.sleep(slow["seconds"]),
        ) as h:
            client = h.client("t")
            digest = client.compress(data, EB, chunks=8).headers[
                "x-archive-digest"
            ]
            slow["seconds"] = 0.4  # 8 chunks / 2 workers => ~1.6 s > 0.5
            r = client.decompress(digest)
            assert r.status == 503
            # nothing was cached from the abandoned map
            assert len(h.engine.cache) == 0
            slow["seconds"] = 0.0
            time.sleep(1.8)  # let abandoned thread items drain
            out = client.decompress(digest)
            assert out.status == 200
            rec = out.array()
            assert np.max(np.abs(rec.astype(np.float64) - data)) <= EB


class TestDisconnect:
    def test_mid_request_disconnect_absorbed(self, harness):
        client = harness.client("gone")
        before = harness.server.stats()
        client.abort_mid_request()
        client.abort_mid_request(claimed_body=128)
        deadline = time.time() + 10
        while (
            harness.server.disconnects < before["disconnects"] + 2
            and time.time() < deadline
        ):
            time.sleep(0.02)
        stats = harness.server.stats()
        assert stats["disconnects"] >= before["disconnects"] + 2
        # no 5xx was minted for the vanished peer
        assert stats["responses"].get("500", 0) == before["responses"].get(
            "500", 0
        )
        # and the listener still serves
        assert client.request("GET", "/v1/health").status == 200


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestWorkerDeath:
    def test_sigkilled_pool_worker_heals_via_retry(self, tmp_path):
        data = field((16, 16, 16), seed=80)
        killer = WorkerKiller(tmp_path)
        with ServerHarness(
            executor="process",
            workers=2,
            cache_bytes=1 << 22,
            request_timeout=None,
            fault_prologue=lambda index: killer.maybe_die(),
        ) as h:
            client = h.client("k")
            digest = client.compress(data, EB, chunks=8).headers[
                "x-archive-digest"
            ]
            assert killer.armed()
            r = client.decompress(digest)  # first fork worker dies
            assert r.status == 200
            assert not killer.armed()
            rec = r.array()
            assert np.max(np.abs(rec.astype(np.float64) - data)) <= EB
            # the healed results were verified before caching
            h.engine.cache.check()
            # and the discarded pool was rebuilt transparently
            assert client.roi(digest, "0:8,0:8,0:8").status == 200


class TestMultiTenant:
    NTENANTS = 50

    def test_50_concurrent_tenants_no_bleed_no_unbounded_bytes(self):
        with ServerHarness(
            workers=2,
            cache_bytes=1 << 22,
            max_inflight=8,
            max_queue=256,  # closed-loop clients: admit everyone
            request_timeout=60.0,
        ) as h:
            digests: dict[int, str] = {}
            failures: list[str] = []
            lock = threading.Lock()

            def tenant_workflow(i: int) -> None:
                try:
                    data = smooth_field((12, 12, 12), seed=100 + i).astype(
                        np.float32
                    )
                    client = h.client(f"tenant-{i}")
                    r = client.compress(data, EB, chunks=6)
                    assert r.status == 200, f"compress {r.status}"
                    with lock:
                        digests[i] = r.headers["x-archive-digest"]
                    rec = client.decompress(digests[i]).array()
                    err = np.max(np.abs(rec.astype(np.float64) - data))
                    assert err <= EB, f"bound violated: {err}"
                    roi = client.roi(digests[i], "2:10,0:6,4:12").array()
                    assert np.array_equal(roi, rec[2:10, 0:6, 4:12])
                except Exception as exc:  # noqa: BLE001 — collected
                    with lock:
                        failures.append(f"tenant {i}: {exc}")

            with ThreadPoolExecutor(max_workers=10) as tpe:
                list(tpe.map(tenant_workflow, range(self.NTENANTS)))
            assert not failures, failures

            # every tenant produced a distinct archive (seeded data),
            # and no tenant can address a neighbour's digest
            assert len(set(digests.values())) == self.NTENANTS
            probe = h.client("tenant-0")
            assert probe.decompress(digests[1]).status == 404
            stats = h.server.stats()
            assert "500" not in stats["responses"], stats["responses"]
            assert stats["responses"].get("404", 0) == 1
            h.engine.cache.check()  # accounting survived the stampede


class TestSharedProcessCaches:
    """Satellite 1: the process-wide pure-function LRUs under
    concurrent serve-style load — the documented benign get→build→put
    race must never surface a wrong value or break the size bound."""

    def test_bounded_lru_benign_race_under_churn(self):
        cache: BoundedLRU[bytes] = BoundedLRU(8)

        def build(key: bytes) -> bytes:
            return key * 3  # a pure function of the key

        wrong: list[tuple[bytes, bytes]] = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(3000):
                key = bytes([rng.randrange(24)])  # 24 keys > 8 slots
                value = cache.get(key)
                if value is None:
                    value = build(key)
                    cache.put(key, value)
                if value != build(key):
                    wrong.append((key, value))

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not wrong
        assert len(cache) <= 8

    def test_huffman_table_cache_concurrent_decode(self):
        from repro.encoding import huffman

        blobs = [
            stz_compress(field((12, 12, 12), seed=90 + i), EB)
            for i in range(4)
        ]
        expected = [stz_decompress(b) for b in blobs]
        huffman._TABLE_CACHE.clear()
        wrong: list[int] = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(20):
                i = rng.randrange(len(blobs))
                if not np.array_equal(
                    stz_decompress(blobs[i]), expected[i]
                ):
                    wrong.append(i)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not wrong

    def test_probe_cache_concurrent_auto_selection(self):
        from repro.core.config import STZConfig
        from repro.core.select import _PROBE_CACHE, select_and_compress

        data = field((16, 16, 16), seed=95)
        config = STZConfig(codec="auto")
        _PROBE_CACHE.clear()
        results: list[tuple[str, bytes]] = []
        lock = threading.Lock()

        def worker() -> None:
            name, blob, _ = select_and_compress(data, EB, config)
            with lock:
                results.append((name, blob))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # pure function of (data, eb, config): every concurrent caller
        # must see the same selection and bytes, cached probe or not
        assert len({name for name, _ in results}) == 1
        assert len({blob for _, blob in results}) == 1

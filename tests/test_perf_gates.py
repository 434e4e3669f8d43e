"""Performance gates: the speed and memory floors CI enforces.

Each gate times real work at benchmark size, so the module is marked
``perf`` and left out of the default run (``pytest.ini`` adds
``-m "not perf"``).  Run all gates, or one, with::

    pytest -q -m perf tests/test_perf_gates.py -k <gate>

with ``PYTHONPATH=src``, where ``<gate>`` is ``kernels``, ``decode``,
``encode``, ``chunked``, ``integrity`` or ``serve``.  The tests assert
floors only; numbers over time come from ``perfbench/run.py``.  Timed
pairs run interleaved in one process, so machine noise hits both sides
alike.  A gate that needs more usable cores than the host has
(``parallel_capacity()``, affinity-aware) skips with a reason, and a
gate on the compiled kernels stands down when no compiler exists — the
jit facade may never turn a missing toolchain into a failure.
``STZ_BENCH_DATASETS`` (comma-separated registry names) restricts the
chunked gates' dataset sweep; CI runs ``nyx`` only.
"""

from __future__ import annotations

import itertools
import os
import statistics
import struct
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.api import compress, compress_chunked, decompress
from repro.core.chunked import decompress_chunked
from repro.core.config import STZConfig
from repro.core.integrity import verify_archive
from repro.core.parallel import WorkerPool, parallel_capacity
from repro.core.partition import (
    interleave,
    lattice_shape,
    level_strides,
    nonzero_offsets,
    subblock_shape,
    subblock_view_in,
)
from repro.core.pipeline import stz_compress, stz_decompress
from repro.core.predict import (
    _combine,
    _cubic_weights,
    _predict_block_tensor,
    _validate,
)
from repro.core.stream import KIND_L1_SZ3, KIND_RESIDUAL_Q, StreamWriter
from repro.core.streaming import StreamingCompressor, StreamingDecompressor
from repro.datasets import dataset_names, load
from repro.encoding.huffman import (
    _HEADER,
    _MAGIC,
    _canonical_codes,
    _choose_chunk,
    _code_lengths,
    _limit_lengths,
)
from repro.sz3.compressor import sz3_compress, sz3_decompress
from repro.testing import ServerHarness, evolving_field, smooth_field
from repro.util import jit
from repro.util.alloc import tune_allocator
from repro.util.sections import pack_sections
from repro.util.validation import as_float_array, resolve_eb

pytestmark = pytest.mark.perf

GRID = (128, 128, 128)
REL_EB = 1e-3
#: gates on thread or process pools arm only with this many usable cores
MIN_CORES = 4


@pytest.fixture(autouse=True, scope="module")
def _bench_conditions():
    """The conditions the floors were set under: malloc tuned for
    large-array throughput (without it both sides of a ratio are
    page-fault-bound, DESIGN.md §3) and the engine's capacity gate live
    (tests/conftest.py forces pools open for the functional suite)."""
    tune_allocator()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("STZ_FORCE_POOLS", raising=False)
        yield


def _bench_datasets() -> list[str]:
    names = list(dataset_names())
    sel = os.environ.get("STZ_BENCH_DATASETS")
    if not sel:
        return names
    picked = [n.strip() for n in sel.split(",") if n.strip()]
    unknown = [n for n in picked if n not in names]
    if unknown:
        raise ValueError(f"unknown STZ_BENCH_DATASETS entries: {unknown}")
    return picked


def vm_rss_kb() -> int:
    """Current resident set size (KiB) from /proc (Linux)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


class RSSSampler:
    """Background peak-RSS sampler (1 ms cadence) — catches the
    transient working set a before/after pair would miss."""

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            self.peak = max(self.peak, vm_rss_kb())
            self._stop.wait(0.001)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, vm_rss_kb())


needs_cores = pytest.mark.skipif(
    parallel_capacity() < MIN_CORES,
    reason=f"{parallel_capacity()} usable core(s) < {MIN_CORES}: "
    "a pool cannot win here",
)


# ---------------------------------------------------------------------------
# kernels: the compiled encode path vs the pure-NumPy reference
# ---------------------------------------------------------------------------

KERNELS_REPS = 5
#: the jit path must at least match the reference it replaces — a
#: noise-tolerant floor just under parity (≈2x smooth, >4x high-entropy
#: on quiet machines)
KERNELS_MIN_SPEEDUP = 0.95


def test_kernels_jit_serial_compress():
    """Jit-on serial compress is byte-identical to the NumPy path and
    not slower than it, on a smooth and a high-entropy 128^3 field."""
    rng = np.random.default_rng(7)
    fields = {
        "smooth": smooth_field(GRID).astype(np.float32),
        "high_entropy": np.cumsum(
            rng.standard_normal(GRID), axis=0
        ).astype(np.float32),
    }
    speedups = {}
    for name, data in fields.items():
        eb = resolve_eb(data, REL_EB, "rel")
        # warm both paths (first-call compile/load + allocator)
        with jit.override(True):
            blob_jit = compress(data, eb)
        with jit.override(False):
            blob_ref = compress(data, eb)
        # byte identity is part of the contract being gated
        assert blob_jit == blob_ref, name
        t_jit, t_ref = np.inf, np.inf
        for _ in range(KERNELS_REPS):
            with jit.override(False):
                t0 = time.perf_counter()
                compress(data, eb)
                t_ref = min(t_ref, time.perf_counter() - t0)
            with jit.override(True):
                t0 = time.perf_counter()
                compress(data, eb)
                t_jit = min(t_jit, time.perf_counter() - t0)
        speedups[name] = t_ref / t_jit
    if not jit.available():
        pytest.skip("compiled kernels unavailable: speed floor stands down")
    for name, speedup in speedups.items():
        assert speedup >= KERNELS_MIN_SPEEDUP, (name, speedups)


# ---------------------------------------------------------------------------
# decode: jit on/off x serial/threaded
# ---------------------------------------------------------------------------

DECODE_REPS = 7
DECODE_THREADS = 8
#: jit-on serial decode must beat the NumPy baseline by this factor
#: when the compiled kernels are available.  The kernels measure ~3x on
#: a quiet host; the floor keeps slack for noisy shared runners while
#: still catching a real regression to scalar-ish speed.
DECODE_MIN_JIT_SPEEDUP = 1.8


@pytest.fixture(scope="module")
def decode_times() -> dict:
    """Median decode time per (jit on, path) cell; every cell is
    asserted within the bound and bit-identical to jit-off serial."""
    data = smooth_field(GRID, seed=11).astype(np.float32)
    blob = stz_compress(data, REL_EB, "rel")
    vr = float(data.max() - data.min())
    with jit.override(False):
        ref = stz_decompress(blob)
    err = np.max(np.abs(ref.astype(np.float64) - data.astype(np.float64)))
    assert err <= REL_EB * vr
    cells = {}
    for jit_on in (False, True):
        with jit.override(jit_on):
            cells[(jit_on, "serial")] = stz_decompress(blob)
            cells[(jit_on, "threaded")] = stz_decompress(
                blob, threads=DECODE_THREADS
            )
    for key, rec in cells.items():
        assert rec.tobytes() == ref.tobytes(), key

    runs = {k: [] for k in cells}
    for _ in range(DECODE_REPS):
        for jit_on in (False, True):
            with jit.override(jit_on):
                t0 = time.perf_counter()
                stz_decompress(blob)
                runs[(jit_on, "serial")].append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                stz_decompress(blob, threads=DECODE_THREADS)
                runs[(jit_on, "threaded")].append(time.perf_counter() - t0)
    return {k: statistics.median(v) for k, v in runs.items()}


def test_decode_jit_speedup(decode_times):
    if not jit.available():
        pytest.skip("compiled kernels unavailable: speed floor stands down")
    speedup = decode_times[(False, "serial")] / decode_times[(True, "serial")]
    assert speedup >= DECODE_MIN_JIT_SPEEDUP, (
        f"jit-on serial decode only {speedup:.2f}x the NumPy "
        f"baseline (floor {DECODE_MIN_JIT_SPEEDUP}x)"
    )


@needs_cores
def test_decode_threaded_not_slower(decode_times):
    speedup = decode_times[(True, "serial")] / decode_times[(True, "threaded")]
    assert speedup >= 1.0, (
        f"threaded decode slower than serial ({speedup:.2f}x) on a "
        f"{parallel_capacity()}-core host"
    )


# ---------------------------------------------------------------------------
# encode: the production path vs the seed's serial encoder
# ---------------------------------------------------------------------------
#
# The reference below reproduces the seed's serial STZ encode pipeline
# algorithm-for-algorithm — per-sub-block float64 quantization,
# per-segment Huffman encode with the 3-byte-plane pack scatter,
# unconditional zlib over every Huffman blob, the linear-everywhere
# predictor, and the level-1 SZ3 decompression round-trip — built from
# today's container/format primitives so the output stays decodable.
# It is the only check of the batched-encode claim.

ENCODE_REPS = 7
#: noise-tolerant floor on the median ratio (≈1.5x on quiet machines)
ENCODE_MIN_SPEEDUP = 1.30


def _clamp_shift(arr: np.ndarray, axis: int) -> np.ndarray:
    """``out[k] = arr[min(k+1, n-1)]`` along ``axis`` (edge-clamped)."""
    n = arr.shape[axis]
    if n == 1:
        return arr
    head = tuple(
        slice(1, None) if a == axis else slice(None) for a in range(arr.ndim)
    )
    tail = tuple(
        slice(n - 1, None) if a == axis else slice(None)
        for a in range(arr.ndim)
    )
    return np.concatenate([arr[head], arr[tail]], axis=axis)


def _ref_predict_block(C, eps, ts, interp="cubic", mode="diagonal"):
    """Seed predictor: full-block linear, cubic interior overwrite."""
    odd = _validate(C, eps, ts, None, None, None)[0]
    if any(t == 0 for t in ts):
        return np.empty(ts, dtype=C.dtype)
    if interp == "cubic" and mode == "tensor":
        return _predict_block_tensor(C, odd, ts)
    restrict = tuple(
        slice(0, ts[a]) if a in set(odd) else slice(None)
        for a in range(C.ndim)
    )
    if interp == "direct":
        return np.ascontiguousarray(C[restrict])
    shifted = {frozenset(): C}
    for a in odd:
        for key in list(shifted):
            if a not in key:
                shifted[key | {a}] = _clamp_shift(shifted[key], a)
    j = len(odd)
    corners = [
        shifted[frozenset(a for a, d in zip(odd, delta) if d)][restrict]
        for delta in itertools.product((0, 1), repeat=j)
    ]
    pred = _combine(corners, [], 0.5**j, 0.0)
    if interp == "linear":
        return pred
    los = {a: 1 for a in odd}
    his = {a: min(C.shape[a] - 2, ts[a]) for a in odd}
    if any(his[a] <= los[a] for a in odd):
        return pred

    def slab(dm):
        return tuple(
            slice(los[a] + dm[a], his[a] + dm[a])
            if a in set(odd)
            else slice(None)
            for a in range(C.ndim)
        )

    near = [
        C[slab({a: d for a, d in zip(odd, delta)})]
        for delta in itertools.product((0, 1), repeat=j)
    ]
    outer = [
        C[slab({a: d for a, d in zip(odd, delta)})]
        for delta in itertools.product((-1, 2), repeat=j)
    ]
    target = tuple(
        slice(los[a], his[a]) if a in set(odd) else slice(None)
        for a in range(C.ndim)
    )
    pred[target] = _combine(near, outer, *_cubic_weights(j))
    return pred


def _ref_pack_codes(codes, lengths64):
    """Seed pack: byte-aligned u32 containers, three u8-plane scatters."""
    ends = np.cumsum(lengths64)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.zeros(0, np.uint8), 0
    starts = ends - lengths64
    rem = (starts & 7).astype(np.uint32)
    byte_idx = starts >> 3
    shift = np.uint32(32) - lengths64.astype(np.uint32) - rem
    w = codes << shift
    nbytes = (total + 7) >> 3
    out = np.zeros(nbytes + 3, dtype=np.float64)
    for k in range(3):
        plane = ((w >> np.uint32(8 * (3 - k))) & np.uint32(0xFF)).astype(
            np.float64
        )
        out += np.bincount(byte_idx + k, weights=plane, minlength=nbytes + 3)
    return out[:nbytes].astype(np.uint8), total


def _ref_huffman_encode(symbols):
    symbols = np.ascontiguousarray(symbols).ravel().astype(
        np.uint32, copy=False
    )
    m = symbols.size
    if m == 0:
        return _HEADER.pack(_MAGIC, 0, 0, 0, 0, 0, 0, 0)
    freqs = np.bincount(symbols)
    present = np.flatnonzero(freqs)
    if present.size == 1:
        return _HEADER.pack(_MAGIC, 1, 0, freqs.size, m, int(present[0]), 0, 0)
    lengths = _limit_lengths(_code_lengths(freqs), freqs)
    codes = _canonical_codes(lengths)
    packed, nbits = _ref_pack_codes(
        codes[symbols], lengths[symbols].astype(np.int64)
    )
    chunk = _choose_chunk(m)
    starts = np.cumsum(lengths[symbols].astype(np.int64))
    starts -= lengths[symbols]
    sync = starts[::chunk].astype(np.uint64)
    sync_delta = np.diff(sync, prepend=np.uint64(0)).astype(np.uint32)
    lens_z = zlib.compress(lengths.tobytes(), 6)
    sync_z = zlib.compress(sync_delta.tobytes(), 6)
    header = _HEADER.pack(
        _MAGIC, 0, chunk, freqs.size, m, nbits, len(lens_z), len(sync_z)
    )
    return b"".join([header, lens_z, sync_z, packed.tobytes(), b"\0\0\0\0"])


def _ref_quantize(values, pred, eb, radius):
    """Seed quantizer: float64 arithmetic for every payload dtype."""
    flat = values.reshape(-1)
    pflat = pred.reshape(-1)
    diff = flat.astype(np.float64) - pflat.astype(np.float64)
    finite_diff = np.where(np.isfinite(diff), diff, 0.0)
    q = np.rint(finite_diff / (2.0 * eb)).astype(np.int64)
    recon = (pflat.astype(np.float64) + q * (2.0 * eb)).astype(values.dtype)
    ok = (np.abs(q) < radius) & (
        np.abs(recon.astype(np.float64) - flat.astype(np.float64)) <= eb
    )
    ok &= np.isfinite(flat)
    codes = np.where(ok, q + radius, 0).astype(np.uint32)
    bad = np.flatnonzero(~ok)
    out_val = flat[bad].copy()
    recon[bad] = flat[bad]
    return codes, bad, out_val, recon


def _ref_compress_bytes(data, level=1):
    """Seed lossless stage: unconditional DEFLATE attempt (no probe)."""
    if level == 0 or len(data) < 64:
        return b"\x00" + data
    z = zlib.compress(data, level)
    return (b"\x00" + data) if len(z) >= len(data) else (b"\x01" + z)


def reference_stz_compress(data, eb, eb_mode="rel", config=None):
    """The seed's serial compression loop, per sub-block end to end."""
    # the seed quantized in float64 and predates the f32-quant container
    # flag, so the reference container must not carry it — the shared
    # reader selects the reconstruction formula from that bit
    config = (config or STZConfig()).with_(f32_quant=False)
    data = as_float_array(data)
    abs_eb = resolve_eb(data, eb, eb_mode)
    writer = StreamWriter(data.shape, data.dtype, config, abs_eb)
    offsets = nonzero_offsets(data.ndim)
    strides = level_strides(config.levels)
    eb1 = config.level_eb(abs_eb, 1)
    A = np.ascontiguousarray(
        data[tuple(slice(0, None, strides[0]) for _ in data.shape)]
    )
    seg1 = sz3_compress(
        A, eb1, "abs", config.sz3_interp, config.quant_radius,
        config.zlib_level,
    )
    writer.add_segment(1, (0,) * data.ndim, KIND_L1_SZ3, seg1)
    C = sz3_decompress(seg1)  # the seed's round-trip for the basis
    for level in range(2, config.levels + 1):
        stride = strides[level - 1]
        fs = lattice_shape(data.shape, stride)
        ebl = config.level_eb(abs_eb, level)
        blocks = {}
        for eps in offsets:
            B = np.ascontiguousarray(subblock_view_in(data, eps, stride))
            ts = subblock_shape(fs, eps)
            if B.size == 0:
                writer.add_segment(level, eps, KIND_RESIDUAL_Q, b"")
                blocks[eps] = np.empty(ts, dtype=data.dtype)
                continue
            pred = _ref_predict_block(
                C, eps, ts, config.interp, config.cubic_mode
            )
            codes, bad, out_val, recon = _ref_quantize(
                B, pred, ebl, config.quant_radius
            )
            payload = pack_sections(
                [
                    _ref_compress_bytes(
                        _ref_huffman_encode(codes), config.zlib_level
                    ),
                    struct.pack("<Q", bad.size)
                    + bad.astype(np.uint32).tobytes()
                    + out_val.tobytes(),
                ]
            )
            writer.add_segment(level, eps, KIND_RESIDUAL_Q, payload)
            blocks[eps] = recon.reshape(ts)
        C = interleave(C, blocks, fs)
    return writer.tobytes()


def test_encode_batched_speedup():
    """The production encoder's median time beats the seed-faithful
    per-block reference by ENCODE_MIN_SPEEDUP; both decode in bound."""
    data = smooth_field(GRID, seed=11).astype(np.float32)

    ref = lambda: reference_stz_compress(data, REL_EB)  # noqa: E731
    new = lambda: stz_compress(data, REL_EB, "rel")  # noqa: E731

    # both containers must decode within the bound via the one reader
    vr = float(data.max() - data.min())
    for blob in (ref(), new()):
        rec = stz_decompress(blob)
        err = np.max(
            np.abs(rec.astype(np.float64) - data.astype(np.float64))
        )
        assert err <= REL_EB * vr

    t_ref, t_new = [], []
    for _ in range(ENCODE_REPS):
        t0 = time.perf_counter()
        ref()
        t_ref.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        new()
        t_new.append(time.perf_counter() - t0)
    speedup = statistics.median(t_ref) / statistics.median(t_new)
    assert speedup >= ENCODE_MIN_SPEEDUP, (
        f"batched encode only {speedup:.2f}x over the per-block path"
    )


STREAM_GRID = (64, 64, 64)
STREAM_STEPS = 16


def test_encode_streaming_rss(tmp_path):
    """A straight-to-disk streaming compress holds O(1 step) of memory:
    4x the steps may not move peak RSS by 3 steps' worth
    (tests/test_streaming.py pins the same claim with tracemalloc)."""
    step_bytes = int(np.prod(STREAM_GRID)) * 4
    path = tmp_path / "stream.stz"

    def run(nsteps, out_path):
        with RSSSampler() as sampler:
            with open(out_path, "wb") as sink:
                with StreamingCompressor(1e-3, "rel", sink=sink) as sc:
                    sc.extend(evolving_field(nsteps, STREAM_GRID, scale=0.02))
        return sampler.peak

    # short run first: faults in the constant pipeline working set, so
    # the peak difference vs the long run isolates per-step growth
    short_peak_kb = run(4, tmp_path / "warmup.stz")
    peak_kb = run(STREAM_STEPS, path)
    with open(path, "rb") as fh:
        assert sum(1 for _ in StreamingDecompressor(fh)) == STREAM_STEPS
    assert peak_kb - short_peak_kb < 3 * step_bytes / 1024


# ---------------------------------------------------------------------------
# chunked: pool speedup, the chunking CR penalty, out-of-core memory
# ---------------------------------------------------------------------------

CHUNKS = 64
CHUNKED_WORKERS = 4
CHUNKED_REPS = 3
#: 4 chunk workers must beat the serial walk by at least this much
CHUNKED_MIN_SPEEDUP = 1.5
#: floor for chunked CR / full-array CR at 64^3 chunks (measured
#: 0.71-0.97 across the registry)
CHUNKED_MIN_CR_RATIO = 0.6


@needs_cores
def test_chunked_parallel_speedup():
    """4-worker process compress vs the serial chunked walk, best of
    interleaved reps.  One warm WorkerPool serves every parallel rep
    (the un-timed warm-up forks it), so this gates the steady-state
    executor, not fork startup."""
    for ds in _bench_datasets():
        data = load(ds, shape=GRID)
        abs_eb = REL_EB * float(data.max() - data.min())

        def run(**kw):
            return compress_chunked(data, abs_eb, "abs", chunks=CHUNKS, **kw)

        t_serial, t_par = np.inf, np.inf
        with WorkerPool("process", CHUNKED_WORKERS) as pool:
            parallel = dict(
                executor="process", workers=CHUNKED_WORKERS, pool=pool
            )
            run(**parallel)
            for _ in range(CHUNKED_REPS):
                t0 = time.perf_counter()
                run(executor="serial")
                t_serial = min(t_serial, time.perf_counter() - t0)
                t0 = time.perf_counter()
                run(**parallel)
                t_par = min(t_par, time.perf_counter() - t0)
        speedup = t_serial / t_par
        assert speedup >= CHUNKED_MIN_SPEEDUP, (ds, t_serial, t_par)


def test_chunked_cr_penalty():
    """Chunking costs ratio (per-chunk overhead, lost cross-chunk
    context); a regression that craters per-chunk efficiency fails."""
    for ds in _bench_datasets():
        data = load(ds, shape=GRID)
        abs_eb = REL_EB * float(data.max() - data.min())
        full = compress(data, abs_eb, "abs")
        chunked = compress_chunked(
            data, abs_eb, "abs", chunks=CHUNKS, executor="serial"
        )
        cr_ratio = len(full) / len(chunked)
        assert cr_ratio >= CHUNKED_MIN_CR_RATIO, (ds, cr_ratio)


OOC_CHUNK = 32
OOC_SMALL = (96, 96, 96)
OOC_BIG = (192, 96, 96)  # 2x the cells: any O(array) term doubles


def _ooc_roundtrip(tmp_path, shape, tag):
    """Memory-mapped compress + decompress; returns sampled peak RSS."""
    from repro.datasets.synthetic import smooth_field

    src = np.memmap(
        tmp_path / f"src{tag}.raw", dtype=np.float32, mode="w+",
        shape=shape,
    )
    n = shape[0]
    for i in range(0, n, OOC_CHUNK):  # fill without holding the array
        block_shape = (min(OOC_CHUNK, n - i),) + shape[1:]
        src[i : i + OOC_CHUNK] = smooth_field(
            block_shape, seed=17 + i
        ).astype(np.float32)
    src.flush()
    # drop the writer mapping: measured RSS must start from a cold map,
    # not from the fill loop's resident dirty pages
    del src
    src = np.memmap(
        tmp_path / f"src{tag}.raw", dtype=np.float32, mode="r", shape=shape
    )

    with RSSSampler() as sampler:
        with open(tmp_path / f"a{tag}.stz", "wb") as sink:
            compress_chunked(
                src, 1e-3, "abs", chunks=OOC_CHUNK, executor="serial",
                sink=sink,
            )
        out = np.memmap(
            tmp_path / f"dst{tag}.raw", dtype=np.float32, mode="w+",
            shape=shape,
        )
        with open(tmp_path / f"a{tag}.stz", "rb") as fh:
            decompress_chunked(fh, out=out, executor="serial")
    return sampler.peak


def test_chunked_out_of_core_rss(tmp_path):
    """Peak RSS of a memmap round trip must not scale with the array —
    doubling the cells may add at most a few chunks of working set."""
    for sub in ("w", "s", "b"):
        (tmp_path / sub).mkdir()
    # warm-up run first: faults in the constant pipeline working set
    # (allocator arenas, code, caches), so the small-vs-big delta below
    # isolates per-size growth — the only term that may not exist
    _ooc_roundtrip(tmp_path / "w", OOC_SMALL, "w")
    small_peak = _ooc_roundtrip(tmp_path / "s", OOC_SMALL, "s")
    big_peak = _ooc_roundtrip(tmp_path / "b", OOC_BIG, "b")
    chunk_kb = OOC_CHUNK**3 * 4 // 1024
    grew_kb = big_peak - small_peak
    added_kb = int(np.prod(OOC_BIG) - np.prod(OOC_SMALL)) * 4 // 1024
    # O(chunk) growth: well under the added data (O(array) would track
    # it), with a generous multi-chunk + allocator-slack allowance
    assert grew_kb < max(16 * chunk_kb, added_kb // 4), (
        f"peak RSS grew {grew_kb} KiB for {added_kb} KiB more data"
    )


# ---------------------------------------------------------------------------
# integrity: the cost of checksums on every round trip
# ---------------------------------------------------------------------------

INTEGRITY_GRID = (96, 96, 96)
INTEGRITY_CHUNKS = 32
INTEGRITY_REPS = 5
#: the integrity layer may cost at most this fraction of the unchecked
#: round-trip time (CRC32 over compressed bytes is cheap; anything
#: above this means the guards landed on a hot path)
INTEGRITY_MAX_OVERHEAD = 0.05


def _interleaved(fn_plain, fn_checked, reps=INTEGRITY_REPS):
    """Best-of-reps for both variants, alternating runs."""
    t_plain, t_checked = np.inf, np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn_plain()
        t_plain = min(t_plain, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_checked()
        t_checked = min(t_checked, time.perf_counter() - t0)
    return t_plain, t_checked


def test_integrity_overhead():
    """Checksummed single-frame (digest verified at open) and sharded
    (per-chunk CRCs + recoverable records) round trips each cost at
    most INTEGRITY_MAX_OVERHEAD over the unchecked ones (nyx 96^3)."""
    data = load("nyx", shape=INTEGRITY_GRID)
    abs_eb = REL_EB * float(data.max() - data.min())

    def chunked(**kw):
        return compress_chunked(
            data, abs_eb, "abs", chunks=INTEGRITY_CHUNKS, executor="serial",
            **kw,
        )

    plain = compress(data, abs_eb, "abs")
    checked = compress(data, abs_eb, "abs", checksum=True)
    cplain = chunked()
    cchecked = chunked(checksum=True, recoverable=True)
    report = verify_archive(cchecked)
    assert report.ok and not report.unchecked

    pairs = {
        "single_compress": _interleaved(
            lambda: compress(data, abs_eb, "abs"),
            lambda: compress(data, abs_eb, "abs", checksum=True),
        ),
        "single_decompress": _interleaved(
            lambda: decompress(plain), lambda: decompress(checked)
        ),
        "chunked_compress": _interleaved(
            chunked, lambda: chunked(checksum=True, recoverable=True)
        ),
        "chunked_decompress": _interleaved(
            lambda: decompress_chunked(cplain, executor="serial"),
            lambda: decompress_chunked(cchecked, executor="serial"),
        ),
    }
    for path, (t_plain, t_checked) in pairs.items():
        overhead = t_checked / t_plain - 1.0
        assert overhead <= INTEGRITY_MAX_OVERHEAD, (
            f"integrity overhead on {path} is {overhead * 100:.1f}% "
            f"(limit {INTEGRITY_MAX_OVERHEAD * 100:.0f}%)"
        )


# ---------------------------------------------------------------------------
# serve: closed-loop repeated-ROI load against a live server
# ---------------------------------------------------------------------------
#
# Many small ROI requests hammer the same few chunks of one archive
# (the Fig. 10 detect-then-extract workflow, served), closed loop over
# real TCP against the in-process ServerHarness: once with the decoded
# chunk cache, once with it disabled (every request re-decodes), and
# once more disabled with the kernels pinned off.

SERVE_GRID = (96, 96, 96)
SERVE_CHUNKS = 48
TENANT = "bench"
CLIENTS = 3
#: timed requests per client (after warm-up); closed loop, so total
#: wall clock adapts to the server rather than overrunning it
REQS_PER_CLIENT = 40
WARMUP_PER_CLIENT = 6
#: the hotspot: a handful of sub-chunk boxes inside two of the eight
#: 48^3 chunks — every request after warm-up re-reads a decoded chunk
HOT_BOXES = (
    "8:24,8:24,8:24",
    "16:32,0:16,24:40",
    "32:46,30:44,2:18",
    "50:66,50:66,50:66",
    "60:76,48:64,70:86",
)
#: the cache has to pay, not just exist
MIN_CACHE_SPEEDUP = 5.0
#: admission and the executor hand-off keep the tail bounded
MAX_TAIL_RATIO = 10.0
#: compiled cold-miss decode may not lose to the NumPy path (slack for
#: shared-runner noise; a quiet host shows ~1.5-3x)
MIN_JIT_COLD_SPEEDUP = 0.9


def _drive(harness, digest: str) -> dict:
    """Closed-loop repeated-ROI workload; returns latency stats."""

    def client_loop(cid: int) -> list[float]:
        lat: list[float] = []
        with harness.client(TENANT, timeout=120) as cli:
            for i in range(WARMUP_PER_CLIENT + REQS_PER_CLIENT):
                box = HOT_BOXES[(cid + i) % len(HOT_BOXES)]
                t0 = time.perf_counter()
                resp = cli.roi(digest, box)
                dt = time.perf_counter() - t0
                assert resp.status == 200, (resp.status, resp.body[:200])
                if i >= WARMUP_PER_CLIENT:
                    lat.append(dt)
        return lat

    with ThreadPoolExecutor(max_workers=CLIENTS) as tp:
        per_client = list(tp.map(client_loop, range(CLIENTS)))
    lat = np.array([dt for lats in per_client for dt in lats])
    stats = harness.client(TENANT).stats()
    return {
        "p50": float(np.percentile(lat, 50)),
        "p99": float(np.percentile(lat, 99)),
        "hit_rate": stats["engine"]["cache"]["hit_rate"],
        "rejected": stats["admission"]["rejected"],
    }


def _serve_workload(cache_bytes: int, jit_mode: bool | None = None) -> dict:
    """One full harness run; ``jit_mode`` pins the compiled-kernel
    facade for the server's decode threads (None follows the
    environment)."""
    data = smooth_field(SERVE_GRID, seed=11).astype(np.float32)
    eb = REL_EB * float(data.max() - data.min())
    with jit.override(jit_mode), ServerHarness(
        executor="thread",
        workers=2,
        cache_bytes=cache_bytes,
        max_inflight=8,
        max_queue=64,
        request_timeout=120.0,
    ) as h:
        with h.client(TENANT, timeout=120) as cli:
            resp = cli.compress(data, eb, chunks=SERVE_CHUNKS)
            assert resp.status == 200, resp.body[:200]
            digest = resp.headers["x-archive-digest"]
        return _drive(h, digest)


def test_serve_repeated_roi():
    warm = _serve_workload(cache_bytes=64 * (1 << 20))
    cold = _serve_workload(cache_bytes=0)
    cold_numpy = _serve_workload(cache_bytes=0, jit_mode=False)

    assert warm["hit_rate"] > 0, warm
    assert cold["p50"] / warm["p50"] >= MIN_CACHE_SPEEDUP, (warm, cold)
    assert warm["p99"] / warm["p50"] <= MAX_TAIL_RATIO, warm
    # closed-loop load within max_inflight: admission must not reject
    assert warm["rejected"] == 0 and cold["rejected"] == 0
    assert cold_numpy["rejected"] == 0
    if jit.available():
        assert cold_numpy["p50"] / cold["p50"] >= MIN_JIT_COLD_SPEEDUP, (
            cold, cold_numpy
        )

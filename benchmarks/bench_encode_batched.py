"""Micro-benchmark: the seed's serial encode path vs the production path.

The reference implementation below reproduces the seed's serial STZ
encode pipeline algorithm-for-algorithm — per-sub-block float64
quantization, per-segment Huffman encode with the 3-byte-plane pack
scatter, unconditional zlib over every Huffman blob, the
linear-everywhere predictor, and the level-1 SZ3 decompression
round-trip — built from today's container/format primitives so the
output stays decodable.  The production path is the stage-wise level
encoder (per-sub-block ``quantize_many`` + ``huffman_encode_many`` on
the compiled kernels where they build, probe-mode lossless,
shift-cached boundary-linear prediction, level-1 recon reuse); the
"batched" labels in its rows and records are historic names for it.

Both paths run interleaved in one process under the same allocator
tuning, so the reported speedup isolates the algorithmic changes.
Results land in ``BENCH_speed.json`` at the repo root (the perf
trajectory future PRs regress against).
"""

from __future__ import annotations

import itertools
import statistics
import struct
import time
import zlib

import numpy as np

from repro.core.config import STZConfig
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
    _clamp_shift,
    _cubic_combine,
    _linear_combine,
    _predict_block_tensor,
    _validate,
)
from repro.core.stream import KIND_L1_SZ3, KIND_RESIDUAL_Q, StreamWriter
from repro.encoding.huffman import (
    _HEADER,
    _MAGIC,
    _canonical_codes,
    _choose_chunk,
    _code_lengths,
    _limit_lengths,
)
from repro.sz3.compressor import sz3_compress, sz3_decompress
from repro.util.sections import pack_sections
from repro.util.validation import as_float_array, resolve_eb

from conftest import fmt_table, record_bench, smooth_field

GRID = (128, 128, 128)
REL_EB = 1e-3
REPS = 7
#: noise-tolerant assertion floor; the recorded median ratio is the
#: number that matters for the perf trajectory (≈1.5x on quiet machines)
MIN_SPEEDUP = 1.30


# ---------------------------------------------------------------------------
# seed-faithful reference implementations
# ---------------------------------------------------------------------------

def _ref_predict_block(C, eps, ts, interp="cubic", mode="diagonal"):
    """Seed predictor: full-block linear, cubic interior overwrite."""
    odd = _validate(C, eps, ts)
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
    pred = _linear_combine(corners, j)
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
    pred[target] = _cubic_combine(near, outer, j)
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


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_encode_batched_speedup(artifact):
    data = smooth_field(GRID, seed=11).astype(np.float32)

    ref = lambda: reference_stz_compress(data, REL_EB)  # noqa: E731
    new = lambda: stz_compress(data, REL_EB, "rel")  # noqa: E731

    blob_ref = ref()
    blob_new = new()
    # both containers must decode within the bound via the one reader
    vr = float(data.max() - data.min())
    for blob in (blob_ref, blob_new):
        rec = stz_decompress(blob)
        err = np.max(
            np.abs(rec.astype(np.float64) - data.astype(np.float64))
        )
        assert err <= REL_EB * vr

    t_ref, t_new = [], []
    for _ in range(REPS):  # interleaved to decorrelate machine noise
        t0 = time.perf_counter()
        ref()
        t_ref.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        new()
        t_new.append(time.perf_counter() - t0)
    m_ref = statistics.median(t_ref)
    m_new = statistics.median(t_new)
    speedup = m_ref / m_new

    mbs = data.nbytes / 1e6
    rows = [
        ["per-block (pre-PR)", m_ref * 1e3, mbs / m_ref,
         data.nbytes / len(blob_ref)],
        ["batched", m_new * 1e3, mbs / m_new, data.nbytes / len(blob_new)],
        ["speedup", speedup, "", ""],
    ]
    artifact(
        "encode_batched",
        fmt_table(["path", "comp (ms)", "MB/s", "CR"], rows),
    )
    record_bench(
        "encode_batched",
        {
            "grid": list(GRID),
            "dtype": "float32",
            "rel_eb": REL_EB,
            "reference_ms": round(m_ref * 1e3, 2),
            "batched_ms": round(m_new * 1e3, 2),
            "reference_mb_s": round(mbs / m_ref, 2),
            "batched_mb_s": round(mbs / m_new, 2),
            "speedup": round(speedup, 3),
            "cr_reference": round(data.nbytes / len(blob_ref), 3),
            "cr_batched": round(data.nbytes / len(blob_new), 3),
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched encode only {speedup:.2f}x over the per-block path"
    )


# ---------------------------------------------------------------------------
# streaming throughput (steps/s, peak RSS)
# ---------------------------------------------------------------------------

STREAM_GRID = (64, 64, 64)
STREAM_STEPS = 16

# the sampler moved to conftest so the chunked out-of-core benchmark
# shares one definition; keep the historic local names working
from conftest import RSSSampler as _RSSSampler  # noqa: E402
from conftest import vm_rss_kb as _vm_rss_kb  # noqa: E402


def test_streaming_throughput(artifact, tmp_path):
    """Record the streaming subsystem's trajectory: steps/s in each
    direction and the peak RSS of a straight-to-disk run (the bounded
    working set is the subsystem's reason to exist — compressing N
    steps must not cost N frames of memory)."""
    from repro.core.streaming import StreamingCompressor, StreamingDecompressor

    from repro.testing import evolving_field

    def simulation(nsteps=STREAM_STEPS):
        return evolving_field(nsteps, STREAM_GRID, scale=0.02)

    step_bytes = int(np.prod(STREAM_GRID)) * 4
    eb = 1e-3
    path = tmp_path / "stream.stz"

    def run(nsteps, out_path):
        with _RSSSampler() as sampler:
            t0 = time.perf_counter()
            with open(out_path, "wb") as sink:
                with StreamingCompressor(eb, "rel", sink=sink) as sc:
                    sc.extend(simulation(nsteps))
            elapsed = time.perf_counter() - t0
        return elapsed, sampler.peak

    baseline_kb = _vm_rss_kb()
    # short run first: faults in the constant pipeline working set, so
    # the peak difference vs the long run isolates per-step growth
    _, short_peak_kb = run(4, tmp_path / "warmup.stz")
    t_comp, peak_kb = run(STREAM_STEPS, path)
    out_bytes = path.stat().st_size

    with open(path, "rb") as fh:
        sd = StreamingDecompressor(fh)
        t0 = time.perf_counter()
        ndec = sum(1 for _ in sd)
        t_dec = time.perf_counter() - t0
    assert ndec == STREAM_STEPS

    comp_sps = STREAM_STEPS / t_comp
    dec_sps = STREAM_STEPS / t_dec
    total = STREAM_STEPS * step_bytes
    rows = [
        ["compress", round(t_comp * 1e3, 1), round(comp_sps, 2),
         round(total / t_comp / 1e6, 1)],
        ["decompress", round(t_dec * 1e3, 1), round(dec_sps, 2),
         round(total / t_dec / 1e6, 1)],
    ]
    artifact(
        "streaming_throughput",
        fmt_table(["direction", "total (ms)", "steps/s", "MB/s"], rows)
        + f"peak RSS {peak_kb / 1024:.0f} MiB "
        f"(baseline {baseline_kb / 1024:.0f} MiB, "
        f"{STREAM_STEPS} x {step_bytes / 1e6:.0f} MB steps, "
        f"CR {total / out_bytes:.1f})\n",
    )
    record_bench(
        "streaming",
        {
            "grid": list(STREAM_GRID),
            "steps": STREAM_STEPS,
            "dtype": "float32",
            "rel_eb": eb,
            "compress_steps_per_s": round(comp_sps, 2),
            "decompress_steps_per_s": round(dec_sps, 2),
            "compress_mb_s": round(total / t_comp / 1e6, 2),
            "decompress_mb_s": round(total / t_dec / 1e6, 2),
            "peak_rss_mb": round(peak_kb / 1024, 1),
            "baseline_rss_mb": round(baseline_kb / 1024, 1),
            "cr": round(total / out_bytes, 3),
        },
    )
    # the bounded-memory claim: 4x the steps must not move the peak by
    # more than a couple of frames — working memory is O(1 step), never
    # "all steps resident" (tests/test_streaming.py pins the same claim
    # deterministically with tracemalloc)
    assert peak_kb - short_peak_kb < 3 * step_bytes / 1024

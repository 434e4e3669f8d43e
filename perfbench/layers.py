"""The traced run's layer map: which calls are wrapped, and how the
recorded spans and counts become the per-layer metrics.

Every wrap sits at a cross-module boundary — the name the calling
module imported (``repro.core.pipeline.huffman_encode_many``), the
``repro.util.jit`` module attributes its callers look up at call time,
or a method of a container class — so the program itself is unchanged
and everything is put back by ``Patcher.restore``.

Which end-to-end metric each per-layer metric should move, and on
which workload, is recorded in ``expectations.json`` next to this file.
"""

from __future__ import annotations

import importlib
import json
import math
from pathlib import Path

from tracer import Patcher, Tracer, summarize

#: (module, attribute, span name) — plain timed wraps
TIMED = [
    ("repro.core.pipeline", "sz3_compress_with_recon", "sz3.l1_encode"),
    ("repro.core.pipeline", "sz3_decompress", "sz3.l1_decode"),
    ("repro.core.random_access", "sz3_decompress", "sz3.l1_decode"),
    ("repro.core.pipeline", "predict_block", "predict.encode"),
    ("repro.core.random_access", "predict_points", "predict.decode"),
    ("repro.core.pipeline", "quantize_many", "quantizer.quantize"),
    ("repro.sz3.compressor", "quantize", "quantizer.quantize"),
    ("repro.core.pipeline", "dequantize_many", "quantizer.dequantize"),
    ("repro.core.random_access", "dequantize", "quantizer.dequantize"),
    ("repro.sz3.compressor", "dequantize", "quantizer.dequantize"),
    ("repro.core.pipeline", "decompress_bytes", "lossless.decode"),
    ("repro.sz3.compressor", "decompress_bytes", "lossless.decode"),
    ("repro.core.api", "stz_compress", "pipeline.compress"),
    ("repro.core.chunked", "stz_compress_with_recon", "pipeline.compress"),
    ("repro.core.api", "stz_decompress", "pipeline.decompress"),
    ("repro.core.chunked", "stz_decompress", "pipeline.decompress"),
    ("repro.core.pipeline", "interleave", "partition.interleave"),
    ("repro.core.api", "_compress_chunked_impl", "chunked.compress"),
    ("repro.core.api", "decompress_chunked", "chunked.decompress"),
    ("repro.core.api", "decompress_chunked_roi", "chunked.roi"),
    ("repro.serve.engine", "compress_chunked", "chunked.compress"),
]

#: Huffman entry points: (module, attribute, span name, segments-of-args)
HUFFMAN = [
    ("repro.core.pipeline", "huffman_encode_many", "huffman.encode", len),
    ("repro.sz3.compressor", "huffman_encode_many", "huffman.encode", len),
    ("repro.sz3.compressor", "huffman_encode", "huffman.encode", None),
    ("repro.core.pipeline", "huffman_decode_many", "huffman.decode", len),
    ("repro.core.random_access", "huffman_decode_many", "huffman.decode", len),
    ("repro.sz3.compressor", "huffman_decode", "huffman.decode", None),
    # no production caller imports the chunk-bounded decoder at this
    # commit; wrapped at its home so a caller that adopts it shows
    ("repro.encoding.huffman", "huffman_decode_range",
     "huffman.range_decode", None),
]

#: container classes: (module, class, method, span name)
STREAM = [
    ("repro.core.stream", "StreamWriter", "add_segment", "stream.write"),
    ("repro.core.stream", "ShardedWriter", "add_chunk", "stream.write"),
    ("repro.core.stream", "ShardedWriter", "finalize", "stream.write"),
    ("repro.core.stream", "StreamReader", "__init__", "stream.open"),
    ("repro.core.stream", "ShardedReader", "__init__", "stream.open"),
]

JIT_KERNELS = (
    "quantize", "dequantize", "huffman_pack", "huffman_decode",
    "huffman_tree", "huffman_limit", "szx_pack", "szx_unpack",
    "combine", "combine_dequant", "scatter",
)

#: every per-layer metric, in report order
PER_LAYER = [
    m["name"]
    for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )["per_layer"]
]

#: self-time metrics and the spans they sum; each also has a
#: ``*_cpu_ms`` companion, the thread CPU self time of the same spans.
#: ``parallel.map`` has none: its children run on other threads, so
#: its own thread's CPU time does not compare with its wall self time
SELF_MS = {
    "sz3.l1_encode_ms": ("sz3.l1_encode",),
    "sz3.l1_decode_ms": ("sz3.l1_decode",),
    "predict.encode_ms": ("predict.encode",),
    "predict.decode_ms": ("predict.decode",),
    "quantizer.quantize_ms": ("quantizer.quantize",),
    "quantizer.dequantize_ms": ("quantizer.dequantize",),
    "huffman.encode_ms": ("huffman.encode",),
    "huffman.decode_ms": ("huffman.decode",),
    "huffman.range_decode_ms": ("huffman.range_decode",),
    "lossless.probe_ms": ("lossless.probe",),
    "lossless.decode_ms": ("lossless.decode",),
    "pipeline.compress_self_ms": ("pipeline.compress",),
    "pipeline.decompress_self_ms": ("pipeline.decompress",),
    "partition.interleave_ms": ("partition.interleave",),
    "stream.write_ms": ("stream.write",),
    "stream.open_ms": ("stream.open",),
    "chunked.self_ms": ("chunked.compress", "chunked.decompress", "chunked.roi"),
    "random_access.roi_ms": ("random_access.roi",),
}


def _timed(tracer: Tracer, name: str | None, after=None):
    """Wrapper factory: one span per call (none when ``name`` is None);
    ``after(args, kwargs, result)`` records counts from the call."""

    def make(fn):
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            if after is not None and not tracer.paused:
                after(args, kwargs, result)
            return result

        return wrapper

    return make


def _counted(tracer: Tracer, key: str):
    def make(fn):
        def wrapper(*args, **kwargs):
            tracer.add(key)
            return fn(*args, **kwargs)

        return wrapper

    return make


def _mapped(tracer: Tracer):
    """``execute_map`` wrapper: a ``parallel.map`` span, and every task
    a ``parallel.task`` span parented to it on whatever thread runs it."""

    def make(fn):
        def wrapper(task_fn, items, state, *args, **kwargs):
            with tracer.span("parallel.map") as parent:
                if parent is None:
                    return fn(task_fn, items, state, *args, **kwargs)
                tracer.add("chunked.chunks", len(items))
                executor = args[0] if args else kwargs.get("executor", "serial")
                workers = args[1] if len(args) > 1 else kwargs.get("workers")
                width = 1 if executor == "serial" else max(1, workers or 1)

                def task(st, item):
                    with tracer.span("parallel.task", parent=parent):
                        return task_fn(st, item)

                result = fn(task, items, state, *args, **kwargs)
            tracer.add("parallel.capacity_s", width * (parent.t1 - parent.t0))
            return result

        return wrapper

    return make


def _roi_accounting(tracer: Tracer, stream_reader):
    """Counts from the public ``RandomAccessResult``: segments decoded
    and skipped, payload bytes read, and the bytes the box's volume
    share of the archive would need (the read-amplification base)."""

    def after(args, kwargs, res):
        source = args[0]
        with tracer.pause():
            shape = stream_reader(source).header.shape
        volume = math.prod(shape)
        box_volume = math.prod(hi - lo for lo, hi in res.box)
        tracer.add("roi.decoded", res.segments_decoded)
        tracer.add("roi.skipped", res.segments_skipped)
        tracer.add("roi.bytes_read", res.bytes_read)
        tracer.add("roi.bytes_share", len(source) * box_volume / volume)

    return after


def install(tracer: Tracer, patcher: Patcher, engine=None) -> None:
    """Wrap every layer boundary (and the serve engine, when given)."""
    mod = importlib.import_module
    for module, attr, name in TIMED:
        patcher.wrap(mod(module), attr, _timed(tracer, name))

    def segments(measure):
        def after(args, kwargs, result):
            tracer.add("huffman.segments", measure(args[0]) if measure else 1)

        return after

    for module, attr, name, measure in HUFFMAN:
        patcher.wrap(mod(module), attr, _timed(tracer, name, segments(measure)))

    def fallback(args, kwargs, result):
        if result is None:
            tracer.add("quantizer.dequant_fallback_calls")

    patcher.wrap(
        mod("repro.core.pipeline"), "predict_dequant_block",
        _timed(tracer, "predict.decode", fallback),
    )

    def probe(args, kwargs, result):
        tracer.add("lossless.probes")
        if bytes(result[:1]) == b"\x01":  # the zlib-kept tag
            tracer.add("lossless.kept")

    for module in ("repro.core.pipeline", "repro.sz3.compressor"):
        patcher.wrap(
            mod(module), "compress_bytes",
            _timed(tracer, "lossless.probe", probe),
        )

    for module in ("repro.core.chunked", "repro.serve.engine"):
        patcher.wrap(mod(module), "execute_map", _mapped(tracer))

    stream = mod("repro.core.stream")
    after = _roi_accounting(tracer, stream.StreamReader)
    for module in ("repro.core.api", "repro.core.chunked"):
        patcher.wrap(
            mod(module), "stz_decompress_roi",
            _timed(tracer, "random_access.roi", after),
        )

    def written(args, kwargs, result):
        tracer.add("stream.bytes_written", len(result))

    def read(args, kwargs, result):
        tracer.add("stream.bytes_read", len(result))

    for module, cls, method, name in STREAM:
        patcher.wrap(getattr(mod(module), cls), method, _timed(tracer, name))
    patcher.wrap(
        stream.StreamWriter, "tobytes", _timed(tracer, "stream.write", written)
    )
    patcher.wrap(
        stream.ShardedWriter, "getvalue",
        _timed(tracer, "stream.write", written),
    )
    # payload reads are zero-copy slices: counted, not timed
    patcher.wrap(stream.StreamReader, "read_segment", _timed(tracer, None, read))
    patcher.wrap(stream.ShardedReader, "read_chunk", _timed(tracer, None, read))

    jit = mod("repro.util.jit")
    for kernel in JIT_KERNELS:
        patcher.wrap(jit, kernel, _counted(tracer, "jit.kernel_calls"))

    if engine is not None:
        for method in ("decode_chunks", "compress"):
            patcher.wrap(engine, method, _timed(tracer, "serve.engine"))


def layer_metrics(
    tracer: Tracer,
    rounds: int,
    mib: float,
    extra: dict[str, float] | None = None,
) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts.

    Times are wall self times in ms per round, each with its thread CPU
    self time beside it (``*_cpu_ms``); ``trace.wait_ms`` sums their
    difference over every layer but ``parallel.map``.  Counts are per round; ratios are
    over the whole traced window.  ``mib`` is the array data the
    traced rounds moved (the ``jit.calls_per_mib`` base); ``extra``
    supplies the metrics the workload measures itself (serve, proc,
    trace)."""
    rows = summarize(tracer.spans)
    counts = tracer.counts

    def self_ms(*names: str, key: str = "self") -> float:
        return sum(rows.get(n, {}).get(key, 0.0) for n in names) * 1e3 / rounds

    def total_ms(name: str) -> float:
        return rows.get(name, {}).get("total", 0.0) * 1e3 / rounds

    def per_round(key: str) -> float:
        return counts.get(key, 0.0) / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for metric, spans in SELF_MS.items():
        out[metric] = self_ms(*spans)
        out[metric[:-3] + "_cpu_ms"] = self_ms(*spans, key="cpu")
    layer_rows = [
        row for name, row in rows.items()
        if not name.startswith("op.") and name != "parallel.map"
    ]
    chunks = per_round("chunked.chunks")
    out.update({
        "quantizer.dequant_fallback_calls": per_round(
            "quantizer.dequant_fallback_calls"
        ),
        "huffman.segments": per_round("huffman.segments"),
        "lossless.deflate_kept_frac": ratio(
            counts.get("lossless.kept", 0.0), counts.get("lossless.probes", 0.0)
        ),
        "jit.kernel_calls": per_round("jit.kernel_calls"),
        "jit.calls_per_mib": ratio(
            counts.get("jit.kernel_calls", 0.0), mib * rounds
        ),
        "stream.bytes_written": per_round("stream.bytes_written"),
        "stream.bytes_read": per_round("stream.bytes_read"),
        "chunked.chunks": chunks,
        "chunked.per_chunk_overhead_ms": ratio(
            self_ms("chunked.compress", "chunked.decompress", "chunked.roi",
                    "parallel.map", "parallel.task"),
            chunks,
        ),
        "parallel.map_ms": total_ms("parallel.map"),
        "parallel.task_ms": total_ms("parallel.task"),
        "parallel.wait_ms": self_ms("parallel.map"),
        "parallel.busy_frac": ratio(
            rows.get("parallel.task", {}).get("total", 0.0),
            counts.get("parallel.capacity_s", 0.0),
        ),
        "random_access.skip_frac": ratio(
            counts.get("roi.skipped", 0.0),
            counts.get("roi.skipped", 0.0) + counts.get("roi.decoded", 0.0),
        ),
        "random_access.read_amp": ratio(
            counts.get("roi.bytes_read", 0.0), counts.get("roi.bytes_share", 0.0)
        ),
        "trace.wait_ms": sum(r["self"] - r["cpu"] for r in layer_rows)
        * 1e3 / rounds,
    })
    for name in PER_LAYER:
        out.setdefault(name, 0.0)
    if extra:
        out.update(extra)
    return out


def op_uncovered_ms(tracer: Tracer, rounds: int) -> float:
    """Wall time of the benchmark's own ``op.*`` spans that no layer
    span covers (the api glue plus anything left unwrapped), ms per
    round."""
    rows = summarize(tracer.spans)
    return sum(
        row["self"] for name, row in rows.items() if name.startswith("op.")
    ) * 1e3 / rounds

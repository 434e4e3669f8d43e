"""Benchmark of the STZ reproduction: one workload, one seed, one run.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` wraps the layer boundaries
(layers.py) and reports the per-layer split instead.  Every output the
program returns is checked (workloads.py); any failed check makes the
run exit non-zero.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it stamp the run and list sample counts.

Exit codes: 0 ok, 1 a correctness check failed, 2 the program could
not be imported, 3 a thread, child process or listening socket
outlived the run, 130 interrupted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
#: the benchmark writes only here (the compiled-kernel cache)
BUILD_DIR = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
#: the metrics reported, with their units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

now = time.perf_counter


def commit() -> str:
    """HEAD from the git metadata files, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Digest of every file under src/ — identifies the program when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def leftovers() -> list[str]:
    """Threads, child processes and listening sockets still alive."""
    found = [
        f"thread {t.name}"
        for t in threading.enumerate()
        if t is not threading.main_thread() and t.is_alive()
    ]
    for task in Path("/proc/self/task").glob("*/children"):
        found += [f"child process {pid}" for pid in task.read_text().split()]
    inodes = set()
    for fd in Path("/proc/self/fd").iterdir():
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            rows = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if cols[3] == "0A" and cols[9] in inodes:  # 0A = LISTEN
                found.append(f"listening socket {cols[1]}")
    return found


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("bulk", "chunked", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--inject", choices=("violation", "raise"),
        help="self-test only: break the checked outputs (violation) or "
        "make every ROI read raise (raise)",
    )
    args = ap.parse_args(argv)

    build = BUILD_DIR if BUILD_DIR.is_absolute() else ROOT / BUILD_DIR
    os.environ["STZ_JIT_CACHE"] = str(build / "stz-jit")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    t0 = now()
    try:
        import numpy as np

        from repro.core import api  # noqa: F401 — timed as set-up
        from repro.util import jit
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = now() - t0

    # the compiled kernels build once per checkout; that build is not
    # set-up, loading the cached library is
    cache = Path(os.environ["STZ_JIT_CACHE"])
    cached = set(os.listdir(cache)) if cache.is_dir() else set()
    t0 = now()
    jit_ok = jit.available()
    jit_s = now() - t0
    built = jit_ok and Path(jit.status()["library"]).name not in cached
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "STZ_JIT": os.environ.get("STZ_JIT", "(unset: on)"),
        "jit_available": jit_ok,
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if built:
        stamp["jit_build_s"] = round(jit_s, 3)
        jit_s = 0.0
    print("stamp", json.dumps(stamp), flush=True)

    load = workloads.WORKLOADS[args.workload]()
    if args.inject == "violation":
        load.bound_share = 0.5  # outputs then miss the checked bound
    elif args.inject == "raise":
        def broken(*_):
            raise RuntimeError("injected failure")

        load.roi = broken
    state = None
    try:
        reps = []
        for i in range(SETUP_REPS):
            t0 = now()
            state = load.setup(args.seed)
            reps.append(now() - t0)
            if i < SETUP_REPS - 1:
                load.teardown(state)
                state = None
        setup_s = import_s + jit_s + float(np.median(reps))
        result = load.run(state, args.seed, args.seconds, bool(args.trace))
    except KeyboardInterrupt:
        interrupted = True
    else:
        interrupted = False
    finally:
        if state is not None:
            load.teardown(state)
    if interrupted:
        for item in leftovers():
            print("LEFTOVER", item, file=sys.stderr)
        print("interrupted", file=sys.stderr)
        return 130

    ledger = result["ledger"]
    metrics = result["metrics"]  # empty when a sample set was empty
    samples = metrics.pop("_samples", None)
    if metrics and not args.trace:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        metrics["setup_s"] = setup_s
    report = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in SPEC["per_layer" if args.trace else "end_to_end"]
    } if metrics else {}
    print("samples", json.dumps(samples or {}),
          "setup_reps_s", json.dumps([round(r, 3) for r in reps]),
          "import_s", round(import_s, 3),
          "error_rate", ledger.failed / max(1, ledger.attempted))
    for name, m in report.items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    for name in sorted(set(metrics) - set(report)):
        print(f"  {name:34s} {metrics[name]:14.4f} (not gated)")
    for message in ledger.violations + ledger.errors[:20]:
        print("FAILED", message, file=sys.stderr)

    stray = leftovers()
    for item in stray:
        print("LEFTOVER", item, file=sys.stderr)
    correct = not ledger.failed and not ledger.violations and not stray
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": report,
    }), flush=True)
    if stray:
        return 3
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark (not of the program).

    python3 -m pytest perfbench/test_perfbench.py -q

* the tracer's wall and CPU self-time arithmetic on a synthetic nested
  span tree;
* every wrapped name holds its original object again after a traced
  workload;
* process hygiene: after the command exits — on success, on a failed
  check, on an operation that raises and on Ctrl-C — no process of its
  session is alive and it reported no leftover thread or listening
  socket; a failed check or a raising operation exits 1;
* without the program next to it the command fails without a result.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
# the in-process tests compile or load the kernels where run.py does
os.environ.setdefault("STZ_JIT_CACHE", str(ROOT / ".bench_build" / "stz-jit"))

from tracer import (  # noqa: E402
    Patcher, Span, Tracer, overlap_length, restored, self_times, summarize,
    union_length,
)


def _span(name, parent, t0, t1, cpu=None, thread=0):
    """A finished span; its thread's CPU clock runs with the wall clock
    unless ``cpu`` gives the CPU seconds it took."""
    s = Span(name, parent, t0, c0=t0, thread=thread)
    s.t1 = t1
    s.c1 = t0 + (t1 - t0 if cpu is None else cpu)
    return s


def test_interval_lengths_merge_overlaps():
    assert union_length([]) == 0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 4), (1, 2), (3, 6)]) == 6
    assert union_length([(5, 6), (0, 1), (0.5, 2)]) == 3
    assert overlap_length([], [(0, 1)]) == 0
    assert overlap_length([(0, 4), (6, 9)], [(1, 2), (3, 7), (8, 20)]) == 4
    assert overlap_length([(0, 2), (1, 3)], [(0, 3)]) == 3


def test_self_time_on_synthetic_tree():
    root = _span("root", None, 0, 10, cpu=6)
    a = _span("a", root, 1, 4, cpu=2)
    b = _span("b", root, 3, 6, cpu=1, thread=1)  # overlaps a: another thread
    a1 = _span("a1", a, 2, 3)
    c = _span("c", root, 8, 12)  # runs past its parent: clipped
    own = self_times([root, a, b, a1, c])
    wall = {k: w for k, (w, _) in own.items()}
    cpu = {k: c for k, (_, c) in own.items()}
    assert wall[id(root)] == pytest.approx(10 - (5 + 2))
    assert wall[id(a)] == pytest.approx(2)
    assert wall[id(b)] == pytest.approx(3)
    assert wall[id(a1)] == pytest.approx(1)
    assert wall[id(c)] == pytest.approx(4)
    # CPU self time subtracts only same-thread children: a and c, not b
    assert cpu[id(root)] == pytest.approx(6 - (2 + 4))
    assert cpu[id(a)] == pytest.approx(2 - 1)
    assert cpu[id(b)] == pytest.approx(1)
    rows = summarize([root, a, b, a1, c, _span("a", None, 20, 21)])
    assert rows["a"] == {"self": pytest.approx(3), "cpu": pytest.approx(2),
                         "total": pytest.approx(4), "calls": 2}


def test_cpu_self_time_excludes_waiting():
    tracer = Tracer()
    with tracer.span("sleep"):
        time.sleep(0.05)
    with tracer.span("spin"):
        t = time.thread_time()
        while time.thread_time() - t < 0.05:
            pass
    rows = summarize(tracer.spans)
    assert rows["sleep"]["self"] >= 0.05 and rows["sleep"]["cpu"] < 0.02
    assert rows["spin"]["cpu"] >= 0.05


def test_spans_nest_per_thread_and_adopt_explicit_parents():
    tracer = Tracer()
    with tracer.span("map") as parent:
        def task():
            with tracer.span("task", parent=parent):
                with tracer.span("inner"):
                    time.sleep(0.01)

        workers = [threading.Thread(target=task) for _ in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        with tracer.pause():
            with tracer.span("hidden"):
                pass
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert "hidden" not in by_name
    assert all(s.parent is parent for s in by_name["task"])
    assert {id(s.parent) for s in by_name["inner"]} == {id(s) for s in by_name["task"]}
    rows = summarize(tracer.spans)
    # two 10 ms tasks in parallel: the map's self time excludes their union
    assert rows["map"]["self"] < rows["map"]["total"] - 0.009


def test_patcher_restores_functions_methods_and_instance_attributes():
    class Thing:
        def method(self):
            return "orig"

    thing = Thing()
    mod = importlib.import_module("tracer")
    before = mod.union_length
    patcher = Patcher()
    patcher.wrap(mod, "union_length", lambda fn: lambda *a: -1)
    patcher.wrap(Thing, "method", lambda fn: lambda self: "class")
    patcher.wrap(thing, "method", lambda fn: lambda: "instance")
    assert mod.union_length([(0, 1)]) == -1 and thing.method() == "instance"
    slots = patcher.restore()
    assert restored(slots) == []
    assert mod.union_length is before
    assert "method" not in vars(thing) and thing.method() == "orig"


def test_traced_workload_restores_every_wrapped_name():
    import numpy as np

    import layers
    from repro.core import api
    from repro.util import jit

    patcher = Patcher()
    tracer = Tracer()
    layers.install(tracer, patcher)
    x = np.linspace(0, 1, 32**3, dtype=np.float32).reshape(32, 32, 32)
    blob = api.compress_chunked(x, 1e-3, "rel", chunks=16, executor="thread", workers=2)
    api.decompress_roi(api.compress(x, 1e-3, "rel"), (slice(0, 8),) * 3)
    api.decompress(blob, executor="thread", workers=2)
    slots = patcher.restore()
    assert len(slots) > 50 and restored(slots) == []
    names = {s.name for s in tracer.spans}
    assert {"pipeline.compress", "chunked.compress", "parallel.task",
            "random_access.roi", "huffman.encode"} <= names
    assert (tracer.counts["jit.kernel_calls"] > 0) == jit.available()
    metrics = layers.layer_metrics(tracer, 1, 1.0)
    assert set(metrics) == set(layers.PER_LAYER)


def test_expectations_cover_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = json.loads((HERE / "expectations.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert set(expect["per_layer"]) == set(names)
    e2e = {m["name"] for m in spec["end_to_end"]}
    # the gated workloads, plus chunked, which runs only by hand
    from workloads import WORKLOADS
    workloads = set(WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} < workloads
    for name, row in expect["per_layer"].items():
        assert set(row["moves"]) <= e2e | {"all"}, name
        assert set(row["on"]) <= workloads, name


# ---------------------------------------------------------------------------
# process hygiene of the command itself
# ---------------------------------------------------------------------------

def _session_members(sid: int) -> list[int]:
    """PIDs whose session id is ``sid`` (the command ran as its leader)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:  # after pid/comm: state ppid pgrp session
            members.append(int(stat.parent.name))
    return members


def _launch(*extra: str, workload: str = "serve") -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )


def _finish(proc: subprocess.Popen, timeout: float = 170) -> tuple[str, str]:
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    deadline = time.monotonic() + 5
    while _session_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _session_members(proc.pid) == [], "processes outlived the command"
    assert "LEFTOVER" not in err, err
    return out, err


def test_clean_exit_on_success():
    proc = _launch("--seconds", "2")
    out, err = _finish(proc)
    assert proc.returncode == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_bound_violation_exits_nonzero_and_cleanly():
    proc = _launch("--seconds", "2", "--inject", "violation")
    out, err = _finish(proc)
    assert proc.returncode == 1
    result = json.loads(out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    assert "max error" in err


@pytest.mark.parametrize("workload", ["bulk", "serve"])
def test_raising_operation_fails_the_run(workload):
    # every ROI read raises: the failures must fail the run, not drop
    # out of the latency samples and leave a flattering p50 behind
    proc = _launch("--seconds", "1", "--inject", "raise", workload=workload)
    out, err = _finish(proc)
    assert proc.returncode == 1, err
    result = json.loads(out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"] == {}


def test_ctrl_c_mid_run_exits_cleanly():
    proc = _launch("--seconds", "30")
    # wait until the server is up and the open loop is running
    deadline = time.monotonic() + 120
    line = proc.stdout.readline()
    assert line.startswith("stamp"), line
    time.sleep(20)
    assert proc.poll() is None and time.monotonic() < deadline
    os.killpg(proc.pid, signal.SIGINT)
    out, err = _finish(proc, timeout=60)
    assert proc.returncode == 130, err
    assert '"correct"' not in out


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

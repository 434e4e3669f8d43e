"""Thread-parallel ("OMP") mode: results must be bit-identical to
serial, and the machinery must degrade gracefully."""

import numpy as np
import pytest

from conftest import smooth_field
from repro.core import parallel
from repro.core.parallel import effective_workers, pmap
from repro.core.pipeline import stz_compress, stz_decompress
from repro.core.random_access import stz_decompress_roi
from repro.util import jit

#: compiled kernels (where they build) and the pure-NumPy reference
KERNEL_MODES = (True, False)


class TestPmap:
    def test_serial_fallbacks(self):
        assert effective_workers(None) == 1
        assert effective_workers(0) == 1
        assert effective_workers(1) == 1
        assert effective_workers(4) == 4

    def test_order_preserved(self):
        out = pmap(lambda x: x * x, list(range(50)), threads=4)
        assert out == [x * x for x in range(50)]

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            pmap(boom, [1, 2], threads=2)


class TestParallelSTZ:
    """Serial and threaded runs share one level path, so their archive
    bytes and reconstructions must agree in both kernel modes.  The
    usable-CPU count is pinned to 2 so the thread pool really runs
    even on 1-CPU hosts (pmap would otherwise degrade to serial)."""

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)

    @pytest.fixture(scope="class")
    def data(self):
        return smooth_field((40, 36, 32), seed=30).astype(np.float32)

    def test_compress_bit_identical(self, data):
        for mode in KERNEL_MODES:
            with jit.override(mode):
                assert stz_compress(data, 1e-3) == stz_compress(
                    data, 1e-3, threads=4
                ), mode

    def test_decompress_bit_identical(self, data):
        blob = stz_compress(data, 1e-3)
        for mode in KERNEL_MODES:
            with jit.override(mode):
                assert np.array_equal(
                    stz_decompress(blob), stz_decompress(blob, threads=4)
                ), mode

    def test_progressive_parallel(self, data):
        blob = stz_compress(data, 1e-3)
        for mode in KERNEL_MODES:
            with jit.override(mode):
                assert np.array_equal(
                    stz_decompress(blob, level=2),
                    stz_decompress(blob, level=2, threads=4),
                ), mode

    def test_roi_parallel_identical(self, data):
        blob = stz_compress(data, 1e-3)
        roi = (slice(5, 25), slice(None), slice(10, 11))
        a = stz_decompress_roi(blob, roi)
        b = stz_decompress_roi(blob, roi, threads=4)
        assert np.array_equal(a.data, b.data)

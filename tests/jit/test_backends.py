"""Backend registry: resolution, clean fallback, and compile observability.

The contract under test (DESIGN.md §18): requesting a compiled backend
can never break a caller — unavailable backends degrade to NumPy,
unsupported geometries degrade per plan, and a kernel-compile failure
mid-flight degrades the plan without surfacing an error.  The JIT is a
pure optimization; these tests pin the "pure" half.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import jit
from repro.core.api import GpuFFT3D
from repro.core.five_step import FiveStepPlan, resolve_plan_backend
from repro.jit import cc, nb


class TestResolution:
    def test_numpy_always_available(self):
        assert jit.backend_available("numpy")
        assert "numpy" in jit.available_backends()

    def test_auto_resolves_to_an_available_backend(self):
        resolved = jit.resolve_backend("auto")
        assert resolved in jit.BACKENDS
        assert jit.backend_available(resolved)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            jit.resolve_backend("cuda")
        with pytest.raises(ValueError, match="unknown backend"):
            jit.backend_available("cuda")

    def test_explicit_unavailable_backend_degrades_to_numpy(self, monkeypatch):
        monkeypatch.setattr(nb, "available", lambda: False)
        monkeypatch.setattr(cc, "available", lambda: False)
        assert jit.resolve_backend("numba") == "numpy"
        assert jit.resolve_backend("cjit") == "numpy"
        assert jit.resolve_backend("auto") == "numpy"
        assert jit.available_backends() == ("numpy",)

    def test_plan_resolution_respects_shape_support(self):
        # 512-point axes have no emitted kernels: even "auto" must land
        # on numpy for the out-of-core-adjacent geometry.
        assert resolve_plan_backend((512, 512, 512), "auto") == "numpy"
        assert resolve_plan_backend((32, 32, 32), "numpy") == "numpy"


class TestCacheRecovery:
    def test_corrupt_cached_library_is_rebuilt(self, tmp_path, monkeypatch):
        """A clobbered cache entry must not disable cjit for good."""
        if cc._find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        # Warm the cache in another process: this one must never have
        # mapped the file it is about to find corrupt.
        src = str(Path(jit.__file__).resolve().parents[2])
        monkeypatch.setenv("PYTHONPATH", src)
        warm = "from repro.jit import cc; assert cc.available()"
        subprocess.run([sys.executable, "-c", warm], check=True, env=os.environ)
        (probe,) = tmp_path.glob("probe-*.so")
        probe.write_bytes(b"not a shared library")
        monkeypatch.setattr(nb, "available", lambda: False)
        for name, value in (("_probe_lib", False), ("_modes", None), ("_library", None)):
            monkeypatch.setattr(cc, name, value)
        assert jit.resolve_backend("auto") == "cjit"
        assert probe.read_bytes() != b"not a shared library"


class TestCleanFallback:
    def test_no_numba_plan_falls_back_bit_identical(self, monkeypatch):
        """The satellite fallback drill: numba requested on a machine
        without numba (and, here, without a C compiler either) must run
        the numpy path and produce its exact output."""
        monkeypatch.setattr(nb, "available", lambda: False)
        monkeypatch.setattr(cc, "available", lambda: False)
        rng = np.random.default_rng(11)
        x = (
            rng.standard_normal((16, 16, 16))
            + 1j * rng.standard_normal((16, 16, 16))
        ).astype(np.complex64)
        with GpuFFT3D((16, 16, 16), backend="numba", name="fb-jit") as plan:
            assert plan._plan.backend == "numpy"
            out = plan.forward(x)
        with GpuFFT3D((16, 16, 16), name="fb-ref") as plan:
            ref = plan.forward(x)
        assert np.array_equal(out, ref)

    def test_broken_import_degrades_at_compile_time(self, monkeypatch):
        """Availability said yes but the compile blew up: the plan must
        degrade to numpy at ensure_compiled, not raise."""
        plan = FiveStepPlan((16, 16, 16), precision="single", backend="numpy")
        # Force a compiled backend past resolution, then make it explode.
        plan.backend = "numba"

        def boom(*a, **k):
            raise ImportError("numba import failed mid-flight")

        monkeypatch.setattr(jit, "compile_plan", boom)
        wall = plan.ensure_compiled()
        assert wall == 0.0
        assert plan.backend == "numpy"
        x = np.ones((16, 16, 16), np.complex64)
        out = plan.execute(x)
        assert out.shape == x.shape

    def test_requested_vs_resolved_recorded(self):
        plan = FiveStepPlan((512, 512, 512), precision="single", backend="auto")
        assert plan.backend_requested == "auto"
        assert plan.backend == "numpy"


@pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH")
class TestCjitLibrary:
    def test_library_is_a_process_singleton(self):
        a = cc.load_library()
        b = cc.load_library()
        assert a is b

    def test_kernels_cover_every_radix_and_size(self):
        from repro.jit import emit

        lib = cc.load_library()
        for rdt in ("float32", "float64"):
            kernels = lib.kernels(rdt)
            assert set(kernels["multirow_a"]) == set(emit.CODELET_RADICES)
            assert set(kernels["multirow_b"]) == set(emit.CODELET_RADICES)
            assert set(kernels["step5"]) == set(emit.STEP5_SIZES)

    def test_cmul_modes_are_probed(self):
        modes = cc.cmul_modes()
        assert set(modes) == {"float", "double"}
        assert all(m in ("naive", "fma") for m in modes.values())


class TestCompileObservability:
    def test_observer_add_remove_roundtrip(self):
        events = []
        handle = jit.add_compile_observer(
            lambda backend, seconds: events.append((backend, seconds))
        )
        jit._notify_compile("cjit", 0.5)
        jit.remove_compile_observer(handle)
        jit._notify_compile("cjit", 0.7)
        assert events == [("cjit", 0.5)]

    @pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH")
    def test_compile_plan_reports_wall_time(self):
        compiled, wall = jit.compile_plan(
            "cjit", (16, 16, 16), "single", 4, 4, 4, 4
        )
        assert wall >= 0.0
        assert compiled.shape == (16, 16, 16)

    @pytest.mark.skipif(not cc.available(), reason="no C compiler on PATH")
    def test_jit_metrics_reach_profiler(self):
        from repro.core.plan_cache import PLAN_CACHE
        from repro.obs.profiler import Profiler

        PLAN_CACHE.clear()
        x = np.ones((16, 16, 16), np.complex64)
        with Profiler() as prof:
            with GpuFFT3D((16, 16, 16), backend="cjit", name="obs-jit") as plan:
                plan.forward(x)
            counters = prof.snapshot()["counters"]
        labeled = [
            k
            for k in counters
            if k.startswith("plan_cache.misses{")
            and "kind=jit" in k
            and "backend=cjit" in k
        ]
        assert labeled, sorted(counters)
        compiles = [
            k
            for k in counters
            if k.startswith("plan_cache.compiles{") and "backend=cjit" in k
        ]
        assert compiles, sorted(counters)
        PLAN_CACHE.clear()

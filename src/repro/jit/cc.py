"""Self-hosted C backend: runtime compilation, caching and binding.

The ``numba`` package cannot be assumed present (the whole point of the
backend registry is clean degradation), but a C toolchain usually can —
every manylinux build box, CI runner and HPC login node ships one.  This
module turns the emitted kernel source (:func:`repro.jit.emit.c_module`)
into a loadable shared library:

1. **Probe** the running NumPy's complex-multiply semantics.  NumPy's
   SIMD complex product contracts to FMA form on FMA hardware; a tiny
   probe library computes both candidate forms and the emitter is told
   which one NumPy actually used, so the main kernels reproduce the
   reference bit-for-bit where the hardware allows (DESIGN.md §18).
2. **Compile** once per distinct source text: the library lands in a
   content-addressed on-disk cache (``$REPRO_JIT_CACHE`` or a per-user
   tmp directory), so later processes just ``dlopen`` — warm-up cost is
   paid once per machine, not once per process.
3. **Bind** via :mod:`ctypes` with ``ndpointer`` signatures.  ``ctypes``
   releases the GIL for the duration of every call, which is what gives
   ``FFTServer(n_workers>1)`` real parallel compute on the compiled path.

Everything here degrades to ``None``/``False`` rather than raising when
no compiler exists; the registry then resolves plans back to NumPy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.jit import emit

__all__ = ["available", "cache_dir", "cmul_modes", "load_library", "CJitLibrary"]

_lock = threading.Lock()
_compiler: list[str] | None | bool = False  # False = not probed yet
_probe_lib: ctypes.CDLL | None | bool = False
_modes: dict[str, str] | None = None
_library: "CJitLibrary | None" = None
_compile_seconds: float = 0.0

_PROBE_SRC = """\
#include <math.h>
void probe_f(const float* a, const float* b, float* fma_out,
             float* naive_out, long n) {
    for (long i = 0; i < n; i++) {
        const float ar = a[2*i], ai = a[2*i+1];
        const float br = b[2*i], bi = b[2*i+1];
        fma_out[2*i]     = fmaf(ar, br, -(ai * bi));
        fma_out[2*i+1]   = fmaf(ar, bi, ai * br);
        naive_out[2*i]   = ar * br - ai * bi;
        naive_out[2*i+1] = ar * bi + ai * br;
    }
}
void probe_d(const double* a, const double* b, double* fma_out,
             double* naive_out, long n) {
    for (long i = 0; i < n; i++) {
        const double ar = a[2*i], ai = a[2*i+1];
        const double br = b[2*i], bi = b[2*i+1];
        fma_out[2*i]     = fma(ar, br, -(ai * bi));
        fma_out[2*i+1]   = fma(ar, bi, ai * br);
        naive_out[2*i]   = ar * br - ai * bi;
        naive_out[2*i+1] = ar * bi + ai * br;
    }
}
"""


def cache_dir() -> Path:
    """The on-disk library cache (``$REPRO_JIT_CACHE`` overrides)."""
    env = os.environ.get("REPRO_JIT_CACHE")
    if env:
        return Path(env)
    uid = os.getuid() if hasattr(os, "getuid") else "u"
    return Path(tempfile.gettempdir()) / f"repro-jit-{uid}"


def _find_compiler() -> list[str] | None:
    global _compiler
    with _lock:
        if _compiler is not False:
            return _compiler
    found = None
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            found = [path]
            break
    with _lock:
        _compiler = found
    return found


def _build(source: str, tag: str) -> ctypes.CDLL:
    """Compile ``source`` (cached by content hash) and load it.

    A cached library that no longer loads (truncated or clobbered on
    disk) is deleted and rebuilt once; otherwise one bad file would
    disable the backend in every later process.
    """
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler on PATH")
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    cdir = cache_dir()
    cdir.mkdir(parents=True, exist_ok=True)
    so_path = cdir / f"{tag}-{digest}.so"
    if so_path.exists():
        try:
            return ctypes.CDLL(str(so_path))
        except OSError:
            so_path.unlink(missing_ok=True)
    c_path = cdir / f"{tag}-{digest}.c"
    c_path.write_text(source)
    tmp = cdir / f"{tag}-{digest}.{os.getpid()}.so.tmp"
    flags = ["-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno"]
    base = ["-fPIC", "-shared", str(c_path), "-o", str(tmp), "-lm"]
    result = subprocess.run(compiler + flags + base, capture_output=True, text=True)
    if result.returncode != 0:
        # -march=native is a best-effort vectorization hint; some
        # toolchains (older cross compilers) reject it.
        result = subprocess.run(
            compiler + flags[:1] + flags[2:] + base,
            capture_output=True,
            text=True,
        )
    if result.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise RuntimeError(f"cjit compile failed: {result.stderr[:2000]}")
    os.replace(tmp, so_path)  # atomic: concurrent builders converge
    return ctypes.CDLL(str(so_path))


def _probe_library() -> ctypes.CDLL | None:
    global _probe_lib
    with _lock:
        if _probe_lib is not False:
            return _probe_lib
    try:
        lib = _build(_PROBE_SRC, "probe")
        for name, rdt in (("probe_f", np.float32), ("probe_d", np.float64)):
            ptr = np.ctypeslib.ndpointer(rdt, flags="C_CONTIGUOUS")
            getattr(lib, name).argtypes = [ptr, ptr, ptr, ptr, ctypes.c_long]
            getattr(lib, name).restype = None
    except Exception:
        lib = None
    with _lock:
        _probe_lib = lib
    return lib


def available() -> bool:
    """True when a working C toolchain compiled and loaded the probe."""
    return _probe_library() is not None


def cmul_modes() -> dict[str, str]:
    """NumPy's complex-multiply form per scalar type: ``"fma"``/``"naive"``.

    Compares NumPy's own complex product against both candidate forms
    computed by the probe library; the form that reproduces NumPy
    *bitwise* on every sample wins (``"naive"`` when neither does — the
    emitted kernels are then ulp-bounded rather than bit-identical).
    """
    global _modes
    with _lock:
        if _modes is not None:
            return _modes
    lib = _probe_library()
    modes: dict[str, str] = {}
    rng = np.random.default_rng(20080815)
    for key, cdt, rdt, fn in (
        ("float", np.complex64, np.float32, "probe_f"),
        ("double", np.complex128, np.float64, "probe_d"),
    ):
        if lib is None:
            modes[key] = "naive"
            continue
        n = 4096
        a = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(cdt)
        b = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(cdt)
        ref = (a * b).view(rdt)
        fma_out = np.empty(2 * n, rdt)
        naive_out = np.empty(2 * n, rdt)
        getattr(lib, fn)(a.view(rdt), b.view(rdt), fma_out, naive_out, n)
        if np.array_equal(fma_out, ref):
            modes[key] = "fma"
        elif np.array_equal(naive_out, ref):
            modes[key] = "naive"
        else:
            modes[key] = "naive"
    with _lock:
        _modes = modes
    return modes


class CJitLibrary:
    """The bound kernel set: per-dtype multirow / step-5 entry points.

    Attributes are dicts keyed like the generated Python module's lookup
    tables — ``multirow_a[radix]``, ``multirow_b[radix]``, ``step5[nx]``
    — resolved per real dtype via :meth:`kernels`.
    """

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        self._kernels: dict[str, dict[str, dict[int, object]]] = {}
        for suffix, rdt, scalar in (
            ("f", np.float32, ctypes.c_float),
            ("d", np.float64, ctypes.c_double),
        ):
            ptr = np.ctypeslib.ndpointer(rdt, flags="C_CONTIGUOUS")
            mr_a: dict[int, object] = {}
            mr_b: dict[int, object] = {}
            s5: dict[int, object] = {}
            for radix in emit.CODELET_RADICES:
                fa = getattr(lib, f"mr_a_{radix}_{suffix}")
                fa.argtypes = [ptr, ptr, ptr, ptr] + [ctypes.c_long] * 4 + [scalar]
                fa.restype = None
                mr_a[radix] = fa
                fb = getattr(lib, f"mr_b_{radix}_{suffix}")
                fb.argtypes = [ptr, ptr, ptr] + [ctypes.c_long] * 4 + [scalar]
                fb.restype = None
                mr_b[radix] = fb
            for nx in emit.STEP5_SIZES:
                fs = getattr(lib, f"s5_{nx}_{suffix}")
                fs.argtypes = [ptr, ptr, ptr, ctypes.c_long, scalar]
                fs.restype = None
                s5[nx] = fs
            self._kernels[suffix] = {
                "multirow_a": mr_a,
                "multirow_b": mr_b,
                "step5": s5,
            }

    def kernels(self, real_dtype) -> dict[str, dict[int, object]]:
        """The kernel tables for ``real_dtype`` (float32/float64)."""
        suffix = "f" if np.dtype(real_dtype) == np.float32 else "d"
        return self._kernels[suffix]


def load_library() -> CJitLibrary:
    """The process-wide compiled kernel library (built on first use).

    Raises ``RuntimeError`` when no toolchain is available — callers are
    expected to have consulted :func:`available` at backend resolution.
    """
    global _library, _compile_seconds
    with _lock:
        if _library is not None:
            return _library
    import time

    t0 = time.perf_counter()
    modes = cmul_modes()
    lib = _build(emit.c_module(modes["float"], modes["double"]), "kernels")
    built = CJitLibrary(lib)
    wall = time.perf_counter() - t0
    with _lock:
        if _library is None:
            _library = built
            _compile_seconds = wall
    return _library


def last_compile_seconds() -> float:
    """Wall seconds :func:`load_library` spent building (0 before/cached)."""
    with _lock:
        return _compile_seconds

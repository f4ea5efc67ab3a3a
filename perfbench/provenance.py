"""Where a result was measured: machine, library versions, thread counts, revision.

Everything here is read, never set: run.py sets the BLAS thread count
through the environment of the processes it starts, and this module
records the counts those processes actually run with.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    """Sizes of the unified and data caches of cpu0, by level."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        kind = _read(str(index / "type"))
        if kind in ("Unified", "Data"):
            out[f"L{_read(str(index / 'level'))}"] = _read(str(index / "size"))
    return out


_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS copy loaded in this process."""
    paths = (line.split()[-1] for line in (_read("/proc/self/maps") or "").splitlines())
    libs = {p for p in paths if "openblas" in p.lower() and ".so" in p}
    out = {}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in _GETTERS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def machine() -> dict:
    """Provenance of the running process; call it after the work is done."""
    import numpy as np
    import scipy
    import scipy.fft

    status = _read("/proc/self/status") or ""
    threads = next((int(l.split()[1]) for l in status.splitlines()
                    if l.startswith("Threads:")), None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "fft_workers": scipy.fft.get_workers(),
        "os_threads": threads,
    }


def revision(root: Path) -> dict:
    """Git revision of ``root`` and whether the measured program differs from it.

    ``dirty`` covers ``src`` and ``pyproject.toml``, the code under test.
    Outside a git checkout both fields are None.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, env=env, text=True,
                              capture_output=True, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root.resolve():
            return {"revision": None, "dirty": None}
        rev = git("rev-parse", "HEAD").stdout.strip()
        status = git("status", "--porcelain", "--", "src", "pyproject.toml").stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"revision": None, "dirty": None}
    return {"revision": rev or None, "dirty": bool(status.strip())}

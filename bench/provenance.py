"""Where a run's figures came from: machine, libraries, code and seed."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf8") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def _blas_threads(np) -> str:
    """Thread count reported by the OpenBLAS numpy loaded, else the env value."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def provenance(root: str, seed: int) -> dict:
    import numpy as np
    import scipy

    info = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads(np)
    models = [line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
              if line.startswith("model name")]
    info["cpu_model"] = models[0] if models else platform.processor() or "unknown"
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = _read(f"{base}/level")
        if not level:
            break
        suffix = {"Data": "d", "Instruction": "i"}.get(_read(f"{base}/type"), "")
        caches[f"L{level}{suffix}"] = _read(f"{base}/size")
    info["cpu_caches"] = caches
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
        info["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        info["git_sha"] = "unknown (git unavailable)"
    # identifies the code where the checkout is not a git repository
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "quadlik")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    info["source_sha256"] = digest.hexdigest()
    return info

"""Environment record kept next to every set of numbers.

Everything here is read-only: CPU model and cache sizes come from ``lscpu``
or sysfs, and nothing is pinned or re-clocked. Pinning and frequency control
are recorded as not applied, so numbers are as measured on a shared machine.
"""
from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys


def blas_threads_in_effect() -> int | None:
    """Thread count reported by the OpenBLAS library numpy actually loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads")
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def numpy_info() -> dict:
    """numpy version, BLAS/LAPACK build and the BLAS threads in effect."""
    import numpy as np

    info: dict = {"numpy": np.__version__, "blas_threads_in_effect": blas_threads_in_effect()}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["blas"] = deps.get("blas")
        info["lapack"] = deps.get("lapack")
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        info["blas"] = info["lapack"] = None
    return info


def _lscpu() -> dict[str, str]:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10, check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_ticks` readings; it explains slow runs on a shared host."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def system_info(blas_threads: int) -> dict:
    """Machine facts: CPU model, caches, core counts and what was not controlled."""
    cpu = _lscpu()
    governor = _read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu.get("Model name"),
        "l2_cache": cpu.get("L2 cache") or _read("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "l3_cache": cpu.get("L3 cache") or _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "blas_threads_set": blas_threads,
        "cpu_pinning": "not applied (processes run on the inherited affinity mask)",
        "frequency_control": governor if governor else "unavailable (no cpufreq interface)",
    }

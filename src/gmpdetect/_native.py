"""One compiled loop for the sum-node step of the variance schedule.

``sum_node_block`` forms ``A = H / (c - (H o H) vv)`` for a block of rows of
``H`` in one pass, where numpy needs four (square, scale, subtract,
divide). It computes each entry by the statements numpy runs, in the same
order: ``h*h``, times ``vv[k]``, subtracted from ``c[i]``, divided into
``h``. Compiled without contraction or fast-math, every operation is one
correctly rounded IEEE operation, so ``A`` is numpy's bit for bit. The
sums, whose order fixes their bits, stay with the callers in BLAS and
numpy.

The library is compiled by ``cc`` on the first call to :func:`load`, never
at import, and cached in the package's bytecode directory under a hash of
the source, the compiler command and the platform. :func:`load` returns
None, and the callers run their numpy statements, when there is no ``cc``
or the build or load fails.
"""
from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import shutil
import tempfile

# subprocess and hashlib are imported where they are used: only a process
# that steps a variance schedule needs them.

_SOURCE = r"""
#include <stddef.h>

void sum_node_block(const double *restrict H, const double *restrict c,
                    const double *restrict vv, double *restrict A,
                    ptrdiff_t n, ptrdiff_t K)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        const double *h = H + i * K;
        double *a = A + i * K;
        for (ptrdiff_t k = 0; k < K; k++) {
            double t = h[k] * h[k];
            t = t * vv[k];
            t = c[i] - t;
            a[k] = h[k] / t;
        }
    }
}
"""
# Baseline -O3 vectorizes the loop (-O2 does not); no -march, so the
# library runs on any machine of the platform.
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")


@functools.cache
def load():
    """The compiled ``sum_node_block(H, c, vv, A, n, K)``, or None.

    The arguments are the integer addresses of the first row of a
    C-contiguous float64 block of ``H`` (n, K), of its ``c`` (n,), of ``vv``
    (K,) and of the output block ``A`` (n, K), then ``n`` and ``K``. None
    when ``cc`` is not on PATH or the library does not build or load.
    Built at most once per process.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    import subprocess

    try:
        library = _open(cc)
    except (OSError, subprocess.SubprocessError):
        return None
    kernel = library.sum_node_block
    kernel.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_ssize_t] * 2
    kernel.restype = None
    return kernel


def _open(cc: str) -> ctypes.CDLL:
    """Load the library ``cc`` builds from ``_SOURCE``, building it into the
    bytecode directory first if it is not there.

    The build writes a temporary name and moves it into place, so a
    concurrent process sees no partial file. Where that directory cannot be
    written, the library is built in a private temporary directory, loaded
    and removed with it.
    """
    import hashlib

    command = [cc, *_FLAGS, "-x", "c", "-", "-o"]
    platform = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = hashlib.sha256("\0".join([_SOURCE, *command, platform]).encode()).hexdigest()
    directory = os.path.dirname(importlib.util.cache_from_source(__file__))
    path = os.path.join(directory, f"_native-{key[:16]}.so")
    if os.path.exists(path):
        return ctypes.CDLL(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, temporary = tempfile.mkstemp(prefix="_native-", suffix=".so", dir=directory)
    except OSError:
        with tempfile.TemporaryDirectory() as private:
            temporary = os.path.join(private, "_native.so")
            _compile(command, temporary)
            return ctypes.CDLL(temporary)
    os.close(fd)
    try:
        _compile(command, temporary)
        os.chmod(temporary, 0o755)  # mkstemp's 0600 would hide it from other users
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
    return ctypes.CDLL(path)


def _compile(command: list[str], output: str) -> None:
    import subprocess

    subprocess.run(
        [*command, output], input=_SOURCE, text=True, capture_output=True,
        check=True, timeout=120,
    )

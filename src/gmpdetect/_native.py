"""Compiled loops for the element-wise passes of the variance schedule.

``sum_node_block`` forms ``A = H / (c - (H o H) vv)`` for a block of rows of
``H`` in one pass, where numpy needs four (square, scale, subtract,
divide). It computes each entry by the statements numpy runs, in the same
order: ``h*h``, times ``vv[k]``, subtracted from ``c[i]``, divided into
``h``. ``sum_node_sweep`` is the same loop that also adds each entry's
``h*a`` into a per-block row ``u``, row after row: the order in which
``np.einsum("mk,mk->k", H, A)`` sums at K >= 2 (at K = 1 einsum sums in
another order, so the sweep keeps einsum there). ``square`` writes
``h*h`` for a block, which the sweep's ``c`` gemv reads. Compiled without
contraction or fast-math, every operation is one correctly rounded IEEE
operation, so ``A``, ``u`` and the square are numpy's bit for bit. The
sums whose order C cannot reproduce (the BLAS gemv behind ``c`` and
``A^T r``) stay with the callers.

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

void sum_node_sweep(const double *restrict H, const double *restrict c,
                    const double *restrict vv, double *restrict A,
                    double *restrict u, ptrdiff_t n, ptrdiff_t K)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        const double *h = H + i * K;
        double *a = A + i * K;
        for (ptrdiff_t k = 0; k < K; k++) {
            double t = h[k] * h[k];
            t = t * vv[k];
            t = c[i] - t;
            a[k] = h[k] / t;
            t = h[k] * a[k];
            u[k] = u[k] + t;
        }
    }
}

void square(const double *restrict H, double *restrict out, ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++)
        out[i] = H[i] * H[i];
}
"""
# Baseline -O3 vectorizes the loops (-O2 does not); no -march, so the
# library runs on any machine of the platform.
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")


@functools.cache
def load():
    """The compiled library, or None.

    Its functions take the integer addresses of C-contiguous float64
    arrays, then their sizes:

    - ``sum_node_block(H, c, vv, A, n, K)``: the first row of a block of
      ``H`` (n, K), its ``c`` (n,), ``vv`` (K,) and the output block ``A``
      (n, K);
    - ``sum_node_sweep(H, c, vv, A, u, n, K)``: the same, adding into the
      row ``u`` (K,);
    - ``square(H, out, n)``: ``out[i] = H[i] * H[i]`` for ``n`` entries.

    None when ``cc`` is not on PATH or the library does not build or load.
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
    address, size = ctypes.c_void_p, ctypes.c_ssize_t
    for name, argtypes in (
        ("sum_node_block", [address] * 4 + [size] * 2),
        ("sum_node_sweep", [address] * 5 + [size] * 2),
        ("square", [address] * 2 + [size]),
    ):
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = None
    return library


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

"""BLAS thread policy of the command line.

Every move scores a GP likelihood: it builds a covariance of a few
hundred rows and factors it, between Python steps. At that size
handing part of each factorization or solve to a second OpenBLAS
thread costs more than the work it shares, so the command line runs
each task with every loaded OpenBLAS pool on one thread. Users who set
one of the variables OpenBLAS reads itself keep their choice.

`python -m covsearch` and the installed `covsearch` command apply that
rule before numpy loads (`__main__.main` sets `OPENBLAS_NUM_THREADS=1`
when none of `THREAD_VARS` is set), so OpenBLAS starts no idle worker
to spin. `single_blas_thread` applies it to the pools already loaded
when other Python code calls `cli.main`.

The thread count is part of the determinism contract: OpenBLAS splits
its sums differently on more threads, which moves results in the last
digits.

The same library serves the Cholesky solves and the inverse the
gradient needs (`lapack_solvers`), so a command-line process loads numpy
and its one OpenBLAS pool, and no second numerical stack. Where no
LAPACK can be bound, `gp` solves through `numpy.linalg` instead.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import Callable, Iterator

# The variables OpenBLAS reads when it loads; a non-empty one is the
# user's choice and leaves the pools alone.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Getter and setter names, tried in order: the scipy-openblas builds
# numpy (64-bit integers) and scipy ship, then a plain OpenBLAS.
_CONTROLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


# The integer the bound LAPACK takes. Only numpy's scipy-openblas names
# (`scipy_dpotrs_64_`) are bound, as they say the width: a plain
# `dpotrs_` may take 32- or 64-bit integers.
LAPACK_INT = ctypes.c_int64


def _openblas_libraries() -> list[ctypes.CDLL]:
    """Each OpenBLAS library mapped into this process (Linux), opened."""
    try:
        with open("/proc/self/maps") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
            paths.add(fields[5])
    libraries = []
    for path in sorted(paths):
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            pass
    return libraries


def openblas_pools() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) thread-count controls of each OpenBLAS loaded here."""
    pools = []
    for lib in _openblas_libraries():
        for pattern in _CONTROLS:
            get = getattr(lib, pattern.format("get"), None)
            put = getattr(lib, pattern.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return pools


def lapack_solvers() -> tuple[Callable, Callable, Callable] | None:
    """LAPACK `dpotrs`, `dtrtrs` and `dpotri` of a loaded OpenBLAS, or None.

    All three take their arguments the Fortran way: characters and
    integers (`LAPACK_INT`) by reference, arrays as addresses, then one
    hidden length per character argument.
    """
    ref, address, char, length = (
        ctypes.POINTER(LAPACK_INT), ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
    )
    for lib in _openblas_libraries():
        potrs = getattr(lib, "scipy_dpotrs_64_", None)
        trtrs = getattr(lib, "scipy_dtrtrs_64_", None)
        potri = getattr(lib, "scipy_dpotri_64_", None)
        if potrs is None or trtrs is None or potri is None:
            continue
        # dpotrs(uplo, n, nrhs, a, lda, b, ldb, info)
        potrs.argtypes = [char, ref, ref, address, ref, address, ref, ref, length]
        # dtrtrs(uplo, trans, diag, n, nrhs, a, lda, b, ldb, info)
        trtrs.argtypes = [char, char, char, ref, ref, address, ref, address, ref, ref,
                          length, length, length]
        # dpotri(uplo, n, a, lda, info)
        potri.argtypes = [char, ref, address, ref, ref, length]
        potrs.restype = trtrs.restype = potri.restype = None
        return potrs, trtrs, potri
    return None


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the block with every loaded OpenBLAS pool on one thread.

    The previous counts come back on exit. Nothing changes when one of
    `THREAD_VARS` is set or no OpenBLAS is loaded.
    """
    if any(os.environ.get(var) for var in THREAD_VARS):
        yield
        return
    pools = openblas_pools()
    previous = [get() for get, _ in pools]
    for _, put in pools:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(pools, previous):
            put(count)

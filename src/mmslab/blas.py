"""OpenBLAS thread counts: two primitives, `runtimes` and `threads`.

numpy and scipy each load their own OpenBLAS runtime: numpy's
``libscipy_openblas64_-*.so`` and scipy's ``libscipy_openblas-*.so``, which
ARPACK and SuperLU call; a system build exports the plain ``openblas_*``
names.  After every call that OpenBLAS splits over threads, the idle worker
busy-waits for about 0.13 s before it sleeps (a 0.3 s sleep after one
300 x 300 GEMM on two threads burns 0.13 s of CPU, on one thread 0.002 s).

`runtimes` lists the runtimes mapped into the process, and `threads` sets
every one of them for the length of a ``with`` block and restores the
previous counts on exit.  `threads(1)` is the only way the package changes
a count, and four kinds of caller open it: `cli.run_config` around a whole
task, the heat layer around a build's eigendecompositions, around each
pass of a sweep over its column blocks (`heat.HeatOperator.apply_grid` and
`_chebyshev_sweep`) and around a time's factor kernel tables
(`_factor_kernels`), `elliptic.solve` around either solver, and the two
places that call scipy's sparse solvers (ARPACK and SuperLU), after
importing them.  scipy's runtime is mapped only by that import, and
`runtimes` reads the maps again after any import, so a scope opened after
it finds scipy's runtime too.  A nested scope sets and restores the same
counts, and every scope closes before the call that opened it returns or
yields.  Nothing here runs at import, and no environment variable is read
or written.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys
from typing import Callable, NamedTuple

# (getter, setter) per build: numpy's 64-bit-integer scipy-openblas,
# scipy's 32-bit one, a system OpenBLAS
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


class Runtime(NamedTuple):
    library: str                    # file name of the shared library
    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _runtime(path: str):
    """The Runtime of the mapped library at `path`; None when it exports no
    thread-count pair."""
    lib = ctypes.CDLL(path)             # already mapped: only a new handle
    for get, set_ in _SYMBOLS:
        if hasattr(lib, get) and hasattr(lib, set_):
            getter, setter = getattr(lib, get), getattr(lib, set_)
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return Runtime(os.path.basename(path), getter, setter)
    return None


_mapped = (-1, ())      # (len(sys.modules) at the last read, its runtimes)


def runtimes() -> tuple:
    """The OpenBLAS runtimes mapped into this process, one per library file.

    Read from /proc/self/maps (none where that file does not exist).  The
    read takes about 0.5 ms, so it is repeated only after a module has been
    imported since the last one: a library is mapped by an import.
    """
    global _mapped
    if _mapped[0] != len(sys.modules):
        try:
            with open("/proc/self/maps") as fh:
                maps = fh.read()
        except OSError:
            maps = ""
        # a line is: address, perms, offset, device, inode, path
        paths = sorted({line.split(None, 5)[5] for line in maps.splitlines()
                        if "openblas" in os.path.basename(line)})
        found = (_runtime(path) for path in paths)
        _mapped = (len(sys.modules), tuple(rt for rt in found if rt is not None))
    return _mapped[1]


@contextlib.contextmanager
def threads(count: int):
    """Every runtime found at `count` threads; the previous counts come back
    on exit, also on an exception.  Yields [(runtime, previous count)],
    empty when none is found."""
    found = [(rt, rt.get()) for rt in runtimes()]
    for rt, _ in found:
        rt.set(count)
    try:
        yield found
    finally:
        for rt, n in found:
            rt.set(n)


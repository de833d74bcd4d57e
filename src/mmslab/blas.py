"""OpenBLAS thread counts: the BLAS threads of a task, and where they pay.

numpy and scipy each load their own OpenBLAS runtime: numpy's
``libscipy_openblas64_-*.so`` and scipy's ``libscipy_openblas-*.so``, which
ARPACK and SuperLU call; a system build exports the plain ``openblas_*``
names.  After every call that OpenBLAS splits over threads, the idle worker
busy-waits for about 0.13 s before it sleeps (a 0.3 s sleep after one
300 x 300 GEMM on two threads burns 0.13 s of CPU, on one thread 0.002 s).

`threads` sets every runtime found in the process and restores the previous
counts on exit.  `task` is the scope `cli.run_config` runs a task in: one
thread, and the counts it found kept, so that `spectral`, the scope of the
heat layer's eigendecompositions and BLAS sweeps, steps back out to them.
Outside a task `spectral` changes nothing.  Nothing here runs at import,
and no environment variable is read or written.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
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
def runtimes() -> tuple:
    """The OpenBLAS runtimes mapped into this process, one per library file.

    Read from /proc/self/maps (none where that file does not exist) once, at
    the first call, since the read takes about 0.5 ms: importing the package
    maps numpy's and scipy's runtimes, so one mapped later is none it calls.
    """
    try:
        with open("/proc/self/maps") as fh:
            maps = fh.read()
    except OSError:
        return ()
    # a line is: address, perms, offset, device, inode, path
    paths = sorted({line.split(None, 5)[5] for line in maps.splitlines()
                    if "openblas" in os.path.basename(line)})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)         # already mapped: only a new handle
        for get, set_ in _SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                getter, setter = getattr(lib, get), getattr(lib, set_)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                found.append(Runtime(os.path.basename(path), getter, setter))
                break
    return tuple(found)


@contextlib.contextmanager
def threads(count: int):
    """Every runtime found at `count` threads; the previous counts come back
    on exit.  Yields [(runtime, previous count)], empty when none is found."""
    found = [(rt, rt.get()) for rt in runtimes()]
    for rt, _ in found:
        rt.set(count)
    try:
        yield found
    finally:
        for rt, n in found:
            rt.set(n)


class _Task:
    def __init__(self, found):
        self.found = found          # [(runtime, count found)]
        self.depth = 0              # spectral scopes open
        self.lock = threading.Lock()


# the task scope open in this process: OpenBLAS counts are process-wide
_current = None


@contextlib.contextmanager
def task():
    """One task: every runtime on one thread, back to its count on exit.

    Yields the report entry: per runtime, its library file, the count it
    started at, the count the task runs at and the count of `spectral`.
    """
    global _current
    outer = _current
    with threads(1) as found:
        _current = _Task(found)
        try:
            yield [{"library": rt.library, "start": n, "task": 1, "spectral": n}
                   for rt, n in found]
        finally:
            _current = outer


@contextlib.contextmanager
def spectral():
    """Inside a task, every runtime back at the count the task found; the
    first scope open raises the counts and the last one to close lowers them
    again, so scopes may close in any order.  Outside a task, nothing."""
    scope = _current
    if scope is None:
        yield
        return
    with scope.lock:
        if scope.depth == 0:
            for rt, n in scope.found:
                rt.set(n)
        scope.depth += 1
    try:
        yield
    finally:
        with scope.lock:
            scope.depth -= 1
            if scope.depth == 0 and _current is scope:
                for rt, _ in scope.found:
                    rt.set(1)

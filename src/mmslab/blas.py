"""OpenBLAS thread counts: one BLAS thread for the whole of a task.

numpy and scipy each load their own OpenBLAS runtime: numpy's
``libscipy_openblas64_-*.so`` and scipy's ``libscipy_openblas-*.so``, which
ARPACK and SuperLU call; a system build exports the plain ``openblas_*``
names.  After every call that OpenBLAS splits over threads, the idle worker
busy-waits for about 0.13 s before it sleeps (a 0.3 s sleep after one
300 x 300 GEMM on two threads burns 0.13 s of CPU, on one thread 0.002 s).

`threads` sets every runtime found in the process and restores the previous
counts on exit.  `task` is the scope `cli.run_config` runs a task in: every
runtime on one thread for the whole task, and the counts it found kept.
Heat work is split by the heat layer itself, over blocks that its own
worker threads share (`one_thread` tells it when it may): the sweeps' column
blocks and the two factor eigendecompositions of a heat build.
scipy's runtime is mapped only when the package first imports scipy's
sparse solvers, at call time and perhaps inside a task; `adopt`, called
where ARPACK and SuperLU run, brings it into the open task.  Nothing here
runs at import, and no environment variable is read or written.
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
    on exit.  Yields [(runtime, previous count)], empty when none is found;
    every pair in it on exit is restored, those `adopt` appends included."""
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
        self.found = found          # [(runtime, count found)], restored by `threads`
        self.entry = [_entry(rt, n) for rt, n in found]


def _entry(rt: Runtime, n: int) -> dict:
    return {"library": rt.library, "start": n, "task": 1}


# the task scope open in this process: OpenBLAS counts are process-wide
_current = None


@contextlib.contextmanager
def task():
    """One task: every runtime on one thread, back to its count on exit.

    Yields the report entry: per runtime, its library file, the count it
    started at and the count the task runs at.
    """
    global _current
    outer = _current
    with threads(1) as found:
        scope = _current = _Task(found)
        try:
            yield scope.entry
        finally:
            _current = outer


def one_thread() -> bool:
    """Whether an open task holds the runtimes it found on one thread, so
    that callers may split BLAS work over their own threads."""
    return _current is not None and bool(_current.found)


def adopt():
    """Runtimes mapped since the open task began join it: on one thread,
    back to the count they were found at when the task ends, and in its
    report entry.  Outside a task, nothing."""
    scope = _current
    if scope is None:
        return
    known = {rt.library for rt, _ in scope.found}
    for rt in runtimes():
        if rt.library not in known:
            n = rt.get()
            scope.found.append((rt, n))
            scope.entry.append(_entry(rt, n))
            rt.set(1)

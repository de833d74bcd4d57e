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
It does so only when the scope's largest call is `PARALLEL_WORK` = 2^25
multiply-adds or more; a smaller scope, and any scope outside a task,
changes nothing.  scipy's runtime is mapped only when the package first
imports scipy's sparse solvers, at call time and perhaps inside a task;
`adopt`, called where ARPACK and SuperLU run, brings it into the open task.
Nothing here runs at import, and no environment variable is read or written.

The rule by size.  The second thread saves wall time only on large calls,
and each scope that wakes it costs the spin.  Median call times on one and
two threads (2-core Xeon shared with other jobs, numpy's OpenBLAS; three
alternating rounds of 11 calls, 5 for eigh).  A product row gives a product
action's coefficients / one time's synthesis of (nx^2, k) fields, whose
largest call is the (k nx, nx) x (nx, nx) product along y:

    call                 work    1 thread          2 threads
    product 33^2 x 16    2^19.1  0.06 / 0.10 ms    0.06 / 8.00 ms
    product 48^2 x 108   2^23.5  1.41 / 1.17 ms    1.03 / 0.96 ms
    product 65^2 x 60    2^24.0  4.07 / 4.29 ms    3.59 / 3.65 ms
    product 129^2 x 8    2^24.0  2.12 / 2.13 ms    1.44 / 1.46 ms
    product 65^2 x 120   2^25.0  4.31 / 4.06 ms    2.93 / 2.62 ms
    product 129^2 x 16   2^25.0  3.97 / 4.21 ms    3.17 / 2.80 ms
    product 129^2 x 31   2^26.0  13.81 / 13.09 ms  10.84 / 10.10 ms
    product 129^2 x 62   2^27.0  17.01 / 18.60 ms  12.43 / 11.77 ms
    eigh 129             2^21.0  2.02 ms           1.98 ms
    eigh 257             2^24.0  7.49 ms           7.40 ms
    eigh 513             2^27.0  41.33 ms          32.19 ms
    GEMM 1089^2 x 8      2^23.2  1.38 ms           0.87 ms
    GEMM 2401^2 x 6      2^25.0  8.19 ms           4.69 ms
    GEMM 2401^2 x 60     2^28.4  24.79 ms          12.52 ms

Below 2^25 a call saves at most 0.7 ms on two threads, and some are slower
there; the spin after the scope costs about 0.13 s of CPU.  From 2^25 up
every product and GEMM measured saves 0.8 ms or more (20-50 %), and a sweep
repeats its largest call once per time.  The dense eigendecompositions
gain only from a few hundred vertices (n = 2401: 2.86 s on one thread
against 1.77 s on two).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys
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
        self.depth = 0              # raised spectral scopes open
        self.raised = 0             # spectral scopes raised so far
        self.lock = threading.Lock()


def _entry(rt: Runtime, n: int) -> dict:
    return {"library": rt.library, "start": n, "task": 1, "spectral": n, "raised": 0}


# the task scope open in this process: OpenBLAS counts are process-wide
_current = None

PARALLEL_WORK = 2 ** 25
"""Multiply-adds in a `spectral` scope's largest call from which the scope
runs at the task's starting count (the table in the module docstring)."""


@contextlib.contextmanager
def task():
    """One task: every runtime on one thread, back to its count on exit.

    Yields the report entry: per runtime, its library file, the count it
    started at, the count the task runs at, the count of `spectral` and,
    filled in on exit, how many of the task's `spectral` scopes ran at it.
    """
    global _current
    outer = _current
    with threads(1) as found:
        scope = _current = _Task(found)
        try:
            yield scope.entry
        finally:
            _current = outer
            for runtime in scope.entry:
                runtime["raised"] = scope.raised


def adopt():
    """Runtimes mapped since the open task began join it: on one thread (or
    at the count they were found at, inside a raised `spectral` scope), back
    to that count when the task ends, and in its report entry.  Outside a
    task, nothing."""
    scope = _current
    if scope is None:
        return
    with scope.lock:
        known = {rt.library for rt, _ in scope.found}
        for rt in runtimes():
            if rt.library not in known:
                n = rt.get()
                scope.found.append((rt, n))
                scope.entry.append(_entry(rt, n))
                if scope.depth == 0:
                    rt.set(1)


@contextlib.contextmanager
def spectral(work: int):
    """Inside a task, every runtime back at the count the task found, when
    `work`, the multiply-adds of the scope's largest BLAS or LAPACK call,
    reaches `PARALLEL_WORK`; the first such scope open raises the counts and
    the last one to close lowers them again, so scopes may close in any
    order.  A smaller scope, or any scope outside a task, changes nothing."""
    scope = _current
    if scope is None or work < PARALLEL_WORK:
        yield
        return
    with scope.lock:
        if scope.depth == 0:
            for rt, n in scope.found:
                rt.set(n)
        scope.depth += 1
        scope.raised += 1
    try:
        yield
    finally:
        with scope.lock:
            scope.depth -= 1
            if scope.depth == 0 and _current is scope:
                for rt, _ in scope.found:
                    rt.set(1)

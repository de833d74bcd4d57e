"""BLAS thread counts: the scopes of `mmslab.blas`, a task on one thread, an
eigendecomposition back at the count the task found when its n^3 reaches
`blas.PARALLEL_WORK`, and heat sweeps on one BLAS thread inside a task, their
column blocks dealt to the heat layer's workers."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse.linalg

from mmslab import blas, cli, elliptic, heat
from mmslab.cli import reverify_report, run_config
from mmslab.errors import ConfigError
from mmslab.heat import HeatOperator
from mmslab.space import uniform_cycle, uniform_torus, weighted_grid_2d

TORUS8 = {"family": "torus", "n1": 8, "n2": 8}
GRID8 = {"family": "grid", "dim": 2, "h": 0.125}
CURVATURE = {"space": TORUS8, "task": "curvature", "seed": 4,
             "params": {"T": 1.0, "n_random": 4}}
SOLVE = {"space": GRID8, "task": "solve",
         "params": {"problem": {"domain": {"type": "all_interior"},
                                "boundary": {"type": "affine",
                                             "coeffs": [3.0, 1.7, -0.4]}}}}
POINCARE = {"space": TORUS8, "task": "poincare",
            "params": {"R0": 4.0, "sample_count": 6}, "seed": 11}


def counts():
    return tuple(rt.get() for rt in blas.runtimes())


class FakeRuntime:
    def __init__(self, name, n):
        self.library, self.n = name, n

    def get(self):
        return self.n

    def set(self, n):
        self.n = n


@pytest.fixture
def fakes(monkeypatch):
    rts = (FakeRuntime("libopenblas-a.so", 2), FakeRuntime("libopenblas-b.so", 3))
    monkeypatch.setattr(blas, "runtimes", lambda: rts)
    return rts


def spy(monkeypatch, owner, name, seen):
    """Wrap owner.name so that every call records the thread counts."""
    inner = getattr(owner, name)

    def wrapped(*args, **kwargs):
        seen.append(counts())
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)


def test_numpy_and_scipy_runtimes_are_found():
    names = [rt.library for rt in blas.runtimes()]
    assert len(names) == len(set(names))
    # numpy's and scipy's wheels each bundle an OpenBLAS
    assert any(name.startswith("libscipy_openblas64_") for name in names)
    assert any(name.startswith("libscipy_openblas-") for name in names)


def test_threads_sets_every_real_runtime_and_restores_it():
    before = counts()
    with blas.threads(1) as found:
        assert counts() == (1,) * len(before)
        assert [n for _, n in found] == list(before)
        with blas.threads(2):
            assert counts() == (2,) * len(before)
        assert counts() == (1,) * len(before)
    assert counts() == before


def test_threads_restores_on_exit_on_error_and_when_nested(fakes):
    a, b = fakes
    with blas.threads(1) as found:
        assert (a.n, b.n) == (1, 1)
        assert [(rt.library, n) for rt, n in found] == [(a.library, 2), (b.library, 3)]
        with blas.threads(4):
            assert (a.n, b.n) == (4, 4)
        assert (a.n, b.n) == (1, 1)
    assert (a.n, b.n) == (2, 3)
    with pytest.raises(RuntimeError):
        with blas.threads(1):
            raise RuntimeError("inside")
    assert (a.n, b.n) == (2, 3)


def test_nothing_found_changes_nothing(monkeypatch):
    monkeypatch.setattr(blas, "runtimes", lambda: ())
    before = blas._current
    with blas.threads(1) as found:
        assert found == []
    with blas.task() as entry:
        assert entry == []
        with blas.spectral(blas.PARALLEL_WORK):
            pass
    assert blas._current is before
    passed, report, _ = run_config(CURVATURE)
    assert passed and report["blas"] == []


def test_a_scope_below_the_rule_leaves_one_thread(fakes):
    a, b = fakes
    below, at = blas.PARALLEL_WORK - 1, blas.PARALLEL_WORK
    with blas.task() as entry:
        assert entry == [{"library": a.library, "start": 2, "task": 1, "spectral": 2,
                          "raised": 0},
                         {"library": b.library, "start": 3, "task": 1, "spectral": 3,
                          "raised": 0}]
        assert (a.n, b.n) == (1, 1)
        with blas.spectral(below):
            assert (a.n, b.n) == (1, 1)
        # inside a raised scope: it neither raises nor lowers
        with blas.spectral(at):
            assert (a.n, b.n) == (2, 3)
            with blas.spectral(below):
                assert (a.n, b.n) == (2, 3)
            assert (a.n, b.n) == (2, 3)
        assert (a.n, b.n) == (1, 1)
        # around a raised scope: the raised one still lowers on closing
        with blas.spectral(below):
            with blas.spectral(at):
                assert (a.n, b.n) == (2, 3)
            assert (a.n, b.n) == (1, 1)
        assert (a.n, b.n) == (1, 1)
    assert [e["raised"] for e in entry] == [2, 2]
    assert (a.n, b.n) == (2, 3)


def test_a_runtime_mapped_inside_a_task_joins_it(monkeypatch):
    # scipy maps its runtime when its sparse solvers are first imported,
    # which may be inside a task
    a = FakeRuntime("libopenblas-a.so", 2)
    late, later = FakeRuntime("libopenblas-late.so", 4), FakeRuntime("libopenblas-later.so", 5)
    mapped = [a]
    monkeypatch.setattr(blas, "runtimes", lambda: tuple(mapped))
    mapped.append(late)
    blas.adopt()                    # outside a task: nothing
    assert late.n == 4
    mapped.remove(late)
    with blas.task() as entry:
        mapped.append(late)
        blas.adopt()
        blas.adopt()                # joins once
        assert (a.n, late.n) == (1, 1)
        with blas.spectral(blas.PARALLEL_WORK):
            assert (a.n, late.n) == (2, 4)
        assert (a.n, late.n) == (1, 1)
        mapped.append(later)
        blas.adopt()
        assert later.n == 1
    assert (a.n, late.n, later.n) == (2, 4, 5)
    assert entry == [{"library": rt.library, "start": n, "task": 1, "spectral": n,
                      "raised": 1} for rt, n in ((a, 2), (late, 4), (later, 5))]


def test_run_config_restores_the_counts_it_found():
    before = counts()
    passed, report, _ = run_config(CURVATURE)
    assert passed and counts() == before
    assert [(e["start"], e["task"], e["spectral"]) for e in report["blas"]] == \
        [(n, 1, n) for n in before]
    bad = dict(CURVATURE, params={"T": 1.0, "bogus": 1})
    with pytest.raises(ConfigError):
        run_config(bad)
    assert counts() == before
    with pytest.raises(ConfigError):
        run_config(dict(CURVATURE, space={"family": "torus", "n1": 0, "n2": 8}))
    assert counts() == before


def test_the_blas_entry_is_no_record(tmp_path):
    passed, report, _ = run_config(CURVATURE, out_dir=str(tmp_path))
    assert report["blas"] and all("blas" not in rec for rec in report["records"])
    assert report["config_sha256"] == cli._sha256(CURVATURE)
    assert reverify_report(str(tmp_path / "report_curvature.json"))


def test_a_large_eigendecomposition_runs_at_the_starting_count(monkeypatch):
    init, solve_spec, poincare = [], [], []
    spy(monkeypatch, heat, "laplacian_spectrum", init)
    spy(monkeypatch, elliptic, "laplacian_spectrum", solve_spec)
    spy(monkeypatch, scipy.sparse.linalg, "eigsh", poincare)
    # dense builds: 330^3 = 2^25.1 multiply-adds reaches the rule, 32^3 not
    large, small = uniform_cycle(330), uniform_cycle(32)
    assert small.n ** 3 < blas.PARALLEL_WORK <= large.n ** 3
    with blas.threads(2):
        start = counts()
        one = (1,) * len(start)
        with blas.task() as entry:
            assert HeatOperator(large).mode == HeatOperator(small).mode == "dense"
            assert counts() == one
        for config in (SOLVE, POINCARE):
            assert run_config(config)[0]
        assert counts() == start
    # each dense build decomposes one vertex and the space in one scope
    assert init == [start, start, one, one]
    assert [e["raised"] for e in entry] == [1] * len(start)
    assert solve_spec and poincare
    assert set(solve_spec) == set(poincare) == {one}


@pytest.mark.parametrize("make", [lambda: uniform_torus(8, 8), lambda: uniform_cycle(32)],
                         ids=["product", "dense"])
def test_a_sweep_inside_a_task_runs_on_one_thread(make, monkeypatch):
    # even with every eigendecomposition raised, the sweeps stay on one thread
    monkeypatch.setattr(blas, "PARALLEL_WORK", 0)
    seen = []
    spy(monkeypatch, HeatOperator, "_synthesize", seen)
    X = make()
    F = np.random.default_rng(0).standard_normal((X.n, 3))
    with blas.threads(2):
        with blas.task() as entry:
            H = HeatOperator(X)
            one = counts()
            assert one == (1,) * len(one)
            H.apply_batch(F, 0.5)           # closes its sweep after one time
            H.kernel(0.5, [0, 3])
            # a kernel column is a spectral sweep of its delta field
            for sweep in (H.apply_grid(F, [0.1, 0.2]), H.kernel_grid(1, [0.1, 0.2]),
                          H.kernel_grid([0, 5], [0.1, 0.2, 0.4])):
                next(sweep)
                assert counts() == one
                sweep.close()
                assert counts() == one
            for _ in H.apply_grid(F, [0.1, 0.2, 0.4]):
                assert counts() == one
    assert seen and set(seen) == {one}
    assert [e["raised"] for e in entry] == [1] * len(one)


def test_outside_a_task_a_heat_sweep_keeps_the_callers_count(monkeypatch):
    # four CPUs, so that a task deals these blocks to workers
    monkeypatch.setattr(heat.os, "sched_getaffinity", lambda pid: set(range(4)))
    seen = []
    inner = HeatOperator._synthesize

    def recorded(self, *args):
        seen.append((counts(), threading.current_thread().name))
        return inner(self, *args)

    monkeypatch.setattr(HeatOperator, "_synthesize", recorded)
    X = uniform_torus(64, 64)
    width = heat._COLUMN_BLOCK // X.n
    F = np.random.default_rng(1).standard_normal((X.n, 2 * width + 3))
    ts = [0.1, 0.4, 1.6]
    H = HeatOperator(X)
    try:
        outside = {}
        for start in (1, 2):
            with blas.threads(start):
                caller = counts()
                outside[start] = []
                for _, out in H.apply_grid(F, ts):
                    assert counts() == caller
                    outside[start].append(out.copy())
                assert counts() == caller
            # a task's three blocks per time, all on the calling thread
            assert {c for c, _ in seen} == {caller} and len(seen) == 9
            assert not any(name.startswith("mmslab-chebyshev") for _, name in seen)
            seen[:] = []
        # inside a task the same blocks, shared with the workers: at one
        # BLAS thread the same bits
        with blas.task():
            inside = [out.copy() for _, out in H.apply_grid(F, ts)]
        assert len(seen) == 9
        assert any(name.startswith("mmslab-chebyshev") for _, name in seen)
        assert all(np.array_equal(a, b) for a, b in zip(outside[1], inside))
    finally:
        if H._pool is not None:
            H._pool.shutdown()


def test_a_48_torus_runs_its_heat_work_on_one_thread(monkeypatch):
    # no eigendecomposition of curvature-t48 reaches the rule (48^3 = 2^16.8)
    init, sweep = [], []
    spy(monkeypatch, heat, "laplacian_spectrum", init)
    spy(monkeypatch, HeatOperator, "_synthesize", sweep)
    config = {"space": {"family": "torus", "n1": 48, "n2": 48}, "task": "curvature",
              "seed": 3, "params": {"T": 36.0, "n_random": 16}}
    with blas.threads(2):
        start = counts()
        passed, report, _ = run_config(config)
        assert passed and counts() == start
    assert init and sweep
    assert set(init) == set(sweep) == {(1,) * len(start)}
    assert [e["raised"] for e in report["blas"]] == [0] * len(start)


def same_bits_at_any_thread_count(H, F, ts, monkeypatch):
    """The outputs of `H.apply_grid(F, ts)` in a task at BLAS start counts
    1 and 2, without workers and with three of them, equal by `==`."""
    def sweep():
        with blas.task():
            return [v.copy() for _, v in H.apply_grid(F, ts)]

    runs = []
    for start in (1, 2):
        with blas.threads(start):
            runs.append(sweep())
    with blas.threads(2):
        monkeypatch.setattr(H, "_block_workers", lambda blocks: (None, 0))
        runs.append(sweep())
        # more threads than cores, switching often: a block lost or written
        # twice would show
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            with ThreadPoolExecutor(3) as pool:
                monkeypatch.setattr(H, "_block_workers",
                                    lambda blocks: (pool, min(3, blocks - 1)))
                runs.append(sweep())
        finally:
            sys.setswitchinterval(interval)
    for outs in zip(*runs):
        assert all(np.array_equal(outs[0], v) for v in outs[1:])
    if H._pool is not None:
        H._pool.shutdown()
    return runs[0]


def test_a_wide_product_sweep_has_the_same_bits_at_any_thread_count(monkeypatch):
    # 31 fields on the sqrt|x| grid at h = 1/64, in blocks of
    # `_COLUMN_BLOCK // n` = 3 columns
    X = weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 64, "sqrt_abs_x")
    H = HeatOperator(X)
    assert H.mode == "product"
    F = np.asfortranarray(np.random.default_rng(2).standard_normal((X.n, 31)))
    same_bits_at_any_thread_count(H, F, [1 / 64 ** 2 / 4, 1 / 64 ** 2, 4 / 64 ** 2],
                                  monkeypatch)


def test_a_large_dense_sweep_has_the_same_bits_at_any_thread_count(monkeypatch):
    # 32 fields on a 1024-cycle: 32 * 1024^2 = PARALLEL_WORK multiply-adds a
    # time, so every field in two halves of the vertices
    X = uniform_cycle(1024)
    F = np.random.default_rng(3).standard_normal((X.n, 32))
    assert F.shape[1] * X.n ** 2 >= blas.PARALLEL_WORK
    with blas.task():
        H = HeatOperator(X)
    assert H.mode == "dense"
    ts = [0.5, 2.0, 8.0]
    parts = []
    inner = HeatOperator._synthesize

    def recorded(self, C, t, out, ys=slice(None)):
        parts.append(out.shape)
        return inner(self, C, t, out, ys)

    monkeypatch.setattr(HeatOperator, "_synthesize", recorded)
    split = same_bits_at_any_thread_count(H, F, ts, monkeypatch)
    assert parts[:6] == [(32, 512)] * 6
    # one block of every vertex agrees to round-off
    monkeypatch.setattr(blas, "PARALLEL_WORK", np.inf)
    with blas.task():
        whole = [v.copy() for _, v in H.apply_grid(F, ts)]
    assert parts[-3:] == [(32, 1024)] * 3
    for a, b in zip(split, whole):
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

"""BLAS thread counts: the two primitives of `mmslab.blas`, a task on one
thread for all of its work, eigendecompositions included, and heat builds
and sweeps, inside a task or not, on one BLAS thread: a build decomposes
its factors one after the other on the calling thread, and a sweep deals
its column blocks to the heat layer's workers; and library solves, on
either path, on one BLAS thread."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse.linalg

from mmslab import blas, cli, elliptic, heat, space
from mmslab.cli import reverify_report, run_config
from mmslab.errors import ConfigError, NumericalError
from mmslab.gradest import run_counterexample
from mmslab.heat import HeatOperator
from mmslab.space import uniform_cycle, uniform_torus, weighted_grid_2d

from conftest import tabulated_grid

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
    with blas.threads(1) as found:
        assert found == []
    passed, report, _ = run_config(CURVATURE)
    assert passed and report["blas"] == []


def test_a_task_holds_every_runtime_on_one_thread(fakes, monkeypatch):
    a, b = fakes
    seen = []
    inner = cli.build_space

    def build(spec):
        seen.append((a.n, b.n))
        return inner(spec)

    monkeypatch.setattr(cli, "build_space", build)
    spy(monkeypatch, HeatOperator, "_synthesize", seen)
    passed, report, _ = run_config(CURVATURE)
    assert passed and (a.n, b.n) == (2, 3)
    # the space build included
    assert len(seen) > 1 and set(seen) == {(1, 1)}
    assert report["blas"] == [{"library": a.library, "start": 2, "task": 1},
                              {"library": b.library, "start": 3, "task": 1}]
    # a config error raised inside the task: the counts come back
    for bad in (dict(CURVATURE, params={"T": 1.0, "bogus": 1}),
                dict(CURVATURE, space={"family": "torus", "n1": 0, "n2": 8})):
        seen[:] = []
        with pytest.raises(ConfigError):
            run_config(bad)
        assert seen == [(1, 1)] and (a.n, b.n) == (2, 3)


def test_a_runtime_mapped_inside_a_task_joins_it(monkeypatch):
    # scipy maps its runtime when its sparse solvers are first imported,
    # which may be inside a task: the Poincare solvers' own scope holds it on
    # one thread, and the report entry lists it after the runtimes found
    a, late = FakeRuntime("libopenblas-a.so", 2), FakeRuntime("libopenblas-late.so", 4)
    mapped = [a]
    monkeypatch.setattr(blas, "runtimes", lambda: tuple(mapped))
    inner = cli.build_space

    def build(spec):
        mapped.append(late)         # mapped once the task has begun
        return inner(spec)

    monkeypatch.setattr(cli, "build_space", build)
    seen = []                       # `counts` reads the fakes
    for name in ("splu", "eigsh"):
        spy(monkeypatch, scipy.sparse.linalg, name, seen)
    passed, report, _ = run_config(POINCARE)
    assert passed and seen and set(seen) == {(1, 1)}
    assert (a.n, late.n) == (2, 4)
    assert report["blas"] == [{"library": a.library, "start": 2, "task": 1},
                              {"library": late.library, "start": 4, "task": 1}]
    # outside a task the solvers' scope holds it on one thread too
    seen[:] = []
    X = uniform_torus(8, 8)
    members = np.arange(X.n)
    assert space._sharp_poincare(X, members[:12], members, 1.0) is not None
    assert seen and set(seen) == {(1, 1)} and (a.n, late.n) == (2, 4)


def test_run_config_restores_the_counts_it_found():
    before = counts()
    passed, report, _ = run_config(CURVATURE)
    assert passed and counts() == before
    assert [sorted(e) for e in report["blas"]] == [["library", "start", "task"]] * len(before)
    assert [(e["start"], e["task"]) for e in report["blas"]] == [(n, 1) for n in before]
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


def test_every_eigendecomposition_in_a_task_runs_on_one_thread(monkeypatch):
    init, solve_spec, poincare = [], [], []
    spy(monkeypatch, heat, "laplacian_spectrum", init)
    spy(monkeypatch, elliptic, "laplacian_spectrum", solve_spec)
    spy(monkeypatch, scipy.sparse.linalg, "eigsh", poincare)
    with blas.threads(2):
        start = counts()
        one = (1,) * len(start)
        # the largest dense build `auto` makes, and a product build
        with blas.threads(1):
            assert HeatOperator(uniform_cycle(1024)).mode == "dense"
            assert HeatOperator(uniform_torus(48, 48)).mode == "product"
        for config in (SOLVE, POINCARE):
            assert run_config(config)[0]
        assert counts() == start
    # a dense build decomposes one vertex and the space, the square torus
    # its one factor
    assert len(init) == 3 and solve_spec and poincare
    assert set(init) == set(solve_spec) == set(poincare) == {one}


@pytest.fixture
def four_cpus(monkeypatch):
    # so that the heat layer would have workers to deal to on any machine
    monkeypatch.setattr(heat.os, "sched_getaffinity", lambda pid: set(range(4)))


# the sqrt|x| grid has two factors, the square torus one, passed twice
@pytest.mark.parametrize("make,factors", [
    (lambda: weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 64, "sqrt_abs_x"), 2),
    (lambda: uniform_torus(48, 48), 1)], ids=["sqrt64", "torus48"])
def test_a_product_build_decomposes_on_the_calling_thread(make, factors, four_cpus,
                                                         monkeypatch):
    X = make()
    where = []
    inner = heat.laplacian_spectrum

    def recorded(space):
        where.append((space.n, threading.current_thread(), counts()))
        return inner(space)

    monkeypatch.setattr(heat, "laplacian_spectrum", recorded)
    with blas.threads(2):
        with blas.threads(1):
            one = counts()
            inside = HeatOperator(X)
        # outside any scope, at the caller's two threads, the same build
        outside = HeatOperator(X)
        assert counts() == (2,) * len(one)
    assert inside.mode == outside.mode == "product"
    distinct = {id(f): f.n for f in X.factors}
    assert len(distinct) == factors
    assert [n for n, _, _ in where] == 2 * list(distinct.values())
    assert {c for _, _, c in where} == {one}
    assert {thread for _, thread, _ in where} == {threading.current_thread()}
    # no worker was started
    assert inside._pool is None and outside._pool is None
    for (w, V), (w2, V2) in zip(inside._factors, outside._factors):
        assert np.array_equal(w, w2) and np.array_equal(V, V2)


def test_a_failed_second_factor_is_a_numerical_error(monkeypatch):
    calls = []
    inner = np.linalg.eigh

    def eigh(S):
        calls.append(S.shape)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return inner(S)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with blas.threads(2):
        start = counts()
        with pytest.raises(NumericalError, match="eigendecomposition failed"):
            HeatOperator(uniform_torus(8, 6))
        assert counts() == start
    assert calls == [(8, 8), (6, 6)]


def test_a_square_product_decomposes_its_factor_once(monkeypatch):
    # the heat build and the all-interior solve of a square product: one
    # eigendecomposition each, with the bits of the same product built from
    # two equal factor objects; the sqrt|x| grid still decomposes two
    heat_calls, solve_calls = [], []
    spy(monkeypatch, heat, "laplacian_spectrum", heat_calls)
    spy(monkeypatch, elliptic, "laplacian_spectrum", solve_calls)
    F = np.random.default_rng(4).standard_normal((48 * 48, 3))
    ts = [0.5, 4.0]
    torus = uniform_torus(48, 48)
    assert torus.factors[0] is torus.factors[1]
    twin = space.product_space(uniform_cycle(48), uniform_cycle(48),
                               positions=torus.positions)
    got = [[v.copy() for _, v in HeatOperator(X).apply_grid(F, ts)] for X in (torus, twin)]
    assert len(heat_calls) == 1 + 2
    assert all(np.array_equal(a, b) for a, b in zip(*got))

    def all_interior(X):
        return elliptic.Problem(X, space.vertex_complement(X.n, X.rim),
                                1.0 + X.positions[:, 0] - 0.5 * X.positions[:, 1] ** 2)

    square = ((-1.0, 1.0), (-1.0, 1.0))
    grid = weighted_grid_2d(square, 1 / 128)
    assert grid.factors[0] is grid.factors[1]
    X1, Y1 = (space.weighted_grid_1d(b, 1 / 128) for b in square)
    pair = space.product_space(X1, Y1)
    solved = [elliptic.solve(all_interior(X)) for X in (grid, pair)]
    assert len(solve_calls) == 1 + 2
    assert np.array_equal(*solved)

    heat_calls[:], solve_calls[:] = [], []
    sqrt64 = weighted_grid_2d(square, 1 / 64, "sqrt_abs_x")
    HeatOperator(sqrt64)
    elliptic.solve(all_interior(sqrt64))
    assert len(heat_calls) == len(solve_calls) == 2


@pytest.mark.parametrize("make", [lambda: uniform_torus(8, 8), lambda: uniform_cycle(32)],
                         ids=["product", "dense"])
def test_a_sweep_inside_a_task_runs_on_one_thread(make, monkeypatch):
    seen = []
    spy(monkeypatch, HeatOperator, "_synthesize", seen)
    X = make()
    F = np.random.default_rng(0).standard_normal((X.n, 3))
    with blas.threads(2):
        with blas.threads(1):
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


def test_outside_a_task_a_heat_sweep_deals_its_blocks_on_one_thread(four_cpus, monkeypatch):
    seen = []
    inner = HeatOperator._synthesize
    fail = []

    def recorded(self, *args):
        seen.append((counts(), threading.current_thread().name))
        if fail:
            raise RuntimeError("block")
        return inner(self, *args)

    monkeypatch.setattr(HeatOperator, "_synthesize", recorded)
    X = uniform_torus(64, 64)
    width = heat._COLUMN_BLOCK // X.n
    F = np.random.default_rng(1).standard_normal((X.n, 2 * width + 3))
    ts = [0.1, 0.4, 1.6]
    H = HeatOperator(X)
    try:
        with blas.threads(1):
            one = counts()
            inside = [out.copy() for _, out in H.apply_grid(F, ts)]
        for start in (1, 2):
            seen[:] = []
            with blas.threads(start):
                caller = counts()
                outside = []
                for _, out in H.apply_grid(F, ts):
                    assert counts() == caller
                    outside.append(out.copy())
                assert counts() == caller
                sweep = H.apply_grid(F, ts)
                next(sweep)
                assert counts() == caller
                sweep.close()
                assert counts() == caller
                fail.append(True)
                with pytest.raises(RuntimeError, match="block"):
                    next(H.apply_grid(F, ts))
                fail.pop()
                assert counts() == caller
            # three blocks per time, shared with the workers at one BLAS
            # thread: the in-scope sweep's bits
            assert len(seen) > 12 and {c for c, _ in seen} == {one}
            assert any(name.startswith("mmslab-chebyshev") for _, name in seen)
            assert all(np.array_equal(a, b) for a, b in zip(outside, inside))
    finally:
        if H._pool is not None:
            H._pool.shutdown()


def test_a_48_torus_runs_its_heat_work_on_one_thread(monkeypatch):
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
    assert [(e["start"], e["task"]) for e in report["blas"]] == [(n, 1) for n in start]


def same_bits_at_any_thread_count(H, F, ts, monkeypatch):
    """The outputs of `H.apply_grid(F, ts)` in a task at BLAS start counts
    1 and 2, without workers and with three of them, equal by `==`."""
    def sweep():
        with blas.threads(1):
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
    # 130 fields on a 1024-cycle, the largest dense space `auto` makes, in
    # blocks of `_COLUMN_BLOCK // n` = 64 columns, each reading the whole basis
    X = uniform_cycle(1024)
    F = np.random.default_rng(3).standard_normal((X.n, 130))
    with blas.threads(1):
        H = HeatOperator(X)
    assert H.mode == "dense"
    parts = []
    inner = HeatOperator._synthesize

    def recorded(self, C, t, out):
        parts.append(out.shape)
        return inner(self, C, t, out)

    monkeypatch.setattr(HeatOperator, "_synthesize", recorded)
    same_bits_at_any_thread_count(H, F, [0.5, 2.0, 8.0], monkeypatch)
    assert sorted(parts[:3]) == [(2, 1024), (64, 1024), (64, 1024)]


@pytest.mark.parametrize("make, path", [
    (lambda: weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 64, "sqrt_abs_x"),
     "fast_diagonalization"),
    (lambda: tabulated_grid(1 / 64), "cg")], ids=["sqrt64", "tabulated64"])
def test_a_library_solve_has_a_tasks_bits_at_two_threads(make, path):
    # before either solver ran in its own one-thread scope, two threads
    # moved the solution by up to 1.1e-15 (fast diagonalization: the
    # products, not the eigendecompositions) and 1.6e-15 (Jacobi-CG)
    X = make()
    x = X.positions[:, 0]
    problem = elliptic.Problem(X, space.vertex_complement(X.n, X.rim),
                               np.sign(x) * np.sqrt(np.abs(x)))
    assert elliptic.solver_path(problem) == path
    with blas.threads(2):
        two = elliptic.solve(problem)
    with blas.threads(1):
        assert np.array_equal(elliptic.solve(problem), two)


def test_a_library_counterexample_sweep_has_a_tasks_report_at_two_threads():
    # sup_grad at h = 1/64 read 7.232844175322454 at two threads against
    # the task's 7.232844175322457 while the solve ran at the caller's count
    with blas.threads(2):
        two = run_counterexample([1 / 16, 1 / 32, 1 / 64], seed=3)
    with blas.threads(1):
        assert repr(run_counterexample([1 / 16, 1 / 32, 1 / 64], seed=3)) == repr(two)

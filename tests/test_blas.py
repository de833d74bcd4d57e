"""BLAS thread counts: the scopes of `mmslab.blas`, a task on one thread, and
the heat layer's spectral work back at the count the task found when its
largest call reaches `blas.PARALLEL_WORK`."""

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


def test_spectral_scopes_may_close_in_any_order(fakes):
    a, b = fakes
    with blas.task() as entry:
        assert entry == [{"library": a.library, "start": 2, "task": 1, "spectral": 2,
                          "raised": 0},
                         {"library": b.library, "start": 3, "task": 1, "spectral": 3,
                          "raised": 0}]
        assert (a.n, b.n) == (1, 1)
        first, second = blas.spectral(blas.PARALLEL_WORK), blas.spectral(blas.PARALLEL_WORK)
        first.__enter__()
        assert (a.n, b.n) == (2, 3)
        second.__enter__()
        first.__exit__(None, None, None)
        assert (a.n, b.n) == (2, 3)
        second.__exit__(None, None, None)
        assert (a.n, b.n) == (1, 1)
    assert (a.n, b.n) == (2, 3)
    assert [e["raised"] for e in entry] == [2, 2]


def test_a_scope_below_the_rule_leaves_one_thread(fakes):
    a, b = fakes
    below, at = blas.PARALLEL_WORK - 1, blas.PARALLEL_WORK
    with blas.task() as entry:
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


def test_a_scope_left_open_past_its_task_changes_nothing_later(fakes):
    a, _ = fakes
    with blas.task():
        left = blas.spectral(blas.PARALLEL_WORK)
        left.__enter__()
    assert a.n == 2
    with blas.threads(5):
        left.__exit__(None, None, None)
        assert a.n == 5
    assert a.n == 2


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
            mapped.append(later)
            blas.adopt()            # inside a raised scope: at its own count
            assert later.n == 5
        assert (a.n, late.n, later.n) == (1, 1, 1)
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


def test_heat_spectral_work_runs_at_the_starting_count(monkeypatch):
    # every heat scope at or above the rule
    monkeypatch.setattr(blas, "PARALLEL_WORK", 0)
    init, sweep, solve_spec, poincare = [], [], [], []
    spy(monkeypatch, heat, "laplacian_spectrum", init)
    spy(monkeypatch, HeatOperator, "_product_synthesize", sweep)
    spy(monkeypatch, elliptic, "laplacian_spectrum", solve_spec)
    spy(monkeypatch, scipy.sparse.linalg, "eigsh", poincare)
    with blas.threads(2):
        start = counts()
        for config in (CURVATURE, SOLVE, POINCARE):
            assert run_config(config)[0]
        assert counts() == start
    assert init and sweep and solve_spec and poincare
    assert set(init) == set(sweep) == {start}
    one = (1,) * len(start)
    assert set(solve_spec) == set(poincare) == {one}


@pytest.mark.parametrize("make", [lambda: uniform_torus(8, 8), lambda: uniform_cycle(32)],
                         ids=["product", "dense"])
def test_an_unfinished_sweep_steps_back_to_one_thread(make, monkeypatch):
    monkeypatch.setattr(blas, "PARALLEL_WORK", 0)
    X = make()
    F = np.random.default_rng(0).standard_normal((X.n, 3))
    with blas.threads(2):
        with blas.task():
            H = HeatOperator(X)
            one = counts()
            H.apply_batch(F, 0.5)           # closes its sweep after one time
            H.kernel(0.5, [0, 3])
            assert counts() == one
            for sweep, threaded in ((H.apply_grid(F, [0.1, 0.2]), True),
                                    # a product's kernel rows take no BLAS call
                                    (H.kernel_grid(1, [0.1, 0.2]), H.mode == "dense")):
                next(sweep)
                assert counts() == ((2,) * len(one) if threaded else one)
                sweep.close()
                assert counts() == one


def test_outside_a_task_a_heat_sweep_keeps_the_callers_count(monkeypatch):
    seen = []
    spy(monkeypatch, HeatOperator, "_product_synthesize", seen)
    with blas.threads(1):
        one = counts()
        H = HeatOperator(uniform_torus(8, 8))
        F = np.random.default_rng(1).standard_normal((64, 2))
        for _ in H.apply_grid(F, [0.1, 0.4, 1.6]):
            assert counts() == one
        assert counts() == one
    assert set(seen) == {one}


def test_a_48_torus_runs_its_heat_work_on_one_thread(monkeypatch):
    # every scope of curvature-t48 is below the rule (at most 2^23.5)
    init, sweep = [], []
    spy(monkeypatch, heat, "laplacian_spectrum", init)
    spy(monkeypatch, HeatOperator, "_product_synthesize", sweep)
    config = {"space": {"family": "torus", "n1": 48, "n2": 48}, "task": "curvature",
              "seed": 3, "params": {"T": 36.0, "n_random": 16}}
    with blas.threads(2):
        start = counts()
        passed, report, _ = run_config(config)
        assert passed and counts() == start
    assert init and sweep
    assert set(init) == set(sweep) == {(1,) * len(start)}
    assert [e["raised"] for e in report["blas"]] == [0] * len(start)


def test_a_wide_product_sweep_runs_at_the_starting_count_to_round_off(monkeypatch):
    # 31 fields on the sqrt|x| grid at h = 1/64: 129^2 * 31 * 129 = 2^26.0
    X = weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 64, "sqrt_abs_x")
    H = HeatOperator(X)
    assert H.mode == "product" and X.n * 31 * 129 >= blas.PARALLEL_WORK
    F = np.asfortranarray(np.random.default_rng(2).standard_normal((X.n, 31)))
    ts = [1 / 64 ** 2 / 4, 1 / 64 ** 2, 4 / 64 ** 2]
    with blas.threads(1):
        one = counts()
        alone = [v.copy() for _, v in H.apply_grid(F, ts)]
    seen = []
    spy(monkeypatch, HeatOperator, "_product_synthesize", seen)
    with blas.threads(2):
        start = counts()
        with blas.task() as entry:
            shared = [v.copy() for _, v in H.apply_grid(F, ts)]
            assert counts() == one
    assert set(seen) == {start} and start != one
    assert [e["raised"] for e in entry] == [1] * len(start)
    # two threads round the GEMMs differently (measured: up to 2.0e-16 of the
    # scale), so the outputs agree to round-off, not bit for bit
    for a, b in zip(alone, shared):
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(a))

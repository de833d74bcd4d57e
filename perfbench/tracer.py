"""Spans and counters around the public entry points of every mmslab module.

The tracer lives entirely in the benchmark: ``traced(tracer)`` rebinds the
entry points for the duration of a ``with`` block and restores them on exit.
Module-level functions are rebound in every ``mmslab.*`` namespace that
imported them by name (``carre_du_champ`` is bound in heat, curvature,
elliptic, gradest and cli, for instance), so internal calls are traced too.
Class methods are wrapped on the class.  Generators (``apply_grid``,
``kernel_grid``) get one span per ``next()``, so the work done lazily while
a caller iterates is charged to the heat layer.

A span records its name, start, end and parent and stays in memory until
the run ends.  Self time is a span's duration minus the part its child spans
cover; because spans are strictly nested in one thread, that is the
duration minus the sum of the children's durations.
"""

from __future__ import annotations

import functools
import sys
import time
import types
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

HEAT_WORK = ("heat.action", "heat.kernel")


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._sources = weakref.WeakKeyDictionary()   # space -> sources seen

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        k = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(k)
        self.starts.append(time.perf_counter())
        return k

    def close(self, k: int):
        self.ends[k] = time.perf_counter()
        popped = self._stack.pop()
        if popped != k:
            raise RuntimeError(f"span {self.names[k]!r} closed out of order")

    # -- counters --------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0):
        self.counts[name] += amount

    def peak(self, name: str, value: float):
        self.maxima[name] = max(self.maxima[name], value)

    def note_source(self, space, v: int) -> bool:
        """Record a (space, source) distance request; True on a repeat."""
        seen = self._sources.setdefault(space, set())
        repeat = v in seen
        seen.add(v)
        return repeat

    # -- reduction ---------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(dur.size)
        parents = np.asarray(self.parents, dtype=int)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        out: dict[str, float] = defaultdict(float)
        for name, s in zip(self.names, dur - child):
            out[name] += float(s)
        return out

    def inclusive_times(self) -> dict:
        """Total duration per span name, counting only the outermost span of
        each name along a chain of nested spans of that name."""
        out: dict[str, float] = defaultdict(float)
        for k, name in enumerate(self.names):
            p = self.parents[k]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                out[name] += self.ends[k] - self.starts[k]
        return out


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _wrap(fn, tracer, name, after=None, before=None):
    """Call `fn` inside a span; `before(args, kwargs)` may rewrite the call,
    `after(args, kwargs, result)` records counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        k = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(k)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _columns(F) -> int:
    F = np.asarray(F)
    return int(F.shape[1]) if F.ndim == 2 else 1


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


class _Patcher:
    """Rebinds attributes and restores the originals."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind_everywhere(self, original, replacement):
        """Replace `original` in every mmslab module namespace holding it."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mmslab"
                                   or modname.startswith("mmslab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere")

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _install(tracer: Tracer, patch: _Patcher):
    import mmslab.cli as cli
    import mmslab.curvature as curvature
    import mmslab.elliptic as elliptic
    import mmslab.form as form
    import mmslab.gradest as gradest
    import mmslab.heat as heat
    import mmslab.quad as quad
    import mmslab.space as space

    t = tracer

    def fn(original, name, after=None, before=None):
        patch.rebind_everywhere(original,
                                _wrap(original, t, name, after, before))

    def method(cls, attr, name, after=None):
        patch.set(cls, attr, _wrap(cls.__dict__[attr], t, name, after))

    # -- space ------------------------------------------------------------------
    MMS = space.MetricMeasureSpace
    method(MMS, "__init__", "space.build",
           after=lambda a, k, r: t.count("space.build_calls"))
    for builder in (space.build_space, space.two_point, space.uniform_cycle,
                    space.uniform_torus, space.weighted_grid_1d,
                    space.weighted_grid_2d):
        fn(builder, "space.build")

    def dist_from(a, k, r):
        t.count("space.dist_rows")
        t.count("space.dist_from_calls")
        if t.note_source(a[0], int(_arg(a, k, 1, "v"))):
            t.count("space.dist_repeats")

    method(MMS, "distances_from", "space.dist", after=dist_from)
    method(MMS, "distance_rows", "space.dist",
           after=lambda a, k, r: t.count("space.dist_rows",
                                         np.atleast_2d(r).shape[0]))
    fn(space.estimate_doubling, "space.doubling")
    fn(space.estimate_poincare, "space.poincare")
    fn(space.metric_ball, "space.ball",
       after=lambda a, k, r: t.count("space.ball_calls"))

    # -- form ---------------------------------------------------------------------
    fn(form.carre_du_champ, "form.gamma",
       after=lambda a, k, r: t.count("form.gamma_calls"))

    # -- heat ---------------------------------------------------------------------
    HO = heat.HeatOperator

    def built(a, k, r):
        H = a[0]
        t.count(f"heat.build_{H.mode}")
        if H.mode == "dense":
            t.count("heat.dense_n_sum", H.space.n)

    method(HO, "__init__", "heat.build", after=built)

    def heat_layer(own):
        """Span name and whether to count columns for a heat call.

        A call nested in another heat call is charged to the outer call's
        layer (a kernel column computed through apply_grid is kernel work)
        and its columns are not counted twice.
        """
        for s in reversed(t._stack):
            if t.names[s].startswith(HEAT_WORK):
                return t.names[s], False
        return own, True

    def heat_method(attr, own, columns_of):
        original = HO.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name, top = heat_layer(own)
            k = t.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                t.close(k)
            if top:
                t.count(f"{own}_columns", columns_of(args, kwargs, result))
            return result

        patch.set(HO, attr, wrapper)

    def heat_generator(attr, own, columns_of):
        """One span per next(), so lazily done work is charged here too."""
        original = HO.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name, top = heat_layer(own)
            inner = original(*args, **kwargs)
            try:
                while True:
                    k = t.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t.close(k)
                    if top:
                        t.count(f"{own}_columns", columns_of(args, kwargs, item))
                    yield item
            finally:
                inner.close()

        patch.set(HO, attr, wrapper)

    heat_method("apply", "heat.action", lambda a, k, r: 1)
    heat_method("apply_batch", "heat.action",
                lambda a, k, r: _columns(_arg(a, k, 1, "F")))
    heat_generator("apply_grid", "heat.action",
                   lambda a, k, item: _columns(_arg(a, k, 1, "F")))
    heat_method("kernel", "heat.kernel", lambda a, k, r: 1)
    heat_method("kernel_matrix", "heat.kernel",
                lambda a, k, r: a[0].space.n)
    heat_generator("kernel_grid", "heat.kernel", lambda a, k, item: 1)
    fn(heat.check_gaussian, "heat.gaussian")
    fn(heat.check_heat_caccioppoli, "heat.caccioppoli")

    # -- quad -------------------------------------------------------------------
    def counted_eval(args, kwargs):
        eval_batch = _arg(args, kwargs, 0, "eval_batch")

        def counting(ts):
            t.count("quad.nodes", len(ts))
            return eval_batch(ts)

        if args:
            return (counting,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, eval_batch=counting)

    def quad_done(a, k, r):
        _, info = r
        t.count("quad.calls")
        t.count("quad.final_nodes", info["nodes"])
        t.peak("quad.levels_max", info["levels"])
        if not info["converged"]:
            t.count("quad.unconverged")

    def cumulative_done(a, k, r):
        t.count("quad.calls")
        t.count("quad.final_nodes", len(r[1]))
        t.peak("quad.levels_max", 1)

    fn(quad.log_time_quadrature, "quad", after=quad_done, before=counted_eval)
    fn(quad.cumulative_log_quadrature, "quad", after=cumulative_done,
       before=counted_eval)

    # -- curvature ----------------------------------------------------------------
    fn(curvature.estimate_ckappa, "curvature.estimate",
       after=lambda a, k, r: t.count("curvature.field_time_pairs",
                                     r.n_fields * len(r.per_t_profile)))
    fn(curvature.check_commutation, "curvature.commutation")

    # -- elliptic ---------------------------------------------------------------
    def solved(a, k, r):
        t.count("elliptic.solves")
        t.count("elliptic.unknowns", _arg(a, k, 0, "problem").domain.size)

    fn(elliptic.solve, "elliptic.solve", after=solved)
    fn(elliptic.holder_fit, "elliptic.holder")
    fn(elliptic.weak_harnack, "elliptic.harnack")
    cg = elliptic.cg

    @functools.wraps(cg)
    def counted_cg(*args, callback=None, **kwargs):
        def on_iter(xk):
            t.count("elliptic.cg_iters")
            if callback is not None:
                callback(xk)
        return cg(*args, callback=on_iter, **kwargs)

    patch.set(elliptic, "cg", counted_cg)

    # -- gradest ------------------------------------------------------------------
    fn(gradest.run_counterexample, "gradest.counterexample")
    fn(gradest.verify_gradient_estimate, "gradest.verify")
    fn(gradest.averaged_energy, "gradest.energy")
    fn(gradest.averaged_energy_profile, "gradest.energy")

    # -- cli: report building and JSON writing ------------------------------------
    json_mod = cli.json
    proxy = types.SimpleNamespace(**vars(json_mod))
    proxy.dump = _wrap(json_mod.dump, t, "cli.report")
    patch.set(cli, "json", proxy)
    patch.set(cli, "to_jsonable", _wrap(cli.to_jsonable, t, "cli.report"))


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    patch = _Patcher()
    try:
        _install(tracer, patch)
        yield tracer
    finally:
        patch.restore()

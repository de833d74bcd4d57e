"""Variance bound, curvature constant estimation, commutation oracle."""

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import gamma_out_of_place, tabulated_grid
from mmslab import ConfigError, NumericalError, curvature, heat
from mmslab import space as sp_mod
from mmslab.curvature import (_largest_required, check_commutation,
                              default_sample_fields, estimate_ckappa, variance)
from mmslab.form import carre_du_champ
from mmslab.heat import build_heat


def test_variance_trivials(cycle32):
    H = build_heat(cycle32)
    g = np.random.default_rng(0).standard_normal(cycle32.n)
    assert np.all(variance(H, g, 0.0) == 0.0)
    assert np.max(variance(H, np.full(cycle32.n, 4.2), 1.3)) <= 1e-13


def test_variance_two_point_closed_form(two_point):
    H = build_heat(two_point)
    g = np.array([0.0, 1.0])
    for t in (0.01, 0.1, 1.0, 10.0):
        want = (1 - np.exp(-4 * t)) / 4
        assert np.max(np.abs(variance(H, g, t) - want)) <= 1e-12


def test_variance_nonnegative_everywhere(torus16):
    H = build_heat(torus16)
    rng = np.random.default_rng(1)
    for t in (0.01, 0.4, 2.0):
        assert np.min(variance(H, rng.standard_normal(torus16.n), t)) >= 0.0


def test_ckappa_two_point_zero(two_point):
    # variance (1-e^{-4t})/4 <= t = 2t * T_t Gamma since Gamma = 1/2
    rep = estimate_ckappa(build_heat(two_point), 1.0, seed=0)
    assert rep.c_kappa == 0.0


def test_ckappa_cycle_zero(cycle64):
    rep = estimate_ckappa(build_heat(cycle64), 1.0, seed=7)
    assert rep.c_kappa <= 1e-6


def test_commutation_certifies_flat_families(cycle64, torus16):
    # translation-invariant kernels: Gamma(T_t g) <= T_t Gamma(g) by Jensen
    rng = np.random.default_rng(2)
    for sp in (cycle64, torus16):
        H = build_heat(sp)
        margins = [check_commutation(H, rng.standard_normal(sp.n), 0.5)
                   for _ in range(32)]
        assert min(margins) >= -1e-10


def test_commutation_trivial_constant(torus16):
    H = build_heat(torus16)
    assert check_commutation(H, np.full(torus16.n, 2.0), 0.7) == pytest.approx(
        0.0, abs=1e-13)


def test_commutation_of_a_stack_is_the_min_over_its_fields(torus16):
    m = 17
    wtab = np.exp(0.5 * np.random.default_rng(4).standard_normal((m, m)))
    tab = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 8, tabulated=wtab)
    rng = np.random.default_rng(5)
    for H in (build_heat(tab, mode="stepping"), build_heat(torus16)):
        G = rng.standard_normal((H.space.n, 6))
        per_field = min(check_commutation(H, G[:, k], 0.05) for k in range(6))
        if H.mode == "stepping":
            # a column's Chebyshev arithmetic does not depend on its block
            assert check_commutation(H, G, 0.05) == per_field
        else:
            assert check_commutation(H, G, 0.05) == pytest.approx(per_field, rel=1e-12)
        with pytest.raises(ConfigError):
            check_commutation(H, G[:, :0], 0.05)


def test_commutation_negative_near_degeneracy():
    # coordinate field at small t dips negative next to the x = 0 line
    g2 = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 8, "sqrt_abs_x")
    H = build_heat(g2)
    margin = check_commutation(H, g2.positions[:, 0].astype(float),
                               g2.min_edge_length ** 2)
    assert margin < 0.0


def test_ckappa_monotone_in_samples(torus16):
    H = build_heat(torus16)
    small = default_sample_fields(H, seed=3, n_random=4)
    big = np.column_stack([small, default_sample_fields(H, seed=9, n_random=8)])
    t_grid = np.geomspace(1.0, 4.0, 8)
    c_small = estimate_ckappa(H, 4.0, samples=small, t_grid=t_grid).c_kappa
    c_big = estimate_ckappa(H, 4.0, samples=big, t_grid=t_grid).c_kappa
    assert c_big >= c_small


def test_ckappa_monotone_in_horizon():
    g2 = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 8, "sqrt_abs_x")
    H = build_heat(g2)
    h2 = g2.min_edge_length ** 2
    grid1 = np.geomspace(h2, 0.25, 12)
    grid2 = np.unique(np.concatenate([grid1, np.geomspace(0.25, 1.0, 6)]))
    c1 = estimate_ckappa(H, 0.25, t_grid=grid1, seed=5).c_kappa
    c2 = estimate_ckappa(H, 1.0, t_grid=grid2, seed=5).c_kappa
    assert c2 >= c1


def test_ckappa_diverges_on_degenerate_weight_and_stabilizes_on_uniform():
    cks_sqrt, cks_unif = [], []
    for h in (1 / 8, 1 / 16, 1 / 32):
        for weight, out in (("sqrt_abs_x", cks_sqrt), ("constant", cks_unif)):
            sp = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), h, weight)
            H = build_heat(sp)
            t_grid = np.geomspace(min(h * h, 1 / 64), 1 / 64, 12)
            out.append(estimate_ckappa(H, 1 / 64, t_grid=t_grid, seed=7,
                                       n_random=6).c_kappa)
    assert cks_sqrt[0] < cks_sqrt[1] < cks_sqrt[2]
    assert cks_sqrt[2] / cks_sqrt[0] >= 4.0
    # uniform weight: no divergence across the same refinements
    assert max(cks_unif) <= max(1.0, 2.0 * (1.0 + min(cks_unif)))


def test_interpolation_identity(two_point, cycle32):
    # Var_t(g) = 2 int_0^t T_s Gamma(T_{t-s} g) ds, by independent quadrature
    for sp in (two_point, cycle32):
        H = build_heat(sp)
        rng = np.random.default_rng(11)
        g = rng.standard_normal(sp.n)
        t = 0.8
        x0 = 1
        svals = np.linspace(0.0, t, 2001)
        integrand = []
        for s in svals:
            inner = H.apply_batch(g, t - s)
            integrand.append(H.apply_batch(carre_du_champ(sp, inner), s)[x0])
        quad = 2.0 * np.trapezoid(integrand, svals)
        direct = variance(H, g, t)[x0]
        assert quad == pytest.approx(direct, rel=1e-6)


def test_ckappa_validates_inputs(torus16):
    H = build_heat(torus16)
    with pytest.raises(ConfigError):
        estimate_ckappa(H, -1.0)
    with pytest.raises(ConfigError):
        estimate_ckappa(H, 1.0, t_grid=[0.5, 2.0])   # grid beyond horizon
    with pytest.raises(ConfigError):
        estimate_ckappa(H, 1.0, samples=np.empty((torus16.n, 0)))
    # samples are (n, k) only: a (k, n) stack or a single field is not guessed
    fields = default_sample_fields(H, seed=0, n_random=4)
    for bad in (fields.T, fields[:, 0]):
        with pytest.raises(ConfigError, match="samples"):
            estimate_ckappa(H, 1.0, samples=bad)


def test_report_profile_and_argmax_fields(torus16):
    H = build_heat(torus16)
    rep = estimate_ckappa(H, 2.0, seed=0, n_random=4)
    assert len(rep.per_t_profile) >= 1
    f, t, x = rep.argmax
    assert 0 <= x < torus16.n and t > 0
    assert "lower estimate" in rep.sample_note


def crafted_stack(seed, n=9, k=4):
    """A swept stack [g~^2 | g~ | Gamma] from coarse dyadic values, so its
    variances are exact and its required constants tie often; column 0
    has a vanishing T_t Gamma where its variance vanishes too."""
    rng = np.random.default_rng(seed)
    m = 0.5 * rng.integers(-2, 3, (n, k))
    v = 0.25 * rng.integers(0, 4, (n, k))
    tg = 0.5 * rng.integers(1, 4, (n, k))
    # duplicated fields and vertices tie everywhere, the top value included
    m[:, 3], v[:, 3], tg[:, 3] = m[:, 1], v[:, 1], tg[:, 1]
    m[5], v[5], tg[5] = m[2], v[2], tg[2]
    v[2, 1] = v[5, 1] = v[2, 3] = v[5, 3] = 4.0
    tg[0, 0], v[0, 0] = 0.0, 0.0
    scale2 = np.maximum(1.0, np.max(np.abs(m), axis=0) ** 2)
    return np.column_stack([m * m + v, m, tg]), scale2


def reference_required(out, t, scale2):
    """(max, field, vertex) of required(g, t, x) entry by entry, the first
    vertex and then the first field winning a tie."""
    n, k = out.shape[0], scale2.size
    best, arg = -np.inf, None
    for x in range(n):
        for f in range(k):
            var = max(out[x, f] - out[x, k + f] ** 2, 0.0)
            tg = out[x, 2 * k + f]
            wtol = 1e-13 * max(float(np.max(out[:, 2 * k + f])), 1e-300)
            req = max((var / tg - 2.0 * t) / (t * t), 0.0) if tg > wtol else 0.0
            if req > best:
                best, arg = req, (f, x)
    return (best,) + arg


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("t", [0.05, 0.3, 10.0])
def test_largest_required_matches_the_per_entry_reference(seed, t):
    out, scale2 = crafted_stack(seed)
    want = reference_required(out, t, scale2)
    assert _largest_required(out, t, scale2) == want
    if t == 0.05:
        # the planted top value ties across fields 1, 3 and vertices 2, 5
        assert want[1:] == (1, 2)
    if t == 10.0:
        # every required constant clips to zero: the tie goes to (0, 0)
        assert want == (0.0, 0, 0)


def test_largest_required_raises_on_a_broken_stack():
    out, scale2 = crafted_stack(0)
    low = out.copy()
    low[4, 2] = low[4, 6] ** 2 - 1e-6
    with pytest.raises(NumericalError, match="below clamp floor"):
        _largest_required(low, 0.05, scale2)
    vanishing = out.copy()
    vanishing[0, 0] += 1.0      # variance 1 where T_t Gamma is zero
    with pytest.raises(NumericalError, match="vanishing T_t Gamma"):
        _largest_required(vanishing, 0.05, scale2)


# -- field blocks ---------------------------------------------------------------

@pytest.fixture(scope="module", params=["product", "stepping", "dense"])
def block_case(request):
    if request.param == "product":
        H = build_heat(sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 16,
                                               "sqrt_abs_x"))
    else:
        # dense on the largest square tabulated grid under its cap (n = 961)
        h = 1 / 16 if request.param == "stepping" else 1 / 15
        H = build_heat(tabulated_grid(h), mode=request.param)
    assert H.mode == request.param
    return H, default_sample_fields(H, seed=2, n_random=6)


def estimate_in_blocks(H, samples, width, monkeypatch):
    """estimate_ckappa to T = 1/64 with field blocks of `width` fields, each
    swept over the whole grid in one stepping group, as `grid_columns`
    has it."""
    monkeypatch.setattr(H, "grid_columns", lambda times: 3 * width)
    monkeypatch.setattr(heat, "_GRID_BLOCK", 3 * H.space.n * samples.shape[1] * 24)
    return estimate_ckappa(H, 1 / 64, samples=samples)


def test_ckappa_does_not_depend_on_the_block_width(block_case, monkeypatch):
    H, samples = block_case
    k = samples.shape[1]
    whole = estimate_in_blocks(H, samples, k, monkeypatch)
    assert whole.c_kappa > 0
    for width in (1, 3, 5):
        rep = estimate_in_blocks(H, samples, width, monkeypatch)
        assert rep.c_kappa == whole.c_kappa
        assert rep.argmax == whole.argmax
        assert rep.per_t_profile == whole.per_t_profile


def test_a_tie_across_blocks_goes_to_the_first_field(block_case, monkeypatch):
    # g and -g have the same required constant at every vertex and time, to
    # the bit; with one field a block they sit in different blocks
    H, samples = block_case
    g = samples[:, int(estimate_ckappa(H, 1 / 64, samples=samples).argmax[0])]
    tied = np.column_stack([samples[:, 0], g, -g, g])
    reps = [estimate_in_blocks(H, tied, w, monkeypatch) for w in (1, 2, 4)]
    assert reps[0].argmax[0] == 1
    assert all(rep.argmax == reps[0].argmax for rep in reps)
    assert all(rep.per_t_profile == reps[0].per_t_profile for rep in reps)


def test_stepping_estimate_sweeps_each_field_block_over_the_whole_grid(monkeypatch):
    # one recurrence per field block, over every time, and the Bessel
    # coefficients of the grid computed once for all blocks
    space = tabulated_grid(1 / 16)
    # smoothed on another operator, whose first sweep keeps h^2's series
    samples = default_sample_fields(build_heat(space, mode="stepping"), seed=2,
                                    n_random=12)
    H = build_heat(space, mode="stepping")
    width = H.grid_columns(24) // 3
    assert 1 < width < samples.shape[1]
    sweeps, series = [], []
    sweep, coefficients = H._chebyshev_sweep, heat._chebyshev_coefficients

    def counted(F, dts):
        sweeps.append((F.shape[1], dts.size))
        return sweep(F, dts)

    def computed(z):
        series.append(z)
        return coefficients(z)

    monkeypatch.setattr(H, "_chebyshev_sweep", counted)
    monkeypatch.setattr(heat, "_chebyshev_coefficients", computed)
    rep = estimate_ckappa(H, 1 / 64, samples=samples)
    blocks = -(-samples.shape[1] // width)
    assert len(rep.per_t_profile) == 24
    assert [size for _, size in sweeps] == [24] * blocks
    assert sum(cols for cols, _ in sweeps) == 3 * samples.shape[1]
    assert len(series) == 24


def test_block_maxima_fold_to_the_flat_argmax_rule(torus16, monkeypatch):
    # planted per-block maxima (value, local field, vertex) for two times:
    # at the first time block 1 ties block 0 at a smaller vertex and wins;
    # at the second it ties at the same vertex and the smaller field stays
    H = build_heat(torus16)
    samples = np.random.default_rng(0).standard_normal((torus16.n, 4))
    planted = [(5.0, 1, 7), (2.0, 1, 3),       # block 0: fields 0, 1
               (5.0, 0, 3), (2.0, 0, 3)]       # block 1: fields 2, 3
    maxima = iter(planted)
    monkeypatch.setattr(curvature, "_largest_required",
                        lambda out, t, scale2: next(maxima))
    # a two-field block's 6-column stack, coefficients and output
    monkeypatch.setattr(heat, "_GRID_BLOCK", 3 * 6 * torus16.n)
    assert H.grid_columns(2) == 6
    rep = estimate_ckappa(H, 1.0, samples=samples, t_grid=[0.5, 1.0])
    assert rep.c_kappa == 5.0
    assert rep.argmax == (2, 0.5, 3)
    assert rep.per_t_profile == [(0.5, 5.0), (1.0, 2.0)]
    # the same maxima with block 1 arriving first: the fold keeps its picks
    for t_index, want in ((0, (5.0, 2, 3)), (1, (2.0, 1, 3))):
        block0, block1 = planted[t_index], planted[2 + t_index]
        first = (block1[0], 2 + block1[1], block1[2])
        assert curvature._flat_argmax((-1.0, 0, 0), first) == first
        assert curvature._flat_argmax(first, block0) == want
        assert curvature._flat_argmax(block0, first) == want


@pytest.mark.parametrize("seed", range(4))
def test_block_maxima_fold_in_any_block_order(seed):
    # the (value, field, vertex) maxima of three column blocks of a required
    # array with many ties, folded in every order, are its flat argmax
    req = np.random.default_rng(seed).integers(0, 3, size=(5, 9)).astype(float)
    maxima = []
    for f0, f1 in ((0, 2), (2, 6), (6, 9)):
        x, f = np.unravel_index(np.argmax(req[:, f0:f1]), (5, f1 - f0))
        maxima.append((float(req[x, f0 + f]), f0 + int(f), int(x)))
    x, f = np.unravel_index(np.argmax(req), req.shape)
    want = (float(req[x, f]), int(f), int(x))
    for order in itertools.permutations(maxima):
        best = (-1.0, 0, 0)
        for m in order:
            best = curvature._flat_argmax(best, m)
        assert best == want


def test_ckappa_memory_stays_near_one_block_and_one_smoothing_part(monkeypatch):
    # h = 1/128, twenty sample fields: a block holds one field, so its
    # stack, coefficients and output are three columns each, and a smoothing
    # part is one column.  The fields are drawn and smoothed a part at a
    # time, so the (n, 20) sample stack is never held.  The parts run on
    # the calling thread alone: each worker thread would add the products'
    # temporaries of the part it synthesizes, up to two columns here
    space = sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 128, "sqrt_abs_x")
    H = build_heat(space)
    monkeypatch.setattr(H, "_block_workers", lambda blocks: (None, 0))
    ts = np.geomspace(1 / 128 ** 2, 1 / 64, 4)
    column = 8 * space.n
    block = 3 * (3 * max(1, H.grid_columns(ts.size) // 3)) * column
    part = max(1, heat._COLUMN_BLOCK // space.n) * column
    bound = block + part + 2 ** 20
    # the whole sample stack alone would not fit
    assert 20 * column > bound
    # a first run imports what the estimate uses
    estimate_ckappa(H, 1 / 64, t_grid=ts, seed=0, n_random=8)
    tracemalloc.start()
    try:
        rep = estimate_ckappa(H, 1 / 64, t_grid=ts, seed=0, n_random=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_fields == 20 and rep.c_kappa > 0
    assert peak <= bound


# -- the default sample stack ---------------------------------------------------

def sample_fields_by_columns(H, seed, n_random):
    """The sample stack built column by column: coordinates and seeded
    Gaussians stacked C-ordered, smoothed, and stacked again."""
    space = H.space
    cols = [space.positions[:, d] for d in range(space.positions.shape[1])]
    rng = np.random.default_rng(seed)
    cols += [rng.standard_normal(space.n) for _ in range(n_random)]
    F = np.column_stack(cols)
    return np.column_stack([F, H.apply_batch(F, space.min_edge_length ** 2)])


def test_sample_stack_is_the_column_by_column_stack(block_case):
    H, _ = block_case
    for seed, n_random in ((2, 6), (5, 3)):
        got = default_sample_fields(H, seed=seed, n_random=n_random)
        want = sample_fields_by_columns(H, seed, n_random)
        assert got.shape == want.shape and got.flags.f_contiguous
        assert got.tobytes(order="F") == want.tobytes(order="F")
        # the first half, which the curvature task hands to the commutation
        # oracle, is the drawn fields before smoothing
        drawn = got[:, :got.shape[1] // 2]
        assert drawn.tobytes(order="F") == want[:, :drawn.shape[1]].tobytes(order="F")
        rep = estimate_ckappa(H, 1 / 64, seed=seed, n_random=n_random)
        ref = estimate_ckappa(H, 1 / 64, samples=want)
        assert (rep.c_kappa, rep.argmax, rep.per_t_profile) == \
            (ref.c_kappa, ref.argmax, ref.per_t_profile)


def streamed_case(name):
    """(H, T, t_grid) of one streamed-estimate case."""
    if name == "tab16":
        # stepping: the default 24-time grid sets the block width
        return build_heat(tabulated_grid(1 / 16), mode="stepping"), 1 / 64, None
    if name == "torus32":
        return build_heat(sp_mod.uniform_torus(32, 32)), 4.0, np.geomspace(1.0, 4.0, 6)
    h = 1 / int(name[4:])
    space = sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), h, "sqrt_abs_x")
    return build_heat(space), 1 / 64, np.geomspace(h * h, 1 / 64, 6)


@pytest.mark.parametrize("name", ["sqrt32", "sqrt64", "sqrt128", "tab16", "torus32"])
def test_streamed_estimate_equals_the_whole_stack_estimate(name):
    # seven drawn fields: at h = 1/64 (parts and blocks of three fields) the
    # last part is short, and there and at h = 1/32 (blocks of 13) a block
    # straddles the drawn/smoothed boundary.  The streamed smoothings are
    # the bits of one action on all seven drawn fields, and the estimate is
    # the whole-stack estimate's to the bit
    H, T, ts = streamed_case(name)
    whole = sample_fields_by_columns(H, 3, 5)
    assert default_sample_fields(H, seed=3, n_random=5).tobytes(order="F") == \
        whole.tobytes(order="F")
    rep = estimate_ckappa(H, T, t_grid=ts, seed=3, n_random=5)
    ref = estimate_ckappa(H, T, t_grid=ts, samples=whole)
    assert rep.n_fields == 14
    # the flat torus needs no constant
    assert (rep.c_kappa == 0) == (name == "torus32")
    assert repr((rep.c_kappa, rep.argmax, rep.per_t_profile)) == \
        repr((ref.c_kappa, ref.argmax, ref.per_t_profile))


def test_negative_field_count_is_a_config_error(torus16):
    H = build_heat(torus16)
    with pytest.raises(ConfigError, match="n_random"):
        default_sample_fields(H, seed=0, n_random=-5)
    with pytest.raises(ConfigError, match="n_random"):
        estimate_ckappa(H, 1.0, seed=0, n_random=-5)


def test_sample_stack_holds_one_smoothing_part_beside_it():
    # h = 1/128, ten fields smoothed a part (one column) at a time: beside
    # the stack, the smoothing of a part holds the drawn part, its
    # coefficients, its output and the products' temporaries.  Smoothing
    # all ten fields in one action before making the stack peaked at two
    # stacks
    space = sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 128, "sqrt_abs_x")
    H = build_heat(space)
    part = max(1, heat._COLUMN_BLOCK // space.n) * 8 * space.n
    default_sample_fields(H, seed=0, n_random=8)
    tracemalloc.start()
    try:
        samples = default_sample_fields(H, seed=0, n_random=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.shape == (space.n, 20)
    assert peak <= samples.nbytes + 7 * part + 2 ** 20


def test_the_estimate_fills_gamma_into_its_stack_in_place(monkeypatch):
    # h = 1/128 (n = 66049, one field a block): Gamma is written straight
    # into its stack column, holding about two columns fewer than an
    # out-of-place field copied in (measured 4.0 against 6.0 columns above
    # what the estimate held at the call), with the same c_kappa, argmax and
    # profile
    h = 1 / 128
    space = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), h, "sqrt_abs_x")
    H = build_heat(space)

    def copied_in(space, f, g=None, out=None):
        out[...] = gamma_out_of_place(space, f, g)
        return out

    def estimate(gamma):
        peaks = []

        def spy(*args, **kwargs):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = gamma(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            return out

        monkeypatch.setattr(curvature, "carre_du_champ", spy)
        tracemalloc.start()
        try:
            rep = estimate_ckappa(H, 1 / 64, t_grid=[h * h, 4 * h * h], seed=3,
                                  n_random=2)
        finally:
            tracemalloc.stop()
        return (rep.c_kappa, rep.argmax, rep.per_t_profile), max(peaks)

    got, in_place = estimate(carre_du_champ)
    want, copied = estimate(copied_in)
    assert repr(got) == repr(want)
    assert in_place <= copied - 1.5 * 8 * space.n

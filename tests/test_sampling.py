"""Variate generators and path schemes: determinism, moments, marginal laws."""
import cmath
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import cumulative_trapezoid

from levymc.levy_models import (
    NigParams,
    VgParams,
    cumulant,
    nig_density,
    nig_mean_rate,
    vg_from_mean_variance,
)
from levymc.measures import ESSCHER, MEAN_CORRECT, MarketData, RiskNeutralModel, risk_neutralize
from levymc.sampling import (
    BLOCK_SIZE,
    PathGrid,
    RngStream,
    _standard_gamma,
    inverse_gaussian_from_draws,
    sample_gamma,
    sample_inverse_gaussian,
    sample_standard_normal,
    simulate_paths,
    step_sampler,
)

NIG_BENCH = NigParams(alpha=81.6, beta=3.69, mu=-0.000123, delta=0.0103)


def driftless(model, s0=1.0) -> RiskNeutralModel:
    """A bare simulation harness: no rate, no correction, spot scaled by s0."""
    return RiskNeutralModel(
        model=model, measure="mean_correct", drift_rate=0.0, omega=0.0,
        market=MarketData(s0=s0, r=0.0, T=1.0),
    )


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_rng_stream_is_reproducible():
    a = sample_standard_normal(RngStream(123, 5), size=64)
    b = sample_standard_normal(RngStream(123, 5), size=64)
    assert np.array_equal(a, b)


def test_rng_streams_differ_across_ids():
    a = sample_standard_normal(RngStream(123, 0), size=64)
    b = sample_standard_normal(RngStream(123, 1), size=64)
    assert not np.array_equal(a, b)


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)


# ---------------------------------------------------------------------------
# variate generators
# ---------------------------------------------------------------------------

def test_normal_sample_moments():
    draws = sample_standard_normal(RngStream(2024), size=1_000_000)
    assert abs(draws.mean()) <= 4.0 / 1000.0
    assert draws.var(ddof=1) == pytest.approx(1.0, rel=0.01)


def test_gamma_exponential_special_case():
    draws = sample_gamma(RngStream(7, 1), shape=1.0, rate=1.0, size=10_000)
    assert stats.kstest(draws, "expon").pvalue > 0.01


def test_gamma_sample_moments():
    shape, rate = 2.5, 3.0
    draws = sample_gamma(RngStream(7, 2), shape, rate, size=1_000_000)
    se_mean = draws.std(ddof=1) / 1000.0
    assert draws.mean() == pytest.approx(shape / rate, abs=4.0 * se_mean)
    assert draws.var(ddof=1) == pytest.approx(shape / rate**2, rel=0.02)


def test_gamma_small_shape_supported():
    draws = sample_gamma(RngStream(7, 3), shape=0.0625, rate=1.0, size=200_000)
    assert np.all(draws > 0)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert draws.mean() == pytest.approx(0.0625, abs=4.0 * se)


def test_gamma_scale_family():
    scaled = 3.0 * sample_gamma(RngStream(11, 0), shape=2.0, rate=3.0, size=40_000)
    unit = sample_gamma(RngStream(11, 1), shape=2.0, rate=1.0, size=40_000)
    assert stats.ks_2samp(scaled, unit).pvalue > 0.01


@pytest.mark.parametrize("shape", [1.0 / 16.0, 0.2083, 0.5, 0.99])
def test_standard_gamma_small_shape_law(shape):
    draws = _standard_gamma(np.random.Generator(np.random.SFC64(29)), shape, 200_000)
    assert stats.kstest(draws, stats.gamma(shape).cdf).pvalue > 0.01
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert draws.mean() == pytest.approx(shape, abs=4.0 * se)


class _RecordingGenerator:
    """A generator that keeps each standard_gamma array it hands out."""

    def __init__(self, gen):
        self.gen, self.refills = gen, []

    def random(self, n):
        return self.gen.random(n)

    def standard_exponential(self, n):
        return self.gen.standard_exponential(n)

    def standard_gamma(self, shape, n):
        self.refills.append(self.gen.standard_gamma(shape, n))
        return self.refills[-1]


def test_standard_gamma_refills_rejected_slots_with_one_call():
    gen = _RecordingGenerator(np.random.Generator(np.random.SFC64(31)))
    draws = _standard_gamma(gen, 1.0 / 16.0, 4096)
    assert len(gen.refills) == 1
    refill = gen.refills[0]
    assert 0 < refill.size < 4096 // 10  # about 3% of the slots at shape 1/16
    assert np.array_equal(draws[np.isin(draws, refill)], refill)


def test_standard_gamma_one_slot_is_numpys_draw():
    # a one-slot trial and its refill read the stream as numpy's scalar loop
    # does, so they give numpy's variate up to the rounding of exp(log(u)/a);
    # 200 seeds at shape 0.3 include rejected trials
    for seed in range(200):
        for shape in (1.0 / 16.0, 0.3):
            ours = _standard_gamma(np.random.Generator(np.random.SFC64(seed)), shape, 1)[0]
            numpys = np.random.Generator(np.random.SFC64(seed)).standard_gamma(shape)
            assert ours == pytest.approx(numpys, rel=1e-12)


@pytest.mark.parametrize("shape", [1.0, 2.5, 7.0])
def test_standard_gamma_at_shape_one_and_above_is_numpys(shape):
    ours = _standard_gamma(np.random.Generator(np.random.SFC64(37)), shape, 10_000)
    assert np.array_equal(ours, np.random.Generator(np.random.SFC64(37)).standard_gamma(shape, 10_000))
    gamma = sample_gamma(RngStream(37), shape, 3.0, size=10_000)
    assert np.array_equal(gamma, RngStream(37).generator().gamma(shape, 1.0 / 3.0, 10_000))
    assert sample_gamma(RngStream(37), shape, 3.0) == RngStream(37).generator().gamma(shape, 1.0 / 3.0)


class _EdgeUniforms(_RecordingGenerator):
    """Uniforms at the ends of [0, 1): 0 and the largest double below 1."""

    def random(self, n):
        return np.resize([0.0, 1.0 - 2.0**-53], n)


@pytest.mark.parametrize("shape", [1.0 / 16.0, 0.5, 0.99])
def test_standard_gamma_edge_uniforms_are_finite_without_warnings(shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = _standard_gamma(_EdgeUniforms(np.random.Generator(np.random.SFC64(41))), shape, 64)
    assert np.all(np.isfinite(draws)) and np.all(draws >= 0.0)


def test_gamma_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sample_gamma(RngStream(1), shape=0.0, rate=1.0)
    with pytest.raises(ValueError):
        sample_gamma(RngStream(1), shape=1.0, rate=-2.0)


def test_inverse_gaussian_rejects_bad_parameters():
    with pytest.raises(ValueError, match="mean must be > 0"):
        sample_inverse_gaussian(RngStream(1), mean=0.0, shape=1.0)
    with pytest.raises(ValueError, match="shape must be > 0"):
        sample_inverse_gaussian(RngStream(1), mean=1.0, shape=-2.0)


@pytest.mark.parametrize("size", [None, 1, 1000, (3, 5)])
def test_sample_inverse_gaussian_is_the_ig_transform_of_its_streams_draws(size):
    # the ig step's draws: count squared normals, then count uniforms, mapped by the one transform
    mean, shape = 1.7, 2.2
    n = 1 if size is None else int(np.prod(size))
    gen = RngStream(31, 2).generator()
    z = inverse_gaussian_from_draws(gen.standard_normal(n) ** 2, gen.random(n), mean, shape)
    drawn = sample_inverse_gaussian(RngStream(31, 2), mean, shape, size=size)
    if size is None:
        assert type(drawn) is float and drawn == z[0]
    else:
        assert np.array_equal(drawn, z.reshape(size))


def test_inverse_gaussian_moments():
    mean, shape = 1.7, 2.2
    draws = sample_inverse_gaussian(RngStream(5, 0), mean, shape, size=1_000_000)
    se = draws.std(ddof=1) / 1000.0
    assert draws.mean() == pytest.approx(mean, abs=4.0 * se)
    assert draws.var(ddof=1) == pytest.approx(mean**3 / shape, rel=0.02)
    assert np.all(draws > 0)


def _nig_step_ig(dt):
    # the IG mean and shape of one ig step of NIG_BENCH
    return NIG_BENCH.delta * dt / NIG_BENCH.gamma_bar, (NIG_BENCH.delta * dt) ** 2


# shape/mean = delta*dt*gamma_bar: 0.0044 at the nig-asian step (T = 1/12,
# s = 16), 0.016 and 0.84 at one step of the surface's shortest and longest
# maturity (T = 1/52 and 1), and a near-normal 50
_MSH_STEPS = [_nig_step_ig(dt) for dt in (1.0 / 192.0, 1.0 / 52.0, 1.0)] + [(2.0, 100.0)]
_MSH_IDS = ["nig-asian-step", "surface-1-week", "surface-1-year", "near-normal"]


@pytest.mark.parametrize("mean, shape", _MSH_STEPS, ids=_MSH_IDS)
def test_inverse_gaussian_from_draws_moments(mean, shape):
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(83)))
    n = 1_000_000
    z = inverse_gaussian_from_draws(gen.standard_normal(n) ** 2, gen.random(n), mean, shape)
    assert np.all(z > 0)
    # IG(m, lam): variance m^3/lam, excess kurtosis 15 m/lam
    var = mean**3 / shape
    assert z.mean() == pytest.approx(mean, abs=4.0 * math.sqrt(var / n))
    assert z.var(ddof=1) == pytest.approx(var, rel=4.0 * math.sqrt((2.0 + 15.0 * mean / shape) / n))


@pytest.mark.parametrize("mean, shape", _MSH_STEPS, ids=_MSH_IDS)
def test_inverse_gaussian_from_draws_matches_wald(mean, shape):
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(89)))
    n = 20_000
    msh = inverse_gaussian_from_draws(gen.standard_normal(n) ** 2, gen.random(n), mean, shape)
    assert stats.ks_2samp(msh, gen.wald(mean, shape, n)).pvalue > 0.01


def test_inverse_gaussian_from_draws_writes_only_out():
    gen = np.random.Generator(np.random.SFC64(97))
    v, u = gen.standard_normal(1000) ** 2, gen.random(1000)
    v0, u0, out = v.copy(), u.copy(), np.empty(1000)
    z = inverse_gaussian_from_draws(v, u, 0.3, 0.05, out=out)
    assert z is out
    assert np.array_equal(v, v0) and np.array_equal(u, u0)
    assert np.array_equal(out, inverse_gaussian_from_draws(v, u, 0.3, 0.05))
    # at v = 0 the root is the mean itself, up to rounding
    assert inverse_gaussian_from_draws(np.zeros(1), np.zeros(1), 0.3, 0.05)[0] == pytest.approx(0.3, rel=1e-15)


def test_inverse_gaussian_concentrates_as_shape_grows():
    variances = [
        sample_inverse_gaussian(RngStream(5, i + 1), 2.0, shape, size=100_000).var(ddof=1)
        for i, shape in enumerate([1.0, 10.0, 100.0, 1000.0])
    ]
    assert all(a > b for a, b in zip(variances, variances[1:]))
    assert variances[-1] < 0.02


# ---------------------------------------------------------------------------
# grids and determinism
# ---------------------------------------------------------------------------

def test_path_grid_dates():
    grid = PathGrid(maturity=1.0 / 12.0, n_steps=16)
    dates = grid.dates
    assert len(dates) == 16
    assert dates[-1] == 1.0 / 12.0  # exact terminal date
    np.testing.assert_allclose(np.diff(dates), grid.dt, rtol=1e-12)
    with pytest.raises(ValueError):
        PathGrid(maturity=0.0, n_steps=4)
    with pytest.raises(ValueError):
        PathGrid(maturity=1.0, n_steps=0)


def test_paths_bit_identical_across_runs_and_workers():
    rnm = driftless(NIG_BENCH, s0=36.0)
    grid = PathGrid(1.0 / 12.0, 4)
    # 40000 paths spans multiple stream blocks
    base = simulate_paths(rnm, grid, 40_000, seed=99, scheme="ig")
    again = simulate_paths(rnm, grid, 40_000, seed=99, scheme="ig")
    threaded = simulate_paths(rnm, grid, 40_000, seed=99, scheme="ig", workers=3)
    for other in (again, threaded):
        assert np.array_equal(base.terminal, other.terminal)
        assert np.array_equal(base.average, other.average)


def test_vg_paths_bit_identical_across_workers():
    rnm = driftless(vg_from_mean_variance(-0.1436, 1.0, 1.0), s0=100.0)
    grid = PathGrid(1.0, 8)
    a = simulate_paths(rnm, grid, 33_000, seed=3, scheme="dg")
    b = simulate_paths(rnm, grid, 33_000, seed=3, scheme="dg", workers=4)
    assert np.array_equal(a.terminal, b.terminal)
    assert np.array_equal(a.average, b.average)


def test_simulated_spots_are_positive():
    rnm = driftless(NIG_BENCH, s0=36.0)
    paths = simulate_paths(rnm, PathGrid(1.0, 8), 20_000, seed=1, scheme="ig")
    assert np.all(paths.terminal > 0)
    assert np.all(paths.average > 0)


def test_scheme_dispatch_compatibility():
    nig_rnm = driftless(NIG_BENCH)
    vg_rnm = driftless(VgParams(0.0, 1.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        simulate_paths(nig_rnm, PathGrid(1.0, 2), 10, seed=0, scheme="dg")
    with pytest.raises(ValueError):
        simulate_paths(vg_rnm, PathGrid(1.0, 2), 10, seed=0, scheme="ig")
    with pytest.raises(ValueError):
        simulate_paths(vg_rnm, PathGrid(1.0, 2), 10, seed=0, scheme="sobol")
    with pytest.raises(ValueError):
        simulate_paths([nig_rnm, vg_rnm], PathGrid(1.0, 2), 10, seed=0, scheme="ig")
    with pytest.raises(ValueError):
        simulate_paths([], PathGrid(1.0, 2), 10, seed=0, scheme="ig")
    with pytest.raises(ValueError, match="n_paths must be >= 1, got 0"):
        simulate_paths(nig_rnm, PathGrid(1.0, 2), 0, seed=0, scheme="ig")


def test_gamma_is_a_scaled_standard_gamma():
    # the VG samplers and sample_gamma draw standard gammas and scale them,
    # which is what Generator.gamma does internally; that makes the draws
    # independent of the gamma rates
    for shape, scale in [(0.0625, 1.0 / 0.7), (0.20833333333333334, 3.3), (5.0, 0.1)]:
        a = np.random.Generator(np.random.SFC64(7)).gamma(shape, scale, 10_000)
        b = scale * np.random.Generator(np.random.SFC64(7)).standard_gamma(shape, 10_000)
        assert np.array_equal(a, b)


# the VG parameters of the vg-table and vg-lecuyer presets
_VG_TABLE = vg_from_mean_variance(beta=-0.1436, sigma=1.0, nu=1.0)
_VG_LECUYER = vg_from_mean_variance(beta=-0.1436, sigma=0.12136, nu=0.3)
_VG_MARKET = MarketData(s0=100.0, r=0.1, T=1.0)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("params, scheme", [
    (_VG_TABLE, "bgss"), (_VG_TABLE, "dg"), (_VG_LECUYER, "bgss"), (_VG_LECUYER, "dg"), (NIG_BENCH, "ig"),
])
def test_shared_draws_give_each_model_its_own_paths_bit_for_bit(params, scheme, workers):
    # Esscher moves gamma rates and the IG mean, neither of which the draws
    # depend on, so one simulation serves both measures; each PathSet is the
    # one-model PathSet
    models = [risk_neutralize(params, _VG_MARKET, measure) for measure in (ESSCHER, MEAN_CORRECT)]
    grid, n_paths = PathGrid(1.0, 8), 2 * BLOCK_SIZE + 5
    assert models[0].drift_rate != models[1].drift_rate
    shared = simulate_paths(models, grid, n_paths, seed=17, scheme=scheme, workers=workers)
    assert len(shared) == 2
    for model, paths in zip(models, shared):
        alone = simulate_paths(model, grid, n_paths, seed=17, scheme=scheme, workers=workers)
        assert np.array_equal(paths.terminal, alone.terminal)
        assert np.array_equal(paths.average, alone.average)
    assert not np.array_equal(shared[0].terminal, shared[1].terminal)


@pytest.mark.parametrize("params, market, scheme", [
    # the IG shapes (delta*dt)^2 differ
    ((NIG_BENCH, NigParams(alpha=81.6, beta=3.69, mu=-0.000123, delta=0.0206)),
     MarketData(s0=36.0, r=0.1, T=1.0 / 12.0), "ig"),
    ((_VG_TABLE, _VG_LECUYER), _VG_MARKET, "dg"),  # the leg shapes dt/nu differ
])
def test_models_whose_draws_differ_are_not_simulated_together(params, market, scheme):
    models = [risk_neutralize(p, market, ESSCHER) for p in params]
    keys = [step_sampler(model, 1.0 / 16.0, scheme).key for model in models]
    assert keys[0] != keys[1]
    with pytest.raises(ValueError, match="cannot be shared"):
        simulate_paths(models, PathGrid(1.0, 16), 10, seed=0, scheme=scheme)


def _ig_draws(rnm, dt):
    p = rnm.model
    m, lam = p.delta * dt / p.gamma_bar, (p.delta * dt) ** 2
    two_rho = 2.0 * lam / m

    def step(gen, n):
        v = gen.standard_normal(n) ** 2
        u = gen.random(n)
        x = m * two_rho / ((np.sqrt((v + 2.0 * two_rho) * v) + v) + two_rho)
        z = np.where(u * (x + m) <= m, x, m * m / x)
        return (p.beta * z + (p.mu + rnm.drift_rate) * dt) + np.sqrt(z) * gen.standard_normal(n)

    return step


def _small_shape_gammas(gen, a, n):
    # numpy's shape < 1 method, one trial per slot written with np.where: U
    # uniforms, then E exponentials; x = U^(1/a) against E when U <= 1 - a,
    # else x = (1 - a + a*Y)^(1/a) against E + Y with Y = -log((1 - U)/a);
    # the rejected slots, in order, get one Generator.standard_gamma array
    assert a < 1.0
    u, e = gen.random(n), gen.standard_exponential(n)
    tail = u > 1.0 - a
    y = np.where(tail, -np.log((1.0 - u) / a), 0.0)
    x = np.where(tail, (1.0 - a + a * y) ** (1.0 / a), np.exp(np.log(u) / a))
    rejected = x > e + y
    x[rejected] = gen.standard_gamma(a, np.count_nonzero(rejected))
    return x


def _bgss_draws(rnm, dt):
    p = rnm.model

    def step(gen, n):
        z = (1.0 / p.gamma_rate) * _small_shape_gammas(gen, p.lam * dt, n)
        return (p.x0 + rnm.drift_rate) * dt + p.beta * z + p.sigma * np.sqrt(z) * gen.standard_normal(n)

    return step


def _dg_draws(rnm, dt):
    # layout v4's leg arithmetic: beta and sigma on the unit-mean clock, whose
    # variance rate is nu = 1/lam; leg mean rates m+-, scales m+-^2*nu/m+-, shape dt/nu
    p = rnm.model
    unit = p.lam / p.gamma_rate
    beta, sigma, nu = p.beta * unit, p.sigma * math.sqrt(unit), 1.0 / p.lam
    root = math.sqrt(beta**2 + 2.0 * sigma**2 / nu)
    m_p, m_m = 0.5 * (root + beta), 0.5 * (root - beta)

    def step(gen, n):
        g = _small_shape_gammas(gen, dt / nu, 2 * n)
        return (p.x0 + rnm.drift_rate) * dt + (m_p**2 * nu / m_p) * g[:n] - (m_m**2 * nu / m_m) * g[n:]

    return step


_LAYOUT_VG = VgParams(x0=0.05, lam=2.0, gamma_rate=4.0, beta=-0.3, sigma=0.6)
_LAYOUT_CASES = {"ig": (NIG_BENCH, _ig_draws), "bgss": (_LAYOUT_VG, _bgss_draws), "dg": (_LAYOUT_VG, _dg_draws)}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scheme", sorted(_LAYOUT_CASES))
def test_stream_layout_is_pinned(scheme, workers):
    # stream layout v4: block b of BLOCK_SIZE paths reads
    # SFC64(SeedSequence(seed, spawn_key=(b,))); each step draws the scheme's
    # variates for the whole block, in order (ig: normals whose squares feed
    # the Michael-Schucany-Haas map, uniforms, path normals; bgss: clock
    # gammas, path normals; dg: 2*count gammas, up legs first), every gamma
    # of shape < 1 by one trial of numpy's method and a refill.  The walker's
    # per-block terminal spots and averages equal those of the full reference
    # matrix bit for bit, each average its dates summed in date order.
    # _LAYOUT_VG's gamma shapes are 1/4 and 1/16.
    model, draws = _LAYOUT_CASES[scheme]
    rnm = RiskNeutralModel(
        model=model, measure="mean_correct", drift_rate=0.03, omega=0.0, market=MarketData(36.0, 0.0, 1.0),
    )
    n_paths, seed = BLOCK_SIZE + 3, 2024
    for n_steps in (4, 16):
        grid = PathGrid(0.5, n_steps)
        step = draws(rnm, grid.dt)
        blocks = []
        for b, lo in enumerate(range(0, n_paths, BLOCK_SIZE)):
            gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))
            count = min(BLOCK_SIZE, n_paths - lo)
            blocks.append(np.column_stack([step(gen, count) for _ in range(grid.n_steps)]))
        expected = rnm.market.s0 * np.exp(np.cumsum(np.vstack(blocks), axis=1))
        paths = simulate_paths(rnm, grid, n_paths, seed, scheme=scheme, workers=workers)
        assert paths.n_paths == n_paths
        assert np.array_equal(paths.terminal, expected[:, -1])
        assert np.array_equal(paths.average, functools.reduce(np.add, expected.T) / n_steps)


@pytest.mark.parametrize("measure", [ESSCHER, MEAN_CORRECT])
@pytest.mark.parametrize("scheme, params, market", [
    ("ig", NIG_BENCH, MarketData(36.0, 0.1, 1.0 / 12.0)),
    ("bgss", _VG_LECUYER, _VG_MARKET),
    ("dg", _VG_LECUYER, _VG_MARKET),
    ("bgss", _LAYOUT_VG, MarketData(36.0, 0.05, 0.5)),
    ("dg", _LAYOUT_VG, MarketData(36.0, 0.05, 0.5)),
])
def test_discounted_spot_is_a_martingale(scheme, params, market, measure):
    # e^{-rT} E[S_T] = S0 under every (scheme, measure); the parameters have
    # E[S_T^2] < inf, so the standard error is finite (vg-table's is not)
    rnm = risk_neutralize(params, market, measure)
    assert math.isfinite(cumulant(rnm.model, 2.0).real)
    paths = simulate_paths(rnm, PathGrid(market.T, 4), 200_000, seed=4001, scheme=scheme, workers=2)
    discounted = math.exp(-market.r * market.T) * paths.terminal
    se = discounted.std(ddof=1) / math.sqrt(paths.n_paths)
    assert discounted.mean() == pytest.approx(market.s0, abs=4.0 * se)


@pytest.mark.parametrize("seed", [2024, 2**64 - 1])
def test_rng_stream_matches_walker_block(seed):
    # RngStream(seed, b) is the stream the walker gives block b
    rnm = RiskNeutralModel(
        model=NIG_BENCH, measure="mean_correct", drift_rate=0.0, omega=0.0, market=MarketData(1.0, 0.0, 1.0),
    )
    grid, n_paths = PathGrid(0.5, 1), BLOCK_SIZE + 3
    step = _ig_draws(rnm, grid.dt)
    terminal = simulate_paths(rnm, grid, n_paths, seed, scheme="ig").terminal
    for b, lo in enumerate(range(0, n_paths, BLOCK_SIZE)):
        count = min(BLOCK_SIZE, n_paths - lo)
        assert np.array_equal(terminal[lo:lo + count], np.exp(step(RngStream(seed, b).generator(), count)))


@pytest.mark.parametrize("n_steps", [16, 64])
@pytest.mark.parametrize("workers", [1, 2])
def test_simulation_never_holds_the_path_matrix(workers, n_steps):
    # each path's average accumulates as its steps are made, so the traced peak
    # stays far below one (n_paths, s) float64 matrix, and beyond the two output
    # n-vectors each worker holds a number of block-length vectors that does not grow with s
    n_paths, grid = 32 * BLOCK_SIZE, PathGrid(1.0, n_steps)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        simulate_paths(driftless(NIG_BENCH), grid, n_paths, seed=5, scheme="ig", workers=workers)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < n_paths * grid.n_steps * 8 / 4
    assert peak - 2 * 8 * n_paths < workers * 16 * BLOCK_SIZE * 8


# ---------------------------------------------------------------------------
# NIG scheme
# ---------------------------------------------------------------------------

def test_nig_one_step_mean():
    drift = 0.08
    rnm = RiskNeutralModel(
        model=NIG_BENCH, measure="mean_correct", drift_rate=drift, omega=0.0,
        market=MarketData(1.0, 0.0, 1.0),
    )
    dt = 1.0 / 12.0
    paths = simulate_paths(rnm, PathGrid(dt, 1), 1_000_000, seed=31, scheme="ig")
    inc = np.log(paths.terminal)  # s0 = 1
    se = inc.std(ddof=1) / 1000.0
    assert inc.mean() == pytest.approx(dt * (nig_mean_rate(NIG_BENCH) + drift), abs=4.0 * se)


def test_nig_one_step_marginal_matches_density():
    t = 1.0 / 12.0
    # quadrature CDF of the increment density on a dense grid
    xs = np.linspace(-0.3, 0.3, 120_001)
    pdf = nig_density(NIG_BENCH, xs, t)
    cdf = np.concatenate([[0.0], cumulative_trapezoid(pdf, xs)])
    cdf /= cdf[-1]
    # one step of t, and eight steps of t/8 whose sum has the same law
    for n_steps in (1, 8):
        paths = simulate_paths(driftless(NIG_BENCH), PathGrid(t, n_steps), 10_000, seed=37, scheme="ig")
        result = stats.kstest(np.log(paths.terminal), lambda v: np.interp(v, xs, cdf))
        assert result.pvalue > 0.01


def test_nig_symmetric_case_sign_flip():
    p = NigParams(alpha=10.0, beta=0.0, mu=0.0, delta=0.5)
    a = np.log(simulate_paths(driftless(p), PathGrid(1.0, 1), 10_000, seed=41, scheme="ig").terminal)
    b = np.log(simulate_paths(driftless(p), PathGrid(1.0, 1), 10_000, seed=43, scheme="ig").terminal)
    assert stats.ks_2samp(a, -b).pvalue > 0.01


# ---------------------------------------------------------------------------
# VG schemes
# ---------------------------------------------------------------------------

def test_bgss_degenerate_brownian_reduces_to_gamma():
    p = VgParams(x0=0.1, lam=1.3, gamma_rate=2.0, beta=0.7, sigma=1e-9)
    paths = simulate_paths(driftless(p), PathGrid(1.0, 1), 10_000, seed=53, scheme="bgss")
    scaled = (np.log(paths.terminal) - p.x0) / p.beta  # s0 = 1
    assert stats.kstest(scaled, "gamma", args=(1.3, 0.0, 0.5)).pvalue > 0.01


def test_bgss_one_step_mean():
    p = VgParams(x0=0.05, lam=2.0, gamma_rate=4.0, beta=-0.3, sigma=0.6)
    drift = 0.02
    rnm = RiskNeutralModel(
        model=p, measure="mean_correct", drift_rate=drift, omega=0.0,
        market=MarketData(1.0, 0.0, 1.0),
    )
    dt = 0.25
    paths = simulate_paths(rnm, PathGrid(dt, 1), 1_000_000, seed=59, scheme="bgss")
    inc = np.log(paths.terminal)  # s0 = 1
    se = inc.std(ddof=1) / 1000.0
    expected = dt * (p.x0 + p.beta * p.lam / p.gamma_rate + drift)
    assert inc.mean() == pytest.approx(expected, abs=4.0 * se)


@pytest.mark.parametrize("scheme, model", [
    ("ig", NigParams(alpha=8.0, beta=-2.0, mu=0.05, delta=0.6)),
    ("bgss", _VG_LECUYER),
    ("dg", _VG_LECUYER),
    # a clock whose mean rate lam/gamma_rate is not 1 and x0 != 0: the law of dg's unit-clock remap
    ("bgss", _LAYOUT_VG),
    ("dg", _LAYOUT_VG),
], ids=["ig", "bgss", "dg", "bgss-subordinated", "dg-subordinated"])
def test_terminal_matches_char_function(scheme, model):
    paths = simulate_paths(driftless(model), PathGrid(1.0, 16), 200_000, seed=61, scheme=scheme)
    y = np.log(paths.terminal)
    for u in (1.0, 2.0, 5.0):
        phi = cmath.exp(cumulant(model, 1j * u))
        re, im = np.cos(u * y), np.sin(u * y)
        assert re.mean() == pytest.approx(phi.real, abs=4.0 * re.std(ddof=1) / math.sqrt(len(y)))
        assert im.mean() == pytest.approx(phi.imag, abs=4.0 * im.std(ddof=1) / math.sqrt(len(y)))


def test_dg_and_bgss_share_terminal_distribution():
    p = vg_from_mean_variance(beta=-0.1436, sigma=1.0, nu=1.0)
    grid = PathGrid(1.0, 16)
    y_bgss = np.log(simulate_paths(driftless(p), grid, 10_000, seed=67, scheme="bgss").terminal)
    y_dg = np.log(simulate_paths(driftless(p), grid, 10_000, seed=71, scheme="dg").terminal)
    assert stats.ks_2samp(y_bgss, y_dg).pvalue > 0.01


def test_dg_handles_tilted_clock():
    # a tilted parameter set (gamma_rate != lam) exercises the unit-clock remap
    p = VgParams(x0=1e-8, lam=1.0, gamma_rate=0.8853, beta=-0.5, sigma=1.0)
    grid = PathGrid(1.0, 16)
    y_bgss = np.log(simulate_paths(driftless(p), grid, 10_000, seed=73, scheme="bgss").terminal)
    y_dg = np.log(simulate_paths(driftless(p), grid, 10_000, seed=79, scheme="dg").terminal)
    assert stats.ks_2samp(y_bgss, y_dg).pvalue > 0.01

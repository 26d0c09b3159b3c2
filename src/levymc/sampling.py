"""Seeded variate generation and path simulation.

``simulate_paths(..., scheme=...)`` is the one path simulator.  ``SCHEMES``
maps each scheme to the model kind it simulates and its per-step sampler; it
is the only place where scheme/model compatibility is defined, and
``MODEL_SCHEMES`` (each model's schemes, default first) is derived from it.

Each sampler is split into ``draw``, which consumes the generator, and
``assemble``, which turns the draws into log increments.  ``key`` names every
value the draws depend on, so models whose keys are equal are simulated
together: each block draws its variates once per step, and every model
builds its own paths from them.  Both measures share their draws under every
scheme: the Esscher tilt moves gamma rates but never a gamma shape, and one
``ig`` step draws v = nu^2 of a standard normal nu, a uniform U and the path
normal, from which each measure builds its own inverse Gaussian variate
(``inverse_gaussian_from_draws``).  A ``bgss`` step draws count standard
gammas of shape lam*dt (the clock), then count path normals; a ``dg`` step
draws one array of 2*count standard gammas of shape dt/nu, the up legs then
the down legs.  Every gamma comes from ``_standard_gamma``, which below shape
1 draws count uniforms, count exponentials and a refill of the rejected slots.

Reproducibility model: every simulation consumes randomness through SFC64
streams keyed by (seed, block index), one ``SeedSequence(seed,
spawn_key=(block,))`` per block (``STREAM_LAYOUT``).  Paths are generated in
fixed-size blocks, and each path's terminal spot and average accumulate in
their block positions step by step (each average sums its dates in date
order), so no path is ever held and the output is bit-identical across runs
and across any number of workers.  The block size is a build constant;
changing it changes the stream layout.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .measures import RiskNeutralModel

__all__ = [
    "RngStream",
    "PathGrid",
    "PathSet",
    "sample_standard_normal",
    "sample_gamma",
    "sample_inverse_gaussian",
    "inverse_gaussian_from_draws",
    "simulate_paths",
    "step_sampler",
    "StepSampler",
    "SCHEMES",
    "MODEL_SCHEMES",
    "STREAM_LAYOUT",
]

# Fixed stream-block width; not tunable, or identical seeds would stop
# producing identical output.
BLOCK_SIZE = 16384

# Which generator and keying produce stream (seed, stream_id); a fixed seed
# gives the same output only within one layout.
#   v1: Philox with key [seed, stream_id].
#   v2: SFC64 seeded by SeedSequence(seed, spawn_key=(stream_id,)), the same
#       stream SeedSequence(seed).spawn() hands to child stream_id.
#   v3: the v2 streams; an ig step draws count normals (squared), count
#       uniforms and count path normals instead of Generator.wald and normals.
#   v4: the v3 streams; bgss and dg gammas of shape < 1 come from one
#       vectorised trial of numpy's method plus a refill (_standard_gamma),
#       and a dg step draws its two legs as one array of 2*count gammas.
STREAM_LAYOUT = 4


def _generator(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(stream_id,))))


@dataclass(frozen=True)
class RngStream:
    """An independent, reproducible randomness source keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 0 <= self.stream_id < 2**64:
            raise ValueError("stream_id must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        return _generator(self.seed, self.stream_id)


def _as_generator(rng: Union[RngStream, np.random.Generator]) -> np.random.Generator:
    return rng.generator() if isinstance(rng, RngStream) else rng


def sample_standard_normal(rng, size=None):
    """Standard normal variate(s)."""
    return _as_generator(rng).standard_normal(size)


def _standard_gamma(gen: np.random.Generator, shape: float, count: int) -> np.ndarray:
    """``count`` iid standard Gamma(shape) variates, the one gamma draw of every sampler.

    Shape >= 1 is ``gen.standard_gamma`` unchanged.  Below 1 it is one
    vectorised trial of numpy's own method for shape a < 1
    (``random_standard_gamma`` in numpy's ``distributions.c``) over the whole
    array: with U uniform and E standard exponential, x = U^(1/a) is accepted
    when x <= E if U <= 1 - a; otherwise, with Y = -log((1 - U)/a),
    x = (1 - a + a*Y)^(1/a) is accepted when x <= E + Y.  An accepted slot
    has the Gamma(a) law, and the slots a trial rejects (3% at a = 1/16) are
    refilled by one ``gen.standard_gamma`` call, so every slot is iid
    Gamma(a).  numpy makes these variates in a scalar loop that calls ``pow``
    once per variate; here U^(1/a) = exp(log(U)/a) runs on SIMD ufuncs.  The
    draws are count uniforms, count exponentials, then the refill.
    """
    if shape >= 1.0:
        return gen.standard_gamma(shape, count)
    u = gen.random(count)
    bound = gen.standard_exponential(count)
    with np.errstate(divide="ignore"):  # U = 0 gives x = exp(-inf) = 0
        x = np.log(u)
    x /= shape
    np.exp(x, out=x)
    tail = np.flatnonzero(u > 1.0 - shape)
    y = np.log((1.0 - u[tail]) / shape)
    np.negative(y, out=y)
    x[tail] = ((1.0 - shape) + shape * y) ** (1.0 / shape)
    bound[tail] += y
    rejected = np.flatnonzero(x > bound)
    x[rejected] = gen.standard_gamma(shape, rejected.size)
    return x


def sample_gamma(rng, shape: float, rate: float, size=None):
    """Gamma variate(s) with the given shape and rate; shape < 1 is supported.

    Standard gammas from the samplers' own draw (``_standard_gamma``) scaled
    by 1/rate, as ``Generator.gamma`` scales them; at shape >= 1 the result
    is ``Generator.gamma(shape, 1/rate, size)`` bit for bit.
    """
    if not shape > 0:
        raise ValueError(f"shape must be > 0, got {shape}")
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    gen, scale = _as_generator(rng), 1.0 / rate
    if size is None:
        return scale * float(_standard_gamma(gen, shape, 1)[0])
    return scale * _standard_gamma(gen, shape, int(np.prod(size))).reshape(size)


def sample_inverse_gaussian(rng, mean: float, shape: float, size=None):
    """Inverse Gaussian variate(s): E = mean, Var = mean^3 / shape.

    Generated by the one-normal-one-uniform transformation method, so the
    draw count per variate is constant.
    """
    if not mean > 0:
        raise ValueError(f"mean must be > 0, got {mean}")
    if not shape > 0:
        raise ValueError(f"shape must be > 0, got {shape}")
    return _as_generator(rng).wald(mean, shape, size)


@dataclass(frozen=True)
class PathGrid:
    """Equally spaced monitoring dates t_i = i*T/s for i = 1..s."""

    maturity: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.maturity > 0:
            raise ValueError(f"maturity must be > 0, got {self.maturity}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.maturity / self.n_steps

    @property
    def dates(self) -> np.ndarray:
        # linspace pins the final date to the maturity exactly
        return np.linspace(self.dt, self.maturity, self.n_steps)


@dataclass
class PathSet:
    """The two per-path statistics the payoffs read, not the paths themselves.

    ``terminal[i]`` is path i's spot at the maturity and ``average[i]`` its
    arithmetic mean over the monitored dates t_1..t_s; both accumulate while
    the path is simulated.
    """

    terminal: np.ndarray
    average: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.average.shape[0]


class StepSampler(NamedTuple):
    """One model's per-step sampling under one scheme, split where models can share draws.

    ``key`` holds every value the draws depend on, compared exactly: models
    with equal keys consume a generator identically, so one ``draw`` serves
    them all and each applies its own ``assemble``.
    """

    key: tuple[float, ...]
    # (gen, count) -> the step's variates; the only part that consumes the generator
    draw: Callable[[np.random.Generator, int], tuple[np.ndarray, ...]]
    # (variates, out) -> writes one column of count log increments into out; the variates are not written
    assemble: Callable[[tuple[np.ndarray, ...], np.ndarray], None]


def inverse_gaussian_from_draws(v: np.ndarray, u: np.ndarray, mean: float, shape: float,
                                out: np.ndarray | None = None) -> np.ndarray:
    """IG(mean, shape) variates from v = nu^2 of standard normals nu and uniforms u.

    The transformation of Michael, Schucany & Haas (1976), the method of
    ``Generator.wald``: with rho = shape/mean, the smaller root of the IG
    chi-square equation is

        x = mean*2rho / (2rho + v + sqrt(v*(v + 4rho))),

    a quotient of positive terms (no 0/0 at v = 0, no cancellation), and the
    variate is x if u*(mean + x) <= mean, else mean^2/x.  Written into
    ``out`` when given; ``v`` and ``u`` are not written.
    """
    two_rho = 2.0 * shape / mean
    x = np.add(v, 2.0 * two_rho, out=out)
    x *= v
    np.sqrt(x, out=x)
    x += v
    x += two_rho
    np.divide(mean * two_rho, x, out=x)
    reject = np.add(x, mean)
    reject *= u
    return np.divide(mean * mean, x, out=x, where=reject > mean)


def _ig_step(rnm: RiskNeutralModel, dt: float) -> StepSampler:
    """NIG by inverse Gaussian subordination, exact in law at any step count.

    Log increment (mu + drift_rate)*dt + beta*z + sqrt(z)*eps with
    z ~ IG(delta*dt/sqrt(alpha^2 - beta^2), (delta*dt)^2) and eps ~ N(0,1).
    ``draw`` depends on no parameter: it returns v = nu^2 for a standard
    normal nu, a uniform U and eps, and each model maps (v, U) to its own z
    with ``inverse_gaussian_from_draws``.  Neither measure moves delta, so
    the key, the IG shape, is equal across the measures of one market and
    they share every draw.
    """
    p = rnm.model
    ig_mean = p.delta * dt / p.gamma_bar
    ig_shape = (p.delta * dt) ** 2
    base = (p.mu + rnm.drift_rate) * dt

    def draw(gen: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
        v = gen.standard_normal(count)
        np.square(v, out=v)
        return v, gen.random(count), gen.standard_normal(count)

    def assemble(variates: tuple[np.ndarray, ...], out: np.ndarray) -> None:
        v, u, eps = variates
        z = inverse_gaussian_from_draws(v, u, ig_mean, ig_shape, out=out)
        scratch = np.sqrt(z)
        scratch *= eps
        z *= p.beta
        z += base
        z += scratch

    return StepSampler((ig_shape,), draw, assemble)


def _bgss_step(rnm: RiskNeutralModel, dt: float) -> StepSampler:
    """VG by Brownian-gamma sequential sampling.

    The clock z ~ Gamma(lam*dt, gamma_rate) first, then the log increment
    (x0 + drift_rate)*dt + beta*z + sigma*sqrt(z)*N(0,1).  The clock is drawn
    as a standard gamma and scaled, which is how ``Generator.gamma`` computes
    it, so the draws depend on the shape alone.
    """
    p = rnm.model
    clock_shape = p.lam * dt
    clock_scale = 1.0 / p.gamma_rate
    base = (p.x0 + rnm.drift_rate) * dt

    def draw(gen: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
        return _standard_gamma(gen, clock_shape, count), gen.standard_normal(count)

    def assemble(variates: tuple[np.ndarray, ...], out: np.ndarray) -> None:
        g, eps = variates
        np.multiply(g, clock_scale, out=out)  # z
        scratch = np.sqrt(out)
        scratch *= p.sigma
        scratch *= eps
        out *= p.beta
        out += base
        out += scratch

    return StepSampler((clock_shape,), draw, assemble)


def _dg_step(rnm: RiskNeutralModel, dt: float) -> StepSampler:
    """VG as the difference of two gammas, same law as BGSS.

    With the clock rescaled to unit mean rate (beta and sigma by the clock's
    mean rate lam/gamma_rate, variance rate nu = 1/lam), the legs' mean rates
    are m+- = (sqrt(beta^2 + 2 sigma^2/nu) +- beta)/2, so m+ - m- = beta and
    m+ * m- = sigma^2/(2 nu).  Each leg is a standard gamma of shape dt/nu,
    which the Esscher tilt does not move, scaled by m+-^2*nu/m+-.  The legs
    are the two halves of one array of standard gammas, which costs fewer
    calls per step than two arrays.
    """
    p = rnm.model
    # layout v4's operations in their order: the shape dt/(1/lam) selects the draws and is not
    # always lam*dt, and the scales are rounded as m^2*nu/m, so any other factorisation of the
    # same law moves the draws or the last digits of the prices
    unit = p.lam / p.gamma_rate
    beta, sigma, nu = p.beta * unit, p.sigma * math.sqrt(unit), 1.0 / p.lam
    root = math.sqrt(beta**2 + 2.0 * sigma**2 / nu)
    m_plus, m_minus = 0.5 * (root + beta), 0.5 * (root - beta)
    shape = dt / nu
    scale_plus, scale_minus = m_plus**2 * nu / m_plus, m_minus**2 * nu / m_minus
    base = (p.x0 + rnm.drift_rate) * dt

    def draw(gen: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
        g = _standard_gamma(gen, shape, 2 * count)
        return g[:count], g[count:]

    def assemble(variates: tuple[np.ndarray, ...], out: np.ndarray) -> None:
        g_plus, g_minus = variates
        np.multiply(g_plus, scale_plus, out=out)
        out += base
        out -= scale_minus * g_minus

    return StepSampler((shape,), draw, assemble)


# scheme name -> (model kind it simulates, step-sampler factory)
SCHEMES: dict[str, tuple[str, Callable[[RiskNeutralModel, float], StepSampler]]] = {
    "ig": ("nig", _ig_step),
    "bgss": ("vg", _bgss_step),
    "dg": ("vg", _dg_step),
}

# model kind -> its schemes, default first
MODEL_SCHEMES: dict[str, tuple[str, ...]] = {
    kind: tuple(name for name, (k, _) in SCHEMES.items() if k == kind) for kind, _ in SCHEMES.values()
}


def step_sampler(rnm: RiskNeutralModel, dt: float, scheme: str) -> StepSampler:
    """The named scheme's per-step sampler for ``rnm`` at step ``dt``; rejects an unknown or incompatible scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(SCHEMES)}")
    kind, make_step = SCHEMES[scheme]
    if rnm.model_kind != kind:
        raise ValueError(f"scheme {scheme!r} is incompatible with a {rnm.model_kind} model")
    return make_step(rnm, dt)


def simulate_paths(
    rnm: RiskNeutralModel | Sequence[RiskNeutralModel],
    grid: PathGrid,
    n_paths: int,
    seed: int,
    scheme: str | None = None,
    workers: int = 1,
) -> PathSet | list[PathSet]:
    """Terminal spots and averages of paths from the named scheme, or the first model's default one.

    Given one model, returns its ``PathSet``.  Given a sequence of models
    whose ``StepSampler.key`` is equal under the scheme, returns one
    ``PathSet`` per model, in order, all built from the same draws: each is
    bit for bit the one a one-model call would return.

    Each block of ``BLOCK_SIZE`` paths draws from its own (seed, block index)
    stream, one step at a time.  Each model assembles the step into a scratch
    vector, adds it to its running log spots, writes s0 * exp(.) of them to
    its ``terminal`` slice and adds that to its ``average`` slice: the last
    step leaves S_T, and each average sums its dates in date order, then is
    divided by s.  No per-block state grows with s.
    """
    models = [rnm] if isinstance(rnm, RiskNeutralModel) else list(rnm)
    if not models:
        raise ValueError("simulate_paths needs at least one model")
    scheme = scheme or MODEL_SCHEMES[models[0].model_kind][0]
    samplers = [step_sampler(model, grid.dt, scheme) for model in models]
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if len({sampler.key for sampler in samplers}) > 1:
        raise ValueError(f"the models' {scheme!r} draws differ, so they cannot be shared")
    draw = samplers[0].draw
    outs = [PathSet(terminal=np.empty(n_paths), average=np.zeros(n_paths)) for _ in models]
    spans = [(b, lo, min(lo + BLOCK_SIZE, n_paths)) for b, lo in enumerate(range(0, n_paths, BLOCK_SIZE))]

    def run(span: tuple[int, int, int]) -> None:
        block_index, lo, hi = span
        gen = _generator(seed, block_index)
        logs = [np.zeros(hi - lo) for _ in models]  # each path's log(S_{t_j}/s0)
        step = np.empty(hi - lo)
        for _ in range(grid.n_steps):
            variates = draw(gen, hi - lo)
            for log, sampler, model, out in zip(logs, samplers, models, outs):
                sampler.assemble(variates, step)
                log += step
                spots = out.terminal[lo:hi]  # the last step leaves S_T here
                # errstate is per thread: a spot past the float range is an inf the row status reports
                with np.errstate(over="ignore"):
                    np.exp(log, out=spots)
                    spots *= model.market.s0
                    out.average[lo:hi] += spots

    with ThreadPoolExecutor(max_workers=max(1, min(workers, len(spans)))) as pool:
        list(pool.map(run, spans))
    for out in outs:
        out.average /= grid.n_steps
    return outs[0] if isinstance(rnm, RiskNeutralModel) else outs

"""Seeded variate generation and path simulation.

``simulate_paths(..., scheme=...)`` is the one path simulator.  ``SCHEMES``
maps each scheme to the model kind it simulates and its per-step sampler; it
is the only place where scheme/model compatibility is defined, and
``MODEL_SCHEMES`` (each model's schemes, default first) is derived from it.

Reproducibility model: every simulation consumes randomness through SFC64
streams keyed by (seed, block index), one ``SeedSequence(seed,
spawn_key=(block,))`` per block (stream layout v2, ``STREAM_LAYOUT``).  Paths
are generated in fixed-size blocks; each block is reduced to its paths'
terminal spots and averages, written into their block positions, so no
(n_paths, s) matrix is ever held and the output is bit-identical across runs
and across any number of workers.  The block size is a build constant;
changing it changes the stream layout.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .levy_models import VgMeanVarianceParams, vg_to_mean_variance
from .measures import RiskNeutralModel

__all__ = [
    "RngStream",
    "PathGrid",
    "PathSet",
    "sample_standard_normal",
    "sample_gamma",
    "sample_inverse_gaussian",
    "simulate_paths",
    "dg_gamma_components",
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
STREAM_LAYOUT = 2


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


def sample_gamma(rng, shape: float, rate: float, size=None):
    """Gamma variate(s) with the given shape and rate; shape < 1 is supported."""
    if not shape > 0:
        raise ValueError(f"shape must be > 0, got {shape}")
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return _as_generator(rng).gamma(shape, 1.0 / rate, size)


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
    arithmetic mean over the monitored dates t_1..t_s; both are reduced from
    the path's block while the block is in cache.
    """

    terminal: np.ndarray
    average: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.average.shape[0]


# (gen, count) -> one column of count log increments
StepSampler = Callable[[np.random.Generator, int], np.ndarray]


def _ig_step(rnm: RiskNeutralModel, dt: float) -> StepSampler:
    """NIG by inverse Gaussian subordination, exact in law at any step count.

    Log increment (mu + drift_rate)*dt + beta*z + sqrt(z)*N(0,1) with
    z ~ IG(delta*dt/sqrt(alpha^2 - beta^2), (delta*dt)^2).
    """
    p = rnm.model
    ig_mean = p.delta * dt / p.gamma_bar
    ig_shape = (p.delta * dt) ** 2
    base = (p.mu + rnm.drift_rate) * dt

    def step(gen: np.random.Generator, count: int) -> np.ndarray:
        z = gen.wald(ig_mean, ig_shape, size=count)
        eps = gen.standard_normal(count)
        return base + p.beta * z + np.sqrt(z) * eps

    return step


def _bgss_step(rnm: RiskNeutralModel, dt: float) -> StepSampler:
    """VG by Brownian-gamma sequential sampling.

    The clock z ~ Gamma(lam*dt, gamma_rate) first, then the log increment
    (x0 + drift_rate)*dt + beta*z + sigma*sqrt(z)*N(0,1).
    """
    p = rnm.model
    clock_shape = p.lam * dt
    clock_scale = 1.0 / p.gamma_rate
    base = (p.x0 + rnm.drift_rate) * dt

    def step(gen: np.random.Generator, count: int) -> np.ndarray:
        z = gen.gamma(clock_shape, clock_scale, size=count)
        eps = gen.standard_normal(count)
        return base + p.beta * z + p.sigma * np.sqrt(z) * eps

    return step


def dg_gamma_components(mv: VgMeanVarianceParams) -> tuple[float, float, float, float]:
    """Mean and variance rates (mu+, mu-, nu+, nu-) of the two gamma legs.

    mu+- = (sqrt(beta^2 + 2 sigma^2/nu) +- beta)/2 and nu+- = mu+-^2 * nu, so
    that mu+ - mu- = beta and mu+ * mu- = sigma^2/(2 nu).
    """
    root = np.sqrt(mv.beta**2 + 2.0 * mv.sigma**2 / mv.nu)
    mu_plus = 0.5 * (root + mv.beta)
    mu_minus = 0.5 * (root - mv.beta)
    return mu_plus, mu_minus, mu_plus**2 * mv.nu, mu_minus**2 * mv.nu


def _dg_step(rnm: RiskNeutralModel, dt: float) -> StepSampler:
    """VG as the difference of two gammas, same law as BGSS.

    With the clock rescaled to unit mean rate, the legs have per-step shapes
    mu+-^2*dt/nu+- and rates mu+-/nu+-.
    """
    mv, x0 = vg_to_mean_variance(rnm.model)
    mu_plus, mu_minus, nu_plus, nu_minus = dg_gamma_components(mv)
    shape_plus, scale_plus = mu_plus**2 * dt / nu_plus, nu_plus / mu_plus
    shape_minus, scale_minus = mu_minus**2 * dt / nu_minus, nu_minus / mu_minus
    base = (x0 + rnm.drift_rate) * dt

    def step(gen: np.random.Generator, count: int) -> np.ndarray:
        g_plus = gen.gamma(shape_plus, scale_plus, size=count)
        g_minus = gen.gamma(shape_minus, scale_minus, size=count)
        return base + g_plus - g_minus

    return step


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


def simulate_paths(
    rnm: RiskNeutralModel,
    grid: PathGrid,
    n_paths: int,
    seed: int,
    scheme: str | None = None,
    workers: int = 1,
) -> PathSet:
    """Terminal spots and averages of paths from the named scheme, or the model's default one.

    Each block of ``BLOCK_SIZE`` paths draws from its own (seed, block index)
    stream, one step at a time, into its own (rows, s) buffer, which becomes
    s0 * exp(cumsum) in place; its last column and its row means go to the
    block's slice of ``terminal`` and ``average``.
    """
    scheme = scheme or MODEL_SCHEMES[rnm.model_kind][0]
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(SCHEMES)}")
    kind, make_step = SCHEMES[scheme]
    if rnm.model_kind != kind:
        raise ValueError(f"scheme {scheme!r} is incompatible with a {rnm.model_kind} model")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    step = make_step(rnm, grid.dt)
    terminal = np.empty(n_paths)
    average = np.empty(n_paths)
    spans = [(b, lo, min(lo + BLOCK_SIZE, n_paths)) for b, lo in enumerate(range(0, n_paths, BLOCK_SIZE))]

    def run(span: tuple[int, int, int]) -> None:
        block_index, lo, hi = span
        gen = _generator(seed, block_index)
        block = np.empty((hi - lo, grid.n_steps))
        for j in range(grid.n_steps):
            block[:, j] = step(gen, hi - lo)
        # in place and per block: only this block's paths are ever held, and the work runs on the pool
        np.cumsum(block, axis=1, out=block)
        np.exp(block, out=block)
        block *= rnm.market.s0
        terminal[lo:hi] = block[:, -1]
        np.mean(block, axis=1, out=average[lo:hi])

    with ThreadPoolExecutor(max_workers=max(1, min(workers, len(spans)))) as pool:
        list(pool.map(run, spans))
    return PathSet(terminal=terminal, average=average)

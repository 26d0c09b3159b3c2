"""Monte Carlo pricing of European and Asian calls under exponential NIG and VG models.

The library builds risk-neutral measures two ways (Esscher tilt and
mean-correcting drift), simulates price paths with exact per-step marginals,
and prices by discounted Monte Carlo with confidence intervals.  A NIG
European closed form, one quadrature of the call payoff against the Esscher
density, serves as the validation benchmark for the simulator.
"""
from .levy_models import (
    NigParams,
    VgMeanVarianceParams,
    VgParams,
    cumulant,
    nig_cumulant,
    nig_density,
    nig_levy_density,
    vg_cumulant,
    vg_density,
    vg_from_mean_variance,
    vg_to_mean_variance,
)
from .measures import (
    ESSCHER,
    MEAN_CORRECT,
    EsscherSolution,
    MarketData,
    MeasureExistenceError,
    RiskNeutralModel,
    nig_esscher,
    risk_neutralize,
    vg_esscher,
)
from .pricing import (
    ASIAN_CALL,
    EUROPEAN_CALL,
    McResult,
    Payoff,
    european_call_nig_closed,
    price_mc,
)
from .sampling import (
    PathGrid,
    PathSet,
    RngStream,
    sample_gamma,
    sample_inverse_gaussian,
    sample_standard_normal,
    simulate_paths,
)
from .special_fn import QuadratureSpec, bessel_k, integrate, log_gamma

__version__ = "0.1.0"

__all__ = [
    "ASIAN_CALL",
    "ESSCHER",
    "EUROPEAN_CALL",
    "EsscherSolution",
    "MarketData",
    "McResult",
    "MeasureExistenceError",
    "MEAN_CORRECT",
    "NigParams",
    "PathGrid",
    "PathSet",
    "Payoff",
    "QuadratureSpec",
    "RiskNeutralModel",
    "RngStream",
    "VgMeanVarianceParams",
    "VgParams",
    "bessel_k",
    "cumulant",
    "european_call_nig_closed",
    "integrate",
    "log_gamma",
    "nig_cumulant",
    "nig_density",
    "nig_esscher",
    "nig_levy_density",
    "price_mc",
    "risk_neutralize",
    "sample_gamma",
    "sample_inverse_gaussian",
    "sample_standard_normal",
    "simulate_paths",
    "vg_cumulant",
    "vg_density",
    "vg_esscher",
    "vg_from_mean_variance",
    "vg_to_mean_variance",
]

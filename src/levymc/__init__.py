"""Monte Carlo pricing of European and Asian calls under exponential NIG and VG models.

The library builds risk-neutral measures two ways (Esscher tilt and
mean-correcting drift), simulates price paths with exact per-step marginals,
and prices by discounted Monte Carlo with confidence intervals.  A NIG
European closed form based on tail probabilities serves as the validation
benchmark for the simulator.
"""
from .levy_models import (
    GammaParams,
    NigParams,
    VgMeanVarianceParams,
    VgParams,
    gamma_density,
    nig_cumulant,
    nig_density,
    nig_levy_density,
    vg_char_function,
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
    esscher_theta,
    mean_correct_omega_nig,
    mean_correct_omega_vg,
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
    nig_tail_probability,
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
from .special_fn import QuadratureSpec, bessel_k, find_root, integrate, log_gamma

__version__ = "0.1.0"

__all__ = [
    "ASIAN_CALL",
    "ESSCHER",
    "EUROPEAN_CALL",
    "EsscherSolution",
    "GammaParams",
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
    "esscher_theta",
    "european_call_nig_closed",
    "find_root",
    "gamma_density",
    "integrate",
    "log_gamma",
    "mean_correct_omega_nig",
    "mean_correct_omega_vg",
    "nig_cumulant",
    "nig_density",
    "nig_esscher",
    "nig_levy_density",
    "nig_tail_probability",
    "price_mc",
    "risk_neutralize",
    "sample_gamma",
    "sample_inverse_gaussian",
    "sample_standard_normal",
    "simulate_paths",
    "vg_char_function",
    "vg_cumulant",
    "vg_density",
    "vg_esscher",
    "vg_from_mean_variance",
    "vg_to_mean_variance",
]

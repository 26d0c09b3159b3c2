"""Monte Carlo pricing of European and Asian calls under exponential NIG and VG models.

The library builds risk-neutral measures two ways (Esscher tilt and
mean-correcting drift), simulates price paths with exact per-step marginals,
and prices by discounted Monte Carlo with confidence intervals.  A NIG
European closed form, one quadrature of the call payoff against the Esscher
density, serves as the validation benchmark for the simulator.

The package namespace is every name the five library modules export: its
``__all__`` is theirs, concatenated.  The ``price`` command lives in
``levymc.cli``, which ``import levymc`` does not load.
"""
from . import levy_models, measures, pricing, sampling, special_fn
from .levy_models import *
from .measures import *
from .pricing import *
from .sampling import *
from .special_fn import *

__version__ = "0.1.0"

__all__ = levy_models.__all__ + measures.__all__ + pricing.__all__ + sampling.__all__ + special_fn.__all__

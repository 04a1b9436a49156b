"""Unadjusted Langevin sampling with convergence planners and exact oracles."""

from . import chain, gaussian_oracle, grid_oracle, metrics, planner, potentials
from .chain import *  # noqa: F403
from .gaussian_oracle import *  # noqa: F403
from .grid_oracle import *  # noqa: F403
from .metrics import *  # noqa: F403
from .planner import *  # noqa: F403
from .potentials import *  # noqa: F403

__version__ = "0.4.0"

# each public name is declared once, in its module's __all__
__all__ = [
    name
    for module in (chain, gaussian_oracle, grid_oracle, metrics, planner, potentials)
    for name in module.__all__
]

"""Effective averaged sup-norm bounds for even-weight cusp forms on Fuchsian
groups, with a direct numerical verifier for the modular group.

The domain, constants and bounds API is pure ``math``; ``verify_all`` is
loaded on first access, so importing the package loads no numpy.
"""

from .domain import FundamentalDomain, load_domain, modular_group
from .engine import (
    BoundReport,
    EffectiveConstants,
    compute_constants,
    run_algorithm,
)

__all__ = [
    "FundamentalDomain",
    "load_domain",
    "modular_group",
    "BoundReport",
    "EffectiveConstants",
    "compute_constants",
    "run_algorithm",
    "verify_all",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "verify_all":
        from .verify import verify_all

        return verify_all
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""The Gamma function behind the estimators' constants.

Every Gamma-dependent constant in the estimators and the sampler comes from
:func:`gamma_fn`, never hard-coded, so a single routine is the source of
truth.  It is the standard library's ``math.gamma`` with the poles rejected
as :class:`~hsketch.errors.DomainError`.
"""

from __future__ import annotations

import math

from .errors import DomainError


def gamma_fn(x: float) -> float:
    """Double-precision Gamma(x) for real x, poles rejected."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"Gamma pole at {x}")
    return math.gamma(x)

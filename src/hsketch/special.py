"""The Gamma function behind the estimators' constants.

Every Gamma-dependent constant in the estimators and the sampler is derived
from :func:`gamma_fn` at first use, never hard-coded, so a single routine is
the source of truth.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError

# Lanczos approximation, g = 7, 9 coefficients (double precision classic).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _lanczos_half_plane(x: float) -> float:
    """Gamma(x) for x >= 0.5 via the Lanczos series."""
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (x - 1.0 + i)
    t = x + _LANCZOS_G - 0.5
    return _SQRT_TWO_PI * t ** (x - 0.5) * math.exp(-t) * acc


def gamma_fn(x: float) -> float:
    """Double-precision Gamma(x) for real x, poles rejected.

    Uses the Lanczos series on [0.5, inf) and the recurrence
    Gamma(x) = Gamma(x+1)/x to walk arguments below 0.5 up into that range.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"Gamma pole at {x}")
    if x >= 0.5:
        return _lanczos_half_plane(x)
    # recurrence: divide out the leading factors until the argument is >= 0.5
    denom = 1.0
    shift = x
    while shift < 0.5:
        denom *= shift
        shift += 1.0
    return _lanczos_half_plane(shift) / denom


@lru_cache(maxsize=None)
def gamma_cached(x: float) -> float:
    return gamma_fn(x)

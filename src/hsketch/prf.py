"""Seeded counter-mode pseudorandom function used for all sketch randomness.

Everything random in this package is derived from one fixed construction so
register states are reproducible across platforms: the SplitMix64 finalizer
(Stafford mix 13) applied in counter mode.  A draw for a tuple such as
(seed, v, j, k, t) is

    out = mix64(state(seed, domain, v) XOR key(j, k, t))

where ``state`` pre-mixes the seed/element pair and ``key`` pre-mixes the
remaining coordinates.  Both halves pass through the finalizer, so the final
mix sees two independently avalanched 64-bit words.  Distinct DOMAIN_*
constants keep unrelated consumers (Poisson cells, level hashes, splitter
slots, workload shuffles) on disjoint streams of the same seed.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
_MASK64 = (1 << 64) - 1

_M1 = U64(0xBF58476D1CE4E5B9)
_M2 = U64(0x94D049BB133111EB)
_S30 = U64(30)
_S27 = U64(27)
_S31 = U64(31)

GOLDEN = U64(0x9E3779B97F4A7C15)

# Domain-separation constants (arbitrary odd 64-bit values, fixed forever).
DOMAIN_CELL = U64(0x3C79AC492BA7B653)
DOMAIN_LEVEL = U64(0x1C69B3F74AC4AE35)
DOMAIN_SAMPLER_LEVEL = U64(0x9FB21C651E98DF25)
DOMAIN_SLOT = U64(0xD1B54A32D192ED03)
DOMAIN_SHUFFLE = U64(0xAEF17502108EF2D9)
DOMAIN_VALUE = U64(0x5851F42D4C957F2D)

_C_COLUMN = U64(0xD1342543DE82EF95)
_C_INDEX = U64(0xC2B2AE3D27D4EB4F)
_C_COUNTER = U64(0x2545F4914F6CDD1D)

_U53_SCALE = 2.0**-53


def mix64(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer; wraps mod 2^64 (scalar or uint64 array).

    Returns a new value and never mutates ``z``.
    """
    out = np.array(z, dtype=U64)
    _mix64_inplace(out)
    return out if isinstance(z, np.ndarray) else out[()]


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """``mix64`` evaluated in place on a uint64 array; ``tmp`` is scratch of its shape.

    Array arithmetic wraps mod 2^64 without overflow warnings (only numpy
    scalars warn), so no ``errstate`` is needed here.
    """
    if tmp is None:
        tmp = np.empty_like(z)
    for shift, mult in ((_S30, _M1), (_S27, _M2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def _as_u64(x) -> np.ndarray | np.uint64:
    if isinstance(x, np.ndarray):
        if x.dtype == np.uint64:
            return x
        return x.astype(np.int64).astype(np.uint64)
    return U64(int(x) & _MASK64)


def stream_state(seed: int, domain: np.uint64, v) -> np.ndarray | np.uint64:
    """Per-(seed, element) mixed state for one domain.  ``v`` may be an array."""
    with np.errstate(over="ignore"):
        base = mix64(_as_u64(seed) + domain)
        return mix64(base ^ (_as_u64(v) * GOLDEN))


def tuple_key(j: int | np.ndarray = 0, k: int | np.ndarray = 0, t: int = 0) -> np.ndarray | np.uint64:
    """Pre-mixed key for the trailing tuple coordinates plus counter."""
    with np.errstate(over="ignore"):
        acc = (_as_u64(j) * _C_COLUMN) ^ (_as_u64(k) * _C_INDEX) ^ (_as_u64(t) * _C_COUNTER)
        return mix64(acc)


def draw(state, key) -> np.ndarray | np.uint64:
    """Final counter-mode output word."""
    return mix64(state ^ key)


def to_uniform53(u) -> np.ndarray | float:
    """Map 64-bit words to uniform doubles in [0, 1) with 53-bit resolution."""
    shifted = u >> U64(11)
    if isinstance(shifted, np.ndarray):
        return shifted.astype(np.float64) * _U53_SCALE
    return float(shifted) * _U53_SCALE


def u53(u) -> np.ndarray | np.uint64:
    """The raw 53-bit value; ``to_uniform53(u) == u53(u) * 2**-53`` exactly."""
    return u >> U64(11)

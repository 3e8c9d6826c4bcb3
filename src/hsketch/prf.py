"""Seeded counter-mode pseudorandom function used for all sketch randomness.

Everything random in this package is derived from one fixed construction so
register states are reproducible across platforms: the SplitMix64 finalizer
(Stafford mix 13) applied in counter mode.  A draw for a tuple such as
(seed, v, j, k) is

    out = mix64(state(seed, domain, v) XOR key(j, k))

where ``state`` pre-mixes the seed/element pair and ``key`` pre-mixes the
remaining coordinates.  Both halves pass through the finalizer, so the final
mix sees two independently avalanched 64-bit words.  The finalizer is defined
once, as three in-place steps that ``mix64`` composes: head (xorshift 30),
core (multiply, xorshift 27, multiply) and tail (xorshift 31).  Bulk Poisson
ingest calls them apart: a shift distributes over XOR, so the head of
``state ^ key`` is the XOR of the heads, and the tail keeps the top 31 bits,
so a threshold on them can be tested before it.  ``stream_state``, ``draw``
and ``tuple_key`` run the steps in place on the array each one allocates
for its own result (one product or XOR), and read an int64 input through a
uint64 view, so each makes two n-word arrays for n words: its result and
one scratch.  ``mix64`` itself never changes its argument.  Distinct DOMAIN_*
constants keep unrelated consumers (Poisson cells, level hashes, splitter
slots, workload shuffles) on disjoint streams of the same seed.  Consumers
compare ``u53`` of a word with integer thresholds: a float of a word may only
propose a level, and the integer compares decide it.
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


def mix64(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer; wraps mod 2^64 (scalar or uint64 array).

    Returns a new value and never mutates ``z``.
    """
    out = _mix64_fresh(np.array(z, dtype=U64))
    return out if isinstance(z, np.ndarray) else out[()]


def _mix64_fresh(z):
    """mix64 of a value no caller holds: a uint64 array is mixed in place and returned."""
    if not isinstance(z, np.ndarray):
        return mix64(z)
    tmp = np.empty_like(z)
    _mix64_head(z, tmp)
    _mix64_core(z, tmp)
    _mix64_tail(z, tmp)
    return z


# The finalizer's steps, in place on a uint64 array; ``tmp`` is optional
# scratch of its shape.  Array arithmetic wraps mod 2^64 without overflow
# warnings (only numpy scalars warn), so no ``errstate`` is needed here.


def _mix64_head(z: np.ndarray, tmp: np.ndarray | None = None) -> None:
    """z ^= z >> 30.  It distributes over XOR, so a draw may apply it to state and key apart."""
    z ^= np.right_shift(z, _S30, out=tmp)


def _mix64_core(z: np.ndarray, tmp: np.ndarray | None = None) -> None:
    """z *= M1; z ^= z >> 27; z *= M2."""
    z *= _M1
    z ^= np.right_shift(z, _S27, out=tmp)
    z *= _M2


def _mix64_tail(z: np.ndarray, tmp: np.ndarray | None = None) -> None:
    """z ^= z >> 31.  It keeps bits 63..33, so a screen on them may run before it."""
    z ^= np.right_shift(z, _S31, out=tmp)


def _as_u64(x) -> np.ndarray | np.uint64:
    """``x`` as uint64 words mod 2^64; an int64 array comes back as a view, not to be written."""
    if isinstance(x, np.ndarray):
        if x.dtype == np.uint64:
            return x
        return x.astype(np.int64, copy=False).view(np.uint64)
    return U64(int(x) & _MASK64)


def stream_state(seed: int, domain: np.uint64, v) -> np.ndarray | np.uint64:
    """Per-(seed, element) mixed state for one domain.  ``v`` may be an array."""
    with np.errstate(over="ignore"):
        base = mix64(_as_u64(seed) + domain)
        z = _as_u64(v) * GOLDEN
        z ^= base
        return _mix64_fresh(z)


def tuple_key(j: int | np.ndarray = 0, k: int | np.ndarray = 0) -> np.ndarray | np.uint64:
    """Pre-mixed key for the trailing tuple coordinates."""
    with np.errstate(over="ignore"):
        acc = (_as_u64(j) * _C_COLUMN) ^ (_as_u64(k) * _C_INDEX)
        return _mix64_fresh(acc)


def draw(state, key) -> np.ndarray | np.uint64:
    """Final counter-mode output word, mixed in place on the XOR it allocates."""
    return _mix64_fresh(state ^ key)


def u53(u) -> np.ndarray | np.uint64:
    """The top 53 bits of a 64-bit word, the value every threshold inversion compares."""
    return u >> U64(11)

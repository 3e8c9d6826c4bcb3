"""Sampling-plus-singleton-detection baseline at matched memory budgets.

Each element id hashes to exactly one level with P(level k) =
e^{-k/m'} - e^{-(k+1)/m'} (a smoothed PCSA grid over [0, 22m')), drawn by
the towers' integer threshold search.  The grid, like the estimator's terms
below, is computed with libm (``math.exp``) and cached per m', so results do
not depend on numpy's SIMD dispatch.  A level holds a fingerprint bucket: r
columns of 2 slots (odd group order, bi-splitter) or 3 slots (even order,
tri-splitter); every inserted value is added to one PRF-chosen slot per
column.  A bucket whose columns each hold
exactly one nonzero slot, all equal to the same value, certifies a singleton
carrying that value; collisions escape detection with probability at most
(3/4)^r (odd) or (8/9)^r (even).

Support size is estimated from the set of empty levels with the
0.34355-exponent remaining-area estimator; moments are estimated as that
cardinality times the empirical mean of f over detected singleton values.
An ``ideal`` mode classifies levels from ground-truth membership instead of
fingerprints, isolating pure sampling error for benchmarks: it keeps each
element's net value (sorted ids, one value row each) and counts live elements
per level.  Both modes add values with :func:`hsketch.tower._scatter_add`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import prf
from .errors import (
    GroupMismatchError,
    InvalidConfigError,
    NoSamplesError,
    SaturatedError,
    _checked_int,
)
from .groups import FunctionTable, GroupDescriptor, _read_only
from .special import gamma_fn
from .tower import (
    _CHUNK_UPDATES,
    _level_search,
    _log_count,
    _padded_thresholds,
    _reduce_rows,
    _scatter_add,
    _update_arrays,
)

TAU_STAR = 0.34355
LEVEL_SPAN = 22  # levels cover cell masses e^0 .. e^-22 (~2^-32)


def splitter_width(group: GroupDescriptor) -> int:
    """2 slots per column for odd group order, 3 for even."""
    if not isinstance(group, GroupDescriptor):
        raise InvalidConfigError(f"group {group!r} is not a GroupDescriptor")
    return 2 if group.total_size % 2 == 1 else 3


def classify_many(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classify a (N, r, width, d) tensor of buckets in one pass.

    Returns (codes, values): code 0 = empty, 1 = singleton, 2 = not-singleton;
    values[n] is the certified residue vector where codes[n] == 1.
    """
    nz = np.any(slots != 0, axis=3)  # (N, r, width)
    col_counts = nz.sum(axis=2)  # (N, r)
    empty = ~nz.any(axis=(1, 2))
    candidate = np.all(col_counts == 1, axis=1) & ~empty
    codes = np.full(slots.shape[0], 2, dtype=np.int64)
    codes[empty] = 0
    values = np.zeros((slots.shape[0], slots.shape[3]), dtype=np.int64)
    if np.any(candidate):
        idx = np.argmax(nz, axis=2)  # (N, r) position of the nonzero slot
        picked = np.take_along_axis(slots, idx[:, :, None, None], axis=2)[:, :, 0, :]
        consistent = np.all(picked == picked[:, :1, :], axis=(1, 2))
        single = candidate & consistent
        codes[single] = 1
        values[single] = picked[single, 0, :]
    return codes, values


@lru_cache(maxsize=64)
def _tau_terms(m_prime: int) -> np.ndarray:
    """e^{-TAU_STAR k / m'} for every level k in [0, LEVEL_SPAN m'), from libm."""
    return _read_only(np.array([math.exp(-TAU_STAR * k / m_prime) for k in range(LEVEL_SPAN * m_prime)]))


@lru_cache(maxsize=64)
def _level_thresholds(m_prime: int) -> np.ndarray:
    """Padded integer thresholds of the ascending level boundaries e^{-L/m'} .. e^{-1/m'}, from libm."""
    bounds = [math.exp(-k / m_prime) for k in range(LEVEL_SPAN * m_prime, 0, -1)]
    return _padded_thresholds(np.array(bounds))


def tau_gra_density(zero_levels, m_prime: int) -> float:
    """The 0.34355-exponent closed form over the empty-level set.

    Under the one-level-per-element assignment used here this converges to
    the per-level density lam * (1 - e^{-1/m'}), not lam itself; see
    :func:`tau_gra_estimate` for the calibrated cardinality.
    """
    levels = np.asarray(sorted(zero_levels))
    if levels.size == 0:
        raise SaturatedError("no empty levels: sketch is saturated at this cardinality")
    if levels.dtype.kind not in "iu":  # an int64 cast would truncate 2.5 to 2
        raise InvalidConfigError(f"empty levels must be integers, got {levels.dtype} values")
    terms = _tau_terms(_checked_int("m_prime", m_prime, 1))
    if levels[0] < 0 or levels[-1] >= len(terms):
        raise InvalidConfigError(f"empty levels must lie in [0, {len(terms)})")
    total = float(terms[levels].sum())
    return (total / (m_prime * gamma_fn(TAU_STAR))) ** (-1.0 / TAU_STAR)


def tau_gra_estimate(zero_levels, m_prime: int) -> float:
    """Cardinality from the set of empty levels.

    P(level k empty) = (1 - p_k)^lam with p_k = e^{-k/m'}(1 - e^{-1/m'}),
    so the closed form recovers lam * (1 - e^{-1/m'}); dividing by that
    density factor calibrates the estimate to lam.  Meaningful for
    cardinalities comfortably above m'.
    """
    return tau_gra_density(zero_levels, m_prime) / (1.0 - math.exp(-1.0 / m_prime))


def equal_memory_m_prime(m: int, r: int, group: GroupDescriptor) -> int:
    """Sampler accuracy parameter matching a triple tower's 3m cells per level."""
    m, r = _checked_int("m", m, 1), _checked_int("r", r, 1)
    width = splitter_width(group)
    return math.ceil(3 * m / (width * r))


class SamplerSketch:
    """Level-sampled baseline: one fingerprint bucket per level, or the ideal oracle.

    Each oracle batch re-merges every id seen so far (``np.unique``), so
    every caller in this package feeds the oracle one bulk batch per trial.
    """

    def __init__(
        self,
        group: GroupDescriptor,
        m_prime: int,
        seed: int,
        r: int = 3,
        mode: str = "fingerprint",
    ):
        if mode not in ("fingerprint", "ideal"):
            raise InvalidConfigError(f"unknown sampler mode {mode!r}")
        self.group = group
        self.m_prime = _checked_int("m_prime", m_prime, 1)
        self.seed = _checked_int("seed", seed, 0, 1 << 64)
        self.r = _checked_int("r", r, 1)
        self.mode = mode
        self.num_levels = LEVEL_SPAN * self.m_prime
        self._thresholds = _level_thresholds(self.m_prime)
        width = splitter_width(group)
        if mode == "fingerprint":
            self.slots = np.zeros(
                (self.num_levels, self.r, width, group.degree), dtype=np.int64
            )
        else:
            # sorted ids of the elements with a nonzero net value, and those values
            self._ids = np.zeros(0, dtype=np.int64)
            self._net = np.zeros((0, group.degree), dtype=np.int64)

    # -- ingest -------------------------------------------------------------

    def _levels(self, vs: np.ndarray) -> np.ndarray:
        state = prf.stream_state(self.seed, prf.DOMAIN_SAMPLER_LEVEL, vs)
        u = prf.u53(prf.draw(state, prf.tuple_key()))
        L = self.num_levels
        # the boundaries e^{-k/m'} at or below x = u 2^-53 have k >= -m' ln x: about L - floor(-m' ln x)
        count = _level_search(u, self._thresholds, L - _log_count(u, self.m_prime, 2.0**-53, 0.0))
        levels = np.subtract(L, count, out=count)
        return np.minimum(levels, L - 1, out=levels)  # fold the e^{-22} tail into the last level

    def update(self, v: int, y) -> None:
        self.update_batch([v], [y])

    def update_batch(self, vs, ys) -> None:
        vs, yr = _update_arrays(self.group, vs, ys)
        if len(vs) == 0:
            return
        orders = np.array(self.group.orders, dtype=np.int64)
        if self.mode == "ideal":
            ids, inv = np.unique(np.concatenate([self._ids, vs]), return_inverse=True)
            net = np.zeros((len(ids), self.group.degree), dtype=np.int64)
            _scatter_add(net, inv, np.concatenate([self._net, _reduce_rows(self.group, yr)]))
            net %= orders
            live = net.any(axis=1)
            self._ids, self._net = ids[live], net[live]
            return
        # chunk by chunk, as the towers ingest, so the batch is never copied whole
        for s in range(0, len(vs), _CHUNK_UPDATES):
            self._add_slots(vs[s : s + _CHUNK_UPDATES], _reduce_rows(self.group, yr[s : s + _CHUNK_UPDATES]))
            self.slots %= orders

    def _add_slots(self, vs: np.ndarray, yr: np.ndarray) -> None:
        """Add int64 residue rows ``yr`` to one PRF-chosen slot per column of each id's level."""
        width = splitter_width(self.group)
        state = prf.stream_state(self.seed, prf.DOMAIN_SLOT, vs)
        first = self._levels(vs) * (self.r * width)  # row of each level's (column 0, slot 0)
        for j in range(self.r):
            slot = (prf.draw(state, prf.tuple_key(j=j)) % np.uint64(width)).astype(np.int64)
            slot += first + j * width
            _scatter_add(self.slots, slot, yr)

    # -- classification and estimates ----------------------------------------

    def classify_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, values) per level; codes as in :func:`classify_many`."""
        if self.mode == "fingerprint":
            return classify_many(self.slots)
        levels = self._levels(self._ids)
        codes = np.minimum(np.bincount(levels, minlength=self.num_levels), 2)
        values = np.zeros((self.num_levels, self.group.degree), dtype=np.int64)
        single = codes[levels] == 1
        values[levels[single]] = self._net[single]
        return codes, values

    def estimate_support(self) -> float:
        return self._support(self.classify_levels()[0])

    def _support(self, codes: np.ndarray) -> float:
        """Support estimate from the codes of one ``classify_levels`` call."""
        return tau_gra_estimate(np.nonzero(codes == 0)[0], self.m_prime)


def sample_f_moment(sampler: SamplerSketch, f: FunctionTable) -> float:
    """Support estimate times the empirical mean of f over singleton values."""
    if not isinstance(f, FunctionTable) or f.group != sampler.group:
        raise GroupMismatchError(f"the moment takes a FunctionTable over {sampler.group.orders}")
    codes, values = sampler.classify_levels()  # one classification for both factors
    values = values[codes == 1]
    if values.shape[0] == 0:
        raise NoSamplesError("no singletons detected")
    lam0 = sampler._support(codes)
    weights = np.array(sampler.group.index_weights, dtype=np.int64)
    idx = values @ weights
    return lam0 * float(np.mean(f.values[idx].real))

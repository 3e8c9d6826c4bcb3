"""Sampling-plus-singleton-detection baseline at matched memory budgets.

Each element id hashes to exactly one level with P(level k) =
e^{-k/m'} - e^{-(k+1)/m'} (a smoothed PCSA grid over [0, 22m')), drawn by
the towers' integer threshold search.  A level holds a fingerprint bucket: r
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

import numpy as np

from . import prf
from .errors import (
    GroupMismatchError,
    InvalidConfigError,
    NoSamplesError,
    SaturatedError,
    _checked_int,
)
from .groups import FunctionTable, GroupDescriptor
from .special import gamma_cached
from .tower import _scatter_add, _u53_thresholds, _update_arrays

TAU_STAR = 0.34355
LEVEL_SPAN = 22  # levels cover cell masses e^0 .. e^-22 (~2^-32)


def splitter_width(group: GroupDescriptor) -> int:
    """2 slots per column for odd group order, 3 for even."""
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


def tau_gra_density(zero_levels, m_prime: int) -> float:
    """The 0.34355-exponent closed form over the empty-level set.

    Under the one-level-per-element assignment used here this converges to
    the per-level density lam * (1 - e^{-1/m'}), not lam itself; see
    :func:`tau_gra_estimate` for the calibrated cardinality.
    """
    levels = np.asarray(sorted(zero_levels), dtype=np.int64)
    if levels.size == 0:
        raise SaturatedError("no empty levels: sketch is saturated at this cardinality")
    total = float(np.exp(-TAU_STAR * levels / m_prime).sum())
    return (total / (m_prime * gamma_cached(TAU_STAR))) ** (-1.0 / TAU_STAR)


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
        # integer thresholds of the ascending level boundaries e^{-L/m'} .. e^{-1/m'}
        self._thresholds = _u53_thresholds(np.exp(-np.arange(self.num_levels, 0, -1) / self.m_prime))
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
        levels = L - np.searchsorted(self._thresholds, u, side="right")
        return np.minimum(levels, L - 1)  # fold the e^{-22} tail into the last level

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
            _scatter_add(net, inv, np.concatenate([self._net, yr]))
            net %= orders
            live = net.any(axis=1)
            self._ids, self._net = ids[live], net[live]
            return
        width = splitter_width(self.group)
        state = prf.stream_state(self.seed, prf.DOMAIN_SLOT, vs)
        cols = np.arange(self.r, dtype=np.int64)[:, None]
        slot = (prf.draw(state, prf.tuple_key(j=cols)) % np.uint64(width)).astype(np.int64)
        rows = (self._levels(vs) * self.r + cols) * width + slot  # (r, n)
        _scatter_add(self.slots, rows.ravel(), np.tile(yr, (self.r, 1)))
        self.slots %= orders

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

    def empty_levels(self) -> np.ndarray:
        codes, _ = self.classify_levels()
        return np.nonzero(codes == 0)[0]

    def singleton_values(self) -> np.ndarray:
        codes, values = self.classify_levels()
        return values[codes == 1]

    def singleton_tally(self) -> dict[tuple[int, ...], int]:
        return _tally(self.singleton_values())

    def estimate_support(self) -> float:
        return self._support(self.classify_levels()[0])

    def _support(self, codes: np.ndarray) -> float:
        """Support estimate from the codes of one ``classify_levels`` call."""
        return tau_gra_estimate(np.nonzero(codes == 0)[0], self.m_prime)


def _tally(singles: np.ndarray) -> dict[tuple[int, ...], int]:
    """How many singleton levels carry each value row."""
    values, counts = np.unique(singles, axis=0, return_counts=True)
    return {tuple(v.tolist()): int(n) for v, n in zip(values, counts)}


def sample_f_moment(sampler: SamplerSketch, f: FunctionTable) -> float:
    """Support estimate times the empirical mean of f over singleton values."""
    if f.group != sampler.group:
        raise GroupMismatchError("function table is over a different group")
    codes, values = sampler.classify_levels()  # one classification for both factors
    values = values[codes == 1]
    if values.shape[0] == 0:
        raise NoSamplesError("no singletons detected")
    lam0 = sampler._support(codes)
    weights = np.array(sampler.group.index_weights, dtype=np.int64)
    idx = values @ weights
    return lam0 * float(np.mean(f.values[idx].real))

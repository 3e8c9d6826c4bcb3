"""Deterministic turnstile workload generation with exact truth tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import prf
from .errors import InvalidWorkloadError, _checked_int
from .groups import FunctionTable

SIGNED_REP_DEFAULT = 128


@dataclass(frozen=True)
class WorkloadSpec:
    """A multiset of integer net values over distinct element ids.

    ``value_counts`` maps a nonzero integer value to how many elements carry
    it.  ``cancel_pairs`` adds that many extra elements receiving an update
    and its inverse (net zero), exercising turnstile cancellation without
    touching the truth table.
    """

    name: str
    value_counts: dict[int, int]
    universe: int
    shuffle_seed: int = 0
    cancel_pairs: int = 0

    def __post_init__(self):
        counts = {}
        for value, count in self.value_counts.items():
            # 1.5 would stream as 1 but stay 1.5 in the truth table
            value = _checked_int("value", value, -(1 << 63), 1 << 63, InvalidWorkloadError)
            if value == 0:
                raise InvalidWorkloadError("value 0 cannot appear in the support")
            counts[value] = _checked_int(f"count[{value}]", count, 0, error=InvalidWorkloadError)
        object.__setattr__(self, "value_counts", counts)
        # a seed of -1 would stream like 2^64 - 1, and 1.5 like 1
        for name, hi in (("universe", None), ("shuffle_seed", 1 << 64), ("cancel_pairs", None)):
            value = _checked_int(name, getattr(self, name), 0, hi, InvalidWorkloadError)
            object.__setattr__(self, name, value)
        if self.support_size + self.cancel_pairs > self.universe:
            raise InvalidWorkloadError(
                f"{self.support_size} support + {self.cancel_pairs} cancel elements "
                f"exceed universe {self.universe}"
            )

    @property
    def support_size(self) -> int:
        return sum(self.value_counts.values())


@dataclass(frozen=True)
class TruthTable:
    """Exact per-value counts of the final vector; never estimated."""

    value_counts: dict[int, int]
    universe: int

    @property
    def support_size(self) -> int:
        return sum(self.value_counts.values())

    def support_size_mod(self, p: int) -> int:
        return sum(c for v, c in self.value_counts.items() if v % p != 0)

    def residue_counts(self, p: int) -> dict[int, int]:
        out = {j: 0 for j in range(p)}
        for v, c in self.value_counts.items():
            out[v % p] += c
        return out

    def moment_mod(self, p: int, f: FunctionTable) -> float:
        """Exact value of sum_v (f(x_v mod p) - f(0)) over the support."""
        f0 = f[(0,)].real
        return sum(c * (f[(v % p,)].real - f0) for v, c in self.value_counts.items())


def signed_representative(x: int, modulus: int = SIGNED_REP_DEFAULT) -> int:
    """Identify Z_modulus with {-(modulus/2 - 1), ..., modulus/2} (even modulus)."""
    r = x % modulus
    return r if r <= modulus // 2 else r - modulus


def _prf_permutation(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys)`` for pairwise distinct uint64 ``keys``, by one value sort; overwrites ``keys``.

    With b = bit_length(n - 1), the low b bits of each key are saved and
    replaced by its index, and one in-place ``np.sort`` of these packed words
    orders the keys by their top 64 - b bits; the permutation is read back
    from the low bits.  For 1.1M keys on a 2-core VM the sort takes about
    11 ms against about 40 ms for ``argsort``, and the whole permutation
    about 22 ms.  Keys that share
    their top bits come out in index order.  One XOR of sorted neighbours
    below 2^b finds them, and they are sorted again by their full keys (top
    bits and saved low bits) into the positions they hold.  A shuffle of
    about 10^6 keys has such a tie about 7% of the time.

    The shuffle keys are distinct.  The key of index v is
    mix64(mix64(base ^ v * GOLDEN) ^ key), with base and key fixed by the
    seed and the salt, and each step is a bijection of 64-bit words: the
    multiply by the odd GOLDEN, each XOR with a constant, and inside ``mix64``
    each xorshift (z ^ z >> s, s > 0) and each odd multiply.  So for n <= 2^64
    every correct sort returns the same permutation, and this one is exact.
    """
    n = len(keys)
    low_mask = np.uint64((1 << (n - 1).bit_length()) - 1)
    low = keys & low_mask
    buf = np.arange(n, dtype=np.uint64)
    keys &= ~low_mask
    keys |= buf
    keys.sort()
    np.bitwise_xor(keys[1:], keys[:-1], out=buf[1:])  # neighbours tie where this is below 2^b
    ties = np.flatnonzero(buf[1:] <= low_mask)
    perm = np.bitwise_and(keys, low_mask, out=buf).view(np.int64)
    if ties.size:
        pos = np.union1d(ties, ties + 1)  # every position in a run of equal top bits
        idx = perm[pos]
        perm[pos] = idx[np.argsort((keys[pos] & ~low_mask) | low[idx])]
    return perm


def gen_stream(spec: WorkloadSpec) -> tuple[np.ndarray, np.ndarray, TruthTable]:
    """Deterministic update sequence (ids, values) realizing the workload.

    Element ids [0, support) carry the multiset of values in a PRF-shuffled
    assignment; ids [support, support + cancel_pairs) each get one update and
    its inverse.  The emitted order is a PRF shuffle of all updates.
    """
    support, cancel = spec.support_size, spec.cancel_pairs
    n = support + 2 * cancel
    # a shuffle key depends only on its index, so one state gives both shuffles' keys
    state = prf.stream_state(spec.shuffle_seed, prf.DOMAIN_SHUFFLE, np.arange(n, dtype=np.int64))
    value_keys = prf.draw(state[:support], prf.tuple_key(j=1))
    order_keys = prf.draw(state, prf.tuple_key(j=3))
    del state  # each array is dropped once used, so the peak stays under five stream-sized arrays

    perm = _prf_permutation(value_keys)
    del value_keys
    ordered = sorted(spec.value_counts)
    sorted_values = np.repeat(np.array(ordered, dtype=np.int64), [spec.value_counts[v] for v in ordered])
    ys = np.empty(n, dtype=np.int64)
    np.take(sorted_values, perm, out=ys[:support])
    del perm, sorted_values
    if cancel:
        ids = support + np.arange(cancel, dtype=np.int64)
        mags = 1 + (
            prf.draw(
                prf.stream_state(spec.shuffle_seed, prf.DOMAIN_VALUE, ids),
                prf.tuple_key(j=2),
            )
            % np.uint64(7)
        ).astype(np.int64)
        ys[support : support + cancel] = mags
        ys[support + cancel :] = -mags
    order = _prf_permutation(order_keys)
    del order_keys
    ys = ys[order]
    # update i is for id i, except the inverse updates i >= support + cancel (id i - cancel)
    order[order >= support + cancel] -= cancel
    truth = TruthTable(dict(spec.value_counts), spec.universe)
    return order, ys, truth


def uniform_mod_workload(
    name: str, support: int, p: int, universe: int | None = None, shuffle_seed: int = 0,
    residues: tuple[int, ...] | None = None,
) -> WorkloadSpec:
    """Support spread as evenly as integer counts allow over given residues."""
    support = _checked_int("support", support, 0, error=InvalidWorkloadError)
    p = _checked_int("p", p, 2, error=InvalidWorkloadError)
    residues = residues if residues is not None else tuple(range(1, p))
    if not residues:
        raise InvalidWorkloadError("the support needs at least one residue")
    base, extra = divmod(support, len(residues))
    counts = {}
    for i, r in enumerate(residues):
        counts[r] = base + (1 if i < extra else 0)
    return WorkloadSpec(
        name=name,
        value_counts=counts,
        universe=universe or max(4 * support, 1 << 20),
        shuffle_seed=shuffle_seed,
    )

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
        cancel = _checked_int("cancel_pairs", self.cancel_pairs, 0, error=InvalidWorkloadError)
        object.__setattr__(self, "cancel_pairs", cancel)
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


def _prf_permutation(seed: int, n: int, salt: int) -> np.ndarray:
    """The permutation that sorts the PRF keys of indices 0..n-1.

    The key of index v is mix64(mix64(base ^ v * GOLDEN) ^ key), with base
    and key fixed by (seed, salt).  Each step is a bijection of 64-bit words:
    the multiply by the odd GOLDEN, each XOR with a constant, and inside
    ``mix64`` each xorshift (z ^ z >> s, s > 0) and each odd multiply.  So for
    n <= 2^64 the n keys are pairwise distinct, every correct sort returns the
    same permutation, and the default (unstable) ``argsort`` is exact.
    """
    keys = prf.draw(
        prf.stream_state(seed, prf.DOMAIN_SHUFFLE, np.arange(n, dtype=np.int64)),
        prf.tuple_key(j=salt),
    )
    return np.argsort(keys)


def gen_stream(spec: WorkloadSpec) -> tuple[np.ndarray, np.ndarray, TruthTable]:
    """Deterministic update sequence (ids, values) realizing the workload.

    Element ids [0, support) carry the multiset of values in a PRF-shuffled
    assignment; ids [support, support + cancel_pairs) each get one update and
    its inverse.  The emitted order is a PRF shuffle of all updates.
    """
    support = spec.support_size
    values = np.empty(support, dtype=np.int64)
    pos = 0
    for value in sorted(spec.value_counts):
        count = spec.value_counts[value]
        values[pos : pos + count] = value
        pos += count
    values = values[_prf_permutation(spec.shuffle_seed, support, salt=1)]

    vs = [np.arange(support, dtype=np.int64)]
    ys = [values]
    if spec.cancel_pairs:
        ids = support + np.arange(spec.cancel_pairs, dtype=np.int64)
        mags = 1 + (
            prf.draw(
                prf.stream_state(spec.shuffle_seed, prf.DOMAIN_VALUE, ids),
                prf.tuple_key(j=2),
            )
            % np.uint64(7)
        ).astype(np.int64)
        vs.extend([ids, ids])
        ys.extend([mags, -mags])
    all_vs = np.concatenate(vs)
    all_ys = np.concatenate(ys)
    order = _prf_permutation(spec.shuffle_seed, len(all_vs), salt=3)
    truth = TruthTable(dict(spec.value_counts), spec.universe)
    return all_vs[order], all_ys[order], truth


def uniform_mod_workload(
    name: str, support: int, p: int, universe: int | None = None, shuffle_seed: int = 0,
    residues: tuple[int, ...] | None = None,
) -> WorkloadSpec:
    """Support spread as evenly as integer counts allow over given residues."""
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

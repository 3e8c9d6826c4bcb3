"""The workload shuffle: its keys are distinct, so any correct sort gives the same stream."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import gen_stream_oracle, unmix64
from hsketch import prf
from hsketch.workloads import WorkloadSpec, gen_stream, uniform_mod_workload

INGEST_SHARES = {1: 15, 2: 15, 3: 10, 4: 10, 5: 10, 6: 10, -1: 5, -3: 5, 8: 5, 7: 5, 14: 5, -7: 5}
# the shape of the integer stream behind the query-refresh benchmark: lambda = 10^6
QUERY_SHARES = {1: 14, 2: 14, 3: 10, 4: 10, 5: 10, 6: 10, 7: 5, -3: 6, 64: 5, 100: 6, -40: 5, 21: 5}
LAM = 10**6

SPECS = {
    "empty": WorkloadSpec("empty", {}, universe=16),
    "one-element": WorkloadSpec("one", {5: 1}, universe=16, shuffle_seed=2),
    "one-value": WorkloadSpec("x3", {3: 10_000}, universe=1 << 20, shuffle_seed=7),
    "uniform-mod-7": uniform_mod_workload("u", 300, 7, 1 << 16, shuffle_seed=3),
    "cancel-pairs": WorkloadSpec("c", {1: 40, -2: 30, 64: 5}, universe=1 << 10, shuffle_seed=4, cancel_pairs=60),
    "cancel-only": WorkloadSpec("c0", {}, universe=1 << 10, shuffle_seed=5, cancel_pairs=500),
    "ingest-200k": WorkloadSpec(
        "ingest", {v: 1500 * s for v, s in INGEST_SHARES.items()}, universe=1 << 22,
        shuffle_seed=11, cancel_pairs=25_000,
    ),
    "query-refresh-int": WorkloadSpec(
        "int", {v: LAM * s // 100 for v, s in QUERY_SHARES.items()}, universe=1 << 22,
        shuffle_seed=2**64 - 9, cancel_pairs=LAM // 20,
    ),
}


@pytest.mark.parametrize("name", list(SPECS))
def test_gen_stream_equals_the_stable_sort_oracle(name):
    spec = SPECS[name]
    vs, ys, truth = gen_stream(spec)
    want_vs, want_ys, want_truth = gen_stream_oracle(spec)
    assert len(vs) == spec.support_size + 2 * spec.cancel_pairs
    assert vs.dtype == want_vs.dtype == ys.dtype == want_ys.dtype == np.int64
    assert np.array_equal(vs, want_vs) and np.array_equal(ys, want_ys)
    assert truth == want_truth


def test_gen_stream_bytes_are_frozen():
    # sha256 of the 200k-update stream, recorded when the shuffle used a stable sort
    vs, ys, _ = gen_stream(SPECS["ingest-200k"])
    assert len(vs) == 200_000
    digest = hashlib.sha256(vs.astype("<i8").tobytes() + ys.astype("<i8").tobytes()).hexdigest()
    assert digest == "b196923cd82bccbbd65309a5c122aa147599ec846f49c277c1bc678390a7f799"


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=64))
def test_unmix64_inverts_mix64(words):
    z = np.array(words, dtype=np.uint64)
    assert np.array_equal(unmix64(prf.mix64(z)), z)
    assert np.array_equal(prf.mix64(unmix64(z)), z)


@pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
def test_shuffle_keys_are_distinct(seed):
    """The keys ``_prf_permutation`` sorts are pairwise distinct, so its sort has no ties.

    Exact check at n = 2^21, plus the witness behind it: inverting both
    ``mix64`` rounds and the odd multiply recovers every index.
    """
    n, salt = 1 << 21, 3
    v = np.arange(n, dtype=np.int64)
    keys = prf.draw(prf.stream_state(seed, prf.DOMAIN_SHUFFLE, v), prf.tuple_key(j=salt))
    sorted_keys = np.sort(keys)  # strictly increasing iff distinct; np.unique is ~60x slower here
    assert np.all(sorted_keys[1:] > sorted_keys[:-1])
    base = prf.mix64(np.uint64((seed + int(prf.DOMAIN_SHUFFLE)) % 2**64))
    state = unmix64(keys) ^ prf.tuple_key(j=salt)
    golden_inv = np.uint64(pow(int(prf.GOLDEN), -1, 1 << 64))
    assert np.array_equal((unmix64(state) ^ base) * golden_inv, v.astype(np.uint64))

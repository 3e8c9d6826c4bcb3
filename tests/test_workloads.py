"""The workload shuffle: its keys are distinct, so any correct sort gives the same stream.

``_prf_permutation`` is checked against ``np.argsort`` on keys built to share
their top bits, where its packed sort needs its tie repair.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import gen_stream_oracle, unmix64
from hsketch import prf
from hsketch.workloads import WorkloadSpec, _prf_permutation, gen_stream, uniform_mod_workload

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
    # 2^20 updates.  Seed 161, found by search, gives one pair of value-shuffle
    # keys with equal top 44 bits (the order shuffle has none), and that pair is
    # not in index order: leaving ties in index order moves 2 updates
    "top-bit-tie": WorkloadSpec(
        "tie", {1: 1 << 18, -2: 1 << 18, 3: 1 << 18}, universe=1 << 22,
        shuffle_seed=161, cancel_pairs=1 << 17,
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


def test_gen_stream_peak_memory_stays_at_the_argsort_generator():
    # 70.0 MB traced was the peak of the generator with two argsorts on this 1.1M-update stream
    spec = SPECS["query-refresh-int"]
    tracemalloc.start()
    try:
        vs, ys, _ = gen_stream(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(vs) == 1_100_000
    assert peak <= 70_000_000


def _keys_sharing_top_bits(n: int, seed: int) -> np.ndarray:
    """n distinct uint64 keys, in about n/4 groups that share their top 64 - b bits."""
    rng = np.random.default_rng(seed)
    b = max(n - 1, 0).bit_length()
    groups = max(n // 4, 1)
    tops = rng.integers(0, 2**64, groups, dtype=np.uint64) >> np.uint64(b)
    codes = rng.choice(groups << b, n, replace=False).astype(np.uint64)
    keys = (tops[codes >> np.uint64(b)] << np.uint64(b)) | (codes & np.uint64((1 << b) - 1))
    assert len(np.unique(keys)) == n
    return rng.permutation(keys)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 255, 256, 257, 4095, 4096, 4097, (1 << 16) + 1])
def test_packed_permutation_equals_argsort_on_shared_top_bits(n):
    keys = _keys_sharing_top_bits(n, seed=n + 3)  # at n = 2 and 3 too, the keys are out of index order
    want = np.argsort(keys)
    got = _prf_permutation(keys.copy())
    assert got.dtype == np.int64 and np.array_equal(got, want)


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 2**64 - 1), unique=True, max_size=300),
    st.integers(0, 63),
    st.integers(0, 2**32),
)
def test_packed_permutation_equals_argsort(words, shift, order_seed):
    # a right shift by ``shift`` leaves 64 - shift bits, so large shifts force many
    # keys to share the top bits the packed sort orders by
    keys = np.unique(np.array(words, dtype=np.uint64) >> np.uint64(shift))
    keys = np.random.default_rng(order_seed).permutation(keys)
    assert np.array_equal(_prf_permutation(keys.copy()), np.argsort(keys))


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

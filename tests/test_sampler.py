import math
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    BucketState,
    FingerprintBucket,
    classify_bucket,
    ideal_levels_oracle,
    splitter_update,
)
from hsketch.errors import InvalidConfigError, NoSamplesError, SaturatedError
from hsketch.experiments import SchemeSpec, _modulo_trial
from hsketch.groups import FunctionTable, make_group
from hsketch.sampler import (
    SamplerSketch,
    classify_many,
    equal_memory_m_prime,
    sample_f_moment,
    splitter_width,
    tau_gra_estimate,
)
from hsketch.tower import _CHUNK_UPDATES
from hsketch.workloads import WorkloadSpec

Z7 = make_group([7])
Z8 = make_group([8])


def test_splitter_width_by_parity():
    assert splitter_width(Z7) == 2
    assert splitter_width(Z8) == 3
    assert splitter_width(make_group([3, 5])) == 2
    assert splitter_width(make_group([2, 7])) == 3


def test_single_insert_pattern():
    bucket = FingerprintBucket(Z7, r=3)
    splitter_update(bucket, v=5, y=3, seed=1)
    for c in range(3):
        col = bucket.slots[c, :, 0]
        assert sorted(col.tolist()) == [0, 3]
    state, value = classify_bucket(bucket)
    assert state is BucketState.SINGLETON and value == (3,)


def test_insert_then_inverse_restores_empty():
    bucket = FingerprintBucket(Z7, r=4)
    splitter_update(bucket, v=9, y=5, seed=2)
    splitter_update(bucket, v=9, y=2, seed=2)
    assert not bucket.slots.any()
    state, value = classify_bucket(bucket)
    assert state is BucketState.EMPTY and value is None


def test_two_values_in_one_column_is_not_singleton():
    # two distinct elements landing in different slots of some column expose
    # the collision for sure
    for seed in range(50):
        bucket = FingerprintBucket(Z7, r=3)
        splitter_update(bucket, v=1, y=3, seed=seed)
        splitter_update(bucket, v=2, y=5, seed=seed)
        nz_per_col = (bucket.slots[:, :, 0] != 0).sum(axis=1)
        if (nz_per_col == 2).any():
            state, _ = classify_bucket(bucket)
            assert state is BucketState.NOT_SINGLETON
            return
    pytest.fail("no seed produced a two-slot column in 50 tries")


def test_true_singletons_always_detected():
    rng = np.random.default_rng(4)
    for trial in range(1000):
        group = Z7 if trial % 2 == 0 else Z8
        bucket = FingerprintBucket(group, r=3)
        y = int(rng.integers(1, group.total_size))
        splitter_update(bucket, v=trial, y=y, seed=trial)
        state, value = classify_bucket(bucket)
        assert state is BucketState.SINGLETON
        assert value == (y,)


def _false_positive_rate(group, r, trials, seed0):
    """Vectorized two-element collision false-singleton rate."""
    width = splitter_width(group)
    p = group.total_size
    from hsketch import prf

    rng = np.random.default_rng(seed0)
    y1 = rng.integers(1, p, trials)
    y2 = rng.integers(1, p, trials)
    slots = np.zeros((trials, r, width, 1), dtype=np.int64)
    seeds = np.arange(trials, dtype=np.int64)
    for c in range(r):
        for v, y in ((0, y1), (1, y2)):
            u = prf.draw(
                prf.stream_state(0, prf.DOMAIN_SLOT, np.full(trials, v) + 2 * seeds),
                prf.tuple_key(j=c),
            )
            slot = (u % np.uint64(width)).astype(np.int64)
            np.add.at(slots, (np.arange(trials), c, slot, 0), y)
    slots %= p
    codes, _ = classify_many(slots)
    return float(np.mean(codes == 1))


def test_false_positive_rate_odd_group():
    rate = _false_positive_rate(Z7, r=3, trials=20_000, seed0=1)
    assert rate <= 0.45  # (3/4)^3 ~ 0.422 plus sampling slack


def test_false_positive_rate_even_group():
    rate = _false_positive_rate(Z8, r=3, trials=20_000, seed0=2)
    assert rate <= 0.73  # (8/9)^3 ~ 0.702 plus sampling slack


# -- cardinality estimation --------------------------------------------------------


def test_tau_gra_all_levels_empty():
    # the raw closed form sits in the zero-cardinality regime when every
    # level is empty; the calibrated estimate scales it by the density factor
    m_prime = 384
    from hsketch.sampler import tau_gra_density

    density = tau_gra_density(range(22 * m_prime), m_prime)
    assert 0 < density < 1.0
    est = tau_gra_estimate(range(22 * m_prime), m_prime)
    assert est == pytest.approx(density / (1 - math.exp(-1 / m_prime)))


def test_tau_gra_saturated():
    with pytest.raises(SaturatedError):
        tau_gra_estimate([], 384)


@pytest.mark.parametrize("levels,m_prime", [([-1, 3], 8), ([3, 176], 8), ([3], 0), ([3], 8.0)])
def test_tau_gra_rejects_levels_outside_the_grid(levels, m_prime):
    # the terms are a table over the 22 m' levels, so a level outside would index past it or wrap
    with pytest.raises(InvalidConfigError):
        tau_gra_estimate(levels, m_prime)


@pytest.mark.parametrize("levels", [[2.5, 3.7], [2.0, 3.0], np.array([2.5, 3.7]), [True, False]])
def test_tau_gra_rejects_non_integer_levels(levels):
    # an int64 cast truncated [2.5, 3.7] to [2, 3] and returned that set's estimate
    from hsketch.sampler import tau_gra_density

    with pytest.raises(InvalidConfigError, match="integers"):
        tau_gra_density(levels, 8)
    with pytest.raises(InvalidConfigError, match="integers"):
        tau_gra_estimate(levels, 8)
    want = tau_gra_density([2, 3], 8)
    for ok in (np.array([3, 2], dtype=np.uint8), [np.int64(2), 3], range(2, 4)):
        assert tau_gra_density(ok, 8) == want


def test_tau_gra_monte_carlo_small():
    lam, m_prime = 2000, 96
    ests = []
    for seed in range(60):
        sampler = SamplerSketch(Z7, m_prime, seed, mode="ideal")
        sampler.update_batch(np.arange(lam), 1 + (np.arange(lam) % 6))
        ests.append(sampler.estimate_support())
    ests = np.array(ests)
    assert abs(ests.mean() - lam) / lam <= 0.08
    assert ests.std(ddof=1) / lam <= 0.2


def test_equal_memory_parameterization():
    # odd groups: bi-splitter, 2r cells per level against the tower's 3m
    assert [equal_memory_m_prime(128, r, Z7) for r in range(2, 7)] == [96, 64, 48, 39, 32]
    # even groups: tri-splitter, 3r cells per level
    assert equal_memory_m_prime(64, 2, Z8) == 32


@pytest.mark.parametrize(
    "m,r,message", [(8, 0, "r=0 must be >= 1"), (0, 3, "m=0 must be >= 1"), (8, 1.5, "r=1.5 is not")]
)
def test_equal_memory_m_prime_rejects_a_bad_m_or_r(m, r, message):
    # r=0 used to divide by zero
    with pytest.raises(InvalidConfigError, match=message):
        equal_memory_m_prime(m, r, Z7)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"m_prime": 2.5}, "m_prime=2.5 is not an integer"),
        ({"m_prime": 0}, "m_prime=0 must be >= 1"),
        ({"r": 2.5}, "r=2.5 is not an integer"),
        ({"r": 0}, "r=0 must be >= 1"),
        # each of these once built another seed's sampler without an error
        ({"seed": 1.5}, "seed=1.5 is not an integer"),
        ({"seed": 2**64}, "must be >= 0 and < 18446744073709551616"),
        ({"seed": -1}, "seed=-1 must be >= 0"),
    ],
)
def test_sampler_rejects_bad_integers(kwargs, message):
    args = {"group": Z7, "m_prime": 8, "seed": 1, "r": 3, **kwargs}
    with pytest.raises(InvalidConfigError, match=message):
        SamplerSketch(**args)


def test_sampler_takes_integer_likes_as_ints():
    sampler = SamplerSketch(Z7, np.int64(8), np.uint64(2**64 - 1), r=np.int32(2))
    assert (sampler.m_prime, sampler.seed, sampler.r) == (8, 2**64 - 1, 2)
    assert all(type(x) is int for x in (sampler.m_prime, sampler.seed, sampler.r))


# -- moment sampling ---------------------------------------------------------------


def test_sample_f_moment_point_mass():
    sampler = SamplerSketch(Z7, m_prime=16, seed=3, r=3)
    sampler.update_batch(np.arange(40), np.full(40, 3))
    f = FunctionTable.from_function(Z7, lambda x: float(x[0] == 3))
    est = sample_f_moment(sampler, f)
    assert est == pytest.approx(sampler.estimate_support())
    codes, values = sampler.classify_levels()
    singles = values[codes == 1]
    assert singles.shape[0] >= 1
    assert all(v == (3,) for v in map(tuple, singles))


def test_each_sampler_is_classified_once(monkeypatch):
    calls = []
    classify = SamplerSketch.classify_levels
    monkeypatch.setattr(
        SamplerSketch, "classify_levels", lambda self: calls.append(self) or classify(self)
    )
    sampler = SamplerSketch(Z7, m_prime=16, seed=3, r=3)
    sampler.update_batch(np.arange(40), np.full(40, 3))
    sample_f_moment(sampler, FunctionTable.from_function(Z7, lambda x: float(x[0] == 3)))
    assert calls == [sampler]
    calls.clear()
    spec = WorkloadSpec("w", {3: 200, 7: 50}, 1 << 16, shuffle_seed=4)
    schemes = (SchemeSpec("fingerprint", 16, r=2), SchemeSpec("ideal-oracle", 16))
    (rows,) = _modulo_trial(((spec,), schemes, 7, 0, 11))
    assert len(rows) == 14 and len(calls) == 2 and calls[0] is not calls[1]


def test_sample_f_moment_no_singletons():
    sampler = SamplerSketch(Z7, m_prime=16, seed=3, r=3)
    f = FunctionTable.from_function(Z7, lambda x: 1.0)
    with pytest.raises(NoSamplesError):
        sample_f_moment(sampler, f)


def test_ideal_mode_tracks_cancellation():
    sampler = SamplerSketch(Z7, m_prime=16, seed=5, mode="ideal")
    sampler.update(3, 4)
    sampler.update(3, 3)  # cancels to 0 mod 7
    codes, _ = sampler.classify_levels()
    assert (codes == 0).all()


@pytest.mark.parametrize("orders", [[7], [8], [2, 2, 2], [3, 5]])
def test_ideal_mode_matches_dict_oracle(orders):
    # turnstile batches over a small universe: ids repeat within and across
    # batches, and part of each batch inverts earlier updates
    group = make_group(orders)
    rng = np.random.default_rng(orders)
    sampler = SamplerSketch(group, 8, 13, mode="ideal")
    batches = []
    for _ in range(5):
        n = int(rng.integers(0, 300))
        vs = rng.integers(0, 500, n)
        ys = rng.integers(-20, 21, (n, group.degree))
        if batches:
            old_vs, old_ys = batches[int(rng.integers(len(batches)))]
            back = rng.permutation(len(old_vs))[: len(old_vs) // 2]
            vs, ys = np.concatenate([vs, old_vs[back]]), np.concatenate([ys, -old_ys[back]])
        batches.append((vs, ys))
        sampler.update_batch(vs, ys)
        codes, values = sampler.classify_levels()
        want_codes, want_values = ideal_levels_oracle(group, 8, 13, batches)
        assert np.array_equal(codes, want_codes)
        assert np.array_equal(values, want_values)
    assert set(codes.tolist()) == {0, 1, 2}


def test_ideal_mode_sampling_means():
    # uniform values: per-value singleton frequencies track 1/6 each
    lam = 3000
    counts = np.zeros(7)
    for seed in range(30):
        sampler = SamplerSketch(Z7, 96, seed, mode="ideal")
        sampler.update_batch(np.arange(lam), 1 + (np.arange(lam) % 6))
        codes, values = sampler.classify_levels()
        counts += np.bincount(values[codes == 1, 0], minlength=7)
    total = counts.sum()
    assert counts[0] == 0
    freqs = counts[1:] / total
    ci = 4 * math.sqrt(0.25 / total)
    assert np.all(np.abs(freqs - 1 / 6) <= ci)


def test_fingerprint_linearity():
    sampler = SamplerSketch(Z7, m_prime=16, seed=8, r=3)
    vs = np.arange(100)
    ys = 1 + (vs % 6)
    sampler.update_batch(vs, ys)
    assert sampler.slots.any()
    sampler.update_batch(vs, (7 - ys) % 7)
    assert not sampler.slots.any()
    codes, _ = sampler.classify_levels()
    assert np.count_nonzero(codes == 0) == sampler.num_levels


@pytest.mark.parametrize("r", [2, 6])
def test_fingerprint_batch_is_never_copied_whole(r):
    # 2^20 uint8 rows of Z_2^8 (8.4 MB): slots are filled one chunk at a time,
    # so the peak is a few chunks' int64 rows, whatever r and the batch length
    z2_8 = make_group([2] * 8)
    n = 1 << 20
    vs = np.arange(n)
    ys = np.unpackbits(vs.astype(np.uint8)[:, None], axis=1)
    sampler = SamplerSketch(z2_8, equal_memory_m_prime(64, r, z2_8), seed=4, r=r)
    tracemalloc.start()
    try:
        sampler.update_batch(vs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * _CHUNK_UPDATES * 8 * 8
    # the slots are a sum mod 2: the halves in the other order, cut at other chunk bounds, agree
    swapped = SamplerSketch(z2_8, sampler.m_prime, seed=4, r=r)
    swapped.update_batch(vs[n // 2 :], ys[n // 2 :])
    swapped.update_batch(vs[: n // 2], ys[: n // 2])
    assert sampler.slots.any() and np.array_equal(sampler.slots, swapped.slots)

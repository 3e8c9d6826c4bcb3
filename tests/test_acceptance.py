"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The Monte-Carlo runs are shared through session fixtures and spread
over worker processes (capped by HSKETCH_THREADS).
"""

import math

import numpy as np
import pytest

import _mc
from _mc import (
    depo_trial,
    l2_trial,
    mod7_trial,
    nullity_trial,
    taugra_trial,
    trunc_trial,
    union_trial,
)
from hsketch.estimator import predict_variance, rhat_from_pmf
from hsketch.experiments import _map_trials
from hsketch.groups import FunctionTable, SpectrumTable, dft, idft, make_group
from hsketch.sampler import classify_many, splitter_width
from hsketch.special import EtaParams, eta1_closed, eta1_quadrature, gamma_fn
from hsketch.tower import IntegerTowerSketch, SketchConfig, TowerSketch

COUNTS = {1: 300, 2: 500, 3: 100, 4: 50, 5: 25, 6: 25}
LAM = 1000
Z7 = make_group([7])


def _report(num: int | str, name: str, ok: bool, detail: str) -> None:
    tag = f"criterion {num:>2}" if isinstance(num, int) else str(num)
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def _se(x: np.ndarray) -> float:
    return float(x.std(ddof=1) / math.sqrt(len(x)))


@pytest.fixture(scope="session")
def mod7_m64():
    trials = _map_trials(mod7_trial, [(64, seed, tuple(COUNTS.items())) for seed in range(500)])
    support = np.array([t[0] for t in trials])
    psis = np.array([t[1] for t in trials])
    imag = max(t[2] for t in trials)
    return support, psis, imag


@pytest.fixture(scope="session")
def mod7_m32():
    trials = _map_trials(mod7_trial, [(32, seed, tuple(COUNTS.items())) for seed in range(500)])
    support = np.array([t[0] for t in trials])
    return support, max(t[2] for t in trials)


def test_criterion_1_unbiasedness(mod7_m64):
    # the 10^4 extra elements valued 7 leave mod-7 registers bit-identical,
    # so the Monte-Carlo runs ingest only the support stream
    extra_ids = np.arange(1000, 11_000)
    for seed in (0, 1, 2):
        base = IntegerTowerSketch(SketchConfig(None, 64, 0, 22 * 64, seed, "poisson"))
        vs, ys = _mc.counts_stream(COUNTS)
        base.update_batch(vs, ys)
        reduced_before = base.reduce_values_mod(7).registers.copy()
        base.update_batch(extra_ids, np.full(len(extra_ids), 7))
        assert np.array_equal(base.reduce_values_mod(7).registers, reduced_before)
        # and the register multiset matches the group-mode sketch used below
        group_sketch = TowerSketch(SketchConfig(Z7, 64, 0, 22 * 64, seed, "poisson"))
        group_sketch.update_batch(vs, ys)
        assert np.array_equal(
            base.reduce_values_mod(7).registers, group_sketch.registers
        )

    support, psis, _ = mod7_m64
    support, psis = support[:200], psis[:200]
    allow = 2 * LAM / 64
    worst = ""
    ok = True
    for idx, j in enumerate(range(1, 7)):
        dev = abs(psis[:, idx].mean() - COUNTS[j])
        bound = 4 * _se(psis[:, idx]) + allow
        ok &= dev <= bound
        if dev / bound > 0.5:
            worst += f" psi_{j}: |{dev:.1f}|<={bound:.1f};"
    dev0 = abs(support.mean() - LAM)
    bound0 = 4 * _se(support) + allow
    ok &= dev0 <= bound0
    _report(
        1,
        "unbiasedness of the mod-7 estimates",
        ok,
        f"-psi_0 mean {support.mean():.1f} vs {LAM} (bound {bound0:.1f});{worst or ' all residues inside'}",
    )


def test_criterion_2_variance_scaling(mod7_m64, mod7_m32):
    sup64 = mod7_m64[0]
    sup32 = mod7_m32[0]
    rv64 = sup64.var(ddof=1) / LAM**2
    rv32 = sup32.var(ddof=1) / LAM**2
    ratio = rv32 / rv64
    _report(
        2,
        "relative variance halves from m=32 to m=64",
        1.5 <= ratio <= 2.7,
        f"ratio {ratio:.2f} (rel var {rv32:.4f} vs {rv64:.4f}, 500 seeds each)",
    )


def test_criterion_3_variance_prediction(mod7_m64):
    support = mod7_m64[0]
    emp = float(support.var(ddof=1))
    pmf = {j: c / LAM for j, c in COUNTS.items()}
    rhat = rhat_from_pmf(Z7, pmf)
    spectrum = SpectrumTable(Z7, np.array([6.0] + [-1.0] * 6, dtype=complex))
    pred = predict_variance(spectrum, rhat, LAM, 64)
    ok = abs(pred - emp) <= 0.40 * emp
    _report(
        3,
        "leading-order variance prediction",
        ok,
        f"predicted {pred:.0f} vs empirical {emp:.0f} ({100 * (pred / emp - 1):+.1f}%)",
    )


def test_criterion_3b_variance_prediction_uniform_support():
    # same check on a uniform-value workload, as in the operation contract
    lam, m = 2000, 64
    counts = {j: lam // 6 + (1 if j <= lam % 6 else 0) for j in range(1, 7)}
    trials = _map_trials(mod7_trial, [(m, seed, tuple(counts.items())) for seed in range(200)])
    support = np.array([t[0] for t in trials])
    emp = float(support.var(ddof=1))
    rhat = rhat_from_pmf(Z7, {j: c / lam for j, c in counts.items()})
    spectrum = SpectrumTable(Z7, np.array([6.0] + [-1.0] * 6, dtype=complex))
    pred = predict_variance(spectrum, rhat, lam, m)
    ok = abs(pred - emp) <= 0.40 * emp
    _report(
        3,
        "variance prediction (uniform support)",
        ok,
        f"predicted {pred:.0f} vs empirical {emp:.0f} ({100 * (pred / emp - 1):+.1f}%)",
    )


def test_criterion_4_subgroup_nullity():
    results = _map_trials(nullity_trial, [(32, seed, 600) for seed in range(50)])
    worst = 0.0
    ok = True
    for vals, scale in results:
        for v in vals:
            worst = max(worst, abs(v) / scale)
            ok &= abs(v) <= 1e-9 * scale
    _report(
        4,
        "even-subgroup workload nulls odd residues (uniform truncation term)",
        ok,
        f"worst |estimate|/scale = {worst:.2e} over 50 seeds x 3 residues",
    )


def test_criterion_5_union():
    results = _map_trials(union_trial, [(64, seed, 400, 400, 200) for seed in range(200)])
    ests = np.array([r[0] for r in results])
    dev = abs(ests.mean() - 1000.0)
    bound = 4 * _se(ests) + 2 * 1000.0 / 64
    ok = dev <= bound

    # deterministic micro-test: value 1 in stream one, p-1 in stream two
    cfg = SketchConfig(Z7, 16, 0, 352, 3, "poisson")
    s1, s2 = TowerSketch(cfg), TowerSketch(cfg)
    s1.update(42, 1)
    s2.update(42, 6)
    assert not ((s1.registers + s2.registers) % 7).any()
    from hsketch.estimator import estimate_union

    empty_val = estimate_union(TowerSketch(cfg), TowerSketch(cfg)).estimate
    seen = estimate_union(s1, s2).estimate
    ok &= seen != empty_val
    _report(
        5,
        "union estimator (|A|=|B|=600, overlap 200)",
        ok,
        f"mean {ests.mean():.1f} vs 1000 (bound {bound:.1f}); cancelling pair visible: {seen:.3f} != {empty_val:.3f}",
    )


def test_criterion_6_singleton_detection():
    from hsketch import prf
    from _oracles import BucketState, FingerprintBucket, classify_bucket, splitter_update

    rng = np.random.default_rng(42)
    failures = 0
    for trial in range(10_000):
        group = Z7 if trial % 2 == 0 else make_group([8])
        bucket = FingerprintBucket(group, r=3)
        y = int(rng.integers(1, group.total_size))
        splitter_update(bucket, v=trial, y=y, seed=trial)
        state, value = classify_bucket(bucket)
        if state is not BucketState.SINGLETON or value != (y,):
            failures += 1
    ok = failures == 0

    def false_positive_rate(group, trials, seed_mult):
        width = splitter_width(group)
        p = group.total_size
        r = 3
        y1 = rng.integers(1, p, trials)
        y2 = rng.integers(1, p, trials)
        slots = np.zeros((trials, r, width, 1), dtype=np.int64)
        seeds = np.arange(trials, dtype=np.int64) * seed_mult
        for c in range(r):
            for v, y in ((0, y1), (1, y2)):
                u = prf.draw(
                    prf.stream_state(7, prf.DOMAIN_SLOT, seeds + v),
                    prf.tuple_key(j=c),
                )
                slot = (u % np.uint64(width)).astype(np.int64)
                np.add.at(slots, (np.arange(trials), c, slot, 0), y)
        slots %= p
        codes, _ = classify_many(slots)
        return float(np.mean(codes == 1))

    rate7 = false_positive_rate(Z7, 100_000, 3)
    rate8 = false_positive_rate(make_group([8]), 100_000, 5)
    ok &= rate7 <= 0.45 and rate8 <= 0.73
    _report(
        6,
        "singleton detection",
        ok,
        f"true singletons {10_000 - failures}/10000; 2-collision false-positive "
        f"rate Z_7 r=3: {rate7:.3f} <= 0.45, Z_8 r=3: {rate8:.3f} <= 0.73",
    )


def test_support_estimate_at_benchmark_scale():
    # supplementary: support size at the benchmark parameters (lam=1e4, m=128)
    lam, m = 10_000, 128
    counts = {j: lam // 6 + (1 if j <= lam % 6 else 0) for j in range(1, 7)}
    trials = _map_trials(mod7_trial, [(m, seed, tuple(counts.items())) for seed in range(100)])
    support = np.array([t[0] for t in trials])
    dev = abs(support.mean() - lam)
    bound = 4 * _se(support) + 2 * lam / m
    _report(
        "supplement",
        "support size at lam=1e4, m=128",
        dev <= bound,
        f"mean {support.mean():.0f} vs {lam} (bound {bound:.0f})",
    )


def test_criterion_7_tau_gra():
    lam = 10_000
    ests = np.array(_map_trials(taugra_trial, [(384, seed, lam) for seed in range(100)]))
    rel_bias = abs(ests.mean() - lam) / lam
    rel_std = ests.std(ddof=1) / lam
    ok = rel_bias <= 0.03 and rel_std <= 0.10
    _report(
        7,
        "empty-level cardinality estimator",
        ok,
        f"mean {ests.mean():.0f} vs {lam} ({100 * rel_bias:.2f}%), rel std {100 * rel_std:.1f}%",
    )


def test_criterion_8_depoissonization():
    m, a, lam = 8, 30, 100_000
    b = a + 22 * m
    sigma = sum(math.exp(-k / m) for k in range(a, b))
    assert sigma < 1
    results = _map_trials(depo_trial, [(m, a, b, seed, lam) for seed in range(200)])
    pois = np.array([r[0] for r in results])
    binom = np.array([r[1] for r in results])
    diff = abs(pois.mean() - binom.mean())
    bound = 4 * math.sqrt(_se(pois) ** 2 + _se(binom) ** 2)
    _report(
        8,
        "binomial tower matches Poisson tower (m=8, sigma<1, lam=1e5)",
        diff <= bound,
        f"means {pois.mean():.0f} vs {binom.mean():.0f}, |diff| {diff:.0f} <= {bound:.0f}",
    )


def test_criterion_9_truncation_insensitivity():
    m, lam = 32, 10_000
    results = _map_trials(trunc_trial, [(m, seed, lam) for seed in range(200)])
    wide = np.array([r[0] for r in results])
    narrow = np.array([r[1] for r in results])
    diff = abs(wide.mean() - narrow.mean())
    bound = 4 * math.sqrt(_se(wide) ** 2 + _se(narrow) ** 2)
    _report(
        9,
        "window (0,22m) vs (-6m,25m) means agree",
        diff <= bound,
        f"means {narrow.mean():.0f} vs {wide.mean():.0f}, |diff| {diff:.2f} <= {bound:.1f}",
    )


def test_criterion_10_l2_experiment():
    truth = 419_500.0
    results = _map_trials(l2_trial, [(64, seed) for seed in range(200)])
    fourier = np.array([r[0] for r in results])
    fingerprint = np.array([r[1] for r in results])
    ok = abs(fourier.mean() - truth) <= 0.06 * truth
    rmse_f = math.sqrt(np.mean((fourier - truth) ** 2))
    finite = fingerprint[np.isfinite(fingerprint)]
    rmse_fp = math.sqrt(np.mean((finite - truth) ** 2)) if finite.size else float("inf")
    _report(
        10,
        "sum-of-squares moment over Z_128",
        ok,
        f"tower mean {fourier.mean():.0f} vs {truth:.0f} "
        f"({100 * (fourier.mean() / truth - 1):+.2f}%); "
        f"RMSE tower {rmse_f:.0f} vs fingerprint-r2 {rmse_fp:.0f} (reported, not asserted)",
    )


def test_criterion_11_numerics(mod7_m64, mod7_m32):
    rng = np.random.default_rng(17)
    ok = True
    details = []

    # transform round trips
    worst_rt = 0.0
    for orders in ([128], [7, 7]):
        g = make_group(orders)
        f = FunctionTable(g, rng.standard_normal(g.total_size) + 1j * rng.standard_normal(g.total_size))
        err = float(np.max(np.abs(idft(g, dft(g, f)).values - f.values)))
        worst_rt = max(worst_rt, err)
    ok &= worst_rt <= 1e-9
    details.append(f"transform round trip {worst_rt:.1e}")

    # Gamma identities
    worst_g = 0.0
    for x in np.linspace(0.05, 0.95, 19):
        refl = abs(gamma_fn(x) * gamma_fn(1 - x) - math.pi / math.sin(math.pi * x))
        worst_g = max(worst_g, refl / abs(math.pi / math.sin(math.pi * x)))
    for x in np.linspace(-0.9, 4.0, 50):
        if abs(x) < 1e-6 or (x < 0.5 and abs(x - round(x)) < 1e-6):
            continue
        rec = abs(gamma_fn(x + 1) - x * gamma_fn(x)) / abs(gamma_fn(x + 1))
        worst_g = max(worst_g, rec)
    ok &= worst_g <= 1e-9
    details.append(f"Gamma identities {worst_g:.1e}")

    # eta kernel closed form vs quadrature
    worst_eta = 0.0
    for a in (0j, 1 + 0j, 2 + 1j):
        for b in (1 + 0j, 5 + 0j):
            for c in (1 / 3, 2 / 3):
                params = EtaParams(a=a, b=b, c=c)
                closed = eta1_closed(params)
                quad = eta1_quadrature(params, tolerance=1e-9)
                rel = abs(closed - quad) / max(1.0, abs(closed))
                worst_eta = max(worst_eta, rel)
    ok &= worst_eta <= 1e-6
    details.append(f"eta closed vs quadrature {worst_eta:.1e}")

    # imaginary residuals across the Monte-Carlo runs above
    imag = max(mod7_m64[2], mod7_m32[1])
    scale = max(1.0, float(np.max(np.abs(mod7_m64[0]))))
    ok &= imag <= 1e-6 * scale
    details.append(f"imag residual {imag:.1e} (scale {scale:.0f})")

    _report(11, "numerics", ok, "; ".join(details))

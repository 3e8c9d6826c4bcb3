import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import (
    add, aggregate_column, char_eval, column_aggregates_oracle, memo_bytes, neg, oracle_close,
    variance_factor_oracle,
)
from hsketch import estimator, groups
from hsketch.errors import GroupMismatchError, InvalidConfigError, InvalidGroupError, InvalidRHatError
from hsketch.estimator import (
    EstimateReport,
    RHatTable,
    _column_aggregates,
    _support_spectrum,
    column_aggregates,
    estimate_f,
    estimate_modulo,
    estimate_support,
    estimate_union,
    modulo_spectrum,
    predict_variance,
    rhat_from_pmf,
    truncation_tail,
    variance_factor,
)
from hsketch.groups import FunctionTable, SpectrumTable, dft, make_group
from hsketch.tower import IntegerTowerSketch, SketchConfig, combine_product, sketch_new

Z7 = make_group([7])


def _cfg(m=4, a=0, b=16, seed=1, group=Z7, mode="poisson"):
    return SketchConfig(group, m, a, b, seed, mode)


def _closed_form_empty(spectrum, m, a, num_chars):
    """Independent oracle for the empty-sketch estimate: every nontrivial
    character contributes (-tau2)^3, scaled; Gamma from the stdlib."""
    tau2 = math.exp((a - 1) / (3 * m)) / (1 - math.exp(-1 / (3 * m)))
    scale = m**3 * abs(-3 * math.gamma(2 / 3)) ** 3
    tail = sum(spectrum.values[1:]) * (-tau2) ** 3 / scale / num_chars
    return tail


# -- aggregates -----------------------------------------------------------------


def test_aggregate_trivial_character_is_zero():
    cfg = _cfg()
    sk = sketch_new(cfg)
    sk.update(3, 5)
    col = sk.registers[:, 0, :]
    assert aggregate_column(col, Z7, (0,), cfg) == 0


def test_aggregate_identity_registers_is_minus_tail():
    cfg = _cfg()
    sk = sketch_new(cfg)
    col = sk.registers[:, 0, :]
    got = aggregate_column(col, Z7, (2,), cfg)
    assert got == pytest.approx(-truncation_tail(cfg.m, cfg.a), rel=1e-12)
    # literal mode keeps the same value at the trivial character
    assert aggregate_column(col, Z7, (0,), cfg, literal=True) == pytest.approx(
        -truncation_tail(cfg.m, cfg.a), rel=1e-12
    )


def test_aggregate_single_register_closed_form():
    cfg = _cfg()
    sk = sketch_new(cfg)
    k0 = 5
    sk.registers[k0, 0, 0] = 4
    gamma = (3,)
    got = aggregate_column(sk.registers[:, 0, :], Z7, gamma, cfg)
    expect = (char_eval(Z7, (4,), gamma) - 1) * math.exp(k0 / (3 * cfg.m)) - truncation_tail(
        cfg.m, cfg.a
    )
    assert got == pytest.approx(expect, rel=1e-12)


def test_column_aggregates_match_scalar_op():
    cfg = _cfg(seed=12)
    sk = sketch_new(cfg)
    sk.update_batch(np.arange(30), 1 + (np.arange(30) % 6))
    agg = column_aggregates(sk, literal=True)
    for j in range(3):
        for gi in range(7):
            scalar = aggregate_column(sk.registers[:, j, :], Z7, (gi,), cfg, literal=True)
            assert agg.values[j, gi] == pytest.approx(scalar, rel=1e-12)


# -- estimate_f -----------------------------------------------------------------


def test_estimate_f_empty_sketch_closed_form():
    cfg = _cfg(m=64, b=1408)
    sk = sketch_new(cfg)
    spectrum = dft(Z7, FunctionTable.from_function(Z7, lambda x: float(x[0] == 2)))
    rep = estimate_f(sk, spectrum)
    oracle = _closed_form_empty(spectrum, cfg.m, cfg.a, 7)
    assert rep.estimate == pytest.approx(oracle.real, abs=1e-12)
    assert rep.imag_residual == pytest.approx(abs(oracle.imag), abs=1e-12)


def test_estimate_f_zero_spectrum():
    sk = sketch_new(_cfg(seed=3))
    sk.update(1, 2)
    rep = estimate_f(sk, SpectrumTable(Z7, np.zeros(7)))
    assert rep.estimate == 0.0 and rep.imag_residual == 0.0


def test_estimate_f_linearity_and_scaling():
    sk = sketch_new(_cfg(seed=9))
    sk.update_batch(np.arange(40), 1 + (np.arange(40) % 6))
    rng = np.random.default_rng(1)
    s1 = SpectrumTable(Z7, rng.standard_normal(7) + 1j * rng.standard_normal(7))
    s2 = SpectrumTable(Z7, rng.standard_normal(7) + 1j * rng.standard_normal(7))
    both = SpectrumTable(Z7, s1.values + s2.values)
    agg = column_aggregates(sk)
    e1 = estimate_f(agg, s1).estimate
    e2 = estimate_f(agg, s2).estimate
    assert estimate_f(agg, both).estimate == pytest.approx(e1 + e2, abs=1e-9)
    scaled = SpectrumTable(Z7, 3.5 * s1.values)
    assert estimate_f(agg, scaled).estimate == pytest.approx(3.5 * e1, abs=1e-9)


def test_estimate_f_monte_carlo_point_mass():
    # 100 elements all valued 3; truth for f = 1{x = 3} is 100
    m = 64
    cfg_proto = dict(m=m, a=0, b=22 * m, group=Z7, mode="poisson")
    spectrum = dft(Z7, FunctionTable.from_function(Z7, lambda x: float(x[0] == 3)))
    vs = np.arange(100)
    ys = np.full(100, 3)
    ests, imags = [], []
    for seed in range(500):
        sk = sketch_new(SketchConfig(seed=seed, **cfg_proto))
        sk.update_batch(vs, ys)
        rep = estimate_f(sk, spectrum)
        ests.append(rep.estimate)
        imags.append(rep.imag_residual)
    ests = np.array(ests)
    se = ests.std(ddof=1) / math.sqrt(len(ests))
    assert abs(ests.mean() - 100.0) <= 4 * se + 2 * 100.0 / m
    assert max(imags) <= 1e-6 * max(1.0, np.abs(ests).max())


def test_clamp_nonnegative_flag():
    rep = EstimateReport(-3.0, 0.0)
    sk = sketch_new(_cfg(m=64, b=1408))
    spectrum = SpectrumTable(Z7, np.ones(7))
    plain = estimate_f(sk, spectrum)
    clamped = estimate_f(sk, spectrum, clamp_nonnegative=True)
    assert plain.estimate < 0  # empty-sketch value for the all-ones transform
    assert clamped.estimate == 0.0


# -- modulo / support --------------------------------------------------------------


def test_modulo_spectrum_matches_dft():
    for j in range(7):
        direct = modulo_spectrum(7, j)
        via_dft = dft(Z7, FunctionTable.from_function(Z7, lambda x: float(x[0] == j)))
        assert np.allclose(direct.values, via_dft.values, atol=1e-12)


def test_estimate_modulo_validates():
    sk = sketch_new(_cfg())
    with pytest.raises(InvalidConfigError):
        estimate_modulo(sk, 7, 7)
    g5 = make_group([5])
    sk5 = sketch_new(_cfg(group=g5))
    with pytest.raises(GroupMismatchError):
        estimate_modulo(sk5, 7, 1)


@pytest.mark.parametrize(
    "j,message", [(1.5, "not an integer"), ("1", "not an integer"), (-1, r"outside \[0, 7\)"),
                  (7, r"outside \[0, 7\)")]
)
def test_estimate_modulo_rejects_a_non_integer_or_out_of_range_residue(j, message):
    # 1.5 used to raise IndexError from the roots of unity
    with pytest.raises(InvalidConfigError, match=message):
        estimate_modulo(sketch_new(_cfg()), 7, j)


@pytest.mark.parametrize("j", [1.5, "1", None, 8, -1, 7])
def test_modulo_spectrum_rejects_a_residue_outside_z_p(j):
    with pytest.raises(InvalidConfigError):
        modulo_spectrum(7, j)


def test_zero_mod_p_insensitivity_bit_for_bit():
    m = 8
    base = SketchConfig(None, m, 0, 22 * m, 5, "poisson")
    plain = sketch_new(base)
    plain.update_batch(np.arange(200), 1 + (np.arange(200) % 6))
    extra = plain.copy()
    extra.update_batch(np.arange(200, 1200), np.full(1000, 7))
    assert np.array_equal(
        plain.reduce_values_mod(7).registers, extra.reduce_values_mod(7).registers
    )
    for j in range(7):
        r1 = estimate_modulo(plain, 7, j)
        r2 = estimate_modulo(extra, 7, j)
        assert r1.estimate == r2.estimate
        assert r1.imag_residual == r2.imag_residual


def test_support_is_negated_residue_zero():
    sk = sketch_new(_cfg(seed=21))
    sk.update_batch(np.arange(50), 1 + (np.arange(50) % 6))
    psi0 = estimate_modulo(sk, 7, 0)
    sup = estimate_support(sk, 7)
    assert sup.estimate == -psi0.estimate
    assert sup.imag_residual == psi0.imag_residual


def test_support_empty_stream_bound():
    m = 64
    sk = sketch_new(SketchConfig(None, m, 0, 22 * m, 3, "poisson"))
    rep = estimate_support(sk, 7)
    tau2 = truncation_tail(m, 0)
    bound = 1.0 * tau2**3 / (m**3 * abs(-3 * math.gamma(2 / 3)) ** 3)
    assert abs(rep.estimate) <= bound


def test_cancelled_stream_equals_empty():
    cfg = _cfg(seed=2)
    sk = sketch_new(cfg)
    vs = np.arange(30)
    ys = 1 + (np.arange(30) % 6)
    sk.update_batch(vs, ys)
    sk.update_batch(vs, (7 - ys) % 7)
    empty = sketch_new(cfg)
    for j in range(7):
        assert (
            estimate_modulo(sk, 7, j).estimate == estimate_modulo(empty, 7, j).estimate
        )


def test_subgroup_nullity_literal_mode():
    # values in {2, 4} generate the even subgroup of Z_6; odd residues are
    # exactly null under the uniform truncation term
    g6 = make_group([6])
    m = 16
    for seed in range(5):
        sk = sketch_new(SketchConfig(g6, m, 0, 22 * m, seed, "poisson"))
        vs = np.arange(300)
        sk.update_batch(vs, 2 + 2 * (vs % 2))
        scale = max(1.0, abs(estimate_support(sk, 6, literal=True).estimate))
        for j in (1, 3, 5):
            rep = estimate_modulo(sk, 6, j, literal=True)
            assert abs(rep.estimate) <= 1e-9 * scale


def test_subgroup_nullity_default_mode_residual():
    # under the default trivial-character rule the odd residues keep a
    # deterministic truncation artifact tau2^3 / (|G| m^3 |Gamma(-1/3)|^3)
    g6 = make_group([6])
    m = 16
    sk = sketch_new(SketchConfig(g6, m, 0, 22 * m, 0, "poisson"))
    vs = np.arange(300)
    sk.update_batch(vs, 2 + 2 * (vs % 2))
    tau2 = truncation_tail(m, 0)
    artifact = tau2**3 / (6 * m**3 * abs(-3 * math.gamma(2 / 3)) ** 3)
    for j in (1, 3, 5):
        rep = estimate_modulo(sk, 6, j)
        assert abs(rep.estimate) == pytest.approx(artifact, rel=1e-6)


# -- union ---------------------------------------------------------------------------


def test_union_empty_sketches():
    cfg = _cfg(m=16, b=352, seed=4)
    s1, s2 = sketch_new(cfg), sketch_new(cfg)
    rep = estimate_union(s1, s2)
    spec = SpectrumTable(make_group([7, 7]), np.full(49, -1.0 + 0j))
    oracle = _closed_form_empty(spec, 16, 0, 49)
    assert rep.estimate == pytest.approx(oracle.real, abs=1e-12)


def test_union_counts_cancelling_pair():
    # one element valued 1 in stream one and -1 in stream two: coordinate-wise
    # summing hides it, the product sketch does not
    cfg = _cfg(m=16, b=352, seed=11)
    s1, s2 = sketch_new(cfg), sketch_new(cfg)
    s1.update(42, 1)
    s2.update(42, 6)
    summed = (s1.registers + s2.registers) % 7
    assert not summed.any()  # the naive merge erases the element
    from hsketch.tower import combine_product

    prod = combine_product(s1, s2)
    assert prod.registers.any()
    empty = estimate_union(sketch_new(cfg), sketch_new(cfg)).estimate
    assert estimate_union(s1, s2).estimate != empty


def test_union_monte_carlo_cancelling_pairs():
    # 30 elements valued (1, 6) across the two streams: each cancels under
    # coordinate-wise summing yet counts toward the union of size 30
    cfg_proto = dict(group=Z7, m=32, a=0, b=704, mode="poisson")
    vs = np.arange(30)
    ests = []
    for seed in range(80):
        cfg = SketchConfig(seed=seed, **cfg_proto)
        s1, s2 = sketch_new(cfg), sketch_new(cfg)
        s1.update_batch(vs, np.full(30, 1))
        s2.update_batch(vs, np.full(30, 6))
        ests.append(estimate_union(s1, s2).estimate)
    ests = np.array(ests)
    se = ests.std(ddof=1) / math.sqrt(len(ests))
    assert abs(ests.mean() - 30.0) <= 4 * se + 2 * 30.0 / 32


# -- variance prediction ----------------------------------------------------------


def _alpha_brute_force(spectrum, pmf, group):
    """Pure-python double sum over character pairs, via char_eval only."""
    n = group.total_size
    mu = {}
    for gi, gamma in enumerate(group.elements()):
        mu[gi] = sum(
            prob * complex(char_eval(group, x, gamma)).conjugate()
            for x, prob in pmf.items()
        )
    idx = {gamma: i for i, gamma in enumerate(group.elements())}
    total = 0.0 + 0.0j
    for gi, gamma in enumerate(group.elements()):
        for hj, gamma2 in enumerate(group.elements()):
            cross = idx[add(group, neg(group, gamma), gamma2)]
            t1 = (1 - mu[cross]) ** (2 / 3)
            t2 = (2 - mu[idx[neg(group, gamma)]] - mu[hj]) ** (2 / 3)
            b = (1 - mu[idx[neg(group, gamma)]]) ** (2 / 3)
            c = (1 - mu[hj]) ** (2 / 3)
            total += (
                spectrum.values[gi]
                * spectrum.values[hj].conjugate()
                * (t1 - t2)
                * b
                * c
            )
    return -total / (n * n)


def test_variance_factor_against_brute_force():
    group = make_group([6])
    pmf = {(1,): 0.3, (2,): 0.5, (5,): 0.2}
    rhat = rhat_from_pmf(group, {1: 0.3, 2: 0.5, 5: 0.2})
    f = FunctionTable.from_function(group, lambda x: float(x[0] != 0))
    spectrum = dft(group, f)
    fast = variance_factor(spectrum, rhat)
    slow = _alpha_brute_force(spectrum, pmf, group)
    assert fast == pytest.approx(slow, rel=1e-10)


@pytest.mark.parametrize("spectrum_kind", ["support", "random"])
def test_variance_factor_sums_blocks_in_bounded_memory(spectrum_kind):
    group = make_group([2] * 10)
    rng = np.random.default_rng(10)
    pmf = rng.random(group.total_size)
    pmf[0] = 0.0
    rhat = rhat_from_pmf(group, FunctionTable(group, pmf / pmf.sum()))
    values = np.array([1.0, 1j]) @ rng.normal(size=(2, group.total_size))
    spectrum = SpectrumTable(group, -np.ones(group.total_size) if spectrum_kind == "support" else values)
    tracemalloc.start()
    try:
        got = variance_factor(spectrum, rhat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    want = variance_factor_oracle(spectrum, rhat)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_variance_factor_bound():
    rng = np.random.default_rng(8)
    bound = 8 * (1 + 2 ** (2 / 3))
    for _ in range(5):
        raw = rng.random(6)
        raw /= raw.sum()
        pmf = {j + 1: p for j, p in enumerate(raw)}
        rhat = rhat_from_pmf(Z7, pmf)
        vals = rng.standard_normal(7)
        f = FunctionTable(Z7, vals / np.max(np.abs(vals)))  # unit sup norm
        alpha = variance_factor(dft(Z7, f), rhat)
        assert abs(alpha) <= bound + 1e-9


def test_variance_factor_zero_function():
    rhat = rhat_from_pmf(Z7, {j: 1 / 6 for j in range(1, 7)})
    spectrum = SpectrumTable(Z7, np.zeros(7))
    assert variance_factor(spectrum, rhat) == 0
    assert predict_variance(spectrum, rhat, 1000.0, 64) == 0.0


@pytest.mark.parametrize(
    "m,lam",
    [(-5, 1000.0), (2.5, 1000.0), (0, 1000.0), (1, 1000.0), (1 << 32, 1000.0), ("64", 1000.0),
     (64, math.nan), (64, -3.0), (64, math.inf), (64, "1000"), (64, 1j)],
    ids=["m-negative", "m-float", "m-0", "m-1", "m-2^32", "m-str",
         "lam-nan", "lam-negative", "lam-inf", "lam-str", "lam-complex"],
)
def test_predict_variance_rejects_invalid_m_and_lambda(m, lam):
    # unchecked, m=-5 yields a negative variance, m=0 a ZeroDivisionError and lam=nan a nan
    rhat = rhat_from_pmf(Z7, {j: 1 / 6 for j in range(1, 7)})
    spectrum = _support_spectrum(Z7)
    with pytest.raises(InvalidConfigError):
        predict_variance(spectrum, rhat, lam, m)
    if not isinstance(m, int) or not 2 <= m < 1 << 32:
        with pytest.raises(InvalidConfigError):
            truncation_tail(m, 0)
    assert predict_variance(spectrum, rhat, 0, 64) == 0.0  # an empty support has no spread
    assert predict_variance(spectrum, rhat, np.float64(1000.0), np.int64(64)) > 0


@pytest.mark.parametrize("a", [2.5, "a", 2**31, -(2**31) - 1, None])
def test_truncation_tail_checks_a_as_the_config_does(a):
    # unchecked, a=2.5 gave 194.01 for a window start no config accepts, and "a" a bare TypeError
    with pytest.raises(InvalidConfigError):
        truncation_tail(64, a)
    assert truncation_tail(64, np.int64(3)) == truncation_tail(64, 3)


def test_predict_variance_leaves_no_residue_matrix_on_the_group():
    # a descriptor held by any cache would pin |G| * d int64 (369 MB at Z_7^8)
    group = make_group([7, 7, 7])
    rhat = rhat_from_pmf(group, {(1, 2, 3): 0.5, (0, 0, 4): 0.5})
    assert predict_variance(SpectrumTable(group, np.full(343, -1.0 + 0j)), rhat, 1000.0, 64) > 0
    assert "residue_matrix" not in group.__dict__


def test_rhat_from_pmf_rejects_non_integer_residues():
    # int() read 2.5 as residue 2 and "3" as 3
    for x in (2.5, "3", (1.0,), np.float64(2.0)):
        with pytest.raises(GroupMismatchError):
            rhat_from_pmf(Z7, {x: 1.0})
    want = rhat_from_pmf(Z7, {1: 1.0}).values
    for x in (np.int64(8), np.uint8(1), True, np.True_):
        assert np.array_equal(rhat_from_pmf(Z7, {x: 1.0}).values, want)


def test_rhat_validation():
    with pytest.raises(InvalidRHatError):
        rhat_from_pmf(Z7, {1: 0.7, 2: 0.7})
    with pytest.raises(InvalidRHatError):
        RHatTable(Z7, np.full(7, 2.0 + 0j))
    bad = np.ones(7, dtype=complex)
    bad[0] = 0.2
    with pytest.raises(InvalidRHatError):
        RHatTable(Z7, bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
@pytest.mark.parametrize("gamma", [0, 3])
def test_rhat_table_rejects_non_finite_entries(value, gamma):
    # NaN passes both the modulus and the total-mass comparisons, and predict_variance then returned NaN
    values = rhat_from_pmf(Z7, {j: 1 / 6 for j in range(1, 7)}).values.copy()
    values[gamma] = value
    with pytest.raises(InvalidRHatError):
        RHatTable(Z7, values)


# -- export -------------------------------------------------------------------------


def test_precomputed_aggregates_must_match_literal_flag():
    sk = sketch_new(_cfg(seed=4))
    sk.update_batch(np.arange(30), 1 + (np.arange(30) % 6))
    for literal in (False, True):
        agg = column_aggregates(sk, literal=literal)
        assert estimate_modulo(agg, 7, 1, literal=literal) == estimate_modulo(sk, 7, 1, literal=literal)
        with pytest.raises(InvalidConfigError):
            estimate_modulo(agg, 7, 1, literal=not literal)
        with pytest.raises(InvalidConfigError):
            estimate_support(agg, 7, literal=not literal)


def test_gamma_terms_table():
    sk = sketch_new(_cfg(seed=13))
    sk.update_batch(np.arange(25), 1 + (np.arange(25) % 6))
    spectrum = modulo_spectrum(7, 2)
    rep = estimate_f(sk, spectrum)
    assert rep.gamma_terms is not None and rep.gamma_terms.shape == (7,)
    assert rep.gamma_terms.sum().real == pytest.approx(rep.estimate, abs=1e-12)
    assert estimate_support(sk, 7).gamma_terms.shape == (7,)


# -- FFT aggregation against the per-register oracle ----------------------------

AGG_GROUPS = [(2,), (7,), (128,), (7, 7), (2,) * 8, (3, 5, 7, 2)]


def _random_updates(rng, n, degree):
    return rng.integers(0, 1 << 40, n), rng.integers(-(1 << 20), 1 << 20, (n, degree))


def _agg_sketch(kind, orders, seed=5):
    """A sketch over ``orders`` of one of the kinds whose aggregates are compared with the oracle."""
    rng = np.random.default_rng(seed)
    m = 16
    if kind == "integer-mod":
        sk = sketch_new(SketchConfig(None, m, 0, 22 * m, seed, "poisson"))
        sk.update_batch(rng.integers(0, 1 << 40, 400), rng.integers(-1000, 1000, 400))
        return sk.reduce_values_mod(orders[0])
    if kind == "product":
        half = [sketch_new(SketchConfig(make_group([p]), m, 5 * m, 27 * m, seed, "binomial"))
                for p in orders]
        for sk in half:
            sk.update_batch(*_random_updates(rng, 3000, 1))
        return combine_product(*half)
    group = make_group(orders)
    if kind == "poisson":
        sk = sketch_new(SketchConfig(group, m, 0, 22 * m, seed, "poisson"))
        sk.update_batch(*_random_updates(rng, 300, group.degree))
        return sk
    sk = sketch_new(SketchConfig(group, m, 5 * m, 27 * m, seed, "binomial"))
    n = {"empty": 0, "binomial-sparse": 40, "binomial-dense": 200_000}[kind]
    if n:
        sk.update_batch(*_random_updates(rng, n, group.degree))
    return sk


AGG_CASES = [
    (kind, orders)
    for orders in AGG_GROUPS
    for kind in ("empty", "binomial-sparse", "binomial-dense", "poisson")
] + [("integer-mod", (7,)), ("integer-mod", (128,)), ("product", (7, 7)), ("product", (2, 128))]


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize(
    "kind,orders", AGG_CASES, ids=[f"{k}-Z{'x'.join(map(str, o))}" for k, o in AGG_CASES]
)
def test_column_aggregates_equal_per_register_oracle(kind, orders, literal):
    sk = _agg_sketch(kind, orders)
    assert sk.group.orders == orders
    got = column_aggregates(sk, literal=literal)
    want = column_aggregates_oracle(sk, literal=literal)
    assert got.values.shape == want.values.shape == (3, sk.group.total_size)
    assert oracle_close(got.values, want.values)
    assert got.literal == literal and got.config == sk.config


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("orders", [(7,) * 4, (2,) * 12], ids=["Z7^4", "Z2^12"])
def test_large_group_aggregates_equal_per_register_oracle(orders, literal):
    # m = 4 keeps the oracle's (nk, 3, |G|) character tensor small
    group = make_group(list(orders))
    sk = sketch_new(SketchConfig(group, 4, 0, 88, 8, "poisson"))
    sk.update_batch(*_random_updates(np.random.default_rng(8), 300, group.degree))
    got = column_aggregates(sk, literal=literal).values
    assert oracle_close(got, column_aggregates_oracle(sk, literal=literal).values)


# -- the column_aggregates memo -----------------------------------------------------


@pytest.fixture
def fresh_memo():
    groups._MEMO.clear()
    yield groups._MEMO
    groups._MEMO.clear()


def _binomial_z7(seed=3, n=2000, salt=0):
    rng = np.random.default_rng(salt)
    sk = sketch_new(SketchConfig(Z7, 8, 40, 216, seed, "binomial"))
    sk.update_batch(rng.integers(0, 1 << 40, n), rng.integers(-50, 50, n))
    return sk


def _uncached(sk, literal=False):
    return _column_aggregates(sk.config, sk.registers, literal).values


def _fresh(sk, literal=False):
    """The uncached aggregates of ``sk``, checked against the per-register oracle."""
    want = _uncached(sk, literal)
    assert oracle_close(want, column_aggregates_oracle(sk, literal=literal).values)
    return want


def _memo_product(sk, literal=False):
    """The column product a query of the group-valued ``sk`` reads: its memo entry's."""
    return estimator._resolve_aggregates(sk, sk.config.group, literal)[1]


@pytest.mark.parametrize("literal", [False, True])
def test_memo_repeated_query_returns_the_fresh_bits(fresh_memo, literal):
    sk = _binomial_z7()
    want = _fresh(sk, literal).prod(axis=0)
    spectrum = modulo_spectrum(7, 3)
    first = estimate_f(sk, spectrum, literal=literal)
    second = estimate_f(sk, spectrum, literal=literal)
    assert len(fresh_memo) == 1
    assert np.array_equal(_memo_product(sk, literal), want) and np.array_equal(fresh_memo[0][3], want)
    assert _report_bits(first) == _report_bits(second) == _formula_bits(sk, spectrum, literal)
    assert second.gamma_terms is not first.gamma_terms and second.gamma_terms is not fresh_memo[0][3]
    assert fresh_memo[0][:2] == (sk.config, literal)
    # the other flag is its own entry: its trivial-character term differs
    other = _memo_product(sk, not literal)
    assert len(fresh_memo) == 2
    assert np.array_equal(other, _fresh(sk, not literal).prod(axis=0))
    assert not np.array_equal(other, want)


def _mutate(sk, how):
    rng = np.random.default_rng(9)
    vs, ys = rng.integers(0, 1 << 40, 50), rng.integers(1, 7, 50)
    if how == "update_batch":
        sk.update_batch(vs, ys)
    elif how == "register-write":
        sk.registers[3, 1, 0] = (sk.registers[3, 1, 0] + 1) % 7
    elif how == "inplace-mod":
        sk.registers[:] = 3
        sk.registers %= 2
    else:  # an update, a query in between, then its inverse
        sk.update_batch(vs, ys)
        assert np.array_equal(_memo_product(sk), _fresh(sk).prod(axis=0))
        sk.update_batch(vs, -ys)


@pytest.mark.parametrize("how", ["update_batch", "register-write", "inplace-mod", "update-inverse"])
def test_memo_misses_after_the_registers_change(fresh_memo, how):
    sk = _binomial_z7()
    before = _memo_product(sk)
    _mutate(sk, how)
    got = _memo_product(sk)
    assert np.array_equal(got, _fresh(sk).prod(axis=0))
    assert np.array_equal(got, before) == (how == "update-inverse")


def test_memo_tells_same_config_sketches_apart(fresh_memo):
    z7a, z7b = _binomial_z7(salt=1), _binomial_z7(salt=2)
    ski = sketch_new(replace(z7a.config, group=None))
    rng = np.random.default_rng(4)
    ski.update_batch(rng.integers(0, 1 << 40, 2000), rng.integers(-1000, 1000, 2000))
    assert z7a.config == z7b.config == ski.reduce_values_mod(7).config
    wants = [_fresh(sk).prod(axis=0) for sk in (z7a, z7b, ski.reduce_values_mod(7))]
    assert not np.array_equal(wants[0], wants[1]) and not np.array_equal(wants[0], wants[2])
    for _ in range(3):
        for sk, want in zip((z7a, z7b, ski.reduce_values_mod(7)), wants):
            assert np.array_equal(_memo_product(sk), want)
    assert len(fresh_memo) == 3


def test_memo_evicts_least_recently_used_past_its_budget(fresh_memo, monkeypatch):
    sketches = [_binomial_z7(seed=s, n=200) for s in range(12)]
    monkeypatch.setattr(fresh_memo, "budget", 8 * (sketches[0].registers.nbytes + 16 * 7))  # 8 entries
    for sk in sketches[:8]:
        _memo_product(sk)
    _memo_product(sketches[0])  # a hit makes seed 0 the most recent entry
    for sk in sketches[8:]:
        _memo_product(sk)
        assert memo_bytes(fresh_memo) <= fresh_memo.budget
    assert [c.seed for c, *_ in fresh_memo] == [5, 6, 7, 0, 8, 9, 10, 11]
    for sk in sketches:
        assert np.array_equal(_memo_product(sk), _fresh(sk).prod(axis=0))
    assert len(fresh_memo) == 8


def test_memo_entries_do_not_alias_callers(fresh_memo):
    sk = _binomial_z7()
    regs = sk.registers.copy()
    want = _fresh(sk).prod(axis=0)
    spectrum = modulo_spectrum(7, 3)
    estimate_f(sk, spectrum).gamma_terms[:] = 0  # written into a miss's result
    estimate_f(sk, spectrum).gamma_terms[:] = 0  # and into a hit's
    column_aggregates(sk).values[:] = 0  # and into fresh aggregates
    _mutate(sk, "register-write")
    ((_, _, snap, prod),) = fresh_memo
    assert np.array_equal(snap, regs) and np.array_equal(prod, want)
    sk.registers[:] = regs
    assert np.array_equal(_memo_product(sk), want)


@pytest.mark.parametrize("how", ["update_batch", "register-write", "add-modulus"])
def test_memo_integer_queries_reduce_only_on_a_miss(fresh_memo, monkeypatch, how):
    ski = sketch_new(replace(_binomial_z7().config, group=None))
    rng = np.random.default_rng(4)
    ski.update_batch(rng.integers(0, 1 << 40, 2000), rng.integers(-1000, 1000, 2000))
    reduce = IntegerTowerSketch.reduce_values_mod

    def refuse(self, p):
        raise AssertionError("an integer query built a reduced copy")

    def query(literal=False):
        return estimator._resolve_aggregates(ski, Z7, literal)[1]

    monkeypatch.setattr(IntegerTowerSketch, "reduce_values_mod", refuse)
    first = query()
    assert np.array_equal(query(), first) and len(fresh_memo) == 1
    if how == "update_batch":
        ski.update_batch(rng.integers(0, 1 << 40, 50), rng.integers(1, 7, 50))
    elif how == "register-write":
        ski.registers[3, 1] += 1
    else:  # the residues stay, the integer registers change
        ski.registers[3, 1] += 7
    got = query()
    assert len(fresh_memo) == 2  # a miss, keyed on the new integer registers
    assert np.array_equal(query(), got) and len(fresh_memo) == 2
    assert np.array_equal(query(literal=True), _uncached(reduce(ski, 7), literal=True).prod(axis=0))
    assert np.array_equal(got, _memo_product(reduce(ski, 7)))
    assert np.array_equal(got, first) == (how == "add-modulus")


@pytest.mark.parametrize(
    "query",
    [
        lambda z5, agg5, ski: estimate_modulo(z5, 7, 1),
        lambda z5, agg5, ski: estimate_support(z5, 7),
        lambda z5, agg5, ski: estimate_f(z5, modulo_spectrum(7, 1)),
        lambda z5, agg5, ski: estimate_f(agg5, modulo_spectrum(7, 1)),
        lambda z5, agg5, ski: estimate_f(ski, SpectrumTable(make_group([7, 7]), np.ones(49))),
    ],
    ids=["modulo", "support", "estimate_f", "aggregates", "integer-over-Z7xZ7"],
)
def test_group_mismatch_raises_before_aggregating(fresh_memo, query):
    z5 = sketch_new(_cfg(group=make_group([5]), seed=8))
    z5.update_batch(np.arange(40), np.arange(40) % 5)
    agg5 = column_aggregates(z5)
    ski = sketch_new(_cfg(group=None, seed=8))
    ski.update_batch(np.arange(40), np.arange(40))
    fresh_memo.clear()
    estimate_support(ski, 7)
    before = list(fresh_memo)
    with pytest.raises(GroupMismatchError):
        query(z5, agg5, ski)
    assert len(fresh_memo) == len(before) and all(e is b for e, b in zip(fresh_memo, before))


def test_column_aggregates_rejects_what_is_not_a_sketch(fresh_memo):
    # as estimate_f does; these raised a bare AttributeError
    sk = _binomial_z7()
    for bad in ("x", None, column_aggregates(sk), sk.registers):
        with pytest.raises(TypeError, match=f"cannot aggregate {type(bad).__name__}"):
            column_aggregates(bad)
    with pytest.raises(TypeError, match="cannot aggregate str"):
        estimate_f("x", modulo_spectrum(7, 1))
    assert len(fresh_memo) == 0


@pytest.mark.parametrize("literal", [False, True])
def test_column_aggregates_of_an_integer_sketch_names_both_ways_to_query_it(fresh_memo, literal):
    ski = sketch_new(_cfg(group=None, seed=8))
    ski.update_batch(np.arange(40), np.arange(40))
    estimate_support(ski, 7)
    before = list(fresh_memo)
    with pytest.raises(GroupMismatchError, match="estimate_f") as exc:
        column_aggregates(ski, literal=literal)
    assert "reduce_values_mod" in str(exc.value)
    assert len(fresh_memo) == len(before) and all(e is b for e, b in zip(fresh_memo, before))


@pytest.mark.parametrize("p", [2, 7, 128])
def test_integer_sketch_is_read_mod_the_spectrum_order(fresh_memo, p):
    ski = sketch_new(_cfg(group=None, m=8, b=64, seed=9))
    rng = np.random.default_rng(p)
    ski.update_batch(rng.integers(0, 1 << 40, 500), rng.integers(-1000, 1000, 500))
    spectrum = SpectrumTable(make_group([p]), rng.normal(size=p) + 1j * rng.normal(size=p))
    for literal in (False, True):
        got = estimate_f(ski, spectrum, literal=literal)
        want = estimate_f(ski.reduce_values_mod(p), spectrum, literal=literal)
        assert got == want and np.array_equal(got.gamma_terms, want.gamma_terms)
    with pytest.raises(GroupMismatchError):
        estimate_f(ski, SpectrumTable(make_group([7, 7]), np.ones(49)))


@pytest.mark.parametrize(
    "query",
    [
        lambda ski, p: modulo_spectrum(p, 1),
        lambda ski, p: estimate_support(ski, p),
        lambda ski, p: estimate_modulo(ski, p, 1),
        lambda ski, p: ski.reduce_values_mod(p),
    ],
    ids=["modulo_spectrum", "estimate_support", "estimate_modulo", "reduce_values_mod"],
)
def test_cached_groups_keep_the_order_validation(fresh_memo, query):
    # 7.0 == 7 and both hash alike: a cache keyed on the raw order would hand back Z_7
    ski = sketch_new(_cfg(group=None, m=8, b=64, seed=9))
    ski.update_batch(np.arange(500), np.arange(500) - 250)
    query(ski, 7)  # the Z_7 caches are warm
    for bad in (7.0, np.float64(7.0), 7.5, "7", None):
        with pytest.raises(InvalidGroupError):
            query(ski, bad)


def test_numpy_integer_orders_give_the_bits_of_python_ints(fresh_memo):
    ski = sketch_new(_cfg(group=None, m=8, b=64, seed=9))
    rng = np.random.default_rng(7)
    ski.update_batch(rng.integers(0, 1 << 40, 500), rng.integers(-1000, 1000, 500))
    for p in (np.int64(7), 7, np.int32(7)):
        assert np.array_equal(modulo_spectrum(p, 3).values, modulo_spectrum(7, 3).values)
        assert estimate_support(ski, p) == estimate_support(ski, 7)
        got, want = estimate_modulo(ski, p, 3), estimate_modulo(ski, 7, 3)
        assert got == want and np.array_equal(got.gamma_terms, want.gamma_terms)
        assert ski.reduce_values_mod(p) == ski.reduce_values_mod(7)


def test_memo_is_safe_across_threads(fresh_memo, monkeypatch):
    sketches = [_binomial_z7(seed=s, n=300) for s in range(10)]
    monkeypatch.setattr(fresh_memo, "budget", 5 * (sketches[0].registers.nbytes + 16 * 7))  # 5 entries
    wants = [_fresh(sk).prod(axis=0) for sk in sketches]
    bad = []

    def work(offset):
        for i in range(40):
            k = (i + offset) % len(sketches)
            if not np.array_equal(_memo_product(sketches[k]), wants[k]):
                bad.append(k)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == [] and memo_bytes(fresh_memo) <= fresh_memo.budget and len(fresh_memo) <= 5
    for cfg, literal, snap, prod in fresh_memo:
        assert np.array_equal(prod, _column_aggregates(cfg, snap, literal).values.prod(axis=0))


OPS = st.lists(
    st.tuples(
        st.sampled_from(["batch", "inverse", "write", "query"]),
        st.integers(0, 1),  # which of two same-config sketches
        st.integers(0, 2**32 - 1),
        st.booleans(),  # literal flag of a query
    ),
    max_size=30,
)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=OPS)
def test_memo_equals_the_uncached_computation(monkeypatch, ops):
    groups._MEMO.clear()
    sketches = [sketch_new(_cfg(m=4, a=0, b=12, seed=2)) for _ in range(2)]
    budget = 3 * (sketches[0].registers.nbytes + 16 * 7)  # 3 entries, so queries evict
    monkeypatch.setattr(groups._MEMO, "budget", budget)
    history = [[], []]
    for op, i, x, literal in ops:
        sk = sketches[i]
        if op == "batch":
            rng = np.random.default_rng(x)
            batch = rng.integers(0, 1 << 30, 4), rng.integers(-20, 20, 4)
            sk.update_batch(*batch)
            history[i].append(batch)
        elif op == "inverse" and history[i]:
            vs, ys = history[i].pop(x % len(history[i]))
            sk.update_batch(vs, -ys)
        elif op == "write":
            sk.registers.flat[x % sk.registers.size] = x % 7
        elif op == "query":
            got = _memo_product(sk, literal)
            assert np.array_equal(got, _fresh(sk, literal).prod(axis=0))
            assert memo_bytes(groups._MEMO) <= budget
    for sk in sketches:
        assert np.array_equal(_memo_product(sk), _uncached(sk).prod(axis=0))
    groups._MEMO.clear()


def _traced_bytes(base):
    return tracemalloc.get_traced_memory()[0] - base


@pytest.mark.parametrize("d", [4, 6], ids=["Z7^4", "Z7^6"])
def test_memo_bytes_stay_within_its_budget(fresh_memo, monkeypatch, d):
    group = make_group([7] * d)
    rng = np.random.default_rng(17)
    sketches = []
    for seed in range(7):
        sk = sketch_new(SketchConfig(group, 8, 40, 216, seed, "binomial"))
        sk.update_batch(rng.integers(0, 1 << 40, 500), rng.integers(0, 7, (500, d)))
        sketches.append(sk)
    wants = [_uncached(sk).prod(axis=0) for sk in sketches]  # also builds the shared weights
    charge = sketches[0].registers.nbytes + 16 * group.total_size
    monkeypatch.setattr(fresh_memo, "budget", 3 * charge + charge // 2)
    # a transform whose table and result alone are over the budget
    big = make_group([2] * (fresh_memo.budget // 32).bit_length())
    table = FunctionTable(big, rng.normal(size=big.total_size) + 0j)
    slack = 16 << 10  # entry tuples and array headers, which the charge leaves out
    order = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for k in (0, 1, 2, 0, 3, 4, 5):  # the second query of sketch 0 is a hit, which makes it the newest
            assert _memo_product(sketches[k]).tobytes() == wants[k].tobytes()
            order.append([cfg.seed for cfg, *_ in fresh_memo])
            assert memo_bytes(fresh_memo) <= _traced_bytes(base) <= fresh_memo.budget + slack
        before = list(fresh_memo)
        got = dft(big, table)
        assert got.values.tobytes() == np.fft.fftn(table.values.reshape(big.orders)).tobytes()
        del got
        assert _traced_bytes(base) <= fresh_memo.budget + slack  # nothing of the large transform stayed
    finally:
        tracemalloc.stop()
    assert 2 * 16 * big.total_size > fresh_memo.budget
    assert len(fresh_memo) == len(before) and all(e is b for e, b in zip(fresh_memo, before))
    assert order == [[0], [0, 1], [0, 1, 2], [1, 2, 0], [2, 0, 3], [0, 3, 4], [3, 4, 5]]
    stored = {cfg.seed: prod for cfg, _, _, prod in fresh_memo}
    for k in (3, 4, 5, 0, 1, 2, 6):  # a hit returns the stored product itself, a miss a fresh one
        got = _memo_product(sketches[k])
        assert got.tobytes() == wants[k].tobytes() and (got is stored.get(k)) == (k in stored)


def test_memo_budget_holds_one_z7_8_entry(fresh_memo):
    assert fresh_memo.budget == groups._MEMO_BYTES == 128 << 20
    # a Z_7^8 binomial tower at m=64: (1408, 3, 8) int64 registers and a 16-byte complex per character
    entry = 1408 * 3 * 8 * 8 + 16 * 7**8
    assert entry <= groups._MEMO_BYTES < 2 * entry
    # a real Z_7^6 entry under the real budget: stored, charged its registers and product
    group = make_group([7] * 6)
    sk = sketch_new(SketchConfig(group, 64, 320, 1728, 5, "binomial"))
    rng = np.random.default_rng(19)
    sk.update_batch(rng.integers(0, 1 << 40, 3000), rng.integers(0, 7, (3000, 6)))
    want = _uncached(sk).prod(axis=0)
    got = _memo_product(sk)
    assert memo_bytes(fresh_memo) == sk.registers.nbytes + 16 * group.total_size == 2_085_136
    assert got.tobytes() == want.tobytes() and _memo_product(sk) is got is fresh_memo[0][-1]


# -- warm queries ------------------------------------------------------------------


def test_warm_estimate_copies_no_registers(fresh_memo):
    z2_8 = make_group([2] * 8)
    sk = sketch_new(SketchConfig(z2_8, 64, 320, 1728, 3, "binomial"))
    rng = np.random.default_rng(11)
    sk.update_batch(rng.integers(0, 1 << 40, 5000), rng.integers(0, 2, (5000, 8)))
    assert sk.registers.shape == (1408, 3, 8) and sk.registers.nbytes == 270_336
    spectrum = SpectrumTable(z2_8, rng.normal(size=256) + 1j * rng.normal(size=256))
    cold = estimate_f(sk, spectrum)
    tracemalloc.start()
    try:
        warm = estimate_f(sk, spectrum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a byte copy of the registers for the memo compare alone would be 270 KB
    assert peak < sk.registers.nbytes // 4
    assert warm == cold and np.array_equal(warm.gamma_terms, cold.gamma_terms)


def test_warm_estimate_allocates_the_compare_mask_and_its_terms_only(fresh_memo, monkeypatch):
    z2_8 = make_group([2] * 8)
    sk = sketch_new(SketchConfig(z2_8, 64, 320, 1728, 3, "binomial"))
    rng = np.random.default_rng(11)
    sk.update_batch(rng.integers(0, 1 << 40, 5000), rng.integers(0, 2, (5000, 8)))
    spectrum = SpectrumTable(z2_8, rng.normal(size=256) + 1j * rng.normal(size=256))
    cold = estimate_f(sk, spectrum)
    same_bits, compares = groups._same_bits, []

    def compare(a, b):  # the traced peak up to the end of the compare, then a fresh one
        same = same_bits(a, b)
        compares.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return same

    monkeypatch.setattr(groups, "_same_bits", compare)
    tracemalloc.start()
    try:
        warm = estimate_f(sk, spectrum)
        after = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mask, table = sk.registers.size, 16 * z2_8.total_size  # one bool per register, one complex row
    assert mask == 33_792 and len(compares) == 1
    assert max(compares[0], after) < mask + 3 * table
    # past the compare, a hit holds its terms: no copy of the stored (3, |G|) aggregates, no product
    assert after < 2 * table
    assert _report_bits(warm) == _report_bits(cold)


def _report_bits(report):
    return np.array([report.estimate, report.imag_residual]).tobytes(), report.gamma_terms.tobytes()


def _formula_bits(sk, s, literal):
    """The estimate as ``s.values * prod / scale / |G|`` and ``.sum()``, from unmemoized aggregates."""
    if isinstance(sk, IntegerTowerSketch):
        sk = sk.reduce_values_mod(s.group.orders[0])
    cfg = sk.config
    values = _column_aggregates(cfg, sk.registers, literal).values
    terms = s.values * values.prod(axis=0) / (cfg.m**3 * estimator._SCALE) / s.group.total_size
    total = terms.sum()
    return np.array([float(total.real), abs(float(total.imag))]).tobytes(), terms.tobytes()


WARM_CASES = ["int-2", "int-7", "int-128", "Z7", "Z2^8", "product", "aggregates"]


def _warm_case(case, rng):
    """(sketch, spectrum) of a case."""
    n = 300
    ids = rng.integers(0, 1 << 40, n)
    if case.startswith("int"):
        p = int(case[4:])
        sk = sketch_new(_cfg(group=None, m=8, a=0, b=64, seed=int(rng.integers(1 << 30))))
        sk.update_batch(ids, rng.integers(-1000, 1000, n))
        group = make_group([p])
    else:
        group = make_group([2] * 8) if case == "Z2^8" else Z7
        sk = sketch_new(_cfg(group=group, m=8, a=0, b=64, seed=int(rng.integers(1 << 30))))
        sk.update_batch(ids, rng.integers(0, 2, (n, 8)) if case == "Z2^8" else rng.integers(-50, 50, n))
        if case == "product":
            other = sketch_new(sk.config)
            other.update_batch(ids[::2], rng.integers(1, 7, n)[::2])
            sk = combine_product(sk, other)
            group = sk.group
    spectrum = SpectrumTable(group, rng.normal(size=group.total_size) + 1j * rng.normal(size=group.total_size))
    return sk, spectrum


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WARM_CASES), st.booleans(), st.integers(0, 2**32 - 1))
def test_warm_estimate_equals_the_cold_one_bit_for_bit(case, literal, seed):
    groups._MEMO.clear()
    rng = np.random.default_rng(seed)
    sk, spectrum = _warm_case(case, rng)
    orders = sk.config.group.orders if sk.config.group is not None else None
    per_state = case != "aggregates"  # fresh aggregates neither read nor fill the memo

    def query():
        target = column_aggregates(sk, literal=literal) if case == "aggregates" else sk
        return _report_bits(estimate_f(target, spectrum, literal=literal))

    cold = query()  # a miss
    assert cold == _formula_bits(sk, spectrum, literal)
    assert query() == cold and len(groups._MEMO) == per_state  # a hit
    regs = sk.registers.copy()
    cell = tuple(int(rng.integers(k)) for k in sk.registers.shape)
    sk.registers[cell] = regs[cell] + 1 if orders is None else (regs[cell] + 1) % orders[cell[-1]]
    written = query()  # a miss on the written registers
    assert written == _formula_bits(sk, spectrum, literal) and len(groups._MEMO) == 2 * per_state
    assert query() == written
    sk.registers[:] = regs
    assert query() == cold and len(groups._MEMO) == 2 * per_state  # a hit again
    groups._MEMO.clear()


@pytest.mark.parametrize("literal", [False, True])
def test_memo_entries_are_read_only_and_exact(fresh_memo, literal):
    z7 = _binomial_z7()
    ski = sketch_new(replace(z7.config, group=None))
    rng = np.random.default_rng(4)
    ski.update_batch(rng.integers(0, 1 << 40, 2000), rng.integers(-1000, 1000, 2000))
    _memo_product(z7, literal)
    estimate_support(ski, 128, literal=literal)
    assert len(fresh_memo) == 2
    for cfg, lit, snap, prod in fresh_memo:
        reduced = snap if snap.ndim == 3 else ski.reduce_values_mod(cfg.group.orders[0]).registers
        want = _column_aggregates(cfg, reduced, lit).values
        assert prod.tobytes() == want.prod(axis=0).tobytes()
        assert not prod.flags.writeable
        with pytest.raises(ValueError):
            prod[..., 0] = 0


@pytest.mark.parametrize("case", ["int-128", "Z7", "Z2^8", "product"])
def test_memo_entries_hold_only_the_column_product(fresh_memo, case):
    sk, spectrum = _warm_case(case, np.random.default_rng(12))
    for literal in (False, True):
        estimate_f(sk, spectrum, literal=literal)
    assert len(fresh_memo) == 2
    for entry in fresh_memo:
        cfg, literal, snap, prod = entry
        assert cfg.group == spectrum.group and isinstance(prod, np.ndarray) and not prod.flags.writeable
        reduced = snap if snap.ndim == 3 else sk.reduce_values_mod(cfg.group.orders[0]).registers
        want = _column_aggregates(cfg, reduced, literal).values.prod(axis=0)
        assert prod.dtype == want.dtype and prod.shape == want.shape and prod.tobytes() == want.tobytes()


@pytest.mark.parametrize("literal", [False, True])
def test_column_aggregates_leaves_the_memo_alone_and_returns_fresh_arrays(fresh_memo, literal):
    sk = _binomial_z7()
    want = _fresh(sk, literal)
    got = [column_aggregates(sk, literal=literal) for _ in range(3)]
    assert len(fresh_memo) == 0  # a cold call stores nothing
    estimate_support(sk, 7, literal=literal)
    before = list(fresh_memo)
    got += [column_aggregates(sk, literal=literal) for _ in range(3)]
    assert len(fresh_memo) == len(before) == 1 and all(e is b for e, b in zip(fresh_memo, before))
    for i, agg in enumerate(got):
        assert agg.values.flags.writeable and agg.values.tobytes() == want.tobytes()
        assert agg.literal == literal and agg.config == sk.config
        assert all(agg.values is not other.values for other in got[:i])
        assert agg.values is not fresh_memo[0][3] and not np.shares_memory(agg.values, fresh_memo[0][3])


def test_memo_holds_a_column_product_and_a_register_snapshot_per_entry(fresh_memo):
    # an entry is one complex row and a register snapshot; the (3, |G|) aggregates would add 5.6 MB each
    group = make_group([7] * 6)
    rng = np.random.default_rng(13)
    sketches = []
    for seed in range(4):
        sk = sketch_new(SketchConfig(group, 64, 320, 1728, seed, "binomial"))
        sk.update_batch(rng.integers(0, 1 << 40, 3000), rng.integers(0, 7, (3000, 6)))
        sketches.append(sk)
    spectrum = _support_spectrum(group)
    estimate_f(sketches.pop(), spectrum)  # the shared tables (weights, descriptor, spectrum) are built
    fresh_memo.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for sk in sketches:
            estimate_f(sk, spectrum)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(fresh_memo) == 3
    entry = 16 * group.total_size + sketches[0].registers.nbytes
    assert entry == 2_085_136 and held <= 1.1 * 3 * entry


def test_writes_into_results_leave_the_next_estimate_unchanged(fresh_memo):
    z7, z2_8 = _binomial_z7(), sketch_new(_cfg(group=make_group([2] * 8), m=8, a=0, b=64, seed=5))
    rng = np.random.default_rng(6)
    z2_8.update_batch(rng.integers(0, 1 << 40, 500), rng.integers(0, 2, (500, 8)))
    table = FunctionTable(z2_8.group, rng.normal(size=256) + 0j)
    spectrum = modulo_spectrum(7, 3)
    before = [_report_bits(estimate_f(z7, spectrum)), _report_bits(estimate_f(z2_8, dft(z2_8.group, table)))]
    column_aggregates(z7).values[:] = 0
    column_aggregates(z2_8).values[:] = 0
    estimate_f(z7, spectrum).gamma_terms[:] = 0
    estimate_f(z2_8, dft(z2_8.group, table)).gamma_terms[:] = 0
    dft(z2_8.group, table).values[:] = 0
    assert _report_bits(estimate_f(z7, spectrum)) == before[0]
    assert _report_bits(estimate_f(z2_8, dft(z2_8.group, table))) == before[1]


@pytest.mark.parametrize("p", [2, 7, 128])
def test_cached_spectra_equal_the_uncached_construction(p):
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    for j in range(p):
        got = modulo_spectrum(p, j)
        assert got.group == make_group([p])
        assert got.values.tobytes() == roots[(-j * np.arange(p)) % p].tobytes()
        assert modulo_spectrum(np.int64(p), np.int32(j)).values.tobytes() == got.values.tobytes()
    for group in (make_group([p]), make_group([p, 7])):
        got = _support_spectrum(group)
        assert got.group == group
        assert got.values.tobytes() == np.full(group.total_size, -1.0 + 0.0j).tobytes()


@pytest.mark.parametrize(
    "spectrum", [lambda: modulo_spectrum(7, 3), lambda: _support_spectrum(make_group([7, 7]))],
    ids=["modulo", "support"],
)
def test_cached_spectra_are_read_only(fresh_memo, spectrum):
    sk = _binomial_z7()
    if spectrum().group != Z7:
        sk = combine_product(sk, _binomial_z7(salt=1))
    want = spectrum().values.copy()
    before = estimate_f(sk, spectrum())
    for write in (lambda v: v.__setitem__(0, 0.0), lambda v: v.__imul__(2.0), lambda v: v.fill(1.0)):
        with pytest.raises(ValueError):
            write(spectrum().values)
    assert spectrum().values.tobytes() == want.tobytes()
    assert estimate_f(sk, spectrum()) == before


@pytest.mark.parametrize(
    "p,j,error,message",
    [
        (7, 1.5, InvalidConfigError, r"^residue j=1\.5 is not an integer$"),
        (7, 7, InvalidConfigError, r"^residue 7 outside \[0, 7\)$"),
        (7, -1, InvalidConfigError, r"^residue -1 outside \[0, 7\)$"),
        (np.int64(7), np.int64(7), InvalidConfigError, r"^residue 7 outside \[0, 7\)$"),
        (1, 0, InvalidGroupError, r"^cyclic factor order 1 < 2 is invalid$"),
        (7.0, 1, InvalidGroupError, r"^cyclic factor order 7\.0 is not an integer$"),
    ],
    ids=["j-1.5", "j-p", "j-negative", "numpy-j-p", "p-1", "p-float"],
)
def test_modulo_spectrum_checks_every_input_before_its_cache(p, j, error, message):
    for _ in range(2):  # cold, then with the valid neighbours cached
        with pytest.raises(error, match=message):
            modulo_spectrum(p, j)
        modulo_spectrum(7, 6)
        modulo_spectrum(7, 1)

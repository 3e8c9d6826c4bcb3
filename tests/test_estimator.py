import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import aggregate_column, char_eval, column_aggregates_oracle
from hsketch import estimator
from hsketch.errors import GroupMismatchError, InvalidConfigError, InvalidRHatError
from hsketch.estimator import (
    EstimateReport,
    _column_aggregates,
    column_aggregates,
    estimate_f,
    estimate_modulo,
    estimate_support,
    estimate_union,
    export_estimates,
    modulo_spectrum,
    predict_variance,
    rhat_from_pmf,
    truncation_tail,
    variance_factor,
)
from hsketch.groups import FunctionTable, SpectrumTable, dft, make_group
from hsketch.tower import SketchConfig, combine_product, sketch_new

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
            cross = idx[group.add(group.neg(gamma), gamma2)]
            t1 = (1 - mu[cross]) ** (2 / 3)
            t2 = (2 - mu[idx[group.neg(gamma)]] - mu[hj]) ** (2 / 3)
            b = (1 - mu[idx[group.neg(gamma)]]) ** (2 / 3)
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


def test_rhat_validation():
    with pytest.raises(InvalidRHatError):
        rhat_from_pmf(Z7, {1: 0.7, 2: 0.7})
    from hsketch.estimator import RHatTable

    with pytest.raises(InvalidRHatError):
        RHatTable(Z7, np.full(7, 2.0 + 0j))
    bad = np.ones(7, dtype=complex)
    bad[0] = 0.2
    with pytest.raises(InvalidRHatError):
        RHatTable(Z7, bad)


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


def test_export_estimates_schema(tmp_path):
    path = tmp_path / "est.csv"
    rows = [
        ("fourier", "lambda0", 3, EstimateReport(12.5, 1e-11), 13.0),
        ("fingerprint-r3", "lambda2", 3, EstimateReport(4.0, 0.0), 5.0),
    ]
    export_estimates(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,quantity,seed,estimate,imag_residual,truth"
    assert lines[1].startswith("fourier,lambda0,3,12.5,")
    assert len(lines) == 3


def test_gamma_terms_table():
    sk = sketch_new(_cfg(seed=13))
    sk.update_batch(np.arange(25), 1 + (np.arange(25) % 6))
    spectrum = modulo_spectrum(7, 2)
    rep = estimate_f(sk, spectrum, want_gamma_terms=True)
    assert rep.gamma_terms is not None and rep.gamma_terms.shape == (7,)
    assert rep.gamma_terms.sum().real == pytest.approx(rep.estimate, abs=1e-12)
    assert estimate_f(sk, spectrum).gamma_terms is None


# -- distinct-value aggregation against the per-register oracle -----------------

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
    assert np.array_equal(got.values, want.values)
    assert got.literal == literal and got.config == sk.config


# -- the column_aggregates memo -----------------------------------------------------


@pytest.fixture
def fresh_memo():
    estimator._MEMO.clear()
    yield estimator._MEMO
    estimator._MEMO.clear()


def _binomial_z7(seed=3, n=2000, salt=0):
    rng = np.random.default_rng(salt)
    sk = sketch_new(SketchConfig(Z7, 8, 40, 216, seed, "binomial"))
    sk.update_batch(rng.integers(0, 1 << 40, n), rng.integers(-50, 50, n))
    return sk


def _uncached(sk, literal=False):
    return _column_aggregates(sk.config, sk.registers, literal).values


@pytest.mark.parametrize("literal", [False, True])
def test_memo_repeated_query_returns_the_fresh_bits(fresh_memo, literal):
    sk = _binomial_z7()
    want = column_aggregates_oracle(sk, literal=literal).values
    first = column_aggregates(sk, literal=literal)
    second = column_aggregates(sk, literal=literal)
    assert len(fresh_memo) == 1
    assert np.array_equal(first.values, want) and np.array_equal(second.values, want)
    assert second.values is not first.values and second.values is not fresh_memo[0][3]
    assert second.literal == literal and second.config == sk.config
    # the other flag is its own entry: its trivial-character column differs
    other = column_aggregates(sk, literal=not literal)
    assert len(fresh_memo) == 2
    assert np.array_equal(other.values, column_aggregates_oracle(sk, literal=not literal).values)
    assert not np.array_equal(other.values, want)


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
        assert np.array_equal(column_aggregates(sk).values, column_aggregates_oracle(sk).values)
        sk.update_batch(vs, -ys)


@pytest.mark.parametrize("how", ["update_batch", "register-write", "inplace-mod", "update-inverse"])
def test_memo_misses_after_the_registers_change(fresh_memo, how):
    sk = _binomial_z7()
    before = column_aggregates(sk).values
    _mutate(sk, how)
    got = column_aggregates(sk).values
    assert np.array_equal(got, column_aggregates_oracle(sk).values)
    assert np.array_equal(got, before) == (how == "update-inverse")


def test_memo_tells_same_config_sketches_apart(fresh_memo):
    z7a, z7b = _binomial_z7(salt=1), _binomial_z7(salt=2)
    ski = sketch_new(replace(z7a.config, group=None))
    rng = np.random.default_rng(4)
    ski.update_batch(rng.integers(0, 1 << 40, 2000), rng.integers(-1000, 1000, 2000))
    assert z7a.config == z7b.config == ski.reduce_values_mod(7).config
    wants = [column_aggregates_oracle(sk).values for sk in (z7a, z7b, ski.reduce_values_mod(7))]
    assert not np.array_equal(wants[0], wants[1]) and not np.array_equal(wants[0], wants[2])
    for _ in range(3):
        for sk, want in zip((z7a, z7b, ski.reduce_values_mod(7)), wants):
            assert np.array_equal(column_aggregates(sk).values, want)
    assert len(fresh_memo) == 3


def test_memo_holds_at_most_eight_least_recently_used(fresh_memo):
    sketches = [_binomial_z7(seed=s, n=200) for s in range(12)]
    for sk in sketches[:8]:
        column_aggregates(sk)
    column_aggregates(sketches[0])  # a hit makes seed 0 the most recent entry
    for sk in sketches[8:]:
        column_aggregates(sk)
        assert len(fresh_memo) <= 8
    assert [c.seed for c, *_ in fresh_memo] == [5, 6, 7, 0, 8, 9, 10, 11]
    for sk in sketches:
        assert np.array_equal(column_aggregates(sk).values, column_aggregates_oracle(sk).values)
    assert len(fresh_memo) == 8


def test_memo_entries_do_not_alias_callers(fresh_memo):
    sk = _binomial_z7()
    regs = sk.registers.copy()
    want = column_aggregates_oracle(sk).values
    column_aggregates(sk).values[:] = 0  # written into a miss's result
    column_aggregates(sk).values[:] = 0  # and into a hit's
    _mutate(sk, "register-write")
    ((_, _, snap, values),) = fresh_memo
    assert np.array_equal(snap, regs) and np.array_equal(values, want)
    sk.registers[:] = regs
    assert np.array_equal(column_aggregates(sk).values, want)


def test_memo_is_safe_across_threads(fresh_memo):
    sketches = [_binomial_z7(seed=s, n=300) for s in range(10)]
    wants = [column_aggregates_oracle(sk).values for sk in sketches]
    bad = []

    def work(offset):
        for i in range(40):
            k = (i + offset) % len(sketches)
            if not np.array_equal(column_aggregates(sketches[k]).values, wants[k]):
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
    assert bad == [] and len(fresh_memo) <= 8
    for cfg, literal, snap, values in fresh_memo:
        assert np.array_equal(values, _column_aggregates(cfg, snap, literal).values)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["batch", "inverse", "write", "query"]),
        st.integers(0, 1),  # which of two same-config sketches
        st.integers(0, 2**32 - 1),
        st.booleans(),  # literal flag of a query
    ),
    max_size=30,
)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(OPS)
def test_memo_equals_the_uncached_computation(ops):
    estimator._MEMO.clear()
    sketches = [sketch_new(_cfg(m=4, a=0, b=12, seed=2)) for _ in range(2)]
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
            got = column_aggregates(sk, literal=literal).values
            assert np.array_equal(got, _uncached(sk, literal))
    for sk in sketches:
        assert np.array_equal(column_aggregates(sk).values, _uncached(sk))
    assert len(estimator._MEMO) <= 8
    estimator._MEMO.clear()

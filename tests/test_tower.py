import math
import struct
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _oracles import binomial_assign, binomial_levels_float, cell_count, sampler_levels_float
from hsketch import prf, tower
from hsketch.errors import (
    CannotCombineError,
    CorruptSketchError,
    GroupMismatchError,
    InvalidConfigError,
    InvalidGroupError,
    RegisterOverflowError,
)
from hsketch.estimator import estimate_union
from hsketch.groups import GroupDescriptor, make_group
from hsketch.sampler import SamplerSketch
from hsketch.tower import (
    IntegerTowerSketch,
    SketchConfig,
    TowerSketch,
    _CHUNK_UPDATES,
    _TowerBase,
    _binomial_levels_batch,
    _level_cdf,
    combine_product,
    default_window,
    deserialize,
    sketch_new,
    theoretical_window,
)

Z7 = make_group([7])


def _cfg(**kw):
    base = dict(group=Z7, m=4, a=0, b=16, seed=42, mode="poisson")
    base.update(kw)
    return SketchConfig(**base)


# -- configuration -------------------------------------------------------------


def test_sketch_new_register_count_example():
    cfg = SketchConfig(Z7, m=128, a=0, b=2816, seed=0, mode="poisson")
    sk = sketch_new(cfg)
    assert sk.registers.shape == (2816, 3, 1)
    assert sk.registers.size == 8448
    assert not sk.registers.any()


def test_binomial_sigma_validation():
    with pytest.raises(InvalidConfigError):
        SketchConfig(Z7, m=8, a=0, b=176, seed=0, mode="binomial")
    # sigma for (a, b) = (30, 200): direct geometric evaluation stays below 1
    sigma = sum(math.exp(-k / 8) for k in range(30, 200))
    assert sigma < 1
    cfg = SketchConfig(Z7, m=8, a=30, b=200, seed=0, mode="binomial")
    assert cfg.sigma == pytest.approx(sigma)


def test_too_wide_binomial_window_is_rejected_without_summing():
    # a million cells past mass 1: summing them took seconds and 48 MB, and
    # cached an 8 MB level CDF
    before = _level_cdf.cache_info().currsize
    t0 = time.perf_counter()
    with pytest.raises(InvalidConfigError, match="sigma < 1"):
        SketchConfig(Z7, 2, 1, 1 + 10**6, 0, "binomial")
    assert time.perf_counter() - t0 < 0.05
    assert _level_cdf.cache_info().currsize == before


@st.composite
def binomial_windows(draw):
    """(m, a, b) with b - a <= 4096; half of them end within 2 cells of where their sum crosses 1."""
    m = draw(st.integers(2, 512))
    a = draw(st.integers(1, 30 * m))
    n = draw(st.integers(1, 4096))
    if draw(st.booleans()):
        # the tail from a passes mass 1 while e^{-a/m} > 1 - e^{-1/m}, that is
        # a < edge; its sum reaches 1 at n = -m ln(1 - (1 - e^{-1/m}) e^{a/m})
        edge = -m * math.log(-math.expm1(-1 / m))
        a = max(1, math.ceil(edge) - 1 - draw(st.integers(0, 3 * m)))
        n = -m * math.log1p(math.expm1(-1 / m) * math.exp(a / m))
        n = min(max(1, round(n) + draw(st.integers(-2, 2))), 4096)
    return m, a, a + n


@given(binomial_windows())
def test_binomial_verdict_is_the_cumsums(window):
    m, a, b = window
    summed = np.cumsum([math.exp(-k / m) for k in range(a, b)])[-1]
    if summed >= 1.0:
        with pytest.raises(InvalidConfigError):
            SketchConfig(Z7, m, a, b, 0, "binomial")
    else:
        assert SketchConfig(Z7, m, a, b, 0, "binomial").sigma == summed


def test_config_invariants():
    with pytest.raises(InvalidConfigError):
        SketchConfig(Z7, m=1, a=0, b=8, seed=0)
    with pytest.raises(InvalidConfigError):
        SketchConfig(Z7, m=4, a=8, b=8, seed=0)
    with pytest.raises(InvalidConfigError):
        SketchConfig(Z7, m=4, a=-100, b=8, seed=0)  # cell mean e^{25} unsupported
    for mode in ("poisson", "binomial"):  # e^{-a/m} beyond the float range
        with pytest.raises(InvalidConfigError):
            SketchConfig(Z7, m=2, a=-1500, b=-1499, seed=0, mode=mode)


@pytest.mark.parametrize("group", [[7], (7,), 7, "Z7", make_group([7]).orders])
def test_config_rejects_a_group_that_is_not_a_descriptor(group):
    # accepted unchecked, a list group made sketch_new raise a bare AttributeError
    with pytest.raises(InvalidConfigError, match="GroupDescriptor"):
        SketchConfig(group, m=8, a=0, b=64, seed=1)
    assert SketchConfig(None, m=8, a=0, b=64, seed=1).group is None


def test_windows():
    assert default_window(64) == (0, 1408)
    lo, hi = theoretical_window(32, 10_000)
    assert lo == math.floor(32 * (math.log(10_000) - 6 * math.log(32)))
    assert hi == math.ceil(32 * (math.log(10_000) + 3 * math.log(32)))
    assert theoretical_window(np.int64(32), np.float64(10_000)) == (lo, hi)
    # m=2.5 returned (-8, 13); m=0 and lam=nan leaked ValueError, lam=inf OverflowError
    for m, lam in [(0, 10), (1, 10), (2.5, 10), ("32", 10), (2**32, 10), (32, 0), (32, -1.0),
                   (32, math.nan), (32, math.inf), (32, -math.inf), (32, "10"), (32, None), (32, 1j)]:
        with pytest.raises(InvalidConfigError):
            theoretical_window(m, lam)


# -- cell counts ----------------------------------------------------------------


def test_cell_count_deterministic():
    for args in [(1, 5, 1, 0, 4), (1, 5, 2, 3, 4), (99, 123456, 3, 40, 64)]:
        assert cell_count(*args) == cell_count(*args)


def test_cell_count_monte_carlo_mean():
    # mean of the count at a cell of mass ~0.1 over 10^6 distinct elements
    m, k = 10, 23  # e^{-23/10} = 0.10026
    mu = math.exp(-k / m)
    from _oracles import _poisson_counts_batch

    counts = _poisson_counts_batch(7, np.arange(1_000_000), 1, k, m)
    assert abs(counts.mean() - mu) <= 1e-3


def test_cell_count_tiny_mean_fast_path():
    # mass below 1e-15: the draw degenerates to zero with overwhelming odds
    from _oracles import _poisson_counts_batch

    counts = _poisson_counts_batch(7, np.arange(1_000_000), 2, 400, 10)
    assert not counts.any()


def test_cell_count_matches_update():
    # the definitional check: a single update writes scalar_mul(count, y)
    cfg = _cfg(seed=17)
    sk = sketch_new(cfg)
    v, y = 9, 3
    sk.update(v, y)
    for i, k in enumerate(range(cfg.a, cfg.b)):
        for j in (1, 2, 3):
            expect = cell_count(cfg.seed, v, j, k, cfg.m) * y % 7
            assert sk.registers[i, j - 1, 0] == expect


def test_binomial_assign_distribution():
    cfg = SketchConfig(Z7, m=8, a=30, b=206, seed=5, mode="binomial")
    n = 1_000_000
    levels = _binomial_levels_batch(cfg.seed, np.arange(n), 1, cfg)
    p_a = math.exp(-cfg.a / cfg.m)
    frac_a = np.mean(levels == 0)
    assert abs(frac_a - p_a) <= 3 * math.sqrt(p_a * (1 - p_a) / n)
    p_noop = 1.0 - cfg.sigma
    frac_noop = np.mean(levels == cfg.num_cells)
    assert abs(frac_noop - p_noop) <= 3 * math.sqrt(p_noop * (1 - p_noop) / n)
    assert binomial_assign(cfg.seed, 123, 1, cfg) == binomial_assign(cfg.seed, 123, 1, cfg)


def _probe_words(grid: np.ndarray, n: int, seed) -> np.ndarray:
    """n random words, then words whose top 53 bits are t - 1, t and t + 1 for
    every boundary t = ceil(c * 2^53) of the float grid, and 0 and 2^53 - 1,
    with random low bits."""
    rng = np.random.default_rng(seed)
    t = np.ceil(grid * 2.0**53).astype(np.int64)
    u = np.concatenate([t - 1, t, t + 1, [0, (1 << 53) - 1]])
    u = u[(u >= 0) & (u < 1 << 53)].astype(np.uint64)
    low = rng.integers(0, 1 << 11, u.size, dtype=np.uint64)
    return np.concatenate([rng.integers(0, 2**64, n, dtype=np.uint64), u << np.uint64(11) | low])


@pytest.mark.parametrize(
    "m,a,b", [(2, 3, 9), (8, 40, 176), (64, 320, 1408), (64, 267, 1000), (2, 2, 3)]
)
def test_binomial_level_draw_matches_the_float_oracle(monkeypatch, m, a, b):
    cfg = SketchConfig(None, m, a, b, 5, "binomial")
    words = _probe_words(_level_cdf(m, a, b), 1 << 20, [m, a, b])
    monkeypatch.setattr(prf, "draw", lambda state, key: words)  # the draw sees these words
    got = _binomial_levels_batch(cfg.seed, np.zeros(len(words), dtype=np.int64), 1, cfg)
    assert np.array_equal(got, binomial_levels_float(cfg, words))


@pytest.mark.parametrize("m_prime", [24, 48, 64, 192])
def test_sampler_level_draw_matches_the_float_oracle(monkeypatch, m_prime):
    sampler = SamplerSketch(Z7, m_prime, seed=3)
    grid = np.exp(-np.arange(sampler.num_levels, 0, -1) / m_prime)
    words = _probe_words(grid, 1 << 20, m_prime)
    monkeypatch.setattr(prf, "draw", lambda state, key: words)
    got = sampler._levels(np.zeros(len(words), dtype=np.int64))
    assert np.array_equal(got, sampler_levels_float(sampler, words))


@pytest.mark.parametrize("grid", ["binomial", 32, 48], ids=["binomial-m64", "sampler-m32", "sampler-m48"])
def test_level_draw_closed_form_guess_rarely_needs_the_search(monkeypatch, grid):
    # the search covers a bad guess, so a broken guess would only run slower
    searched = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda a, v, side: searched.append(len(v)) or search(a, v, side))
    vs = np.arange(1 << 16)
    if grid == "binomial":  # the query-refresh window
        _binomial_levels_batch(9, vs, 1, SketchConfig(None, 64, 320, 1728, 9, "binomial"))
    else:
        SamplerSketch(Z7, grid, seed=9)._levels(vs)
    assert sum(searched) < len(vs) // 100


# -- update semantics -------------------------------------------------------------


@pytest.mark.parametrize("mode", ["poisson", "binomial"])
def test_update_then_inverse_restores(mode):
    if mode == "poisson":
        cfg = _cfg()
    else:
        cfg = SketchConfig(Z7, m=4, a=10, b=40, seed=3, mode="binomial")
    sk = sketch_new(cfg)
    sk.update(11, 5)
    assert sk.registers.any()
    sk.update(11, 2)  # 5 + 2 = 0 mod 7
    assert not sk.registers.any()


def test_integer_inverse_restores():
    cfg = SketchConfig(None, m=4, a=0, b=16, seed=9, mode="poisson")
    sk = sketch_new(cfg)
    sk.update(4, 12345)
    sk.update(4, -12345)
    assert not sk.registers.any()


def test_integer_multiples_of_p_vanish_mod_p():
    cfg = SketchConfig(None, m=4, a=0, b=16, seed=9, mode="poisson")
    sk = sketch_new(cfg)
    sk.update_batch(np.arange(50), np.full(50, 7))
    assert sk.registers.any()
    assert not sk.reduce_values_mod(7).registers.any()


_INGESTORS = {
    "group-tower": lambda: sketch_new(_cfg(seed=6)),
    "integer-tower": lambda: sketch_new(SketchConfig(None, m=4, a=0, b=16, seed=6, mode="poisson")),
    "sampler": lambda: SamplerSketch(Z7, 8, seed=6),
}


def _ingest_state(obj) -> np.ndarray:
    return obj.slots if isinstance(obj, SamplerSketch) else obj.registers


@pytest.mark.parametrize("bad", [2.7, -0.5, math.nan, math.inf])
@pytest.mark.parametrize("kind", sorted(_INGESTORS))
def test_update_batch_rejects_non_integral_values(kind, bad):
    obj = _INGESTORS[kind]()
    with pytest.raises(GroupMismatchError):
        obj.update_batch([1, 2], [3, bad])
    assert not _ingest_state(obj).any()
    # whole-number floats are the integers they spell
    as_float, as_int = _INGESTORS[kind](), _INGESTORS[kind]()
    as_float.update_batch([1, 2], [3.0, -2.0])
    as_int.update_batch([1, 2], [3, -2])
    assert np.array_equal(_ingest_state(as_float), _ingest_state(as_int))


@pytest.mark.parametrize(
    "vs,ys",
    [
        ([1.5, 2], [3, 4]),  # non-integral id
        ([2**70, 2], [3, 4]),  # id past int64
        ([1, 2], [3, 2**70]),  # value past int64
        ([1, 2], np.array([3, 2**63], dtype=np.uint64)),
        (["a", "b"], [3, 4]),
        ([1, 2], ["3", "4"]),
        ([1, 2], [3, None]),
        ([[1], [2]], [3, 4]),  # ids must be 1-D
        (7, [3]),
        ([1, 2], [[3, 1], [4, 1]]),  # (n, 2) values: not a degree-1 group, not integers
        ([1, 2, 3], [3, 4]),
    ],
)
@pytest.mark.parametrize("kind", sorted(_INGESTORS))
def test_update_batch_rejects_malformed_batches(kind, vs, ys):
    obj = _INGESTORS[kind]()
    with pytest.raises(GroupMismatchError):
        obj.update_batch(vs, ys)
    assert not _ingest_state(obj).any()
    # whole-number float ids are the integers they spell
    as_float, as_int = _INGESTORS[kind](), _INGESTORS[kind]()
    as_float.update_batch([1.0, 2.0, 3e9], [3, -2, 5])
    as_int.update_batch([1, 2, 3_000_000_000], [3, -2, 5])
    assert np.array_equal(_ingest_state(as_float), _ingest_state(as_int))


def test_batch_equals_sequential():
    vs = np.arange(40)
    ys = (np.arange(40) % 6) + 1
    cfg = _cfg(seed=101)
    batch = sketch_new(cfg)
    batch.update_batch(vs, ys)
    seq = sketch_new(cfg)
    for v, y in zip(vs, ys):
        seq.update(int(v), int(y))
    assert batch == seq


def test_update_order_permutation_invariance():
    rng = np.random.default_rng(0)
    vs = np.arange(60)
    ys = rng.integers(1, 7, 60)
    cfg = _cfg(seed=55)
    s1 = sketch_new(cfg)
    s1.update_batch(vs, ys)
    perm = rng.permutation(60)
    s2 = sketch_new(cfg)
    s2.update_batch(vs[perm], ys[perm])
    assert s1 == s2


def test_linearity_of_concatenated_streams():
    cfg = _cfg(seed=77)
    rng = np.random.default_rng(2)
    vs1, ys1 = np.arange(30), rng.integers(1, 7, 30)
    vs2, ys2 = np.arange(20, 60), rng.integers(1, 7, 40)
    s1 = sketch_new(cfg)
    s1.update_batch(vs1, ys1)
    s2 = sketch_new(cfg)
    s2.update_batch(vs2, ys2)
    both = sketch_new(cfg)
    both.update_batch(np.concatenate([vs1, vs2]), np.concatenate([ys1, ys2]))
    assert np.array_equal((s1.registers + s2.registers) % 7, both.registers)


def test_register_overflow_guard():
    cfg = SketchConfig(None, m=4, a=0, b=16, seed=9, mode="poisson")
    sk = sketch_new(cfg)
    with pytest.raises(RegisterOverflowError):
        sk.update(1, 2**40)


@pytest.mark.parametrize("y", [-(2**63), 2**63 - 1, -(2**31) - 1, 2**31 + 1])
def test_update_magnitude_bound_is_signed(y):
    # -2^63 has no int64 magnitude: np.abs wraps it to itself
    cfg = SketchConfig(None, m=4, a=0, b=16, seed=9, mode="poisson")
    sk = sketch_new(cfg)
    sk.update_batch([3, 4], [5, -6])
    before = sk.registers.copy()
    with pytest.raises(RegisterOverflowError):
        sk.update_batch([1], np.array([y]))
    assert np.array_equal(sk.registers, before)


# -- compound-distribution check ---------------------------------------------------


def test_cell_distribution_matches_direct_simulation():
    """Register contents vs direct simulation of a Poisson number of i.i.d.
    support draws, compared with a two-sample chi-square test."""
    m, k = 2, 1
    values = np.array([1, 2, 3, 4, 5])  # support of size 5 over Z_7
    lam = len(values)
    mu_cell = math.exp(-k / m)
    trials = 10_000

    from _oracles import _poisson_counts_batch

    sketch_side = np.zeros(trials, dtype=np.int64)
    for seed in range(trials):
        counts = _poisson_counts_batch(seed, np.arange(lam), 1, k, m)
        sketch_side[seed] = int((counts * values).sum() % 7)

    rng = np.random.default_rng(123)
    draws = rng.poisson(lam * mu_cell, size=trials)
    sim_side = np.array(
        [int(rng.choice(values, size=n).sum() % 7) if n else 0 for n in draws]
    )

    n1 = np.bincount(sketch_side, minlength=7).astype(float)
    n2 = np.bincount(sim_side, minlength=7).astype(float)
    used = (n1 + n2) > 0
    chi2 = float((((n1 - n2) ** 2)[used] / (n1 + n2)[used]).sum())
    # chi-square critical value, df = 6, significance 1e-3
    assert chi2 <= 22.458


def test_binomial_occupancy_bound():
    cfg = SketchConfig(Z7, m=4, a=8, b=40, seed=0, mode="binomial")
    lam = 50
    trials = 300
    nonzero = np.zeros(cfg.num_cells)
    for seed in range(trials):
        sk = TowerSketch(SketchConfig(Z7, 4, 8, 40, seed, "binomial"))
        sk.update_batch(np.arange(lam), 1 + (np.arange(lam) % 6))
        nonzero += sk.registers[:, 0, 0] != 0
    occupancy = nonzero / trials
    for i, k in enumerate(range(cfg.a, cfg.b)):
        bound = 1.0 - (1.0 - math.exp(-k / cfg.m)) ** lam
        assert occupancy[i] <= bound + 3 * math.sqrt(bound * (1 - bound) / trials) + 1e-9


# -- product combination ------------------------------------------------------------


def test_combine_product_examples():
    cfg = _cfg(seed=5)
    s1, s2 = sketch_new(cfg), sketch_new(cfg)
    empty = combine_product(s1, s2)
    assert empty.group.orders == (7, 7)
    assert not empty.registers.any()

    s1.update(3, 4)
    prod = combine_product(s1, s2)
    assert np.array_equal(prod.registers[:, :, 0], s1.registers[:, :, 0])
    assert not prod.registers[:, :, 1].any()

    other = sketch_new(_cfg(seed=6))
    with pytest.raises(CannotCombineError):
        combine_product(s1, other)
    ints = sketch_new(_cfg(seed=5, group=None))
    for pair in [(ints, ints), (ints, s1), (s1, ints)]:
        with pytest.raises(CannotCombineError):
            combine_product(*pair)
    with pytest.raises(CannotCombineError):
        estimate_union(ints, ints)


def test_combine_product_groups_are_validated_like_any_other():
    z2_16 = make_group([2] * 16)
    s1, s2 = sketch_new(_cfg(group=z2_16)), sketch_new(_cfg(group=z2_16))
    with pytest.raises(InvalidGroupError):  # 2^32 elements, past MAX_TOTAL_SIZE
        combine_product(s1, s2)
    for orders in [(1,), (), (7.0,), (2**16, 2**16)]:
        with pytest.raises(InvalidGroupError):
            GroupDescriptor(orders)
    assert GroupDescriptor([np.int64(7)]) == make_group([7]) == GroupDescriptor((7,))


def test_repeated_combines_of_a_pair_share_one_config():
    # the product group is built per call; the config cache alone hands back one config
    s1, s2 = sketch_new(_cfg(group=make_group([7, 3]))), sketch_new(_cfg(group=make_group([5])))
    first = combine_product(s1, s2).config
    hits = tower._config_over.cache_info().hits
    second = combine_product(s1, s2).config
    assert second is first and second.group is first.group
    assert tower._config_over.cache_info().hits == hits + 1


def test_window_shares_cells():
    cfg = _cfg(seed=31, a=-4, b=20, m=4)
    sk = sketch_new(cfg)
    sk.update_batch(np.arange(25), 1 + (np.arange(25) % 6))
    sub = sk.window(0, 16)
    direct = sketch_new(_cfg(seed=31, a=0, b=16, m=4))
    direct.update_batch(np.arange(25), 1 + (np.arange(25) % 6))
    assert sub == direct


# -- the exact invariants, as properties ---------------------------------------------

UPDATES = st.lists(st.tuples(st.integers(0, 2**40), st.integers(-(10**6), 10**6)), max_size=40)


@st.composite
def small_configs(draw, modes=("poisson", "binomial"), orders=(None, (2,), (7,), (128,))):
    """m <= 16 and at most 24 cells; a binomial window starts at a >= 3m, where sigma < 1."""
    mode = draw(st.sampled_from(modes))
    m = draw(st.integers(2, 16))
    a = draw(st.integers(3 * m, 6 * m) if mode == "binomial" else st.integers(-2 * m, 2 * m))
    group = draw(st.sampled_from(orders))
    return SketchConfig(
        group and make_group(group), m, a, a + draw(st.integers(1, 24)),
        draw(st.integers(0, 2**64 - 1)), mode,
    )


def _arrays(updates):
    return (
        np.array([v for v, _ in updates], dtype=np.int64),
        np.array([y for _, y in updates], dtype=np.int64),
    )


@given(small_configs(), UPDATES, UPDATES)
def test_property_update_then_inverse_restores(cfg, held, extra):
    sk = sketch_new(cfg)
    sk.update_batch(*_arrays(held))
    before = sk.copy()
    vs, ys = _arrays(extra)
    sk.update_batch(vs, ys)
    sk.update_batch(vs[::-1], -ys[::-1])
    assert sk == before


@given(small_configs(orders=(None,)), st.sampled_from([2, 3, 7, 128]), UPDATES)
def test_property_integer_sketch_reduced_mod_p_is_the_zp_sketch(cfg, p, updates):
    vs, ys = _arrays(updates)
    ints = sketch_new(cfg)
    ints.update_batch(vs, ys)
    zp = sketch_new(replace(cfg, group=make_group([p])))
    zp.update_batch(vs, ys % p)
    assert ints.reduce_values_mod(p) == zp


@given(small_configs(orders=((2,), (3,), (7,))), st.sampled_from([(2,), (7,), (128,)]), UPDATES, UPDATES)
def test_property_combine_product_is_the_sketch_of_the_product_stream(cfg, orders2, u1, u2):
    s1, s2 = sketch_new(cfg), sketch_new(replace(cfg, group=make_group(orders2)))
    (v1, y1), (v2, y2) = _arrays(u1), _arrays(u2)
    s1.update_batch(v1, y1)
    s2.update_batch(v2, y2)
    # element v's product value is (x1(v), x2(v)): updates of each stream on its own coordinate
    product = sketch_new(replace(cfg, group=s1.group.product(s2.group)))
    pairs = [np.stack([y1, 0 * y1], axis=1), np.stack([0 * y2, y2], axis=1)]
    product.update_batch(np.concatenate([v1, v2]), np.concatenate(pairs))
    assert combine_product(s1, s2) == product


@given(small_configs(modes=("poisson",)), st.data(), UPDATES)
def test_property_window_is_the_sketch_built_with_that_window(cfg, data, updates):
    a = data.draw(st.integers(cfg.a, cfg.b - 1))
    b = data.draw(st.integers(a + 1, cfg.b))
    vs, ys = _arrays(updates)
    wide = sketch_new(cfg)
    wide.update_batch(vs, ys)
    direct = sketch_new(replace(cfg, a=a, b=b))
    direct.update_batch(vs, ys)
    assert wide.window(a, b) == direct


# -- one product tower for K streams with the same ids ---------------------------------

Z2_3 = make_group([2, 2, 2])
Z7_2 = make_group([7, 7])
ZI = SketchConfig(None, m=4, a=0, b=16, seed=3, mode="poisson")


@st.composite
def shared_batches(draw):
    """A config over G (Z_7 or Z_2^3; both modes), one id array and K = 1..4 value batches over G."""
    cfg = draw(small_configs(orders=((7,), (2, 2, 2))))
    vs = np.array(draw(st.lists(st.integers(0, 2**40), max_size=40)), dtype=np.int64)
    row = () if cfg.group.degree == 1 else (cfg.group.degree,)
    size = len(vs) * math.prod(row)
    values = st.lists(st.integers(-(10**6), 10**6), min_size=size, max_size=size)
    k = draw(st.integers(1, 4))
    return cfg, vs, [np.array(draw(values), dtype=np.int64).reshape((len(vs),) + row) for _ in range(k)]


def _long_batch(cfg, k):
    """Past one chunk of updates, so the product registers are settled between chunks."""
    n = _CHUNK_UPDATES + 5
    row = () if cfg.group.degree == 1 else (cfg.group.degree,)
    rng = np.random.default_rng(k)
    return cfg, np.arange(n), [rng.integers(-50, 50, (n,) + row) for _ in range(k)]


def _product_tower(cfg, k):
    """An empty tower of ``cfg`` over G^k, G being ``cfg``'s group."""
    return sketch_new(replace(cfg, group=make_group(cfg.group.orders * k)))


@given(shared_batches())
@example(_long_batch(SketchConfig(make_group([128]), 4, -8, 16, 7), 3))
@example(_long_batch(SketchConfig(Z2_3, 4, -8, 16, 7), 2))
@example((SketchConfig(Z7, 4, 12, 40, 7, "binomial"), np.arange(0), [[], []]))
def test_property_shared_ingest_is_k_separate_update_batches(case):
    # the projections of one tower over G^K fed (n, K) rows are K towers over G
    cfg, vs, ys_list = case
    k, d = len(ys_list), cfg.group.degree
    # every tower already holds a batch of its own, which the ingest must keep
    product, alone = _product_tower(cfg, k), [sketch_new(cfg) for _ in range(k)]
    product.update_batch(vs, np.column_stack(ys_list[1:] + ys_list[:1]))
    product.update_batch(vs, np.column_stack(ys_list))
    for c, sk in enumerate(alone):
        sk.update_batch(vs, ys_list[(c + 1) % k])
        sk.update_batch(vs, ys_list[c])
        assert product.project(range(c * d, c * d + d)) == sk


@pytest.mark.parametrize(
    "cfg,rows,error",
    [
        # the offending value comes in the last row, after one that would ingest
        (_cfg(group=Z7_2), [[1, 2], [3, 2.5]], GroupMismatchError),
        (ZI, [2, 2**31 + 1], RegisterOverflowError),
        # one stream's column for a tower of two
        (_cfg(group=Z7_2), [[1], [2]], GroupMismatchError),
    ],
    ids=["non-integral", "magnitude", "one-batch-for-two"],
)
def test_shared_ingest_checks_everything_before_any_register_changes(cfg, rows, error):
    sk = sketch_new(cfg)
    sk.update_batch([1, 2, 3], [1, 2, 3] if cfg.group is None else [[1, 2], [3, 4], [5, 6]])
    before = sk.registers.copy()
    with pytest.raises(error):
        sk.update_batch([4, 5], rows)
    assert np.array_equal(sk.registers, before)


_RAW_GROUPS = [Z7, make_group([2] * 8), make_group([7] * 3)]


def _raw_config(group, mode):
    a = 8 if mode == "binomial" else 0  # the binomial window needs sigma < 1
    return SketchConfig(group, 4, a, a + 16, 11, mode)


@pytest.mark.parametrize("group", _RAW_GROUPS, ids=lambda g: "x".join(map(str, g.orders)))
@pytest.mark.parametrize("mode", ["poisson", "binomial"])
def test_raw_values_ingest_as_their_residues(mode, group):
    # past one chunk: every chunk of the batch is reduced on its own
    cfg, n = _raw_config(group, mode), _CHUNK_UPDATES + 7
    orders = np.array(group.orders)
    rng = np.random.default_rng(12)
    vs = np.arange(n)
    shape = (n, group.degree)
    wide = rng.integers(0, orders, shape) + rng.integers(-(2**40), 2**40, shape) * orders
    # the full int64 range too: unreduced, such values wrap the register sums
    batches = [wide] + [
        rng.integers(np.iinfo(dt).min, np.iinfo(dt).max, shape, endpoint=True, dtype=dt)
        for dt in (np.int64, np.int8, np.uint8, np.int16, np.uint32)
    ] + [rng.integers(0, 2, shape).astype(bool)]
    assert (wide < 0).any()
    for ys in batches:
        raw, reduced = sketch_new(cfg), sketch_new(cfg)
        raw.update_batch(vs, ys)
        reduced.update_batch(vs, np.mod(ys.astype(np.int64), orders))
        assert np.array_equal(raw.registers, reduced.registers), ys.dtype


@pytest.mark.parametrize("mode", ["poisson", "binomial"])
@pytest.mark.parametrize(
    "group,bad,error",
    [(make_group([7] * 3), 2.5, GroupMismatchError), (None, 2**31 + 1, RegisterOverflowError)],
    ids=["fractional", "magnitude"],
)
def test_a_bad_value_in_the_last_chunk_changes_no_register(mode, group, bad, error):
    cfg = _raw_config(group, mode)
    n, row = 2 * _CHUNK_UPDATES + 3, () if group is None else (group.degree,)
    sk = sketch_new(cfg)
    sk.update_batch(np.arange(n), np.ones((n,) + row, dtype=np.int64))
    before = sk.registers.copy()
    ys = np.ones((n,) + row, dtype=type(bad))
    ys[-1] = bad
    with pytest.raises(error):
        sk.update_batch(np.arange(n), ys)
    assert np.array_equal(sk.registers, before)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
def test_update_batch_makes_no_full_size_copy_of_the_batch(dtype):
    # the traced peak is one chunk's temporaries whatever the batch size (about
    # 6.8 MB here), so at 32 chunks it stays under a quarter of the int64 batch
    n = 32 * _CHUNK_UPDATES
    vs = np.arange(n)
    ys = np.unpackbits(vs.astype(np.uint8)[:, None], axis=1).astype(dtype)  # (n, 8) bits
    sk = sketch_new(SketchConfig(make_group([2] * 8), 64, 320, 1408, 3, "binomial"))
    tracemalloc.start()
    try:
        sk.update_batch(vs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 8 * 8 // 4
    assert sk.registers.any()


@pytest.mark.parametrize(
    "orders", [(3, 5, 2), (2,) * 8, (7, 7), (2**31 - 1,)], ids=["z3xz5xz2", "z2^8", "z7xz7", "z(2^31-1)"]
)
@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
def test_reduce_rows_equals_np_mod(orders, dtype):
    # rows already in range skip the mod, so check both kinds, alone and mixed
    p = np.array(orders, dtype=np.int64)
    rows = np.stack([0 * p, p - 1, p, 0 * p - 1, 0 * p + (1 << 31), 0 * p - (1 << 31)])
    info = np.iinfo(dtype)
    rows = rows[((rows >= info.min) & (rows <= info.max)).all(axis=1)].astype(dtype)
    group = make_group(list(orders))
    for ys in (*(r[None, :] for r in rows), rows):
        kept = ys.copy()
        got = tower._reduce_rows(group, ys)
        assert got.dtype == np.int64 and np.array_equal(got, np.mod(ys.astype(np.int64), p))
        assert np.array_equal(ys, kept)  # the caller's rows are never reduced in place


INT64_EXTREMES = [-(2**63), -(2**62), -1, 0, 1, 2**62, 2**63 - 1]


@given(
    st.sampled_from([2, 7, 128, 2**31 - 1]),
    st.lists(st.sampled_from(INT64_EXTREMES) | st.integers(-(2**63), 2**63 - 1), max_size=40),
)
def test_mod_exact_equals_np_mod(p, xs):
    x = np.array(xs + INT64_EXTREMES + [p - 1, p, p + 1, -p, 1 - p], dtype=np.int64)
    want = np.mod(x, p)
    kept = x.copy()
    assert np.array_equal(tower._mod_exact(x, (p,)), want) and np.array_equal(x, kept)
    out = tower._mod_exact(x, (p,), out=x)  # in place, as _settle reduces registers
    assert out is x and np.array_equal(x, want)


@pytest.mark.parametrize("p", [2, 7, 128, 2**31 - 1])
def test_reduce_values_mod_equals_np_mod(p):
    ski = sketch_new(ZI)
    rng = np.random.default_rng(p)
    ski.update_batch(rng.integers(0, 1 << 40, 500), rng.integers(-(2**31), 2**31, 500))
    ski.registers[:2] = [[2**62 - 1, 1 - 2**62, -1], [0, p - 1, p]]
    got = ski.reduce_values_mod(p).registers
    assert got.dtype == np.int64 and np.array_equal(got, np.mod(ski.registers, p)[:, :, None])


def test_project_examples():
    cfg = _cfg(group=make_group([2, 7, 128]), seed=5)
    rng = np.random.default_rng(5)
    vs, rows = np.arange(200), rng.integers(-1000, 1000, (200, 3))
    product = sketch_new(cfg)
    product.update_batch(vs, rows)
    for coords in ([1], [2, 0], [0, 1, 2], [1, 1]):
        want = sketch_new(_cfg(group=make_group([cfg.group.orders[c] for c in coords]), seed=5))
        want.update_batch(vs, rows[:, coords])
        assert product.project(coords) == want


@pytest.mark.parametrize(
    "coords",
    [[], [2], [-1], [0.0], ["0"], [None], 0, None],
    ids=["empty", "past-the-end", "negative", "float", "string", "none", "int", "no-list"],
)
def test_project_rejects_a_bad_coordinate(coords):
    sk = sketch_new(_cfg(group=Z7_2))
    with pytest.raises(InvalidGroupError):
        sk.project(coords)


def test_project_owns_its_registers():
    sk = sketch_new(_cfg(group=Z7_2, seed=4))
    sk.update_batch(np.arange(20), np.arange(40).reshape(20, 2))
    for coords in ([0], [0, 1]):
        assert not np.shares_memory(sk.project(coords).registers, sk.registers)


# -- the register contract ------------------------------------------------------------

Z2xZ128 = _cfg(group=make_group([2, 128]))


def _filled(shape, at, value):
    """Zeros of ``value``'s dtype, with ``value`` at index ``at``."""
    regs = np.zeros(shape, dtype=np.asarray(value).dtype)
    regs[at] = value
    return regs


@pytest.mark.parametrize(
    "cls,cfg,registers,error",
    [
        # the other kind of config
        (TowerSketch, ZI, None, InvalidConfigError),
        (IntegerTowerSketch, _cfg(), None, InvalidConfigError),
        (TowerSketch, ZI, np.zeros((16, 3)), InvalidConfigError),
        # one cell too few or too many, an axis missing or extra
        (TowerSketch, _cfg(), np.zeros((15, 3, 1), dtype=np.int64), GroupMismatchError),
        (TowerSketch, _cfg(), np.zeros((17, 3, 1), dtype=np.int64), GroupMismatchError),
        (TowerSketch, _cfg(), np.zeros((16, 3), dtype=np.int64), GroupMismatchError),
        (TowerSketch, _cfg(), np.zeros((16, 3, 1, 1), dtype=np.int64), GroupMismatchError),
        (TowerSketch, Z2xZ128, np.zeros((16, 3, 1), dtype=np.int64), GroupMismatchError),
        (IntegerTowerSketch, ZI, np.zeros((15, 3), dtype=np.int64), GroupMismatchError),
        (IntegerTowerSketch, ZI, np.zeros((17, 3), dtype=np.int64), GroupMismatchError),
        (IntegerTowerSketch, ZI, np.zeros(48, dtype=np.int64), GroupMismatchError),
        (IntegerTowerSketch, ZI, np.zeros((16, 3, 1), dtype=np.int64), GroupMismatchError),
        # entries that are not integers
        (TowerSketch, _cfg(), np.full((16, 3, 1), 0.5), GroupMismatchError),
        (IntegerTowerSketch, ZI, _filled((16, 3), (4, 1), 0.5), GroupMismatchError),
        (TowerSketch, _cfg(), np.full((16, 3, 1), math.nan), GroupMismatchError),
        (IntegerTowerSketch, ZI, np.full((16, 3), math.nan), GroupMismatchError),
        (IntegerTowerSketch, ZI, np.full((16, 3), "1", dtype=object), GroupMismatchError),
        (TowerSketch, _cfg(), np.full((16, 3, 1), None, dtype=object), GroupMismatchError),
        (IntegerTowerSketch, ZI, np.full((16, 3), 2**64, dtype=object), GroupMismatchError),
        # residues at p_t, and negative residues
        (TowerSketch, _cfg(), _filled((16, 3, 1), (15, 2, 0), 7), GroupMismatchError),
        (TowerSketch, _cfg(), _filled((16, 3, 1), (3, 1, 0), -1), GroupMismatchError),
        (TowerSketch, _cfg(), _filled((16, 3, 1), (3, 1, 0), -(2**63)), GroupMismatchError),
        (TowerSketch, Z2xZ128, _filled((16, 3, 2), (0, 0, 0), 2), GroupMismatchError),
        (TowerSketch, Z2xZ128, _filled((16, 3, 2), (9, 1, 1), 128), GroupMismatchError),
        (TowerSketch, Z2xZ128, _filled((16, 3, 2), (9, 1, 1), -1), GroupMismatchError),
        # below the largest order, but not a residue of its own factor
        (TowerSketch, Z2xZ128, _filled((16, 3, 2), (4, 0, 0), 5), GroupMismatchError),
        (TowerSketch, Z2xZ128, _filled((16, 3, 2), (4, 0, 0), -1), GroupMismatchError),
        # integer registers at the 2^62 bound
        (IntegerTowerSketch, ZI, _filled((16, 3), (5, 2), 2**62), RegisterOverflowError),
        (IntegerTowerSketch, ZI, _filled((16, 3), (5, 2), -(2**62)), RegisterOverflowError),
        (IntegerTowerSketch, ZI, _filled((16, 3), (5, 2), 2**63 - 1), RegisterOverflowError),
        (IntegerTowerSketch, ZI, _filled((16, 3), (5, 2), -(2**63)), RegisterOverflowError),
    ],
    ids=[
        "group-of-integer-config", "integer-of-group-config", "group-of-integer-config-with-registers",
        "group-cell-short", "group-cell-extra", "group-axis-missing", "group-axis-extra",
        "product-degree-short", "int-cell-short", "int-cell-extra", "int-axis-missing", "int-axis-extra",
        "group-half", "int-half", "group-nan", "int-nan", "int-string", "group-none", "int-2^64",
        "residue-7-in-Z7", "residue-minus-1", "residue-minus-2^63", "residue-2-in-Z2",
        "residue-128-in-Z128", "residue-minus-1-in-Z128", "residue-5-in-Z2-only",
        "residue-minus-1-in-Z2", "int-2^62", "int-minus-2^62",
        "int-2^63-1", "int-minus-2^63",
    ],
)
def test_constructor_rejects_malformed_registers(cls, cfg, registers, error):
    kept = None if registers is None else registers.copy()
    with pytest.raises(error):
        cls(cfg, registers)
    if registers is not None:  # the caller's array is left as it was
        nan = kept.dtype.kind == "f"
        assert registers.dtype == kept.dtype and np.array_equal(registers, kept, equal_nan=nan)


@pytest.mark.parametrize(
    "cls,cfg,registers",
    [
        (TowerSketch, _cfg(), _filled((16, 3, 1), (15, 2, 0), 6)),
        (TowerSketch, Z2xZ128, _filled((16, 3, 2), (9, 1, 1), 127)),
        (TowerSketch, _cfg(), np.ones((16, 3, 1), dtype=np.uint8)),
        (TowerSketch, _cfg(), np.full((16, 3, 1), 3.0)),  # whole-number floats are the integers they spell
        (IntegerTowerSketch, ZI, _filled((16, 3), (5, 2), 2**62 - 1)),
        (IntegerTowerSketch, ZI, _filled((16, 3), (5, 2), -(2**62) + 1)),
        (IntegerTowerSketch, ZI, np.full((16, 3), -5, dtype=object)),
    ],
    ids=["residue-6-in-Z7", "residue-127-in-Z128", "uint8", "whole-floats", "int-2^62-1",
         "int-minus-2^62+1", "int-objects"],
)
def test_constructor_takes_registers_in_range(cls, cfg, registers):
    sk = cls(cfg, registers)
    assert sk.registers.dtype == np.int64 and sk.registers.flags.c_contiguous
    assert np.array_equal(sk.registers, registers.astype(np.int64))
    if registers.dtype == np.int64:  # held, not copied
        assert sk.registers is registers


def test_every_tower_is_built_through_the_constructor(monkeypatch):
    built = []
    init = _TowerBase.__init__

    def counting(self, config, registers=None):
        built.append(type(self).__name__)
        init(self, config, registers)

    monkeypatch.setattr(_TowerBase, "__init__", counting)
    sk = sketch_new(_cfg(seed=4))
    ski = sketch_new(ZI)
    ski.update_batch(np.arange(20), np.arange(20) - 7)
    made = [
        sk.copy(), sk.window(2, 9), combine_product(sk, sk), sk.project([0]),
        ski.reduce_values_mod(7), ski.copy(), deserialize(sk.serialize()), deserialize(ski.serialize()),
    ]
    assert built == ["TowerSketch", "IntegerTowerSketch"] + [type(t).__name__ for t in made]


def test_combine_product_owns_its_registers():
    s1 = sketch_new(_cfg(seed=4))
    s1.update_batch(np.arange(20), np.arange(20))
    product = combine_product(s1, s1)
    assert not np.shares_memory(product.registers, s1.registers)


@st.composite
def wire_registers(draw):
    """A config and registers of its wire dtype: int64 for integers, uint32 for residues.

    Most arrays are in range; about half carry one entry drawn from around the
    edges of the range, inside or outside it.
    """
    orders = draw(st.sampled_from([None, (2,), (7,), (2, 128)]))
    nk = draw(st.integers(1, 6))
    cfg = SketchConfig(orders and make_group(orders), 4, 0, nk, draw(st.integers(0, 2**64 - 1)), "poisson")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if orders is None:
        regs = rng.integers(-(2**62) + 1, 2**62 - 1, (nk, 3), endpoint=True)
        edges = [-(2**63), -(2**62), -(2**62) + 1, 0, 2**62 - 1, 2**62, 2**63 - 1]
        edge = st.sampled_from(edges) | st.integers(-(2**63), 2**63 - 1)
    else:
        regs = rng.integers(0, orders, (nk, 3, len(orders))).astype(np.uint32)
        edges = [0, 1, 2, 6, 7, 127, 128, 2**31, 2**32 - 1]
        edge = st.sampled_from(edges) | st.integers(0, 2**32 - 1)
    if draw(st.booleans()):
        regs.flat[draw(st.integers(0, regs.size - 1))] = draw(edge)
    return cfg, regs


@given(wire_registers())
def test_constructor_accepts_exactly_what_deserialize_accepts(case):
    cfg, regs = case
    blob = tower._serialize(cfg, regs)
    cls = IntegerTowerSketch if cfg.group is None else TowerSketch
    try:
        sk = cls(cfg, regs)
    except (GroupMismatchError, RegisterOverflowError):
        with pytest.raises(CorruptSketchError):
            deserialize(blob)
        return
    back = deserialize(blob)
    assert back == sk and back.serialize() == blob == sk.serialize()


# -- serialization -------------------------------------------------------------------


def test_serialize_round_trip_group():
    cfg = _cfg(seed=8)
    sk = sketch_new(cfg)
    sk.update_batch(np.arange(10), 1 + (np.arange(10) % 6))
    blob = sk.serialize()
    assert blob[:4] == b"FTWR"
    back = deserialize(blob)
    assert back == sk


def test_serialize_round_trip_binomial_and_integer():
    cfg = SketchConfig(Z7, m=8, a=30, b=200, seed=2, mode="binomial")
    sk = sketch_new(cfg)
    sk.update_batch(np.arange(100), 1 + (np.arange(100) % 6))
    assert deserialize(sk.serialize()) == sk

    icfg = SketchConfig(None, m=4, a=0, b=16, seed=3, mode="poisson")
    isk = sketch_new(icfg)
    isk.update_batch(np.arange(10), np.arange(10) - 5)
    assert deserialize(isk.serialize()) == isk


def test_serialized_size_of_empty_sketch():
    cfg = SketchConfig(Z7, m=2, a=0, b=4, seed=0, mode="poisson")
    blob = sketch_new(cfg).serialize()
    # magic+version (6) + d (4) + orders (4) + m,a,b,seed,mode (21) + 12 u32 slots
    assert len(blob) == 6 + 4 + 4 + 21 + 12 * 4


def test_deserialize_rejects_corruption():
    blob = sketch_new(_cfg()).serialize()
    with pytest.raises(CorruptSketchError):
        deserialize(blob[: len(blob) - 3])
    with pytest.raises(CorruptSketchError):
        deserialize(b"XXXX" + blob[4:])
    with pytest.raises(CorruptSketchError):
        deserialize(blob + b"\x00")
    # header layout: magic+version (6), d (4), d orders (4 each), then m (4)
    order_one = blob[:10] + struct.pack("<I", 1) + blob[14:]
    with pytest.raises(CorruptSketchError):
        deserialize(order_one)
    m_one = blob[:14] + struct.pack("<I", 1) + blob[18:]
    with pytest.raises(CorruptSketchError):
        deserialize(m_one)
    iblob = sketch_new(SketchConfig(None, m=4, a=0, b=16, seed=3, mode="poisson")).serialize()
    payload = len(iblob) - 16 * 3 * 8
    over_bound = iblob[:payload] + struct.pack("<q", 2**62 + 5) + iblob[payload + 8 :]
    with pytest.raises(CorruptSketchError):
        deserialize(over_bound)


def test_prf_regression_frozen_values():
    # frozen draws pin the mixing construction across platforms/refactors
    assert [
        cell_count(1, 2, 3, 0, 8),
        cell_count(1, 2, 3, 4, 8),
        cell_count(12345, 999, 1, 2, 64),
        cell_count(7, 0, 2, -8, 4),
        cell_count(7, 1, 1, 0, 2),
    ] == [0, 0, 1, 9, 1]
    cfg = SketchConfig(Z7, 8, 30, 206, 3, "binomial")
    assert binomial_assign(3, 11, 1, cfg) == 33
    assert binomial_assign(3, 19, 1, cfg) == 31
    assert binomial_assign(3, 0, 1, cfg) is None


def test_mix64_returns_new_array_and_keeps_frozen_words():
    x = np.array([0, 1, 2**63, 2**64 - 1, 0x123456789ABCDEF0], dtype=np.uint64)
    kept = x.copy()
    out = prf.mix64(x)
    assert np.array_equal(x, kept)
    assert out is not x and not np.shares_memory(out, x)
    assert np.array_equal(out, prf.mix64(x.copy()))
    assert [int(w) for w in out] == [
        0x0,
        0x5692161D100B05E5,
        0x25C26EA579CEA98A,
        0xB4D055FCF2CBBD7B,
        0x9629F58E8EC5B906,
    ]
    scalar = prf.mix64(np.uint64(42))
    assert isinstance(scalar, np.uint64) and int(scalar) == 0xA759EA27D4727622


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
def test_prf_draws_mix_in_place_but_keep_their_arguments(dtype):
    # int64 ids are read through a uint64 view, and each result is mixed in
    # place: neither may write to the caller's array, and scalars agree with arrays
    v = np.array([0, 1, 5, 2**31 - 1] + ([-7] if dtype != np.uint64 else []), dtype=dtype)
    j = np.array([0, 3], dtype=dtype)[:, None]
    v0, j0 = v.copy(), j.copy()
    state = prf.stream_state(9, prf.DOMAIN_SLOT, v)
    key = prf.tuple_key(j=j)
    words = prf.draw(state, key)
    assert np.array_equal(v, v0) and np.array_equal(j, j0)
    assert not np.shares_memory(state, v) and not np.shares_memory(words, state)
    for i, x in enumerate(v.tolist()):
        s = prf.stream_state(9, prf.DOMAIN_SLOT, x)
        assert isinstance(s, np.uint64) and s == state[i]
        assert prf.draw(s, prf.tuple_key(j=3)) == words[1, i]

"""Blocked Poisson ingest against the per-cell float-CDF reference.

The blocked path draws many cells' PRF words at once and inverts counts
against integer thresholds; these tests require it to reproduce the
per-cell loop bit for bit, and check the threshold table cell by cell.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _oracles import _unxorshift, poisson_registers_oracle
from hsketch.groups import make_group
from hsketch.tower import (
    _BLOCK_WORDS,
    _CHUNK_UPDATES,
    SketchConfig,
    _cell_table,
    _guide_counts,
    _poisson_cdf,
    _sparse_hits,
    _u53_thresholds,
    default_window,
    sketch_new,
)

GROUPS = {
    "integer": None,
    "Z7": make_group([7]),
    "Z128": make_group([128]),
    "Z7xZ7": make_group([7, 7]),
    "Z2^10": make_group([2] * 10),
    "Z(2^31-1)": make_group([2**31 - 1]),
}
# 254 and 255 updates: the last batch whose blocks are drawn update-major and
# the first drawn cell-major (a block holds _BLOCK_WORDS // (3 n) cells)
SIZES = [1, 63, 64, 65, 254, 255, _BLOCK_WORDS // 3 - 1, _BLOCK_WORDS // 3 + 1, 10_000]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("m", [4, 16, 64])
@pytest.mark.parametrize("name", list(GROUPS))
def test_blocked_ingest_matches_per_cell_oracle(name, m, n):
    group = GROUPS[name]
    rng = np.random.default_rng([m, n, list(GROUPS).index(name)])
    vs = rng.integers(0, 1 << 40, n)
    if group is None:
        ys = rng.integers(-(2**31), 2**31, n, endpoint=True)
    else:
        ys = rng.integers(-(10**12), 10**12, (n, group.degree))
    a, b = default_window(m)
    cfg = SketchConfig(group, m, a, b, int(rng.integers(2**63)), "poisson")
    sk = sketch_new(cfg)
    sk.update_batch(vs, ys)
    assert np.array_equal(sk.registers, poisson_registers_oracle(cfg, vs, ys))


@pytest.mark.parametrize(
    "m,a,b",
    [
        (4, -26, 3),  # cell means up to e^6.5, near the 700 limit
        (16, 0, 3),  # dense cells only
        (2, 60, 90),  # means below 2^-54: cells that can never be hit
        (8, 5, 6),  # one sparse cell
    ],
)
@pytest.mark.parametrize("name", ["integer", "Z7xZ7"])
def test_blocked_ingest_matches_oracle_on_other_windows(name, m, a, b):
    group = GROUPS[name]
    rng = np.random.default_rng([m, a + 100, b])
    vs = rng.integers(0, 1 << 40, 300)
    ys = rng.integers(-1000, 1000, 300 if group is None else (300, group.degree))
    cfg = SketchConfig(group, m, a, b, 99, "poisson")
    sk = sketch_new(cfg)
    sk.update_batch(vs, ys)
    assert np.array_equal(sk.registers, poisson_registers_oracle(cfg, vs, ys))


def test_blocked_ingest_matches_oracle_past_2_11_dense_rows():
    # 2,500 long dense rows in one block: the words that the guide steps leave
    # to the search include words of rows past 2^11, where offsets of
    # row * 2^53 in uint64 would wrap
    cfg = SketchConfig(None, 1000, -6500, -4000, 5, "poisson")
    assert len(_cell_table(cfg.m, cfg.a, cfg.b).dense) == cfg.num_cells > 1 << 11
    vs, ys = _random_batch(None, 10, 3)
    sk = sketch_new(cfg)
    sk.update_batch(vs, ys)
    assert np.array_equal(sk.registers, poisson_registers_oracle(cfg, vs, ys))


def _random_batch(group, n: int, seed: int):
    rng = np.random.default_rng(seed)
    vs = rng.integers(0, 1 << 40, n)
    if group is None:
        return vs, rng.integers(-(2**31), 2**31, n, endpoint=True)
    return vs, rng.integers(-(10**12), 10**12, (n, group.degree))


@st.composite
def poisson_cases(draw):
    """A Poisson config on a window of at most 32 cells, a batch size and a batch seed.

    Windows start anywhere from cell means near e^6 (a < 0) to cells past
    k/m = 37, whose mean is below 2^-53 and whose threshold row is the pad.
    """
    m = draw(st.integers(2, 16))
    a = draw(st.integers(-6 * m, 40 * m))
    group = GROUPS[draw(st.sampled_from(list(GROUPS)))]
    cfg = SketchConfig(group, m, a, a + draw(st.integers(1, 32)), draw(st.integers(0, 2**64 - 1)))
    return cfg, draw(st.integers(0, 300)), draw(st.integers(0, 2**32 - 1))


@given(poisson_cases())
# two chunks, through dense and sparse cells
@example((SketchConfig(None, 4, -8, 16, 7), _CHUNK_UPDATES + 5, 1))
def test_blocked_ingest_matches_oracle_property(case):
    cfg, n, seed = case
    vs, ys = _random_batch(cfg.group, n, seed)
    sk = sketch_new(cfg)
    sk.update_batch(vs, ys)
    assert np.array_equal(sk.registers, poisson_registers_oracle(cfg, vs, ys))


@pytest.mark.parametrize(
    "m,a,b", [(4, 0, 88), (64, 0, 1408), (4, -26, 3), (2, 60, 90), (32, -192, 800)]
)
def test_threshold_table_counts_match_float_cdf(m, a, b):
    # probe every cell at t - 1, t and the largest word, for each raw
    # threshold t, duplicates included, and dense cells also at both sides of
    # every guide bucket edge; sparse cells take words before mix64's last
    # xorshift, at both ends of each 53-bit value and at both sides of the
    # cell's screen S
    tab = _cell_table(m, a, b)
    nd = len(tab.dense)
    top = (1 << 53) - 1
    buckets = len(tab.guide) // max(nd, 1)
    edges = np.arange(buckets, dtype=np.int64) << (54 - buckets.bit_length())
    for i, k in enumerate(range(a, b)):
        cdf = _poisson_cdf(m, k)
        t = np.ceil(cdf * 2.0**53).astype(np.int64)
        u = np.unique(np.concatenate([t - 1, t, [top]] + ([edges - 1, edges] if i < nd else [])))
        u = u[(u >= 0) & (u <= top)].astype(np.uint64)
        if i < nd:
            got = _guide_counts(u, i, tab)
        else:
            s = slice(i - nd, i - nd + 1)
            full = u << np.uint64(11)
            full = np.concatenate([full, full | np.uint64(0x7FF)])
            screen = tab.screen[i - nd]
            z = np.concatenate([_unxorshift(full, 31), [screen - np.uint64(1), screen]])
            u = (z ^ (z >> np.uint64(31))) >> np.uint64(11)
            _, cnt, v = _sparse_hits(z[None, None, :], tab.screen[s], tab.thr[s])
            got = np.zeros(len(z), dtype=np.int64)
            got[v] = cnt
        want = np.searchsorted(cdf, u.astype(np.float64) * 2.0**-53, side="right")
        assert np.array_equal(got, want), (m, k)


@pytest.mark.parametrize("m,a,b", [(4, -26, 3), (32, -192, 800)])
def test_guide_is_a_small_fixed_multiple_of_the_dense_thresholds(m, a, b):
    # the bucket count follows from the widest dense row: the smallest power
    # of two at least the padded width, one int64 entry per bucket and row
    tab = _cell_table(m, a, b)
    nd, width = tab.dense.shape
    buckets = len(tab.guide) // nd
    assert len(tab.guide) == nd * buckets and buckets & (buckets - 1) == 0
    assert width <= buckets < 2 * width
    assert tab.guide.nbytes < 2 * tab.dense.nbytes


@pytest.mark.parametrize(
    "m,a,b",
    [(4, 0, 88), (64, 0, 1408), (4, -26, 3), (2, 60, 90), (32, -192, 800), (16, 0, 3)],
)
def test_sparse_rows_rise_strictly_so_column_c_counts_c_plus_1(m, a, b):
    # the count loop gives a word that reaches column c of a sparse row c + 1
    # copies; that holds because the row is the cell's whole threshold row,
    # strictly increasing, and every threshold is at least 2^52 (cdf[0] >= 0.5)
    tab = _cell_table(m, a, b)
    nd = len(tab.dense)
    assert len(tab.thr) == b - a - nd
    for s, k in enumerate(range(a + nd, b)):
        want = _u53_thresholds(_poisson_cdf(m, k))
        row = tab.thr[s]
        real = row[row < np.uint64(1 << 53)]
        assert np.array_equal(row[: len(want)], want) and np.all(row[len(want) :] == 1 << 53), k
        assert np.all(np.diff(real.astype(np.int64)) > 0) and np.all(real >= np.uint64(1 << 52)), k


@pytest.mark.parametrize("m,a,b", [(64, 0, 1408), (2, 60, 90)])
def test_sparse_screens_are_at_least_2_63(m, a, b):
    # a sparse cell's first threshold is at least 2^52, so its screen is at
    # least 2^63; the pad 2^53 of a cell that is never hit must not wrap the
    # screen to 0, which would pass every word on to the count loop
    assert np.all(_cell_table(m, a, b).screen >= np.uint64(1 << 63))


def test_cdf_rows_end_where_the_float_cdf_stops_rising():
    # a row that kept appending its stalled last value gave the topmost words
    # the count of that value's last copy: 174 in the cell of mean 0.86 at m=64
    top = np.uint64((1 << 53) - 1)
    for k in range(*default_window(64)):
        cdf = _poisson_cdf(64, k)
        assert np.all(np.diff(cdf) > 0), k
        assert len(cdf) <= 20, k
        count = np.searchsorted(np.ceil(cdf * 2.0**53).astype(np.uint64), top, side="right")
        assert count <= 20, k

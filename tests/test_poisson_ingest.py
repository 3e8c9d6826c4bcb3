"""Blocked Poisson ingest against the per-cell float-CDF reference.

The blocked path draws many cells' PRF words at once and inverts counts
against integer thresholds; these tests require it to reproduce the
per-cell loop bit for bit, and check the threshold table cell by cell.
"""

import numpy as np
import pytest

from _oracles import poisson_registers_oracle
from hsketch.groups import make_group
from hsketch.tower import (
    _BLOCK_WORDS,
    SketchConfig,
    _cell_table,
    _dense_counts,
    _poisson_cdf,
    _sparse_hits,
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
SIZES = [1, 63, 64, 65, _BLOCK_WORDS // 3 - 1, _BLOCK_WORDS // 3 + 1, 10_000]


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


@pytest.mark.parametrize("m,a,b", [(4, 0, 88), (64, 0, 1408), (4, -26, 3), (2, 60, 90)])
def test_threshold_table_counts_match_float_cdf(m, a, b):
    # probe every cell at t - 1, t and the largest word, for each raw
    # threshold t, duplicates included
    tab = _cell_table(m, a, b)
    nd = len(tab.dense)
    top = (1 << 53) - 1
    for i, k in enumerate(range(a, b)):
        cdf = _poisson_cdf(m, k)
        t = np.ceil(cdf * 2.0**53).astype(np.int64)
        u = np.unique(np.concatenate([t - 1, t, [top]]))
        u = u[(u >= 0) & (u <= top)].astype(np.uint64)
        want = np.searchsorted(cdf, u.astype(np.float64) * 2.0**-53, side="right")
        words = u[None, None, :]
        if i < nd:
            got = _dense_counts(words, tab.dense[i : i + 1])[0, 0]
        else:
            s = slice(i - nd, i - nd + 1)
            _, cnt, v = _sparse_hits(words, tab.thr[s], tab.cum[s])
            got = np.zeros(len(u), dtype=np.int64)
            got[v] = cnt
        assert np.array_equal(got, want), (m, k)


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

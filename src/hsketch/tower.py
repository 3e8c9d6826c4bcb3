"""Triple-tower linear sketches over a finite abelian group or the integers.

Two modes share one register layout of 3*(b-a) cells:

* ``poisson``: every update touches every cell; cell k in column j receives
  a deterministic pseudo-Poisson count of copies with mean e^{-k/m}, keyed by
  (seed, element, column, cell).  The sketch is exactly linear in the update
  values, so inverse updates cancel bit-for-bit.
* ``binomial``: each column hashes the element to at most one cell, with
  P(cell k) = e^{-k/m} and a no-op otherwise; requires the total cell mass
  sigma = sum e^{-k/m} < 1.  Updates cost O(1) per column.

Every draw inverts a float CDF at the top 53 bits u of one PRF word, on
integers: with t_c = ceil(cdf[c] * 2^53) the draw is #{c : t_c <= u}, exactly
the float ``searchsorted(cdf, u * 2^-53, "right")`` as scaling by 2^53 is
exact.  The CDF is a cell's Poisson counts, the binomial cell masses or the
sampler's level grid.  A Poisson row ends where the float CDF stops rising or
reaches 1, so cells with mean below ~2^-53 are a Bernoulli draw or zero.  The
two level grids are exponential, so a closed form in ``np.log`` proposes each
level g; a float only proposes it, and it stands where t_{g-1} <= u < t_g on
the integer thresholds.  The few words it misses are searched
(:func:`_level_search`).

Poisson ingest is blocked: one table per (m, a, b) holds every cell's PRF keys
and integer thresholds, and each block draws the words of many cells at once,
at most ``_BLOCK_WORDS`` of them: (cells, 3, updates), or (updates, 3 *
cells) when a block has more register rows than updates, so that numpy's
broadcasts run along the longer axis.  The draw is mix64(state ^ key), split
as head, core and tail (see ``prf``).  The head distributes over XOR, so the
table holds the keys already through it, each chunk passes its states through
it once, and a block starts at the core.  Dense cells (P(count = 0) < 0.5, a
prefix of the window) finish every word and invert it with a guide table: one
lookup, a few steps up the threshold row, and one search for the rare word
still short of its count.  Sparse cells screen the words before the tail,
which keeps bits 63..33: a word that reaches the first threshold t0 reaches
(t0 >> 22) << 33 first.  Only the words that pass (about 3% at m=64) are
finished; sparse rows rise strictly, so a word that reaches column c has c + 1
copies, and the hits go to the registers with one scatter-add per block.

Every register array, towers of both modes and both sampler modes, is
updated by one flat scatter-add, :func:`_scatter_add`, except at the dense
Poisson cells: every update reaches them, so a block adds its counts times
the value rows, one ``cnt @ ys`` matrix product, to its slice of registers.

A count never depends on the value, so K streams over G fed the same ids are
the K coordinates of one stream over G^K: one tower over the product group,
fed (n, K) value rows, draws each count once for all K, and
:meth:`TowerSketch.project` hands back the sketch of any coordinates.
"""

from __future__ import annotations

import math
import numbers
import operator
import struct
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import prf
from .errors import (
    CannotCombineError,
    CorruptSketchError,
    GroupMismatchError,
    HSketchError,
    InvalidConfigError,
    InvalidGroupError,
    RegisterOverflowError,
    _checked_int,
)
from .groups import GroupDescriptor, _cyclic_group, make_group

_MAX_POISSON_MEAN = 700.0  # e^{-mu} underflows past this; construction rejects it
_INT_REGISTER_BOUND = 1 << 62
_MAX_UPDATE_MAGNITUDE = 1 << 31
_BLOCK_WORDS = 1 << 16  # PRF words per Poisson block: cells * 3 * updates
# Updates are ingested in chunks of fewer than 2^15, which also bounds the
# temporaries of a large batch.  A count is at most 4001 (the CDF table's
# length) and a value at most 2^31 in magnitude (the update bound, or a group
# order), so a chunk adds less than 2^58 to any register: int64 sums cannot
# wrap between the per-chunk register checks.
_CHUNK_UPDATES = _BLOCK_WORDS // 3
_U53_END = np.uint64(1 << 53)  # above every 53-bit word
_GUIDE_STEPS = 4  # guide refinements of a dense word before it is searched
_COLUMNS = np.arange(1, 4, dtype=np.int64)[:, None]  # j = 1, 2, 3 against (n,) updates

MAGIC = b"FTWR"
VERSION = 1

_MODE_BYTE = {
    ("poisson", False): 0,
    ("binomial", False): 1,
    ("poisson", True): 2,
    ("binomial", True): 3,
}
_MODE_FROM_BYTE = {v: k for k, v in _MODE_BYTE.items()}


# [lo, hi) of each integer field: the wire header's widths (``_FIXED``), and m >= 2
_INT32 = (-(1 << 31), 1 << 31)
_FIELD_RANGES = {"m": (2, 1 << 32), "a": _INT32, "b": _INT32, "seed": (0, 1 << 64)}
# A cumsum of n < 2^32 positive terms errs by under n * 2^-53 < 2^-21 relative,
# and the closed form by a few ulps: a closed form past 1 + this is past 1 summed too.
_SIGMA_ROUNDING = 1e-6


@dataclass(frozen=True)
class SketchConfig:
    group: GroupDescriptor | None
    m: int
    a: int
    b: int
    seed: int
    mode: str = "poisson"

    def __post_init__(self):
        if self.mode not in ("poisson", "binomial"):
            raise InvalidConfigError(f"unknown mode {self.mode!r}")
        if self.group is not None and not isinstance(self.group, GroupDescriptor):
            raise InvalidConfigError(f"group {self.group!r} is neither None nor a GroupDescriptor")
        for name, (lo, hi) in _FIELD_RANGES.items():
            object.__setattr__(self, name, _checked_int(name, getattr(self, name), lo, hi))
        if self.b <= self.a:
            raise InvalidConfigError(f"need b > a, got a={self.a}, b={self.b}")
        if self.mode == "binomial":
            if self.a <= 0:  # the first cell alone has mass e^{-a/m} >= 1
                raise InvalidConfigError(f"binomial tower needs sigma < 1, so a > 0; got a={self.a}")
            # the geometric closed form rejects a window well past mass 1
            # without summing its b - a cells; any other window is summed as
            # the level draw sums it, so the verdict is always the cumsum's
            m, n = self.m, self.num_cells
            sigma = math.exp(-self.a / m) * math.expm1(-n / m) / math.expm1(-1 / m)
            if sigma <= 1.0 + _SIGMA_ROUNDING:
                sigma = self.sigma
            if sigma >= 1.0:
                raise InvalidConfigError(
                    f"binomial tower needs sigma < 1, got sigma={sigma:.4g}; raise a"
                )
        # the exponent is capped where math.exp would overflow; any such mean is rejected
        if self.mode == "poisson" and math.exp(min(-self.a / self.m, 709.0)) > _MAX_POISSON_MEAN:
            raise InvalidConfigError(
                f"cell mean e^{{-a/m}} exceeds {_MAX_POISSON_MEAN}; raise a"
            )

    @property
    def num_cells(self) -> int:
        return self.b - self.a

    @property
    def sigma(self) -> float:
        """Total cell mass sum_{k=a}^{b-1} e^{-k/m}, as the binomial level draw sums it."""
        return float(_level_cdf(self.m, self.a, self.b)[-1])


@lru_cache(maxsize=16)
def _config_over(config: SketchConfig, group: GroupDescriptor) -> SketchConfig:
    """``config`` over ``group``: validated once per (config, group), then shared by every query."""
    return replace(config, group=group)


def default_window(m: int) -> tuple[int, int]:
    """The stock truncation (0, 22m): cell masses span 1 down to ~2^-32."""
    return 0, 22 * m


def theoretical_window(m: int, lam: float) -> tuple[int, int]:
    """Support-size-dependent truncation (m(ln lam - 6 ln m), m(ln lam + 3 ln m))."""
    m = _checked_int("m", m, *_FIELD_RANGES["m"])
    if not (isinstance(lam, numbers.Real) and 0 < lam < math.inf):
        raise InvalidConfigError(f"support size must be finite and positive, got {lam!r}")
    lo = math.floor(m * (math.log(lam) - 6.0 * math.log(m)))
    hi = math.ceil(m * (math.log(lam) + 3.0 * math.log(m)))
    return lo, max(hi, lo + 1)


def _poisson_cdf(m: int, k: int) -> np.ndarray:
    """CDF thresholds P(X <= c) for X ~ Poisson(e^{-k/m}), ending where the float sum stops rising."""
    mu = math.exp(-k / m)
    if mu > _MAX_POISSON_MEAN:
        raise InvalidConfigError(f"cell mean {mu:.3g} exceeds {_MAX_POISSON_MEAN}")
    p = math.exp(-mu)
    cdf = [p]
    c = p
    n = 0
    while c < 1.0 and n < 4000:
        n += 1
        p *= mu / n
        if c + p == c:  # a repeated value would give the top words its last copy's count
            break
        c += p
        cdf.append(min(c, 1.0))
    arr = np.array(cdf)
    arr.setflags(write=False)
    return arr


def _u53_thresholds(cdf: np.ndarray) -> np.ndarray:
    """ceil(cdf * 2^53): u >= t exactly when u * 2^-53 >= cdf, for 53-bit words u."""
    return np.ceil(cdf * 2.0**53).astype(np.uint64)


@dataclass(frozen=True)
class _CellTable:
    """Per-(m, a, b) constants of blocked Poisson ingest.

    ``keys[i]`` holds the PRF keys of cell a+i in columns 1..3, folded
    through ``prf._mix64_head``.  The first ``len(dense)`` cells are dense:
    row i of ``dense`` is cell i's integer threshold row, padded with 2^53
    (above every 53-bit word) to one more column than the longest row, and
    ``guide`` is the rows' guide table (Chen and Asau 1974; Devroye 1986,
    ch. III).  With 2^g buckets per row, the smallest power of two at least
    the padded width, entry (i << g) + b is the flat position in ``dense`` of
    the first threshold of row i above b << (53 - g), the smallest word of
    bucket b; so the guide holds fewer than two int64s per padded threshold.

    Row s of ``thr`` is the row of sparse cell ``len(dense) + s``, padded
    with 2^53.  Its cdf[0] >= 0.5, so its CDF values are multiples of 2^-53
    in [0.5, 1]: ceil(cdf * 2^53) is exact, the row rises strictly as
    ``_poisson_cdf`` appends only rising values, and a word that reaches
    column c has exactly c + 1 copies.  ``screen[s]`` is (t0 >> 22) << 33 for
    t0 = thr[s, 0], clipped to 2^53 - 1; ``prf._mix64_tail`` keeps bits 63..33,
    so a word whose u53 reaches t0 reaches ``screen[s]`` before the tail.
    """

    keys: np.ndarray  # (nk, 3) uint64
    dense: np.ndarray  # (nd, width) uint64
    guide: np.ndarray  # (nd << g,) int64
    screen: np.ndarray  # (nk - nd,) uint64
    thr: np.ndarray  # (nk - nd, width) uint64


def _padded_rows(rows: list[np.ndarray], width: int) -> np.ndarray:
    """Threshold rows as one (len(rows), width) uint64 array, padded with 2^53."""
    lens = np.array([len(r) for r in rows], dtype=np.int64)
    out = np.full((len(rows), width), _U53_END)
    if rows:  # np.concatenate needs at least one row
        out[np.arange(width) < lens[:, None]] = np.concatenate(rows)
    return out


@lru_cache(maxsize=16)
def _cell_table(m: int, a: int, b: int) -> _CellTable:
    cdfs = [_poisson_cdf(m, k) for k in range(a, b)]
    # P(count = 0) grows with k, so the dense cells are a prefix of the window
    nd = sum(1 for cdf in cdfs if cdf[0] < 0.5)
    rows = [_u53_thresholds(cdf) for cdf in cdfs[:nd]]
    dense = _padded_rows(rows, 1 + max(map(len, rows), default=0))
    g = (dense.shape[1] - 1).bit_length()
    edges = np.arange(1 << g, dtype=np.uint64) << np.uint64(53 - g)
    guide = np.array(
        [i * dense.shape[1] + np.searchsorted(row, edges, side="right") for i, row in enumerate(rows)],
        dtype=np.int64,
    ).reshape(-1)
    sparse = cdfs[nd:]
    thr = _padded_rows([_u53_thresholds(cdf) for cdf in sparse], max(map(len, sparse), default=1))
    # clipped, as the pad 2^53 of a cell that is never hit would wrap to 0
    screen = (np.minimum(thr[:, 0], _U53_END - np.uint64(1)) >> np.uint64(22)) << np.uint64(33)
    keys = prf.tuple_key(j=_COLUMNS.T, k=np.arange(a, b, dtype=np.int64)[:, None])
    prf._mix64_head(keys)
    for arr in (keys, dense, guide, screen, thr):
        arr.setflags(write=False)
    return _CellTable(keys, dense, guide, screen, thr)


def _cell_words(state: np.ndarray, keys: np.ndarray, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PRF words before the tail of cells ``keys`` (B, 3), and scratch of their shape.

    The tail is ``prf._mix64_tail``.  ``keys`` and ``state`` are folded
    through ``prf._mix64_head``, so their XOR is the head of their draw.
    ``state`` is the (n,) updates' states, and the words are cell-major, (B,
    3, n); or it is each state repeated along a row, (n, >= 3B), and the words
    are update-major, (n, 3B).  The words are written into ``buf[0]``;
    ``buf[1]`` is the scratch.
    """
    n, r = len(state), keys.size
    z, tmp = buf[0, : n * r], buf[1, : n * r]
    if state.ndim == 2:
        z, tmp = z.reshape(n, r), tmp.reshape(n, r)
        z[...] = keys.reshape(-1)
        z ^= state[:, :r]
    else:
        z, tmp = z.reshape(-1, 3, n), tmp.reshape(-1, 3, n)
        np.bitwise_xor(keys[:, :, None], state, out=z)
    prf._mix64_core(z, tmp)
    return z, tmp


def _guide_counts(u: np.ndarray, rows, tab: _CellTable) -> np.ndarray:
    """Counts #{c : dense[r, c] <= u} of 53-bit words ``u`` in dense rows ``rows``, as int64.

    ``rows`` broadcasts against ``u``.  A word starts at its bucket's guide
    entry and steps up while it reaches the threshold there, at most
    ``_GUIDE_STEPS`` times; each step passes on only the words that still
    move.  A row never falls and ends in 2^53, so a word stops at its count.
    The few words still moving after that, in buckets that hold many
    thresholds at the ends of long rows, take one exact ``searchsorted`` on
    their own row, one call per distinct row.
    """
    width = tab.dense.shape[1]
    buckets = len(tab.guide) // len(tab.dense)
    pos = (u >> np.uint64(54 - buckets.bit_length())).view(np.int64)
    pos += rows * buckets
    pos = tab.guide.take(pos)
    flat, w, p = tab.dense.reshape(-1), u.reshape(-1), pos.reshape(-1)
    live = np.flatnonzero(w >= flat.take(p))
    for _ in range(_GUIDE_STEPS):
        if not live.size:
            break
        p[live] += 1
        live = live[w.take(live) >= flat.take(p.take(live))]
    row = p.take(live) // width
    for r in np.unique(row):
        hit = live[row == r]
        p[hit] = r * width + np.searchsorted(tab.dense[r], w.take(hit), side="right")
    pos -= rows * width
    return pos


def _sparse_hits(z: np.ndarray, screen: np.ndarray, thr: np.ndarray):
    """Counts of the words of a block of sparse cells that pass the screen.

    ``z`` holds the block's words before ``prf._mix64_tail``, (B, 3, n) or
    (n, 3B) (see :func:`_cell_words`), ``screen`` its (B,) screens and
    ``thr`` its (B, width) threshold rows.  Only the words that pass the
    screen are finished and resolved.  Returns each one's row in the block's
    (B * 3) registers, its count and its update index.  A word that passes
    the screen but stays below its cell's first threshold counts 0 (its u53
    lies within 2^22 below the threshold), so nearly every word returned is a
    hit, and a zero count adds nothing.
    """
    if z.ndim == 2:  # update-major: one screen per (cell, column), along the rows
        cand = np.flatnonzero(z >= np.repeat(screen, 3))
        v, row = np.divmod(cand, z.shape[1])
    else:
        cand = np.flatnonzero(z >= screen[:, None, None])
        row, v = np.divmod(cand, z.shape[2])
    uh = z.ravel()[cand]
    prf._mix64_tail(uh)
    uh = prf.u53(uh)
    cell = row // 3
    # 1-D takes from the table's columns: a 2-D fancy index costs several times more
    cnt = (uh >= thr[:, 0].take(cell)).astype(np.int64)
    live = np.arange(cand.size)
    for c in range(1, thr.shape[1]):  # rows rise strictly: column c reached is c + 1 copies
        keep = np.flatnonzero(uh >= thr[:, c].take(cell))
        if not keep.size:
            break
        uh, cell, live = uh[keep], cell[keep], live[keep]
        cnt[live] = c + 1
    return row, cnt, v


@lru_cache(maxsize=4096)
def _level_cdf(m: int, a: int, b: int) -> np.ndarray:
    cum = np.cumsum([math.exp(-k / m) for k in range(a, b)])
    cum.setflags(write=False)
    return cum


def _padded_thresholds(cdf: np.ndarray) -> np.ndarray:
    """ceil(cdf * 2^53) with 0 in front and 2^63 (above every 53-bit word) at the end, read-only."""
    thr = np.empty(len(cdf) + 2, dtype=np.uint64)
    thr[0], thr[-1] = 0, 1 << 63
    thr[1:-1] = _u53_thresholds(cdf)
    thr.setflags(write=False)
    return thr


@lru_cache(maxsize=64)
def _binomial_thresholds(m: int, a: int, b: int) -> np.ndarray:
    return _padded_thresholds(_level_cdf(m, a, b))


def _log_count(u: np.ndarray, m: float, scale: float, offset: float) -> np.ndarray:
    """floor(-m ln(max(offset + scale * u, 2^-60))) as int64, for 53-bit words ``u``.

    The closed-form inverse of an exponential level grid; the floor of 2^-60
    keeps the logarithm finite.
    """
    f = u.view(np.int64).astype(np.float64)  # exact below 2^53
    f *= scale
    if offset:
        f += offset
    np.maximum(f, 2.0**-60, out=f)
    np.log(f, out=f)
    f *= -m
    return f.astype(np.int64)


def _level_search(u: np.ndarray, thr: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """#{c : t_c <= u} for 53-bit words ``u`` against ascending thresholds t, from a guess of it.

    ``thr`` is t padded with 0 in front and 2^63 at the end (see
    :func:`_padded_thresholds`), and ``guess`` an int64 array of ``u``'s
    shape, which is overwritten and returned.  A guess g is clamped to
    [0, len(t)] and stands where thr[g] <= u < thr[g + 1]: on ascending
    thresholds that is exactly the count.  Only the words it misses go to
    ``searchsorted``.
    """
    g = np.clip(guess, 0, len(thr) - 2, out=guess)
    ok = thr.take(g) <= u
    ok &= u < thr.take(g + 1)
    miss = np.flatnonzero(~ok)
    if miss.size:
        g.reshape(-1)[miss] = np.searchsorted(thr[1:-1], u.reshape(-1)[miss], side="right")
    return g


def _binomial_levels_batch(seed: int, vs: np.ndarray, j, config: SketchConfig) -> np.ndarray:
    """Level offsets in [0, num_cells]; num_cells encodes the no-op; ``j`` broadcasts against ``vs``.

    Cell i's CDF is e^{-a/m} (1 - e^{-(i+1)/m}) / (1 - e^{-1/m}), so the
    level of u is about floor(-m ln(1 - u 2^-53 (1 - e^{-1/m}) e^{a/m})),
    which proposes it to :func:`_level_search`.  Past a/m = 700 the factor
    e^{a/m} is capped to stay finite, and the search resolves the misses.
    """
    m, a = config.m, config.a
    state = prf.stream_state(seed, prf.DOMAIN_LEVEL, vs)
    u = prf.u53(prf.draw(state, prf.tuple_key(j=j)))
    scale = math.expm1(-1 / m) * math.exp(min(a / m, 700.0)) * 2.0**-53
    return _level_search(u, _binomial_thresholds(m, a, config.b), _log_count(u, m, scale, 1.0))


def _scatter_add(regs: np.ndarray, rows: np.ndarray, terms: np.ndarray) -> None:
    """Add ``terms[i]``, (h,) or (h, d), to row ``rows[i]`` of C-contiguous ``regs`` viewed as (R, d).

    Repeated rows sum.  The scatter is flat because numpy's fast path for
    ``add.at`` is 1-D; for d > 1 its (h, d) index is the one temporary made.
    """
    d = math.prod(terms.shape[1:])
    idx = rows
    if d > 1:  # one pass over (h, d): the (h,) row starts broadcast against the d offsets
        idx = np.add((rows * d)[:, None], np.arange(d), out=np.empty((len(rows), d), dtype=np.int64))
    np.add.at(regs.reshape(-1), idx.reshape(-1), terms.reshape(-1))


def _integer_array(values, what: str) -> np.ndarray:
    """``values`` as an integer array; an entry that is not an integer in the int64 range raises.

    Dtypes that always fit int64 are returned as they are, without a copy or a
    per-element test; the other dtypes are tested through an int64 copy.
    """
    try:
        arr = np.asarray(values)
        kind, size = arr.dtype.kind, arr.dtype.itemsize
        if kind in "bi" or (kind == "u" and size < 8):
            return arr
        if kind in "ufO":
            with np.errstate(invalid="ignore"):
                out = arr.astype(np.int64)
            if np.array_equal(out, arr):
                return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise GroupMismatchError(f"{what} must be integers in the int64 range")


def _as_int64(values, what: str) -> np.ndarray:
    """``values`` as int64, checked as in :func:`_integer_array`; int64 is not copied."""
    return _integer_array(values, what).astype(np.int64, copy=False)


def _update_arrays(group: GroupDescriptor | None, vs, ys) -> tuple[np.ndarray, np.ndarray]:
    """A batch's (n,) element ids as int64 and its checked value rows (see :func:`_value_rows`)."""
    vs = _as_int64(vs, "element ids")
    yr = _value_rows(group, ys)
    if vs.ndim != 1 or len(vs) != len(yr):
        raise GroupMismatchError(f"element ids of shape {vs.shape} do not match {len(yr)} values")
    return vs, yr


def _value_rows(group: GroupDescriptor | None, ys) -> np.ndarray:
    """Update values checked in place: (n,) integers, or (n, d) integer rows of ``group``.

    The rows are not converted or reduced; :func:`_reduce_rows` does that.
    """
    arr = _integer_array(ys, "update values")
    row = () if group is None else (group.degree,)
    if arr.ndim == 1 and row == (1,):
        arr = arr[:, None]
    if arr.ndim != 1 + len(row) or arr.shape[1:] != row:
        raise GroupMismatchError(f"values of shape {arr.shape} are not rows of shape {row}")
    return arr


def _mod_exact(x: np.ndarray, orders: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """``np.mod(x, orders)`` for int64 ``x``, (..., d) or (...,) for one order, into ``out``.

    Mixed orders take the broadcast ``np.mod``.  One order p is reduced
    exactly for every int64 at a fraction of ``np.mod``'s cost: a power of two
    is a mask, any other p is x - (x // p) * p, whose product may wrap but
    whose difference, the residue, is exact modulo 2^64.
    """
    if len(set(orders)) > 1:
        return np.mod(x, np.array(orders, dtype=np.int64), out=out)
    p = orders[0]
    if p & (p - 1) == 0:
        return np.bitwise_and(x, p - 1, out=out)
    q = np.floor_divide(x, p)
    q *= p
    return np.subtract(x, q, out=q if out is None else out)


def _reduce_rows(group: GroupDescriptor | None, ys: np.ndarray) -> np.ndarray:
    """Checked value rows as int64: canonical residues of ``group``, or the integers themselves.

    int64 rows that need no reduction are returned as they are, not copied.
    """
    if group is None:
        return ys.astype(np.int64, copy=False)
    orders = np.array(group.orders, dtype=np.int64)
    # a min and a compare cost far less than the mod; rows already in range are only converted
    if ys.size and ys.min() >= 0 and (ys < orders).all():
        return ys.astype(np.int64, copy=False)
    wide = ys.astype(np.int64, copy=False)
    return _mod_exact(wide, group.orders, out=None if wide is ys else wide)


def _settle(config: SketchConfig, regs: np.ndarray) -> None:
    """Restore the register invariant of ``regs``, a view of a tower of ``config``, after a chunk.

    Integer registers must stay below 2^62 in magnitude; group registers are
    reduced by the group orders in place (:func:`_mod_exact`).
    """
    if config.group is None:
        if np.any((regs >= _INT_REGISTER_BOUND) | (regs <= -_INT_REGISTER_BOUND)):
            raise RegisterOverflowError("integer register exceeded the 2^62 workload bound")
    else:
        _mod_exact(regs, config.group.orders, out=regs)


def _ingest(config: SketchConfig, regs: np.ndarray, vs: np.ndarray, ys: np.ndarray) -> None:
    """Add checked updates to ``regs``, (nk, 3, d), for (n, d) value rows ``ys``, chunk by chunk.

    Each mode reduces a chunk's rows to int64 residues (:func:`_reduce_rows`)
    just before it adds them, so the batch is never copied whole; every chunk
    is settled.
    """
    add = _ingest_poisson if config.mode == "poisson" else _ingest_binomial
    for s in range(0, len(vs), _CHUNK_UPDATES):
        add(config, regs, vs[s : s + _CHUNK_UPDATES], ys[s : s + _CHUNK_UPDATES])
        _settle(config, regs)


def _ingest_poisson(config: SketchConfig, regs: np.ndarray, vs: np.ndarray, ys: np.ndarray) -> None:
    ys = _reduce_rows(config.group, ys)  # every update reaches the dense cells
    tab = _cell_table(config.m, config.a, config.b)
    state = prf.stream_state(config.seed, prf.DOMAIN_CELL, vs)  # (n,)
    prf._mix64_head(state)
    n, nd = len(vs), len(tab.dense)
    per = min(max(1, _BLOCK_WORDS // (3 * n)), config.num_cells)
    # one word buffer for every block of the call: a fresh block-sized
    # allocation per block would page-fault it in again each time
    buf = np.empty((2, per * 3 * n), dtype=np.uint64)
    if 3 * per > n:  # blocks have more register rows than updates: draw them update-major
        state = np.repeat(state, 3 * per).reshape(n, 3 * per)
    for lo in range(0, nd, per):
        hi = min(lo + per, nd)
        words, tmp = _cell_words(state, tab.keys[lo:hi], buf)
        prf._mix64_tail(words, tmp)
        words >>= np.uint64(11)
        if words.ndim == 2:  # (n, 3B): word (v, 3i + j) is in cell lo + i
            cnt = _guide_counts(words, np.arange(3 * lo, 3 * hi) // 3, tab).T
        else:
            cnt = _guide_counts(words, np.arange(lo, hi)[:, None, None], tab)
        regs[lo:hi] += (cnt.reshape(-1, n) @ ys).reshape(hi - lo, 3, -1)
    for lo in range(nd, config.num_cells, per):
        hi = min(lo + per, config.num_cells)
        _add_sparse(regs, _cell_words(state, tab.keys[lo:hi], buf)[0], ys, tab, lo, hi)


def _add_sparse(regs: np.ndarray, words: np.ndarray, ys: np.ndarray, tab: _CellTable, lo: int, hi: int) -> None:
    """Add the counts of sparse cells lo, ..., hi - 1 with one scatter-add.

    A function of its own so that a block's hit arrays are freed before the
    next block.
    """
    nd = len(tab.dense)
    s = slice(lo - nd, hi - nd)
    row, cnt, v = _sparse_hits(words, tab.screen[s], tab.thr[s])
    _scatter_add(regs, 3 * lo + row, cnt[:, None] * ys.take(v, axis=0))


def _ingest_binomial(config: SketchConfig, regs: np.ndarray, vs: np.ndarray, ys: np.ndarray) -> None:
    levels = _binomial_levels_batch(config.seed, vs, _COLUMNS, config)  # (3, n)
    # flat: a 2-D nonzero and a 2-D fancy index cost several times more
    live = np.flatnonzero(levels < config.num_cells)
    col, v = np.divmod(live, len(vs))
    # the live rows are gathered in their own dtype, then widened: one int64 copy, not two
    terms = _reduce_rows(config.group, ys.take(v, axis=0))
    _scatter_add(regs, 3 * levels.reshape(-1).take(live) + col, terms)


class _TowerBase:
    """Register storage, the one ingest path and the structural operations."""

    config: SketchConfig
    registers: np.ndarray

    def __init__(self, config: SketchConfig, registers=None):
        """A tower of ``config``'s kind, empty or holding ``registers`` (int64 is held, not copied).

        Integer registers are (nk, 3) and below 2^62 in magnitude (else RegisterOverflowError),
        group registers (nk, 3, d) residues in [0, p_t); other arrays raise GroupMismatchError.
        """
        integer = isinstance(self, IntegerTowerSketch)
        if integer and config.group is not None:
            raise InvalidConfigError("integer sketch config must not carry a group")
        if not integer and config.group is None:
            raise InvalidConfigError("group-valued sketch needs a group in its config")
        shape = (config.num_cells, 3) + (() if integer else (config.group.degree,))
        regs = np.zeros(shape, dtype=np.int64) if registers is None else _as_int64(registers, "registers")
        if regs.shape != shape:
            raise GroupMismatchError(f"registers of shape {regs.shape} do not fit shape {shape}")
        self.config, self.registers = config, np.ascontiguousarray(regs)
        if integer:
            _settle(config, self.registers)
        # one unsigned max per factor: a negative residue reads as >= 2^63
        elif any(regs[..., t].view(np.uint64).max() >= p for t, p in enumerate(config.group.orders)):
            raise GroupMismatchError(f"registers must be residues in [0, p) of orders {config.group.orders}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.config == other.config
            and np.array_equal(self.registers, other.registers)
        )

    def copy(self):
        return type(self)(self.config, self.registers.copy())

    # -- updates -----------------------------------------------------------

    def update(self, v: int, y) -> None:
        self.update_batch([v], [y])

    def update_batch(self, vs: Sequence[int], ys) -> None:
        """Add the values ``ys`` at the ids ``vs``; every check comes before any register changes.

        Ids and values must be integers in the int64 range and values rows of
        the group's shape (else GroupMismatchError); integer values must lie
        within 2^31 (else RegisterOverflowError).  The checks read the batch
        in place.  Group values are reduced into the group one chunk at a time
        as they are added, so no full-size copy of the batch is made.
        """
        cfg = self.config
        vs, ys = _update_arrays(cfg.group, vs, ys)
        bound = _MAX_UPDATE_MAGNITUDE
        if cfg.group is None and ys.size and (ys.max() > bound or ys.min() < -bound):
            raise RegisterOverflowError(f"update magnitude exceeds the bound {_MAX_UPDATE_MAGNITUDE}")
        if len(vs):  # a view: the constructor keeps registers C-contiguous
            _ingest(cfg, self.registers.reshape(cfg.num_cells, 3, -1), vs, ys.reshape(len(vs), -1))

    # -- structure ---------------------------------------------------------

    def window(self, a: int, b: int):
        """Sub-sketch over [a, b); valid because Poisson cell draws are keyed per cell."""
        if self.config.mode != "poisson":
            raise InvalidConfigError("windowing is only meaningful for Poisson towers")
        if not (self.config.a <= a < b <= self.config.b):
            raise InvalidConfigError("window must lie inside the stored cell range")
        cfg = replace(self.config, a=a, b=b)
        lo = a - self.config.a
        return type(self)(cfg, self.registers[lo : lo + (b - a)].copy())

    def serialize(self) -> bytes:
        return _serialize(self.config, self.registers)


class TowerSketch(_TowerBase):
    """Group-valued triple tower; registers are canonical residue vectors."""

    @property
    def group(self) -> GroupDescriptor:
        return self.config.group

    def project(self, coords: Sequence[int]) -> "TowerSketch":
        """The sketch of the values' coordinates ``coords``, over those factors of the group.

        A count never depends on the value, so factor t of the registers is
        exactly the sketch of the stream's t-th coordinate.  The registers are
        copied; an empty list, or a coordinate that is not an integer index
        of a factor, raises InvalidGroupError.
        """
        orders = self.group.orders
        try:
            idx = [operator.index(c) for c in coords]
        except TypeError:
            idx = []
        if not idx or not all(0 <= c < len(orders) for c in idx):
            raise InvalidGroupError(f"coordinates {coords!r} do not index the factors of {orders}")
        cfg = _config_over(self.config, make_group([orders[c] for c in idx]))
        return type(self)(cfg, self.registers[:, :, idx])


_SHARED_FIELDS = operator.attrgetter("m", "a", "b", "seed", "mode")


def combine_product(s1: TowerSketch, s2: TowerSketch) -> TowerSketch:
    """Cellwise-paired sketch over the product group.

    Requires identical (m, a, b, seed, mode): cell assignment depends only on
    (seed, element, column, cell), never on values, so the paired registers
    are exactly the sketch of the product stream.
    """
    c1, c2 = s1.config, s2.config
    if c1.group is None or c2.group is None:
        raise CannotCombineError("integer sketches have no group to pair; reduce them first")
    if _SHARED_FIELDS(c1) != _SHARED_FIELDS(c2):
        raise CannotCombineError("sketches must share m, a, b, seed and mode")
    cfg = _config_over(c1, c1.group.product(c2.group))
    return TowerSketch(cfg, np.concatenate([s1.registers, s2.registers], axis=2))


class IntegerTowerSketch(_TowerBase):
    """Exact signed-integer registers with query-time modulo reduction."""

    def reduce_values_mod(self, p: int) -> TowerSketch:
        """Group-valued view of the registers mod p (query-time reduction)."""
        cfg = _config_over(self.config, _cyclic_group(p))
        return TowerSketch(cfg, _mod_exact(self.registers, cfg.group.orders)[:, :, None])


def sketch_new(config: SketchConfig) -> TowerSketch | IntegerTowerSketch:
    """Empty sketch for a validated config (integer-mode iff group is None)."""
    return (IntegerTowerSketch if config.group is None else TowerSketch)(config)


# -- wire format -------------------------------------------------------------

_HEADER = struct.Struct("<4sH")
_FIXED = struct.Struct("<IiiQB")


def _serialize(config: SketchConfig, registers: np.ndarray) -> bytes:
    integer = config.group is None
    orders = (0,) if integer else config.group.orders
    return b"".join(
        [
            _HEADER.pack(MAGIC, VERSION),
            struct.pack("<I", len(orders)),
            struct.pack(f"<{len(orders)}I", *orders),
            _FIXED.pack(config.m, config.a, config.b, config.seed, _MODE_BYTE[(config.mode, integer)]),
            registers.astype("<i8" if integer else "<u4").tobytes(),
        ]
    )


def deserialize(data: bytes) -> TowerSketch | IntegerTowerSketch:
    """Sketch from its wire format; any malformed blob raises CorruptSketchError."""
    try:
        magic, version = _HEADER.unpack_from(data, 0)
        if magic != MAGIC:
            raise CorruptSketchError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CorruptSketchError(f"unsupported version {version}")
        off = _HEADER.size
        (d,) = struct.unpack_from("<I", data, off)
        off += 4
        orders = struct.unpack_from(f"<{d}I", data, off)
        off += 4 * d
        m, a, b, seed, mode_byte = _FIXED.unpack_from(data, off)
        off += _FIXED.size
    except struct.error as exc:
        raise CorruptSketchError("truncated sketch header") from exc
    if mode_byte not in _MODE_FROM_BYTE:
        raise CorruptSketchError(f"unknown mode byte {mode_byte}")
    mode, integer = _MODE_FROM_BYTE[mode_byte]
    nk = b - a
    if nk <= 0:
        raise CorruptSketchError("empty cell range")
    if integer and orders != (0,):
        raise CorruptSketchError("integer sketch must carry the Z sentinel order 0")
    try:
        group = None if integer else make_group(orders)
    except InvalidGroupError as exc:
        raise CorruptSketchError(f"invalid group in header: {exc}") from exc
    shape = (nk, 3) if integer else (nk, 3, group.degree)
    dtype = np.dtype("<i8" if integer else "<u4")
    expect = math.prod(shape) * dtype.itemsize
    if len(data) - off != expect:
        raise CorruptSketchError(f"register payload has {len(data) - off} bytes, expected {expect}")
    # built only after the payload size matches, so a forged header cannot
    # make the config validation loop over a huge cell range
    try:
        cfg = SketchConfig(group, m, a, b, seed, mode)
    except InvalidConfigError as exc:
        raise CorruptSketchError(f"invalid config in header: {exc}") from exc
    regs = np.frombuffer(data, dtype=dtype, offset=off).reshape(shape).astype(np.int64)
    try:
        return (IntegerTowerSketch if integer else TowerSketch)(cfg, regs)
    except HSketchError as exc:
        raise CorruptSketchError(f"invalid registers: {exc}") from exc

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
reaches 1, so cells with mean below ~2^-53 are a Bernoulli draw or zero.

Poisson ingest is blocked: one table per (m, a, b) holds every cell's PRF keys
and integer thresholds, and each block draws the words of many cells at once,
(cells, 3, updates) with at most ``_BLOCK_WORDS`` words.  The draw is
mix64(state ^ key), split as head, core and tail (see ``prf``).  The head
distributes over XOR, so the table holds the keys already through it, each
chunk passes its states through it once, and a block starts at the core.
Dense cells (P(count = 0) < 0.5, a prefix of the window) finish every word
and search their threshold rows.  Sparse cells screen the words before the
tail, which keeps bits 63..33: a word that reaches the first threshold t0
reaches (t0 >> 22) << 33 first.  Only the words that pass (about 3% at m=64)
are finished; sparse rows rise strictly, so a word that reaches column c has
c + 1 copies, and the hits go to the registers with one scatter-add per block.

Every register array, towers of both modes and both sampler modes, is
updated by one flat scatter-add, :func:`_scatter_add`.

A count never depends on the value, so K sketches of one config fed the same
ids draw the same counts.  :func:`_update_shared` ingests them in one pass:
their registers are stacked to (nk, 3, K * d) and their values to
(n, K * d), so each dense product and each sparse scatter-add covers all K,
and ``update_batch`` is its K = 1 case on a view of the registers.
"""

from __future__ import annotations

import math
import numbers
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
from .groups import GroupDescriptor, make_group

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


@lru_cache(maxsize=65536)
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
    through ``prf._mix64_head``.  The first ``len(dense)`` cells are dense and
    ``dense[i]`` is cell i's full integer threshold row.  Row s of ``thr`` is
    the row of sparse cell ``len(dense) + s``, padded with 2^53 (above every
    53-bit word).  Its cdf[0] >= 0.5, so its CDF values are multiples of 2^-53
    in [0.5, 1]: ceil(cdf * 2^53) is exact, the row rises strictly as
    ``_poisson_cdf`` appends only rising values, and a word that reaches
    column c has exactly c + 1 copies.  ``screen[s]`` is (t0 >> 22) << 33 for
    t0 = thr[s, 0], clipped to 2^53 - 1; ``prf._mix64_tail`` keeps bits 63..33,
    so a word whose u53 reaches t0 reaches ``screen[s]`` before the tail.
    """

    keys: np.ndarray  # (nk, 3) uint64
    dense: tuple[np.ndarray, ...]
    screen: np.ndarray  # (nk - nd,) uint64
    thr: np.ndarray  # (nk - nd, width) uint64


@lru_cache(maxsize=16)
def _cell_table(m: int, a: int, b: int) -> _CellTable:
    cdfs = [_poisson_cdf(m, k) for k in range(a, b)]
    # P(count = 0) grows with k, so the dense cells are a prefix of the window
    nd = sum(1 for cdf in cdfs if cdf[0] < 0.5)
    dense = tuple(_u53_thresholds(cdf) for cdf in cdfs[:nd])
    sparse = cdfs[nd:]
    lens = np.array([len(cdf) for cdf in sparse], dtype=np.int64)
    thr = np.full((len(sparse), lens.max(initial=1)), _U53_END)
    if sparse:  # np.concatenate needs at least one row
        thr[np.arange(thr.shape[1]) < lens[:, None]] = _u53_thresholds(np.concatenate(sparse))
    # clipped, as the pad 2^53 of a cell that is never hit would wrap to 0
    screen = (np.minimum(thr[:, 0], _U53_END - np.uint64(1)) >> np.uint64(22)) << np.uint64(33)
    keys = prf.tuple_key(j=_COLUMNS.T, k=np.arange(a, b, dtype=np.int64)[:, None])
    prf._mix64_head(keys)
    for arr in (keys, screen, thr, *dense):
        arr.setflags(write=False)
    return _CellTable(keys, dense, screen, thr)


def _cell_words(state: np.ndarray, keys: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """PRF words of (cell, column, update) before the tail: keys (B, 3), state (n,) -> (B, 3, n).

    The tail is ``prf._mix64_tail``.  ``keys`` and ``state`` are folded
    through ``prf._mix64_head``, so their XOR is the head of their draw.  The
    words are written into ``buf[0]`` and ``buf[1]`` is scratch; both have
    room for at least B cells.
    """
    z = buf[0, : len(keys)]
    np.bitwise_xor(keys[:, :, None], state[None, None, :], out=z)
    prf._mix64_core(z, buf[1, : len(keys)])
    return z


def _dense_counts(u: np.ndarray, rows: tuple[np.ndarray, ...]) -> np.ndarray:
    """Counts of a block of dense cells: (B, 3, n) 53-bit words against their threshold rows."""
    return np.stack([np.searchsorted(t, w, side="right") for t, w in zip(rows, u)])


def _sparse_hits(z: np.ndarray, screen: np.ndarray, thr: np.ndarray):
    """Counts of the words of a block of sparse cells that pass the screen.

    ``z`` holds the block's (B, 3, n) words before ``prf._mix64_tail``,
    ``screen`` its (B,) screens and ``thr`` its (B, width) threshold rows.
    Only the words that pass the screen are finished and resolved.  Returns
    each one's row in the block's (B * 3) registers, its count and its update
    index.  A word that passes the screen but stays below its cell's first
    threshold counts 0 (its u53 lies within 2^22 below the threshold), so
    nearly every word returned is a hit, and a zero count adds nothing.
    """
    n = z.shape[2]
    cand = np.flatnonzero(z >= screen[:, None, None])
    uh = z.ravel()[cand]
    prf._mix64_tail(uh)
    uh = prf.u53(uh)
    row, v = np.divmod(cand, n)
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


def _binomial_levels_batch(seed: int, vs: np.ndarray, j, config: SketchConfig) -> np.ndarray:
    """Level offsets in [0, num_cells]; num_cells encodes the no-op; ``j`` broadcasts against ``vs``."""
    state = prf.stream_state(seed, prf.DOMAIN_LEVEL, vs)
    u = prf.u53(prf.draw(state, prf.tuple_key(j=j)))
    thr = _u53_thresholds(_level_cdf(config.m, config.a, config.b))
    return np.searchsorted(thr, u, side="right")


def _scatter_add(regs: np.ndarray, rows: np.ndarray, terms: np.ndarray) -> None:
    """Add ``terms[i]``, (h,) or (h, d), to row ``rows[i]`` of C-contiguous ``regs`` viewed as (R, d).

    Repeated rows sum.  The scatter is flat because numpy's fast path for ``add.at`` is 1-D.
    """
    d = math.prod(terms.shape[1:])
    idx = (rows[:, None] * d + np.arange(d)).ravel()
    np.add.at(regs.reshape(-1), idx, terms.ravel())


def _as_int64(values, what: str) -> np.ndarray:
    """``values`` as int64; an entry that is not an integer in the int64 range raises.

    Dtypes that always fit int64 skip the per-element test, and int64 is not copied.
    """
    try:
        arr = np.asarray(values)
        kind, size = arr.dtype.kind, arr.dtype.itemsize
        if kind in "bi" or (kind == "u" and size < 8):
            return arr.astype(np.int64, copy=False)
        if kind in "ufO":
            with np.errstate(invalid="ignore"):
                out = arr.astype(np.int64)
            if np.array_equal(out, arr):
                return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise GroupMismatchError(f"{what} must be integers in the int64 range")


def _update_arrays(group: GroupDescriptor | None, vs, ys) -> tuple[np.ndarray, np.ndarray]:
    """A batch's (n,) element ids as int64 and its canonical values, checked to match."""
    vs = _as_int64(vs, "element ids")
    yr = _canonical_values(group, ys)
    if vs.ndim != 1 or len(vs) != len(yr):
        raise GroupMismatchError(f"element ids of shape {vs.shape} do not match {len(yr)} values")
    return vs, yr


def _canonical_values(group: GroupDescriptor | None, ys) -> np.ndarray:
    """Update values as int64: (n,) integers, or (n, d) canonical residues of ``group``."""
    arr = _as_int64(ys, "update values")
    row = () if group is None else (group.degree,)
    if arr.ndim == 1 and row == (1,):
        arr = arr[:, None]
    if arr.ndim != 1 + len(row) or arr.shape[1:] != row:
        raise GroupMismatchError(f"values of shape {arr.shape} are not rows of shape {row}")
    return arr if group is None else np.mod(arr, np.array(group.orders, dtype=np.int64))


def _settle(config: SketchConfig, regs: np.ndarray) -> None:
    """Restore the register invariant of ``regs``, K stacked sketches of ``config``, after a chunk.

    Integer registers must stay below 2^62 in magnitude; group registers,
    (nk, 3, K * d), are reduced by the group orders tiled K times.
    """
    if config.group is None:
        if np.any((regs >= _INT_REGISTER_BOUND) | (regs <= -_INT_REGISTER_BOUND)):
            raise RegisterOverflowError("integer register exceeded the 2^62 workload bound")
    else:
        orders = np.array(config.group.orders, dtype=np.int64)
        regs %= np.tile(orders, regs.shape[-1] // len(orders))


def _ingest(config: SketchConfig, regs: np.ndarray, vs: np.ndarray, ys: np.ndarray) -> None:
    """Add checked updates to ``regs``, (nk, 3, K), for (n, K) values ``ys``, settling every chunk."""
    add = _ingest_poisson if config.mode == "poisson" else _ingest_binomial
    for s in range(0, len(vs), _CHUNK_UPDATES):
        add(config, regs, vs[s : s + _CHUNK_UPDATES], ys[s : s + _CHUNK_UPDATES])
        _settle(config, regs)


def _ingest_poisson(config: SketchConfig, regs: np.ndarray, vs: np.ndarray, ys: np.ndarray) -> None:
    tab = _cell_table(config.m, config.a, config.b)
    state = prf.stream_state(config.seed, prf.DOMAIN_CELL, vs)  # (n,)
    prf._mix64_head(state)
    n, nd = len(vs), len(tab.dense)
    per = min(max(1, _BLOCK_WORDS // (3 * n)), config.num_cells)
    # one word buffer for every block of the call: a fresh block-sized
    # allocation per block would page-fault it in again each time
    buf = np.empty((2, per, 3, n), dtype=np.uint64)
    for lo in range(0, nd, per):
        hi = min(lo + per, nd)
        words = _cell_words(state, tab.keys[lo:hi], buf)
        prf._mix64_tail(words, buf[1, : hi - lo])
        words >>= np.uint64(11)
        regs[lo:hi] += _dense_counts(words, tab.dense[lo:hi]) @ ys
    for lo in range(nd, config.num_cells, per):
        _add_sparse(regs, _cell_words(state, tab.keys[lo : lo + per], buf), ys, tab, lo)


def _add_sparse(regs: np.ndarray, words: np.ndarray, ys: np.ndarray, tab: _CellTable, lo: int) -> None:
    """Add the counts of sparse cells lo, lo + 1, ... with one scatter-add.

    A function of its own so that a block's hit arrays are freed before the
    next block.
    """
    nd = len(tab.dense)
    s = slice(lo - nd, lo + len(words) - nd)
    row, cnt, v = _sparse_hits(words, tab.screen[s], tab.thr[s])
    _scatter_add(regs, 3 * lo + row, cnt[:, None] * ys.take(v, axis=0))


def _ingest_binomial(config: SketchConfig, regs: np.ndarray, vs: np.ndarray, ys: np.ndarray) -> None:
    levels = _binomial_levels_batch(config.seed, vs, _COLUMNS, config)  # (3, n)
    live = levels < config.num_cells
    rows = 3 * levels + (_COLUMNS - 1)
    _scatter_add(regs, rows[live], np.broadcast_to(ys, (3,) + ys.shape)[live])


def _update_shared(sketches: Sequence[_TowerBase], vs, ys_list: Sequence) -> None:
    """Add the values ``ys_list[i]`` at the ids ``vs`` to ``sketches[i]``, all in one pass.

    A cell's count depends only on (seed, element, column, cell), so K
    sketches of one config fed the same ids share every PRF draw and differ
    only in the values multiplied in: their registers are stacked to
    (nk, 3, K * d) and the values to (n, K * d).  Every check comes before any
    register changes: one class and one config (else CannotCombineError), one
    canonical batch per sketch (else GroupMismatchError), and integer values
    within 2^31 (else RegisterOverflowError).  One sketch is updated in place.
    """
    first = sketches[0]
    cfg = first.config
    if any(type(sk) is not type(first) or sk.config != cfg for sk in sketches):
        raise CannotCombineError("a shared ingest needs sketches of one class and one config")
    if len(ys_list) != len(sketches):
        raise GroupMismatchError(f"{len(ys_list)} value batches for {len(sketches)} sketches")
    batches = [_update_arrays(cfg.group, vs, ys) for ys in ys_list]
    vs = batches[0][0]
    cols = [yr if yr.ndim == 2 else yr[:, None] for _, yr in batches]
    ys = cols[0] if len(cols) == 1 else np.concatenate(cols, axis=1)  # one batch is not copied
    if cfg.group is None and np.any((ys > _MAX_UPDATE_MAGNITUDE) | (ys < -_MAX_UPDATE_MAGNITUDE)):
        raise RegisterOverflowError(
            f"update magnitude exceeds the declared bound {_MAX_UPDATE_MAGNITUDE}"
        )
    if not len(vs):
        return
    nk = cfg.num_cells
    if len(sketches) == 1:  # a view: the constructor keeps registers C-contiguous
        _ingest(cfg, first.registers.reshape(nk, 3, -1), vs, ys)
        return
    regs = np.concatenate([sk.registers.reshape(nk, 3, -1) for sk in sketches], axis=2)
    _ingest(cfg, regs, vs, ys)
    for sk, part in zip(sketches, np.split(regs, len(sketches), axis=2)):
        sk.registers[...] = part.reshape(sk.registers.shape)


class _TowerBase:
    """Register storage, updates through :func:`_update_shared` and the structural operations."""

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
        _update_shared([self], vs, [ys])

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

    def reduce_values_mod(self, p: int) -> "TowerSketch":
        """A copy of this Z_p sketch: its registers are already reduced."""
        if self.group.orders != (p,):
            raise GroupMismatchError(f"sketch is over {self.group.orders}, not Z_{p}")
        return self.copy()


def combine_product(s1: TowerSketch, s2: TowerSketch) -> TowerSketch:
    """Cellwise-paired sketch over the product group.

    Requires identical (m, a, b, seed, mode): cell assignment depends only on
    (seed, element, column, cell), never on values, so the paired registers
    are exactly the sketch of the product stream.
    """
    c1, c2 = s1.config, s2.config
    if c1.group is None or c2.group is None:
        raise CannotCombineError("integer sketches have no group to pair; reduce them first")
    if replace(c1, group=None) != replace(c2, group=None):
        raise CannotCombineError("sketches must share m, a, b, seed and mode")
    group = c1.group.product(c2.group)
    cfg = replace(c1, group=group)
    return TowerSketch(cfg, np.concatenate([s1.registers, s2.registers], axis=2))


class IntegerTowerSketch(_TowerBase):
    """Exact signed-integer registers with query-time modulo reduction."""

    def reduce_values_mod(self, p: int) -> TowerSketch:
        """Group-valued view of the registers mod p (query-time reduction)."""
        group = make_group([p])
        cfg = replace(self.config, group=group)
        return TowerSketch(cfg, np.mod(self.registers, p)[:, :, None])


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

"""Finite abelian groups Z_{p1} x ... x Z_{pd}, their characters, and the DFT.

Conventions, fixed so serialized tables are portable:

* elements are tuples of canonical residues, one per cyclic factor;
* enumeration order is mixed-radix with the first listed factor most
  significant (the last factor varies fastest);
* the character pairing is chi(x, gamma) = exp(2*pi*i * sum_t x_t*gamma_t/p_t),
  and the dual group shares the descriptor;
* the transform uses the counting measure on the group (plain sum) and the
  uniform probability measure on the dual (a 1/|G| weight), so the inverse
  transform carries the 1/|G| factor and norms on the dual are 1/|G|-weighted;
* a table is stored as CSV rows ``index,re,im`` in enumeration order with
  ``repr`` floats, and is read back only if its index column is exactly
  0, 1, ..., n-1, so a table round-trips bit for bit.

A descriptor validates itself (at least one factor, integer orders >= 2, at
most ``MAX_TOTAL_SIZE`` elements), so a product of two groups has the same
bound as any other.  Every character sum over the group is an n-dimensional
FFT: the enumeration order is C order over an array of shape ``orders``, so
:func:`dft` is ``np.fft.fftn`` of the values reshaped to that shape and
:func:`idft` is ``np.fft.ifftn``.

Repeated query work is served from caches keyed by content.  A cyclic group
of a validated integer order has one shared descriptor (``_cyclic_group``),
so its tables are built once.  :func:`dft`, :func:`idft` and the
estimator's column products share one least-recently-used :class:`_Memo`,
``_MEMO``, bounded by ``_MEMO_BYTES``.
"""

from __future__ import annotations

import csv
import math
import operator
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import GroupMismatchError, InvalidGroupError

MAX_TOTAL_SIZE = 2**31

GroupElement = tuple[int, ...]


@dataclass(frozen=True)
class GroupDescriptor:
    """Direct product of cyclic groups, given by the factor orders (validated on construction)."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if len(self.orders) == 0:
            raise InvalidGroupError("a group needs at least one cyclic factor")
        clean = []
        total = 1
        for p in self.orders:
            try:
                p = operator.index(p)  # int() would truncate 2.9 to 2
            except TypeError:
                raise InvalidGroupError(f"cyclic factor order {p!r} is not an integer") from None
            if p < 2:
                raise InvalidGroupError(f"cyclic factor order {p} < 2 is invalid")
            clean.append(p)
            total *= p
            if total > MAX_TOTAL_SIZE:
                raise InvalidGroupError(f"group size {total} too large (limit {MAX_TOTAL_SIZE})")
        object.__setattr__(self, "orders", tuple(clean))

    @property
    def degree(self) -> int:
        return len(self.orders)

    @cached_property
    def total_size(self) -> int:
        return math.prod(self.orders)

    @cached_property
    def index_weights(self) -> tuple[int, ...]:
        """Mixed-radix weight of each factor in the enumeration index."""
        weights = []
        w = 1
        for p in reversed(self.orders):
            weights.append(w)
            w *= p
        return tuple(reversed(weights))

    @cached_property
    def roots(self) -> np.ndarray:
        """exp(2*pi*i*r/p) for r in [0, p): the character values of a cyclic group Z_p."""
        if self.degree != 1:
            raise InvalidGroupError(f"roots of unity are tabulated for a cyclic group, not {self.orders}")
        p = self.orders[0]
        return _read_only(np.exp(2j * np.pi * np.arange(p) / p))

    # -- element handling -------------------------------------------------

    def element(self, residues: Sequence[int]) -> GroupElement:
        """Canonicalize a residue sequence into an element of this group; every residue is an integer."""
        try:
            n = len(residues)
        except TypeError:  # a bare scalar such as 3 or np.int64(3)
            raise GroupMismatchError(f"element {residues!r} is not a sequence of residues") from None
        if n != self.degree:
            raise GroupMismatchError(f"element has {n} residues, group has {self.degree} factors")
        try:  # int() would read 2.9 as 2 and '3' as 3; np.bool_ has no __index__, its .item() has
            return tuple(operator.index(r.item() if isinstance(r, np.generic) else r) % p
                         for r, p in zip(residues, self.orders))
        except TypeError:
            raise GroupMismatchError(f"element {tuple(residues)!r} has a non-integer residue") from None

    def index_of(self, x: GroupElement) -> int:
        return sum(r * w for r, w in zip(self.element(x), self.index_weights))

    def element_at(self, index: int) -> GroupElement:
        if not 0 <= index < self.total_size:
            raise InvalidGroupError(f"element index {index} out of range")
        return tuple(
            (index // w) % p for w, p in zip(self.index_weights, self.orders)
        )

    def elements(self) -> Iterator[GroupElement]:
        for i in range(self.total_size):
            yield self.element_at(i)

    def product(self, other: "GroupDescriptor") -> "GroupDescriptor":
        return GroupDescriptor(self.orders + other.orders)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, locked: a descriptor's tables are shared by every query on its group."""
    arr.setflags(write=False)
    return arr


def make_group(orders: Sequence[int]) -> GroupDescriptor:
    """Descriptor for Z_{orders[0]} x ... x Z_{orders[-1]}; the descriptor validates itself."""
    return GroupDescriptor(tuple(orders))


def _cyclic_group(p) -> GroupDescriptor:
    """Z_p, one shared descriptor per integer order; anything else raises as ``make_group([p])``.

    The order is validated before the cache sees it: 7.0 == 7 and both hash
    alike, so a cache keyed on the raw ``p`` would hand back Z_7 for 7.0.
    """
    try:
        p = operator.index(p)
    except TypeError:
        return GroupDescriptor((p,))  # raises InvalidGroupError
    return _cyclic_descriptor(p)


@lru_cache(maxsize=16)
def _cyclic_descriptor(p: int) -> GroupDescriptor:
    return GroupDescriptor((p,))


# -- the memo of repeated query work ------------------------------------------


_MEMO_BYTES = 128 << 20  # one Z_7^8 column product (92.2 MB) with its registers fits


class _Memo(list):
    """Results of computations on arrays, least recently used first, within ``budget`` bytes.

    Each entry is ``(*key, snapshot, result)``, charged its two arrays' bytes.
    A lookup whose key equals an entry's and whose array has the snapshot's
    shape, dtype and bits (compared in place, :func:`_same_bits`) gets the
    stored result itself: a hit copies nothing and recomputes nothing, so
    ``compute`` returns read-only arrays and a caller copies what it hands to
    the user.  A miss computes from a snapshot of the array, so its entry
    matches what was computed even if the caller's array changes meanwhile.
    Storing it evicts the oldest entries past the budget; a larger result is not stored.
    """

    budget = _MEMO_BYTES
    _lock = threading.Lock()

    def get(self, key: tuple, data: np.ndarray, compute: Callable[[np.ndarray], np.ndarray]):
        """``compute(snapshot of data)``, or the result stored for an equal (key, data)."""
        with self._lock:
            for i in range(len(self) - 1, -1, -1):  # newest first: a repeated query stops at once
                entry = self[i]
                if entry[:-2] == key and _same_bits(entry[-2], data):
                    self.append(self.pop(i))
                    return entry[-1]
        snap = data.copy()
        result = compute(snap)
        if snap.nbytes + result.nbytes <= self.budget:
            with self._lock:
                self.append((*key, snap, result))
                held = np.cumsum([e[-2].nbytes + e[-1].nbytes for e in reversed(self)])  # newest first
                del self[: len(self) - np.searchsorted(held, self.budget, side="right")]
        return result

    def drop(self, heads) -> None:
        """Remove the entries whose key starts with one of ``heads``, such as a spent trial's configs."""
        with self._lock:
            self[:] = [entry for entry in self if entry[0] not in heads]


_MEMO = _Memo()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` have one shape, one dtype and the same bits.

    For what the memo holds, C-contiguous int64 registers and complex128
    tables.  Equal integers have equal bits, so integer arrays are compared
    as they are, with no per-call view; any other dtype is compared as
    uint64 words, so -0.0 differs from 0.0 and equal NaN bits match.
    """
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind != "i":
        a, b = a.reshape(-1).view(np.uint64), b.reshape(-1).view(np.uint64)
    return not np.count_nonzero(np.not_equal(a, b))


# -- tabulated functions and spectra ----------------------------------------


@dataclass(frozen=True)
class _Table:
    """Complex values indexed by group element, in enumeration order."""

    group: GroupDescriptor
    values: np.ndarray

    def __post_init__(self):
        # contiguous, so a transform depends on the values alone, not on the caller's strides
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        if vals.shape != (self.group.total_size,):
            raise GroupMismatchError(
                f"table has {vals.shape} values, group size is {self.group.total_size}"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, g: GroupDescriptor, fn: Callable[[GroupElement], complex]):
        return cls(g, np.array([fn(x) for x in g.elements()], dtype=np.complex128))

    def __getitem__(self, x: GroupElement) -> complex:
        return complex(self.values[self.group.index_of(x)])

    def write_csv(self, path) -> None:
        _write_table_csv(path, self.values)

    @classmethod
    def read_csv(cls, path, group: GroupDescriptor):
        return cls(group, _read_table_csv(path))


class FunctionTable(_Table):
    """Complex values of a function on the group, in enumeration order."""


class SpectrumTable(_Table):
    """Complex values of a transform on the dual group, in enumeration order."""


def _write_csv(path, header: list[str], rows: Iterable[Sequence]) -> None:
    """The one CSV writer: a header line, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_table_csv(path, values: np.ndarray) -> None:
    _write_csv(
        path,
        ["index", "re", "im"],
        ([i, repr(float(z.real)), repr(float(z.imag))] for i, z in enumerate(values)),
    )


def _read_csv(path, header: list[str], types: Sequence[Callable], error: type) -> list[list]:
    """The one CSV reader: the rows under ``header``, each field converted by its type.

    A wrong header or field count, a field its type rejects and undecodable bytes raise ``error``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found != header:
                raise error(f"unexpected CSV header {found}")
            return [[t(x) for t, x in zip(types, row, strict=True)] for row in reader]
        except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
            raise error(f"malformed CSV row {reader.line_num}: {exc}") from exc


def _read_table_csv(path) -> np.ndarray:
    """Values of a table CSV; any malformed content raises ``InvalidGroupError``."""
    rows = _read_csv(path, ["index", "re", "im"], (int, float, float), InvalidGroupError)
    if [r[0] for r in rows] != list(range(len(rows))):
        raise InvalidGroupError("table index column is not 0, 1, ..., n-1 in order")
    out = np.empty(len(rows), dtype=np.complex128)
    out.real = [r[1] for r in rows]
    out.imag = [r[2] for r in rows]
    return out


def _transform(g: GroupDescriptor, direction: str, values: np.ndarray) -> np.ndarray:
    """A copy of the memoized ``np.fft`` transform of ``values`` over ``g``."""
    fft = np.fft.fftn if direction == "dft" else np.fft.ifftn
    return _MEMO.get(
        (g, direction), values, lambda v: _read_only(fft(v.reshape(g.orders)).ravel())
    ).copy()


def dft(g: GroupDescriptor, f: FunctionTable) -> SpectrumTable:
    """Forward transform: hat(f)(gamma) = sum_x f(x) * conj(chi(x, gamma)).

    ``np.fft.fftn`` over the factor axes: O(|G| log |G|).  Memoized in
    ``_MEMO``, as :func:`idft` and the column products are: a transform is
    kept, read-only, under (group, direction, a snapshot of the input
    values), and every call returns a copy, so a repeat gets the same bits.
    """
    if not isinstance(f, FunctionTable) or f.group != g:
        raise GroupMismatchError(f"dft takes a FunctionTable over {g.orders}")
    return SpectrumTable(g, _transform(g, "dft", f.values))


def idft(g: GroupDescriptor, s: SpectrumTable) -> FunctionTable:
    """Inverse transform: f(x) = (1/|G|) * sum_gamma hat(f)(gamma) * chi(x, gamma) (memoized as dft)."""
    if not isinstance(s, SpectrumTable) or s.group != g:
        raise GroupMismatchError(f"idft takes a SpectrumTable over {g.orders}")
    return FunctionTable(g, _transform(g, "idft", s.values))


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

Characters are evaluated only in bulk, as integer phase rows
(``_phase_rows``) into the table :attr:`GroupDescriptor.roots`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import GroupMismatchError, InvalidGroupError

MAX_TOTAL_SIZE = 2**31
_MAX_CHAR_TABLE = 2**22

GroupElement = tuple[int, ...]


@dataclass(frozen=True)
class GroupDescriptor:
    """Direct product of cyclic groups, given by the factor orders."""

    orders: tuple[int, ...]

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
    def char_modulus(self) -> int:
        """Common denominator of all character phases: lcm of the orders."""
        return math.lcm(*self.orders)

    @cached_property
    def roots(self) -> np.ndarray:
        """exp(2*pi*i*r/L) for r in [0, L); the only complex exponentials used."""
        L = self.char_modulus
        if L > _MAX_CHAR_TABLE:
            raise InvalidGroupError(
                f"character table for lcm {L} exceeds the supported size {_MAX_CHAR_TABLE}"
            )
        return np.exp(2j * np.pi * np.arange(L) / L)

    @cached_property
    def phase_factors(self) -> np.ndarray:
        """Per-factor multiplier L/p_t turning residue products into L-th roots."""
        L = self.char_modulus
        return np.array([L // p for p in self.orders], dtype=np.int64)

    @cached_property
    def residue_matrix(self) -> np.ndarray:
        """(total_size, d) int64 matrix of all elements in enumeration order."""
        n, d = self.total_size, self.degree
        out = np.empty((n, d), dtype=np.int64)
        idx = np.arange(n)
        for t in range(d):
            out[:, t] = (idx // self.index_weights[t]) % self.orders[t]
        return out

    # -- element handling -------------------------------------------------

    def element(self, residues: Sequence[int]) -> GroupElement:
        """Canonicalize a residue sequence into an element of this group."""
        if len(residues) != self.degree:
            raise GroupMismatchError(
                f"element has {len(residues)} residues, group has {self.degree} factors"
            )
        return tuple(int(r) % p for r, p in zip(residues, self.orders))

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

    # -- arithmetic --------------------------------------------------------

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        x, y = self.element(x), self.element(y)
        return tuple((a + b) % p for a, b, p in zip(x, y, self.orders))

    def neg(self, x: GroupElement) -> GroupElement:
        return tuple((-a) % p for a, p in zip(self.element(x), self.orders))

    def scalar_mul(self, n: int, x: GroupElement) -> GroupElement:
        return tuple((n % p) * a % p for a, p in zip(self.element(x), self.orders))

    def product(self, other: "GroupDescriptor") -> "GroupDescriptor":
        return GroupDescriptor(self.orders + other.orders)


def make_group(orders: Sequence[int]) -> GroupDescriptor:
    """Validated descriptor for Z_{orders[0]} x ... x Z_{orders[-1]}."""
    if len(orders) == 0:
        raise InvalidGroupError("a group needs at least one cyclic factor")
    clean = []
    total = 1
    for p in orders:
        p = int(p)
        if p < 2:
            raise InvalidGroupError(f"cyclic factor order {p} < 2 is invalid")
        clean.append(p)
        total *= p
        if total > MAX_TOTAL_SIZE:
            raise InvalidGroupError(f"group size {total} too large (limit {MAX_TOTAL_SIZE})")
    return GroupDescriptor(tuple(clean))


# -- tabulated functions and spectra ----------------------------------------


@dataclass(frozen=True)
class _Table:
    """Complex values indexed by group element, in enumeration order."""

    group: GroupDescriptor
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
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


def _read_table_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["index", "re", "im"]:
            raise InvalidGroupError(f"unexpected table header {header}")
        rows = [(int(i), float(re), float(im)) for i, re, im in reader]
    if [r[0] for r in rows] != list(range(len(rows))):
        raise InvalidGroupError("table index column is not 0, 1, ..., n-1 in order")
    out = np.empty(len(rows), dtype=np.complex128)
    out.real = [r[1] for r in rows]
    out.imag = [r[2] for r in rows]
    return out


def _phase_rows(g: GroupDescriptor, residues: np.ndarray) -> np.ndarray:
    """Phase indices of chi(x, gamma), one row per residue row x and one column per gamma."""
    return (residues @ (g.residue_matrix * g.phase_factors).T) % g.char_modulus


def _transform(g: GroupDescriptor, values: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """out[i] = values @ roots[phase row of element i]; the pairing is symmetric in x and gamma.

    Rows are built in blocks of about 2^16 phases, and each output is one 1-D
    dot with a C-contiguous row: the same bits as a row built on its own.
    """
    n = g.total_size
    out = np.empty(n, dtype=np.complex128)
    step = max(1, (1 << 16) // n)
    for lo in range(0, n, step):
        rows = roots[_phase_rows(g, g.residue_matrix[lo : lo + step])]
        for i, row in enumerate(rows, lo):
            out[i] = values @ row
    return out


def dft(g: GroupDescriptor, f: FunctionTable) -> SpectrumTable:
    """Forward transform: hat(f)(gamma) = sum_x f(x) * conj(chi(x, gamma)).

    Naive O(|G|^2) evaluation; the groups here are desk scale.
    """
    if f.group != g:
        raise GroupMismatchError("function table is over a different group")
    return SpectrumTable(g, _transform(g, f.values, g.roots.conj()))


def idft(g: GroupDescriptor, s: SpectrumTable) -> FunctionTable:
    """Inverse transform: f(x) = (1/|G|) * sum_gamma hat(f)(gamma) * chi(x, gamma)."""
    if s.group != g:
        raise GroupMismatchError("spectrum table is over a different group")
    return FunctionTable(g, _transform(g, s.values, g.roots) / g.total_size)


def norms(f: FunctionTable, s: SpectrumTable) -> tuple[float, float]:
    """(sup norm of f, Haar-weighted 1-norm of its transform).

    The sup norm can never exceed the transform's 1-norm; this is asserted
    because every error bound in the estimators leans on it.
    """
    norm_inf = float(np.max(np.abs(f.values))) if f.values.size else 0.0
    hat_norm_1 = float(np.sum(np.abs(s.values)) / s.group.total_size)
    if norm_inf > hat_norm_1 + 1e-9:
        raise AssertionError(
            f"sup norm {norm_inf} exceeds transform 1-norm {hat_norm_1}; "
            "tables are not a transform pair"
        )
    return norm_inf, hat_norm_1

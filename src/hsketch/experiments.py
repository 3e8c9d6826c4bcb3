"""Batch experiment runner: seeded trials, scheme comparison, CSV emission.

Every experiment is one call to ``_run_trials``, whose tasks are the trial
seeds (trial t uses base_seed + t), each over every workload.  The CSV is
written workload-major, then in trial order, whatever the completion order,
so identical configs produce byte-identical output.  ``HSKETCH_THREADS``
caps worker processes; 1 disables multiprocessing.

Every task runs ``_trial``, which generates the streams, builds the Fourier
towers and formats the rows; an experiment supplies only its query list (per
quantity a name, a spectrum and a truth) and its sampler estimates.  A
Fourier row is one ``estimate_f`` on a tower from ``_fourier_towers``, on the
trial's seed; every scheme at one m queries the same tower.  Streams over G
with the same ids are the coordinates of one tower over G^K, fed (n, K) value
rows, and each gets its coordinate's projection; the union workload's two
streams are the coordinates of one Z_p x Z_p stream over the union's ids.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import groups, prf
from .errors import (
    InvalidConfigError,
    InvalidWorkloadError,
    NoSamplesError,
    SaturatedError,
    SchemaError,
    _checked_int,
)
from .estimator import _support_spectrum, estimate_f, modulo_spectrum
from .groups import MAX_TOTAL_SIZE, FunctionTable, GroupDescriptor, _read_csv, _write_csv, dft, make_group
from .sampler import SamplerSketch, equal_memory_m_prime, sample_f_moment
from .tower import SketchConfig, TowerSketch, default_window
from .workloads import WorkloadSpec, gen_stream, signed_representative

CSV_HEADER = [
    "workload",
    "scheme",
    "quantity",
    "trial",
    "seed",
    "estimate",
    "imag_residual",
    "truth",
]


@dataclass(frozen=True)
class SchemeSpec:
    """One estimation scheme: fourier{m} or a sampler at matched memory."""

    kind: str  # fourier | fingerprint | ideal-oracle
    m: int  # tower accuracy parameter (fourier) or the budget it matches
    r: int = 3
    clamp_nonnegative: bool = False
    literal_truncation: bool = False

    def __post_init__(self):
        if self.kind not in ("fourier", "fingerprint", "ideal-oracle"):
            raise SchemaError(f"unknown scheme kind {self.kind!r}")

    def label(self) -> str:
        return f"fingerprint-r{self.r}" if self.kind == "fingerprint" else self.kind


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    workloads: tuple[WorkloadSpec | UnionWorkload, ...]
    schemes: tuple[SchemeSpec, ...]
    trials: int
    base_seed: int
    p: int = 7

    def __post_init__(self):
        if _checked_int("trials", self.trials, 0, error=SchemaError) < 1:
            raise SchemaError("trials must be >= 1")
        # trial t's tower seed is base_seed + t, which must stay below 2^64
        for name, lo, hi in (("trials", 1, None), ("base_seed", 0, (1 << 64) - self.trials), ("p", 2, None)):
            object.__setattr__(self, name, _checked_int(name, getattr(self, name), lo, hi, SchemaError))
        for name in ("workloads", "schemes"):
            if not getattr(self, name):
                raise SchemaError(f"{name} must not be empty")
        names = [wl.name for wl in self.workloads]
        if len(set(names)) < len(names):  # summarize would merge their rows
            raise SchemaError(f"workload names {names} repeat")


def thread_budget() -> int:
    env = os.environ.get("HSKETCH_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvalidConfigError(f"HSKETCH_THREADS={env!r} is not an integer") from None
    return max(1, os.cpu_count() or 1)


def _map_trials(fn: Callable, args_list: list) -> list:
    workers = min(thread_budget(), len(args_list))
    if workers <= 1:
        return [fn(args) for args in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list, chunksize=1))


def _fmt(x: float) -> str:
    return repr(float(x))


def write_rows(path, rows: Iterable[Sequence]) -> None:
    _write_csv(path, CSV_HEADER, rows)


def _run_trials(trial_fn: Callable, config: ExperimentConfig, out_path, kind: type) -> None:
    """Map ``trial_fn`` over one (workloads, schemes, config.p, trial, seed) task per trial seed.

    It returns each workload's rows; the CSV lists workloads in order, each in trial order.
    Every workload must be a ``kind``, checked before any task is mapped.
    """
    for wl in config.workloads:
        if not isinstance(wl, kind):
            raise SchemaError(f"this experiment runs {kind.__name__}s, not a {type(wl).__name__}")
    args = [
        (config.workloads, config.schemes, config.p, trial, config.base_seed + trial)
        for trial in range(config.trials)
    ]
    results = _map_trials(trial_fn, args)  # per trial, the rows of each workload
    write_rows(out_path, [row for w in range(len(config.workloads)) for per in results for row in per[w]])


def _fourier_towers(
    streams: Sequence, schemes: Sequence[SchemeSpec], group: GroupDescriptor, seed: int
) -> list[dict]:
    """One Poisson tower over ``group`` per (stream, fourier m), keyed by m.

    ``streams`` holds (ids, values, ...) tuples.  K streams whose id arrays
    are equal (int64, so equal bytes) are the coordinates of one tower per m
    over group^K, fed (n, K) rows, and each stream's tower is its projection.
    More streams than the largest K with |group|^K <= ``MAX_TOTAL_SIZE`` are
    split into towers of at most that K.
    """
    fit = max(k for k in range(1, 32) if group.total_size**k <= MAX_TOTAL_SIZE)  # |G| >= 2, so K < 31
    by_ids: dict[bytes, list[int]] = {}  # stream indices by id array
    for i, stream in enumerate(streams):
        by_ids.setdefault(stream[0].tobytes(), []).append(i)
    parts = [idx[s : s + fit] for idx in by_ids.values() for s in range(0, len(idx), fit)]
    towers: list[dict] = [{} for _ in streams]
    for m in dict.fromkeys(s.m for s in schemes if s.kind == "fourier"):
        a, b = default_window(m)
        for idx in parts:
            tower = TowerSketch(SketchConfig(make_group(group.orders * len(idx)), m, a, b, seed, "poisson"))
            tower.update_batch(streams[idx[0]][0], np.column_stack([streams[i][1] for i in idx]))
            for c, i in enumerate(idx):
                towers[i][m] = tower.project(range(c * group.degree, (c + 1) * group.degree))
    return towers


def _sampler_for(scheme: SchemeSpec, group: GroupDescriptor, seed: int) -> SamplerSketch:
    """The baseline sampler of a non-fourier scheme at the tower's memory budget."""
    if scheme.kind == "ideal-oracle":
        return SamplerSketch(group, 3 * scheme.m, seed, r=scheme.r, mode="ideal")
    m_prime = equal_memory_m_prime(scheme.m, scheme.r, group)
    return SamplerSketch(group, m_prime, seed, r=scheme.r, mode="fingerprint")


def _trial(queries: Callable, args) -> list[list[list]]:
    """One trial seed over every workload: the rows of each workload, in workload order.

    ``queries(group, truths)`` gives each workload's (quantity, spectrum, truth)
    list and the function that estimates those quantities from a sampler.
    It drops its towers' memo entries, which no later trial reads, on return.
    """
    workloads, schemes, p, trial, seed = args
    # (ids, values, truth) of each workload
    streams = [(*wl.stream(), wl.union_size) if isinstance(wl, UnionWorkload) else gen_stream(wl)
               for wl in workloads]
    group = make_group([p, p] if isinstance(workloads[0], UnionWorkload) else [p])
    towers = _fourier_towers(streams, schemes, group, seed)
    per_workload, sampled = queries(group, [truth for *_, truth in streams])
    out = []
    for wl, (vs, ys, _), sketches, qs in zip(workloads, streams, towers, per_workload):
        rows: list[list] = []
        for scheme in schemes:
            if scheme.kind == "fourier":
                opts = dict(clamp_nonnegative=scheme.clamp_nonnegative, literal=scheme.literal_truncation)
                reps = (estimate_f(sketches[scheme.m], spectrum, **opts) for _, spectrum, _ in qs)
                estimates = [(rep.estimate, rep.imag_residual) for rep in reps]
            else:
                sampler = _sampler_for(scheme, group, seed)
                sampler.update_batch(vs, ys)
                try:
                    estimates = [(est, 0.0) for est in sampled(sampler)]
                except (NoSamplesError, SaturatedError):
                    estimates = [(math.nan, 0.0)] * len(qs)
            rows += [
                [wl.name, scheme.label(), quantity, trial, seed, _fmt(est), _fmt(imag), _fmt(truth)]
                for (quantity, _, truth), (est, imag) in zip(qs, estimates)
            ]
        out.append(rows)
    groups._MEMO.drop({sketch.config for sketches in towers for sketch in sketches.values()})
    return out


# -- modulo-distribution experiment -------------------------------------------


def _modulo_queries(group: GroupDescriptor, truths: list) -> tuple[list, Callable]:
    """lambda_0 (the support) .. lambda_{p-1} (the count of each residue) of every workload."""
    p = group.orders[0]
    spectra = [_support_spectrum(group)] + [modulo_spectrum(p, j) for j in range(1, p)]
    counts = [[truth.support_size_mod(p)] + list(truth.residue_counts(p).values())[1:] for truth in truths]
    queries = [[(f"lambda{j}", s, c) for j, (s, c) in enumerate(zip(spectra, cs))] for cs in counts]
    return queries, _modulo_sampled


def _modulo_sampled(sampler: SamplerSketch) -> list[float]:
    """lambda_0 (the support) and its share in each residue among the singletons, from one classification."""
    p = sampler.group.orders[0]
    codes, values = sampler.classify_levels()
    lam0 = sampler._support(codes)
    counts = np.bincount(values[codes == 1, 0], minlength=p).tolist()  # singletons per residue
    total = sum(counts)
    return [lam0] + [lam0 * counts[j] / total if total else math.nan for j in range(1, p)]


_modulo_trial = partial(_trial, _modulo_queries)


def run_modulo_experiment(config: ExperimentConfig, out_path) -> None:
    _run_trials(_modulo_trial, config, out_path, WorkloadSpec)


# -- L2-style moment experiment ------------------------------------------------


def squared_rep_table(modulus: int) -> FunctionTable:
    group = make_group([modulus])
    return FunctionTable.from_function(
        group, lambda x: float(signed_representative(x[0], modulus)) ** 2
    )


def _l2_queries(group: GroupDescriptor, truths: list) -> tuple[list, Callable]:
    """The sum over the support of the squared signed representative mod p, per workload."""
    modulus = group.orders[0]
    ftable = squared_rep_table(modulus)
    spectrum = dft(group, ftable)
    queries = [[("l2", spectrum, truth.moment_mod(modulus, ftable))] for truth in truths]
    return queries, lambda sampler: [sample_f_moment(sampler, ftable)]


_l2_trial = partial(_trial, _l2_queries)


def run_l2_experiment(config: ExperimentConfig, out_path, modulus: int | None = None) -> None:
    """The L2 moment over Z_{config.p}; ``modulus``, if given, must equal ``config.p``."""
    if modulus is not None and modulus != config.p:
        raise SchemaError(f"modulus {modulus!r} differs from the config's p = {config.p}")
    _run_trials(_l2_trial, config, out_path, WorkloadSpec)


# -- union experiment -----------------------------------------------------------


@dataclass(frozen=True)
class UnionWorkload:
    """Two Z_p streams over a shared universe with a prescribed overlap."""

    name: str
    only_first: int
    only_second: int
    overlap: int
    p: int = 7
    shuffle_seed: int = 0

    def __post_init__(self):
        for name, lo, hi in (
            ("only_first", 0, None), ("only_second", 0, None), ("overlap", 0, None), ("p", 2, None),
            ("shuffle_seed", 0, 1 << 64),
        ):
            value = _checked_int(name, getattr(self, name), lo, hi, InvalidWorkloadError)
            object.__setattr__(self, name, value)

    @property
    def union_size(self) -> int:
        return self.only_first + self.only_second + self.overlap

    def stream(self) -> tuple[np.ndarray, np.ndarray]:
        """The union's ids and (n, 2) values: stream c's residue in column c, 0 where it lacks the id."""
        ids = np.arange(self.union_size, dtype=np.int64)
        state = prf.stream_state(self.shuffle_seed, prf.DOMAIN_VALUE, ids)
        u = np.column_stack([prf.draw(state, prf.tuple_key(j=salt)) for salt in (11, 12)])
        ys = 1 + (u % np.uint64(self.p - 1)).astype(np.int64)
        ys[self.only_first + self.overlap :, 0] = 0  # the first stream holds ids [0, only_first + overlap)
        ys[: self.only_first, 1] = 0  # the second holds [only_first, union_size)
        return ids, ys


def _union_queries(group: GroupDescriptor, truths: list) -> tuple[list, None]:
    """The union's size: the support of its Z_p x Z_p stream; it has no sampler scheme."""
    return [[("union", _support_spectrum(group), truth)] for truth in truths], None


_union_trial = partial(_trial, _union_queries)


def run_union_experiment(
    wl: UnionWorkload, m: int, trials: int, base_seed: int, out_path,
    clamp_nonnegative: bool = False, literal_truncation: bool = False,
) -> None:
    scheme = SchemeSpec(
        "fourier", m, clamp_nonnegative=clamp_nonnegative, literal_truncation=literal_truncation
    )
    config = ExperimentConfig("union", (wl,), (scheme,), trials, base_seed, p=wl.p)
    _run_trials(_union_trial, config, out_path, UnionWorkload)


# -- summaries -------------------------------------------------------------------


@dataclass(frozen=True)
class SummaryRow:
    workload: str
    scheme: str
    quantity: str
    trials: int
    mean: float
    std: float
    bias: float
    rmse: float
    truth: float


def read_rows(path) -> list[dict]:
    """Rows of an experiment CSV; any malformed content raises ``SchemaError``."""
    types = (str, str, str, int, int, float, float, float)
    rows = _read_csv(path, CSV_HEADER, types, SchemaError)
    return [dict(zip(CSV_HEADER, row)) for row in rows]


def summarize(path) -> list[SummaryRow]:
    """Per-(workload, scheme, quantity) mean/std/bias/RMSE against truth; a repeated trial raises."""
    groups: dict[tuple[str, str, str], list[dict]] = {}
    seen = set()
    for row in read_rows(path):
        key = (row["workload"], row["scheme"], row["quantity"], row["trial"])
        if key in seen:
            raise SchemaError(f"(workload, scheme, quantity, trial) {key} repeats: do two schemes share a label?")
        seen.add(key)
        groups.setdefault(key[:3], []).append(row)
    out = []
    for (wl, scheme, quantity), items in sorted(groups.items()):
        est = np.array([r["estimate"] for r in items])
        truth = items[0]["truth"]
        finite = est[np.isfinite(est)]
        if finite.size == 0:
            mean = std = bias = rmse = math.nan
        else:
            mean = float(finite.mean())
            std = float(finite.std(ddof=1)) if finite.size > 1 else 0.0
            bias = mean - truth
            rmse = float(np.sqrt(np.mean((finite - truth) ** 2)))
        out.append(SummaryRow(wl, scheme, quantity, len(items), mean, std, bias, rmse, truth))
    return out


def format_summary(rows: list[SummaryRow]) -> str:
    lines = [
        f"{'workload':<12} {'scheme':<16} {'quantity':<10} {'trials':>6} "
        f"{'truth':>12} {'mean':>12} {'std':>10} {'bias':>10} {'rmse':>10}"
    ]
    for r in rows:
        lines.append(
            f"{r.workload:<12} {r.scheme:<16} {r.quantity:<10} {r.trials:>6} "
            f"{r.truth:>12.2f} {r.mean:>12.2f} {r.std:>10.2f} {r.bias:>10.2f} {r.rmse:>10.2f}"
        )
    return "\n".join(lines)

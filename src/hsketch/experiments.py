"""Batch experiment runner: seeded trials, scheme comparison, CSV emission.

Every experiment is one call to ``_run_trials``, whose tasks are the trial
seeds (trial t uses base_seed + t), each over every workload.  The CSV is
written workload-major, then in trial order, whatever the completion order,
so identical configs produce byte-identical output.  ``HSKETCH_THREADS``
caps worker processes; 1 disables multiprocessing.

Every Fourier tower comes from ``_fourier_towers``, on the trial's seed, and
every scheme at one m queries the same tower.  Streams over G with the same
ids are the coordinates of one Poisson tower over G^K, fed (n, K) value rows,
and each stream gets its coordinate's projection.  The union trial's two
streams are the coordinates of one Z_p x Z_p stream over the union's ids.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import prf
from .errors import (
    InvalidConfigError,
    InvalidWorkloadError,
    NoSamplesError,
    SaturatedError,
    SchemaError,
    _checked_int,
)
from .estimator import _support_spectrum, estimate_f, estimate_modulo, estimate_support
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


def _run_trials(trial_fn: Callable, config: ExperimentConfig, out_path) -> None:
    """Map ``trial_fn`` over one (workloads, schemes, config.p, trial, seed) task per trial seed.

    It returns each workload's rows; the CSV lists workloads in order, each in trial order.
    """
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


def _fourier_opts(scheme: SchemeSpec) -> dict:
    return dict(clamp_nonnegative=scheme.clamp_nonnegative, literal=scheme.literal_truncation)


def _sampler_for(scheme: SchemeSpec, group: GroupDescriptor, seed: int) -> SamplerSketch:
    """The baseline sampler of a non-fourier scheme at the tower's memory budget."""
    if scheme.kind == "ideal-oracle":
        return SamplerSketch(group, 3 * scheme.m, seed, r=scheme.r, mode="ideal")
    m_prime = equal_memory_m_prime(scheme.m, scheme.r, group)
    return SamplerSketch(group, m_prime, seed, r=scheme.r, mode="fingerprint")


# -- modulo-distribution experiment -------------------------------------------


def _modulo_estimates(scheme: SchemeSpec, tower, vs, ys, group: GroupDescriptor, seed: int) -> list:
    """(estimate, imaginary residual) of lambda_0 .. lambda_{p-1} under one scheme."""
    p = group.orders[0]
    if scheme.kind == "fourier":
        opts = _fourier_opts(scheme)
        # one aggregation: each query after the first is a memo hit
        reps = [estimate_support(tower, p, **opts)]
        reps += [estimate_modulo(tower, p, j, **opts) for j in range(1, p)]
        return [(rep.estimate, rep.imag_residual) for rep in reps]
    sampler = _sampler_for(scheme, group, seed)
    sampler.update_batch(vs, ys)
    codes, values = sampler.classify_levels()  # one classification per trial
    try:
        lam0 = sampler._support(codes)
    except SaturatedError:
        lam0 = math.nan
    counts = np.bincount(values[codes == 1, 0], minlength=p).tolist()  # singletons per residue
    total = sum(counts)
    if total == 0 or math.isnan(lam0):
        return [(lam0, 0.0)] + [(math.nan, 0.0)] * (p - 1)
    return [(lam0, 0.0)] + [(lam0 * counts[j] / total, 0.0) for j in range(1, p)]


def _modulo_trial(args) -> list[list[list]]:
    """One trial seed over every workload: the rows of each workload, in workload order."""
    workloads, schemes, p, trial, seed = args
    streams = [gen_stream(spec) for spec in workloads]
    group = make_group([p])
    towers = _fourier_towers(streams, schemes, group, seed)
    out = []
    for spec, (vs, ys, truth), sketches in zip(workloads, streams, towers):
        residues = truth.residue_counts(p)
        truths = [truth.support_size_mod(p)] + [residues[j] for j in range(1, p)]
        rows: list[list] = []
        for scheme in schemes:
            estimates = _modulo_estimates(scheme, sketches.get(scheme.m), vs, ys, group, seed)
            rows += [
                [spec.name, scheme.label(), f"lambda{j}", trial, seed, _fmt(est), _fmt(imag), _fmt(tr)]
                for j, ((est, imag), tr) in enumerate(zip(estimates, truths))
            ]
        out.append(rows)
    return out


def run_modulo_experiment(config: ExperimentConfig, out_path) -> None:
    _run_trials(_modulo_trial, config, out_path)


# -- L2-style moment experiment ------------------------------------------------


def squared_rep_table(modulus: int) -> FunctionTable:
    group = make_group([modulus])
    return FunctionTable.from_function(
        group, lambda x: float(signed_representative(x[0], modulus)) ** 2
    )


def _l2_trial(args) -> list[list[list]]:
    """One trial seed over every workload: the rows of each workload, in workload order."""
    workloads, schemes, modulus, trial, seed = args
    streams = [gen_stream(spec) for spec in workloads]
    group = make_group([modulus])
    towers = _fourier_towers(streams, schemes, group, seed)
    ftable = squared_rep_table(modulus)
    struth = dft(group, ftable)
    out = []
    for spec, (vs, ys, truth), sketches in zip(workloads, streams, towers):
        exact = truth.moment_mod(modulus, ftable)
        rows: list[list] = []
        for scheme in schemes:
            if scheme.kind == "fourier":
                rep = estimate_f(sketches[scheme.m], struth, **_fourier_opts(scheme))
                est, imag = rep.estimate, rep.imag_residual
            else:
                sampler = _sampler_for(scheme, group, seed)
                sampler.update_batch(vs, ys)
                try:
                    est = sample_f_moment(sampler, ftable)
                except (NoSamplesError, SaturatedError):
                    est = math.nan
                imag = 0.0
            rows.append([spec.name, scheme.label(), "l2", trial, seed, _fmt(est), _fmt(imag), _fmt(exact)])
        out.append(rows)
    return out


def run_l2_experiment(config: ExperimentConfig, out_path, modulus: int | None = None) -> None:
    """The L2 moment over Z_{config.p}; ``modulus``, if given, must equal ``config.p``."""
    if modulus is not None and modulus != config.p:
        raise SchemaError(f"modulus {modulus!r} differs from the config's p = {config.p}")
    _run_trials(_l2_trial, config, out_path)


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


def _union_trial(args) -> list[list[list]]:
    """One trial seed of the union workload under its one fourier scheme."""
    (wl,), (scheme,), p, trial, seed = args
    tower = _fourier_towers([wl.stream()], [scheme], make_group([p, p]), seed)[0][scheme.m]
    rep = estimate_f(tower, _support_spectrum(tower.group), **_fourier_opts(scheme))
    return [[[wl.name, "fourier", "union", trial, seed, _fmt(rep.estimate),
              _fmt(rep.imag_residual), _fmt(wl.union_size)]]]


def run_union_experiment(
    wl: UnionWorkload, m: int, trials: int, base_seed: int, out_path,
    clamp_nonnegative: bool = False, literal_truncation: bool = False,
) -> None:
    scheme = SchemeSpec(
        "fourier", m, clamp_nonnegative=clamp_nonnegative, literal_truncation=literal_truncation
    )
    config = ExperimentConfig("union", (wl,), (scheme,), trials, base_seed, p=wl.p)
    _run_trials(_union_trial, config, out_path)


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
    """Per-(workload, scheme, quantity) mean/std/bias/RMSE against truth."""
    rows = read_rows(path)
    groups: dict[tuple[str, str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["workload"], row["scheme"], row["quantity"]), []).append(row)
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

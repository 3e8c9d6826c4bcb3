"""Batch experiment runner: seeded trials, scheme comparison, CSV emission.

Trials are embarrassingly parallel (trial t uses seed base_seed + t) and the
CSV is written in deterministic trial order regardless of completion order,
so identical configs produce byte-identical output.  ``HSKETCH_THREADS``
caps worker processes; 1 disables multiprocessing.

A modulo experiment's tasks are its trial seeds, each over every workload.
Its towers all take the trial's seed, so workloads that stream the same ids
share one Poisson ingest (``tower._update_shared``): the counts are drawn
once and only the values differ.  The CSV keeps the workload-major order.
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
from .estimator import (
    estimate_f,
    estimate_modulo,
    estimate_support,
    estimate_union,
)
from .groups import FunctionTable, GroupDescriptor, _read_csv, _write_csv, dft, make_group
from .sampler import SamplerSketch, _tally, equal_memory_m_prime, sample_f_moment
from .tower import IntegerTowerSketch, SketchConfig, TowerSketch, _update_shared, default_window
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

    def label(self) -> str:
        if self.kind == "fourier":
            return "fourier"
        if self.kind == "ideal-oracle":
            return "ideal-oracle"
        if self.kind == "fingerprint":
            return f"fingerprint-r{self.r}"
        raise SchemaError(f"unknown scheme kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    workloads: tuple[WorkloadSpec, ...]
    schemes: tuple[SchemeSpec, ...]
    trials: int
    base_seed: int
    p: int = 7

    def __post_init__(self):
        if self.trials < 1:
            raise SchemaError("trials must be >= 1")


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


def _run_trials(trial_fn: Callable, args: list, out_path) -> None:
    """Run every trial (in worker processes when allowed) and write the rows in trial order."""
    results = _map_trials(trial_fn, args)
    write_rows(out_path, [row for rows in results for row in rows])


def _sampler_for(scheme: SchemeSpec, group: GroupDescriptor, seed: int) -> SamplerSketch:
    """The baseline sampler of a non-fourier scheme at the tower's memory budget."""
    if scheme.kind == "ideal-oracle":
        return SamplerSketch(group, 3 * scheme.m, seed, r=scheme.r, mode="ideal")
    m_prime = equal_memory_m_prime(scheme.m, scheme.r, group)
    return SamplerSketch(group, m_prime, seed, r=scheme.r, mode="fingerprint")


# -- modulo-distribution experiment -------------------------------------------


def _modulo_towers(streams: list, schemes: Sequence[SchemeSpec], seed: int) -> list[dict]:
    """One Poisson integer tower per (workload, fourier m), keyed by m.

    Workloads whose id arrays are equal (``gen_stream`` ids are int64, so
    equal bytes) share one ingest per m: their towers have one config, so
    they draw the same counts.
    """
    groups: dict[bytes, list[int]] = {}  # workload indices by id array
    for i, (vs, _, _) in enumerate(streams):
        groups.setdefault(vs.tobytes(), []).append(i)
    towers: list[dict] = [{} for _ in streams]
    for m in dict.fromkeys(s.m for s in schemes if s.kind == "fourier"):
        a, b = default_window(m)
        cfg = SketchConfig(None, m, a, b, seed, "poisson")
        for group in groups.values():
            sketches = [IntegerTowerSketch(cfg) for _ in group]
            _update_shared(sketches, streams[group[0]][0], [streams[i][1] for i in group])
            for i, sk in zip(group, sketches):
                towers[i][m] = sk
    return towers


def _modulo_estimates(scheme: SchemeSpec, tower, vs, ys, group: GroupDescriptor, seed: int) -> list:
    """(estimate, imaginary residual) of lambda_0 .. lambda_{p-1} under one scheme."""
    p = group.orders[0]
    if scheme.kind == "fourier":
        opts = dict(clamp_nonnegative=scheme.clamp_nonnegative, literal=scheme.literal_truncation)
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
    tally = _tally(values[codes == 1])
    total = sum(tally.values())
    if total == 0 or math.isnan(lam0):
        return [(lam0, 0.0)] + [(math.nan, 0.0)] * (p - 1)
    return [(lam0, 0.0)] + [(lam0 * tally.get((j,), 0) / total, 0.0) for j in range(1, p)]


def _modulo_trial(args) -> list[list[list]]:
    """One trial seed over every workload: the rows of each workload, in workload order."""
    workloads, schemes, p, trial, seed = args
    labels = [scheme.label() for scheme in schemes]
    streams = [gen_stream(spec) for spec in workloads]
    towers = _modulo_towers(streams, schemes, seed)
    group = make_group([p])
    out = []
    for spec, (vs, ys, truth), sketches in zip(workloads, streams, towers):
        residues = truth.residue_counts(p)
        truths = [truth.support_size_mod(p)] + [residues[j] for j in range(1, p)]
        rows: list[list] = []
        for scheme, label in zip(schemes, labels):
            tower = sketches[scheme.m] if scheme.kind == "fourier" else None
            estimates = _modulo_estimates(scheme, tower, vs, ys, group, seed)
            rows += [
                [spec.name, label, f"lambda{j}", trial, seed, _fmt(est), _fmt(imag), _fmt(tr)]
                for j, ((est, imag), tr) in enumerate(zip(estimates, truths))
            ]
        out.append(rows)
    return out


def run_modulo_experiment(config: ExperimentConfig, out_path) -> None:
    """One task per trial seed; the CSV lists workloads in order, each in trial order."""
    args = [
        (config.workloads, config.schemes, config.p, trial, config.base_seed + trial)
        for trial in range(config.trials)
    ]
    results = _map_trials(_modulo_trial, args)  # per trial, the rows of each workload
    write_rows(out_path, [row for w in range(len(config.workloads)) for per in results for row in per[w]])


# -- L2-style moment experiment ------------------------------------------------


def squared_rep_table(modulus: int) -> FunctionTable:
    group = make_group([modulus])
    return FunctionTable.from_function(
        group, lambda x: float(signed_representative(x[0], modulus)) ** 2
    )


def _l2_trial(args) -> list[list]:
    spec, schemes, modulus, trial, seed = args
    vs, ys, truth = gen_stream(spec)
    group = make_group([modulus])
    ftable = squared_rep_table(modulus)
    struth = dft(group, ftable)
    exact = truth.moment_mod(modulus, ftable)
    rows: list[list] = []
    for scheme in schemes:
        label = scheme.label()
        if scheme.kind == "fourier":
            a, b = default_window(scheme.m)
            sk = TowerSketch(SketchConfig(group, scheme.m, a, b, seed, "poisson"))
            sk.update_batch(vs, ys)
            rep = estimate_f(
                sk, struth, clamp_nonnegative=scheme.clamp_nonnegative,
                literal=scheme.literal_truncation,
            )
            est, imag = rep.estimate, rep.imag_residual
        else:
            sampler = _sampler_for(scheme, group, seed)
            sampler.update_batch(vs, ys)
            try:
                est = sample_f_moment(sampler, ftable)
            except (NoSamplesError, SaturatedError):
                est = math.nan
            imag = 0.0
        rows.append([spec.name, label, "l2", trial, seed, _fmt(est), _fmt(imag), _fmt(exact)])
    return rows


def run_l2_experiment(config: ExperimentConfig, out_path, modulus: int = 128) -> None:
    args = [
        (spec, config.schemes, modulus, trial, config.base_seed + trial)
        for spec in config.workloads
        for trial in range(config.trials)
    ]
    _run_trials(_l2_trial, args, out_path)


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

    def streams(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(ids1, values1, ids2, values2); values are nonzero residues."""
        n1 = self.only_first + self.overlap
        ids1 = np.arange(n1, dtype=np.int64)
        ids2 = np.arange(self.only_first, self.union_size, dtype=np.int64)

        def values(ids, salt):
            u = prf.draw(prf.stream_state(self.shuffle_seed, prf.DOMAIN_VALUE, ids), prf.tuple_key(j=salt))
            return 1 + (u % np.uint64(self.p - 1)).astype(np.int64)

        return ids1, values(ids1, 11), ids2, values(ids2, 12)


def _union_trial(args) -> list[list]:
    wl, m, trial, seed, clamp, literal = args
    group = make_group([wl.p])
    a, b = default_window(m)
    ids1, y1, ids2, y2 = wl.streams()
    s1 = TowerSketch(SketchConfig(group, m, a, b, seed, "poisson"))
    s2 = TowerSketch(SketchConfig(group, m, a, b, seed, "poisson"))
    s1.update_batch(ids1, y1)
    s2.update_batch(ids2, y2)
    rep = estimate_union(s1, s2, clamp_nonnegative=clamp, literal=literal)
    return [
        [wl.name, "fourier", "union", trial, seed, _fmt(rep.estimate),
         _fmt(rep.imag_residual), _fmt(wl.union_size)]
    ]


def run_union_experiment(
    wl: UnionWorkload, m: int, trials: int, base_seed: int, out_path,
    clamp_nonnegative: bool = False, literal_truncation: bool = False,
) -> None:
    args = [
        (wl, m, trial, base_seed + trial, clamp_nonnegative, literal_truncation)
        for trial in range(trials)
    ]
    _run_trials(_union_trial, args, out_path)


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

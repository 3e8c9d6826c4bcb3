"""montecarlo: the paper's equal-memory comparison, run as a batch job.

One round is ``run_modulo_experiment`` (three modulo7 workloads, all seven
schemes) followed by ``run_l2_experiment`` (Z_128, fourier and
fingerprint-r2), each through the package's process pool with a fixed worker
count.  Every round forks fresh workers from a parent that has never ingested,
so each worker pays its own Poisson-CDF warm-up, as every ``hsketch modulo7``
run does.

The traced phase replays one round in-process on one worker, split into the
public calls each trial makes; that replay is also the single-threaded
baseline the pool efficiency is measured against.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hsketch import (
    IntegerTowerSketch,
    SamplerSketch,
    SaturatedError,
    SketchConfig,
    TowerSketch,
    WorkloadSpec,
    column_aggregates,
    default_window,
    dft,
    equal_memory_m_prime,
    estimate_f,
    gen_stream,
    make_group,
    modulo_spectrum,
    sketch_new,
    tau_gra_estimate,
)
from hsketch.experiments import (
    ExperimentConfig,
    SchemeSpec,
    read_rows,
    run_l2_experiment,
    run_modulo_experiment,
    squared_rep_table,
    write_rows,
)
from hsketch.workloads import uniform_mod_workload

from common import Checks, Sizes, Tracer, mean, percentile
from ingest_stream import prf_probe

NAME = "montecarlo"
WORKERS = max(1, min(2, os.cpu_count() or 1))
SETUPS = 5  # set-ups per run, this process included; the median is setup_s
L2_MODULUS = 128
TRIALS = 2  # trials per workload in one round


@dataclass
class State:
    m: int
    modulo: ExperimentConfig
    l2: ExperimentConfig
    out_dir: Path | None = None

    @property
    def trials_per_round(self) -> int:
        return (len(self.modulo.workloads) + len(self.l2.workloads)) * self.modulo.trials


def setup(seed: int, sizes: Sizes, tr: Tracer | None = None) -> State:
    """Experiment configurations only: streams are generated inside every trial."""
    tr = tr or Tracer()
    m, n = sizes.m, sizes.mc_support
    universe = 1 << 20
    with tr.span("setup"):
        workloads = (
            uniform_mod_workload("x1", n, 7, universe, shuffle_seed=seed),
            uniform_mod_workload("x2", n, 7, universe, shuffle_seed=seed, residues=(1, 3, 4)),
            WorkloadSpec("x3", {3: n}, universe, shuffle_seed=seed),
        )
        schemes = [SchemeSpec("ideal-oracle", m)]
        schemes += [SchemeSpec("fingerprint", m, r=r) for r in range(2, 7)]
        schemes.append(SchemeSpec("fourier", m))
        modulo = ExperimentConfig(
            "modulo7", workloads, tuple(schemes), trials=TRIALS, base_seed=seed, p=7
        )
        l2_spec = WorkloadSpec("l2", {1: n - n // 100, 64: n // 100}, universe, shuffle_seed=seed)
        l2 = ExperimentConfig(
            "l2", (l2_spec,), (SchemeSpec("fourier", m), SchemeSpec("fingerprint", m, r=2)),
            trials=TRIALS, base_seed=seed, p=L2_MODULUS,
        )
    return State(m, modulo, l2)


def _round(st: State, tag: str, workers: int) -> tuple[float, tuple[Path, Path]]:
    """One modulo7 + l2 experiment pair with ``workers`` processes; returns (ms, csv paths)."""
    os.environ["HSKETCH_THREADS"] = str(workers)
    paths = (st.out_dir / f"modulo7-{tag}.csv", st.out_dir / f"l2-{tag}.csv")
    t0 = time.perf_counter()
    run_modulo_experiment(st.modulo, paths[0])
    run_l2_experiment(st.l2, paths[1], modulus=L2_MODULUS)
    return (time.perf_counter() - t0) * 1e3, paths


def _pool_rounds(st: State, seconds: float | None) -> dict:
    """Pool rounds until ``seconds`` have passed (at least one), or exactly one when None."""
    rounds_ms, csvs, failed, errors = [], set(), 0, []
    start = time.perf_counter()
    while True:
        try:
            ms, paths = _round(st, f"pool{len(rounds_ms)}", WORKERS)
            csvs.add(tuple(p.read_bytes() for p in paths))
        except Exception as exc:  # a failed round fails all of its trials
            failed += 1
            errors.append(repr(exc))
            ms = (time.perf_counter() - start) * 1e3 - sum(rounds_ms)
        rounds_ms.append(ms)
        if seconds is None or time.perf_counter() - start >= seconds:
            break
    n = st.trials_per_round
    return {
        "ops": len(rounds_ms) * n, "failed_ops": failed * n, "errors": errors[:3],
        "rounds_ms": rounds_ms, "pool_csvs": csvs, "wall_s": sum(rounds_ms) / 1e3,
        "work": (len(rounds_ms) - failed) * n,
    }


def run(st: State, seconds: float) -> dict:
    res = _pool_rounds(st, seconds)
    res["latencies_ms"] = res["rounds_ms"]
    return res


def _replay_in_process(st: State) -> tuple[float, tuple[bytes, bytes]]:
    ms, paths = _round(st, "replay", 1)
    return ms, tuple(p.read_bytes() for p in paths)


# -- traced replay: each trial split into the public calls it makes -------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _sampler(tr: Tracer, scheme: SchemeSpec, group, seed: int, vs, values) -> SamplerSketch:
    """A sampler at the scheme's matched memory, fed the trial's stream."""
    ideal = scheme.kind == "ideal-oracle"
    m_prime = 3 * scheme.m if ideal else equal_memory_m_prime(scheme.m, scheme.r, group)
    mode = "ideal" if ideal else "fingerprint"
    with tr.span("sampler.new"):
        sampler = SamplerSketch(group, m_prime, seed, r=scheme.r, mode=mode)
    with tr.span(f"sampler.update_batch.{mode}", n=len(vs)):
        sampler.update_batch(vs, values)
    return sampler


def _support(tr: Tracer, sampler: SamplerSketch) -> float:
    """sampler.estimate_support(), NaN when saturated."""
    with tr.span("sampler.classify_levels"):
        codes, _ = sampler.classify_levels()
    with tr.span("sampler.tau_gra_estimate"):
        try:
            return tau_gra_estimate(np.nonzero(codes == 0)[0], sampler.m_prime)
        except SaturatedError:
            return math.nan


def _modulo_trial(tr: Tracer, spec, schemes, p: int, trial: int, seed: int, probes: list) -> list:
    with tr.span("workloads.gen_stream", n=spec.support_size):
        vs, ys, truth = gen_stream(spec)
    support_mod = truth.support_size_mod(p)
    residue_truth = truth.residue_counts(p)
    group = make_group([p])
    rows = []
    for scheme in schemes:
        estimates = {}
        if scheme.kind == "fourier":
            lit, clamp = scheme.literal_truncation, scheme.clamp_nonnegative
            a, b = default_window(scheme.m)
            with tr.span("tower.sketch_new"):
                sk = IntegerTowerSketch(SketchConfig(None, scheme.m, a, b, seed, "poisson"))
            with tr.span("tower.update_batch.poisson", n=len(vs)):
                sk.update_batch(vs, ys)
            probes.append((seed, vs, a, b))
            with tr.span("tower.reduce_values_mod"):
                reduced = sk.reduce_values_mod(p)
            with tr.span("estimator.column_aggregates", n=p):
                agg = column_aggregates(reduced, literal=lit)
            with tr.span("estimator.estimate_f"):
                rep = estimate_f(agg, modulo_spectrum(p, 0), literal=lit)
            est = max(0.0, -rep.estimate) if clamp else -rep.estimate
            estimates[0] = (est, rep.imag_residual)
            for j in range(1, p):
                with tr.span("estimator.estimate_f"):
                    rep = estimate_f(agg, modulo_spectrum(p, j), clamp_nonnegative=clamp, literal=lit)
                estimates[j] = (rep.estimate, rep.imag_residual)
        else:
            sampler = _sampler(tr, scheme, group, seed, vs, np.mod(ys, p))
            lam0 = _support(tr, sampler)
            estimates[0] = (lam0, 0.0)
            with tr.span("sampler.classify_levels"):
                codes, values = sampler.classify_levels()
            with tr.span("sampler.singleton_tally"):
                tally: dict = {}
                for row in values[codes == 1]:
                    key = tuple(int(x) for x in row)
                    tally[key] = tally.get(key, 0) + 1
            total = sum(tally.values())
            for j in range(1, p):
                if total == 0 or math.isnan(lam0):
                    estimates[j] = (math.nan, 0.0)
                else:
                    estimates[j] = (lam0 * tally.get((j,), 0) / total, 0.0)
        for j in range(p):
            est, imag = estimates[j]
            tr_j = support_mod if j == 0 else residue_truth[j]
            rows.append([spec.name, scheme.label(), f"lambda{j}", trial, seed,
                         _fmt(est), _fmt(imag), _fmt(tr_j)])
    return rows


def _l2_trial(tr: Tracer, spec, schemes, modulus: int, trial: int, seed: int, probes: list) -> list:
    with tr.span("workloads.gen_stream", n=spec.support_size):
        vs, ys, truth = gen_stream(spec)
    group = make_group([modulus])
    with tr.span("experiments.squared_rep_table"):
        ftable = squared_rep_table(modulus)
    with tr.span("groups.dft", n=group.total_size):
        struth = dft(group, ftable)
    with tr.span("workloads.moment_mod"):
        exact = truth.moment_mod(modulus, ftable)
    values = np.mod(ys, modulus)
    rows = []
    for scheme in schemes:
        if scheme.kind == "fourier":
            a, b = default_window(scheme.m)
            with tr.span("tower.sketch_new"):
                sk = TowerSketch(SketchConfig(group, scheme.m, a, b, seed, "poisson"))
            with tr.span("tower.update_batch.poisson", n=len(vs)):
                sk.update_batch(vs, values)
            probes.append((seed, vs, a, b))
            with tr.span("estimator.column_aggregates", n=modulus):
                agg = column_aggregates(sk, literal=scheme.literal_truncation)
            with tr.span("estimator.estimate_f"):
                rep = estimate_f(
                    agg, struth, clamp_nonnegative=scheme.clamp_nonnegative,
                    literal=scheme.literal_truncation,
                )
            est, imag = rep.estimate, rep.imag_residual
        else:
            # sample_f_moment: singleton values, then the support estimate
            sampler = _sampler(tr, scheme, group, seed, vs, values)
            with tr.span("sampler.classify_levels"):
                codes, levels = sampler.classify_levels()
            singles = levels[codes == 1]
            est = math.nan
            if singles.shape[0]:
                lam0 = _support(tr, sampler)
                if not math.isnan(lam0):
                    idx = singles @ np.array(group.index_weights, dtype=np.int64)
                    est = lam0 * float(np.mean(ftable.values[idx].real))
            imag = 0.0
        rows.append([spec.name, scheme.label(), "l2", trial, seed, _fmt(est), _fmt(imag), _fmt(exact)])
    return rows


def _traced_replay(st: State, tr: Tracer) -> tuple[bytes, bytes]:
    """One round in-process under one root span; the PRF probes run after it, outside."""
    jobs = [(st.modulo, _modulo_trial, st.modulo.p, "modulo7-traced.csv"),
            (st.l2, _l2_trial, L2_MODULUS, "l2-traced.csv")]
    probes: list = []
    with tr.span("experiments.round"):
        for config, trial_fn, p, fname in jobs:
            rows = []
            for spec in config.workloads:
                for trial in range(config.trials):
                    with tr.span("experiments.trial"):
                        rows += trial_fn(tr, spec, config.schemes, p, trial, config.base_seed + trial, probes)
            with tr.span("experiments.write_rows"):
                write_rows(st.out_dir / fname, rows)
    for seed, vs, a, b in probes:
        with tr.span("prf.draw.probe", n=len(vs)):
            prf_probe(seed, vs, a, b)
    return tuple((st.out_dir / fname).read_bytes() for *_, fname in jobs)


def worker_warmup_ms(m: int) -> float:
    """First Poisson update_batch of a fresh process minus the same call once warm."""
    a, b = default_window(m)
    cfg = SketchConfig(None, m, a, b, 0, "poisson")
    times = []
    for _ in range(2):
        sk = sketch_new(cfg)
        t0 = time.perf_counter()
        sk.update_batch([0], [1])
        times.append((time.perf_counter() - t0) * 1e3)
    return times[0] - times[1]


def run_traced(st: State, seconds: float, requests: int | None, tr: Tracer) -> dict:
    """Pool rounds, the warm-up probe, then in-process rounds: untraced and traced alternately.

    The pool goes first, while this process has never ingested, so that forked
    workers start cold.  A full phase runs two untraced/traced pairs of
    in-process rounds; a brief phase (``requests`` given) runs one pool round
    and one traced round.
    """
    res = _pool_rounds(st, None if requests is not None else seconds / 3)
    res["warmup_ms"] = worker_warmup_ms(st.m)
    plain, replays, traced = [], [], []
    for _ in range(1 if requests is not None else 2):
        if requests is None:
            ms, csvs = _replay_in_process(st)
            plain.append(ms)
            replays.append(csvs)
        os.environ["HSKETCH_THREADS"] = "1"
        traced.append(_traced_replay(st, tr))
    res["plain_ms"] = plain
    res["traced_ms"] = tr.durations_ms("experiments.round")
    res["request_root"] = "experiments.round"
    res["traced_csvs"] = traced
    if replays:
        res["replay_csvs"] = replays
    return res


def check(st: State, seed: int, res: dict, checks: Checks) -> None:
    pool = res["pool_csvs"]
    checks.add("montecarlo.pool_rounds_identical", len(pool) == 1, f"{len(pool)} distinct CSV pairs")
    replays = {k: res[k] for k in ("replay_csvs", "traced_csvs") if k in res}
    if not replays:
        replays["replay_csvs"] = [_replay_in_process(st)[1]]
    for how, runs in replays.items():
        for i, name in enumerate(("modulo7", "l2")):
            checks.add(
                f"montecarlo.{name}_pool_csv_equals_{how}",
                bool(pool) and all(csvs[i] == r[i] for csvs in pool for r in runs),
                f"pool CSV byte-identical to {len(runs)} in-process "
                + ("traced " if how == "traced_csvs" else "") + "replay(s)",
            )
    first = next(iter(replays.values()))[0]
    for i, name in enumerate(("modulo7", "l2")):
        path = st.out_dir / f"{name}-check.csv"
        path.write_bytes(first[i])
        try:
            rows = read_rows(path)
            checks.add(f"montecarlo.{name}_csv_parses", len(rows) > 0, f"{len(rows)} rows")
        except Exception as exc:
            checks.add(f"montecarlo.{name}_csv_parses", False, repr(exc))


def saturated_frac(csv_bytes: tuple[bytes, bytes], out_dir: Path) -> tuple[float, int]:
    """NaN sampler estimates over sampler estimates, across both experiments."""
    total = nan = 0
    for i, data in enumerate(csv_bytes):
        path = out_dir / f"saturation-{i}.csv"
        path.write_bytes(data)
        for row in read_rows(path):
            if row["scheme"] != "fourier":
                total += 1
                nan += math.isnan(row["estimate"])
    return (nan / total if total else math.nan), total


def layer_metrics(st: State, res: dict, tr: Tracer) -> dict:
    """Per-layer metrics whose home is this workload: (value, unit, samples)."""
    root = "experiments.round"
    bulk = [(s[2] - s[1]) * 1e6 / s[5] for s in tr.spans_named("tower.update_batch.poisson")]
    trials = tr.durations_ms("experiments.trial")
    probe = tr.durations_ms("prf.draw.probe")
    frac, n_sampler = saturated_frac(res["traced_csvs"][0], st.out_dir)
    pool_ms = percentile(res["rounds_ms"], 50)
    rounds = len(res["traced_csvs"])
    return {
        "tower.update_batch.per_update_us": (percentile(bulk, 50), "us", f"p50 of {len(bulk)} bulk calls / n"),
        "prf.draw.probe_ms": (percentile(probe, 50), "ms", f"p50 of {len(probe)} probes"),
        "workloads.gen_stream.ms": _p50(tr.durations_ms("workloads.gen_stream", root=root), "ms"),
        "sampler.update_batch.fingerprint_ms": _p50(tr.durations_ms("sampler.update_batch.fingerprint"), "ms"),
        "sampler.update_batch.ideal_ms": _p50(tr.durations_ms("sampler.update_batch.ideal"), "ms"),
        "sampler.classify_levels.ms": _p50(tr.durations_ms("sampler.classify_levels"), "ms"),
        "sampler.saturated_frac": (frac, "ratio", f"over {n_sampler} sampler estimates"),
        "experiments.trial.ms": _p50(trials, "ms"),
        "experiments.pool.efficiency": (
            sum(trials) / rounds / (pool_ms * WORKERS), "ratio",
            f"in-process trial time per round ({sum(trials) / rounds:.0f} ms, {rounds} rounds) / "
            f"(p50 of {len(res['rounds_ms'])} pool rounds x {WORKERS} workers)",
        ),
        "experiments.worker_warmup_ms": (res["warmup_ms"], "ms", "1 cold minus 1 warm single-update call"),
        "experiments.write_rows.ms": _p50(tr.durations_ms("experiments.write_rows"), "ms"),
    }


def _p50(values: list[float], unit: str) -> tuple[float, str, str]:
    return percentile(values, 50), unit, f"p50 of {len(values)} calls (mean {mean(values):.3f})"

"""Command-line harness for the desk-scale benchmark experiments."""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .estimator import (
    column_aggregates,
    estimate_modulo,
    estimate_support,
    predict_variance,
    rhat_from_pmf,
)
from .experiments import (
    ExperimentConfig,
    SchemeSpec,
    UnionWorkload,
    format_summary,
    run_l2_experiment,
    run_modulo_experiment,
    run_union_experiment,
    summarize,
)
from .groups import SpectrumTable, make_group
from .tower import IntegerTowerSketch, SketchConfig, default_window
from .workloads import WorkloadSpec, gen_stream, uniform_mod_workload

MODULO7_COUNTS = {1: 300, 2: 500, 3: 100, 4: 50, 5: 25, 6: 25}
# estimator switches; each command registers only the ones it reads
_ESTIMATE_FLAGS = {
    "--clamp-nonnegative": "report max(0, estimate) for occurrence counts",
    "--literal-truncation": "keep the raw truncation term at the trivial character",
}


def _modulo7_workloads(seed: int) -> tuple[WorkloadSpec, ...]:
    universe = 1 << 20
    x1 = uniform_mod_workload("x1", 10000, 7, universe, shuffle_seed=seed)
    x2 = uniform_mod_workload("x2", 10000, 7, universe, shuffle_seed=seed, residues=(1, 3, 4))
    x3 = WorkloadSpec("x3", {3: 10000}, universe, shuffle_seed=seed)
    return x1, x2, x3


def _fingerprint_schemes(m: int, clamp: bool, literal: bool) -> list[SchemeSpec]:
    schemes = [SchemeSpec("ideal-oracle", m)]
    schemes += [SchemeSpec("fingerprint", m, r=r) for r in range(2, 7)]
    schemes.append(
        SchemeSpec("fourier", m, clamp_nonnegative=clamp, literal_truncation=literal)
    )
    return schemes


def _report(out) -> int:
    """Print the summary of an experiment CSV, then where it was written."""
    print(format_summary(summarize(out)))
    print(f"\nwrote {out}")
    return 0


def cmd_sanity_table(args) -> int:
    p = 7
    counts = dict(MODULO7_COUNTS)
    counts[p] = args.zero_mod  # integer values = p, invisible mod p
    spec = WorkloadSpec("sanity", counts, universe=1 << 21, shuffle_seed=args.seed)
    vs, ys, truth = gen_stream(spec)
    lam = truth.support_size_mod(p)
    residue_truth = truth.residue_counts(p)
    a, b = default_window(args.m)
    print(f"p={p} m={args.m} support(mod {p})={lam} zero-mod elements={args.zero_mod}")
    header = f"{'quantity':<8} {'truth':>6} " + " ".join(
        f"{'run ' + str(t + 1):>12}" for t in range(args.trials)
    )
    print(header)
    runs = []
    for t in range(args.trials):
        sk = IntegerTowerSketch(SketchConfig(None, args.m, a, b, args.seed + t, "poisson"))
        sk.update_batch(vs, ys)
        agg = column_aggregates(sk.reduce_values_mod(p), literal=args.literal_truncation)
        runs.append([estimate_modulo(agg, p, j, literal=args.literal_truncation) for j in range(p)])
    for j in range(p):
        truth_j = residue_truth[0] if j == 0 else residue_truth[j]
        vals = " ".join(f"{runs[t][j].estimate:>12.2f}" for t in range(args.trials))
        label = f"psi_{j}"
        print(f"{label:<8} {truth_j:>6} {vals}")
    sup = " ".join(f"{-runs[t][0].estimate:>12.2f}" for t in range(args.trials))
    print(f"{'-psi_0':<8} {lam:>6} {sup}")
    return 0


def cmd_modulo7(args) -> int:
    schemes = _fingerprint_schemes(args.m, args.clamp_nonnegative, args.literal_truncation)
    if args.scheme:
        schemes = [s for s in schemes if s.label() in args.scheme]
        if not schemes:
            print(f"no schemes match {args.scheme}", file=sys.stderr)
            return 2
    config = ExperimentConfig(
        "modulo7",
        _modulo7_workloads(args.seed),
        tuple(schemes),
        trials=args.trials,
        base_seed=args.seed,
        p=7,
    )
    run_modulo_experiment(config, args.out)
    return _report(args.out)


def cmd_l2(args) -> int:
    spec = WorkloadSpec("l2", {1: 9900, 64: 100}, universe=1 << 20, shuffle_seed=args.seed)
    schemes = [
        SchemeSpec("fourier", args.m, clamp_nonnegative=args.clamp_nonnegative,
                   literal_truncation=args.literal_truncation),
        SchemeSpec("fingerprint", args.m, r=2),
    ]
    if args.scheme:
        schemes = [s for s in schemes if s.label() in args.scheme]
    config = ExperimentConfig(
        "l2", (spec,), tuple(schemes), trials=args.trials, base_seed=args.seed, p=128
    )
    run_l2_experiment(config, args.out, modulus=128)
    return _report(args.out)


def cmd_union(args) -> int:
    wl = UnionWorkload(
        "union600", only_first=args.only_first, only_second=args.only_second,
        overlap=args.overlap, p=7, shuffle_seed=args.seed,
    )
    run_union_experiment(
        wl, args.m, args.trials, args.seed, args.out,
        clamp_nonnegative=args.clamp_nonnegative,
        literal_truncation=args.literal_truncation,
    )
    return _report(args.out)


def cmd_variance_check(args) -> int:
    p = 7
    spec = uniform_mod_workload("varcheck", args.support, p, 1 << 20, shuffle_seed=args.seed)
    vs, ys, truth = gen_stream(spec)
    lam = truth.support_size_mod(p)
    group = make_group([p])
    pmf = {j: c / lam for j, c in truth.residue_counts(p).items() if j != 0 and c}
    rhat = rhat_from_pmf(group, pmf)
    support_spectrum = SpectrumTable(
        group, np.array([p - 1.0] + [-1.0] * (p - 1), dtype=complex)
    )
    predicted = predict_variance(support_spectrum, rhat, lam, args.m)
    a, b = default_window(args.m)
    ests = []
    for t in range(args.trials):
        sk = IntegerTowerSketch(SketchConfig(None, args.m, a, b, args.seed + t, "poisson"))
        sk.update_batch(vs, ys)
        ests.append(estimate_support(sk, p).estimate)
    emp = float(np.var(np.array(ests), ddof=1))
    print(f"support={lam} m={args.m} trials={args.trials}")
    print(f"predicted variance: {predicted:.1f} (rel std {math.sqrt(predicted)/lam:.4f})")
    print(f"empirical variance: {emp:.1f} (rel std {math.sqrt(emp)/lam:.4f})")
    print(f"ratio empirical/predicted: {emp/predicted:.3f}")
    return 0


def cmd_bench(args) -> int:
    p = 7
    spec = uniform_mod_workload("bench", args.support, p, 1 << 22, shuffle_seed=args.seed)
    vs, ys, _ = gen_stream(spec)
    a, b = default_window(args.m)
    t0 = time.perf_counter()
    sk = IntegerTowerSketch(SketchConfig(None, args.m, a, b, args.seed, "poisson"))
    sk.update_batch(vs, ys)
    t1 = time.perf_counter()
    agg = column_aggregates(sk.reduce_values_mod(p))
    rep = estimate_support(agg, p)
    t2 = time.perf_counter()
    print(f"m={args.m} cells={3*(b-a)} updates={len(vs)}")
    print(f"ingest: {t1-t0:.3f}s ({len(vs)/(t1-t0):.0f} updates/s)")
    print(f"estimate: {t2-t1:.4f}s  support estimate {rep.estimate:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsketch",
        description="Group-valued frequency-moment sketches: benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_, m_default: int, trials_default: int | None = None,
               out_default: str | None = None, flags: tuple[str, ...] = ()):
        p_.add_argument("--m", type=int, default=m_default, help="tower accuracy parameter")
        if trials_default is not None:
            p_.add_argument("--trials", type=int, default=trials_default)
        p_.add_argument("--seed", type=int, default=1)
        if out_default is not None:
            p_.add_argument("--out", default=out_default, help="output CSV path")
        for flag in flags:
            p_.add_argument(flag, action="store_true", help=_ESTIMATE_FLAGS[flag])

    p_sanity = sub.add_parser("sanity-table", help="print a few single runs of the mod-7 estimator")
    common(p_sanity, m_default=100, trials_default=3, flags=("--literal-truncation",))
    p_sanity.add_argument("--zero-mod", type=int, default=100000,
                          help="extra elements with value 7 (invisible mod 7)")
    p_sanity.set_defaults(fn=cmd_sanity_table)

    p_mod = sub.add_parser("modulo7", help="mod-7 distribution benchmark, all schemes")
    common(p_mod, 128, 40, "modulo7.csv", tuple(_ESTIMATE_FLAGS))
    p_mod.add_argument("--scheme", action="append",
                       help="restrict to a scheme label (repeatable)")
    p_mod.set_defaults(fn=cmd_modulo7)

    p_l2 = sub.add_parser("l2", help="sum-of-squares benchmark over Z_128")
    common(p_l2, 64, 200, "l2.csv", tuple(_ESTIMATE_FLAGS))
    p_l2.add_argument("--scheme", action="append")
    p_l2.set_defaults(fn=cmd_l2)

    p_union = sub.add_parser("union", help="two-stream union-size benchmark")
    common(p_union, 64, 200, "union.csv", tuple(_ESTIMATE_FLAGS))
    p_union.add_argument("--only-first", type=int, default=400)
    p_union.add_argument("--only-second", type=int, default=400)
    p_union.add_argument("--overlap", type=int, default=200)
    p_union.set_defaults(fn=cmd_union)

    p_var = sub.add_parser("variance-check", help="predicted vs empirical estimator variance")
    common(p_var, m_default=64, trials_default=500)
    p_var.add_argument("--support", type=int, default=10000)
    p_var.set_defaults(fn=cmd_variance_check)

    p_bench = sub.add_parser("bench", help="ingest/estimate throughput")
    common(p_bench, m_default=64)
    p_bench.add_argument("--support", type=int, default=10000)
    p_bench.set_defaults(fn=cmd_bench)

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand `--config FILE` into flags; explicit flags still win.

    The file holds one key=value pair per line (# comments allowed); keys
    match the long flag names, with `_` and `-` interchangeable.  Boolean
    flags take true/false.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise SystemExit("--config requires a file path")
    injected: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"config line {line!r} is not key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    injected.append(flag)
            else:
                injected.extend([flag, value])
    rest = argv[:idx] + argv[idx + 2 :]
    # subcommand first, then file-provided flags, then explicit flags (which win)
    if rest and not rest[0].startswith("-"):
        return [rest[0]] + injected + rest[1:]
    return injected + rest


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_apply_config_file(argv))
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Benchmark of the hsketch package: three workloads, measured end to end and per layer.

    python3 perfbench/run.py --workload ingest-stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # every workload, one table
    python3 perfbench/run.py --smoke                         # tiny sizes, untraced and traced

Run it from the root of a checkout: it imports ``hsketch`` from ``src/`` and
nothing else.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` reports its per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md here.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, so it includes the imports

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("ingest-stream", "query-refresh", "montecarlo")
CHILD_TIMEOUT_S = 170

# Workload names of each workload's end-to-end metrics:
# (throughput, throughput unit, fastest request, p50, p95 or None).
NAMED = {
    "ingest-stream": ("ingest_updates_per_s", "updates/s", "ingest_batch_min_ms",
                      "ingest_batch_p50_ms", "ingest_batch_p95_ms"),
    "query-refresh": ("query_refreshes_per_s", "refreshes/s", "query_min_ms",
                      "query_p50_ms", "query_p95_ms"),
    "montecarlo": ("mc_trials_per_s", "trials/s", "mc_round_min_ms", "mc_round_p50_ms", None),
}

# What set-up_s absorbs and what a user pays on every run, per workload.
WARMUP = {
    "ingest-stream": "setup_s absorbs stream generation, sketch construction and the Poisson-CDF "
    "warm-up (one throwaway batch); the loop starts warm, so each batch pays only its own ingest.",
    "query-refresh": "setup_s absorbs stream generation, four binomial ingests and the k-of-8 "
    "transform; every refresh pays the L2 transform, each reduction and each aggregation.",
    "montecarlo": "setup_s absorbs imports and experiment configuration only; every round forks "
    "cold workers, so each worker's Poisson-CDF warm-up stays inside mc_trials_per_s, as every "
    "hsketch modulo7 run pays it (traced run: experiments.worker_warmup_ms).",
}


def load_package() -> tuple[float, str]:
    """Import hsketch from this checkout's src/; exit without a result if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hsketch
        import numpy
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hsketch from {src}: {exc}")
    if Path(hsketch.__file__).resolve().parent != (src / "hsketch").resolve():
        sys.exit(f"perfbench: hsketch was imported from {hsketch.__file__}, not from {src}")
    return time.perf_counter() - T0, numpy.__version__


def workload_module(name: str):
    import ingest_stream
    import montecarlo
    import query_refresh

    return {m.NAME: m for m in (ingest_stream, query_refresh, montecarlo)}[name]


def contract() -> dict:
    """BENCHMARK.json of this checkout, or an empty contract when it is absent."""
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else {}


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def child(args: list[str]) -> tuple[dict, list[str]]:
    """Run this script in a fresh interpreter; returns its last-line JSON and the lines before."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(lines[-1]), lines[:-1]


def common_args(args, workload: str) -> list[str]:
    out = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    return out + (["--smoke"] if args.smoke else [])


def probe_setups(args) -> list[float]:
    """Set-up times of fresh processes; with this process's own, SETUPS samples in all."""
    return [child(["--setup-probe", *common_args(args, args.workload)])[0]["setup_s"]
            for _ in range(workload_module(args.workload).SETUPS - 1)]


def env_line(args, numpy_version: str, workers: int) -> dict:
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version,
        "workers": workers, "seed": args.seed, "seconds": args.seconds,
        "sizes": "smoke" if args.smoke else "full",
    }


def show(name: str, value: float, unit: str, how: str = "") -> None:
    print(f"  {name:<44} {value:>14.6g} {unit:<12} {how}")


def print_checks(checks) -> None:
    for name, ok, detail in checks:
        print(f"  {'PASS' if ok else 'FAIL'} {name}: {detail}")


# -- untraced run: end-to-end metrics -------------------------------------------------


def run_untraced(args, sizes, import_s: float, numpy_version: str, out_dir: Path) -> dict:
    from common import Checks, beyond, percentile

    mod = workload_module(args.workload)
    probes = probe_setups(args)
    t = time.perf_counter()
    st = mod.setup(args.seed, sizes)
    own_setup = import_s + time.perf_counter() - t
    if hasattr(st, "out_dir"):
        st.out_dir = out_dir
    res = mod.run(st, args.seconds)
    rss = peak_rss_mb()
    checks = Checks()
    mod.check(st, args.seed, res, checks)

    lat = res["latencies_ms"]
    p50, p95 = percentile(lat, 50), percentile(lat, 95)
    fastest = min(lat)
    throughput = res["work"] / res["wall_s"]
    setups = [own_setup] + probes
    setup_s = statistics.median(setups)
    attempted = res["ops"] + len(checks.results)
    failed = res["failed_ops"] + checks.failed
    tp_name, tp_unit, min_name, p50_name, p95_name = NAMED[args.workload]
    named = {
        tp_name: (throughput, tp_unit, f"{res['work']} in {res['wall_s']:.3f} s of calls"),
        min_name: (fastest, "ms", f"fastest of {len(lat)} samples"),
        p50_name: (p50, "ms", f"p50 of {len(lat)} samples"),
    }
    if p95_name:
        named[p95_name] = (p95, "ms", f"p95 of {len(lat)} samples, {beyond(lat, p95)} beyond it")
    named["setup_s"] = (setup_s, "s", "median of " + ", ".join(f"{s:.3f}" for s in setups))
    named["peak_rss_mb"] = (rss, "MB", "largest of this process and its children")
    named["failed_frac"] = (failed / attempted, "ratio", f"{failed} failed of {attempted} ops + checks")

    env = env_line(args, numpy_version, mod.WORKERS)
    print(f"== {args.workload} (untraced) ==")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, how) in named.items():
        show(name, value, unit, how)
    print("warm-up: " + WARMUP[args.workload])
    if res.get("errors"):
        print("errors: " + "; ".join(res["errors"]))
    print_checks(checks.results)
    report = {"workload": args.workload, "env": env,
              "named": {k: {"value": v, "unit": u, "samples": h} for k, (v, u, h) in named.items()}}
    print("report: " + json.dumps(report))
    metrics = {
        "latency_min_ms": (fastest, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# -- traced run: per-layer metrics ----------------------------------------------------


def run_phase(args, sizes, import_s: float, out_dir: Path) -> dict:
    """One workload traced in this process: ``full`` for --seconds, ``brief`` for a few requests."""
    from common import LAYERS, Checks, Tracer, mean, percentile

    mod = workload_module(args.workload)
    tr = Tracer()
    t = time.perf_counter()
    st = mod.setup(args.seed, sizes, tr)
    own_setup = import_s + time.perf_counter() - t
    if hasattr(st, "out_dir"):
        st.out_dir = out_dir
    full = args.phase == "full"
    res = mod.run_traced(st, args.seconds, None if full else sizes.brief_requests, tr)
    rss = peak_rss_mb()
    checks = Checks()
    mod.check(st, args.seed, res, checks)
    layers = mod.layer_metrics(st, res, tr)

    print(f"== {args.workload} (traced, {args.phase}) ==")
    print("per-layer metrics (home workload):")
    for name, (value, unit, how) in layers.items():
        show(name, value, unit, how)
    print(f"  {'span':<40} {'calls':>7} {'total ms':>11} {'self ms':>11} {'p50 ms':>9}")
    for name, calls, total, self_ms, p50 in tr.table():
        print(f"  {name:<40} {calls:>7} {total:>11.2f} {self_ms:>11.2f} {p50:>9.3f}")
    print_checks(checks.results)

    root = res["request_root"]
    by_layer = tr.layer_self_per_root(root)
    plain, traced = res.get("plain_ms", []), res["traced_ms"]
    overhead = {
        "requests_traced": len(traced), "requests_untraced": len(plain),
        "traced_mean_ms": mean(traced), "traced_p50_ms": percentile(traced, 50),
        "untraced_mean_ms": mean(plain), "untraced_p50_ms": percentile(plain, 50),
        "traced_min_ms": min(traced), "untraced_min_ms": min(plain, default=math.nan),
        "noise_ms": 2.0 * math.sqrt(sum(statistics.variance(x) / len(x) for x in (plain, traced)))
        if min(len(plain), len(traced)) > 1 else 0.0,
        "layer_self_ms": {k: v for k, v in by_layer.items() if k in LAYERS},
        "glue_ms": by_layer.get("glue", 0.0),
    }
    return {
        "workload": args.workload, "mode": args.phase, "setup_s": own_setup, "peak_rss_mb": rss,
        "ops": res["ops"], "failed_ops": res["failed_ops"], "checks": checks.results,
        "layers": {k: list(v) for k, v in layers.items()}, "overhead": overhead,
    }


def print_overhead(workload: str, ov: dict, setup_traced: float, probes: list[float]) -> None:
    """Tracing overhead per end-to-end metric, and whether layer self times add up."""
    u, t = ov["untraced_mean_ms"], ov["traced_mean_ms"]
    tp_name, _, min_name, p50_name, p95_name = NAMED[workload]
    print(f"tracing overhead on {workload} "
          f"({ov['requests_untraced']} untraced / {ov['requests_traced']} traced requests, interleaved):")
    if math.isfinite(u) and u > 0:
        show(min_name, ov["traced_min_ms"] / ov["untraced_min_ms"] - 1.0, "ratio",
             f"traced fastest {ov['traced_min_ms']:.3f} ms vs {ov['untraced_min_ms']:.3f} ms")
        show(p50_name, ov["traced_p50_ms"] / ov["untraced_p50_ms"] - 1.0, "ratio",
             f"traced p50 {ov['traced_p50_ms']:.3f} ms vs {ov['untraced_p50_ms']:.3f} ms")
        show(tp_name, u / t - 1.0, "ratio", f"mean request {t:.3f} ms traced vs {u:.3f} ms untraced")
        if p95_name:
            print(f"  {p95_name:<44} {'n/a':>14} {'':<12} the traced half is too short for a tail")
    base = statistics.median(probes)
    show("setup_s", setup_traced / base - 1.0, "ratio",
         f"traced set-up {setup_traced:.3f} s vs untraced median {base:.3f} s")
    print(f"  {'peak_rss_mb':<44} {'n/a':>14} {'':<12} spans stay in memory; both halves share a process")
    layer_sum = sum(ov["layer_self_ms"].values())
    print(f"per-request self time by layer (mean over {ov['requests_traced']} traced requests):")
    for layer, ms in sorted(ov["layer_self_ms"].items(), key=lambda kv: -kv[1]):
        share = ms / t if t else math.nan
        print(f"  {layer:<12} {ms:>12.3f} ms  {100 * share:6.2f}% of the traced request")
    print(f"  {'(glue)':<12} {ov['glue_ms']:>12.3f} ms  benchmark code between layer calls")
    if math.isfinite(u):
        gap, over, noise = abs(layer_sum - u), abs(t - u), ov["noise_ms"]
        verdict = "within" if gap <= over + noise else "OUTSIDE"
        print(f"  layers sum to {layer_sum:.3f} ms vs untraced request {u:.3f} ms: gap {gap:.3f} ms, "
              f"{verdict} the tracing overhead {over:.3f} ms (+ 2 standard errors, {noise:.3f} ms)")
        bound = next((m["bound"] for m in contract().get("end_to_end", [])
                      if m["name"] == "latency_min_ms"), None)
        if bound is not None:
            small = [k for k, v in ov["layer_self_ms"].items() if t and v / t < bound]
            if small:
                print(f"  resolution: {', '.join(sorted(small))} each take less than the latency "
                      f"bound ({bound:.0%}) of a request, so a change confined to one of them cannot "
                      f"show as a regression or gain beyond that bound")


def run_traced(args, numpy_version: str) -> dict:
    probes = probe_setups(args)
    phases = {}
    for name in WORKLOADS:
        mode = "full" if name == args.workload else "brief"
        phases[name], lines = child(["--phase", mode, *common_args(args, name)])
        print("\n".join(lines))
    mine = phases[args.workload]
    print(f"== traced run of {args.workload} ==")
    env = env_line(args, numpy_version, workload_module(args.workload).WORKERS)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print_overhead(args.workload, mine["overhead"], mine["setup_s"], probes)

    layers = {}
    for name in WORKLOADS:
        layers.update({k: tuple(v) for k, v in phases[name]["layers"].items()})
    print("per-layer metrics (each measured on its home workload):")
    for name, (value, unit, how) in layers.items():
        show(name, value, unit, how)
    attempted = sum(p["ops"] + len(p["checks"]) for p in phases.values())
    failed = sum(p["failed_ops"] + sum(1 for c in p["checks"] if not c[1]) for p in phases.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in layers.items()}}


# -- every workload from one command, and the smoke test ------------------------------


def missing_metrics(result: dict, wanted: list[dict]) -> list[str]:
    bad = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            bad.append(f"{m['name']}: {got}")
    return bad


def run_all(args) -> dict:
    spec = contract()
    traces = (0, 1) if args.smoke else (args.trace,)
    problems, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for trace in traces:
        for name in WORKLOADS:
            result, lines = child([*common_args(args, name), "--trace", str(trace)])
            print("\n".join(line for line in lines if not line.startswith("report: ")))
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                merged["metrics"][f"{name}.{k}"] = v
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: correct=false, {result['failed']} failed")
            if trace == 0:
                report = json.loads(next(line for line in lines if line.startswith("report: "))[8:])
                for k, v in report["named"].items():
                    table.append((name, k, v["value"], v["unit"], v["samples"]))
                    if not v["unit"]:
                        problems.append(f"{name}: {k} has no unit")
                wanted = spec.get("end_to_end", [])
            else:
                wanted = spec.get("per_layer", [])
            problems += [f"{name} trace={trace}: missing or bad {b}" for b in missing_metrics(result, wanted)]
    if table:
        print("== end-to-end metrics, every workload ==")
        for name, k, value, unit, how in table:
            print(f"  {name:<14} {k:<24} {value:>14.6g} {unit:<12} {how}")
    if args.smoke:
        print("smoke: " + ("PASS" if not problems else "FAIL\n  " + "\n  ".join(problems)))
        merged["correct"] &= not problems
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; with --workload all, "
                        "runs every workload untraced and traced and checks every metric is reported")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--phase", choices=("full", "brief"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_s, numpy_version = load_package()
    from common import DEFAULT_SEED, FULL, SMOKE

    sizes = SMOKE if args.smoke else FULL
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 25.0

    if args.setup_probe:
        t = time.perf_counter()
        workload_module(args.workload).setup(args.seed, sizes)
        print(json.dumps({"setup_s": import_s + time.perf_counter() - t}))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        out_dir = ROOT / ".perfbench_out" / str(os.getpid())
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            if args.phase:
                result = run_phase(args, sizes, import_s, out_dir)
            elif args.trace:
                result = run_traced(args, numpy_version)
            else:
                result = run_untraced(args, sizes, import_s, numpy_version, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            try:
                out_dir.parent.rmdir()
            except OSError:
                pass  # another run still uses it
    # Only the final result must be strict JSON; phase results may carry NaN for absent halves.
    print(json.dumps(result, allow_nan=bool(args.phase)))
    return 1 if args.smoke and args.workload == "all" and not result["correct"] else 0


if __name__ == "__main__":
    sys.exit(main())

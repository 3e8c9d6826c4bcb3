"""query-refresh: one client re-reads moments chosen at query time from fixed sketches.

Set-up builds four binomial towers at support size lambda: one with integer
registers, two over Z_7 whose supports overlap, and one over Z_2^8.  Each
request (a refresh) makes the public estimator calls a library user would
make straight on the sketches, as in README's "Library sketch":

* support mod 7 and residues 1..6 mod 7 on the integer sketch;
* the signed-square (L2) moment mod 128, transformed with ``dft`` at query time;
* ``estimate_union`` of the two Z_7 sketches;
* the number of elements with exactly 3 of 8 coordinates nonzero over Z_2^8.

Requests only read, so every refresh returns bit-identical estimates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from hsketch import (
    FunctionTable,
    SketchConfig,
    SpectrumTable,
    WorkloadSpec,
    column_aggregates,
    combine_product,
    dft,
    estimate_f,
    estimate_modulo,
    estimate_support,
    estimate_union,
    gen_stream,
    make_group,
    modulo_spectrum,
    predict_variance,
    rhat_from_pmf,
    sketch_new,
)
from hsketch.experiments import squared_rep_table

from common import Checks, Sizes, Tracer, derive_seed, percentile

NAME = "query-refresh"
WORKERS = 1
SETUPS = 3  # set-ups per run, this process included; each builds four lambda=1e6 sketches

ESTIMATES = ["support_mod7"] + [f"residue{j}_mod7" for j in range(1, 7)] + [
    "l2_mod128", "union_z7", "k_of_8"
]
QUERIES = ("support_mod7", "residues_mod7", "l2_mod128", "union_z7", "k_of_8")
# An estimate passes when it lies within this many predicted standard deviations of the truth.
SIGMA_MULTIPLE = 6.0

# Share of the integer sketch's support carried by each net value (percent):
# every residue mod 7 including 0, and values spread over the signed range mod 128.
INT_SHARES = {1: 14, 2: 14, 3: 10, 4: 10, 5: 10, 6: 10, 7: 5, -3: 6, 64: 5, 100: 6, -40: 5, 21: 5}

Z7 = make_group([7])
Z128 = make_group([128])
Z2_8 = make_group([2] * 8)


@dataclass
class State:
    m: int
    int_sketch: object
    z7a: object
    z7b: object
    z2_8: object
    l2_table: FunctionTable
    k8_spectrum: SpectrumTable
    int_truth: object
    z2_8_truth: object
    streams_z7: tuple  # (ids a, values a, ids b, values b) for the union truth


def _binomial(group, m: int, seed: int):
    a = 5 * m
    return sketch_new(SketchConfig(group, m, a, a + 22 * m, seed, "binomial"))


def _bits(values: np.ndarray) -> np.ndarray:
    """(n, 8) bit matrix of |value|; in Z_2^8 an update and its inverse add the same bits."""
    return (np.abs(values)[:, None] >> np.arange(7, -1, -1)) & 1


def setup(seed: int, sizes: Sizes, tr: Tracer | None = None) -> State:
    """Input generation, the four binomial sketches and the function tables.

    The k-of-8 transform is built here; the L2 transform is left to query time.
    One warm-up refresh ends the set-up, so the loop starts warm.
    """
    tr = tr or Tracer()
    m, lam = sizes.m, sizes.query_support
    universe = 1 << max(21, math.ceil(math.log2(3 * lam)))
    sk_seed = derive_seed(seed, 20)
    with tr.span("setup"):
        int_spec = WorkloadSpec(
            "int", {v: lam * s // 100 for v, s in INT_SHARES.items()}, universe,
            shuffle_seed=derive_seed(seed, 21), cancel_pairs=lam // 20,
        )
        with tr.span("workloads.gen_stream"):
            vs, ys, int_truth = gen_stream(int_spec)
        int_sketch = _binomial(None, m, sk_seed)
        with tr.span("tower.update_batch.binomial", n=len(vs)):
            int_sketch.update_batch(vs, ys)

        z7_counts = {r: lam // 6 for r in range(1, 7)}
        streams = []
        for salt, offset in ((22, 0), (23, lam // 2)):
            spec = WorkloadSpec(
                "z7", z7_counts, universe, shuffle_seed=derive_seed(seed, salt), cancel_pairs=lam // 20
            )
            with tr.span("workloads.gen_stream"):
                v7, y7, _ = gen_stream(spec)
            streams.append((v7 + offset, y7))
        z7a, z7b = _binomial(Z7, m, sk_seed), _binomial(Z7, m, sk_seed)
        for sk, (v7, y7) in zip((z7a, z7b), streams):
            with tr.span("tower.update_batch.binomial", n=len(v7)):
                sk.update_batch(v7, y7)

        spec8 = WorkloadSpec(
            "z2^8", {v: lam // 255 for v in range(1, 256)}, universe,
            shuffle_seed=derive_seed(seed, 24), cancel_pairs=lam // 20,
        )
        with tr.span("workloads.gen_stream"):
            v8, y8, z2_8_truth = gen_stream(spec8)
        z2_8 = _binomial(Z2_8, m, sk_seed)
        with tr.span("tower.update_batch.binomial", n=len(v8)):
            z2_8.update_batch(v8, _bits(y8))

        with tr.span("groups.dft"):
            k8 = FunctionTable.from_function(Z2_8, lambda x: 1.0 if sum(x) == 3 else 0.0)
            k8_spectrum = dft(Z2_8, k8)
        l2_table = squared_rep_table(128)
        st = State(
            m, int_sketch, z7a, z7b, z2_8, l2_table, k8_spectrum, int_truth, z2_8_truth,
            (streams[0][0], streams[0][1], streams[1][0], streams[1][1]),
        )
        with tr.span("query.warmup"):
            refresh(st)  # first-call caches (Gamma constant, group tables) fill here
    return st


def refresh(st: State) -> list[float]:
    """One untraced request, written the way a library user writes it."""
    ski = st.int_sketch
    out = [estimate_support(ski, 7).estimate]
    out += [estimate_modulo(ski, 7, j).estimate for j in range(1, 7)]
    out.append(estimate_f(ski.reduce_values_mod(128), dft(Z128, st.l2_table)).estimate)
    out.append(estimate_union(st.z7a, st.z7b).estimate)
    out.append(estimate_f(st.z2_8, st.k8_spectrum).estimate)
    return out


def _traced_modulo(tr: Tracer, ski, p: int, j: int) -> float:
    """estimate_modulo(ski, p, j) as the public calls it makes."""
    with tr.span("tower.reduce_values_mod"):
        reduced = ski.reduce_values_mod(p)
    with tr.span("estimator.column_aggregates", n=reduced.group.total_size):
        agg = column_aggregates(reduced)
    with tr.span("estimator.estimate_f"):
        return estimate_f(agg, modulo_spectrum(p, j)).estimate


def refresh_traced(st: State, tr: Tracer) -> list[float]:
    """The same request, split into the public calls each estimator makes internally."""
    ski = st.int_sketch
    with tr.span("request"):
        with tr.span("query.support_mod7"):
            out = [-_traced_modulo(tr, ski, 7, 0)]
        with tr.span("query.residues_mod7"):
            out += [_traced_modulo(tr, ski, 7, j) for j in range(1, 7)]
        with tr.span("query.l2_mod128"):
            with tr.span("groups.dft", n=Z128.total_size):
                spectrum = dft(Z128, st.l2_table)
            with tr.span("tower.reduce_values_mod"):
                reduced = ski.reduce_values_mod(128)
            with tr.span("estimator.column_aggregates", n=Z128.total_size):
                agg = column_aggregates(reduced)
            with tr.span("estimator.estimate_f"):
                out.append(estimate_f(agg, spectrum).estimate)
        with tr.span("query.union_z7"):
            with tr.span("tower.combine_product"):
                product = combine_product(st.z7a, st.z7b)
            group = product.group
            with tr.span("estimator.column_aggregates", n=group.total_size):
                agg = column_aggregates(product)
            with tr.span("estimator.estimate_f"):
                spec = SpectrumTable(group, np.full(group.total_size, -1.0 + 0.0j))
                out.append(estimate_f(agg, spec).estimate)
        with tr.span("query.k_of_8"):
            with tr.span("estimator.column_aggregates", n=Z2_8.total_size):
                agg = column_aggregates(st.z2_8)
            with tr.span("estimator.estimate_f"):
                out.append(estimate_f(agg, st.k8_spectrum).estimate)
    return out


def _loop(st: State, seconds: float, requests: int | None, tr: Tracer | None) -> dict:
    plain, traced, outputs, failed = [], [], [], 0
    start = time.perf_counter()
    i = 0
    while True:
        use_trace = tr is not None and i % 2 == 1
        t0 = time.perf_counter()
        try:
            outputs.append(refresh_traced(st, tr) if use_trace else refresh(st))
        except Exception as exc:  # a failed refresh is counted, never fatal
            failed += 1
            outputs.append(repr(exc))
        t1 = time.perf_counter()
        (traced if use_trace else plain).append((t1 - t0) * 1e3)
        i += 1
        if requests is not None:
            if len(traced) >= requests:
                break
        elif t1 - start >= seconds:
            break
    return {
        "ops": i, "failed_ops": failed, "outputs": outputs, "plain_ms": plain,
        "traced_ms": traced, "wall_s": t1 - start,
    }


def run(st: State, seconds: float) -> dict:
    res = _loop(st, seconds, None, None)
    res["latencies_ms"] = res.pop("plain_ms")
    res["work"] = res["ops"] - res["failed_ops"]
    return res


def run_traced(st: State, seconds: float, requests: int | None, tr: Tracer) -> dict:
    res = _loop(st, seconds, requests, tr)
    res["request_root"] = "request"
    return res


def _union_truth(st: State) -> tuple[int, dict]:
    """Union size and joint (x_a mod 7, x_b mod 7) distribution from the generated streams."""
    ids_a, ys_a, ids_b, ys_b = st.streams_z7
    size = int(max(ids_a.max(), ids_b.max())) + 1
    xa = np.zeros(size, dtype=np.int64)
    xb = np.zeros(size, dtype=np.int64)
    np.add.at(xa, ids_a, ys_a)
    np.add.at(xb, ids_b, ys_b)
    ra, rb = np.mod(xa, 7), np.mod(xb, 7)
    live = (ra != 0) | (rb != 0)
    pairs = np.bincount(ra[live] * 7 + rb[live], minlength=49)
    lam = int(live.sum())
    return lam, {(k // 7, k % 7): c / lam for k, c in enumerate(pairs) if c}


def expected(st: State) -> list[tuple[float, float]]:
    """(truth, predicted standard deviation) for each estimate, in ESTIMATES order."""
    m, it = st.m, st.int_truth
    out = []
    lam7 = it.support_size_mod(7)
    res7 = it.residue_counts(7)
    rhat7 = rhat_from_pmf(Z7, {j: c / lam7 for j, c in res7.items() if j and c})
    for j in range(7):
        sd = math.sqrt(predict_variance(modulo_spectrum(7, j), rhat7, lam7, m))
        out.append((lam7 if j == 0 else res7[j], sd))

    lam128 = it.support_size_mod(128)
    pmf128: dict[int, float] = {}
    for v, c in it.value_counts.items():
        if v % 128:
            pmf128[v % 128] = pmf128.get(v % 128, 0.0) + c / lam128
    l2_spectrum = dft(Z128, st.l2_table)
    sd = math.sqrt(predict_variance(l2_spectrum, rhat_from_pmf(Z128, pmf128), lam128, m))
    out.append((it.moment_mod(128, st.l2_table), sd))

    lam_u, pmf_u = _union_truth(st)
    z77 = make_group([7, 7])
    union_spec = SpectrumTable(z77, np.full(z77.total_size, -1.0 + 0.0j))
    sd = math.sqrt(predict_variance(union_spec, rhat_from_pmf(z77, pmf_u), lam_u, m))
    out.append((lam_u, sd))

    t8 = st.z2_8_truth
    lam8 = t8.support_size
    pmf8 = {tuple(int(b) for b in _bits(np.array([v]))[0]): c / lam8 for v, c in t8.value_counts.items()}
    sd = math.sqrt(predict_variance(st.k8_spectrum, rhat_from_pmf(Z2_8, pmf8), lam8, m))
    k3 = sum(c for v, c in t8.value_counts.items() if bin(v).count("1") == 3)
    out.append((k3, sd))
    return out


def check(st: State, seed: int, res: dict, checks: Checks) -> None:
    outputs = [o for o in res["outputs"] if isinstance(o, list)]
    reference = refresh(st)
    same = sum(1 for o in outputs if o == reference)
    checks.add(
        "query.refreshes_identical", same == len(res["outputs"]),
        f"{same} of {len(res['outputs'])} refreshes equal a fresh untraced refresh",
    )
    for name, est, (truth, sd) in zip(ESTIMATES, reference, expected(st)):
        z = (est - truth) / sd
        checks.add(
            f"query.{name}_within_{SIGMA_MULTIPLE:g}sd", abs(z) <= SIGMA_MULTIPLE,
            f"estimate {est:.6g}, truth {truth:.6g}, predicted sd {sd:.4g}, z {z:+.2f}",
        )


def layer_metrics(st: State, res: dict, tr: Tracer) -> dict:
    """Per-layer metrics whose home is this workload: (value, unit, samples)."""
    n_req = len(tr.roots("request"))
    per_req = f"p50 over {n_req} requests of the per-request total"

    def req(name):
        return percentile(tr.per_root("request", name), 50)

    out = {
        "tower.update_batch.binomial_ms": (
            sum(tr.durations_ms("tower.update_batch.binomial", root="setup")), "ms",
            f"sum over {len(tr.durations_ms('tower.update_batch.binomial', root='setup'))} set-up calls",
        ),
        "tower.reduce_values_mod.ms": (req("tower.reduce_values_mod"), "ms", per_req),
        "tower.combine_product.ms": (req("tower.combine_product"), "ms", per_req),
        "estimator.column_aggregates.ms": (req("estimator.column_aggregates"), "ms", per_req),
        "estimator.estimate_f.ms": (req("estimator.estimate_f"), "ms", per_req),
        "groups.dft.ms": (req("groups.dft"), "ms", per_req),
    }
    for q in QUERIES:
        out[f"query.{q}.ms"] = (req(f"query.{q}"), "ms", per_req)
    roots = set(tr.roots("request"))
    agg_sizes = [s[5] for s in tr.spans_named("estimator.column_aggregates") if s[4] in roots]
    dft_sizes = [s[5] for s in tr.spans_named("groups.dft") if s[4] in roots]
    cells = 22 * st.m
    out["estimator.column_aggregates.calls_per_request"] = (
        len(agg_sizes) / max(n_req, 1), "count", f"mean over {n_req} requests",
    )
    out["estimator.column_aggregates.tensor_mb"] = (
        cells * 3 * max(agg_sizes, default=0) * 16 / 1e6, "MB",
        "computed: (b-a)*3*|G|*16 B of the largest call in a request",
    )
    out["groups.dft.chars"] = (sum(dft_sizes) / max(n_req, 1), "count", "characters transformed per request")
    return out

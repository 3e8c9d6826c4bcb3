"""ingest-stream: one client feeds a Poisson integer tower fixed-size batches.

Closed loop: the next batch goes in only after ``update_batch`` returns.  The
stream is a turnstile workload with mod-7 values, values that vanish mod 7,
negative values and update/inverse pairs, so the loop exercises the exactly
linear ingest path and nothing in ``estimator``, ``groups`` or ``sampler``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from hsketch import SketchConfig, WorkloadSpec, default_window, gen_stream, prf, sketch_new

from common import DEFAULT_SEED, FULL, Checks, Sizes, Tracer, derive_seed, percentile

NAME = "ingest-stream"
BATCH = 64  # updates per update_batch call
WORKERS = 1
SETUPS = 5  # set-ups per run, this process included; the median is setup_s

# Share of the support carried by each net value (percent): residues 1..6 mod 7,
# negative values, and values that are 0 mod 7 (invisible to a mod-7 query).
VALUE_SHARES = {1: 15, 2: 15, 3: 10, 4: 10, 5: 10, 6: 10, -1: 5, -3: 5, 8: 5, 7: 5, 14: 5, -7: 5}

# Registers after one update_batch of the first DIGEST_UPDATES updates of the
# full-size stream at the default seed (sha256 of little-endian int64 registers).
DIGEST_UPDATES = 4096
FROZEN_DIGEST = "6cfa9854993c3b854f212d74942db78ae64333eda61faf7065b100cf2451fcb8"


@dataclass
class State:
    cfg: SketchConfig
    sketch: object
    vs: np.ndarray
    ys: np.ndarray


def stream_spec(seed: int, sizes: Sizes) -> WorkloadSpec:
    counts = {v: sizes.ingest_support * s // 100 for v, s in VALUE_SHARES.items()}
    return WorkloadSpec(
        "ingest", counts, universe=1 << 22,
        shuffle_seed=derive_seed(seed, 1), cancel_pairs=sizes.ingest_cancel,
    )


def tower_config(seed: int, sizes: Sizes) -> SketchConfig:
    a, b = default_window(sizes.m)
    return SketchConfig(None, sizes.m, a, b, derive_seed(seed, 2), "poisson")


def setup(seed: int, sizes: Sizes, tr: Tracer | None = None) -> State:
    """Input generation, sketch construction and the Poisson-CDF warm-up."""
    tr = tr or Tracer()
    with tr.span("setup"):
        with tr.span("workloads.gen_stream"):
            vs, ys, _ = gen_stream(stream_spec(seed, sizes))
        cfg = tower_config(seed, sizes)
        with tr.span("tower.sketch_new"):
            sketch = sketch_new(cfg)
        with tr.span("tower.update_batch.poisson", n=BATCH):
            sketch_new(cfg).update_batch(vs[:BATCH], ys[:BATCH])
    usable = len(vs) - len(vs) % BATCH
    return State(cfg, sketch, vs[:usable], ys[:usable])


def _batch(st: State, i: int) -> tuple[np.ndarray, np.ndarray]:
    pos = (i * BATCH) % len(st.vs)
    return st.vs[pos : pos + BATCH], st.ys[pos : pos + BATCH]


def run(st: State, seconds: float) -> dict:
    """Untraced closed loop for ``seconds``; one sample per update_batch call."""
    lat, failed, errors = [], 0, []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        v, y = _batch(st, i)
        t0 = time.perf_counter()
        try:
            st.sketch.update_batch(v, y)
        except Exception as exc:  # a failed call is counted, never fatal
            failed += 1
            errors.append(repr(exc))
        t1 = time.perf_counter()
        lat.append((t1 - t0) * 1e3)
        i += 1
        if t1 >= deadline:
            break
    wall = t1 - start
    return {
        "ops": i, "failed_ops": failed, "errors": errors[:3], "latencies_ms": lat,
        "wall_s": wall, "work": (i - failed) * BATCH, "batches": i,
    }


def prf_probe(seed: int, vs: np.ndarray, a: int, b: int) -> None:
    """Draw the 3*(b-a)*n cell words of one Poisson batch, in the tower's order."""
    state = prf.stream_state(seed, prf.DOMAIN_CELL, vs)
    keys = prf.tuple_key(
        j=np.arange(1, 4, dtype=np.int64)[:, None], k=np.arange(a, b, dtype=np.int64)[None, :]
    )
    for i in range(b - a):
        prf.draw(state[None, :], keys[:, i][:, None])


def run_traced(st: State, seconds: float, requests: int | None, tr: Tracer) -> dict:
    """Alternate untraced and traced batches; each traced batch is followed by a PRF probe.

    Runs for ``seconds`` or, when ``requests`` is given, that many traced batches.
    """
    plain, traced, failed = [], [], 0
    cfg = st.cfg
    start = time.perf_counter()
    i = 0
    while True:
        v, y = _batch(st, i)
        try:
            if i % 2 == 0:
                t0 = time.perf_counter()
                st.sketch.update_batch(v, y)
                plain.append((time.perf_counter() - t0) * 1e3)
            else:
                with tr.span("tower.update_batch.poisson", n=len(v)) as sp:
                    st.sketch.update_batch(v, y)
                s = tr.spans[sp.idx]
                traced.append((s[2] - s[1]) * 1e3)
                with tr.span("prf.draw.probe", n=len(v)):
                    prf_probe(cfg.seed, v, cfg.a, cfg.b)
        except Exception:  # counted; the check below then fails as well
            failed += 1
        i += 1
        if requests is not None:
            if len(traced) >= requests:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return {
        "ops": i, "failed_ops": failed, "batches": i,
        "plain_ms": plain, "traced_ms": traced, "request_root": "tower.update_batch.poisson",
    }


def _digest(registers: np.ndarray) -> str:
    return hashlib.sha256(registers.astype("<i8").tobytes()).hexdigest()


def reference_digest() -> str:
    vs, ys, _ = gen_stream(stream_spec(DEFAULT_SEED, FULL))
    sk = sketch_new(tower_config(DEFAULT_SEED, FULL))
    sk.update_batch(vs[:DIGEST_UPDATES], ys[:DIGEST_UPDATES])
    return _digest(sk.registers)


def check(st: State, seed: int, res: dict, checks: Checks) -> None:
    n = res["batches"] * BATCH
    idx = np.arange(n) % len(st.vs)
    ref = sketch_new(st.cfg)
    ref.update_batch(st.vs[idx], st.ys[idx])
    checks.add(
        "ingest.registers_equal_single_batch",
        np.array_equal(ref.registers, st.sketch.registers),
        f"{res['batches']} batches of {BATCH} vs one update_batch of {n} updates",
    )
    if seed == DEFAULT_SEED:
        got = reference_digest()
        checks.add("ingest.frozen_digest", got == FROZEN_DIGEST, f"sha256 {got[:16]}...")


def computed_counts(cfg: SketchConfig) -> dict:
    """Counts that follow from the configuration alone (labelled as computed)."""
    cells = cfg.b - cfg.a
    dense = sum(1 for k in range(cfg.a, cfg.b) if math.exp(-math.exp(-k / cfg.m)) < 0.5)
    return {
        "prf.words_per_update": (3 * cells, "count", "computed: 3*(b-a)"),
        "tower.dense_cells": (dense, "count", "computed: cells with P(count=0) < 0.5"),
        "tower.sparse_cells": (cells - dense, "count", "computed: cells with P(count=0) >= 0.5"),
        "tower.registers": (3 * cells, "count", "computed: 3*(b-a) integer registers"),
    }


def layer_metrics(st: State, res: dict, tr: Tracer) -> dict:
    """Per-layer metrics whose home is this workload: (value, unit, samples)."""
    calls = tr.durations_ms("tower.update_batch.poisson", root="tower.update_batch.poisson")
    out = {"tower.update_batch.poisson_ms": (percentile(calls, 50), "ms", f"p50 of {len(calls)} calls")}
    out.update(computed_counts(st.cfg))
    return out

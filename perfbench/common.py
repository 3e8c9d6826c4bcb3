"""Shared pieces of the benchmark: sizes, statistics, checks and the span recorder."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

DEFAULT_SEED = 1
SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; ``FULL`` is the benchmark, ``SMOKE`` a quick self-test."""

    m: int  # tower accuracy parameter of every sketch
    ingest_support: int  # elements carrying a net value in the ingest stream
    ingest_cancel: int  # update/inverse pairs in the ingest stream
    query_support: int  # lambda of each query-refresh sketch
    mc_support: int  # support of each montecarlo stream
    brief_requests: int  # requests of a brief traced phase


FULL = Sizes(
    m=64, ingest_support=150_000, ingest_cancel=25_000,
    query_support=1_000_000, mc_support=10_000, brief_requests=8,
)
SMOKE = Sizes(
    m=16, ingest_support=4_000, ingest_cancel=500,
    query_support=20_000, mc_support=1_000, brief_requests=3,
)


def derive_seed(seed: int, salt: int) -> int:
    """Deterministic 64-bit sub-seed so each generated input has its own stream."""
    return (seed * 0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9) & SEED_MASK


# -- statistics -----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(values, threshold: float) -> int:
    """Samples strictly above a percentile value: the support of a tail estimate."""
    return sum(1 for v in values if v > threshold)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


# -- output checks --------------------------------------------------------------


@dataclass
class Checks:
    """Named pass/fail output checks; each failure counts once in ``failed``."""

    results: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


# -- spans ----------------------------------------------------------------------

# Modules of the hsketch package; a span's layer is the first component of its name.
LAYERS = ("prf", "tower", "groups", "estimator", "sampler", "workloads", "experiments")


class Tracer:
    """In-memory spans: [name, start, end, parent index, root index, n].

    A span opened with no span open is a root; the spans under one root share
    its index as their request identifier.  ``n`` is an optional work count.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, n: int | None = None) -> "_Span":
        return _Span(self, name, n)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] < 0 and s[0] == name]

    def durations_ms(self, name: str, root: str | None = None) -> list[float]:
        """Durations of every span called ``name``, optionally only under roots called ``root``."""
        return [
            (s[2] - s[1]) * 1e3
            for s in self.spans
            if s[0] == name and (root is None or self.spans[s[4]][0] == root)
        ]

    def spans_named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def self_ms(self) -> list[float]:
        """Self time of each span: its duration minus the time its children cover."""
        out = [(s[2] - s[1]) * 1e3 for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= (s[2] - s[1]) * 1e3
        return out

    def per_root(self, root: str, name: str, count: bool = False) -> list[float]:
        """Per root span called ``root``: total ms (or call count) of spans called ``name`` under it."""
        ids = self.roots(root)
        acc = {i: 0.0 for i in ids}
        for s in self.spans:
            if s[0] == name and s[4] in acc:
                acc[s[4]] += 1.0 if count else (s[2] - s[1]) * 1e3
        return [acc[i] for i in ids]

    def layer_self_per_root(self, root: str) -> dict[str, float]:
        """Mean self time per root span, by layer; names outside LAYERS go to ``glue``."""
        ids = self.roots(root)
        if not ids:
            return {}
        idset = set(ids)
        self_ms = self.self_ms()
        acc: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s[4] in idset:
                layer = s[0].split(".")[0]
                key = layer if layer in LAYERS else "glue"
                acc[key] = acc.get(key, 0.0) + self_ms[i]
        return {k: v / len(ids) for k, v in acc.items()}

    def table(self) -> list[tuple[str, int, float, float, float]]:
        """(name, calls, total ms, self ms, p50 ms) per span name, by descending self time."""
        self_ms = self.self_ms()
        agg: dict[str, list] = {}
        for i, s in enumerate(self.spans):
            row = agg.setdefault(s[0], [0, 0.0, 0.0, []])
            d = (s[2] - s[1]) * 1e3
            row[0] += 1
            row[1] += d
            row[2] += self_ms[i]
            row[3].append(d)
        rows = [(k, v[0], v[1], v[2], percentile(v[3], 50)) for k, v in agg.items()]
        return sorted(rows, key=lambda r: -r[3])


class _Span:
    __slots__ = ("tracer", "name", "n", "idx")

    def __init__(self, tracer: Tracer, name: str, n: int | None):
        self.tracer = tracer
        self.name = name
        self.n = n

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.idx = len(t.spans)
        root = t.spans[parent][4] if parent >= 0 else self.idx
        t.spans.append([self.name, time.perf_counter(), 0.0, parent, root, self.n])
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx][2] = time.perf_counter()
        t._stack.pop()
        return False

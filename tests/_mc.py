"""Shared Monte-Carlo workers for the acceptance suite.

Top-level functions so they pickle into the worker processes of
``hsketch.experiments._map_trials``, which honors HSKETCH_THREADS.
"""

from __future__ import annotations

import numpy as np

from hsketch.errors import NoSamplesError, SaturatedError
from hsketch.estimator import estimate_f, estimate_modulo, estimate_support, estimate_union
from hsketch.experiments import squared_rep_table
from hsketch.groups import dft, make_group
from hsketch.sampler import SamplerSketch, equal_memory_m_prime, sample_f_moment
from hsketch.tower import SketchConfig, TowerSketch

Z7 = make_group([7])
Z6 = make_group([6])
G128 = make_group([128])


def counts_stream(counts: dict[int, int]):
    values = np.concatenate([np.full(c, v, dtype=np.int64) for v, c in sorted(counts.items())])
    return np.arange(len(values), dtype=np.int64), values


def mod7_trial(args):
    """(support_estimate, psi_1..psi_6, max imag residual) for one seed."""
    m, seed, counts = args
    vs, ys = counts_stream(dict(counts))
    sk = TowerSketch(SketchConfig(Z7, m, 0, 22 * m, seed, "poisson"))
    sk.update_batch(vs, ys)
    sup = estimate_support(sk, 7)
    psis, imags = [], [sup.imag_residual]
    for j in range(1, 7):
        rep = estimate_modulo(sk, 7, j)
        psis.append(rep.estimate)
        imags.append(rep.imag_residual)
    return (sup.estimate, tuple(psis), max(imags))


def union_trial(args):
    m, seed, only1, only2, overlap = args
    n1 = only1 + overlap
    union = only1 + only2 + overlap
    rng = np.random.default_rng(seed + 10_000)
    ids1 = np.arange(n1)
    ids2 = np.arange(only1, union)
    y1 = rng.integers(1, 7, len(ids1))
    y2 = rng.integers(1, 7, len(ids2))
    cfg = SketchConfig(Z7, m, 0, 22 * m, seed, "poisson")
    s1, s2 = TowerSketch(cfg), TowerSketch(cfg)
    s1.update_batch(ids1, y1)
    s2.update_batch(ids2, y2)
    rep = estimate_union(s1, s2)
    return rep.estimate, rep.imag_residual


def depo_trial(args):
    """Binomial vs Poisson tower support estimates at shared (m, a, b)."""
    m, a, b, seed, lam = args
    vs = np.arange(lam)
    ys = 1 + (vs % 6)
    skp = TowerSketch(SketchConfig(Z7, m, a, b, seed, "poisson"))
    skp.update_batch(vs, ys)
    skb = TowerSketch(SketchConfig(Z7, m, a, b, seed + 500_000, "binomial"))
    skb.update_batch(vs, ys)
    rp = estimate_support(skp, 7)
    rb = estimate_support(skb, 7)
    return rp.estimate, rb.estimate, max(rp.imag_residual, rb.imag_residual)


def trunc_trial(args):
    """Support estimates from the wide (-6m, 25m) window and its (0, 22m) sub-window."""
    m, seed, lam = args
    vs = np.arange(lam)
    ys = 1 + (vs % 6)
    sk = TowerSketch(SketchConfig(Z7, m, -6 * m, 25 * m, seed, "poisson"))
    sk.update_batch(vs, ys)
    wide = estimate_support(sk, 7)
    narrow = estimate_support(sk.window(0, 22 * m), 7)
    return wide.estimate, narrow.estimate, max(wide.imag_residual, narrow.imag_residual)


def l2_trial(args):
    """(tower estimate, fingerprint-r2 estimate or nan, imag residual)."""
    m, seed = args
    ftable = squared_rep_table(128)
    spectrum = dft(G128, ftable)
    vs = np.arange(10_000)
    ys = np.concatenate([np.ones(9900, dtype=np.int64), np.full(100, 64)])
    sk = TowerSketch(SketchConfig(G128, m, 0, 22 * m, seed, "poisson"))
    sk.update_batch(vs, ys)
    rep = estimate_f(sk, spectrum)
    sampler = SamplerSketch(G128, equal_memory_m_prime(m, 2, G128), seed, r=2, mode="fingerprint")
    sampler.update_batch(vs, ys)
    try:
        fp = sample_f_moment(sampler, ftable)
    except (NoSamplesError, SaturatedError):
        fp = float("nan")
    return rep.estimate, fp, rep.imag_residual


def taugra_trial(args):
    m_prime, seed, lam = args
    sampler = SamplerSketch(Z7, m_prime, seed, mode="ideal")
    sampler.update_batch(np.arange(lam), 1 + (np.arange(lam) % 6))
    return sampler.estimate_support()


def nullity_trial(args):
    """Odd-residue estimates for an even-subgroup workload over Z_6."""
    m, seed, lam = args
    vs = np.arange(lam)
    sk = TowerSketch(SketchConfig(Z6, m, 0, 22 * m, seed, "poisson"))
    sk.update_batch(vs, 2 + 2 * (vs % 2))
    scale = max(1.0, abs(estimate_support(sk, 6, literal=True).estimate))
    vals = [estimate_modulo(sk, 6, j, literal=True).estimate for j in (1, 3, 5)]
    return tuple(vals), scale

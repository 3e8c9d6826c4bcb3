"""Byte-level regression for the experiment CSVs.

The digests were recorded from the code before the trial runners, tower
classes and CSV writers were consolidated; any refactor of those paths must
reproduce the same bytes.
"""

import hashlib

import pytest

from hsketch.experiments import (
    ExperimentConfig,
    SchemeSpec,
    UnionWorkload,
    run_l2_experiment,
    run_modulo_experiment,
    run_union_experiment,
)
from hsketch.workloads import WorkloadSpec, uniform_mod_workload

FROZEN = {
    "modulo": "abe97a7712ff2311a783a8fc29ee698b2340706e89cc9ffef6cff618d95c517e",
    "l2": "a59ae68786affecd6776a2c21d726b396768a993db6fd6558eeca009be2a8602",
    "union": "e6d7e440f9fdfbdc114e87b80bd3ba4728dd51061586e2ba27fbd0835e1c7d9f",
    "modulo_shared_ids": "95797761f5b4787b58c47c8f56d6719914564017268275dca46eea7dc00ea964",
    "l2_shared_ids": "d4cac5035593b878804d4124a81e97c90990d3f056841dbffb5c7803998af0d3",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(autouse=True)
def _in_process(monkeypatch):
    monkeypatch.setenv("HSKETCH_THREADS", "1")


def test_modulo_csv_bytes_frozen(tmp_path):
    schemes = (
        SchemeSpec("fourier", 8),
        SchemeSpec("fourier", 8, clamp_nonnegative=True, literal_truncation=True),
        SchemeSpec("fingerprint", 8, r=3),
        SchemeSpec("ideal-oracle", 8),
    )
    workloads = (
        uniform_mod_workload("u", 300, 7, 1 << 16, shuffle_seed=3),
        WorkloadSpec("w", {3: 200, 7: 50}, 1 << 16, shuffle_seed=4),
    )
    config = ExperimentConfig("frozen", workloads, schemes, trials=2, base_seed=11, p=7)
    out = tmp_path / "modulo.csv"
    run_modulo_experiment(config, out)
    assert _sha256(out) == FROZEN["modulo"]


def test_modulo_csv_bytes_frozen_shared_ids(tmp_path):
    # x1, x2 and x3 stream the same ids in the same order, so each trial
    # ingests them together; w's ids differ and it is ingested alone
    schemes = (
        SchemeSpec("fourier", 8),
        SchemeSpec("fourier", 8, clamp_nonnegative=True, literal_truncation=True),
        SchemeSpec("fingerprint", 8, r=3),
        SchemeSpec("ideal-oracle", 8),
    )
    u = 1 << 16
    workloads = (
        uniform_mod_workload("x1", 300, 7, u, shuffle_seed=3),
        uniform_mod_workload("x2", 300, 7, u, shuffle_seed=3, residues=(1, 3, 4)),
        WorkloadSpec("x3", {3: 300}, u, shuffle_seed=3),
        WorkloadSpec("w", {3: 200, 7: 50}, u, shuffle_seed=4),
    )
    config = ExperimentConfig("frozen", workloads, schemes, trials=2, base_seed=11, p=7)
    out = tmp_path / "modulo.csv"
    run_modulo_experiment(config, out)
    assert _sha256(out) == FROZEN["modulo_shared_ids"]


def test_l2_csv_bytes_frozen(tmp_path):
    schemes = (SchemeSpec("fourier", 8), SchemeSpec("fingerprint", 8, r=2))
    spec = WorkloadSpec("l2", {1: 300, 64: 20}, 1 << 16, shuffle_seed=5)
    config = ExperimentConfig("frozen", (spec,), schemes, trials=2, base_seed=21, p=128)
    out = tmp_path / "l2.csv"
    run_l2_experiment(config, out, modulus=128)
    assert _sha256(out) == FROZEN["l2"]


def test_l2_csv_bytes_frozen_shared_ids(tmp_path):
    # a and b stream the same ids in the same order, so each trial ingests
    # them together, and the two fourier schemes query one tower per workload
    schemes = (
        SchemeSpec("fourier", 8),
        SchemeSpec("fourier", 8, clamp_nonnegative=True, literal_truncation=True),
        SchemeSpec("fingerprint", 8, r=2),
    )
    u = 1 << 16
    workloads = (
        WorkloadSpec("a", {1: 300, 64: 20}, u, shuffle_seed=5),
        WorkloadSpec("b", {-3: 200, 10: 120}, u, shuffle_seed=5),
    )
    config = ExperimentConfig("frozen", workloads, schemes, trials=2, base_seed=21, p=128)
    out = tmp_path / "l2.csv"
    run_l2_experiment(config, out, modulus=128)
    assert _sha256(out) == FROZEN["l2_shared_ids"]


def test_union_csv_bytes_frozen(tmp_path):
    wl = UnionWorkload("u", only_first=100, only_second=80, overlap=40, shuffle_seed=6)
    out = tmp_path / "union.csv"
    run_union_experiment(wl, 8, 3, 31, out, literal_truncation=True)
    assert _sha256(out) == FROZEN["union"]

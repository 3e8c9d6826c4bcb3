"""Byte-level regression for the experiment CSVs.

The digests were recorded once and must not depend on the CPU: the last test
reruns every pin with numpy's AVX-512 loops disabled.  Any refactor
of the trial runners, towers, estimators or CSV writers must reproduce the
same bytes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hsketch.cli import main as cli_main
from hsketch.experiments import (
    ExperimentConfig,
    SchemeSpec,
    UnionWorkload,
    run_l2_experiment,
    run_modulo_experiment,
    run_union_experiment,
)
from hsketch.tower import TowerSketch
from hsketch.workloads import WorkloadSpec, uniform_mod_workload

FROZEN = {
    "modulo": "f80d048a57ccc9522cbe71e14d1613dd781f0ad7b3926bc83da4053b2ef73034",
    "l2": "28a6b346b0b342ac82dcd79c7410b8f31047e71b8565ffee0cd7c92e6a5f05ab",
    "union": "4c12c1d1e99e9b7f75d49bbfd3c32ac2022e025d31cd6468502f276555ab83bc",
    "modulo_shared_ids": "639edfd88d299559d9b459b83028622d174ce03c2f3e3d32b03f0c29e13e7e54",
    "l2_shared_ids": "6329d10c8936d0d5815469e931a3f56ddaf2dbb4cc64a47466ec7073fda2bde9",
    "l2_split_towers": "31b444967cf22ee387739c5be6085f3b69f260cee912a1dad355b8f27bd8f491",
    "cli_modulo7": "29fc8b179d9fe112dfb4c29ba636fbc6e6fe1ab5a3e9a15b18eae14e4663f2a1",
    "cli_l2": "bf37a627f884310b39298ac0b7066926307927f7e6418a665910ecb17e993fee",
    "cli_union": "f34e389b696c78249208333517b408cdf098921165536bfeb8d8ed284901aa62",
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


def test_l2_csv_bytes_frozen_split_towers(tmp_path, monkeypatch):
    # 128^5 > 2^31, so each trial's five Z_128 streams take a Z_128^4 and a Z_128 tower
    degrees = []
    update_batch = TowerSketch.update_batch

    def recording(self, vs, ys):
        degrees.append(self.group.degree)
        update_batch(self, vs, ys)

    monkeypatch.setattr(TowerSketch, "update_batch", recording)
    schemes = (
        SchemeSpec("fourier", 8),
        SchemeSpec("fourier", 8, clamp_nonnegative=True, literal_truncation=True),
        SchemeSpec("fingerprint", 8, r=2),
    )
    values = ({1: 300, 64: 20}, {-3: 200, 10: 120}, {5: 320}, {2: 100, -60: 220}, {127: 160, 3: 160})
    workloads = tuple(WorkloadSpec(f"c{i}", v, 1 << 16, shuffle_seed=5) for i, v in enumerate(values))
    out = tmp_path / "l2.csv"
    run_l2_experiment(ExperimentConfig("frozen", workloads, schemes, trials=2, base_seed=21, p=128), out)
    assert degrees == [4, 1, 4, 1]
    assert _sha256(out) == FROZEN["l2_split_towers"]


def test_union_csv_bytes_frozen(tmp_path):
    wl = UnionWorkload("u", only_first=100, only_second=80, overlap=40, shuffle_seed=6)
    out = tmp_path / "union.csv"
    run_union_experiment(wl, 8, 3, 31, out, literal_truncation=True)
    assert _sha256(out) == FROZEN["union"]


def test_cli_csv_bytes_frozen(tmp_path, monkeypatch):
    # the CLI's default workloads and schemes (fingerprint r=2..6 in modulo7), in process and pooled
    for threads in ("1", "2"):
        monkeypatch.setenv("HSKETCH_THREADS", threads)
        for command in ("modulo7", "l2", "union"):
            out = tmp_path / f"{command}-{threads}.csv"
            assert cli_main([command, "--trials", "2", "--m", "16", "--out", str(out)]) == 0
            assert _sha256(out) == FROZEN[f"cli_{command}"], (command, threads)


def test_pins_hold_with_numpy_avx512_dispatch_disabled():
    # numpy picks SIMD loops at run time, and its np.exp differs in the last bit
    # between the AVX-512 and AVX2 loops; no pinned path may depend on which runs.
    # The AVX2 target (X86_V3) stays on: its complex multiply fuses multiply-adds,
    # so a CPU without FMA gives other estimate bits
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    targets = [t for t in umath.__cpu_dispatch__
               if umath.__cpu_features__.get(t) and (t == "X86_V4" or t.startswith("AVX512"))]
    if not targets:
        pytest.skip("numpy dispatches to no AVX-512 target on this CPU")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))

    def python(*args):
        return subprocess.run(
            [sys.executable, *args], cwd=Path(__file__).parents[1], env=env,
            capture_output=True, text=True, timeout=300,
        )

    probe = "import sys; from numpy._core._multiarray_umath import __cpu_features__ as f; " \
        "print([t for t in sys.argv[1:] if f[t]])"
    assert python("-c", probe, *targets).stdout.strip() == "[]"  # the targets are really off
    pins = [f"{__file__}::{name}" for name in globals() if "_csv_bytes_frozen" in name]
    run = python("-m", "pytest", "-q", "-p", "no:cacheprovider", *pins)
    assert run.returncode == 0 and f"{len(pins)} passed" in run.stdout, run.stdout[-2000:]

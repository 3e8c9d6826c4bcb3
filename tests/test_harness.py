import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hsketch
from hsketch.cli import main as cli_main
from hsketch.errors import InvalidConfigError, InvalidWorkloadError, SchemaError
from hsketch.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    SchemeSpec,
    UnionWorkload,
    format_summary,
    read_rows,
    run_modulo_experiment,
    summarize,
    thread_budget,
    write_rows,
)
from hsketch.tower import SketchConfig, sketch_new
from hsketch.workloads import (
    WorkloadSpec,
    gen_stream,
    signed_representative,
    uniform_mod_workload,
)
from hsketch.cli import MODULO7_COUNTS


def test_uniform_workload_rounding():
    spec = uniform_mod_workload("x1", 10000, 7)
    counts = sorted(spec.value_counts.values(), reverse=True)
    assert counts == [1667, 1667, 1667, 1667, 1666, 1666]
    assert spec.support_size == 10000


def test_l2_truth_arithmetic():
    from hsketch.experiments import squared_rep_table

    spec = WorkloadSpec("l2", {1: 9900, 64: 100}, universe=1 << 20)
    _, _, truth = gen_stream(spec)
    table = squared_rep_table(128)
    assert truth.moment_mod(128, table) == pytest.approx(9900 + 100 * 4096)
    assert truth.moment_mod(128, table) == pytest.approx(419500)


def test_signed_representative():
    assert signed_representative(1, 128) == 1
    assert signed_representative(64, 128) == 64
    assert signed_representative(65, 128) == -63
    assert signed_representative(127, 128) == -1


def test_empty_workload():
    spec = WorkloadSpec("empty", {}, universe=10)
    vs, ys, truth = gen_stream(spec)
    assert len(vs) == 0 and len(ys) == 0
    assert truth.support_size == 0


def test_workload_validation():
    with pytest.raises(InvalidWorkloadError):
        WorkloadSpec("bad", {1: 5, 2: 6}, universe=10)
    with pytest.raises(InvalidWorkloadError):
        WorkloadSpec("bad", {0: 5}, universe=10)
    with pytest.raises(InvalidWorkloadError):
        WorkloadSpec("bad", {1: 5}, universe=5, cancel_pairs=1)


@pytest.mark.parametrize(
    "build,message",
    [
        # 1.5 streamed as 1 while the truth table held 1.5
        (lambda: WorkloadSpec("w", {1.5: 2}, 100), "value=1.5 is not an integer"),
        (lambda: WorkloadSpec("w", {1: 2.5}, 100), "count[1]=2.5 is not an integer"),
        (lambda: WorkloadSpec("w", {1: -1}, 100), "count[1]=-1 must be >= 0"),
        (lambda: WorkloadSpec("w", {1: 2}, 100, cancel_pairs=-1), "cancel_pairs=-1 must be >= 0"),
        (lambda: WorkloadSpec("w", {1: 2}, 100, cancel_pairs=0.5), "cancel_pairs=0.5 is not"),
        (lambda: uniform_mod_workload("u", 10, 1), "p=1 must be >= 2"),
        (lambda: uniform_mod_workload("u", 10, 7, residues=()), "at least one residue"),
        (lambda: UnionWorkload("u", -1, 3, 2), "only_first=-1 must be >= 0"),
        (lambda: UnionWorkload("u", 4, 3.0, 2), "only_second=3.0 is not an integer"),
        (lambda: UnionWorkload("u", 4, 3, -2), "overlap=-2 must be >= 0"),
        (lambda: UnionWorkload("u", 4, 3, 2, p=1), "p=1 must be >= 2"),
        # a seed of -1 streamed exactly like 2^64 - 1, and 1.5 like 1
        (lambda: WorkloadSpec("w", {1: 2}, 100, shuffle_seed=-1), "shuffle_seed=-1 must be >= 0"),
        (lambda: WorkloadSpec("w", {1: 2}, 100, shuffle_seed=2**64), "shuffle_seed=18446744073709551616"),
        (lambda: WorkloadSpec("w", {1: 2}, 100, shuffle_seed=1.5), "shuffle_seed=1.5 is not"),
        (lambda: UnionWorkload("u", 4, 3, 2, shuffle_seed=-1), "shuffle_seed=-1 must be >= 0"),
        (lambda: UnionWorkload("u", 4, 3, 2, shuffle_seed=1.5), "shuffle_seed=1.5 is not"),
        (lambda: WorkloadSpec("w", {1: 2}, 1000.5), "universe=1000.5 is not an integer"),
        (lambda: WorkloadSpec("w", {}, -1), "universe=-1 must be >= 0"),
    ],
)
def test_workloads_reject_values_that_break_the_truth_table(build, message):
    with pytest.raises(InvalidWorkloadError) as exc:
        build()
    assert message in str(exc.value)


def test_workload_values_become_ints():
    spec = WorkloadSpec(
        "w", {np.int64(3): np.int32(2)}, np.int64(100), shuffle_seed=np.uint64(2**64 - 1),
        cancel_pairs=np.int64(1),
    )
    union = UnionWorkload("u", 4, 3, 2, shuffle_seed=np.int32(5))
    ((value, count),) = spec.value_counts.items()
    ints = (value, count, spec.cancel_pairs, spec.universe, spec.shuffle_seed, union.shuffle_seed)
    assert ints == (3, 2, 1, 100, 2**64 - 1, 5)
    assert all(type(x) is int for x in ints)


def test_stream_is_deterministic_and_shuffled():
    spec = WorkloadSpec("w", {1: 50, 2: 50}, universe=200, shuffle_seed=9)
    v1, y1, _ = gen_stream(spec)
    v2, y2, _ = gen_stream(spec)
    assert np.array_equal(v1, v2) and np.array_equal(y1, y2)
    other = gen_stream(WorkloadSpec("w", {1: 50, 2: 50}, universe=200, shuffle_seed=10))
    assert not np.array_equal(other[1], y1)


def test_cancel_pairs_do_not_change_registers():
    base = WorkloadSpec("w", {1: 30, 3: 20}, universe=200, shuffle_seed=4)
    with_cancel = WorkloadSpec(
        "w", {1: 30, 3: 20}, universe=200, shuffle_seed=4, cancel_pairs=25
    )
    cfg = SketchConfig(None, 4, 0, 88, 77, "poisson")
    s1, s2 = sketch_new(cfg), sketch_new(cfg)
    v, y, t1 = gen_stream(base)
    s1.update_batch(v, y)
    v, y, t2 = gen_stream(with_cancel)
    s2.update_batch(v, y)
    assert np.array_equal(s1.registers, s2.registers)
    assert t1.support_size == t2.support_size == 50


def test_truth_residue_counts():
    spec = WorkloadSpec("w", {1: 3, 8: 4, 7: 5}, universe=100)
    _, _, truth = gen_stream(spec)
    assert truth.support_size == 12
    assert truth.support_size_mod(7) == 7  # the five 7s vanish mod 7
    assert truth.residue_counts(7) == {0: 5, 1: 7, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}


# -- experiment runner --------------------------------------------------------------


def _tiny_config():
    wl = WorkloadSpec("tiny", {1: 40, 2: 30, 3: 30}, universe=1 << 12, shuffle_seed=1)
    schemes = (SchemeSpec("fourier", 8), SchemeSpec("fingerprint", 8, r=3))
    return ExperimentConfig("tiny", (wl,), schemes, trials=3, base_seed=5, p=7)


def test_run_modulo_experiment_shape(tmp_path):
    out = tmp_path / "rows.csv"
    run_modulo_experiment(_tiny_config(), out)
    rows = read_rows(out)
    # workloads x schemes x trials x quantities
    assert len(rows) == 1 * 2 * 3 * 7
    assert {r["scheme"] for r in rows} == {"fourier", "fingerprint-r3"}
    assert {r["seed"] for r in rows} == {5, 6, 7}


def test_csv_bytes_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_modulo_experiment(_tiny_config(), out1)
    run_modulo_experiment(_tiny_config(), out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_bytes_independent_of_parallelism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    old = os.environ.get("HSKETCH_THREADS")
    try:
        os.environ["HSKETCH_THREADS"] = "1"
        run_modulo_experiment(_tiny_config(), out1)
        os.environ["HSKETCH_THREADS"] = "2"
        run_modulo_experiment(_tiny_config(), out2)
    finally:
        if old is None:
            os.environ.pop("HSKETCH_THREADS", None)
        else:
            os.environ["HSKETCH_THREADS"] = old
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("value", ["two", "2.5"])
def test_thread_budget_rejects_a_non_integer(monkeypatch, value):
    monkeypatch.setenv("HSKETCH_THREADS", value)
    with pytest.raises(InvalidConfigError, match="HSKETCH_THREADS"):
        thread_budget()


def test_summarize_hand_computed(tmp_path):
    out = tmp_path / "rows.csv"
    write_rows(
        out,
        [
            ["w", "fourier", "lambda1", 0, 10, "4.0", "0.0", "5.0"],
            ["w", "fourier", "lambda1", 1, 11, "6.0", "0.0", "5.0"],
            ["w", "fourier", "lambda2", 0, 10, "7.0", "0.0", "7.0"],
            ["w", "fourier", "lambda2", 1, 11, "7.0", "0.0", "7.0"],
        ],
    )
    rows = {(r.quantity): r for r in summarize(out)}
    assert rows["lambda1"].mean == pytest.approx(5.0)
    assert rows["lambda1"].std == pytest.approx(math.sqrt(2.0))
    assert rows["lambda1"].bias == pytest.approx(0.0)
    assert rows["lambda1"].rmse == pytest.approx(1.0)
    assert rows["lambda2"].std == 0.0
    assert rows["lambda2"].rmse == 0.0
    assert "lambda1" in format_summary(list(rows.values()))


def test_read_rows_schema_errors(tmp_path):
    good = "w,fourier,lambda1,0,10,4.0,0.0,5.0"
    bad_rows = [
        good.replace(",0,10,", ",x,10,"),  # non-numeric trial
        good.replace(",0,10,", ",0,1.5,"),  # non-integer seed
        good.replace(",4.0,", ",four,"),
        good.replace(",5.0", ",5.0j"),
        good.rsplit(",", 1)[0],  # 7 fields
        good + ",1.0",  # 9 fields
        good.replace(",0,10,", ",\udcff,10,"),  # the undecodable byte 0xff
    ]
    texts = ["nope,nope\n1,2\n", ""]
    texts += [f"{','.join(CSV_HEADER)}\n{good}\n{row}\n" for row in bad_rows]
    bad = tmp_path / "bad.csv"
    for text in texts:
        bad.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(SchemaError):
            read_rows(bad)


def test_union_workload_streams():
    wl = UnionWorkload("u", only_first=4, only_second=3, overlap=2, p=7)
    ids1, y1, ids2, y2 = wl.streams()
    assert wl.union_size == 9
    assert len(ids1) == 6 and len(ids2) == 5
    assert set(ids1) & set(ids2) == {4, 5}
    assert (y1 > 0).all() and (y1 < 7).all()


# -- CLI ------------------------------------------------------------------------------


def test_cli_modulo7_smoke(tmp_path, capsys):
    out = tmp_path / "m7.csv"
    rc = cli_main(
        [
            "modulo7", "--m", "16", "--trials", "2", "--seed", "3",
            "--out", str(out),
            "--scheme", "fourier", "--scheme", "fingerprint-r3",
        ]
    )
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 3 * 2 * 2 * 7  # workloads x schemes x trials x quantities
    captured = capsys.readouterr().out
    assert "fourier" in captured and "wrote" in captured


def test_cli_l2_smoke(tmp_path, capsys):
    out = tmp_path / "l2.csv"
    rc = cli_main(["l2", "--m", "16", "--trials", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert {r["quantity"] for r in rows} == {"l2"}
    assert len(rows) == 2 * 2


def test_cli_union_smoke(tmp_path):
    out = tmp_path / "u.csv"
    rc = cli_main(
        ["union", "--m", "16", "--trials", "2", "--seed", "3", "--out", str(out),
         "--only-first", "30", "--only-second", "30", "--overlap", "10"]
    )
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert rows[0]["truth"] == 70.0


def test_cli_sanity_table_smoke(capsys):
    rc = cli_main(["sanity-table", "--m", "16", "--trials", "2", "--zero-mod", "500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "psi_0" in out and "-psi_0" in out
    assert "support(mod 7)=1000" in out


def test_cli_bench_smoke(capsys):
    rc = cli_main(["bench", "--m", "8", "--support", "500", "--seed", "2"])
    assert rc == 0
    assert "updates/s" in capsys.readouterr().out


def test_cli_variance_check_smoke(capsys):
    rc = cli_main(["variance-check", "--m", "16", "--trials", "25", "--support", "600"])
    assert rc == 0
    assert "predicted variance" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--trials", "3"],
        ["bench", "--literal-truncation"],
        ["bench", "--clamp-nonnegative"],
        ["variance-check", "--literal-truncation"],
        ["variance-check", "--clamp-nonnegative"],
        ["sanity-table", "--clamp-nonnegative"],
    ],
)
def test_cli_rejects_flags_the_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["modulo7", "l2"])
def test_cli_scheme_filter_matching_nothing_exits_2(command, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--m", "8", "--trials", "1", "--out", str(out), "--scheme", "nomatch"])
    assert exc.value.code == 2
    assert "no schemes match" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["modulo7", "--trials", "0"], "trials must be >= 1"),
        (["l2", "--m", "1"], "m=1 must be >= 2"),
        (["modulo7", "--config", "/nonexistent.cfg"], "No such file"),
        (["modulo7", "--config", "BAD_CFG"], "is not key=value"),
        # its streams covered ids -1..598 under a truth of 599
        (["union", "--only-first", "-1", "--trials", "1", "--m", "8"], "only_first=-1 must be >= 0"),
    ],
)
def test_cli_reports_errors_in_one_line_with_exit_2(argv, message, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("m=16\nbogus line\n")
    out = tmp_path / "rows.csv"
    argv = [str(bad) if arg == "BAD_CFG" else arg for arg in argv] + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_modulo7_counts_constant():
    assert MODULO7_COUNTS == {1: 300, 2: 500, 3: 100, 4: 50, 5: 25, 6: 25}
    assert sum(MODULO7_COUNTS.values()) == 1000


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "m7.csv"
    cfg.write_text(
        "# experiment knobs\n"
        "m=16\n"
        "trials=2\n"
        "seed=3\n"
        f"out={out}\n"
        "scheme=fourier\n"
        "clamp-nonnegative=false\n"
    )
    rc = cli_main(["modulo7", "--config", str(cfg)])
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 3 * 1 * 2 * 7
    # explicit flags override the file
    out2 = tmp_path / "m7b.csv"
    rc = cli_main(["modulo7", "--config", str(cfg), "--out", str(out2), "--trials", "1"])
    assert rc == 0
    assert len(read_rows(out2)) == 3 * 1 * 1 * 7


def test_public_names_are_pinned():
    # a fresh interpreter, because importing hsketch.cli or hsketch.experiments
    # adds those submodules to the package namespace; test-only helpers live
    # in tests/_oracles.py, not here
    src = os.path.dirname(os.path.dirname(hsketch.__file__))
    names = subprocess.run(
        [sys.executable, "-c", "import hsketch; print(*(n for n in dir(hsketch) if n[0] != '_'))"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split()
    expect = [
        "CannotCombineError", "ColumnAggregates", "CorruptSketchError", "DomainError",
        "EstimateReport", "FunctionTable", "GroupDescriptor", "GroupMismatchError",
        "HSketchError", "IntegerTowerSketch", "InvalidConfigError", "InvalidGroupError",
        "InvalidRHatError", "InvalidWorkloadError", "NoSamplesError", "RHatTable",
        "RegisterOverflowError", "SamplerSketch", "SaturatedError", "SchemaError",
        "SketchConfig", "SpectrumTable", "TowerSketch", "TruthTable", "WorkloadSpec",
        "column_aggregates", "combine_product", "default_window", "deserialize", "dft",
        "equal_memory_m_prime", "errors", "estimate_f", "estimate_modulo",
        "estimate_support", "estimate_union", "estimator", "gamma_fn",
        "gen_stream", "groups", "idft", "make_group", "modulo_spectrum", "norms",
        "predict_variance", "prf", "rhat_from_pmf", "sample_f_moment", "sampler",
        "signed_representative", "sketch_new", "special", "tau_gra_density",
        "tau_gra_estimate", "theoretical_window", "tower", "truncation_tail",
        "variance_factor", "workloads",
    ]
    assert len(expect) == 59
    assert sorted(names) == expect


def test_a_failing_property_test_fails_without_an_internal_error(tmp_path):
    # on a failure hypothesis imports its example patcher, which warns on
    # import; under the suite's warning filters that must not crash pytest
    pyproject = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "pyproject.toml")
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", pyproject,
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out and "1 failed" in out, out

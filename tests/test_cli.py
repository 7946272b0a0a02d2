import ctypes
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from trexlab import cli, harness
from trexlab.cli import main
from trexlab.datagen import ScenarioSpec, generate
from trexlab.serialize import problem_to_csv
from trexlab.trex import solve_trex


def openblas_threads(set_to=None) -> list:
    """Thread count of every OpenBLAS loaded in this process, after setting
    each to ``set_to`` when given; empty when none is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    counts = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            if hasattr(handle, name.format("get")):
                get, set_ = getattr(handle, name.format("get")), getattr(
                    handle, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                if set_to is not None:
                    set_(set_to)
                counts.append(get())
                break
    return counts


def thread_probe(config, scenario_idx, replicate):
    """Stands in for ``harness.run_cell``: one row naming the process and the
    BLAS thread counts it computes with."""
    threads = "|".join(f"blas_threads={n}" for n in openblas_threads())
    return [{"scenario": scenario_idx, "replicate": replicate, "theorem": "probe",
             "verdict": "not_applicable", "lhs": None, "rhs": None, "u_hat": None,
             "lambda": None, "nu": None, "c": None, "seed": os.getpid(),
             "gates": threads}]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS on two threads, so that a pin to one shows."""
    if not openblas_threads():
        pytest.skip("no OpenBLAS loaded")
    openblas_threads(set_to=2)


@pytest.fixture
def problem_csv(tmp_path):
    problem, _ = generate(ScenarioSpec(n=20, p=6, s=2, seed=5))
    path = tmp_path / "problem.csv"
    path.write_text(problem_to_csv(problem))
    return path, problem


@pytest.fixture
def verify_config(tmp_path):
    cfg = {
        "scenarios": [{"n": 25, "p": 8, "s": 2, "seed": 3}],
        "estimators": ["trex_constrained"],
        "theorems": ["trex_slow", "l1_ordering"],
        "replicates": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestFit:
    def test_trex_fit_matches_library(self, problem_csv, tmp_path):
        path, problem = problem_csv
        out = tmp_path / "fit.json"
        code = main(["fit", str(path), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        fit = solve_trex(problem)
        np.testing.assert_allclose(payload["beta_hat"], fit.beta_hat,
                                   rtol=1e-9, atol=1e-12)
        assert payload["u_hat"] == pytest.approx(fit.u_hat, rel=1e-9)

    def test_pruned_rows_exit_zero(self, tmp_path):
        problem, _ = generate(ScenarioSpec(n=40, p=20, s=2, seed=3))
        path = tmp_path / "problem.csv"
        path.write_text(problem_to_csv(problem))
        out = tmp_path / "fit.json"
        assert main(["fit", str(path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        pruned = payload["diagnostics"]["pruned"]
        assert pruned > 0
        assert pruned == sum(r["pruned"] for r in payload["per_subproblem"])

    def test_fit_json_carries_row_iterations(self, problem_csv, tmp_path):
        path, problem = problem_csv
        out = tmp_path / "fit.json"
        assert main(["fit", str(path), "--out", str(out)]) == 0
        diagnostics = json.loads(out.read_text())["diagnostics"]
        assert diagnostics["row_iterations"] == solve_trex(
            problem).diagnostics["row_iterations"] > 0

    def test_group_spec_file_selects_the_penalty(self, problem_csv, tmp_path):
        path, _ = problem_csv
        groups = tmp_path / "spec.json"
        groups.write_text(json.dumps({"kind": "group",
                                      "partition": [[1, 2], [3, 4, 5], [6]]}))
        out = tmp_path / "fit.json"
        assert main(["fit", str(path), "--groups", str(groups), "--seed", "3", "--c", "0.7",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["spec"]["kind"] == "group"
        assert payload["config"] == {"c": 0.7, "seed": 3}
        diagnostics = payload["diagnostics"]
        assert diagnostics["heuristic"] is True
        assert diagnostics["row_iterations"] > 0
        assert diagnostics["all_converged"] is True

    def test_lasso_requires_penalty(self, problem_csv, capsys):
        path, _ = problem_csv
        code = main(["fit", str(path), "--estimator", "lasso"])
        assert code == 1
        assert "penalty" in capsys.readouterr().err

    def test_lasso_fit(self, problem_csv, tmp_path):
        path, _ = problem_csv
        out = tmp_path / "lasso.json"
        code = main(["fit", str(path), "--estimator", "lasso",
                     "--penalty", "2.0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["estimator"] == "lasso"
        assert payload["lambda"] == 2.0

    def test_unpenalized_indices_one_based(self, problem_csv, tmp_path):
        path, problem = problem_csv
        out = tmp_path / "fit.json"
        code = main(["fit", str(path), "--estimator", "trex-unpenalized",
                     "--unpenalized", "1,3", "--out", str(out)])
        assert code == 0
        beta = np.array(json.loads(out.read_text())["beta_hat"])
        r = problem.y - problem.x @ beta
        np.testing.assert_allclose(problem.x[:, [0, 2]].T @ r, 0.0, atol=1e-7)

    def test_exit_code_follows_all_converged(self, problem_csv, tmp_path, monkeypatch):
        path, _ = problem_csv

        def unconverged(*args, **kwargs):
            fit = solve_trex(*args, **kwargs)
            return replace(fit, diagnostics={**fit.diagnostics, "all_converged": False})

        monkeypatch.setattr(cli, "solve_trex", unconverged)
        assert main(["fit", str(path), "--out", str(tmp_path / "fit.json")]) == 2

    def test_all_unpenalized_is_least_squares(self, problem_csv, tmp_path):
        path, _ = problem_csv
        out = tmp_path / "fit.json"
        assert main(["fit", str(path), "--estimator", "trex-unpenalized",
                     "--unpenalized", "1,2,3,4,5,6", "--out", str(out)]) == 0
        diagnostics = json.loads(out.read_text())["diagnostics"]
        assert diagnostics["mode"] == "least_squares" and diagnostics["all_converged"]

    def test_missing_file_is_error(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_leaves_every_openblas_on_one_thread(self, problem_csv, tmp_path,
                                                 two_blas_threads):
        path, _ = problem_csv
        assert main(["fit", str(path), "--out", str(tmp_path / "fit.json")]) == 0
        assert set(openblas_threads()) == {1}

    def test_finds_openblas_once_and_pins_on_every_call(self, problem_csv, tmp_path,
                                                        two_blas_threads):
        path, _ = problem_csv
        main(["fit", str(path), "--out", str(tmp_path / "fit.json")])
        found = cli._openblas()
        assert len(found) == len(openblas_threads())
        # a later call finds the same handles without a second scan, and
        # still pins a count that was changed in between
        openblas_threads(set_to=2)
        assert main(["fit", str(path), "--out", str(tmp_path / "fit.json")]) == 0
        assert cli._openblas() is found
        assert cli._openblas.cache_info().misses == 1
        assert set(openblas_threads()) == {1}

    def test_malformed_csv_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("2,2\n1.0,1.0\n")
        code = main(["fit", str(bad)])
        assert code == 1

    @pytest.mark.parametrize("payload", [
        {},
        {"problem": {"x": [[1, 2], [3, 4]]}},
        [1, 2, 3],
        {"problem": {"x": {"a": 1}, "y": [1.0, 2.0]}},
        {"problem": {"x": [[1.0, 0.0], [0.0, 1.0]], "y": {"a": 1}}},
    ], ids=["empty", "no_y", "array", "x_object", "y_object"])
    def test_malformed_json_problem_is_one_error_line(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["fit", str(bad)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("flags", [
        ["--bound", "1.0"],
        ["--estimator", "trex-constrained", "--unpenalized", "1"],
        ["--penalty", "2.0"],
        ["--estimator", "lasso", "--penalty", "2.0", "--groups", "spec.json"],
        ["--estimator", "lasso", "--penalty", "2.0", "--c", "1.7"],
        ["--estimator", "lasso", "--penalty", "2.0", "--seed", "9"],
        ["--seed", "9"],
    ], ids=["bound_without_constrained", "unpenalized_without_unpenalized",
            "penalty_without_lasso", "groups_with_lasso", "c_with_lasso", "seed_with_lasso",
            "seed_without_groups"])
    def test_flag_the_estimator_ignores_is_error(self, problem_csv, tmp_path, capsys,
                                                 flags):
        path, _ = problem_csv
        out = tmp_path / "fit.json"
        assert main(["fit", str(path), "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --")
        assert "does not apply" in err[0]
        assert not out.exists()


class TestVerify:
    def test_runs_and_writes_reports(self, verify_config, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(["verify", "--config", str(verify_config),
                     "--out", str(out), "--no-timestamp"])
        assert code == 0
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        text = capsys.readouterr().out
        assert "trex_slow" in text
        assert "total rows: 4" in text

    def test_byte_identical_reruns(self, verify_config, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["verify", "--config", str(verify_config), "--out", str(a),
              "--no-timestamp"])
        main(["verify", "--config", str(verify_config), "--out", str(b),
              "--no-timestamp"])
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()

    def test_workers_compute_on_one_blas_thread(self, verify_config, tmp_path,
                                                monkeypatch, two_blas_threads):
        monkeypatch.setattr(harness, "run_cell", thread_probe)
        out = tmp_path / "reports"
        assert main(["verify", "--config", str(verify_config), "--out", str(out),
                     "--jobs", "2", "--no-timestamp"]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert len(rows) == 2
        assert any(row["seed"] != os.getpid() for row in rows)
        threads = {g for row in rows for g in row["gates"].split("|")}
        assert threads == {"blas_threads=1"}

    def test_serial_and_parallel_reports_identical(self, tmp_path):
        # at this size 1 and 2 BLAS threads give objectives that differ in
        # their last bits, so the reports agree only if both runs compute on
        # the same thread count
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenarios": [{"n": 50, "p": 100, "s": 5, "seed": 7}],
            "theorems": ["trex_slow", "l1_ordering"], "replicates": 3}))
        reports = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["verify", "--config", str(config), "--out", str(out),
                         "--jobs", jobs, "--no-timestamp"]) == 0
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_error(self, verify_config, tmp_path, capsys, jobs):
        code = main(["verify", "--config", str(verify_config),
                     "--out", str(tmp_path / "out"), "--jobs", jobs])
        assert code == 1
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenarios": [], "theorems": ["trex_slow"]}))
        code = main(["verify", "--config", str(bad)])
        assert code == 1

    @pytest.mark.parametrize("change", [
        {"replicate": 5},
        {"compat_refine": True},
        {"solver": {"tol": 1e-6}},
        {"solver": 0.5},
        {"solver": {"allow_unnormalized": True}},
        {"scenarios": [{"p": 8, "s": 2}]},
        {"scenarios": [3]},
        {"scenarios": [{"n": 25, "p": 8, "sed": 1}]},
        {"scenarios": [{"n": 25, "p": 8, "s": 2, "design": {"rh": 0.3}}]},
        {"scenarios": [{"n": 25, "p": 8, "noise": {"kind": "gaussian", "sd": 1.0}}]},
        {"scenarios": [{"n": 25, "p": 8, "signal": {"margin": 0.5, "scale": 2}}]},
        {"norm": {"partition": [[1, 2], [3, 4, 5, 6, 7, 8]]}},
        {"norm": {"kind": "l1", "groups": [[1]]}},
        {"scenarios": [{"n": None, "p": 8, "s": 2}]},
        {"scenarios": [{"n": 25, "p": 8, "s": 2,
                        "design": {"kind": "toeplitz", "rho": "x"}}]},
        {"norm": {"kind": "group", "partition": [1, 2]}},
        {"theorems": "trex_slow"},
        {"compat_samples": -5},
        {"scenarios": [{"n": 25, "p": 8, "s": 2, "design_seed": 4}]},
    ], ids=["top_level_key", "compat_refine", "solver_key", "solver_not_object",
            "solver_allow_unnormalized",
            "scenario_without_n", "scenario_not_object", "scenario_key", "design_key",
            "noise_key", "signal_key", "norm_without_kind", "norm_key",
            "scenario_n_null", "design_rho_string", "partition_not_nested",
            "theorems_string", "compat_samples_negative", "scenario_design_seed"])
    def test_bad_config_fails_with_one_error_line(self, verify_config, tmp_path,
                                                  capsys, change):
        config = json.loads(verify_config.read_text())
        config.update(change)
        verify_config.write_text(json.dumps(config))
        code = main(["verify", "--config", str(verify_config),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_groups_file_without_kind_is_error(self, problem_csv, tmp_path, capsys):
        path, _ = problem_csv
        groups = tmp_path / "spec.json"
        groups.write_text(json.dumps({"partition": [[1, 2], [3, 4, 5], [6]]}))
        code = main(["fit", str(path), "--groups", str(groups),
                     "--out", str(tmp_path / "fit.json")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestReport:
    def test_summary_from_csv(self, verify_config, tmp_path, capsys):
        out = tmp_path / "reports"
        main(["verify", "--config", str(verify_config), "--out", str(out),
              "--no-timestamp"])
        capsys.readouterr()
        code = main(["report", str(out / "report.csv")])
        assert code == 0
        text = capsys.readouterr().out
        assert "total rows: 4" in text

    def test_summary_from_json(self, verify_config, tmp_path, capsys):
        out = tmp_path / "reports"
        main(["verify", "--config", str(verify_config), "--out", str(out),
              "--no-timestamp"])
        capsys.readouterr()
        code = main(["report", str(out / "report.json")])
        assert code == 0
        assert "l1_ordering" in capsys.readouterr().out

    @pytest.mark.parametrize("name,text", [
        ("report.csv", ""),
        ("report.csv", "# generated 2026-01-01\n"),
        ("report.csv", "scenario,replicate,theorem\n0,0,trex_slow\n"),
        ("report.csv", "theorem,verdict,lhs,rhs\ntrex_slow,maybe,1.0,2.0\n"),
        ("report.json", "{}"),
        ("report.json", '{"rows": [{"theorem": "trex_slow"}]}'),
        ("report.json", "[]"),
    ], ids=["csv_empty", "csv_comment_only", "csv_without_columns", "csv_bad_verdict",
            "json_without_rows", "json_row_without_columns", "json_array"])
    def test_bad_report_is_one_error_line(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_header_only_csv_is_zero_rows(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        path.write_text("theorem,verdict,lhs,rhs\n")
        assert main(["report", str(path)]) == 0
        assert "total rows: 0" in capsys.readouterr().out

import json

import numpy as np
import pytest

from trexlab.cli import main
from trexlab.datagen import ScenarioSpec, generate
from trexlab.serialize import problem_to_csv, problem_to_dict
from trexlab.trex import solve_trex


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

    def test_missing_file_is_error(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_csv_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("2,2\n1.0,1.0\n")
        code = main(["fit", str(bad)])
        assert code == 1


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

    def test_bad_config_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenarios": [], "theorems": ["trex_slow"]}))
        code = main(["verify", "--config", str(bad)])
        assert code == 1


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

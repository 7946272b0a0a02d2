import json

import numpy as np
import pytest

from trexlab.datagen import ScenarioSpec, generate
from trexlab.errors import ConfigError
from trexlab.lasso import fit_lasso
from trexlab.serialize import (
    ExperimentConfig,
    ParseError,
    lasso_fit_to_dict,
    load_problem,
    problem_from_csv,
    problem_from_dict,
    problem_to_csv,
    problem_to_dict,
    trex_fit_to_dict,
)
from trexlab.trex import solve_trex

from conftest import random_problem


class TestCsv:
    def test_roundtrip_bitwise(self, rng):
        problem = random_problem(rng, 9, 4)
        again = problem_from_csv(problem_to_csv(problem))
        np.testing.assert_array_equal(again.x, problem.x)
        np.testing.assert_array_equal(again.y, problem.y)
        assert again.normalized == problem.normalized

    def test_unnormalized_detected(self):
        text = "2,1\n1.0,3.0\n2.0,4.0\n"
        problem = problem_from_csv(text)
        assert not problem.normalized
        np.testing.assert_allclose(problem.y, [1.0, 2.0])
        np.testing.assert_allclose(problem.x[:, 0], [3.0, 4.0])

    def test_empty_file(self):
        with pytest.raises(ParseError):
            problem_from_csv("")

    def test_bad_header_reports_line_one(self):
        with pytest.raises(ParseError) as err:
            problem_from_csv("2\n1.0,1.0\n")
        assert err.value.line == 1

    def test_short_row_reports_its_line(self):
        with pytest.raises(ParseError) as err:
            problem_from_csv("2,2\n1.0,1.0,1.0\n1.0,1.0\n")
        assert err.value.line == 3

    def test_non_numeric_reports_its_line(self):
        with pytest.raises(ParseError) as err:
            problem_from_csv("1,1\n1.0,abc\n")
        assert err.value.line == 2

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError):
            problem_from_csv("3,1\n1.0,1.0\n")


class TestJson:
    def test_roundtrip_with_truth(self):
        problem, truth = generate(ScenarioSpec(n=12, p=5, s=2, seed=3))
        d = problem_to_dict(problem, truth, seed=3)
        blob = json.dumps(d)
        p2, t2, seed = problem_from_dict(json.loads(blob))
        np.testing.assert_array_equal(p2.x, problem.x)
        np.testing.assert_array_equal(p2.y, problem.y)
        np.testing.assert_array_equal(t2.beta_star, truth.beta_star)
        np.testing.assert_array_equal(t2.epsilon, truth.epsilon)
        assert seed == 3

    def test_support_serialized_one_based(self):
        problem, truth = generate(ScenarioSpec(n=10, p=4, s=2, seed=1))
        d = problem_to_dict(problem, truth)
        assert d["ground_truth"]["support"] == [int(i) + 1 for i in truth.support]

    def test_load_problem_by_extension(self, tmp_path, rng):
        problem = random_problem(rng, 8, 3)
        csv_path = tmp_path / "prob.csv"
        csv_path.write_text(problem_to_csv(problem))
        loaded, truth = load_problem(str(csv_path))
        assert truth is None
        np.testing.assert_array_equal(loaded.x, problem.x)

        json_path = tmp_path / "prob.json"
        json_path.write_text(json.dumps(problem_to_dict(problem)))
        loaded2, _ = load_problem(str(json_path))
        np.testing.assert_array_equal(loaded2.y, problem.y)


class TestFitSerialization:
    def test_trex_fit_json_safe(self, rng):
        problem = random_problem(rng, 10, 3)
        fit = solve_trex(problem)
        d = trex_fit_to_dict(fit)
        json.dumps(d)
        assert d["estimator"] == "trex"
        assert len(d["per_subproblem"]) == 6
        np.testing.assert_allclose(d["beta_hat"], fit.beta_hat)

    def test_lasso_fit_json_safe(self, rng):
        problem = random_problem(rng, 10, 3)
        fit = fit_lasso(problem, 1.0)
        d = lasso_fit_to_dict(fit)
        json.dumps(d)
        assert d["lambda"] == 1.0
        assert d["converged"] is True


class TestExperimentConfig:
    def _dict(self, **kw):
        base = {
            "scenarios": [{"n": 20, "p": 8, "s": 2, "seed": 1}],
            "estimators": ["trex_constrained"],
            "theorems": ["trex_slow"],
            "replicates": 2,
        }
        base.update(kw)
        return base

    def test_from_dict(self):
        cfg = ExperimentConfig.from_dict(self._dict())
        assert cfg.replicates == 2
        assert cfg.scenarios[0].n == 20

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(self._dict(theorems=["fast_enough"]))

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(self._dict(estimators=["ridge"]))

    @pytest.mark.parametrize("estimator", ["lasso_grid", "trex_unpenalized"])
    def test_estimators_the_harness_cannot_run_rejected(self, estimator):
        # run_cell fits only plain or constrained TREX; accepting these would
        # silently report plain TREX under another name
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(self._dict(estimators=[estimator]))

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self._dict()))
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.theorems == ("trex_slow",)

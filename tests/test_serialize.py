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


def _problem_dict(problem) -> dict:
    """The JSON container of a problem."""
    return {"problem": {"n": problem.n, "p": problem.p, "y": problem.y.tolist(),
                        "x": problem.x.tolist(), "normalized": problem.normalized}}


class TestJson:
    def test_roundtrip_with_truth(self):
        # a ground_truth block, a seed or any other top-level key is ignored
        problem, truth = generate(ScenarioSpec(n=12, p=5, s=2, seed=3))
        d = _problem_dict(problem)
        d["ground_truth"] = {"beta_star": truth.beta_star.tolist(), "sigma": None}
        d["seed"] = 3
        p2 = problem_from_dict(json.loads(json.dumps(d)))
        np.testing.assert_array_equal(p2.x, problem.x)
        np.testing.assert_array_equal(p2.y, problem.y)
        assert p2.normalized

    def test_load_problem_by_extension(self, tmp_path, rng):
        problem = random_problem(rng, 8, 3)
        csv_path = tmp_path / "prob.csv"
        csv_path.write_text(problem_to_csv(problem))
        loaded = load_problem(str(csv_path))
        np.testing.assert_array_equal(loaded.x, problem.x)

        json_path = tmp_path / "prob.json"
        json_path.write_text(json.dumps(_problem_dict(problem)))
        loaded2 = load_problem(str(json_path))
        np.testing.assert_array_equal(loaded2.y, problem.y)

    @pytest.mark.parametrize("change", [
        {"x": {"a": 1}}, {"y": {"a": 1}}, {"x": "abc"}, {"y": [1.0, None]},
        {"x": [[1.0, 0.0], [0.0]]}, {"y": [True, False]}, {"normalized": "yes"},
    ], ids=["x_object", "y_object", "x_string", "y_null_entry", "x_ragged", "y_bools",
            "normalized_string"])
    def test_wrong_types_raise_parse_error(self, change):
        d = {"problem": {"x": [[1.0, 0.0], [0.0, 1.0]], "y": [1.0, 2.0]}}
        d["problem"].update(change)
        with pytest.raises(ParseError):
            problem_from_dict(d)


class TestFitSerialization:
    def test_trex_fit_json_safe(self, rng):
        problem = random_problem(rng, 10, 3)
        fit = solve_trex(problem)
        d = trex_fit_to_dict(fit)
        json.dumps(d)
        assert d["estimator"] == "trex"
        assert len(d["per_subproblem"]) == 6
        # the config block holds the settings a caller can change
        assert d["config"] == {"c": 0.5, "seed": 0}
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

    def test_omitted_keys_take_the_field_defaults(self):
        scenario = {"n": 20, "p": 8, "s": 2}
        cfg = ExperimentConfig.from_dict({"scenarios": [scenario]})
        assert cfg == ExperimentConfig(scenarios=(ScenarioSpec.from_dict(scenario),))

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(self._dict(theorems=["fast_enough"]))

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(self._dict(estimators=["ridge"]))

    @pytest.mark.parametrize("estimators", [["lasso_grid"], ["trex_unpenalized"],
                                            ["trex", "trex_constrained"]],
                             ids="+".join)
    def test_estimators_the_harness_cannot_run_rejected(self, estimators):
        # run_cell fits only plain or constrained TREX, one per cell, and
        # report.csv has no estimator column; accepting these would silently
        # report plain TREX under another name, or drop one estimator
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(self._dict(estimators=estimators))

    @pytest.mark.parametrize("theorem", ["trex_fast_via_lasso_kappa",
                                         "trex_fast_compat_kappa"])
    def test_kappa_theorems_rejected(self, theorem):
        # ids of the fast-rate bounds at other kappas do not exist: a config
        # carries no kappas, and a direct call keeps the plain id
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(self._dict(theorems=["trex_slow", theorem]))

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self._dict()))
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.theorems == ("trex_slow",)

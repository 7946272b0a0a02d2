import argparse
import inspect
from dataclasses import fields

import numpy as np
import pytest

import trexlab
from trexlab import cli
from trexlab.bounds import estimate_compatibility, verify_l1_ordering
from trexlab.datagen import ScenarioSpec
from trexlab.errors import TrexlabError
from trexlab.lasso import fit_lasso
from trexlab.model import GroundTruth, RegressionProblem, make_problem
from trexlab.norms import l1_spec, prox_omega
from trexlab.serialize import ExperimentConfig, problem_from_csv
from trexlab.trex import SolverConfig, TrexFit

# the package's public names; a name added to or dropped from
# trexlab/__init__.py has to be added to or dropped from this list too
PUBLIC = [
    "BoundReport", "CompatibilityEstimate", "DesignSpec", "GroundTruth", "LassoFit",
    "NoiseSpec", "NormSpec", "RegressionProblem", "ScenarioSpec", "SignalSpec",
    "SolverConfig", "TrexFit", "bounds", "check_assumption_signal_strength",
    "check_assumption_small_signal", "datagen", "errors", "estimate_compatibility",
    "fit_lasso", "generate", "group_spec", "kkt_residual", "l1_spec", "lasso",
    "lasso_objective", "make_problem", "model", "normalize_columns", "norms", "omega",
    "omega_dual", "prediction_loss", "prox_omega", "singleton_groups", "solve_trex",
    "solve_trex_constrained", "solve_trex_unpenalized", "trex", "trex_objective",
    "verify_l1_ordering", "verify_lasso_fast", "verify_lasso_slow",
    "verify_trex_fast_compat", "verify_trex_fast_via_lasso", "verify_trex_slow",
    "weighted_l1_spec",
]

# the settings a caller can change: a setting added to either dataclass, and
# so to the keys an experiment config accepts, has to be added here too
SOLVER_FIELDS = ["c", "seed"]
EXPERIMENT_FIELDS = ["scenarios", "estimators", "theorems", "replicates", "solver", "norm",
                     "compat_samples"]
SCENARIO_FIELDS = ["n", "p", "s", "design", "noise", "signal", "seed"]
# the arguments and flags of each subcommand, positional ones by name
CLI_ARGUMENTS = {
    "fit": ["problem", "--estimator", "--c", "--penalty", "--bound", "--unpenalized",
            "--groups", "--seed", "--out"],
    "verify": ["--config", "--out", "--jobs", "--no-timestamp"],
    "report": ["report"],
}


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert trexlab.__all__ == PUBLIC


def test_config_fields_are_pinned():
    assert [f.name for f in fields(SolverConfig)] == SOLVER_FIELDS
    assert [f.name for f in fields(ExperimentConfig)] == EXPERIMENT_FIELDS
    assert [f.name for f in fields(ScenarioSpec)] == SCENARIO_FIELDS


def test_cli_arguments_are_pinned():
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    found = {name: [a.option_strings[0] if a.option_strings else a.dest
                    for a in parser._actions if not isinstance(a, argparse._HelpAction)]
             for name, parser in sub.choices.items()}
    assert found == CLI_ARGUMENTS


def test_constructor_arguments_are_pinned():
    # support and sparsity are derived from beta_star, and make_problem
    # always normalizes
    assert [f.name for f in fields(GroundTruth) if f.init] == ["beta_star", "epsilon",
                                                              "sigma"]
    assert list(inspect.signature(make_problem).parameters) == ["x", "y"]


def _problem():
    x = np.array([[1.0, 1.0], [1.0, -1.0]])
    return RegressionProblem(x, np.array([1.0, 0.5]), normalized=True)


def _fit_at_zero_u_hat():
    return TrexFit(np.zeros(2), 0.0, 0.0, None, (), l1_spec(), SolverConfig())


BAD_INPUTS = {
    "csv_empty": lambda: problem_from_csv(""),
    "compat_negative_samples": lambda: estimate_compatibility(_problem(), [0], samples=-1),
    "compat_empty_support": lambda: estimate_compatibility(_problem(), []),
    "l1_ordering_zero_u_hat": lambda: verify_l1_ordering(_problem(), _fit_at_zero_u_hat()),
    "lasso_zero_penalty": lambda: fit_lasso(_problem(), 0.0),
    "problem_not_finite": lambda: RegressionProblem(np.array([[np.nan]]), np.ones(1)),
    "truth_zero_sigma": lambda: GroundTruth(np.ones(2), np.zeros(2), 0.0),
    "prox_negative_step": lambda: prox_omega(l1_spec(), np.ones(2), -1.0),
}


@pytest.mark.parametrize("call", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises_a_trexlab_error(call):
    # every package error is also a ValueError, as these checks raised before
    with pytest.raises(TrexlabError) as err:
        call()
    assert isinstance(err.value, ValueError)

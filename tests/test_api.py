import trexlab

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


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert trexlab.__all__ == PUBLIC

"""Tuning-free sparse regression solvers and bound-verification harness."""

from .model import (
    GroundTruth,
    RegressionProblem,
    make_problem,
    normalize_columns,
    prediction_loss,
)
from .norms import (
    NormSpec,
    group_spec,
    l1_spec,
    omega,
    omega_dual,
    prox_omega,
    singleton_groups,
    weighted_l1_spec,
)
from .lasso import LassoFit, fit_lasso, kkt_residual, lasso_objective
from .trex import (
    SolverConfig,
    TrexFit,
    solve_trex,
    solve_trex_constrained,
    solve_trex_unpenalized,
    trex_objective,
)
from .bounds import (
    BoundReport,
    CompatibilityEstimate,
    check_assumption_signal_strength,
    check_assumption_small_signal,
    estimate_compatibility,
    verify_l1_ordering,
    verify_lasso_fast,
    verify_lasso_slow,
    verify_trex_fast_compat,
    verify_trex_fast_via_lasso,
    verify_trex_slow,
)
from .datagen import DesignSpec, NoiseSpec, ScenarioSpec, SignalSpec, generate

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

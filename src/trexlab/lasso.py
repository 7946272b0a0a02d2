"""Cyclic coordinate descent for the l1-penalized least-squares objective.

The objective is ||y - x @ beta||_2^2 + 2 * lam * ||beta||_1 (note the factor
two on the penalty, kept everywhere so that bound constants stay literal).
Under sqrt(n)-normalized columns the coordinate update is
soft_threshold(x_j @ r_partial / n, lam / n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotNormalizedError
from .model import RegressionProblem

MAX_SWEEPS = 100_000
COORD_TOL = 1e-10
KKT_RTOL = 1e-6


@dataclass(frozen=True)
class LassoFit:
    beta_hat: np.ndarray
    lam: float
    kkt_residual: float
    iterations: int
    converged: bool
    objective: float

    def __post_init__(self):
        b = np.array(self.beta_hat, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "beta_hat", b)


def lasso_objective(problem: RegressionProblem, beta, lam: float) -> float:
    r = problem.y - problem.x @ np.asarray(beta, dtype=float)
    return float(r @ r) + 2.0 * lam * float(np.sum(np.abs(beta)))


def kkt_residual(problem: RegressionProblem, beta, lam: float) -> float:
    """Stationarity violation of the coordinate-wise optimality conditions.

    Aggregates max(0, ||x.T r||_inf - lam) with, per nonzero coordinate,
    |x_j @ r - lam * sign(beta_j)|, as a max.
    """
    beta = np.asarray(beta, dtype=float)
    corr = problem.x.T @ (problem.y - problem.x @ beta)
    viol = max(0.0, float(np.max(np.abs(corr))) - lam)
    nz = np.flatnonzero(beta)
    if nz.size:
        viol = max(viol, float(np.max(np.abs(corr[nz] - lam * np.sign(beta[nz])))))
    return viol


def fit_lasso(problem: RegressionProblem, lam: float) -> LassoFit:
    """Solve the penalized least-squares problem by cyclic coordinate descent
    from beta = 0, for at most ``MAX_SWEEPS`` sweeps.

    Convergence requires both a max coordinate change per sweep below
    COORD_TOL * (1 + ||beta||_inf) and a KKT residual below KKT_RTOL * lam.
    A non-converged run is returned flagged, never silently. ``objective`` is
    the value after the last sweep.
    """
    if lam <= 0:
        raise ConfigError("lam must be positive")
    if not problem.normalized:
        raise NotNormalizedError("fit_lasso expects sqrt(n)-normalized columns")
    x, y = problem.x, problem.y
    n, p = problem.n, problem.p
    col_sq = np.einsum("ij,ij->j", x, x)
    beta = np.zeros(p)
    r = y.copy()

    objective = float(y @ y)
    converged = False
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        max_delta = 0.0
        for j in range(p):
            bj = beta[j]
            if bj != 0.0:
                r += x[:, j] * bj
            rho = float(x[:, j] @ r)
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[j]
            if new != 0.0:
                r -= x[:, j] * new
            beta[j] = new
            max_delta = max(max_delta, abs(new - bj))
        objective = float(r @ r) + 2.0 * lam * float(np.sum(np.abs(beta)))
        if max_delta <= COORD_TOL * (1.0 + float(np.max(np.abs(beta)))):
            if kkt_residual(problem, beta, lam) <= KKT_RTOL * lam:
                converged = True
                break

    kkt = kkt_residual(problem, beta, lam)
    return LassoFit(
        beta_hat=beta,
        lam=float(lam),
        kkt_residual=kkt,
        iterations=sweeps,
        converged=converged,
        objective=objective,
    )

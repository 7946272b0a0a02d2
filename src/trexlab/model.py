"""Regression data model and shared numeric helpers.

The linear model is y = x @ beta_star + epsilon with an n-by-p design whose
columns are scaled to Euclidean norm sqrt(n). All containers are immutable
after construction so they can be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NotNormalizedError, ZeroColumnError

NORMALIZATION_ATOL = 1e-8


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RegressionProblem:
    """A dense design matrix and response pair.

    ``normalized`` records whether every column of ``x`` has norm sqrt(n);
    the solvers and the reference lasso refuse unnormalized problems with
    ``NotNormalizedError``.
    """

    x: np.ndarray
    y: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(self.x))
        object.__setattr__(self, "y", _frozen(self.y))
        if self.x.ndim != 2:
            raise DimensionError(f"design must be 2-d, got shape {self.x.shape}")
        if self.y.ndim != 1 or self.y.shape[0] != self.x.shape[0]:
            raise DimensionError(
                f"response shape {self.y.shape} does not match design {self.x.shape}"
            )
        n, p = self.x.shape
        if n < 1 or p < 1:
            raise DimensionError("need n >= 1 and p >= 1")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ConfigError("design and response must be finite")
        if self.normalized and not columns_normalized(self.x):
            raise NotNormalizedError(
                "normalized flag set but some column norm differs from sqrt(n)"
            )

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class GroundTruth:
    """Synthetic-only knowledge: true coefficients and noise, with the support
    and sparsity of ``beta_star`` derived from it."""

    beta_star: np.ndarray
    epsilon: np.ndarray
    sigma: float
    support: np.ndarray = field(init=False)
    sparsity: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "beta_star", _frozen(self.beta_star))
        object.__setattr__(self, "epsilon", _frozen(self.epsilon))
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        support = np.flatnonzero(self.beta_star)
        object.__setattr__(self, "support", _frozen(support, dtype=int))
        object.__setattr__(self, "sparsity", int(support.size))


def normalize_columns(x) -> tuple[np.ndarray, np.ndarray]:
    """Rescale every column of ``x`` to Euclidean norm sqrt(n).

    Returns the rescaled matrix and the per-column multipliers ``scale`` such
    that the returned matrix equals ``x * scale``. Coefficient estimates in
    normalized coordinates map back to original coordinates as
    ``beta_original = scale * beta_normalized``.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    norms = np.linalg.norm(x, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroColumnError(int(zero[0]))
    scale = np.sqrt(n) / norms
    return x * scale, scale


def columns_normalized(x) -> bool:
    """Whether every column of ``x`` has norm sqrt(n), within NORMALIZATION_ATOL."""
    norms = np.linalg.norm(x, axis=0)
    return bool(np.max(np.abs(norms - np.sqrt(x.shape[0]))) <= NORMALIZATION_ATOL)


def make_problem(x, y):
    """Build a :class:`RegressionProblem` with sqrt(n)-normalized columns.

    Returns ``(problem, scale)``, ``scale`` as in :func:`normalize_columns`.
    """
    xn, scale = normalize_columns(x)
    return RegressionProblem(xn, y, normalized=True), scale


def prediction_loss(problem: RegressionProblem, truth: GroundTruth, beta) -> float:
    """In-sample prediction loss ||x (beta - beta_star)||_2^2 / n."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (problem.p,):
        raise DimensionError(f"beta has shape {beta.shape}, expected ({problem.p},)")
    diff = problem.x @ (beta - truth.beta_star)
    return float(diff @ diff) / problem.n

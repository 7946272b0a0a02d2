"""Seeded synthetic problem generation.

Scenarios span the regimes the prediction-bound assumptions delineate:
design correlation (iid Gaussian, Toeplitz rows, exactly orthogonal,
deliberately duplicated columns), noise tails and serial correlation
(Gaussian, Student-t, AR(1)), and signal strength (fixed coefficients,
or rescaled so a named assumption holds with a chosen margin).

All randomness flows from the scenario seed through numpy's PCG64 generator,
so identical specs reproduce bit-identical instances on any platform.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, config_block
from .model import GroundTruth, RegressionProblem, normalize_columns

IID_GAUSSIAN = "iid_gaussian"
TOEPLITZ = "toeplitz"
ORTHOGONAL = "orthogonal"
DUPLICATED = "duplicated_columns"

NOISE_GAUSSIAN = "gaussian"
NOISE_STUDENT_T = "student_t"
NOISE_AR1 = "ar1"

SIGNAL_FIXED = "fixed_beta"
SIGNAL_SMALL = "scaled_to_small_signal"
SIGNAL_STRONG = "scaled_to_signal_strength"
SIGNAL_GROUP = "group_sparse"


@dataclass(frozen=True)
class DesignSpec:
    kind: str = IID_GAUSSIAN
    rho: float = 0.0
    duplicates: int = 0


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = NOISE_GAUSSIAN
    sigma: float = 1.0
    df: float = 5.0
    rho: float = 0.5


@dataclass(frozen=True)
class SignalSpec:
    kind: str = SIGNAL_SMALL
    margin: float = 0.9
    values: tuple = None
    c: float = 0.5
    groups_active: int = 1
    group_size: int = 4


@dataclass(frozen=True)
class ScenarioSpec:
    n: int = 50
    p: int = 100
    s: int = 5
    design: DesignSpec = field(default_factory=DesignSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    signal: SignalSpec = field(default_factory=SignalSpec)
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1 or not (0 <= self.s <= self.p):
            raise ConfigError("need n >= 1, p >= 1 and 0 <= s <= p")
        if self.design.kind == ORTHOGONAL and self.p > self.n:
            raise ConfigError("orthogonal design requires p <= n")
        if self.design.kind == TOEPLITZ and not (-1.0 < self.design.rho < 1.0):
            raise ConfigError("Toeplitz correlation must lie in (-1, 1)")
        if self.design.kind == DUPLICATED and self.design.duplicates < 1:
            raise ConfigError("duplicated-columns design needs duplicates >= 1")
        if self.noise.sigma <= 0:
            raise ConfigError("noise sigma must be positive")
        if self.noise.kind == NOISE_STUDENT_T:
            if self.noise.df <= 1.0:
                raise ConfigError("Student-t noise requires df > 1")
            if self.noise.df <= 2.0:
                warnings.warn("Student-t noise with df <= 2 has infinite variance; "
                              "margin scaling remains per-realization only",
                              stacklevel=2)
        if self.noise.kind == NOISE_AR1 and not (-1.0 < self.noise.rho < 1.0):
            raise ConfigError("AR(1) correlation must lie in (-1, 1)")
        if self.signal.kind == SIGNAL_FIXED:
            if self.signal.values is None or len(self.signal.values) != self.p:
                raise ConfigError("fixed_beta needs one value per predictor")
        elif self.signal.kind == SIGNAL_GROUP:
            if self.signal.groups_active * self.signal.group_size > self.p:
                raise ConfigError("active groups exceed the predictor count")
        elif self.signal.margin <= 0:
            raise ConfigError("margin must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        """The scenario of a JSON object; a key it omits takes the field's default."""
        config_block(d, cls, "scenario", required=("n", "p"))
        design = config_block(d.get("design", {}), DesignSpec, "design")
        noise = config_block(d.get("noise", {}), NoiseSpec, "noise")
        sig = dict(config_block(d.get("signal", {}), SignalSpec, "signal",
                                items={"values": (int, float)}))
        if "values" in sig and sig["values"] is not None:
            sig["values"] = tuple(sig["values"])
        return cls(design=DesignSpec(**design), noise=NoiseSpec(**noise),
                   signal=SignalSpec(**sig),
                   **{k: int(d[k]) for k in ("n", "p", "s", "seed") if k in d})


def _draw_design(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    n, p = spec.n, spec.p
    kind = spec.design.kind
    if kind == IID_GAUSSIAN:
        return rng.standard_normal((n, p))
    if kind == TOEPLITZ:
        rho = spec.design.rho
        cov = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        chol = np.linalg.cholesky(cov + 1e-12 * np.eye(p))
        return rng.standard_normal((n, p)) @ chol.T
    if kind == ORTHOGONAL:
        q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        return q * np.sqrt(n)
    if kind == DUPLICATED:
        x = rng.standard_normal((n, p))
        # pair up the leading columns: (0,1), (2,3), ... share one draw
        for d in range(min(spec.design.duplicates, p // 2)):
            x[:, 2 * d + 1] = x[:, 2 * d]
        return x
    raise ConfigError(f"unknown design kind {kind!r}")


def _draw_noise(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    n = spec.n
    noise = spec.noise
    if noise.kind == NOISE_GAUSSIAN:
        return noise.sigma * rng.standard_normal(n)
    if noise.kind == NOISE_STUDENT_T:
        return noise.sigma * rng.standard_t(noise.df, size=n)
    if noise.kind == NOISE_AR1:
        rho = noise.rho
        eps = np.empty(n)
        eps[0] = noise.sigma * rng.standard_normal()
        innov_sd = noise.sigma * np.sqrt(1.0 - rho**2)
        for t in range(1, n):
            eps[t] = rho * eps[t - 1] + innov_sd * rng.standard_normal()
        return eps
    raise ConfigError(f"unknown noise kind {noise.kind!r}")


def _signal_direction(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    p = spec.p
    sig = spec.signal
    beta = np.zeros(p)
    if sig.kind == SIGNAL_FIXED:
        return np.asarray(sig.values, dtype=float)
    if sig.kind == SIGNAL_GROUP:
        active = sig.groups_active * sig.group_size
        beta[:active] = rng.choice([-1.0, 1.0], size=active)
        return beta
    beta[: spec.s] = rng.choice([-1.0, 1.0], size=spec.s)
    return beta


def generate(spec: ScenarioSpec) -> tuple[RegressionProblem, GroundTruth]:
    """Draw one synthetic instance: normalized design, scaled signal, noise."""
    rng = np.random.default_rng(spec.seed)
    x, _ = normalize_columns(_draw_design(spec, rng))
    beta = _signal_direction(spec, rng)
    eps = _draw_noise(spec, rng)

    sig = spec.signal
    if sig.kind in (SIGNAL_SMALL, SIGNAL_GROUP) and np.any(beta):
        # scale so ||beta||_1 hits margin times the small-signal threshold
        noise_dual = float(np.max(np.abs(x.T @ eps)))
        if noise_dual > 0:
            target = sig.margin * 0.0625 * float(eps @ eps) / noise_dual
            beta = beta * target / float(np.sum(np.abs(beta)))
    elif sig.kind == SIGNAL_STRONG and np.any(beta):
        noise_dual = float(np.max(np.abs(x.T @ eps)))
        lhs = float(np.max(np.abs(x.T @ (x @ beta))))
        if lhs > 0:
            target = sig.margin * (1.0 + 2.0 / sig.c) * noise_dual
            beta = beta * target / lhs

    y = x @ beta + eps
    problem = RegressionProblem(x, y, normalized=True)
    truth = GroundTruth(beta_star=beta, epsilon=eps, sigma=spec.noise.sigma)
    return problem, truth


def derive_seed(base_seed: int, key: str) -> int:
    """Stable (platform-independent) seed derivation from a string key."""
    digest = hashlib.sha256(f"{base_seed}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)

"""File formats: problems (CSV / JSON), fits, and experiment configs.

CSV problem format: a header row "n,p", then n rows of p + 1 comma-separated
values, the response first followed by the design row. The JSON container
carries the problem plus optional ground truth and an RNG seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, config_block
from .model import GroundTruth, RegressionProblem, columns_normalized
from .norms import NormSpec
from .datagen import ScenarioSpec
from .trex import SolverConfig, TrexFit
from .lasso import LassoFit


class ParseError(ValueError):
    def __init__(self, message: str, line: int = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def problem_to_csv(problem: RegressionProblem) -> str:
    lines = [f"{problem.n},{problem.p}"]
    for i in range(problem.n):
        row = [repr(float(problem.y[i]))] + [repr(float(v)) for v in problem.x[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def problem_from_csv(text: str) -> RegressionProblem:
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise ParseError("empty file")
    head = lines[0].split(",")
    if len(head) != 2:
        raise ParseError('expected header "n,p"', line=1)
    try:
        n, p = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError('header values must be integers', line=1) from None
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise ParseError(f"expected {n} data rows, found {len(body)}", line=len(lines))
    y = np.empty(n)
    x = np.empty((n, p))
    for i, ln in enumerate(body):
        parts = ln.split(",")
        if len(parts) != p + 1:
            raise ParseError(f"expected {p + 1} values, found {len(parts)}",
                             line=i + 2)
        try:
            vals = [float(v) for v in parts]
        except ValueError:
            raise ParseError("non-numeric value", line=i + 2) from None
        y[i] = vals[0]
        x[i] = vals[1:]
    return RegressionProblem(x, y, normalized=columns_normalized(x))


def problem_to_dict(problem: RegressionProblem, truth: GroundTruth = None,
                    seed: int = None) -> dict:
    out = {
        "problem": {
            "n": problem.n,
            "p": problem.p,
            "y": problem.y.tolist(),
            "x": problem.x.tolist(),
            "normalized": problem.normalized,
        }
    }
    if truth is not None:
        out["ground_truth"] = {
            "beta_star": truth.beta_star.tolist(),
            "epsilon": truth.epsilon.tolist(),
            "sigma": truth.sigma,
            "support": [int(i) + 1 for i in truth.support],
        }
    if seed is not None:
        out["seed"] = seed
    return out


def problem_from_dict(d: dict):
    pr = d["problem"]
    problem = RegressionProblem(np.asarray(pr["x"], dtype=float),
                                np.asarray(pr["y"], dtype=float),
                                normalized=bool(pr.get("normalized", False)))
    truth = None
    if "ground_truth" in d:
        gt = d["ground_truth"]
        truth = GroundTruth(np.asarray(gt["beta_star"], dtype=float),
                            np.asarray(gt["epsilon"], dtype=float),
                            float(gt["sigma"]))
    return problem, truth, d.get("seed")


def load_problem(path: str):
    """Load a problem file by extension; returns (problem, truth_or_None)."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        problem, truth, _ = problem_from_dict(json.loads(text))
        return problem, truth
    return problem_from_csv(text), None


def trex_fit_to_dict(fit: TrexFit) -> dict:
    return {
        "estimator": "trex",
        "beta_hat": fit.beta_hat.tolist(),
        "u_hat": fit.u_hat,
        "objective": fit.objective,
        "winner": list(fit.winner) if fit.winner is not None else None,
        "per_subproblem": [
            {"identity": list(r.identity), "objective": r.objective,
             "converged": r.converged, "feasible": r.feasible,
             "pruned": r.pruned}
            for r in fit.per_subproblem
        ],
        "spec": fit.spec.to_dict(),
        "config": {"c": fit.config.c, "max_iterations": fit.config.max_iterations,
                   "tolerance": fit.config.tolerance, "seed": fit.config.seed},
        "diagnostics": {k: v for k, v in fit.diagnostics.items()
                        if isinstance(v, (bool, int, float, str, list, type(None)))},
    }


def lasso_fit_to_dict(fit: LassoFit) -> dict:
    return {
        "estimator": "lasso",
        "beta_hat": fit.beta_hat.tolist(),
        "lambda": fit.lam,
        "kkt_residual": fit.kkt_residual,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "objective": fit.objective,
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of a verification run."""

    scenarios: tuple
    estimators: tuple = ("trex_constrained",)
    theorems: tuple = ("trex_slow", "l1_ordering")
    replicates: int = 1
    solver: SolverConfig = field(default_factory=SolverConfig)
    norm: NormSpec = None
    compat_samples: int = 500

    def __post_init__(self):
        if not self.scenarios or not self.estimators or not self.theorems:
            raise ConfigError("scenarios, estimators and theorems must be nonempty")
        from .bounds import THEOREM_IDS
        bad = [t for t in self.theorems if t not in THEOREM_IDS]
        if bad:
            raise ConfigError(f"unknown theorem ids: {bad}")
        bad = [t for t in self.theorems if t.endswith("_kappa")]
        if bad:
            raise ConfigError(f"theorems {bad} need explicit kappas, which an "
                              "experiment config does not carry")
        bad = [e for e in self.estimators if e not in ("trex", "trex_constrained")]
        if bad:
            raise ConfigError(f"unknown estimators: {bad}")
        if len(set(self.estimators)) > 1:
            # run_cell fits one per cell: report.csv would drop the other
            raise ConfigError("name one of trex and trex_constrained, not both")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if self.compat_samples < 0:
            raise ConfigError("compat_samples must be nonnegative")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        config_block(d, cls, "config",
                     items={"scenarios": dict, "estimators": str, "theorems": str})
        solver = SolverConfig(**config_block(d.get("solver", {}), SolverConfig, "solver"))
        norm = NormSpec.from_dict(d["norm"]) if d.get("norm") else None
        return cls(
            scenarios=tuple(ScenarioSpec.from_dict(s) for s in d.get("scenarios", [])),
            estimators=tuple(d.get("estimators", ["trex_constrained"])),
            theorems=tuple(d.get("theorems", ["trex_slow", "l1_ordering"])),
            replicates=int(d.get("replicates", 1)),
            solver=solver,
            norm=norm,
            compat_samples=int(d.get("compat_samples", 500)),
        )

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

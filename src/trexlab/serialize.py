"""File formats: problems (CSV / JSON), fits, and experiment configs.

CSV problem format: a header row "n,p", then n rows of p + 1 comma-separated
values, the response first followed by the design row. The JSON container
holds one "problem" object with the arrays "x" and "y" and an optional
"normalized" flag; other keys are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrexlabError, config_block
from .model import RegressionProblem, columns_normalized
from .norms import NormSpec
from .datagen import ScenarioSpec
from .trex import SolverConfig, TrexFit
from .lasso import LassoFit


class ParseError(TrexlabError, ValueError):
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


def _fields(d, keys, where: str) -> dict:
    """``d`` itself, once it is a JSON object holding every key of ``keys``."""
    if not isinstance(d, dict):
        raise ParseError(f"{where} must be a JSON object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ParseError(f"{where} is missing {', '.join(map(repr, missing))}")
    return d


def _array(value, where: str) -> np.ndarray:
    """``value`` as a float array; ``ParseError`` unless JSON gave numbers."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged array
        a = np.asarray(None)
    if a.dtype.kind not in "iuf":
        raise ParseError(f"{where} must be an array of numbers")
    return a.astype(float)


def problem_from_dict(d: dict) -> RegressionProblem:
    """The problem of a JSON problem file, which reads only ``problem.x``,
    ``y`` and ``normalized``; ``ParseError`` where a block is not an object,
    lacks a field or holds a value of the wrong type."""
    pr = _fields(_fields(d, ("problem",), "problem file")["problem"], ("x", "y"), "problem")
    normalized = pr.get("normalized", False)
    if not isinstance(normalized, bool):
        raise ParseError(f"problem normalized must be true or false, got {normalized!r}")
    return RegressionProblem(_array(pr["x"], "problem x"), _array(pr["y"], "problem y"),
                             normalized=normalized)


def load_problem(path: str) -> RegressionProblem:
    """Load a problem file by extension: JSON for ``.json``, CSV otherwise."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return problem_from_dict(json.loads(text))
    return problem_from_csv(text)


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
        "config": {"c": fit.config.c, "seed": fit.config.seed},
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
        """The config of a JSON object; a key it omits takes the field's default."""
        kw = dict(config_block(d, cls, "config", required=("scenarios",),
                               items={"scenarios": dict, "estimators": str, "theorems": str}))
        for key, convert in (
                ("scenarios", lambda v: tuple(map(ScenarioSpec.from_dict, v))),
                ("estimators", tuple), ("theorems", tuple), ("replicates", int),
                ("compat_samples", int),
                ("solver", lambda v: SolverConfig(**config_block(v, SolverConfig, "solver"))),
                ("norm", lambda v: NormSpec.from_dict(v) if v else None)):
            if key in kw:
                kw[key] = convert(kw[key])
        return cls(**kw)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

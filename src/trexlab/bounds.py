"""Per-instance certification of the prediction-error bounds and assumptions.

Every bound is a conditional statement: assumption gates are checked first,
and a report whose gates fail carries the verdict "not_applicable" rather
than "violated". The noise-side quantities (the dual norm of x.T epsilon)
come from ground truth and are only available in synthetic mode.

Theorem identifiers:
    lasso_fast            fast-rate bound for the l1 least-squares fit
    lasso_slow            slow-rate bound for the l1 least-squares fit
    trex_fast_via_lasso   fast-rate bound for the ratio estimator through a
                          reference l1 fit (kappa defaults 2 and 8)
    trex_fast_compat      sparsity/compatibility variant of the above
    trex_slow             slow-rate bound, l1 penalty
    general_slow          slow-rate bound under an arbitrary norm penalty
    l1_ordering           the fitted l1 norm dominates the reference l1 fit
A "_kappa" suffix marks evaluation at non-default kappa constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .errors import ConfigError
from .lasso import LassoFit, fit_lasso
from .model import GroundTruth, RegressionProblem, prediction_loss
from . import norms
from .norms import NormSpec, l1_spec, omega, omega_dual
from .trex import TrexFit

HOLDS_RTOL = 1e-9

THEOREM_IDS = (
    "lasso_fast",
    "lasso_slow",
    "trex_fast_via_lasso",
    "trex_fast_compat",
    "trex_slow",
    "trex_fast_via_lasso_kappa",
    "trex_fast_compat_kappa",
    "general_slow",
    "l1_ordering",
)


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    holds: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality: gates, both sides, and a three-way verdict."""

    theorem_id: str
    assumptions: tuple
    bound_lhs: float
    bound_rhs: float
    inputs: dict = field(default_factory=dict)
    slack: float = 0.0

    @property
    def gates_pass(self) -> bool:
        return all(a.holds for a in self.assumptions)

    @property
    def verdict(self) -> str:
        if not self.gates_pass:
            return "not_applicable"
        if self.bound_lhs <= self.bound_rhs * (1.0 + HOLDS_RTOL) + self.slack:
            return "holds"
        return "violated"

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


@dataclass(frozen=True)
class CompatibilityEstimate:
    """Smallest cone ratio found by search: an upper bound on the admissible
    compatibility constant (exact for verified-orthogonal designs)."""

    nu_lower_report: float
    samples: int
    exact: bool


def compute_u_hat(problem: RegressionProblem, fit, spec: NormSpec = None) -> float:
    """Dual norm of the residual correlation at a fitted coefficient vector."""
    spec = spec or getattr(fit, "spec", None) or l1_spec()
    beta = fit.beta_hat if hasattr(fit, "beta_hat") else np.asarray(fit, dtype=float)
    return omega_dual(spec, problem.x.T @ (problem.y - problem.x @ beta))


def _noise_dual(problem: RegressionProblem, truth: GroundTruth,
                spec: NormSpec) -> float:
    return omega_dual(spec, problem.x.T @ truth.epsilon)


def _validate_kappas(kappa1: float, kappa2: float):
    if not (kappa1 > 1.0 and kappa2 > 2.0 and 1.0 / kappa1 + 2.0 / kappa2 < 1.0):
        raise ConfigError(
            "need kappa1 > 1, kappa2 > 2 and 1/kappa1 + 2/kappa2 < 1"
        )


def small_signal_threshold(truth: GroundTruth, problem: RegressionProblem,
                           kappa1: float = 2.0, kappa2: float = 8.0) -> float:
    """Largest l1 signal size compatible with the fast-rate analysis."""
    _validate_kappas(kappa1, kappa2)
    noise = float(np.max(np.abs(problem.x.T @ truth.epsilon)))
    energy = float(truth.epsilon @ truth.epsilon)
    factor = 0.25 * (1.0 - 1.0 / kappa1 - 2.0 / kappa2)
    if noise == 0.0:
        return float("inf")
    return factor * energy / noise


def check_assumption_small_signal(truth: GroundTruth, problem: RegressionProblem,
                                  kappa1: float = 2.0, kappa2: float = 8.0
                                  ) -> AssumptionCheck:
    """Upper bound on ||beta_star||_1 relative to the noise energy.

    At the default constants (2, 8) the factor is exactly 1/16.
    """
    rhs = small_signal_threshold(truth, problem, kappa1, kappa2)
    lhs = float(np.sum(np.abs(truth.beta_star)))
    return AssumptionCheck("small_signal", lhs <= rhs, lhs, rhs)


def check_assumption_signal_strength(truth: GroundTruth, problem: RegressionProblem,
                                     c: float, spec: NormSpec = None
                                     ) -> tuple[AssumptionCheck, AssumptionCheck]:
    """Lower bound on the dual norm of x.T x beta_star versus the noise.

    Returns the main check and the implied consequence
    dual(x.T y) >= (2/c) dual(x.T epsilon).
    """
    spec = spec or l1_spec()
    lhs = omega_dual(spec, problem.x.T @ (problem.x @ truth.beta_star))
    noise = _noise_dual(problem, truth, spec)
    rhs = (1.0 + 2.0 / c) * noise
    main = AssumptionCheck("signal_strength", lhs >= rhs, lhs, rhs)
    data_lhs = omega_dual(spec, problem.x.T @ problem.y)
    data_rhs = (2.0 / c) * noise
    implied = AssumptionCheck("signal_strength_implied", data_lhs >= data_rhs,
                              data_lhs, data_rhs)
    return main, implied


# ---------------------------------------------------------------------------
# compatibility constant estimation

ORTHOGONALITY_ATOL = 1e-8


def _cone_ratio(x: np.ndarray, support: np.ndarray, eta: np.ndarray) -> float:
    s = support.size
    n = x.shape[0]
    l1_s = float(np.sum(np.abs(eta[support])))
    if l1_s <= 0:
        return float("inf")
    return np.sqrt(s) * float(np.linalg.norm(x @ eta)) / (np.sqrt(n) * l1_s)


def estimate_compatibility(problem: RegressionProblem, support, samples: int = 2000,
                           refine: bool = False, seed: int = 0
                           ) -> CompatibilityEstimate:
    """Search the cone ||eta_off||_1 <= 3 ||eta_on||_1 for the smallest ratio
    sqrt(s) ||x eta||_2 / (sqrt(n) ||eta_on||_1).

    The returned value upper-bounds the largest admissible compatibility
    constant. Verified-orthogonal designs short-circuit to the exact value 1.
    """
    support = np.asarray(sorted(set(int(i) for i in support)), dtype=int)
    if support.size == 0:
        raise ValueError("support must be nonempty")
    x = problem.x
    n, p = problem.n, problem.p
    gram = x.T @ x
    if np.max(np.abs(gram - n * np.eye(p))) <= ORTHOGONALITY_ATOL * n:
        return CompatibilityEstimate(1.0, 0, True)

    s = support.size
    off = np.array([j for j in range(p) if j not in set(support.tolist())], dtype=int)
    rng = np.random.default_rng(seed)
    best = float("inf")
    best_eta = None
    count = 0

    def consider(eta):
        nonlocal best, best_eta, count
        count += 1
        r = _cone_ratio(x, support, eta)
        if r < best:
            best = r
            best_eta = eta.copy()

    # deterministic probes: single indicators and signed pairs inside the support
    for j in support:
        e = np.zeros(p)
        e[j] = 1.0
        consider(e)
    pairs = [(a, b) for i, a in enumerate(support) for b in support[i + 1:]]
    for a, b in pairs[:400]:
        for sb in (-1.0, 1.0):
            e = np.zeros(p)
            e[a] = 1.0
            e[b] = sb
            consider(e)

    for _ in range(max(samples, 0)):
        eta = np.zeros(p)
        eta[support] = rng.standard_normal(s)
        if off.size and rng.random() < 0.7:
            tail = rng.standard_normal(off.size)
            l1_tail = float(np.sum(np.abs(tail)))
            if l1_tail > 0:
                # include the cone boundary with positive probability
                frac = 3.0 if rng.random() < 0.2 else 3.0 * rng.random()
                eta[off] = tail * frac * np.sum(np.abs(eta[support])) / l1_tail
        consider(eta)

    if refine and best_eta is not None:
        def ratio_sq(eta):
            l1_s = np.sum(np.abs(eta[support]))
            if l1_s <= 1e-12:
                return 1e12
            return s * float(np.linalg.norm(x @ eta)) ** 2 / (n * l1_s**2)

        cons = [
            {"type": "ineq",
             "fun": lambda eta: 3.0 * np.sum(np.abs(eta[support]))
                                - np.sum(np.abs(eta[off]))},
            {"type": "ineq",
             "fun": lambda eta: np.sum(np.abs(eta[support])) - 0.5},
        ]
        try:
            sol = optimize.minimize(ratio_sq, best_eta, method="SLSQP",
                                    constraints=cons,
                                    options={"maxiter": 200, "ftol": 1e-12})
            if sol.x is not None and cons[0]["fun"](sol.x) >= -1e-9:
                consider(np.asarray(sol.x))
        except Exception:
            pass

    return CompatibilityEstimate(float(best), count, False)


# ---------------------------------------------------------------------------
# bound reports


def _nu_gate(nu: float) -> AssumptionCheck:
    """A zero compatibility constant (e.g. a duplicated pair in the support)
    makes every fast-rate bound vacuous."""
    return AssumptionCheck("nu_positive", nu > 0.0, nu, 0.0)


def _fast_rhs(coef: float, s: int, lam: float, nu: float, n: int) -> float:
    """coef * s * lam^2 / (nu^2 n^2); infinite (vacuous) when nu is zero."""
    return coef * s * lam**2 / (nu**2 * n**2) if nu > 0.0 else float("inf")


def verify_lasso_fast(problem: RegressionProblem, truth: GroundTruth,
                      fit: LassoFit, nu: float) -> BoundReport:
    """Fast-rate bound 16 s lam^2 / (nu^2 n^2), gated on lam >= 2 * noise dual
    and nu > 0."""
    noise = float(np.max(np.abs(problem.x.T @ truth.epsilon)))
    gate = AssumptionCheck("penalty_ge_2_noise", fit.lam >= 2.0 * noise,
                           fit.lam, 2.0 * noise)
    s = truth.sparsity
    n = problem.n
    lhs = prediction_loss(problem, truth, fit.beta_hat)
    rhs = _fast_rhs(16.0, s, fit.lam, nu, n)
    return BoundReport("lasso_fast", (gate, _nu_gate(nu)), lhs, rhs,
                       inputs={"lambda": fit.lam, "noise_dual": noise, "nu": nu,
                               "s": s})


def verify_lasso_slow(problem: RegressionProblem, truth: GroundTruth,
                      fit: LassoFit) -> BoundReport:
    """Slow-rate bound 4 lam ||beta_star||_1 / n, gated on lam >= noise dual."""
    noise = float(np.max(np.abs(problem.x.T @ truth.epsilon)))
    gate = AssumptionCheck("penalty_ge_noise", fit.lam >= noise, fit.lam, noise)
    lhs = prediction_loss(problem, truth, fit.beta_hat)
    rhs = 4.0 * fit.lam * float(np.sum(np.abs(truth.beta_star))) / problem.n
    return BoundReport("lasso_slow", (gate,), lhs, rhs,
                       inputs={"lambda": fit.lam, "noise_dual": noise})


def reference_penalty(problem: RegressionProblem, truth: GroundTruth,
                      u_hat: float, c: float,
                      kappa1: float = 2.0, kappa2: float = 8.0) -> float:
    """Data-plus-oracle penalty max{kappa1 * u_hat, (kappa2 / c) * noise dual}."""
    noise = float(np.max(np.abs(problem.x.T @ truth.epsilon)))
    return max(kappa1 * u_hat, kappa2 * noise / c)


def _fast_gates(problem, truth, fit: TrexFit, kappa1, kappa2):
    _validate_kappas(kappa1, kappa2)
    a_small = check_assumption_small_signal(truth, problem, kappa1, kappa2)
    data_dual = float(np.max(np.abs(problem.x.T @ problem.y)))
    u_gate = AssumptionCheck("u_hat_gate", fit.u_hat <= data_dual / kappa1,
                             fit.u_hat, data_dual / kappa1)
    return a_small, u_gate


def verify_trex_fast_via_lasso(problem: RegressionProblem, truth: GroundTruth,
                               fit: TrexFit, kappa1: float = 2.0,
                               kappa2: float = 8.0, lasso_max_sweeps=100_000
                               ) -> BoundReport:
    """Fast-rate bound through a reference l1 fit at the induced penalty.

    At the default constants the right-hand side coefficients are exactly 3/4
    on the reference prediction loss and 7/2 on the noise-weighted l1 error.
    """
    a_small, u_gate = _fast_gates(problem, truth, fit, kappa1, kappa2)
    lam = reference_penalty(problem, truth, fit.u_hat, fit.config.c, kappa1, kappa2)
    ref = fit_lasso(problem, lam, max_sweeps=lasso_max_sweeps,
                    allow_unnormalized=True)
    noise = float(np.max(np.abs(problem.x.T @ truth.epsilon)))
    n = problem.n
    loss_ref = prediction_loss(problem, truth, ref.beta_hat)
    l1_err = float(np.sum(np.abs(ref.beta_hat - truth.beta_star)))
    coef_loss = 1.0 / kappa1 + 2.0 / kappa2
    coef_l1 = 2.0 + 2.0 / kappa1 + 4.0 / kappa2
    lhs = prediction_loss(problem, truth, fit.beta_hat)
    rhs = coef_loss * loss_ref + coef_l1 * noise * l1_err / n
    theorem_id = ("trex_fast_via_lasso" if (kappa1, kappa2) == (2.0, 8.0)
                  else "trex_fast_via_lasso_kappa")
    return BoundReport(theorem_id, (a_small, u_gate), lhs, rhs,
                       inputs={"u_hat": fit.u_hat, "noise_dual": noise,
                               "lambda_tilde": lam, "kappa1": kappa1,
                               "kappa2": kappa2, "c": fit.config.c,
                               "reference_converged": ref.converged})


def verify_trex_fast_compat(problem: RegressionProblem, truth: GroundTruth,
                            fit: TrexFit, nu: float, nu_exact: bool = False,
                            kappa1: float = 2.0, kappa2: float = 8.0,
                            nu_deflation: float = 0.5) -> BoundReport:
    """Sparsity-based bound (1/k1 + 2/k2) * 16 s lam~^2 / (nu^2 n^2).

    At the default constants the leading constant is exactly 12. A sampled
    compatibility estimate risks overshooting the true constant, so unless
    ``nu_exact`` the verdict uses a deflated nu; both right-hand sides are
    recorded. A zero nu fails the ``nu_positive`` gate.
    """
    a_small, u_gate = _fast_gates(problem, truth, fit, kappa1, kappa2)
    c = fit.config.c
    cond = AssumptionCheck(
        "kappa_c_condition",
        1.0 / kappa2 + kappa1 / (kappa2 + 2.0 * kappa1) <= 1.0 / c,
        1.0 / kappa2 + kappa1 / (kappa2 + 2.0 * kappa1), 1.0 / c)
    lam = reference_penalty(problem, truth, fit.u_hat, c, kappa1, kappa2)
    s = truth.sparsity
    n = problem.n
    coef = (1.0 / kappa1 + 2.0 / kappa2) * 16.0
    rhs_est = _fast_rhs(coef, s, lam, nu, n)
    nu_eff = nu if nu_exact else nu * nu_deflation
    rhs_defl = _fast_rhs(coef, s, lam, nu_eff, n)
    lhs = prediction_loss(problem, truth, fit.beta_hat)
    theorem_id = ("trex_fast_compat" if (kappa1, kappa2) == (2.0, 8.0)
                  else "trex_fast_compat_kappa")
    return BoundReport(theorem_id, (a_small, u_gate, cond, _nu_gate(nu_eff)),
                       lhs, rhs_defl,
                       inputs={"u_hat": fit.u_hat, "lambda_tilde": lam,
                               "nu": nu, "nu_effective": nu_eff,
                               "nu_exact": nu_exact, "rhs_estimate": rhs_est,
                               "kappa1": kappa1, "kappa2": kappa2, "c": c,
                               "s": s, "constant": coef})


def trex_slow_rhs(noise_dual: float, u_hat: float, c: float,
                  signal_norm: float, n: int) -> float:
    """Right-hand side (2 d + max{u_hat, 2 d / c}) * signal_norm / n."""
    return (2.0 * noise_dual + max(u_hat, 2.0 * noise_dual / c)) * signal_norm / n


def verify_trex_slow(problem: RegressionProblem, truth: GroundTruth,
                     fit: TrexFit, spec: NormSpec = None) -> BoundReport:
    """Slow-rate bound under the fit's penalty norm.

    The l1 spec yields theorem id "trex_slow"; any other norm "general_slow"
    (the formulas coincide for the l1 spec).
    """
    spec = spec or fit.spec
    noise = _noise_dual(problem, truth, spec)
    main, implied = check_assumption_signal_strength(truth, problem, fit.config.c,
                                                     spec)
    data_dual = omega_dual(spec, problem.x.T @ problem.y)
    u_gate = AssumptionCheck("u_hat_gate", fit.u_hat <= data_dual,
                             fit.u_hat, data_dual)
    lhs = prediction_loss(problem, truth, fit.beta_hat)
    rhs = trex_slow_rhs(noise, fit.u_hat, fit.config.c,
                        omega(spec, truth.beta_star), problem.n)
    theorem_id = "trex_slow" if spec.kind == norms.L1 else "general_slow"
    return BoundReport(theorem_id, (main, u_gate), lhs, rhs,
                       inputs={"u_hat": fit.u_hat, "noise_dual": noise,
                               "data_dual": data_dual, "c": fit.config.c,
                               "implied_gate_holds": implied.holds})


def verify_l1_ordering(problem: RegressionProblem, fit: TrexFit,
                       lasso_max_sweeps: int = 100_000,
                       slack: float = 1e-6) -> BoundReport:
    """The fitted l1 norm dominates any l1 least-squares fit at penalty u_hat."""
    if fit.u_hat <= 0:
        raise ValueError("u_hat must be positive")
    ref = fit_lasso(problem, fit.u_hat, max_sweeps=lasso_max_sweeps,
                    allow_unnormalized=True)
    lhs = float(np.sum(np.abs(ref.beta_hat)))
    rhs = float(np.sum(np.abs(fit.beta_hat)))
    gate = AssumptionCheck("reference_converged", ref.converged, 1.0, 1.0)
    return BoundReport("l1_ordering", (gate,), lhs, rhs, slack=slack,
                       inputs={"u_hat": fit.u_hat,
                               "lasso_l1": lhs, "trex_l1": rhs})

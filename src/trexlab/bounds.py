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
A direct call may evaluate the two fast-rate bounds at other kappas; its
report keeps the theorem's id, and its ``inputs`` record the kappas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateResidualError
from .lasso import LassoFit, fit_lasso
from .model import GroundTruth, RegressionProblem, prediction_loss
from . import norms
from .norms import NormSpec, l1_spec, omega, omega_dual
from .trex import TrexFit

HOLDS_RTOL = 1e-9
# absolute slack of the l1 ordering verdict, which allows for the reference
# lasso's convergence tolerance
L1_ORDERING_SLACK = 1e-6

THEOREM_IDS = (
    "lasso_fast",
    "lasso_slow",
    "trex_fast_via_lasso",
    "trex_fast_compat",
    "trex_slow",
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
# a sampled compatibility estimate may overshoot the true constant, so the
# fast-rate verdicts use this fraction of it
NU_DEFLATION = 0.5
# candidates of the compatibility search scored per matrix product
_SCORE_ROWS = 4096


def estimate_compatibility(problem: RegressionProblem, support, samples: int = 2000,
                           seed: int = 0) -> CompatibilityEstimate:
    """Search the cone ||eta_off||_1 <= 3 ||eta_on||_1 for the smallest ratio
    sqrt(s) ||x eta||_2 / (sqrt(n) ||eta_on||_1).

    The candidates are deterministic probes (single indicators and signed
    pairs inside the support) and ``samples`` random directions. These are
    drawn from ``default_rng(seed)`` in blocks, in this order:
      1. the support values, a (samples, s) standard normal block;
      2. a uniform coin per sample; the samples whose coin is below 0.7 get
         an off-support tail (no coin is drawn when the support is all of
         the columns);
      3. the tails of those samples, a standard normal block;
      4. for those samples, a uniform coin (below 0.2: the tail sits on the
         cone boundary, fraction 3) and then a uniform u (fraction 3u).
    Each tail is rescaled to l1 norm fraction * ||eta_on||_1. All candidates
    are scored by matrix products over blocks of ``_SCORE_ROWS`` rows, so
    memory grows with ``samples`` times p only. The smallest ratio
    upper-bounds the largest admissible compatibility constant.
    Verified-orthogonal designs short-circuit to the exact value 1.
    """
    if samples < 0:
        raise ConfigError(f"samples must be nonnegative, got {samples}")
    support = np.asarray(sorted(set(int(i) for i in support)), dtype=int)
    if support.size == 0:
        raise ConfigError("support must be nonempty")
    x = problem.x
    n, p = problem.n, problem.p
    gram = x.T @ x
    if np.max(np.abs(gram - n * np.eye(p))) <= ORTHOGONALITY_ATOL * n:
        return CompatibilityEstimate(1.0, 0, True)

    s = support.size
    off = np.setdiff1d(np.arange(p), support)
    rng = np.random.default_rng(seed)
    # one row per candidate in the coordinates (support, off), so that the
    # support values and the tail of a row are contiguous slices
    order = np.r_[support, off]
    xo = x[:, order]

    a, b = np.triu_indices(s, 1)
    a, b = a[:400], b[:400]
    n_probes = s + 2 * a.size
    eta = np.zeros((n_probes + samples, p))
    pair = s + 2 * np.arange(a.size)
    eta[np.arange(s), np.arange(s)] = 1.0
    eta[np.r_[pair, pair + 1], np.r_[a, a]] = 1.0
    eta[pair, b] = -1.0
    eta[pair + 1, b] = 1.0

    eta[n_probes:, :s] = rng.standard_normal((samples, s))
    l1_s = np.abs(eta[:, :s]).sum(axis=1)
    if off.size:
        rows = n_probes + np.flatnonzero(rng.random(samples) < 0.7)
        tail = rng.standard_normal((rows.size, off.size))
        boundary = rng.random(rows.size) < 0.2
        frac = np.where(boundary, 3.0, 3.0 * rng.random(rows.size))
        l1_tail = np.abs(tail).sum(axis=1)
        scale = np.divide(frac * l1_s[rows], l1_tail, out=np.zeros(rows.size),
                          where=l1_tail > 0)
        eta[rows, s:] = tail * scale[:, None]

    # scored in blocks of rows, so that x eta needs no (candidates, n) array
    x_eta_sq = np.empty(len(eta))
    for lo in range(0, len(eta), _SCORE_ROWS):
        z = eta[lo:lo + _SCORE_ROWS] @ xo.T
        x_eta_sq[lo:lo + _SCORE_ROWS] = np.einsum("ij,ij->i", z, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(s) * np.sqrt(x_eta_sq) / (np.sqrt(n) * l1_s)
    ratio[l1_s <= 0] = np.inf
    return CompatibilityEstimate(float(np.min(ratio)), len(eta), False)


# ---------------------------------------------------------------------------
# bound reports


def deflated_nu(nu: float, exact: bool) -> float:
    """The compatibility constant a fast-rate verdict uses: ``nu`` when it is
    exact, else ``NU_DEFLATION`` times the sampled estimate."""
    return nu if exact else nu * NU_DEFLATION


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
                               kappa2: float = 8.0) -> BoundReport:
    """Fast-rate bound through a reference l1 fit at the induced penalty.

    At the default constants the right-hand side coefficients are exactly 3/4
    on the reference prediction loss and 7/2 on the noise-weighted l1 error.
    """
    a_small, u_gate = _fast_gates(problem, truth, fit, kappa1, kappa2)
    lam = reference_penalty(problem, truth, fit.u_hat, fit.config.c, kappa1, kappa2)
    ref = fit_lasso(problem, lam)
    noise = float(np.max(np.abs(problem.x.T @ truth.epsilon)))
    n = problem.n
    loss_ref = prediction_loss(problem, truth, ref.beta_hat)
    l1_err = float(np.sum(np.abs(ref.beta_hat - truth.beta_star)))
    coef_loss = 1.0 / kappa1 + 2.0 / kappa2
    coef_l1 = 2.0 + 2.0 / kappa1 + 4.0 / kappa2
    lhs = prediction_loss(problem, truth, fit.beta_hat)
    rhs = coef_loss * loss_ref + coef_l1 * noise * l1_err / n
    return BoundReport("trex_fast_via_lasso", (a_small, u_gate), lhs, rhs,
                       inputs={"u_hat": fit.u_hat, "noise_dual": noise,
                               "lambda_tilde": lam, "kappa1": kappa1,
                               "kappa2": kappa2, "c": fit.config.c,
                               "reference_converged": ref.converged})


def verify_trex_fast_compat(problem: RegressionProblem, truth: GroundTruth,
                            fit: TrexFit, nu: float, nu_exact: bool = False,
                            kappa1: float = 2.0, kappa2: float = 8.0) -> BoundReport:
    """Sparsity-based bound (1/k1 + 2/k2) * 16 s lam~^2 / (nu^2 n^2).

    At the default constants the leading constant is exactly 12. A sampled
    compatibility estimate risks overshooting the true constant, so the
    verdict uses ``deflated_nu(nu, nu_exact)``; both right-hand sides are
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
    nu_eff = deflated_nu(nu, nu_exact)
    rhs_defl = _fast_rhs(coef, s, lam, nu_eff, n)
    lhs = prediction_loss(problem, truth, fit.beta_hat)
    return BoundReport("trex_fast_compat", (a_small, u_gate, cond, _nu_gate(nu_eff)),
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


def verify_l1_ordering(problem: RegressionProblem, fit: TrexFit) -> BoundReport:
    """The fitted l1 norm dominates any l1 least-squares fit at penalty u_hat."""
    if fit.u_hat <= 0:
        raise DegenerateResidualError("u_hat must be positive")
    ref = fit_lasso(problem, fit.u_hat)
    lhs = float(np.sum(np.abs(ref.beta_hat)))
    rhs = float(np.sum(np.abs(fit.beta_hat)))
    gate = AssumptionCheck("reference_converged", ref.converged, 1.0, 1.0)
    return BoundReport("l1_ordering", (gate,), lhs, rhs, slack=L1_ORDERING_SLACK,
                       inputs={"u_hat": fit.u_hat,
                               "lasso_l1": lhs, "trex_l1": rhs})

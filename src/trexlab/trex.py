"""Global solver for the ratio-penalized (tuning-free) sparse estimator.

The nonconvex objective

    ||y - x b||^2 / (c * dual(x.T (y - x b))) + penalty(b)

equals, pointwise, the minimum over 2p convex quadratic-over-linear
subproblems when the penalty is an (optionally weighted) l1 norm: one
subproblem per coordinate j and sign s, with denominator s * x_j @ (y - x b).
The subproblems are solved together by proximal gradient descent with
backtracking, and the best optimum is the global one. A subproblem whose
domain contains b = 0 starts there; any other starts at the closed-form
minimizer of its own objective along its own coordinate. Each subproblem also
yields a dual lower bound from its rescaled gradient (Fercoq, Gramfort &
Salmon, "Mind the duality gap", 2015). A subproblem whose bound already lies
above the best objective found so far, by more than the window in which
near-best subproblems are refined, cannot win and is stopped (pruned). The
fit reports ``certified_gap``, the objective minus the smallest bound over
the feasible subproblems: the global optimum lies at most that far below the
returned objective. Group penalties yield one subproblem per group whose
denominator is an l2 norm of a linear map; those are not provably convex and
are handled by seeded multistart descent, flagged as heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    DegenerateResidualError,
    DomainError,
    NotNormalizedError,
)
from .model import RegressionProblem
from . import norms
from .norms import NormSpec, l1_spec, omega, omega_dual, penalty_weight_vector

TIE_TOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the subproblem solvers.

    c is the ratio constant in (0, 2); 1/2 is the customary default.
    tolerance is the relative objective decrease over a sweep window below
    which a subproblem counts as converged. delta guards the open domain of
    the quadratic-over-linear objectives, relative to dual(x.T y).
    """

    c: float = 0.5
    max_iterations: int = 20_000
    tolerance: float = 1e-11
    delta: float = 1e-10
    multistart_count: int = 8
    seed: int = 0
    allow_unnormalized: bool = False

    def __post_init__(self):
        if not (0.0 < self.c < 2.0):
            raise ConfigError(f"c must lie in (0, 2), got {self.c}")
        if self.max_iterations < 1 or self.tolerance <= 0 or self.delta <= 0:
            raise ConfigError("max_iterations, tolerance and delta must be positive")
        if self.multistart_count < 1:
            raise ConfigError("multistart_count must be at least 1")


@dataclass(frozen=True)
class SubproblemRecord:
    identity: tuple
    objective: float
    converged: bool
    feasible: bool = True
    pruned: bool = False


@dataclass(frozen=True)
class TrexFit:
    beta_hat: np.ndarray
    u_hat: float
    objective: float
    winner: tuple
    per_subproblem: tuple
    spec: NormSpec
    config: SolverConfig
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        b = np.array(self.beta_hat, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "beta_hat", b)


def trex_objective(problem: RegressionProblem, beta, c: float,
                   spec: NormSpec = None) -> float:
    """Ratio objective; raises DomainError when the dual denominator vanishes."""
    spec = spec or l1_spec()
    beta = np.asarray(beta, dtype=float)
    r = problem.y - problem.x @ beta
    denom = omega_dual(spec, problem.x.T @ r)
    if denom <= 0.0:
        raise DomainError("dual norm of the residual correlation is zero")
    return float(r @ r) / (c * denom) + omega(spec, beta)


def subproblem_objective(problem: RegressionProblem, beta, c: float,
                         j: int, s: int) -> float:
    """Convex quadratic-over-linear surrogate for coordinate j and sign s.

    Defined on the open half-space s * x_j @ (y - x b) > 0 and always at least
    the ratio objective, with equality when (j, s) attains the dual max.
    """
    beta = np.asarray(beta, dtype=float)
    r = problem.y - problem.x @ beta
    d = float(s) * float(problem.x[:, j] @ r)
    if d <= 0.0:
        raise DomainError(f"subproblem (j={j}, s={s}) is out of domain at this point")
    return float(r @ r) / (c * d) + float(np.sum(np.abs(beta)))


# ---------------------------------------------------------------------------
# batched proximal gradient over the sign subproblems


def _soft(v, th):
    return np.sign(v) * np.maximum(np.abs(v) - th, 0.0)


def _near_margin(f):
    """Objective window above the best row inside which rows are refined."""
    return max(1e-6 * (1.0 + abs(f)), 1e-8)


class _BatchResult:
    def __init__(self, beta, objective, converged, feasible, iterations,
                 stalled, pruned, lower):
        self.beta = beta
        self.objective = objective
        self.converged = converged
        self.feasible = feasible
        self.iterations = iterations
        self.stalled = stalled
        self.pruned = pruned
        self.lower = lower


def _spectral_norm_estimate(G: np.ndarray, iters: int = 30) -> float:
    """Power-iteration estimate of ||G||_2 for a symmetric PSD matrix."""
    v = np.ones(G.shape[0]) / np.sqrt(G.shape[0])
    lam = 1.0
    for _ in range(iters):
        w = G @ v
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 1.0
        v = w / nrm
        lam = nrm
    return max(lam, 1e-12)


def _coordinate_starts(G, xty, yty, c, j_arr, s_arr, pen_w, dual_w, delta, tau):
    """Start points (K, p) of the sign subproblems and their feasibility.

    A row whose denominator s * x_j @ y / dual_w_j exceeds delta starts at 0.
    Any other row starts at the minimizer of its own objective along its own
    coordinate, b = beta * e_j. With g = G_jj, m = x_j @ y, d = dual_w_j,
    w = pen_w_j and v = s * x_j @ (y - beta x_j) = d * D, the objective along
    that ray is (d / c) (R0 / v + v / g) + (w / g) (v - s m), with
    R0 = y @ y - m^2 / g, so v* = sqrt(d R0 g / (d + c w)), floored at
    tau * d, and beta = (m - s v*) / g. A row with G_jj ~ 0 is infeasible.
    """
    B = np.zeros((len(j_arr), G.shape[0]))
    feasible = np.ones(len(j_arr), dtype=bool)
    d = dual_w[j_arr]
    need = np.flatnonzero(s_arr * xty[j_arr] / d <= delta)
    diagG = np.diag(G)
    g = diagG[j_arr[need]]
    dead = g <= 1e-12 * float(np.max(diagG, initial=1.0))
    feasible[need[dead]] = False
    need, g = need[~dead], g[~dead]
    j, s, d = j_arr[need], s_arr[need], d[need]
    m = xty[j]
    r0 = np.maximum(yty - m * m / g, 0.0)
    v = np.maximum(np.sqrt(d * r0 * g / (d + c * pen_w[j])), tau * d)
    B[need, j] = (m - s * v) / g
    return B, feasible


def _solve_sign_subproblems(G, xty, yty, c, j_arr, s_arr, pen_w, dual_w, config,
                            bound=None, beta0=None, window=10):
    """Monotone proximal gradient with backtracking over K sign subproblems.

    Each row k minimizes rss(b) / (c * D_k(b)) + sum_i pen_w_i |b_i| over the
    open domain D_k(b) > delta, with D_k(b) = s_k * q_{j_k}(b) / dual_w_{j_k}
    and q(b) = x.T (y - x b) = xty - G b. When ``bound`` is given, candidate
    steps with max_i |q_i| / dual_w_i > bound are rejected (line-search
    feasibility, no projection).

    Without ``beta0``, rows that are feasible at b = 0 start there and every
    other row starts at the exact minimizer of its objective along its own
    coordinate (``_coordinate_starts``), far nearer its optimum than a point
    just inside the domain boundary. Under ``bound`` a start that violates
    the constraint is then repaired.

    Every iteration also evaluates a dual lower bound LB_k on each active
    row's optimum and stops (prunes) the rows with LB_k above the incumbent
    min_k F_k plus the refine window ``_near_margin``: such a row can neither
    win nor be refined. The bound is that of the unconstrained subproblem, so
    it stays valid, if looser, under ``bound``. ``lower`` holds LB_k at the
    final iterate of every feasible row (inf for infeasible rows).
    """
    p = G.shape[0]
    K = len(j_arr)
    j_arr = np.asarray(j_arr, dtype=int)
    s_arr = np.asarray(s_arr, dtype=float)
    dw = dual_w[j_arr]
    dual_ref = float(np.max(np.abs(xty) / dual_w)) if p else 0.0
    delta = config.delta * max(dual_ref, 1e-300)
    Lg = _spectral_norm_estimate(G)

    if beta0 is None:
        tau = max(1e-3 * dual_ref, 10.0 * delta)
        B, feasible = _coordinate_starts(G, xty, yty, c, j_arr, s_arr, pen_w,
                                         dual_w, delta, tau)
    else:
        B = np.array(beta0, dtype=float)
        feasible = np.ones(K, dtype=bool)

    if bound is not None:
        # repair starts that violate the dual constraint: aim the correlation
        # vector at a point strictly inside the constraint set
        qS = xty[None, :] - B @ G
        dualS = np.max(np.abs(qS) / dual_w[None, :], axis=1)
        viol = np.flatnonzero(feasible & (dualS > bound * (1.0 + 1e-12)))
        if viol.size:
            Gpinv = np.linalg.pinv(G)
            for k in viol:
                j = j_arr[k]
                target = np.zeros(p)
                target[j] = s_arr[k] * 0.5 * bound * dual_w[j]
                bk = Gpinv @ (xty - target)
                qk = xty - G @ bk
                dk = s_arr[k] * qk[j] / dw[k]
                if dk > delta and float(np.max(np.abs(qk) / dual_w)) <= bound:
                    B[k] = bk
                else:
                    feasible[k] = False

    def eval_rows(Bm, rows):
        bg = Bm @ G
        q = xty[None, :] - bg
        rss = yty - 2.0 * (Bm @ xty) + np.einsum("kp,kp->k", Bm, bg)
        np.maximum(rss, 0.0, out=rss)
        D = s_arr[rows] * q[np.arange(len(rows)), j_arr[rows]] / dw[rows]
        return q, rss, D

    def gradient(rows):
        Dr = D[rows]
        return (-2.0 / (c * Dr))[:, None] * q[rows] + (
            rss[rows] / (c * Dr * Dr) * s_arr[rows] / dw[rows]
        )[:, None] * G[:, j_arr[rows]].T

    inv_pen_w = 1.0 / pen_w
    a_y = s_arr * xty[j_arr] / dw

    def lower_bound(rows, grad):
        # The gradient z of g(r) = ||r||^2 / (c a.r) satisfies x.T z = -grad,
        # and theta * z is dual feasible (Fercoq, Gramfort & Salmon 2015), so
        # the dual objective theta * y.z bounds the row's optimum from below.
        Dr = D[rows]
        theta = 1.0 / np.maximum(1.0, (np.abs(grad) * inv_pen_w).max(axis=1))
        yz = (2.0 * (yty - B[rows] @ xty) - rss[rows] * a_y[rows] / Dr) / (c * Dr)
        return theta * yz

    q, rss, D = eval_rows(B, np.arange(K))
    g = np.where(feasible & (D > 0), rss / (c * np.where(D > 0, D, 1.0)), np.inf)
    pen = np.abs(B) @ pen_w
    F = g + pen

    t = np.empty(K)
    with np.errstate(invalid="ignore"):
        t[:] = c * np.where(D > 0, D, 1.0) / (2.0 * Lg)
    t = np.maximum(t, 1e-300)
    t_floor = 1e-18 * t
    active = feasible.copy()
    converged = np.zeros(K, dtype=bool)
    stalled = np.zeros(K, dtype=bool)
    pruned = np.zeros(K, dtype=bool)
    hist = [F.copy()]
    iterations = np.zeros(K, dtype=int)

    for it in range(config.max_iterations):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        grad = gradient(rows)
        incumbent = float(F.min())
        hopeless = lower_bound(rows, grad) > incumbent + _near_margin(incumbent)
        if hopeless.any():
            pruned[rows[hopeless]] = True
            active[rows[hopeless]] = False
            rows, grad = rows[~hopeless], grad[~hopeless]
            if rows.size == 0:
                break
        iterations[rows] = it + 1
        Br = B[rows]
        gr = rss[rows] / (c * D[rows])

        pending = np.arange(rows.size)
        newB = Br.copy()
        accepted = np.zeros(rows.size, dtype=bool)
        for _ in range(80):
            if pending.size == 0:
                break
            sub = rows[pending]
            step = t[sub][:, None]
            Cand = _soft(Br[pending] - step * grad[pending], step * pen_w[None, :])
            bgC = Cand @ G
            qC = xty[None, :] - bgC
            rssC = yty - 2.0 * (Cand @ xty) + np.einsum("kp,kp->k", Cand, bgC)
            np.maximum(rssC, 0.0, out=rssC)
            DC = s_arr[sub] * qC[np.arange(sub.size), j_arr[sub]] / dw[sub]
            ok = DC > delta
            if bound is not None:
                dualC = np.max(np.abs(qC) / dual_w[None, :], axis=1)
                ok &= dualC <= bound
            with np.errstate(divide="ignore", invalid="ignore"):
                gC = np.where(ok, rssC / (c * np.where(ok, DC, 1.0)), np.inf)
            diff = Cand - Br[pending]
            quad = (
                gr[pending]
                + np.einsum("kp,kp->k", grad[pending], diff)
                + np.einsum("kp,kp->k", diff, diff) / (2.0 * t[sub])
            )
            ok &= gC <= quad + 1e-12 * (1.0 + np.abs(gC))
            acc = pending[ok]
            if acc.size:
                newB[acc] = Cand[ok]
                accepted[acc] = True
                sel = rows[acc]
                q[sel] = qC[ok]
                rss[sel] = rssC[ok]
                D[sel] = DC[ok]
            rej = pending[~ok]
            t[rows[rej]] *= 0.5
            dead = rej[t[rows[rej]] < t_floor[rows[rej]]]
            if dead.size:
                # cannot decrease further: treat as a stationary stall
                converged[rows[dead]] = True
                stalled[rows[dead]] = True
                active[rows[dead]] = False
                rej = np.setdiff1d(rej, dead, assume_unique=True)
            pending = rej
        B[rows] = newB
        t[rows[accepted]] = np.minimum(t[rows[accepted]] * 1.3, 1e12)

        gF = rss[rows] / (c * D[rows])
        F[rows] = gF + np.abs(B[rows]) @ pen_w
        hist.append(F.copy())
        if len(hist) > window + 1:
            hist.pop(0)
        if len(hist) == window + 1:
            old = hist[0][rows]
            done = (old - F[rows]) <= config.tolerance * (1.0 + np.abs(F[rows]))
            converged[rows[done]] = True
            active[rows[done]] = False

    F = np.where(feasible, F, np.inf)
    lower = np.full(K, np.inf)
    rows = np.flatnonzero(feasible)
    lower[rows] = lower_bound(rows, gradient(rows))
    return _BatchResult(B, F, converged, feasible, iterations, stalled, pruned,
                        lower)


def solve_subproblem(problem: RegressionProblem, c: float, j: int, s: int,
                     config: SolverConfig = None, bound=None):
    """Solve the single convex subproblem (j, s) for the l1 penalty.

    Returns (beta, objective, converged); an infeasible subproblem yields
    (None, inf, False).
    """
    config = config or SolverConfig(c=c)
    if config.c != c:
        config = replace(config, c=c)
    x, y = problem.x, problem.y
    G = x.T @ x
    xty = x.T @ y
    yty = float(y @ y)
    ones = np.ones(problem.p)
    res = _solve_sign_subproblems(G, xty, yty, c, [j], [float(s)], ones, ones,
                                  config, bound=bound)
    if not res.feasible[0]:
        return None, float("inf"), False
    return res.beta[0], float(res.objective[0]), bool(res.converged[0])


# ---------------------------------------------------------------------------
# group subproblems (heuristic multistart descent)


def _solve_group_subproblem(G, xty, yty, c, gidx, w_g, spec, config, start,
                            bound=None, window=10):
    """Scalar proximal descent for one group subproblem from a given start.

    The denominator is ||q_G|| / w_g with q(b) = xty - G b; the penalty prox
    is the full group soft threshold. Returns (beta, objective, converged) or
    None when the start is infeasible.
    """
    p = G.shape[0]
    gidx = list(gidx)
    dual_ref = omega_dual(spec, xty)
    delta = config.delta * max(dual_ref, 1e-300)
    Lg = _spectral_norm_estimate(G)

    def state(b):
        q = xty - G @ b
        rss = max(float(yty - 2.0 * (b @ xty) + b @ (G @ b)), 0.0)
        m = float(np.linalg.norm(q[gidx]))
        return q, rss, m

    b = np.array(start, dtype=float)
    q, rss, m = state(b)
    D = m / w_g
    if D <= delta:
        return None
    t = c * D / (2.0 * Lg)
    F = rss / (c * D) + omega(spec, b)
    hist = [F]
    converged = False
    for it in range(config.max_iterations):
        v = q[gidx]
        grad = (w_g / c) * (-2.0 * q / m + (rss / m**3) * (G[:, gidx] @ v))
        accepted = False
        for _ in range(80):
            cand = norms.prox_omega(spec, b - t * grad, t)
            qC, rssC, mC = state(cand)
            DC = mC / w_g
            if DC > delta and (bound is None or omega_dual(spec, qC) <= bound):
                gC = rssC / (c * DC)
                diff = cand - b
                quad = (rss / (c * D) + grad @ diff + (diff @ diff) / (2.0 * t))
                if gC <= quad + 1e-12 * (1.0 + abs(gC)):
                    b, q, rss, m, D = cand, qC, rssC, mC, DC
                    t = min(t * 1.3, 1e12)
                    accepted = True
                    break
            t *= 0.5
            if t < 1e-300:
                break
        F = rss / (c * D) + omega(spec, b)
        hist.append(F)
        if len(hist) > window + 1:
            hist.pop(0)
        if not accepted:
            converged = True
            break
        if len(hist) == window + 1 and hist[0] - F <= config.tolerance * (1.0 + abs(F)):
            converged = True
            break
    return b, F, converged


# ---------------------------------------------------------------------------
# full solves


def _check_input(problem: RegressionProblem, config: SolverConfig):
    if not problem.normalized and not config.allow_unnormalized:
        raise NotNormalizedError(
            "solver expects sqrt(n)-normalized columns; "
            "set allow_unnormalized to override"
        )


def _reduces_to_weighted(spec: NormSpec) -> bool:
    return spec.kind in (norms.L1, norms.WEIGHTED_L1) or all(
        len(g) == 1 for g in spec.partition
    )


def solve_trex(problem: RegressionProblem, config: SolverConfig = None,
               spec: NormSpec = None, bound=None) -> TrexFit:
    """Globally solve the ratio objective via the subproblem decomposition.

    For (weighted) l1 penalties the 2p convex subproblems are solved together
    and the best optimum is returned. A subproblem stops early (is pruned)
    once its dual lower bound exceeds the best current objective by more than
    max(1e-6 (1 + |best|), 1e-8), the window within which near-best
    subproblems are refined, so a pruned subproblem can never win. The
    diagnostics report:

    - ``certified_gap``: objective minus the smallest dual lower bound over
      the feasible subproblems, an upper bound on the distance to the global
      optimum; None under ``bound``, where the unconstrained bound is loose;
    - ``pruned``: the number of pruned subproblems;
    - ``stalled``: the number stopped because the line-search step fell
      below its floor (still counted as converged);
    - ``all_converged``: every feasible subproblem converged or was pruned;
    - ``iterations``: the largest iteration count of the main stage;
    - ``row_iterations``: proximal-gradient steps summed over all
      subproblems, main and refine stage.

    Group penalties with non-singleton groups use multistart descent per
    group and the result is flagged heuristic. Ties within 1e-10 break to the
    lowest coordinate, negative sign first.
    """
    config = config or SolverConfig()
    spec = spec or l1_spec()
    _check_input(problem, config)
    x, y = problem.x, problem.y
    p = problem.p
    G = x.T @ x
    xty = x.T @ y
    yty = float(y @ y)
    dual0 = omega_dual(spec, xty)
    if dual0 <= 0.0:
        raise DomainError("dual norm of x.T y is zero; the objective is undefined at 0")

    if _reduces_to_weighted(spec):
        return _solve_weighted_paths(problem, config, spec, G, xty, yty, bound)
    return _solve_group_paths(problem, config, spec, G, xty, yty, bound)


def _solve_weighted_paths(problem, config, spec, G, xty, yty, bound):
    p = problem.p
    c = config.c
    pen_w = penalty_weight_vector(spec, p)
    dual_w = pen_w  # dual weights divide; identical vector for these specs
    j_arr = np.repeat(np.arange(p), 2)
    s_arr = np.tile([-1.0, 1.0], p)
    res = _solve_sign_subproblems(G, xty, yty, c, j_arr, s_arr, pen_w, dual_w,
                                  config, bound=bound)

    best = float(np.min(res.objective))
    if not np.isfinite(best):
        raise DomainError("all subproblems infeasible; input is degenerate")
    near = np.flatnonzero(res.objective <= best + _near_margin(best))
    refine_cfg = replace(config, tolerance=config.tolerance * 1e-3)
    ref = _solve_sign_subproblems(G, xty, yty, c, j_arr[near], s_arr[near],
                                  pen_w, dual_w, refine_cfg, bound=bound,
                                  beta0=res.beta[near])
    row_iterations = int(np.sum(res.iterations) + np.sum(ref.iterations))
    for name in ("beta", "objective", "converged", "stalled", "pruned", "lower"):
        getattr(res, name)[near] = getattr(ref, name)

    win = int(np.flatnonzero(res.objective <= np.min(res.objective) + TIE_TOL)[0])
    beta = res.beta[win]
    q = xty - G @ beta
    u_hat = omega_dual(spec, q)
    if u_hat <= 1e-12 * omega_dual(spec, xty):
        raise DegenerateResidualError(
            "dual residual norm vanished at the optimum; use the constrained "
            "variant or check the problem scaling"
        )
    rss = max(float(yty - 2.0 * beta @ xty + beta @ (G @ beta)), 0.0)
    objective = rss / (c * u_hat) + omega(spec, beta)
    records = tuple(
        SubproblemRecord(
            identity=(int(j_arr[k]), int(s_arr[k])),
            objective=float(res.objective[k]),
            converged=bool(res.converged[k]),
            feasible=bool(res.feasible[k]),
            pruned=bool(res.pruned[k]),
        )
        for k in range(2 * p)
    )
    if spec.kind == norms.GROUP:
        coord_to_group = {g[0]: gi for gi, g in enumerate(spec.partition)}
        winner = (coord_to_group[int(j_arr[win])],)
    else:
        winner = (int(j_arr[win]), int(s_arr[win]))
    return TrexFit(
        beta_hat=beta,
        u_hat=float(u_hat),
        objective=float(objective),
        winner=winner,
        per_subproblem=records,
        spec=spec,
        config=config,
        diagnostics={
            "heuristic": False,
            "iterations": int(np.max(res.iterations)),
            "row_iterations": row_iterations,
            "bound": bound,
            "all_converged": bool(np.all((res.converged | res.pruned)[res.feasible])),
            "pruned": int(np.sum(res.pruned)),
            "stalled": int(np.sum(res.stalled)),
            "certified_gap": (None if bound is not None
                              else float(objective - np.min(res.lower))),
        },
    )


def _solve_group_paths(problem, config, spec, G, xty, yty, bound):
    p = problem.p
    c = config.c
    rng = np.random.default_rng(config.seed)
    ridge = np.linalg.solve(G + np.eye(p), xty)
    records = []
    best = None
    for gi, (w_g, gidx) in enumerate(zip(spec.weights, spec.partition)):
        starts = [np.zeros(p), ridge.copy()]
        while len(starts) < config.multistart_count:
            starts.append(ridge * (1.0 + 0.5 * rng.standard_normal(p))
                          + 0.1 * rng.standard_normal(p))
        sub_best = None
        any_feasible = False
        for start in starts:
            out = _solve_group_subproblem(G, xty, yty, c, gidx, w_g, spec,
                                          config, start, bound=bound)
            if out is None:
                continue
            any_feasible = True
            if sub_best is None or out[1] < sub_best[1]:
                sub_best = out
        if not any_feasible:
            records.append(SubproblemRecord((gi,), float("inf"), False, False))
            continue
        records.append(SubproblemRecord((gi,), float(sub_best[1]),
                                        bool(sub_best[2]), True))
        if best is None or sub_best[1] < best[1] - TIE_TOL:
            best = (sub_best[0], sub_best[1], gi)
    if best is None:
        raise DomainError("all group subproblems infeasible")
    beta = best[0]
    q = xty - G @ beta
    u_hat = omega_dual(spec, q)
    if u_hat <= 1e-12 * omega_dual(spec, xty):
        raise DegenerateResidualError(
            "dual residual norm vanished at the optimum; use the constrained "
            "variant or check the problem scaling"
        )
    rss = max(float(yty - 2.0 * beta @ xty + beta @ (G @ beta)), 0.0)
    objective = rss / (c * u_hat) + omega(spec, beta)
    return TrexFit(
        beta_hat=beta,
        u_hat=float(u_hat),
        objective=float(objective),
        winner=(best[2],),
        per_subproblem=tuple(records),
        spec=spec,
        config=config,
        diagnostics={"heuristic": True, "bound": bound,
                     "multistart_count": config.multistart_count},
    )


def solve_trex_constrained(problem: RegressionProblem, config: SolverConfig = None,
                           spec: NormSpec = None, bound: float = None) -> TrexFit:
    """Solve with the extra convex constraint dual(x.T (y - x b)) <= bound.

    The default bound is dual(x.T y), which makes the slow-rate gate on the
    fitted dual residual hold unconditionally. The constraint is enforced by
    rejecting infeasible line-search candidates, so every iterate (and the
    returned fit) satisfies it.
    """
    config = config or SolverConfig()
    spec = spec or l1_spec()
    _check_input(problem, config)
    if bound is None:
        bound = omega_dual(spec, problem.x.T @ problem.y)
    if bound <= 0:
        raise ConfigError("bound must be positive")
    return solve_trex(problem, config, spec, bound=float(bound))


def projection_complement(x_u: np.ndarray) -> np.ndarray:
    """Projector onto the orthogonal complement of the span of given columns.

    Uses the Moore-Penrose pseudo-inverse; the projector is invariant to the
    choice of generalized inverse.
    """
    n = x_u.shape[0]
    return np.eye(n) - x_u @ np.linalg.pinv(x_u)


def _restrict_spec(spec: NormSpec, keep: np.ndarray) -> NormSpec:
    """Restrict a norm spec to the coordinates in ``keep`` (ordered)."""
    if spec.kind == norms.L1:
        return spec
    pos = {int(j): i for i, j in enumerate(keep)}
    if spec.kind == norms.WEIGHTED_L1:
        return norms.weighted_l1_spec([spec.weights[j] for j in keep])
    groups, weights = [], []
    for w, g in zip(spec.weights, spec.partition):
        inside = [j in pos for j in g]
        if all(inside):
            groups.append(tuple(pos[j] for j in g))
            weights.append(w)
        elif any(inside):
            raise ConfigError(
                "a penalty group straddles the unpenalized index set; split "
                "the groups so each is fully penalized or fully unpenalized"
            )
    return norms.group_spec(groups, weights)


def solve_trex_unpenalized(problem: RegressionProblem, config: SolverConfig = None,
                           spec: NormSpec = None, unpenalized=()) -> TrexFit:
    """Solve with the coordinates in ``unpenalized`` forced to zero correlation.

    The unpenalized block satisfies x_U.T (y - x beta) = 0 exactly; it is
    eliminated through the projection onto the orthogonal complement of
    span(x_U), the penalized block is fit by the generalized solver on the
    projected problem, and the unpenalized coefficients are recovered by
    least squares on the remainder. An empty set reduces to the plain solver
    and the full set to least squares.
    """
    config = config or SolverConfig()
    spec = spec or l1_spec()
    _check_input(problem, config)
    p = problem.p
    u_idx = np.array(sorted(set(int(i) for i in unpenalized)), dtype=int)
    if u_idx.size and (u_idx[0] < 0 or u_idx[-1] >= p):
        raise ConfigError("unpenalized indices out of range")
    if u_idx.size == 0:
        return solve_trex(problem, config, spec)
    p_idx = np.array([j for j in range(p) if j not in set(u_idx.tolist())], dtype=int)

    x, y = problem.x, problem.y
    x_u = x[:, u_idx]
    if p_idx.size == 0:
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        q = x.T @ (y - x @ beta)
        return TrexFit(
            beta_hat=beta,
            u_hat=float(omega_dual(spec, q)),
            objective=float("nan"),
            winner=None,
            per_subproblem=(),
            spec=spec,
            config=config,
            diagnostics={"mode": "least_squares", "heuristic": False},
        )

    m_u = projection_complement(x_u)
    sub_x = m_u @ x[:, p_idx]
    sub_y = m_u @ y
    sub_spec = _restrict_spec(spec, p_idx)
    sub_cfg = replace(config, allow_unnormalized=True)
    sub_problem = RegressionProblem(sub_x, sub_y, normalized=False)
    sub_fit = solve_trex(sub_problem, sub_cfg, sub_spec)

    beta = np.zeros(p)
    beta[p_idx] = sub_fit.beta_hat
    resid_p = y - x[:, p_idx] @ sub_fit.beta_hat
    beta[u_idx] = np.linalg.pinv(x_u.T @ x_u) @ (x_u.T @ resid_p)

    winner = sub_fit.winner
    if winner is not None and len(winner) == 2:
        winner = (int(p_idx[winner[0]]), winner[1])
    elif winner is not None:
        winner = (int(winner[0]),)
    constraint_residual = float(np.max(np.abs(x_u.T @ (y - x @ beta))))
    diag = dict(sub_fit.diagnostics)
    diag.update({"mode": "unpenalized", "constraint_residual": constraint_residual,
                 "unpenalized": u_idx.tolist()})
    return TrexFit(
        beta_hat=beta,
        u_hat=sub_fit.u_hat,
        objective=sub_fit.objective,
        winner=winner,
        per_subproblem=sub_fit.per_subproblem,
        spec=spec,
        config=config,
        diagnostics=diag,
    )

"""Global solver for the ratio-penalized (tuning-free) sparse estimator.

The nonconvex objective

    ||y - x b||^2 / (c * dual(x.T (y - x b))) + penalty(b)

equals, pointwise, the minimum over 2p convex quadratic-over-linear
subproblems when the penalty is an (optionally weighted) l1 norm: one
subproblem per coordinate j and sign s, with denominator s * x_j @ (y - x b).
The subproblems are solved together by proximal gradient descent with
backtracking, and the best optimum is the global one. Every subproblem
starts at the exact minimizer of its own objective along its own coordinate,
from 0 or, without a bound, from one lasso pilot shared by all of them,
whichever minimum is lower (``_coordinate_starts``); each choice is closed
form. Each also yields a dual lower bound from its
rescaled gradient (Fercoq, Gramfort & Salmon, "Mind the duality gap", 2015):
it stops once its objective is within the tolerance of its bound, or is
pruned once its bound lies above the best objective so far by more than a
margin, since then it cannot win. A subproblem near the best is moved to the
closed-form stationary point on its support (``_face_points``) once its
signs settle, which makes its bound exact. A sign subproblem counts as
converged only when its certificate closed. The fit reports
``certified_gap``, the objective minus the smallest bound over the feasible
subproblems: the global optimum lies at most that far below the objective.

Under the dual constraint dual(x.T (y - x b)) <= bound the subproblems stay
convex, and their optima usually lie on a face |q_i| = bound w_i of the
constraint set, where the line search, which only rejects steps that leave
the set, cannot move. Starts outside the set are first repaired into it.
Then every subproblem is solved to its KKT point by a batched active-set
iteration on its support and its active faces (``_face_finish``, through
the same ``_face_points``), every support seeded from the signs of one
lasso, and its bound comes from weak duality for the faces (``_face_lower``).
So constrained subproblems close on their certificate and are pruned like
unconstrained ones.

Group penalties with a non-singleton group yield one subproblem per group,
with denominator ||x_G.T (y - x b)|| / w_G; those are not provably convex, so
each is solved from several seeded starts and the fit is flagged heuristic.
Every start is one row of the same batched engine, with the group prox in
place of soft thresholding; group rows are neither certified, pruned nor
polished. So every fit, sign or group, is one engine call.

Exact copies, x_k = +-x_j with equal weights, make rows (k, s) and (j, +-s)
the same function, so a sign fit solves only the first copy (``_copy_sets``).

A row is defined once. Every stage reads the constants of the fit (G = x.T x,
x.T y, y.y, c, the weights, delta, the bound and ||G||_2) from one record
(``_Constants``, built by ``_constants``); q = x.T (y - x b) and rss of any
rows come from ``_residuals``, a sign row's gradient and the y.z of its dual
bound from ``_sign_gradient``, and every penalty, dual norm and soft
threshold from ``norms``.

The engine's cost at the sizes of ``trexlab verify`` is its number of batched
rounds, not arithmetic: each backtracking round (``_ladder``) holds at least
``WIDE_ROUND`` / p^2 candidates, and the fit reports its rounds of the face
finish and of the line search (``face_rounds``, ``trial_rounds``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
# backtracking steps one iteration of the engine tries per row
MAX_TRIALS = 80
# a ladder round over p coordinates holds at least WIDE_ROUND // p^2
# candidates: below that a round costs its Python overhead, not arithmetic
WIDE_ROUND = 2 ** 14
# active-set rounds of one face finish (``_face_finish``)
MAX_FACE_ROUNDS = 40
# proximal-gradient steps of every lasso (``_lasso``): the pilot of the
# unconstrained sign rows' starts and the seed of the face finish's supports
LASSO_STEPS = 20
# the pilot lasso of the unconstrained starts is at lam = PILOT c dual(x.T y)
PILOT = 0.8
# the certificate tolerance: a sign row converges once its objective minus
# its dual lower bound is at most TOLERANCE (1 + |F|)
TOLERANCE = 1e-11
# iterations of one engine call
MAX_ITERATIONS = 20_000
# the open domain D > DELTA dual(x.T y) of the quadratic-over-linear objectives
DELTA = 1e-10
# seeded starts of every group of a group penalty
MULTISTARTS = 8
# a row whose objective fell by at most the tolerance over WINDOW
# iterations stops
WINDOW = 10


@dataclass(frozen=True)
class SolverConfig:
    """The settings of a fit.

    c is the ratio constant in (0, 2); 1/2 is the customary default. seed
    draws the perturbed starts of a group penalty. Everything else is a
    module constant: the certificate ``TOLERANCE``, the engine's
    ``MAX_ITERATIONS``, the domain guard ``DELTA`` and the ``MULTISTARTS`` of
    a group. The solvers take only designs whose columns are
    sqrt(n)-normalized.
    """

    c: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.c < 2.0):
            raise ConfigError(f"c must lie in (0, 2), got {self.c}")


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


# ---------------------------------------------------------------------------
# one batched proximal-gradient engine over the subproblem rows


def _near_margin(f):
    """The pruning margin: a row whose dual bound lies this far above the best
    objective cannot win, and a row within it of the best is polished."""
    return max(1e-6 * (1.0 + abs(f)), 1e-8)


def _copy_sets(x, w):
    """The sets of copies: columns of x equal up to sign, bit for bit, with
    equal weights w. Returns (keep, pos, flip) with x == x[:, keep][:, pos] *
    flip, keep the first column of every set. Copies share |v.x_k| for a
    fixed v, summed elementwise (a BLAS product need not give copies equal
    values); ``np.array_equal`` confirms each among the columns sharing it."""
    n, p = x.shape
    key = np.abs((x * np.cos(np.arange(n))[:, None]).sum(axis=0))
    # a stable sort keeps the column order within a run of equal keys
    order = np.argsort(key, kind="stable")
    key = key[order]
    lead, flip = np.arange(p), np.ones(p)
    for i in np.flatnonzero(key[1:] == key[:-1]) + 1:
        m = order[i]
        for k in order[np.searchsorted(key, key[i]):i]:
            if lead[m] == m and lead[k] == k and w[k] == w[m]:
                if np.array_equal(x[:, m], x[:, k]):
                    lead[m] = k
                elif np.array_equal(x[:, m], -x[:, k]):
                    lead[m], flip[m] = k, -1.0
    keep = np.flatnonzero(lead == np.arange(p))
    return keep, np.searchsorted(keep, lead), flip


class _Constants(NamedTuple):
    """What every stage of one fit reads, built once by ``_constants``: G = x.T x,
    xty = x.T y, yty = y.y, c, the ``spec`` of every penalty and dual norm,
    the weights w of a sign decomposition (None for a group penalty), dual0 =
    dual(x.T y), delta = ``DELTA`` dual0, the ``bound`` (None for none), the
    estimate Lg of ||G||_2 and the ``seed`` of the group starts."""

    G: np.ndarray
    xty: np.ndarray
    yty: float
    c: float
    spec: NormSpec
    w: np.ndarray
    dual0: float
    delta: float
    bound: float
    Lg: float
    seed: int


def _constants(problem: RegressionProblem, config: SolverConfig, spec: NormSpec,
               bound=None) -> _Constants:
    x, y = problem.x, problem.y
    G = x.T @ x
    xty = x.T @ y
    w = None if spec.kind == norms.GROUP else penalty_weight_vector(spec, problem.p)
    dual0 = omega_dual(spec, xty)
    if dual0 <= 0.0:
        raise DomainError("dual norm of x.T y is zero; the objective is undefined at 0")
    return _Constants(G, xty, float(y @ y), config.c, spec, w, dual0,
                      DELTA * dual0, bound, _spectral_norm_estimate(G), config.seed)


def _residuals(C: _Constants, B):
    """q = x.T (y - x b) and rss = ||y - x b||^2 of every row b of B, through G."""
    bg = B @ C.G
    rss = C.yty - 2.0 * (B @ C.xty) + np.einsum("kp,kp->k", B, bg)
    return C.xty[None, :] - bg, np.maximum(rss, 0.0)


def _sign_denominator(C: _Constants, j, s, q):
    """D = s q_j / w_j of sign rows (j, s) with correlation vectors q."""
    return s * q[np.arange(len(j)), j] / C.w[j]


def _sign_gradient(C: _Constants, j, s, B, q, rss, D):
    """The gradient of the smooth part rss / (c D) of sign rows (j, s) at B,
    and y.z with z that gradient in residual space: z is the gradient of
    g(r) = ||r||^2 / (c a.r), a = s x_j / w_j, so x.T z = -gradient, and
    theta z is dual feasible for the row (Fercoq, Gramfort & Salmon 2015)."""
    cD = C.c * D
    grad = ((-2.0 / cD)[:, None] * q
            + ((rss / (cD * D)) * s / C.w[j])[:, None] * C.G[:, j].T)
    a_y = s * C.xty[j] / C.w[j]
    return grad, (2.0 * (C.yty - B @ C.xty) - rss * a_y / D) / cD


def _face_points(C: _Constants, j, s, S, sig, face):
    """Stationary points of R sign rows on their supports and faces, batched.

    Row r keeps b_i = 0 off S_r, the signs sig on S_r, and q = xty - G b at
    q_i = face_i w_i on its faces A_r, the nonzero entries of ``face``. With
    a = s G_Sj / w_j, alpha = rss / (2 D), face multipliers m and
    mu = (c D / 2) m, stationarity on S_r reads

        G_SS b_S - G_SA mu_A = xty_S - alpha a - (c D / 2) w_S sig,
        G_AS b_S             = xty_A - face_A w_A,

    a bordered system solved for three right-hand sides by ``solve``. A row
    whose ``solve`` fails its residual test takes the pseudo-inverse, the
    least-norm solution of a singular system. With no faces
    this is the polish of ``_solve_subproblems``. With the row's own face j
    in A_r, D is fixed and the system is linear in b; otherwise D is affine
    in alpha, so alpha solves one quadratic. The root with D > 0 and the
    lowest objective on the restricted set wins, signs kept or not. Returns
    (b, m, ok): points and multipliers (R, p), and the rows with a valid root.
    """
    G, xty, yty, c, pen_w = C.G, C.xty, C.yty, C.c, C.w
    R, p = S.shape
    A = face != 0.0
    nS, nA = S.sum(axis=1), A.sum(axis=1)
    mS, n = int(nS.max()), int(nS.max() + nA.max())
    # row r's support, then its faces, each padded (``val`` marks the real
    # entries); a padded entry gets an identity row and column
    Sidx = np.argsort(~S, axis=1, kind="stable")[:, :mS]
    Aidx = np.argsort(~A, axis=1, kind="stable")[:, :n - mS]
    idx = np.concatenate([Sidx, Aidx], axis=1)
    val = np.concatenate([np.arange(mS) < nS[:, None],
                          np.arange(n - mS) < nA[:, None]], axis=1)
    Mx = G[idx[:, :, None], idx[:, None, :]]
    Mx[:, mS:, mS:] = 0.0
    Mx *= val[:, :, None] & val[:, None, :]
    Mx[:, np.arange(n), np.arange(n)] += ~val
    rr = np.arange(R)[:, None]
    a = (s / pen_w[j])[:, None] * G[Sidx, j[:, None]] * val[:, :mS]
    rhs = np.zeros((R, n, 3))
    rhs[:, :mS, 0] = xty[Sidx]
    rhs[:, mS:, 0] = xty[Aidx] - face[rr, Aidx] * pen_w[Aidx]
    rhs[:, :mS, 1] = a
    rhs[:, :mS, 2] = pen_w[Sidx] * sig[rr, Sidx]
    rhs *= val[:, :, None]
    U, bad = np.zeros_like(rhs), np.zeros(R, dtype=bool)
    if n:
        try:
            U = np.linalg.solve(Mx, rhs)
        except np.linalg.LinAlgError:
            bad[:] = True
        with np.errstate(invalid="ignore", over="ignore"):
            bad |= ~(np.abs(Mx @ U - rhs).max(axis=(1, 2))
                     <= 1e-9 * (1.0 + np.abs(rhs).max(axis=(1, 2))))
    if bad.any():
        U[bad] = np.linalg.pinv(Mx[bad], rcond=n * np.finfo(float).eps,
                                hermitian=True) @ rhs[bad]
    u0, ua, uw = U[:, :, 0], U[:, :, 1], U[:, :, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = 1.0 - 0.5 * c * np.einsum("ri,ri->r", a, uw[:, :mS])
        # D = e0 + e1 alpha and (b_S, -mu_A) = v0 + alpha v1
        e0 = (s * xty[j] / pen_w[j] - np.einsum("ri,ri->r", a, u0[:, :mS])) / den
        e1 = np.einsum("ri,ri->r", a, ua[:, :mS]) / den
        v0 = u0 - 0.5 * c * e0[:, None] * uw
        v1 = -ua - 0.5 * c * e1[:, None] * uw
        b0, b1, xS = v0[:, :mS], v1[:, :mS], xty[Sidx] * val[:, :mS]
        Gb0 = np.einsum("rij,rj->ri", Mx[:, :mS, :mS], b0)
        Gb1 = np.einsum("rij,rj->ri", Mx[:, :mS, :mS], b1)
        # rss(alpha) = r0 + r1 alpha + r2 alpha^2 = 2 alpha D(alpha)
        r0 = yty - 2.0 * np.einsum("ri,ri->r", b0, xS) + np.einsum("ri,ri->r", b0, Gb0)
        r1 = 2.0 * (np.einsum("ri,ri->r", b1, Gb0) - np.einsum("ri,ri->r", b1, xS))
        q2, q1, q0 = np.einsum("ri,ri->r", b1, Gb1) - 2.0 * e1, r1 - 2.0 * e0, r0
        disc = q1 * q1 - 4.0 * q2 * q0
        h = -0.5 * (q1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), q1))
        roots = np.where((disc >= 0)[:, None], np.stack([h / q2, q0 / h], axis=1), np.nan)
        linear = q2 == 0.0
        roots[linear, 0], roots[linear, 1] = -q0[linear] / q1[linear], np.nan
        wsig = pen_w[Sidx] * sig[rr, Sidx] * val[:, :mS]
        f = 2.0 * roots / c + (np.einsum("ri,ri->r", wsig, b0)[:, None]
                               + np.einsum("ri,ri->r", wsig, b1)[:, None] * roots)
        good = (roots > 0.0) & (e0[:, None] + e1[:, None] * roots > 0.0) & np.isfinite(f)
    pick = np.argmin(np.where(good, f, np.inf), axis=1)
    ok = good[rr[:, 0], pick]
    alpha = np.where(ok, roots[rr[:, 0], pick], 0.0)
    D = np.where(ok, e0 + e1 * alpha, 1.0)
    Z = v0 + alpha[:, None] * v1
    ok &= np.isfinite(Z).all(axis=1)
    # scatter into (R, p + 1): padded entries land in the spare last column
    B = np.zeros((R, p + 1))
    B[rr, np.where(val[:, :mS], Sidx, p)] = Z[:, :mS]
    M = np.zeros((R, p + 1))
    M[rr, np.where(val[:, mS:], Aidx, p)] = -2.0 * Z[:, mS:] / (c * D[:, None])
    return B[:, :p], M[:, :p], ok


def _face_lower(C: _Constants, yz, r, M):
    """LB_k(m) of sign rows under ``C.bound``, for any multipliers M.

    Weak duality for the Lagrangian of the faces |q_i| <= bound w_i: the
    row's smooth part is 1-homogeneous in the residual, so its conjugate is
    an indicator, and at any point of the row's domain t (z_k, m) is dual
    feasible, where z_k is the gradient of the smooth part in residual space
    (x.T z_k = -g_k, y.z_k = ``yz``), r = g_k - G m and
    t = min(1, 1 / max_i |r_i| / w_i). Then

        LB_k(m) = t (y.z_k + xty.m - bound sum_i w_i |m_i|)

    lies below the row's constrained optimum for every m: m = 0 gives the
    unconstrained bound, and at a KKT point with its face multipliers t = 1
    and LB_k equals the objective.
    """
    t = 1.0 / np.maximum(1.0, omega_dual(C.spec, r))
    return t * (yz + M @ C.xty - C.bound * (np.abs(M) @ C.w))


def _lasso(C: _Constants, lam):
    """The weighted lasso 1/2 b.G b - xty.b + lam sum_i w_i |b_i| after
    ``LASSO_STEPS`` proximal-gradient steps of length 1 / Lg from 0."""
    G, xty, Lg = C.G, C.xty, C.Lg
    b = np.zeros(G.shape[0])
    th = lam * C.w / Lg
    for _ in range(LASSO_STEPS):
        b = norms.soft_threshold(b + (xty - G @ b) / Lg, th)
    return b


def _lasso_signs(C: _Constants):
    """Signs of the weighted lasso (``_lasso``) at lam = c bound / 2; all zero
    where G has fewer than p / 2 dimensions, or no more than the signs that
    are nonzero."""
    sig = np.sign(_lasso(C, 0.5 * C.c * C.bound))
    p = sig.size
    # with p >> n the supports of the face finish outgrow the rank of G
    # anyway, and a lasso support near the rank only makes the rows' first
    # systems larger, or singular once the row's own coordinate joins
    rank = np.linalg.matrix_rank(C.G, hermitian=True)
    if p > 2 * rank or np.count_nonzero(sig) >= rank:
        sig[:] = 0.0
    return sig


def _face_finish(C: _Constants, j, s, B, incumbent):
    """Solve R sign rows under ``C.bound`` to their KKT points, batched.

    An active-set iteration on the support S with signs sig and the active
    faces, the nonzero entries of their sides tau. Every support starts from
    one shared seed, the signs of the weighted lasso at lam = c bound / 2 on
    (G, xty) (``_lasso_signs``); the row's own coordinate j joins with the
    sign of B_j unless B_j = 0. The
    seed changes how many rounds a row takes, not the KKT point it reaches.
    The faces start as those B lies within a relative 1e-6 of. Each round
    moves every row to the stationary point of its current sets
    (``_face_points``), with the faces a relative 1e-12 inside ``bound`` so
    that the point passes the engine's bound test despite rounding, then it

    - keeps the coordinates whose sign held and the faces whose multiplier
      has the face's side;
    - adds the coordinates off the support whose violation
      |(g - G m)_i| / w_i - 1 is positive and at least half the row's
      largest (after 10 rounds only the largest, which damps a row that
      cycles), with sign -sign((g - G m)_i), g the gradient of the smooth
      part;
    - adds the face the point violates most, if any; a row that meets a new
      face keeps its support and signs, since the face stops the move
      before a sign changes.

    A point must keep D > delta, the engine's domain, and is evaluated as the
    engine evaluates its rows. A row whose sets did
    not change stops: it is at a KKT point of its convex subproblem when it
    is stationary on its support, (g - G m)_i = -w_i sig_i to 1e-9 there;
    where it is not, the system was singular and inconsistent (a support
    past the rank of G), and its sets would never change again. A support
    that would become empty keeps its coordinates with their signs
    flipped. A row without a stationary point gets its own face j
    (D = bound), and stops if it has none there either. A round prunes
    every row whose LB_k(m) at its point (``_face_lower``) exceeds the
    incumbent (the best feasible objective, lowered by the rows already
    solved) by more than ``_near_margin``; the points on the way need not be
    feasible, since LB_k(m) holds anywhere in the row's domain.

    Returns (B, M, lower, status, rounds): for rows with status 1 the KKT
    point and its multipliers, for rows with status 3 the settled point that
    is not one and its multipliers, for rows with status 2 (pruned) the
    bound that pruned them; rows with status 0 reached none of these within
    ``MAX_FACE_ROUNDS``. ``rounds`` counts the rounds each row took part in.
    """
    G, c, pen_w, bound = C.G, C.c, C.w, C.bound
    R, p = B.shape
    out_B, out_M = B.copy(), np.zeros((R, p))
    lower = np.full(R, -np.inf)
    status = np.zeros(R, dtype=int)
    rounds = np.zeros(R, dtype=int)
    q, _ = _residuals(C, B)
    # the support of a start repaired into the constraint set, or of an
    # iterate that crawled along a face, is a poor seed; one lasso is a
    # better one for every row
    rows = np.arange(R)
    sig = np.tile(_lasso_signs(C), (R, 1))
    own =B[rows, j] != 0.0
    sig[rows[own], j[own]] = np.sign(B[rows[own], j[own]])
    S = sig != 0.0
    tau = np.sign(q) * (np.abs(q) >= bound * (1.0 - 1e-6) * pen_w)
    for round_ in range(MAX_FACE_ROUNDS):
        run = np.flatnonzero(status == 0)
        if run.size == 0:
            break
        rounds[run] += 1
        jr, sr = j[run], s[run]
        Bt, Mt, ok = _face_points(C, jr, sr, S[run], sig[run],
                                  bound * (1.0 - 1e-12) * tau[run])
        qt, rss = _residuals(C, Bt)
        D = _sign_denominator(C, jr, sr, qt)
        # the point must lie in the engine's domain, where LB_k(m) holds too
        ok &= D > C.delta
        # a row without a stationary point tries again on its own face
        retry = ~ok & (tau[run, jr] == 0.0)
        tau[run[retry], jr[retry]] = sr[retry]
        status[run[~ok & ~retry]] = -1
        run, jr, sr, Bt, Mt = run[ok], jr[ok], sr[ok], Bt[ok], Mt[ok]
        qt, rss, D = qt[ok], rss[ok], D[ok]
        if run.size == 0:
            continue
        # g - G m, with g the gradient of the smooth part
        g, yz = _sign_gradient(C, jr, sr, Bt, qt, rss, D)
        r = g - Mt @ G
        resid = np.abs(r)
        Sr, Ar = S[run], tau[run] != 0.0
        keep_S = Sr & (sig[run] * Bt > 0.0)
        # the coordinates off the support that violate stationarity by at
        # least half the largest violation (after 10 rounds only the
        # largest, which damps a row that cycles)
        over = np.where(Sr, 0.0, resid / pen_w - 1.0)
        share = 0.5 if round_ < 10 else 1.0
        add_S = (over > 1e-12) & (over >= share * over.max(axis=1, keepdims=True))
        keep_A = Ar & (tau[run] * Mt > 0.0)
        # the most violated face only: a far point violates many
        over = np.where(Ar, 0.0, np.abs(qt) / pen_w - bound)
        worst = np.argmax(over, axis=1)
        add_A = np.zeros_like(Ar)
        add_A[np.arange(run.size), worst] = over[np.arange(run.size), worst] > 0.0
        # a row that meets a new face keeps its support and signs: the face
        # stops the move before a sign would change
        meet = add_A.any(axis=1)
        keep_S[meet] = Sr[meet]
        # a support that would empty keeps its coordinates with the signs
        # they crossed to: with an empty support no face can be met
        flip = ~(keep_S | add_S).any(axis=1) & Sr.any(axis=1)
        keep_S[flip] = Sr[flip]
        sig[run[flip]] = np.where(Sr[flip], -sig[run[flip]], 0.0)
        settled = ((keep_S == Sr) & (keep_A == Ar) & ~add_S & ~add_A).all(axis=1) & ~flip
        # a settled point that is not stationary on its support solved an
        # inconsistent system by least squares: status 3, not a KKT point
        stuck = np.where(Sr, np.abs(r / pen_w + sig[run]), 0.0).max(axis=1) > 1e-9
        done = run[settled]
        status[done] = np.where(stuck[settled], 3, 1)
        out_B[done], out_M[done] = Bt[settled], Mt[settled]
        if settled.any():
            incumbent = min(incumbent, float(np.min(
                rss[settled] / (c * D[settled]) + omega(C.spec, Bt[settled]))))
        lb = _face_lower(C, yz, r, Mt)
        hopeless = ~settled & (lb > incumbent + _near_margin(incumbent))
        status[run[hopeless]] = 2
        lower[run[hopeless]] = lb[hopeless]
        sig[run] = np.where(add_S, -np.sign(r), sig[run])
        S[run] = keep_S | add_S
        tau[run] = np.where(add_A, np.sign(qt), np.where(keep_A, tau[run], 0.0))
    status[status < 0] = 0
    return out_B, out_M, lower, status, rounds


class _BatchResult(NamedTuple):
    beta: np.ndarray
    q: np.ndarray
    objective: np.ndarray
    converged: np.ndarray
    feasible: np.ndarray
    iterations: np.ndarray
    stalled: np.ndarray
    pruned: np.ndarray
    lower: np.ndarray
    face_rounds: int
    trial_rounds: int


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


def _ray_minima(C: _Constants, j, s, tau, base=None):
    """The exact minimum of sign rows (j, s) along their own coordinate from
    ``base`` (0 for None): row k's point is the base with its entry j_k set to
    beta_k. Returns (beta, F), F the row's objective there.

    The weight w = C.w_j both weighs the penalty and divides the denominator.
    With r the residual y - x b0 + b0_j x_j of the base with entry j cleared,
    g = G_jj, m = x_j @ r, mu = s m and v = s * x_j @ (r - beta x_j) = w * D,
    the objective along the ray is the convex
    (w / c) (R0 / v + v / g) + (w / g) |v - mu| + ||b0||_w - w |b0_j|, with
    R0 = r @ r - m^2 / g. Its slope vanishes at v_b = sqrt(R0 g / (1 + c))
    where v > mu and at v_a = sqrt(R0 g / (1 - c)) (inf when c >= 1) where
    v < mu, so v* = clip(mu, v_b, v_a), floored at tau * w, and
    beta = (m - s v*) / g: exactly 0 when mu lies in [max(v_b, tau w), v_a].
    From a base, m and r @ r come from the base's one residual, so a row
    costs O(1). Every G_jj must be positive.
    """
    c, w = C.c, C.w[j]
    g = np.diag(C.G)[j]
    if base is None:
        m, rr, rest = C.xty[j], C.yty, 0.0
    else:
        q0, rss0 = _residuals(C, base[None, :])
        bj, qj = base[j], q0[0, j]
        m = qj + g * bj
        rr = rss0[0] + bj * (2.0 * qj + g * bj)
        rest = np.abs(base) @ C.w - w * np.abs(bj)
    mu = s * m
    r0 = np.maximum(rr - m * m / g, 0.0)
    r0g = r0 * g
    v_b = np.sqrt(r0g / (1.0 + c))
    v_a = np.sqrt(r0g / (1.0 - c)) if c < 1.0 else np.inf
    v = np.maximum(np.minimum(np.maximum(mu, v_b), v_a), tau * w)
    return (m - s * v) / g, (w / c) * (r0 / v + v / g) + (w / g) * np.abs(v - mu) + rest


def _coordinate_starts(C: _Constants, j_arr, s_arr, tau, base=None):
    """Start points (K, p) of the sign subproblems and their feasibility.

    Every row starts at the exact minimizer of its own objective along its
    own coordinate (``_ray_minima``) from 0, b = beta * e_j, or, given a
    ``base``, from the base when that minimum is lower. A row with G_jj ~ 0
    starts at 0 and is feasible only if s x_j @ y / w_j exceeds delta.
    """
    B = np.zeros((len(j_arr), C.G.shape[0]))
    diagG = np.diag(C.G)
    dead = diagG[j_arr] <= 1e-12 * float(np.max(diagG, initial=1.0))
    feasible = ~dead | (s_arr * C.xty[j_arr] / C.w[j_arr] > C.delta)
    live = np.flatnonzero(~dead)
    j, s = j_arr[live], s_arr[live]
    beta, F = _ray_minima(C, j, s, tau)
    if base is not None:
        beta_b, F_b = _ray_minima(C, j, s, tau, base)
        on = F_b < F
        B[live[on]] = base
        beta = np.where(on, beta_b, beta)
    B[live, j] = beta
    return B, feasible


class _Rows(NamedTuple):
    """Subproblem rows: the coordinates of each denominator (padded with p),
    the sign (0 for a group row) and the dual weight dividing it."""

    idx: np.ndarray
    s: np.ndarray
    dw: np.ndarray


def _sign_rows(C: _Constants, j_arr, s_arr):
    """Rows (j, s) of the sign decomposition with their starts and feasibility.

    Every row starts at the exact minimizer of its objective along its own
    coordinate (``_coordinate_starts``): b = 0 only when that is the minimizer,
    since a row started at 0 with a small correlation s x_j @ y sits far above
    its optimum and steps to a dense iterate. Without a bound the ray may also
    start from one shared pilot, the weighted lasso (``_lasso``) at
    lam = ``PILOT`` c dual(x.T y): the winning row's KKT point is a weighted
    lasso at lam = c u / 2, so the pilot already holds much of the signal
    every row would otherwise find by itself, and a row starts from whichever
    of 0 and the pilot gives the lower minimum. Under ``C.bound`` the starts
    come from 0 alone, and a start that violates the constraint is repaired:
    under the default bound dual(x.T y), most ray starts, and all of them
    where p >> n.
    """
    tau = max(1e-3 * C.dual0, 10.0 * C.delta)
    base = None
    if C.bound is None:
        base = _lasso(C, PILOT * C.c * C.dual0)
        # at PILOT c >= 1 the pilot is 0, and so is every start from it
        base = base if base.any() else None
    B, feasible = _coordinate_starts(C, j_arr, s_arr, tau, base)
    if C.bound is not None:
        # repair starts that violate the dual constraint: aim the correlation
        # vector at a point strictly inside the constraint set, with one
        # stacked pseudo-inverse product per start, all in one call
        viol = np.flatnonzero(feasible & (omega_dual(C.spec, _residuals(C, B)[0])
                                          > C.bound * (1.0 + 1e-12)))
        if viol.size:
            jv, sv = j_arr[viol], s_arr[viol]
            target = np.zeros((viol.size, C.G.shape[0]))
            target[np.arange(viol.size), jv] = sv * 0.5 * C.bound * C.w[jv]
            Bv = (np.linalg.pinv(C.G) @ (C.xty[None, :] - target)[:, :, None])[:, :, 0]
            qv, _ = _residuals(C, Bv)
            ok = ((_sign_denominator(C, jv, sv, qv) > C.delta)
                  & (omega_dual(C.spec, qv) <= C.bound))
            B[viol[ok]] = Bv[ok]
            feasible[viol[~ok]] = False
    return _Rows(j_arr[:, None], s_arr, C.w[j_arr]), B, feasible


def _group_rows(C: _Constants):
    """Rows of the group subproblems, each group from ``MULTISTARTS`` starts:
    zeros, the ridge fit and perturbed ridge fits drawn from ``C.seed``,
    group-major.

    Under ``C.bound`` a start with omega_dual(x.T (y - x b)) > bound is repaired
    as ``_sign_rows`` repairs its starts: it moves to the point whose
    correlation vector is half the bound (in the group's dual norm) along
    x_G.T y on its own group and zero elsewhere, and stays infeasible if that
    point violates the bound too (a rank-deficient x.T x need not reach it).
    """
    G, xty, spec, bound = C.G, C.xty, C.spec, C.bound
    p = G.shape[0]
    n_groups = len(spec.partition)
    n_starts = MULTISTARTS
    rng = np.random.default_rng(C.seed)
    ridge = np.linalg.solve(G + np.eye(p), xty)
    # drawn group by group, start by start: the multiplicative draw first
    z = rng.standard_normal((n_groups, n_starts - 2, 2, p))
    B = np.zeros((n_groups, n_starts, p))
    B[:, 1] = ridge
    B[:, 2:] = ridge * (1.0 + 0.5 * z[:, :, 0]) + 0.1 * z[:, :, 1]
    idx, _, w = spec._layout
    rows = _Rows(np.repeat(idx, n_starts, axis=0), np.zeros(n_groups * n_starts),
                 np.repeat(w, n_starts))
    B = B.reshape(-1, p)
    feasible = np.ones(len(B), dtype=bool)
    if bound is not None:
        viol = np.flatnonzero(omega_dual(spec, _residuals(C, B)[0]) > bound)
        if viol.size:
            # the group's block of x.T y as a unit vector (its first
            # coordinate when the block is zero), padded with a zero column
            on = idx[viol // n_starts]
            u = np.append(xty, 0.0)[on]
            nrm = np.linalg.norm(u, axis=1)
            zero = nrm == 0
            u[zero, 0] = nrm[zero] = 1.0
            target = np.zeros((viol.size, p + 1))
            target[np.arange(viol.size)[:, None], on] = (
                (0.5 * bound) * rows.dw[viol, None] * u / nrm[:, None])
            B[viol] = (xty[None, :] - target[:, :p]) @ np.linalg.pinv(G)
            feasible = omega_dual(spec, _residuals(C, B)[0]) <= bound
    return rows, B, feasible


def _ladder(t, t_floor, cap, trial, out, dest):
    """Backtracking of k rows at once: each row's largest passing step among
    t, t/2, t/4, ..., at most ``MAX_TRIALS`` steps per row.

    Round r tries the next m steps of every pending row in one call
    ``trial(rows, steps)`` (``rows`` is the slice of all rows when all are
    pending with one step each), which returns a pass mask over the
    candidates and a tuple of per-candidate arrays. m = 2^r, but at least
    (``WIDE_ROUND`` // p^2) // pending, so that rounds over few cheap
    candidates (small p, few pending rows) are wide, with p the columns of
    ``out[0]`` (1 if it has none); m is capped so that a round holds at most
    ``cap`` candidates and no row tries more than ``MAX_TRIALS`` steps. Every
    row still takes the largest passing step. Every t must be at least its
    floor ``t_floor``; a step below it is never tried, and a row whose next
    step would fall below it is dead (stalled). The arrays of row i's
    accepted candidate go to row dest[i] of the arrays in ``out``. Returns the
    accepted mask, the new steps (the accepted one, or t * 2^-tried) and the
    dead mask.
    """
    t = t.copy()
    accepted = np.zeros(t.size, dtype=bool)
    dead = np.zeros(t.size, dtype=bool)
    pending = np.arange(t.size)
    tried = r = 0
    p = out[0].shape[1] if out[0].ndim > 1 else 1
    while pending.size and tried < MAX_TRIALS:
        m = min(max(2 ** r, WIDE_ROUND // p ** 2 // pending.size),
                max(cap // pending.size, 1), MAX_TRIALS - tried)
        if m == 1:
            # the common round: one step per row, never below its floor;
            # a slice spares the copies when every row is pending
            every = pending.size == t.size
            ok, data = trial(slice(None) if every else pending, t[pending])
            hit, pick, counts = ok, np.flatnonzero(ok), 1
        else:
            steps = t[pending, None] * 0.5 ** np.arange(m)
            valid = steps >= t_floor[pending, None]
            counts = valid.sum(axis=1)
            steps = steps[valid]
            ok, data = trial(np.repeat(pending, counts), steps)
            # each row's first passing candidate, or steps.size if none passed
            first = np.minimum.reduceat(np.where(ok, np.arange(steps.size), steps.size),
                                        np.cumsum(counts) - counts)
            hit = first < steps.size
            pick, counts = first[hit], counts[~hit]
            t[pending[hit]] = steps[pick]
        rows = pending[hit]
        kept = dest[rows]
        if pick.size == ok.size:
            pick = slice(None)          # every candidate passed: no copies
        for o, a in zip(out, data):
            o[kept] = a[pick]
        accepted[rows] = True
        miss = pending[~hit]
        t_miss = t[miss] * 0.5 ** counts
        t[miss] = t_miss
        stall = t_miss < t_floor[miss]
        dead[miss] = stall
        pending = miss[~stall]
        tried += m
        r += 1
    return accepted, t, dead


def _solve_subproblems(C: _Constants, rows, B, feasible):
    """Monotone proximal gradient with backtracking over K subproblem rows.

    Row k minimizes rss(b) / (c * D_k(b)) + omega(b) over the open domain
    D_k(b) > delta, from its start B[k]. The constants come from the record
    ``C``; q = xty - G b and rss of any rows from ``_residuals``, and omega
    and the dual norm of q from ``norms.omega`` and ``norms.omega_dual`` of
    ``C.spec``:

    - a sign row has D_k(b) = s_k * q_j(b) / dw_k (``_sign_denominator``),
      a (weighted) l1 penalty with prox ``norms.soft_threshold``, and a
      convex objective; its gradient and the y.z of its dual bound come from
      ``_sign_gradient``;
    - a group row has D_k(b) = ||q_idx(b)|| / dw_k and the group penalty,
      whose prox is ``norms.prox_omega``; its objective need not be convex.

    Each iteration backtracks every active row at once (``_ladder``): round r
    tries the next 2^r steps t, t/2, t/4, ... of every pending row, or more
    where few cheap candidates are pending, in one batch of at most
    max(K, 2p, ``WIDE_ROUND`` // p^2) candidates, and each row keeps its
    largest step that stays in the domain, passes ``bound`` and gives
    sufficient decrease: the decisions of trying one step at a time. A row
    tries at most ``MAX_TRIALS`` steps per iteration and stalls once its step
    would fall below 1e-18 times its first. A sign row grows its step by 1.5
    when the first step it tried in the iteration passed, and keeps the step
    it backtracked to otherwise; an accepted group row grows its step by 1.3.

    Under ``C.bound``, candidates with dual(q) > bound are rejected (no
    projection); the callers repair starts outside the set and mark those
    they cannot repair infeasible, and a start whose q, as computed here,
    fails the bound is infeasible too. So the q returned for every feasible
    row satisfies the bound exactly.

    Sign rows finish on their certificate: every iteration, a row converges
    once F_k - LB_k <= ``TOLERANCE`` (1 + |F_k|), and is otherwise pruned
    when LB_k lies above the incumbent min_k F_k by more than
    ``_near_margin``. A row within that margin whose sign pattern has held
    for 3 iterations is moved, once per pattern, to the stationary point on
    its support (one ``_face_points`` call with no faces for the rows due)
    when that point keeps every sign, the domain and ``bound`` and does not
    raise F_k. Any row whose objective fell by at most ``TOLERANCE``
    (1 + |F_k|) over ``WINDOW`` iterations stops too: the only stop of group
    rows, which then count as converged. A sign row counts as converged only
    if its certificate closed at its final point, however it stopped. A call
    takes at most ``MAX_ITERATIONS`` iterations.

    Under ``bound`` every sign row is first handed to the face finish
    (``_face_finish``); a KKT point it finds is adopted when it passes the
    engine's own domain and ``bound`` checks and does not raise F_k. The
    row's bound is then the largest of the unconstrained one, LB_k(m) with
    the face multipliers m (``_face_lower``, F_k at a KKT point) and the
    bound that pruned it, so the adopted rows close at the first iteration;
    the finish's rounds count as iterations. ``lower`` holds LB_k at the
    final iterate of every feasible sign row, inf for infeasible rows and
    -inf for group rows, which have no certificate.
    """
    G, c, bound, spec = C.G, C.c, C.bound, C.spec
    p = G.shape[0]
    K = len(rows.s)
    s_arr, dw = rows.s, rows.dw
    group = C.w is None
    # sign rows under a bound: face multipliers M and pruning bounds
    faces = bound is not None and not group
    if faces:
        known = np.full(K, -np.inf)

    if group:
        def block(q, sub):
            # pads index a zero column appended to q
            qg = np.append(q, np.zeros((sub.size, 1)), axis=1)[
                np.arange(sub.size)[:, None], rows.idx[sub]]
            return qg, np.sqrt(np.einsum("km,km->k", qg, qg))

        def eval_rows(Bm, sub):
            q, rss = _residuals(C, Bm)
            return q, rss, block(q, sub)[1] / dw[sub]

        def gradient(sub):
            # the slope of -D_k is G[:, idx] u / dw with the unit vector
            # u = q_idx / ||q_idx||; pads land in a spare last column. Group
            # rows have no dual bound: no y.z
            qg, nrm = block(q[sub], sub)
            U = np.zeros((sub.size, p + 1))
            U[np.arange(sub.size)[:, None], rows.idx[sub]] = qg / nrm[:, None]
            Dr = D[sub]
            coef = rss[sub] / (c * Dr * Dr)
            return ((-2.0 / (c * Dr))[:, None] * q[sub]
                    + (coef / dw[sub])[:, None] * (U[:, :p] @ G)), None
    else:
        j_arr = rows.idx[:, 0]
        inv_w = 1.0 / C.w

        def eval_rows(Bm, sub):
            q, rss = _residuals(C, Bm)
            return q, rss, _sign_denominator(C, j_arr[sub], s_arr[sub], q)

        def gradient(sub):
            return _sign_gradient(C, j_arr[sub], s_arr[sub], B[sub], q[sub], rss[sub],
                                  D[sub])

        def lower_bound(sub, grad, yz):
            # theta z is dual feasible for the row, so theta y.z bounds its
            # optimum below (``_sign_gradient``); its dual norm divides by
            # the weights through their inverses, taken once
            theta = 1.0 / np.maximum(1.0, (np.abs(grad) * inv_w).max(axis=1))
            if not faces:
                return theta * yz
            # under bound: the larger of LB(0), LB(m) with the row's stored
            # face multipliers, and the bound that pruned it
            lb = np.maximum(theta * yz, known[sub])
            has = np.flatnonzero(M[sub].any(axis=1))
            if has.size:
                Mk = M[sub[has]]
                lb[has] = np.maximum(lb[has], _face_lower(C, yz[has], grad[has] - Mk @ G, Mk))
            return lb

    def admitted(Q, rssQ, DQ):
        """Which rows stay in the domain and within ``bound``, and their
        rss / (c D), inf for the others."""
        ok = DQ > C.delta
        if bound is not None:
            ok &= omega_dual(spec, Q) <= bound
        with np.errstate(divide="ignore", invalid="ignore"):
            return ok, np.where(ok, rssQ / (c * np.where(ok, DQ, 1.0)), np.inf)

    def adopt(ks, Cand):
        """Move rows ks to the points Cand that pass ``admitted`` and do
        not raise F; returns the rows moved."""
        qC, rssC, DC = eval_rows(Cand, ks)
        ok, gC = admitted(qC, rssC, DC)
        FC = gC + omega(spec, Cand)
        ok &= FC <= F[ks]
        take = ks[ok]
        B[take], q[take], rss[take], D[take], F[take] = (
            Cand[ok], qC[ok], rssC[ok], DC[ok], FC[ok])
        return take

    q, rss, D = eval_rows(B, np.arange(K))
    # the bound is checked with the q stored for the row, which may differ in
    # its last bits from the q its caller computed for the same start
    ok, g = admitted(q, rss, D)
    feasible = feasible & ok
    F = np.where(feasible, g, np.inf) + omega(spec, B)

    with np.errstate(invalid="ignore"):
        t = np.maximum(c * np.where(D > 0, D, 1.0) / (2.0 * C.Lg), 1e-300)
    t_floor = 1e-18 * t
    cap = max(K, 2 * p, WIDE_ROUND // p ** 2)
    active = feasible.copy()
    converged = np.zeros(K, dtype=bool)
    stalled = np.zeros(K, dtype=bool)
    pruned = np.zeros(K, dtype=bool)
    # iterations each row's sign pattern has held, and whether it was polished
    steady = np.zeros(K, dtype=int)
    polished = np.zeros(K, dtype=bool)
    growth = 1.3 if group else 1.5
    iterations = np.zeros(K, dtype=int)
    # rounds of the face finish, and batched ``trial`` calls of the ladder
    face_rounds = trial_rounds = 0
    if faces:
        # every sign row goes to its KKT point first, also a row whose start
        # could not be put inside the constraint set: adopt the points that
        # pass the engine's own checks and do not raise F, keep every
        # multiplier, prune the feasible rows the finish pruned; the loop
        # then closes the adopted rows on their certificate and steps the rest
        Bk, M, lbk, st, iterations = _face_finish(C, j_arr, s_arr, B, float(F.min()))
        face_rounds = int(iterations.max(initial=0))
        gone = np.flatnonzero((st == 2) & feasible)
        pruned[gone], known[gone], active[gone] = True, lbk[gone], False
        settled = np.flatnonzero((st == 1) | (st == 3))
        take = adopt(settled, Bk[settled])
        feasible[take] = active[take] = True
    hist = deque([F.copy()], maxlen=WINDOW + 1)

    for it in range(MAX_ITERATIONS):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        grad, yz = gradient(act)
        if not group:
            incumbent = float(F.min())
            lb = lower_bound(act, grad, yz)
            closed = F[act] - lb <= TOLERANCE * (1.0 + np.abs(F[act]))
            hopeless = ~closed & (lb > incumbent + _near_margin(incumbent))
            pruned[act[hopeless]] = True
            stop = closed | hopeless
            if stop.any():
                active[act[stop]] = False
                act, grad = act[~stop], grad[~stop]
                if act.size == 0:
                    break
        iterations[act] += 1
        Br = B[act]
        gr = rss[act] / (c * D[act])

        def trial(ix, steps):
            nonlocal trial_rounds
            trial_rounds += 1
            b, g = Br[ix], grad[ix]
            V = b - steps[:, None] * g
            Cand = (norms.prox_omega(spec, V, steps[:, None]) if group
                    else norms.soft_threshold(V, steps[:, None] * C.w))
            qC, rssC, DC = eval_rows(Cand, act[ix])
            ok, gC = admitted(qC, rssC, DC)
            diff = Cand - b
            quad = (gr[ix] + np.einsum("kp,kp->k", g, diff)
                    + np.einsum("kp,kp->k", diff, diff) / (2.0 * steps))
            ok &= gC <= quad + 1e-12 * (1.0 + np.abs(gC))
            return ok, (Cand, qC, rssC, DC)

        t_first = t[act]
        accepted, t[act], dead = _ladder(t_first, t_floor[act], cap, trial,
                                         (B, q, rss, D), act)
        # a group row grows its step after every acceptance, a sign row only
        # when its first try passed: grown after a backtrack too, about half
        # of its next first tries would fail
        sel = act[accepted if group else accepted & (t[act] == t_first)]
        t[sel] = np.minimum(t[sel] * growth, 1e12)
        if dead.any():
            # cannot decrease further: stalled, converged only if the
            # certificate closes at the final point (checked below)
            gone = act[dead]
            stalled[gone] = True
            active[gone] = False

        Ba = B[act]
        F[act] = rss[act] / (c * D[act]) + omega(spec, Ba)
        if not group:
            kept = (((Ba > 0.0) == (Br > 0.0)) & ((Ba < 0.0) == (Br < 0.0))).all(axis=1)
            steady[act] = np.where(kept, steady[act] + 1, 0)
            polished[act[~kept]] = False
            incumbent = float(F.min())
            due = act[(steady[act] >= 3) & ~polished[act]
                      & (F[act] <= incumbent + _near_margin(incumbent))]
            polished[due] = True
            if due.size:
                sig = np.sign(B[due])
                Cand, _, ok = _face_points(C, j_arr[due], s_arr[due], sig != 0.0, sig,
                                           np.zeros_like(sig))
                # the point must keep every sign of the row
                ok &= (np.sign(Cand) == sig).all(axis=1)
                adopt(due[ok], Cand[ok])
        hist.append(F.copy())
        if len(hist) == WINDOW + 1:
            old = hist[0][act]
            done = (old - F[act]) <= TOLERANCE * (1.0 + np.abs(F[act]))
            converged[act[done]] = True
            active[act[done]] = False

    F = np.where(feasible, F, np.inf)
    lower = np.full(K, np.inf)
    live = np.flatnonzero(feasible)
    lower[live] = -np.inf if group else lower_bound(live, *gradient(live))
    if not group:
        # a sign row converged only if its certificate closed at its final
        # point, however it stopped: the window and a stall prove nothing
        with np.errstate(invalid="ignore"):
            converged = ~pruned & (F - lower <= TOLERANCE * (1.0 + np.abs(F)))
    return _BatchResult(B, q, F, converged, feasible, iterations, stalled, pruned,
                        lower, face_rounds, trial_rounds)


# ---------------------------------------------------------------------------
# full solves


def _check_input(problem: RegressionProblem):
    if not problem.normalized:
        raise NotNormalizedError("solver expects sqrt(n)-normalized columns")


def solve_trex(problem: RegressionProblem, config: SolverConfig = None,
               spec: NormSpec = None) -> TrexFit:
    """Globally solve the ratio objective via the subproblem decomposition.

    For (weighted) l1 penalties, and group penalties of singletons only, the
    2p convex sign subproblems are solved together in one engine call and
    the best optimum is returned. A subproblem converges once its objective
    is within ``TOLERANCE`` of its dual lower bound, and is pruned once that
    bound exceeds the best current objective by more than
    max(1e-6 (1 + |best|), 1e-8), so a pruned subproblem can never win. Any
    other group penalty has one nonconvex subproblem per group, solved from
    ``MULTISTARTS`` seeded starts in the same engine call; such a fit is
    flagged heuristic, carries no certificate and prunes nothing. The
    diagnostics report, for every penalty:

    - ``heuristic``: whether the fit comes from the group multistarts;
    - ``certified_gap``: objective minus the smallest dual lower bound over
      the feasible subproblems, an upper bound on the distance to the global
      optimum, under the bound of ``solve_trex_constrained`` too (there the
      bound accounts for the constraint); None for heuristic fits;
    - ``pruned``: the number of pruned subproblems solved (a set of copies
      is solved once);
    - ``stalled``: the number of rows stopped because the line-search step
      fell below its floor; such a row counts as converged only if its
      certificate closed;
    - ``all_converged``: every feasible subproblem converged or was pruned;
      a sign subproblem converged only if its certificate closed, so a sign
      fit with ``all_converged`` has a closed ``certified_gap``;
    - ``iterations``: the largest iteration count over the rows, rounds of
      the face finish included;
    - ``row_iterations``: proximal-gradient steps and face-finish rounds
      summed over all rows (every start of every subproblem);
    - ``face_rounds``: the rounds of the face finish, each one batched
      ``_face_points`` call (0 without a bound and for heuristic fits);
    - ``trial_rounds``: the batched line-search rounds, ``trial`` calls of
      ``_ladder``.

    A subproblem's record holds its best row. Ties within 1e-10 break to the
    lowest subproblem: the lowest coordinate, negative sign first.
    """
    _check_input(problem)
    return _solve(problem, config or SolverConfig(), spec or l1_spec())


def _solve(problem: RegressionProblem, config: SolverConfig, spec: NormSpec,
           bound=None) -> TrexFit:
    """The fit of ``solve_trex``, under ``bound`` (None, or positive and
    finite) when given; the caller checks the problem. Every stage reads the
    constants of the fit from one record (``_constants``), built for a sign
    fit on the first column of every set of copies only (``_copy_sets``),
    with a group spec of singletons as its weighted-l1 spec. Row (k, s) of a
    copy x_k = flip_k x_j is row (j, flip_k s), and has its record."""
    heuristic = spec.kind == norms.GROUP and any(len(g) > 1 for g in spec.partition)
    fit_problem, fit_spec = problem, spec
    if heuristic:
        identities = [(gi,) for gi in range(len(spec.partition))]
        sub = np.arange(len(identities))
    else:
        w = penalty_weight_vector(spec, problem.p)
        keep, pos, flip = _copy_sets(problem.x, w)
        if keep.size < problem.p:
            fit_problem = RegressionProblem(problem.x[:, keep], problem.y)
        if keep.size < problem.p or spec.kind == norms.GROUP:
            fit_spec = spec if spec.kind == norms.L1 else norms.weighted_l1_spec(w[keep])
        j_arr, s_arr = np.repeat(np.arange(problem.p), 2), np.tile([-1.0, 1.0], problem.p)
        identities = [(int(j), int(s)) for j, s in zip(j_arr, s_arr)]
        # every subproblem's row among the fitted rows: the first 2 m of
        # (0, -1), (0, 1), (1, -1), ... for m fitted columns
        sub = 2 * pos[j_arr] + (flip[j_arr] * s_arr > 0.0)
    C = _constants(fit_problem, config, fit_spec, bound)
    if heuristic:
        rows, B, feasible = _group_rows(C)
    else:
        rows, B, feasible = _sign_rows(C, j_arr[:2 * keep.size], s_arr[:2 * keep.size])
    res = _solve_subproblems(C, rows, B, feasible)

    if not np.isfinite(np.min(res.objective)):
        if bound is not None:
            raise DomainError(f"all subproblems infeasible under bound={bound:g}: "
                              "no start lies inside both the constraint and the domain")
        raise DomainError("all subproblems infeasible; input is degenerate")

    # one record per subproblem: the best of its per_sub consecutive rows
    n_sub, per_sub = len(identities), (MULTISTARTS if heuristic else 1)
    n_fit = len(B) // per_sub
    top = (np.argmin(res.objective.reshape(n_fit, per_sub), axis=1)
           + per_sub * np.arange(n_fit))[sub]
    objs = res.objective[top]
    converged, pruned = res.converged[top], res.pruned[top]
    feasible = res.feasible.reshape(n_fit, per_sub).any(axis=1)[sub]
    records = tuple(SubproblemRecord(identities[k], float(objs[k]), bool(converged[k]),
                                     bool(feasible[k]), bool(pruned[k])) for k in range(n_sub))

    # a copy ties with its first copy, which comes first: the winner is a first copy
    win = int(np.flatnonzero(objs <= np.min(objs) + TIE_TOL)[0])
    beta = res.beta[top[win]]
    u_hat = omega_dual(C.spec, res.q[top[win]])
    if u_hat <= 1e-12 * C.dual0:
        raise DegenerateResidualError("dual residual norm vanished at the optimum; use the "
                                      "constrained variant or check the problem scaling")
    # the residual itself: near an exact fit of y, y.y - 2 b.x.T y + b.G b
    # loses the small rss to cancellation
    r = fit_problem.y - fit_problem.x @ beta
    objective = float(r @ r) / (C.c * u_hat) + omega(C.spec, beta)
    if fit_problem is not problem:
        beta = np.zeros(problem.p)
        beta[keep] = res.beta[top[win]]
    winner = identities[win]
    if spec.kind == norms.GROUP and not heuristic:
        winner = (next(gi for gi, g in enumerate(spec.partition) if g[0] == winner[0]),)
    return TrexFit(beta_hat=beta, u_hat=float(u_hat), objective=float(objective),
                   winner=winner, per_subproblem=records, spec=spec, config=config,
                   diagnostics={
                       "heuristic": heuristic,
                       "iterations": int(np.max(res.iterations)),
                       "row_iterations": int(np.sum(res.iterations)),
                       "face_rounds": res.face_rounds,
                       "trial_rounds": res.trial_rounds,
                       "bound": bound,
                       "all_converged": bool(np.all((converged | pruned)[feasible])),
                       "pruned": int(np.sum(res.pruned)),
                       "stalled": int(np.sum(res.stalled)),
                       "certified_gap": (None if heuristic
                                         else float(objective - np.min(res.lower))),
                   })


def solve_trex_constrained(problem: RegressionProblem, config: SolverConfig = None,
                           spec: NormSpec = None, bound: float = None) -> TrexFit:
    """Solve with the extra convex constraint dual(x.T (y - x b)) <= bound.

    The default bound is dual(x.T y), the slow-rate gate on the fitted dual
    residual; inf is no bound, and a bound that is not positive (zero,
    negative or NaN) raises ``ConfigError``. Starts outside the constraint
    set are repaired or marked infeasible; sign subproblems are solved to
    their KKT points on the faces of the set and certified by a bound that
    accounts for the constraint, so ``certified_gap`` is a number; group
    rows reject line-search candidates that leave the set.
    ``u_hat`` is the dual norm of the correlation vector the engine tested,
    so the returned fit has u_hat <= bound with no rounding slack.
    """
    spec = spec or l1_spec()
    _check_input(problem)
    if bound is None:
        bound = omega_dual(spec, problem.x.T @ problem.y)
    if not bound > 0:
        raise ConfigError(f"bound must be positive or inf, got {bound}")
    return _solve(problem, config or SolverConfig(), spec,
                  None if bound == np.inf else float(bound))


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
    _check_input(problem)
    p = problem.p
    u_idx = np.array(sorted(set(int(i) for i in unpenalized)), dtype=int)
    if u_idx.size and (u_idx[0] < 0 or u_idx[-1] >= p):
        raise ConfigError("unpenalized indices out of range")
    if u_idx.size == 0:
        return _solve(problem, config, spec)
    p_idx = np.setdiff1d(np.arange(p), u_idx)

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
            diagnostics={"mode": "least_squares", "heuristic": False,
                         "all_converged": True},
        )

    # projector onto the orthogonal complement of span(x_U)
    m_u = np.eye(problem.n) - x_u @ np.linalg.pinv(x_u)
    sub_x = m_u @ x[:, p_idx]
    sub_y = m_u @ y
    sub_spec = _restrict_spec(spec, p_idx)
    sub_fit = _solve(RegressionProblem(sub_x, sub_y, normalized=False), config, sub_spec)

    beta = np.zeros(p)
    beta[p_idx] = sub_fit.beta_hat
    resid_p = y - x[:, p_idx] @ sub_fit.beta_hat
    beta[u_idx] = np.linalg.pinv(x_u.T @ x_u) @ (x_u.T @ resid_p)

    # a sign winner names a coordinate of the penalized block
    winner = sub_fit.winner
    if len(winner) == 2:
        winner = (int(p_idx[winner[0]]), winner[1])
    constraint_residual = float(np.max(np.abs(x_u.T @ (y - x @ beta))))
    diag = dict(sub_fit.diagnostics, mode="unpenalized",
                constraint_residual=constraint_residual, unpenalized=u_idx.tolist())
    return replace(sub_fit, beta_hat=beta, winner=winner, spec=spec, diagnostics=diag)

"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's solver code paths: objectives are
re-stated from scratch and minimized by iteratively zoomed dense grids.
"""

from __future__ import annotations

import numpy as np


def zoom_grid_minimize(f, lower, upper, points=61, rounds=10, shrink=4):
    """Global grid search with repeated zooming around the incumbent.

    ``f`` must accept an (m, d) array of candidate points and return m values.
    Returns (argmin, min).
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    best_x, best_v = None, np.inf
    for _ in range(rounds):
        axes = [np.linspace(lo[d], hi[d], points) for d in range(lo.size)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = f(pts)
        k = int(np.argmin(vals))
        if vals[k] < best_v:
            best_x, best_v = pts[k], float(vals[k])
        span = (hi - lo) / (points - 1) * shrink
        lo = best_x - span
        hi = best_x + span
    return best_x, best_v


def lasso_objective_batch(x, y, lam):
    def f(pts):
        r = y[None, :] - pts @ x.T
        return np.einsum("kn,kn->k", r, r) + 2.0 * lam * np.abs(pts).sum(axis=1)
    return f


def lasso_grid_oracle(x, y, lam, points=41, rounds=12):
    """Brute-force minimizer of the factor-two l1 least-squares objective."""
    p = x.shape[1]
    box = float(y @ y) / (2.0 * lam) + 1.0  # objective at 0 bounds ||beta||_1
    return zoom_grid_minimize(lasso_objective_batch(x, y, lam),
                              [-box] * p, [box] * p, points=points, rounds=rounds)


def trex_objective_batch(x, y, c, pen_w=None):
    pen_w = np.ones(x.shape[1]) if pen_w is None else np.asarray(pen_w)

    def f(pts):
        r = y[None, :] - pts @ x.T
        q = r @ x
        dual = np.max(np.abs(q) / pen_w[None, :], axis=1)
        rss = np.einsum("kn,kn->k", r, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dual > 0, rss / (c * dual), np.inf)
        return ratio + np.abs(pts) @ pen_w
    return f


def trex_grid_oracle(x, y, c, points=81, rounds=12):
    """Brute-force global minimum of the nonconvex ratio objective (p <= 2)."""
    p = x.shape[1]
    q0 = np.abs(x.T @ y)
    box = float(y @ y) / (c * float(np.max(q0))) + 1.0  # penalty of any optimum
    return zoom_grid_minimize(trex_objective_batch(x, y, c),
                              [-box] * p, [box] * p, points=points, rounds=rounds)


def subproblem_objective_batch(x, y, c, j, s):
    def f(pts):
        r = y[None, :] - pts @ x.T
        d = s * (r @ x[:, j])
        rss = np.einsum("kn,kn->k", r, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(d > 0, rss / (c * d), np.inf)
        return vals + np.abs(pts).sum(axis=1)
    return f


def norm_batch(kind, weights, partition, pts):
    """Penalty norm of each row, re-stated from the definitions."""
    pts = np.asarray(pts, dtype=float)
    if kind == "l1":
        return np.abs(pts).sum(axis=1)
    if kind == "weighted_l1":
        return np.abs(pts) @ np.asarray(weights, dtype=float)
    total = np.zeros(pts.shape[0])
    for w, g in zip(weights, partition):
        total += w * np.sqrt(np.sum(pts[:, list(g)] ** 2, axis=1))
    return total


def prox_objective_min(kind, weights, partition, v, t, points=61, rounds=10):
    """Numerical minimum of the prox objective 0.5||z - v||^2 + t * omega(z)."""
    v = np.asarray(v, dtype=float)
    box = np.abs(v) + 1.0

    def f(pts):
        quad = 0.5 * np.einsum("kp,kp->k", pts - v[None, :], pts - v[None, :])
        return quad + t * norm_batch(kind, weights, partition, pts)

    return zoom_grid_minimize(f, -box, box, points=points, rounds=rounds)


def _cone_ratio(x, support, eta):
    n, s = x.shape[0], support.size
    l1_s = float(np.sum(np.abs(eta[support])))
    if l1_s <= 0:
        return float("inf")
    return np.sqrt(s) * float(np.linalg.norm(x @ eta)) / (np.sqrt(n) * l1_s)


def compatibility_scalar(x, support, samples=2000, seed=0):
    """The compatibility search scored one candidate at a time.

    Same probes and the same random blocks in the same order as
    ``bounds.estimate_compatibility`` (support values, tail coins, tails,
    boundary coins, fractions), without its orthogonal short-circuit; each
    candidate is then built, rescaled into the cone and scored on its own.
    Returns (smallest ratio, candidates scored).
    """
    support = np.asarray(sorted(set(int(i) for i in support)), dtype=int)
    n, p = x.shape
    s = support.size
    off = np.array([j for j in range(p) if j not in set(support.tolist())], dtype=int)
    rng = np.random.default_rng(seed)
    best, count = float("inf"), 0

    def consider(eta):
        nonlocal best, count
        count += 1
        best = min(best, _cone_ratio(x, support, eta))

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

    on = rng.standard_normal((samples, s))
    has_tail = rng.random(samples) < 0.7 if off.size else np.zeros(samples, bool)
    k = int(np.count_nonzero(has_tail))
    tails = rng.standard_normal((k, off.size))
    boundary = rng.random(k) < 0.2
    u = rng.random(k)
    t = 0
    for i in range(samples):
        eta = np.zeros(p)
        eta[support] = on[i]
        if has_tail[i]:
            tail = tails[t]
            frac = 3.0 if boundary[t] else 3.0 * u[t]
            t += 1
            l1_tail = float(np.sum(np.abs(tail)))
            if l1_tail > 0:
                eta[off] = tail * frac * np.sum(np.abs(eta[support])) / l1_tail
        consider(eta)

    return best, count


def constrained_row_oracle(x, y, c, j, s, bound, pen_w=None, starts=()):
    """Minimum of the l1 sign subproblem (j, s) under |x.T (y - x b)| <= bound w,
    by scipy's SLSQP on b = b+ - b- with b+, b- >= 0 and the 2p linear faces.

    The subproblem is rss / (c D) + sum_i w_i |b_i| with D = s x_j.(y - x b) / w_j
    > 0. SLSQP runs from b = 0 and from every point in ``starts``; returns the
    best (b, objective) whose faces hold to a relative 1e-9, or (None, inf).
    """
    from scipy.optimize import minimize

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    p = x.shape[1]
    w = np.ones(p) if pen_w is None else np.asarray(pen_w, dtype=float)
    G, xty = x.T @ x, x.T @ y

    def split(v):
        return v[:p] - v[p:]

    def objective(v):
        r = y - x @ split(v)
        d = s * (x[:, j] @ r) / w[j]
        return 1e30 if d <= 0 else float(r @ r) / (c * d) + w @ v[:p] + w @ v[p:]

    faces = [{"type": "ineq", "fun": lambda v: bound * w - (xty - G @ split(v)),
              "jac": lambda v: np.hstack([G, -G])},
             {"type": "ineq", "fun": lambda v: bound * w + (xty - G @ split(v)),
              "jac": lambda v: np.hstack([-G, G])}]
    best, best_f = None, np.inf
    for b0 in [np.zeros(p), *starts]:
        b0 = np.asarray(b0, dtype=float)
        v0 = np.concatenate([np.maximum(b0, 0.0), np.maximum(-b0, 0.0)])
        res = minimize(objective, v0, method="SLSQP", bounds=[(0.0, None)] * (2 * p),
                       constraints=faces, options={"ftol": 1e-15, "maxiter": 2000})
        b = split(res.x)
        q = xty - G @ b
        if np.max(np.abs(q) / w) <= bound * (1.0 + 1e-9) and res.fun < best_f:
            best, best_f = b, float(res.fun)
    return best, best_f

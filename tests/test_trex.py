import collections
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize, minimize_scalar

from trexlab.errors import ConfigError, DegenerateResidualError, DomainError, NotNormalizedError
from trexlab.datagen import (
    DesignSpec,
    NoiseSpec,
    ScenarioSpec,
    SignalSpec,
    derive_seed,
    generate,
)
from trexlab.model import RegressionProblem, make_problem, normalize_columns
from trexlab.norms import (
    group_spec,
    l1_spec,
    omega_dual,
    singleton_groups,
    weighted_l1_spec,
)
from trexlab import trex
from trexlab.trex import (
    SolverConfig,
    solve_trex,
    solve_trex_constrained,
    solve_trex_unpenalized,
    trex_objective,
)

from trexlab.cli import main as cli_main
from trexlab.serialize import problem_to_csv

from conftest import random_problem
from oracles import (
    constrained_row_oracle,
    face_finish_from_own_coordinate,
    subproblem_objective_batch,
    trex_grid_oracle,
    zoom_grid_minimize,
)


def _settles_nothing(C, j, s, B, incumbent):
    """A face finish that leaves every row as it was, one round each: the
    constrained engine then steps its rows as it did before the finish."""
    R, p = B.shape
    return (B.copy(), np.zeros((R, p)), np.full(R, -np.inf), np.zeros(R, dtype=int),
            np.ones(R, dtype=int))


def _stalling_instance():
    """An iid design without copies: under the default bound and without the
    face finish, one sign row's line search stalls on a face."""
    problem, _ = generate(ScenarioSpec(n=15, p=10, s=2, seed=43))
    return problem


def _flipped_copies():
    """A duplicated-columns design, pairs (0, 1) and (2, 3), with column 1
    flipped; the signal lies on columns 0-2."""
    problem, _ = generate(ScenarioSpec(
        n=30, p=12, s=3, seed=2,
        design=DesignSpec(kind="duplicated_columns", duplicates=2)))
    return RegressionProblem(problem.x * np.append([1.0, -1.0], np.ones(10)), problem.y,
                             normalized=True)


def _same_optimum(a, b):
    """Both problems have the same optimum under both solvers, certified."""
    for solve in (solve_trex, solve_trex_constrained):
        fits = solve(a), solve(b)
        assert fits[1].objective == pytest.approx(fits[0].objective, rel=1e-10)
        for fit in fits:
            assert fit.diagnostics["certified_gap"] <= 1e-12 * (1.0 + abs(fit.objective))


def subproblem_objective(problem, beta, c, j, s):
    """Objective of the l1 sign subproblem (j, s) at one point; inf outside
    its domain s * x_j @ (y - x b) > 0."""
    f = subproblem_objective_batch(problem.x, problem.y, c, j, s)
    return float(f(np.asarray(beta, dtype=float)[None, :])[0])


def solve_subproblem(problem, c, j, s, bound=None):
    """The l1 sign subproblem (j, s) solved alone, as the one row of an engine
    call; returns (beta, objective, converged), or (None, inf, False) when the
    row is infeasible."""
    C = trex._constants(problem, SolverConfig(c=c), l1_spec(), bound)
    rows, B, feasible = trex._sign_rows(C, np.array([j]), np.array([float(s)]))
    res = trex._solve_subproblems(C, rows, B, feasible)
    if not res.feasible[0]:
        return None, float("inf"), False
    return res.beta[0], float(res.objective[0]), bool(res.converged[0])


class TestObjectives:
    def test_domain_error_at_exact_fit(self, rng):
        x, _ = normalize_columns(rng.standard_normal((6, 2)))
        beta = np.array([1.0, -1.0])
        problem = RegressionProblem(x, x @ beta, normalized=True)
        with pytest.raises(DomainError):
            trex_objective(problem, beta, 0.5)

    def test_subproblem_dominates_ratio(self, rng):
        # the ratio objective is the min over subproblems at every point
        problem = random_problem(rng, 10, 4)
        c = 0.5
        for _ in range(200):
            beta = rng.standard_normal(4)
            vals = []
            for j in range(4):
                for s in (-1, 1):
                    vals.append(subproblem_objective(problem, beta, c, j, s))
            assert np.isfinite(min(vals)), "some subproblem must be in domain"
            np.testing.assert_allclose(min(vals),
                                       trex_objective(problem, beta, c),
                                       rtol=1e-10)

    def test_subproblem_convex_on_segment(self, rng):
        problem = random_problem(rng, 8, 3)
        c = 0.5
        checked = 0
        while checked < 50:
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            mid = 0.5 * (a + b)
            fa = subproblem_objective(problem, a, c, 0, 1)
            fb = subproblem_objective(problem, b, c, 0, 1)
            fm = subproblem_objective(problem, mid, c, 0, 1)
            if not np.isfinite([fa, fb, fm]).all():
                continue
            assert fm <= 0.5 * (fa + fb) + 1e-9 * (1.0 + abs(fa) + abs(fb))
            checked += 1


class TestSolveSubproblem:
    def test_matches_grid_oracle_p2(self, rng):
        problem = random_problem(rng, 7, 2)
        c = 0.5
        box = float(problem.y @ problem.y) / (
            c * float(np.max(np.abs(problem.x.T @ problem.y)))) + 1.0
        for j in range(2):
            for s in (-1, 1):
                beta, val, conv = solve_subproblem(problem, c, j, s)
                f = subproblem_objective_batch(problem.x, problem.y, c, j, s)
                _, oracle = zoom_grid_minimize(f, [-box] * 2, [box] * 2,
                                               points=81, rounds=12)
                if not np.isfinite(oracle):
                    continue
                assert conv
                assert val <= oracle + 1e-6 * (1.0 + abs(oracle))

    def test_scalar_problem(self, rng):
        # p = 1: both sign subproblems solvable in closed grid form
        x = np.array([[1.0], [1.0]])
        y = np.array([2.0, 0.0])
        problem = RegressionProblem(x, y, normalized=True)
        c = 0.5
        beta, val, conv = solve_subproblem(problem, c, 0, 1)
        f = subproblem_objective_batch(x, y, c, 0, 1)
        _, oracle = zoom_grid_minimize(f, [-5.0], [5.0], points=201, rounds=12)
        assert conv
        assert val <= oracle + 1e-8


class TestSolveTrex:
    def test_matches_global_grid_oracle(self, rng):
        c = 0.5
        for _ in range(8):
            problem = random_problem(rng, 7, 2)
            fit = solve_trex(problem, SolverConfig(c=c))
            _, oracle = trex_grid_oracle(problem.x, problem.y, c)
            assert fit.objective <= oracle + 1e-3 * (1.0 + abs(oracle))
            np.testing.assert_allclose(
                fit.objective, trex_objective(problem, fit.beta_hat, c),
                rtol=1e-9)

    def test_u_hat_consistent(self, rng):
        problem = random_problem(rng, 12, 5)
        fit = solve_trex(problem)
        q = problem.x.T @ (problem.y - problem.x @ fit.beta_hat)
        assert fit.u_hat == pytest.approx(float(np.max(np.abs(q))), rel=1e-12)

    def test_permutation_invariance(self, rng):
        problem = random_problem(rng, 10, 4)
        perm = np.array([2, 0, 3, 1])
        permuted = RegressionProblem(problem.x[:, perm], problem.y,
                                     normalized=True)
        a = solve_trex(problem)
        b = solve_trex(permuted)
        np.testing.assert_allclose(b.beta_hat, a.beta_hat[perm],
                                   rtol=1e-6, atol=1e-8)
        assert a.objective == pytest.approx(b.objective, rel=1e-8)
        # copies split their coefficient freely, so only the optimum is compared
        problem = _flipped_copies()
        perm = rng.permutation(problem.p)
        _same_optimum(problem, RegressionProblem(problem.x[:, perm], problem.y,
                                                 normalized=True))

    def test_sign_flip_equivariance(self, rng):
        problem = random_problem(rng, 10, 4)
        flipped = RegressionProblem(problem.x * np.array([1, -1, 1, -1.0]),
                                    problem.y, normalized=True)
        a = solve_trex(problem)
        b = solve_trex(flipped)
        np.testing.assert_allclose(b.beta_hat,
                                   a.beta_hat * np.array([1, -1, 1, -1.0]),
                                   rtol=1e-4, atol=1e-7)
        problem = _flipped_copies()
        flips = rng.choice([-1.0, 1.0], problem.p)
        _same_optimum(problem, RegressionProblem(problem.x * flips, problem.y,
                                                 normalized=True))

    def test_per_subproblem_records(self, rng):
        problem = random_problem(rng, 9, 3)
        fit = solve_trex(problem)
        assert len(fit.per_subproblem) == 6
        idents = [r.identity for r in fit.per_subproblem]
        assert idents == [(j, s) for j in range(3) for s in (-1, 1)]
        assert fit.winner in idents
        win_obj = min(r.objective for r in fit.per_subproblem)
        assert fit.objective <= win_obj + 1e-8 * (1.0 + abs(win_obj))

    def test_rejects_unnormalized(self, rng):
        x = rng.standard_normal((6, 2)) * 4.0
        problem = RegressionProblem(x, rng.standard_normal(6))
        with pytest.raises(NotNormalizedError):
            solve_trex(problem)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(c=2.0)
        with pytest.raises(ConfigError):
            SolverConfig(c=0.0)
        SolverConfig(c=1.999)

    def test_weighted_spec_changes_solution(self, rng):
        problem = random_problem(rng, 12, 3)
        heavy = weighted_l1_spec([100.0, 1.0, 1.0])
        fit = solve_trex(problem, spec=heavy)
        assert abs(fit.beta_hat[0]) <= 1e-8

    def test_singleton_groups_match_l1(self, rng):
        problem = random_problem(rng, 10, 4)
        a = solve_trex(problem)
        b = solve_trex(problem, spec=singleton_groups(4))
        np.testing.assert_allclose(b.beta_hat, a.beta_hat, rtol=1e-6, atol=1e-8)
        assert a.objective == pytest.approx(b.objective, rel=1e-8)
        assert b.diagnostics["heuristic"] is False

    @pytest.mark.parametrize("solve", [solve_trex, solve_trex_constrained])
    def test_weighted_singleton_groups_match_weighted_l1_to_the_bit(self, rng, solve):
        # a group spec of singletons enters the engine as its weighted-l1 spec
        problem = random_problem(rng, 14, 6)
        w = rng.uniform(0.5, 2.0, 6)
        a = solve(problem, spec=weighted_l1_spec(w))
        b = solve(problem, spec=singleton_groups(6, w))
        np.testing.assert_array_equal(b.beta_hat, a.beta_hat)
        assert b.objective == a.objective and b.u_hat == a.u_hat
        assert b.diagnostics["certified_gap"] == a.diagnostics["certified_gap"]
        assert a.winner[0] == b.winner[0] and b.winner == (a.winner[0],)
        assert [r.identity for r in b.per_subproblem] == [r.identity for r in a.per_subproblem]
        assert [r.objective for r in b.per_subproblem] == [r.objective for r in a.per_subproblem]
        assert len(set(w)) == 6 and not b.diagnostics["heuristic"]


class TestSharedEvaluation:
    """The one evaluation of a row that every stage of a fit calls."""

    @pytest.mark.parametrize("n, p", [(12, 5), (6, 15)])
    def test_residuals_match_the_residual_vector(self, rng, n, p):
        problem = random_problem(rng, n, p)
        x, y = problem.x, problem.y
        C = trex._constants(problem, SolverConfig(), l1_spec())
        B = rng.standard_normal((9, p)) * rng.uniform(0.01, 2.0, (9, 1))
        q, rss = trex._residuals(C, B)
        R = y[None, :] - B @ x.T
        np.testing.assert_allclose(q, R @ x, rtol=1e-12, atol=1e-12 * np.abs(R @ x).max())
        np.testing.assert_allclose(rss, np.einsum("kn,kn->k", R, R), rtol=1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_sign_gradient_matches_central_differences(self, rng, weighted):
        problem = random_problem(rng, 15, 5)
        c, p = 0.5, 5
        w = rng.uniform(0.5, 2.0, p) if weighted else np.ones(p)
        C = trex._constants(problem, SolverConfig(c=c), weighted_l1_spec(w))
        x, y = problem.x, problem.y

        def smooth(b, j, s):
            r = y - x @ b
            return (r @ r) / (c * s * (x[:, j] @ r) / w[j])

        checked = 0
        for j in range(p):
            for s in (-1.0, 1.0):
                b = 0.1 * rng.standard_normal(p)
                D = s * (x[:, j] @ (y - x @ b)) / w[j]
                if D <= 0.1:
                    continue
                q, rss = trex._residuals(C, b[None, :])
                grad, yz = trex._sign_gradient(C, np.array([j]), np.array([s]), b[None, :],
                                               q, rss, np.array([D]))
                # z, the gradient in residual space, has x.T z = -grad
                r, a = y - x @ b, s * x[:, j] / w[j]
                z = 2.0 * r / (c * D) - (r @ r) / (c * D * D) * a
                np.testing.assert_allclose(x.T @ z, -grad[0], rtol=1e-9, atol=1e-12)
                assert yz[0] == pytest.approx(y @ z, rel=1e-10)
                h = 1e-6
                fd = [(smooth(b + h * e, j, s) - smooth(b - h * e, j, s)) / (2.0 * h)
                      for e in np.eye(p)]
                np.testing.assert_allclose(grad[0], fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())
                checked += 1
        assert checked >= p


def _drawn_problem(seed, p, extra, noise):
    return random_problem(np.random.default_rng(seed), p + extra, p, noise=noise)


_DRAWN = dict(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 10), extra=st.integers(3, 15),
              noise=st.floats(0.1, 3.0))


@pytest.mark.parametrize("solve", [solve_trex, solve_trex_constrained])
class TestEquivariance:
    """Properties of the estimator on drawn iid problems, whatever the starts
    and the route the engine takes to the optimum."""

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(1e-2, 1e2), **_DRAWN)
    def test_scaling_y_scales_the_fit(self, solve, seed, p, extra, noise, alpha):
        # rss / u is 1-homogeneous in (y, b), and so is the default bound
        problem = _drawn_problem(seed, p, extra, noise)
        fit = solve(problem)
        scaled = solve(RegressionProblem(problem.x, alpha * problem.y, normalized=True))
        assert scaled.objective == pytest.approx(alpha * fit.objective, rel=1e-9)
        np.testing.assert_allclose(scaled.beta_hat / alpha, fit.beta_hat, rtol=1e-9,
                                   atol=1e-9)
        assert scaled.winner == fit.winner

    @settings(max_examples=20, deadline=None)
    @given(order=st.randoms(use_true_random=False), **_DRAWN)
    def test_permuting_and_flipping_columns_maps_the_winner(self, solve, seed, p, extra,
                                                            noise, order):
        problem = _drawn_problem(seed, p, extra, noise)
        perm = np.array(order.sample(range(p), p))
        flips = np.array([order.choice([-1.0, 1.0]) for _ in range(p)])
        fit = solve(problem)
        moved = solve(RegressionProblem(problem.x[:, perm] * flips, problem.y,
                                        normalized=True))
        assert moved.objective == pytest.approx(fit.objective, rel=1e-9)
        # column j of x is column k = pi(j) of the moved design, times flips[k]
        j, s = fit.winner
        k = int(np.flatnonzero(perm == j)[0])
        image = (k, int(flips[k] * s))
        objectives = {r.identity: r.objective for r in moved.per_subproblem}
        assert objectives[image] == pytest.approx(moved.objective, rel=1e-9)
        # optima can come in pairs: with equal column norms, reflecting the
        # residual across the hyperplane normal to x_i + x_k maps (q_i, q_k)
        # to (-q_k, -q_i) and keeps rss, and ||b||_1 too while b_i and b_k
        # keep opposite signs; ties break to the lowest subproblem, so only a
        # winner without a tie maps exactly
        best = min(r.objective for r in fit.per_subproblem)
        if sum(r.objective <= best + 1e-9 * best for r in fit.per_subproblem) == 1:
            assert moved.winner == image


# a design with planted copies: column k is SOURCE[k] of ten iid columns
# times SIGNS[k]; columns 3 and 12 are flipped copies of 0 and 2, and 1, 6
# and 10 are a triple. The first copies are columns 0-2, 4, 5, 7-9, 11 and 13,
# in the order of the ten iid columns
SOURCE = np.array([0, 1, 2, 0, 3, 4, 1, 5, 6, 7, 1, 8, 2, 9])
SIGNS = np.array([1, 1, 1, -1, 1, 1, 1, 1, 1, 1, -1, 1, -1, 1.0])
LATER = [3, 6, 10, 12]
FIRST = [0, 1, 2, 4, 5, 7, 8, 9, 11, 13]

# the three estimators; the unpenalized one leaves the last column, no copy,
# unpenalized
COPY_SOLVERS = {
    "trex": solve_trex,
    "constrained": solve_trex_constrained,
    "unpenalized": lambda problem: solve_trex_unpenalized(problem,
                                                          unpenalized=(problem.p - 1,)),
}


class TestCopies:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), p=st.integers(1, 8),
           planted=st.integers(0, 8), zeros=st.integers(0, 3), weighted=st.booleans())
    def test_copy_sets_are_exact_and_complete(self, seed, n, p, planted, zeros, weighted):
        # unnormalized columns: p iid, ``planted`` copies of earlier columns
        # (copies of copies too) with random signs and ``zeros`` zero
        # columns, shuffled; weights 1 or 2, so some copies differ in weight
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        for _ in range(planted):
            x = np.column_stack([x, rng.choice([-1.0, 1.0]) * x[:, rng.integers(x.shape[1])]])
        x = np.column_stack([x, np.zeros((n, zeros))])[:, rng.permutation(p + planted + zeros)]
        w = rng.choice([1.0, 2.0], x.shape[1]) if weighted else np.ones(x.shape[1])
        keep, pos, flip = trex._copy_sets(x, w)
        assert np.array_equal(x, x[:, keep][:, pos] * flip)
        assert np.array_equal(w, w[keep][pos])
        assert (np.diff(keep) > 0).all() and (keep[pos] <= np.arange(x.shape[1])).all()
        for a, k in enumerate(keep):
            for m in keep[a + 1:]:
                assert not (w[k] == w[m] and (np.array_equal(x[:, k], x[:, m])
                                              or np.array_equal(x[:, k], -x[:, m])))

    def test_zero_columns_of_an_unnormalized_problem(self, rng):
        # three zero columns merge into one, whose rows are infeasible
        problem = random_problem(rng, 12, 5)
        x = np.column_stack([problem.x[:, :2], np.zeros((12, 2)), problem.x[:, 2:],
                             np.zeros(12)])
        fit = trex._solve(RegressionProblem(x, problem.y), SolverConfig(), l1_spec())
        ref = trex._solve(problem, SolverConfig(), l1_spec())
        assert fit.objective == pytest.approx(ref.objective, rel=1e-12)
        records = {r.identity: r for r in fit.per_subproblem}
        for k in (2, 3, 7):
            assert fit.beta_hat[k] == 0.0
            assert not (records[(k, -1)].feasible or records[(k, 1)].feasible)

    @pytest.mark.parametrize("solver", COPY_SOLVERS)
    def test_planted_copies_match_the_design_without_them(self, solver):
        solve = COPY_SOLVERS[solver]
        # the signal lies on the sources of the copies
        problem = random_problem(np.random.default_rng(5), 30, 10,
                                 beta=np.append([2.0, -1.5, 1.0], np.zeros(7)))
        x = problem.x[:, SOURCE] * SIGNS
        fit = solve(RegressionProblem(x, problem.y, normalized=True))
        ref = solve(problem)
        f = fit.objective
        assert f == pytest.approx(ref.objective, rel=1e-12)
        for each in (fit, ref):
            assert each.diagnostics["all_converged"]
            assert each.diagnostics["certified_gap"] <= trex.TOLERANCE * (1.0 + abs(f))
        assert (fit.beta_hat[LATER] == 0.0).all() and fit.beta_hat[:3].all()
        np.testing.assert_allclose(fit.beta_hat[FIRST], ref.beta_hat, rtol=1e-9, atol=1e-12)
        assert fit.winner == (FIRST[ref.winner[0]], ref.winner[1])
        # row (k, s) of a copy is row (j, flip s) of its first copy j
        records = {r.identity: r for r in fit.per_subproblem}
        for k in LATER:
            j = FIRST[SOURCE[k]]
            for s in (-1, 1):
                lead = records[(j, int(SIGNS[k] * SIGNS[j]) * s)]
                assert records[(k, s)] == replace(lead, identity=(k, s))


class TestGroupPenalty:
    def test_group_solution_no_worse_than_coordinate_one(self, rng):
        problem = random_problem(rng, 12, 4)
        spec = group_spec([(0, 1), (2, 3)])
        fit = solve_trex(problem, spec=spec)
        assert fit.diagnostics["heuristic"] is True
        # the l1 solution is feasible for the ratio objective under the
        # group norm; the heuristic should find something comparable
        l1_fit = solve_trex(problem)
        ref = trex_objective(problem, l1_fit.beta_hat, 0.5, spec)
        assert fit.objective <= ref + 1e-6 * (1.0 + abs(ref))

    def test_group_objective_consistent(self, rng):
        problem = random_problem(rng, 10, 4)
        spec = group_spec([(0, 1, 2), (3,)])
        fit = solve_trex(problem, spec=spec)
        np.testing.assert_allclose(
            fit.objective,
            trex_objective(problem, fit.beta_hat, 0.5, spec),
            rtol=1e-8)

    def test_rows_do_not_interact_in_the_batch(self, rng):
        # group rows are never pruned, so solving every (group, start) row
        # alone through the engine must reproduce the batched fit
        problem = random_problem(rng, 20, 8)
        spec = group_spec([(j, j + 1) for j in range(0, 8, 2)])
        config = SolverConfig()
        fit = solve_trex(problem, config, spec)
        C = trex._constants(problem, config, spec)
        rows, B, feasible = trex._group_rows(C)
        m = trex.MULTISTARTS
        assert len(B) == 4 * m
        alone = np.full(len(B), np.inf)
        for k in range(len(B)):
            res = trex._solve_subproblems(C, _take(rows, [k]), B[[k]], feasible[[k]])
            alone[k] = res.objective[0]
        assert np.isfinite(alone).any()
        assert fit.objective == pytest.approx(alone.min(), rel=1e-12)
        # a record holds its group's best start
        assert len(fit.per_subproblem) == 4
        for gi, record in enumerate(fit.per_subproblem):
            assert record.identity == (gi,)
            assert record.objective == pytest.approx(alone[m * gi:m * gi + m].min(), rel=1e-12)
        assert fit.winner == (int(np.argmin(alone)) // m,)

    def test_multistart_determinism(self, rng):
        problem = random_problem(rng, 10, 4)
        spec = group_spec([(0, 1), (2, 3)])
        cfg = SolverConfig(seed=5)
        a = solve_trex(problem, cfg, spec)
        b = solve_trex(problem, cfg, spec)
        np.testing.assert_array_equal(a.beta_hat, b.beta_hat)


def _assert_matches_subproblems_alone(fit, problem, bound=None):
    """The fit's objective is the best sign subproblem optimum, each solved
    alone, and its winner attains that optimum (ties within 1e-8)."""
    objs = {}
    for j in range(problem.p):
        for s in (-1, 1):
            _, obj, converged = solve_subproblem(problem, 0.5, j, s, bound=bound)
            if np.isfinite(obj):
                # one row is its own incumbent, so it never prunes
                assert converged
            objs[(j, s)] = obj
    best = min(objs.values())
    assert fit.objective == pytest.approx(best, rel=1e-7, abs=1e-9)
    assert objs[fit.winner] <= best + 1e-8 * (1.0 + abs(best))


class TestPruning:
    @pytest.mark.parametrize("p", [3, 5, 8])
    def test_l1_matches_every_subproblem_alone(self, rng, p):
        problem = random_problem(rng, 3 * p, p)
        _assert_matches_subproblems_alone(solve_trex(problem), problem)

    @pytest.mark.parametrize("p", [3, 6])
    def test_weighted_l1_matches_every_subproblem_alone(self, rng, p):
        # weights w on x equal the plain l1 problem on the columns x_i / w_i
        problem = random_problem(rng, 3 * p, p)
        w = rng.uniform(0.5, 2.0, p)
        fit = solve_trex(problem, spec=weighted_l1_spec(w))
        scaled = RegressionProblem(problem.x / w, problem.y, normalized=False)
        _assert_matches_subproblems_alone(fit, scaled)

    @pytest.mark.parametrize("p", [4, 7])
    def test_constrained_matches_every_subproblem_alone(self, rng, p):
        problem = random_problem(rng, 3 * p, p)
        bound = 0.8 * float(np.max(np.abs(problem.x.T @ problem.y)))
        fit = solve_trex_constrained(problem, bound=bound)
        _assert_matches_subproblems_alone(fit, problem, bound=bound)
        f = fit.objective
        assert -1e-12 * (1.0 + abs(f)) <= fit.diagnostics["certified_gap"] <= 1e-9 * (1.0 + abs(f))

    def test_pruned_rows_settled_and_counted(self):
        problem, _ = generate(ScenarioSpec(n=40, p=20, s=2, seed=3))
        fit = solve_trex(problem)
        pruned = [r for r in fit.per_subproblem if r.pruned]
        assert fit.diagnostics["pruned"] == len(pruned) > 0
        assert not any(r.converged for r in pruned)
        assert fit.diagnostics["all_converged"]
        assert 0.0 <= fit.diagnostics["certified_gap"] <= 1e-12 * (1.0 + abs(fit.objective))

    def test_stalled_rows_count_as_unconverged(self, monkeypatch, tmp_path):
        # under the dual constraint the face finish solves every row, but
        # without it the line search stalls on 1 row, and a stalled row whose
        # certificate does not close is not converged
        problem = _stalling_instance()
        fit = solve_trex_constrained(problem)
        assert fit.diagnostics["stalled"] == 0 and fit.diagnostics["all_converged"]
        assert fit.objective == pytest.approx(3.701163474318186, rel=1e-9)
        assert solve_trex(problem).diagnostics["stalled"] == 0

        monkeypatch.setattr(trex, "_face_finish", _settles_nothing)
        stalled = solve_trex_constrained(problem)
        assert stalled.diagnostics["stalled"] == 1
        assert not stalled.diagnostics["all_converged"]
        assert stalled.objective > fit.objective
        open_rows = [r for r in stalled.per_subproblem if not (r.converged or r.pruned)]
        assert open_rows
        # trexlab fit exits 2 for such a fit
        path = tmp_path / "problem.csv"
        path.write_text(problem_to_csv(problem))
        assert cli_main(["fit", str(path), "--estimator", "trex-constrained",
                         "--out", str(tmp_path / "fit.json")]) == 2

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 12),
           extra=st.integers(3, 20), noise=st.floats(0.1, 3.0))
    def test_certificate_and_pruning_are_sound(self, seed, p, extra, noise):
        problem = random_problem(np.random.default_rng(seed), p + extra, p,
                                 noise=noise)
        fit = solve_trex(problem)
        f = fit.objective
        assert fit.diagnostics["certified_gap"] >= -1e-12 * (1.0 + abs(f))
        records = {r.identity: r for r in fit.per_subproblem}
        assert not records[fit.winner].pruned
        for r in fit.per_subproblem:
            if r.pruned:
                assert r.objective >= f


def _restricted_optimum(problem, c, j, s, b):
    """Minimum of row (j, s) over points with the support and signs of b, by
    scipy.optimize from b; on that set the row objective is smooth."""
    x, y = problem.x, problem.y
    S = np.flatnonzero(b)
    sigma = np.sign(b[S])

    def f(z):
        r = y - x[:, S] @ z
        d = s * (x[:, j] @ r)
        if d <= 0:
            return np.inf, np.zeros(S.size)
        grad = (-2.0 * r + (r @ r) * s * x[:, j] / d) @ x[:, S] / (c * d) + sigma
        return r @ r / (c * d) + sigma @ z, grad

    res = minimize(f, b[S], jac=True, method="BFGS", options={"gtol": 1e-12})
    out = np.zeros(problem.p)
    out[S] = res.x
    return out, res.fun


def _polish(problem, j, s, starts):
    """Row (j, s) polished from each start as the engine polishes it: one
    batched ``_face_points`` call with no faces on the supports and signs of
    the starts. Returns the points and which of them the engine would try:
    those with a valid root that keep every sign."""
    R = len(starts)
    sig = np.sign(starts)
    C = trex._constants(problem, SolverConfig(c=0.5), l1_spec())
    B, _, ok = trex._face_points(C, np.full(R, j), np.full(R, float(s)), sig != 0.0, sig,
                                 np.zeros_like(sig))
    return B, ok & (np.sign(B) == sig).all(axis=1)


class TestCertificateFinish:
    def _row(self):
        # the winning row of an instance whose solution has 6 coordinates
        problem, _ = generate(ScenarioSpec(n=40, p=20, s=3, seed=2))
        fit = solve_trex(problem)
        j, s = fit.winner
        return problem, j, s, fit.beta_hat.copy()

    def test_polish_matches_the_restricted_optimum(self, rng):
        problem, j, s, b = self._row()
        assert np.count_nonzero(b) == 6
        # the polish sees only the support and the signs of its input
        start = b * rng.uniform(0.5, 1.5, b.size)
        ref, ref_f = _restricted_optimum(problem, 0.5, j, s, start)
        polished, ok = _polish(problem, j, s, start[None, :])
        assert ok[0]
        np.testing.assert_allclose(polished[0], ref, rtol=1e-6, atol=1e-8)
        assert subproblem_objective(problem, polished[0], 0.5, j, s) <= ref_f + 1e-12 * ref_f

    def test_polish_returns_none_when_a_sign_flips(self):
        # at the row optimum every coordinate i off the support has
        # |d f / d b_i| < 1, so the stationary point on the support plus i
        # with either sign moves b_i to the other sign, and the polish keeps
        # no point
        problem, j, s, b = self._row()
        off = np.flatnonzero(b == 0)
        assert off.size
        starts = np.repeat(b[None, :], 6, axis=0)
        starts[np.arange(6), np.repeat(off[:3], 2)] = np.tile([-1e-3, 1e-3], 3)
        _, ok = _polish(problem, j, s, starts)
        assert not ok.any()

    def test_duplicated_columns_certified(self):
        # pairs (0, 1) and (2, 3): the fit solves the design without the
        # later copies and puts each coefficient on the first copy
        problem, _ = generate(ScenarioSpec(
            n=50, p=100, s=5, seed=2,
            design=DesignSpec(kind="duplicated_columns", duplicates=2)))
        fit = solve_trex(problem)
        f = fit.objective
        assert 0.0 <= fit.diagnostics["certified_gap"] <= 1e-12 * (1.0 + abs(f))
        assert fit.beta_hat[1] == fit.beta_hat[3] == 0.0 != fit.beta_hat[2]
        rest = np.setdiff1d(np.arange(problem.p), [1, 3])
        dropped = solve_trex(RegressionProblem(problem.x[:, rest], problem.y, normalized=True))
        assert f == pytest.approx(dropped.objective, rel=1e-12)

    @staticmethod
    def _criterion_03_instance(k):
        # instance k of criterion 03, one of its design x noise shapes
        design = [DesignSpec(), DesignSpec(kind="toeplitz", rho=0.5),
                  DesignSpec(kind="duplicated_columns", duplicates=2)][k // 3]
        noise = [NoiseSpec(), NoiseSpec(kind="student_t", df=5.0),
                 NoiseSpec(kind="ar1", rho=0.5)][k % 3]
        return generate(ScenarioSpec(n=50, p=100, s=5, design=design, noise=noise,
                                     seed=derive_seed(303, f"instance={k}")))[0]

    @pytest.mark.parametrize("k", range(9))
    def test_criterion_03_shapes_finish_fast(self, k):
        fit = solve_trex(self._criterion_03_instance(k))
        assert fit.diagnostics["iterations"] <= 80
        assert fit.diagnostics["all_converged"]
        assert 0.0 <= fit.diagnostics["certified_gap"] <= 1e-12 * (1.0 + abs(fit.objective))

    @pytest.mark.parametrize("k, iterations, trial_rounds", [(0, 20, 30), (4, 18, 29)])
    def test_step_control_counts_are_pinned(self, k, iterations, trial_rounds):
        # the engine's work on two criterion-03 instances: a change to the
        # step control or the line search moves these numbers
        diagnostics = solve_trex(self._criterion_03_instance(k)).diagnostics
        assert (diagnostics["iterations"], diagnostics["trial_rounds"]) == (
            iterations, trial_rounds)


def _starts(problem, c, w, bound=None):
    """Coordinate starts of all 2p rows with the solver's delta and tau, and
    the constants of the fit under ``bound``."""
    C = trex._constants(problem, SolverConfig(c=c), weighted_l1_spec(w), bound)
    j_arr = np.repeat(np.arange(problem.p), 2)
    s_arr = np.tile([-1.0, 1.0], problem.p)
    tau = max(1e-3 * C.dual0, 10.0 * C.delta)
    B, feasible = trex._coordinate_starts(C, j_arr, s_arr, tau)
    return C, j_arr, s_arr, tau, B, feasible


class TestCoordinateStarts:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5])
    def test_every_row_starts_at_its_ray_minimum(self, rng, weighted, c):
        w = rng.uniform(0.5, 2.0, 8) if weighted else np.ones(8)
        # rows by where mu = s x_j @ y lies against v_b and v_a
        where = collections.Counter()
        # y with noise only in the columns' span, and y close to 3 x_0
        for beta in (None, 3.0 * np.eye(8)[0]):
            problem = random_problem(rng, 24, 8, beta=beta)
            C, j_arr, s_arr, tau, B, feasible = _starts(problem, c, w)
            G, xty, yty, delta = C.G, C.xty, C.yty, C.delta
            assert feasible.all()
            for k in range(len(B)):
                j, s = j_arr[k], s_arr[k]
                g, m, mu = G[j, j], xty[j], s * xty[j]

                def ray(v):
                    # row objective at b = beta e_j with s * x_j @ (y - x b) = v
                    beta = (m - s * v) / g
                    rss = yty - 2.0 * beta * m + g * beta * beta
                    return rss / (c * v / w[j]) + w[j] * abs(beta)

                # at most one nonzero, on the row's own coordinate, in the domain
                assert np.count_nonzero(np.delete(B[k], j)) == 0
                v0 = s * (m - g * B[k, j])
                assert v0 / w[j] > delta
                # the ray objective is convex with a kink at v = mu: its
                # minimum is the kink or the best minimum of a piece
                top = 10.0 * (np.sqrt(yty * g) + abs(m))
                kink = [mu] if 1e-9 * top < mu < top else []
                cuts = [1e-9 * top] + kink + [top]
                best = min([ray(v) for v in kink] + [
                    minimize_scalar(ray, bounds=(lo, hi), method="bounded",
                                    options={"xatol": 1e-12 * top}).fun
                    for lo, hi in zip(cuts, cuts[1:])])
                assert ray(v0) == pytest.approx(best, rel=1e-9)
                # the slope vanishes at v_b on the side v > mu and at v_a on
                # the side v < mu (the weight, on both terms, cancels): the
                # start is b = 0 exactly when mu lies between
                r0 = yty - m * m / g
                v_b = max(np.sqrt(r0 * g / (1.0 + c)), tau * w[j])
                v_a = np.sqrt(r0 * g / (1.0 - c)) if c < 1.0 else np.inf
                assert (B[k, j] == 0.0) == (v_b <= mu <= v_a)
                where["zero"] += v_b <= mu <= v_a
                where["above"] += mu > v_a
                # a small positive correlation: the rows this start rule moves
                # off zero
                where["moved"] += 0.0 < mu < v_b
        assert where["moved"] and where["zero"]
        assert bool(where["above"]) == (c < 1.0)

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5])
    def test_tau_floor_when_y_is_on_the_coordinate(self, rng, c):
        # y proportional to x_0 leaves no residual off the ray (R0 = 0), so the
        # ray minimum sits on the domain boundary and the floor tau applies
        x, _ = normalize_columns(rng.standard_normal((20, 5)))
        problem = RegressionProblem(x, -2.0 * x[:, 0], normalized=True)
        w = np.ones(5)
        C, j_arr, s_arr, tau, B, feasible = _starts(problem, c, w)
        G, xty, delta = C.G, C.xty, C.delta
        k = 1  # j = 0, s = +1: s * x_0 @ y = -2 n < 0
        assert s_arr[k] * xty[0] < 0
        D = s_arr[k] * (xty[0] - G[0, 0] * B[k, 0])
        assert D == pytest.approx(tau, rel=1e-9)
        assert D > delta

    @pytest.mark.parametrize("shape", ["tall", "wide"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_unconstrained_rows_start_at_the_lower_of_two_ray_minima(self, rng, shape,
                                                                      weighted, c):
        # without a bound every row keeps the lower of its ray minima from 0
        # and from the shared lasso pilot, and its closed-form objective there
        # is the objective computed from its residual
        n, p = (30, 12) if shape == "tall" else (20, 40)
        beta = np.zeros(p)
        beta[:3] = [2.0, -1.5, 1.0]
        problem = random_problem(rng, n, p, beta=beta)
        x, y = problem.x, problem.y
        w = rng.uniform(0.5, 2.0, p) if weighted else np.ones(p)
        C = trex._constants(problem, SolverConfig(c=c), weighted_l1_spec(w))
        j_arr, s_arr = np.repeat(np.arange(p), 2), np.tile([-1.0, 1.0], p)
        tau = max(1e-3 * C.dual0, 10.0 * C.delta)
        pilot = trex._lasso(C, trex.PILOT * c * C.dual0)
        assert pilot.any()
        beta0, F0 = trex._ray_minima(C, j_arr, s_arr, tau)
        beta1, F1 = trex._ray_minima(C, j_arr, s_arr, tau, pilot)
        _, B, feasible = trex._sign_rows(C, j_arr, s_arr)
        assert feasible.all()
        on = F1 < F0
        assert on.any()
        want = np.where(on[:, None], pilot, 0.0)
        want[np.arange(2 * p), j_arr] = np.where(on, beta1, beta0)
        np.testing.assert_array_equal(B, want)
        r = y[None, :] - B @ x.T
        D = s_arr * np.einsum("kn,nk->k", r, x[:, j_arr]) / w[j_arr]
        assert (D > C.delta).all()
        F = np.einsum("kn,kn->k", r, r) / (c * D) + np.abs(B) @ w
        np.testing.assert_allclose(np.minimum(F0, F1), F, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("shape", ["tall", "wide", "copies", "weighted"])
    @pytest.mark.parametrize("scale", [0.5, 1.0])
    def test_batched_repair_matches_one_start_at_a_time(self, rng, shape, scale):
        # ``_sign_rows`` repairs every start outside the bound in one call;
        # the reference loop below repairs them one at a time
        problem = (_flipped_copies() if shape == "copies" else
                   random_problem(rng, 8, 14) if shape == "wide" else
                   random_problem(rng, 20, 8))
        w = rng.uniform(0.5, 2.0, problem.p) if shape == "weighted" else np.ones(problem.p)
        c = 0.5
        xty = problem.x.T @ problem.y
        bound = scale * float(np.max(np.abs(xty) / w))
        C, j_arr, s_arr, _, B, feasible = _starts(problem, c, w, bound)
        G, delta = C.G, C.delta
        Gpinv = np.linalg.pinv(G)
        viol = np.flatnonzero(feasible & (np.max(np.abs(xty - B @ G) / w, axis=1)
                                          > bound * (1.0 + 1e-12)))
        assert viol.size
        for k in viol:
            j = j_arr[k]
            target = np.zeros(problem.p)
            target[j] = s_arr[k] * 0.5 * bound * w[j]
            bk = Gpinv @ (xty - target)
            qk = xty - G @ bk
            if s_arr[k] * qk[j] / w[j] > delta and np.max(np.abs(qk) / w) <= bound:
                B[k] = bk
            else:
                feasible[k] = False
        _, got_B, got_feasible = trex._sign_rows(C, j_arr, s_arr)
        # the same matrix-vector products, so the same bits
        np.testing.assert_array_equal(got_feasible, feasible)
        np.testing.assert_array_equal(got_B, B)

    def test_zero_column_stays_infeasible(self, rng):
        x = rng.standard_normal((12, 3))
        x[:, 1] = 0.0
        problem = RegressionProblem(x, rng.standard_normal(12), normalized=False)
        *_, B, feasible = _starts(problem, 0.5, np.ones(3))
        assert list(feasible) == [True, True, False, False, True, True]
        assert not B[2:4].any()


def _take(rows, sel):
    """The engine rows ``sel`` of ``rows``."""
    return trex._Rows(*(a[sel] for a in rows))


def _engine_calls(monkeypatch):
    """Row iterations of every engine call solve_trex makes, in order."""
    stages = []
    solve = trex._solve_subproblems

    def record(*args, **kwargs):
        res = solve(*args, **kwargs)
        stages.append(int(res.iterations.sum()))
        return res

    monkeypatch.setattr(trex, "_solve_subproblems", record)
    return stages


class TestRowIterations:
    @pytest.mark.parametrize("kind", ["l1", "weighted", "bound", "group"])
    def test_every_fit_makes_one_engine_call(self, rng, kind, monkeypatch):
        stages = _engine_calls(monkeypatch)
        problem = random_problem(rng, 30, 10)
        if kind == "bound":
            fit = solve_trex_constrained(problem)
        elif kind == "group":
            fit = solve_trex(problem, spec=group_spec([(0, 1, 2), (3, 4), (5, 6, 7, 8, 9)]))
            assert fit.diagnostics["heuristic"]
        else:
            spec = weighted_l1_spec(rng.uniform(0.5, 2.0, 10)) if kind == "weighted" else None
            fit = solve_trex(problem, spec=spec)
        assert len(stages) == 1
        assert fit.diagnostics["row_iterations"] == stages[0] > 0

    @pytest.mark.parametrize("kind", ["l1", "bound", "group"])
    def test_face_and_trial_rounds_count_the_batched_calls(self, rng, kind, monkeypatch):
        counts = {"face": [], "trial": 0}
        finish, ladder = trex._face_finish, trex._ladder

        def record_finish(*args):
            out = finish(*args)
            counts["face"].append(int(out[4].max()))
            return out

        def record_ladder(t, t_floor, cap, trial, out, dest):
            def counted(ix, steps):
                counts["trial"] += 1
                return trial(ix, steps)
            return ladder(t, t_floor, cap, counted, out, dest)

        monkeypatch.setattr(trex, "_face_finish", record_finish)
        monkeypatch.setattr(trex, "_ladder", record_ladder)
        problem = random_problem(rng, 30, 10)
        if kind == "group":
            fit = solve_trex(problem, spec=group_spec([(0, 1, 2), (3, 4), (5, 6, 7, 8, 9)]))
        else:
            fit = (solve_trex_constrained if kind == "bound" else solve_trex)(problem)
        assert fit.diagnostics["face_rounds"] == sum(counts["face"])
        assert fit.diagnostics["trial_rounds"] == counts["trial"]
        assert (fit.diagnostics["face_rounds"] > 0) == (kind == "bound")
        assert (counts["trial"] > 0) == (kind != "bound")


def _plain_ladder(t, t_floor, cap, trial, out, dest):
    """Backtracking one step per row and round: t, t/2, t/4, ..."""
    t = t.copy()
    accepted = np.zeros(t.size, dtype=bool)
    dead = np.zeros(t.size, dtype=bool)
    pending = np.arange(t.size)
    for _ in range(trex.MAX_TRIALS):
        if not pending.size:
            break
        ok, data = trial(pending, t[pending])
        for o, a in zip(out, data):
            o[dest[pending[ok]]] = a[ok]
        accepted[pending[ok]] = True
        rej = pending[~ok]
        t[rej] *= 0.5
        dead[rej] = t[rej] < t_floor[rej]
        pending = rej[~dead[rej]]
    return accepted, t, dead


def _engine_case(kind, rng, monkeypatch):
    """Engine inputs: all 2p l1 rows, all 2p rows of a stalling constrained
    instance (under the default bound, one row moved to the iterate before it
    stalls), or group rows."""
    config = SolverConfig()
    if kind == "bound":
        problem = _stalling_instance()
    else:
        problem = random_problem(rng, 20, 8)
    p = problem.p
    if kind == "group":
        bound = None
        C = trex._constants(problem, config, group_spec([(0, 1, 2), (3,), (4, 5, 6, 7)]))
        rows, B, feasible = trex._group_rows(C)
    else:
        bound = float(np.max(np.abs(problem.x.T @ problem.y))) if kind == "bound" else None
        C = trex._constants(problem, config, l1_spec(), bound)
        rows, B, feasible = trex._sign_rows(C, np.repeat(np.arange(p), 2),
                                            np.tile([-1.0, 1.0], p))
    if kind == "bound":
        # no row stalls at its first step from its start, but row 1 (j = 0,
        # s = +1) stalls at its seventh step without the face finish: it
        # starts from the iterate before that step, the others from their starts
        with mock.patch.object(trex, "_face_finish", _settles_nothing), \
                mock.patch.object(trex, "MAX_ITERATIONS", 6):
            res = trex._solve_subproblems(C, rows, B.copy(), feasible)
        B[1] = res.beta[1]
    # the engine calls of the case take one iteration
    monkeypatch.setattr(trex, "MAX_ITERATIONS", 1)
    return (C, rows, B, feasible), bound


class TestLadder:
    @pytest.mark.parametrize("kind", ["l1", "bound", "group"])
    def test_one_iteration_matches_one_step_at_a_time(self, rng, kind, monkeypatch):
        args, bound = _engine_case(kind, rng, monkeypatch)
        # the face finish would solve every constrained row before its first
        # step; without it the rows step and stall as the ladder is meant to
        monkeypatch.setattr(trex, "_face_finish", _settles_nothing)
        runs = []
        for ladder in (trex._ladder, _plain_ladder):
            calls = []

            def record(*a, ladder=ladder, **k):
                calls.append(ladder(*a, **k))
                return calls[-1]

            monkeypatch.setattr(trex, "_ladder", record)
            C, rows, B, feasible = args
            # the engine updates its start array in place
            res = trex._solve_subproblems(C, rows, B.copy(), feasible)
            runs.append((res, calls))
        (res, calls), (ref, ref_calls) = runs
        assert len(calls) == len(ref_calls) == 1
        (acc, t, dead), (ref_acc, ref_t, ref_dead) = calls[0], ref_calls[0]
        np.testing.assert_array_equal(acc, ref_acc)
        np.testing.assert_array_equal(t, ref_t)          # the accepted step
        np.testing.assert_array_equal(dead, ref_dead)
        np.testing.assert_array_equal(res.stalled, ref.stalled)
        np.testing.assert_allclose(res.beta, ref.beta, rtol=1e-13, atol=1e-15)
        if kind == "bound":
            assert res.stalled.any() and acc.any()

    def test_wide_rounds_over_few_group_rows_match_one_step_at_a_time(self, rng,
                                                                       monkeypatch):
        # one start of each of the 3 groups at p = 8: every round of the
        # ladder tries at least WIDE_ROUND // 64 // 3 = 85 steps per row
        # (all 80 at once), where the doubling would try 1, 2, 4, ...
        args, _ = _engine_case("group", rng, monkeypatch)
        monkeypatch.setattr(trex, "MAX_ITERATIONS", 40)
        C, rows, B, feasible = args
        few = np.arange(0, len(B), 8)
        runs = []
        for ladder in (trex._ladder, _plain_ladder):
            calls, widths = [], []

            def record(t, t_floor, cap, trial, out, dest, ladder=ladder):
                def logged(ix, steps):
                    widths.append(steps.size)
                    return trial(ix, steps)
                calls.append(ladder(t, t_floor, cap, logged, out, dest))
                return calls[-1]

            monkeypatch.setattr(trex, "_ladder", record)
            res = trex._solve_subproblems(C, _take(rows, few), B[few].copy(), feasible[few])
            runs.append((res, calls, widths))
        (res, calls, widths), (ref, ref_calls, ref_widths) = runs
        assert len(calls) == len(ref_calls) == 40
        for got, want in zip(calls, ref_calls):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        # the same decisions; a candidate's last bits depend on its batch
        np.testing.assert_allclose(res.beta, ref.beta, rtol=1e-12, atol=1e-13)
        # one wide round per iteration, where one step at a time took more
        assert len(widths) == 40 < len(ref_widths)
        assert min(widths) > few.size

    @staticmethod
    def _threshold_trial(limit, log):
        # a candidate passes when its step is at most its row's limit
        def trial(ix, steps):
            log.append(steps.copy())
            return steps <= limit[ix], (steps,)
        return trial

    @pytest.mark.parametrize("cap", [1, 3, 8, 1000])
    def test_matches_plain_loop_on_synthetic_trials(self, rng, cap):
        k = 12
        t = rng.uniform(0.5, 2.0, k)
        t_floor = t * 2.0 ** -rng.uniform(5, 100, k)
        limit = t * 2.0 ** -rng.uniform(-1, 100, k)
        log = []
        # accepted candidates land in rows dest of the output
        dest = rng.permutation(k)
        out, ref_out = np.full(k, np.nan), np.full(k, np.nan)
        acc, t_new, dead = trex._ladder(
            t, t_floor, cap, self._threshold_trial(limit, log), (out,), dest)
        ref_acc, ref_t, ref_dead = _plain_ladder(
            t, t_floor, cap, self._threshold_trial(limit, []), (ref_out,), dest)
        np.testing.assert_array_equal(acc, ref_acc)
        np.testing.assert_array_equal(t_new, ref_t)
        np.testing.assert_array_equal(dead, ref_dead)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(out[dest[acc]], t_new[acc])
        assert acc.any() and dead.any() and not (acc & dead).any()
        assert max(len(s) for s in log) <= max(cap, k)
        tried = np.concatenate(log)
        assert tried.size == np.unique(tried).size   # no step is tried twice

    def test_eighty_trial_cap(self):
        t = np.array([1.0, 3.0])
        log = []
        acc, t_new, dead = trex._ladder(
            t, np.zeros(2), 1000, self._threshold_trial(t * 2.0 ** -85, log),
            (np.zeros(2),), np.arange(2))
        assert not acc.any() and not dead.any()
        np.testing.assert_array_equal(t_new, t * 2.0 ** -80)
        tried = np.sort(np.concatenate(log))
        np.testing.assert_array_equal(
            tried, np.sort(np.concatenate([t * 2.0 ** -k for k in range(80)])))

    def test_floor_stalls_without_trying_below_it(self):
        t = np.array([1.0])
        log = []
        acc, t_new, dead = trex._ladder(
            t, t * 2.0 ** -10.5, 1000, self._threshold_trial(np.zeros(1), log),
            (np.zeros(1),), np.arange(1))
        assert dead[0] and not acc[0]
        tried = np.concatenate(log)
        np.testing.assert_array_equal(np.sort(tried)[::-1], 2.0 ** -np.arange(11.0))
        assert t_new[0] == 2.0 ** -11


class TestConstrained:
    def test_default_bound_enforced(self, rng):
        for _ in range(5):
            problem = random_problem(rng, 10, 4)
            fit = solve_trex_constrained(problem)
            bound = float(np.max(np.abs(problem.x.T @ problem.y)))
            assert fit.u_hat <= bound * (1.0 + 1e-12)

    def test_explicit_bound_enforced(self, rng):
        problem = random_problem(rng, 10, 4)
        bound = 0.5 * float(np.max(np.abs(problem.x.T @ problem.y)))
        fit = solve_trex_constrained(problem, bound=bound)
        assert fit.u_hat <= bound * (1.0 + 1e-12)

    @staticmethod
    def _group_cases(rng, seeds):
        """Group-sparse replicates (n=40, p=12, groups of 4) and three random
        problems with ragged groups."""
        quads = group_spec([range(j, j + 4) for j in range(0, 12, 4)])
        cases = [(generate(ScenarioSpec(
            n=40, p=12, s=0, seed=seed,
            signal=SignalSpec(kind="group_sparse", groups_active=1, group_size=4,
                              margin=0.9)))[0], quads) for seed in seeds]
        ragged = group_spec([(0, 1, 2), (3,), (4, 5, 6, 7)])
        return cases + [(random_problem(rng, 20, 8), ragged) for _ in range(3)]

    def test_group_fits_respect_the_bound(self, rng):
        # every group start outside the constraint set is repaired or
        # infeasible; this replicate returned u_hat 21.57 against the default
        # bound 12.33 while starts went unchecked
        for problem, spec in self._group_cases(rng, [7208988146898568358]):
            x, y = problem.x, problem.y
            for scale in (None, 0.8, 0.5, 0.01):
                bound = omega_dual(spec, x.T @ y) * (scale or 1.0)
                fit = solve_trex_constrained(problem, spec=spec,
                                             bound=None if scale is None else bound)
                u = omega_dual(spec, x.T @ (y - x @ fit.beta_hat))
                assert u <= bound * (1.0 + 1e-12)

    def test_u_hat_never_exceeds_the_bound(self, rng):
        # u_hat is the dual norm of the correlation vector the engine tested:
        # recomputed from x.T y - G beta it read one ulp above the default
        # bound on the second replicate, and on the first a q recomputed in a
        # batch of one lay one ulp outside
        seeds = [485960443572615856, 4987739927712999214, 7208988146898568358]
        for problem, spec in self._group_cases(rng, seeds):
            x, y = problem.x, problem.y
            for scale in (None, 0.8, 0.5, 0.01):
                bound = float(omega_dual(spec, x.T @ y) * (scale or 1.0))
                fit = solve_trex_constrained(problem, spec=spec,
                                             bound=None if scale is None else bound)
                assert fit.u_hat <= bound

    def test_permuted_instance_reaches_the_unpermuted_optimum(self):
        # criterion 04's instance 2 with the rows, columns and signs drawn as
        # the fit_constrained benchmark draws them for seed 51, pass 19. Its
        # best row (original column 0, sign -1) meets the constraint there;
        # while accepted steps grew by 1.3 the row stayed stuck until the
        # window stop ended it at 8.949, and the fit returned 7.1425 against
        # the 6.4388 of the unpermuted instance
        problem, _ = generate(ScenarioSpec(
            n=30, p=60, s=3, noise=NoiseSpec(kind="ar1", rho=0.5),
            signal=SignalSpec(kind="scaled_to_signal_strength", margin=1.05, c=0.5),
            seed=derive_seed(404, "instance=2")))
        rng = np.random.default_rng([51, 19, 2])
        rows, cols = rng.permutation(30), rng.permutation(60)
        signs = rng.choice([-1.0, 1.0], size=60)
        permuted = RegressionProblem(problem.x[rows][:, cols] * signs, problem.y[rows],
                                     normalized=True)
        plain, fit = solve_trex_constrained(problem), solve_trex_constrained(permuted)
        assert plain.objective == pytest.approx(6.438798440611219, rel=1e-9)
        assert fit.objective <= plain.objective * (1.0 + 1e-9)
        # the subproblems of columns 0, 1 and 2 (sign -1) share that optimum
        # on the constraint, and ties go to the lowest subproblem: the winner
        # is one of them in either column order
        optimal = {r.identity for r in plain.per_subproblem
                   if r.objective <= plain.objective + 1e-10}
        assert optimal == {(0, -1), (1, -1), (2, -1)}
        j, s = fit.winner
        assert (int(cols[j]), int(s * signs[j])) in optimal
        assert fit.winner == min((int(np.flatnonzero(cols == jo)[0]),
                                  int(so * signs[cols == jo][0])) for jo, so in optimal)

    def test_tight_bound_repairs_every_group_start(self, rng):
        # below the dual residual of every zero, ridge and perturbed start
        problem = random_problem(rng, 20, 8)
        G, xty = problem.x.T @ problem.x, problem.x.T @ problem.y
        spec = group_spec([(0, 1, 2), (3,), (4, 5, 6, 7)])
        bound = 0.01 * omega_dual(spec, xty)
        config = SolverConfig()
        _, B0, _ = trex._group_rows(trex._constants(problem, config, spec))
        assert (omega_dual(spec, xty[None, :] - B0 @ G) > bound).all()
        rows, B, feasible = trex._group_rows(trex._constants(problem, config, spec, bound))
        assert feasible.all()
        q = xty[None, :] - B @ G
        np.testing.assert_allclose(omega_dual(spec, q), 0.5 * bound, rtol=1e-9)
        # each start's correlation vector lies on its own group
        own = np.append(q, np.zeros((len(q), 1)), axis=1)[
            np.arange(len(q))[:, None], rows.idx]
        np.testing.assert_allclose(np.linalg.norm(own, axis=1), 0.5 * bound * rows.dw,
                                   rtol=1e-9)

    def test_loose_bound_recovers_unconstrained(self, rng):
        problem = random_problem(rng, 10, 4)
        free = solve_trex(problem)
        loose = solve_trex_constrained(problem, bound=1e6 * free.u_hat)
        np.testing.assert_allclose(loose.beta_hat, free.beta_hat,
                                   rtol=1e-6, atol=1e-8)

    def test_bound_must_be_positive(self, rng):
        problem = random_problem(rng, 8, 3)
        with pytest.raises(ConfigError):
            solve_trex_constrained(problem, bound=0.0)


class TestFaceFinish:
    """Sign rows under a bound: the face finish and the bound LB_k(m)."""

    def test_pinned_small_signal_instance_reaches_its_optimum(self):
        # a verify_mixed small-signal instance whose winning row ends on its
        # own face: the line search alone stopped at 11.776883, 17.6 % above
        problem, _ = generate(ScenarioSpec(
            n=40, p=25, s=3, noise=NoiseSpec(kind="student_t", df=5.0),
            seed=8088944157117022017))
        x, y = problem.x, problem.y
        bound = float(np.max(np.abs(x.T @ y)))
        fit = solve_trex_constrained(problem)
        f = fit.objective
        assert f <= 10.013000 * (1.0 + 1e-6)
        assert fit.winner == (22, 1)
        assert 0.0 <= fit.diagnostics["certified_gap"] <= 1e-9 * (1.0 + f)
        assert fit.u_hat <= bound
        _, oracle = constrained_row_oracle(x, y, 0.5, 22, 1, bound)
        assert oracle == pytest.approx(f, rel=1e-7)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 4),
           extra=st.integers(2, 12), scale=st.floats(0.3, 1.0))
    def test_bound_never_exceeds_the_oracle(self, seed, p, extra, scale):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, p + extra, p)
        x, y = problem.x, problem.y
        G, xty, yty = x.T @ x, x.T @ y, float(y @ y)
        bound = scale * float(np.max(np.abs(xty)))
        c, w = 0.5, np.ones(p)
        C = trex._constants(problem, SolverConfig(c=c), l1_spec(), bound)
        fit = solve_trex_constrained(problem, bound=bound)
        f = fit.objective
        assert fit.diagnostics["certified_gap"] >= -1e-12 * (1.0 + abs(f))
        best = np.inf
        for j in range(p):
            for s in (-1.0, 1.0):
                _, oracle = constrained_row_oracle(x, y, c, j, s, bound,
                                                   starts=[fit.beta_hat])
                best = min(best, oracle)
                if not np.isfinite(oracle):
                    continue
                # LB_k(m) at random points of the row's domain and random m,
                # with the gradient of the smooth part re-stated from scratch
                B = rng.standard_normal((8, p))
                M = rng.standard_normal((8, p)) * rng.uniform(0.0, 2.0 / abs(xty).max())
                r = y[None, :] - B @ x.T
                a = s * x[:, j] / w[j]
                d = r @ a
                keep = d > 1e-9
                r, d, B, M = r[keep], d[keep], B[keep], M[keep]
                rss = np.einsum("kn,kn->k", r, r)
                z = 2.0 * r / (c * d[:, None]) - (rss / (c * d * d))[:, None] * a
                lb = trex._face_lower(C, z @ y, -(z @ x) - M @ G, M)
                assert np.all(lb <= oracle + 1e-9 * (1.0 + abs(oracle)))
        assert f <= best * (1.0 + 1e-7) + 1e-9

    @pytest.mark.parametrize("seed, n, p", [
        pytest.param(39916800, 8, 3, marks=pytest.mark.xfail(
            strict=True, reason="9.69665 against F(0) = 9.64589: row (2, -1) has its optimum "
            "at b = 0, but the face finish cycles over the signs of the support {0, 2} "
            "because its flip rule never empties a support")),
        pytest.param(565, 6, 3, marks=pytest.mark.xfail(
            strict=True, reason="3.77703 against F(0) = 3.56950, the same cycle")),
    ])
    def test_default_bound_fit_is_no_worse_than_zero(self, seed, n, p):
        # beta = 0 is feasible under the default bound max|x.T y|, so the
        # constrained optimum is at most F(0) = y.y / (c max|x.T y|)
        problem = random_problem(np.random.default_rng(seed), n, p)
        x, y = problem.x, problem.y
        f0 = float(y @ y) / (0.5 * float(np.max(np.abs(x.T @ y))))
        fit = solve_trex_constrained(problem)
        assert fit.objective <= f0 * (1.0 + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 24), p=st.integers(2, 30),
           copies=st.sampled_from([None, 1.0, -1.0]), weighted=st.booleans(),
           scale=st.floats(0.3, 1.0))
    # p > n weighted, p > n with copies, copies weighted: 4, 9 and 15 rows
    # reach their KKT points under both seedings, and both fits are certified
    @example(seed=3, n=10, p=16, copies=None, weighted=True, scale=0.8)
    @example(seed=5, n=10, p=14, copies=1.0, weighted=False, scale=1.0)
    @example(seed=2, n=24, p=20, copies=1.0, weighted=True, scale=0.5)
    def test_lasso_seed_reaches_the_same_kkt_points(self, seed, n, p, copies, weighted,
                                                     scale):
        # the supports start from one lasso instead of from j alone: the rows
        # both seedings solve reach the same optimum, and the fits the same
        # winner; columns 0 and 1 are copies (up to sign) when ``copies`` is set
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        if copies and p > 2:
            x[:, 1] = copies * x[:, 0]
        problem, _ = make_problem(x, x[:, :2] @ rng.standard_normal(2)
                                  + rng.standard_normal(n))
        w = rng.uniform(0.5, 2.0, p) if weighted else np.ones(p)
        w[1] = w[0]
        spec = weighted_l1_spec(w) if weighted else l1_spec()
        x, y = problem.x, problem.y
        G, xty, yty = x.T @ x, x.T @ y, float(y @ y)
        dual0 = float(np.max(np.abs(xty) / w))
        bound, c = scale * dual0, 0.5
        C = trex._constants(problem, SolverConfig(c=c), spec, bound)
        j, s = np.repeat(np.arange(p), 2), np.tile([-1.0, 1.0], p)
        _, B, _ = trex._sign_rows(C, j, s)
        args = (C, j, s, B, np.inf)
        objectives = []
        for finish in (trex._face_finish, face_finish_from_own_coordinate):
            Bk, _, _, status, _ = finish(*args)
            q = xty[None, :] - Bk @ G
            rss = yty - 2.0 * (Bk @ xty) + np.einsum("kp,kp->k", Bk, xty[None, :] - q)
            D = s * q[np.arange(2 * p), j] / w[j]
            objectives.append((np.where(status == 1, rss / (c * D) + np.abs(Bk) @ w,
                                        np.nan)))
        both = ~np.isnan(objectives[0]) & ~np.isnan(objectives[1])
        np.testing.assert_allclose(objectives[0][both], objectives[1][both],
                                   rtol=1e-9, atol=1e-12)
        fits = []
        for finish in (trex._face_finish, face_finish_from_own_coordinate):
            with mock.patch.object(trex, "_face_finish", finish):
                try:
                    fits.append(solve_trex_constrained(problem, spec=spec, bound=bound))
                except DomainError:
                    fits.append(None)
        if fits[0] is None or fits[1] is None:
            assert fits[0] is fits[1] is None
            return
        # each fit lies above the other's certified lower bound; where both
        # close their certificates (p > n rows often cannot), they agree
        f = [fit.objective for fit in fits]
        gap = [fit.diagnostics["certified_gap"] for fit in fits]
        for a, b in ((0, 1), (1, 0)):
            assert f[a] >= f[b] - gap[b] - 1e-9 * (1.0 + abs(f[b]))
        if all(fit.diagnostics["all_converged"] for fit in fits):
            assert fits[0].winner == fits[1].winner
            assert f[0] == pytest.approx(f[1], rel=1e-9)


def _noise_problem(k):
    """Pure noise, n=6 and p=9, drawn from ``default_rng(k)``."""
    rng = np.random.default_rng(k)
    x = rng.standard_normal((6, 9))
    return make_problem(x, rng.standard_normal(6))[0]


def _tiny_problem(k):
    """The k-th problem of the mixed tiny set of ``tools/sign_fit_diff.py``:
    pure noise with n in 2-20 and p in 2-15, every third with a weighted l1
    penalty, and a bound between 0.2 and 1 of dual(x.T y)."""
    rng = np.random.default_rng([7, k])
    n, p = int(rng.integers(2, 21)), int(rng.integers(2, 16))
    problem = make_problem(rng.standard_normal((n, p)), rng.standard_normal(n))[0]
    w = rng.uniform(0.5, 2.0, p) if k % 3 == 0 else np.ones(p)
    bound = float(rng.uniform(0.2, 1.0) * np.max(np.abs(problem.x.T @ problem.y) / w))
    return problem, (weighted_l1_spec(w) if k % 3 == 0 else l1_spec()), bound


def _assert_certified(fit, objective, winner, rel=1e-12):
    f = fit.objective
    assert f == pytest.approx(objective, rel=1e-9)
    assert fit.winner == winner
    assert fit.diagnostics["all_converged"]
    assert 0.0 <= fit.diagnostics["certified_gap"] <= rel * (1.0 + abs(f))


class TestCertifiedConvergence:
    """A sign fit that says it converged has a closed certificate, the
    optima of p > n fits stay where they are, and bad bounds fail loudly."""

    @pytest.mark.parametrize("seed, objective, winner", [
        # the 10-iteration window stopped rows of these two with their
        # certificates open (gaps 0.46 and 0.19 relative) and called them
        # converged
        (8, 2.3618179258609917, (1, -1)),
        (11, 2.8353680456580173, (8, 1)),
    ])
    def test_window_stopped_rows_are_not_converged_unless_certified(self, seed, objective,
                                                                     winner):
        fit = solve_trex(_noise_problem(seed))
        f = fit.objective
        assert f == pytest.approx(objective, rel=1e-9)
        assert fit.winner == winner
        if fit.diagnostics["all_converged"]:
            assert fit.diagnostics["certified_gap"] <= 1e-9 * (1.0 + f)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), p=st.integers(2, 15),
           weighted=st.booleans(), scale=st.one_of(st.none(), st.floats(0.2, 1.0)))
    @example(seed=8, n=6, p=9, weighted=False, scale=None)
    def test_converged_fits_are_certified(self, seed, n, p, weighted, scale):
        rng = np.random.default_rng(seed)
        problem, _ = make_problem(rng.standard_normal((n, p)), rng.standard_normal(n))
        w = rng.uniform(0.5, 2.0, p) if weighted else np.ones(p)
        spec = weighted_l1_spec(w) if weighted else l1_spec()
        try:
            if scale is None:
                fit = solve_trex(problem, spec=spec)
            else:
                bound = scale * omega_dual(spec, problem.x.T @ problem.y)
                fit = solve_trex_constrained(problem, spec=spec, bound=bound)
        except (DomainError, DegenerateResidualError):
            return
        f = fit.objective
        assert fit.diagnostics["certified_gap"] >= -1e-12 * (1.0 + abs(f))
        if fit.diagnostics["all_converged"]:
            assert fit.diagnostics["certified_gap"] <= 1e-9 * (1.0 + abs(f))

    @pytest.mark.parametrize("seed, objective, winner", [
        (104, 1.5318136341328894, (4, 1)),
        (170, 2.530969187756366, (8, -1)),
    ])
    def test_noise_fits_keep_their_certified_optima(self, seed, objective, winner):
        _assert_certified(solve_trex(_noise_problem(seed)), objective, winner)

    @pytest.mark.parametrize("k, objective, winner", [
        (13, 1.0163455687399976, (0, -1)),     # n=3, p=7
        (279, 6.012776896772319, (5, -1)),     # n=6, p=7, weighted
    ])
    def test_tiny_constrained_fits_keep_their_certified_optima(self, k, objective, winner):
        problem, spec, bound = _tiny_problem(k)
        _assert_certified(solve_trex_constrained(problem, spec=spec, bound=bound),
                          objective, winner, rel=1e-11)

    @pytest.mark.parametrize("n, p, seed, objective, winner", [
        (40, 200, 3, 3.6766514189438544, (93, 1)),
        (50, 400, 7, 3.2606085470645265, (362, 1)),
    ])
    def test_wide_unconstrained_fits_are_certified(self, n, p, seed, objective, winner):
        problem, _ = generate(ScenarioSpec(n=n, p=p, s=5, seed=seed))
        _assert_certified(solve_trex(problem), objective, winner)

    @pytest.mark.parametrize("n, p, seed", [(40, 200, 3)] + [
        pytest.param(50, 400, seed, marks=pytest.mark.xfail(
            strict=True, reason="constrained sign rows with p >> n are left open: neither "
            "the face finish nor the line search, which cannot move along a face, closes "
            "their certificates")) for seed in (7, 8, 9)])
    def test_wide_constrained_fits_are_certified(self, n, p, seed):
        problem, _ = generate(ScenarioSpec(n=n, p=p, s=5, seed=seed))
        fit = solve_trex_constrained(problem)
        assert fit.diagnostics["all_converged"]
        assert fit.diagnostics["certified_gap"] <= 1e-12 * (1.0 + fit.objective)

    @pytest.mark.parametrize("bound", [float("nan"), 0.0, -1.0])
    def test_bound_must_be_positive_or_inf(self, rng, bound):
        problem = random_problem(rng, 8, 3)
        with pytest.raises(ConfigError, match="bound must be positive or inf"):
            solve_trex_constrained(problem, bound=bound)

    def test_cli_rejects_a_nan_bound(self, rng, tmp_path, capsys):
        path = tmp_path / "problem.csv"
        path.write_text(problem_to_csv(random_problem(rng, 8, 3)))
        assert cli_main(["fit", str(path), "--estimator", "trex-constrained", "--bound", "nan",
                         "--out", str(tmp_path / "fit.json")]) == 1
        err = capsys.readouterr().err
        assert "bound must be positive or inf" in err and "infeasible" not in err

    def test_infinite_bound_is_no_bound(self, rng):
        problem = random_problem(rng, 12, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = solve_trex_constrained(problem, bound=np.inf)
        free = solve_trex(problem)
        assert fit.objective == free.objective and fit.winner == free.winner
        np.testing.assert_array_equal(fit.beta_hat, free.beta_hat)


class TestUnpenalized:
    def test_empty_set_is_plain_solver(self, rng):
        problem = random_problem(rng, 10, 4)
        a = solve_trex(problem)
        b = solve_trex_unpenalized(problem, unpenalized=())
        np.testing.assert_allclose(b.beta_hat, a.beta_hat, atol=1e-12)

    def test_full_set_is_least_squares(self, rng):
        problem = random_problem(rng, 12, 3)
        fit = solve_trex_unpenalized(problem, unpenalized=(0, 1, 2))
        ls, *_ = np.linalg.lstsq(problem.x, problem.y, rcond=None)
        np.testing.assert_allclose(fit.beta_hat, ls, rtol=1e-9, atol=1e-11)
        assert np.isnan(fit.objective)

    def test_zero_correlation_on_unpenalized_block(self, rng):
        problem = random_problem(rng, 15, 5)
        fit = solve_trex_unpenalized(problem, unpenalized=(1, 3))
        r = problem.y - problem.x @ fit.beta_hat
        block = problem.x[:, [1, 3]].T @ r
        np.testing.assert_allclose(block, 0.0, atol=1e-8)

    def test_orthogonal_block_split(self, rng):
        # when x_U is orthogonal to x_P the penalized fit is unchanged by
        # the projection and the unpenalized coefficients come out by
        # separate least squares
        n = 16
        q, _ = np.linalg.qr(rng.standard_normal((n, 5)))
        x = q * np.sqrt(n)
        beta = np.array([1.0, 0.0, -2.0, 0.5, 0.0])
        y = x @ beta + 0.3 * rng.standard_normal(n)
        problem = RegressionProblem(x, y, normalized=True)
        fit = solve_trex_unpenalized(problem, unpenalized=(4,))
        ls_coef = float(x[:, 4] @ y) / float(x[:, 4] @ x[:, 4])
        assert fit.beta_hat[4] == pytest.approx(ls_coef, rel=1e-6)

    def test_out_of_range_rejected(self, rng):
        problem = random_problem(rng, 8, 3)
        with pytest.raises(ConfigError):
            solve_trex_unpenalized(problem, unpenalized=(3,))

    def test_straddling_group_rejected(self, rng):
        problem = random_problem(rng, 10, 4)
        spec = group_spec([(0, 1), (2, 3)])
        with pytest.raises(ConfigError):
            solve_trex_unpenalized(problem, spec=spec, unpenalized=(1,))

    def test_whole_group_unpenalized_ok(self, rng):
        problem = random_problem(rng, 10, 4)
        spec = group_spec([(0, 1), (2, 3)])
        fit = solve_trex_unpenalized(problem, spec=spec, unpenalized=(0, 1))
        r = problem.y - problem.x @ fit.beta_hat
        np.testing.assert_allclose(problem.x[:, [0, 1]].T @ r, 0.0, atol=1e-8)

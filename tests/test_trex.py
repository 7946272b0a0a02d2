import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trexlab.errors import ConfigError, DomainError
from trexlab.datagen import DesignSpec, ScenarioSpec, generate
from trexlab.model import RegressionProblem, make_problem, normalize_columns
from trexlab.norms import group_spec, l1_spec, singleton_groups, weighted_l1_spec
from trexlab.trex import (
    SolverConfig,
    solve_subproblem,
    solve_trex,
    solve_trex_constrained,
    solve_trex_unpenalized,
    subproblem_objective,
    trex_objective,
)

from conftest import random_problem
from oracles import subproblem_objective_batch, trex_grid_oracle, zoom_grid_minimize


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
                    try:
                        vals.append(subproblem_objective(problem, beta, c, j, s))
                    except DomainError:
                        pass
            assert vals, "some subproblem must be in domain"
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
            try:
                fa = subproblem_objective(problem, a, c, 0, 1)
                fb = subproblem_objective(problem, b, c, 0, 1)
                fm = subproblem_objective(problem, mid, c, 0, 1)
            except DomainError:
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

    def test_sign_flip_equivariance(self, rng):
        problem = random_problem(rng, 10, 4)
        flipped = RegressionProblem(problem.x * np.array([1, -1, 1, -1.0]),
                                    problem.y, normalized=True)
        a = solve_trex(problem)
        b = solve_trex(flipped)
        np.testing.assert_allclose(b.beta_hat,
                                   a.beta_hat * np.array([1, -1, 1, -1.0]),
                                   rtol=1e-4, atol=1e-7)

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
        with pytest.raises(Exception):
            solve_trex(problem)
        fit = solve_trex(problem, SolverConfig(allow_unnormalized=True))
        assert np.isfinite(fit.objective)

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
        assert fit.diagnostics["certified_gap"] is None

    def test_pruned_rows_settled_and_counted(self):
        problem, _ = generate(ScenarioSpec(n=40, p=20, s=2, seed=3))
        fit = solve_trex(problem)
        pruned = [r for r in fit.per_subproblem if r.pruned]
        assert fit.diagnostics["pruned"] == len(pruned) > 0
        assert not any(r.converged for r in pruned)
        assert fit.diagnostics["all_converged"]
        assert 0.0 <= fit.diagnostics["certified_gap"] <= 1e-3

    def test_stalled_rows_still_count_as_converged(self):
        # duplicated columns under the dual constraint stall the line search
        spec = ScenarioSpec(n=15, p=10, s=2, seed=0,
                            design=DesignSpec(kind="duplicated_columns", duplicates=2))
        problem, _ = generate(spec)
        fit = solve_trex_constrained(problem)
        assert fit.diagnostics["stalled"] > 0
        assert fit.diagnostics["all_converged"]
        assert solve_trex(problem).diagnostics["stalled"] == 0

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

import numpy as np
import pytest

from trexlab import lasso
from trexlab.errors import NotNormalizedError
from trexlab.lasso import fit_lasso, kkt_residual, lasso_objective
from trexlab.model import RegressionProblem, make_problem

from conftest import random_problem
from oracles import lasso_grid_oracle


def _orthogonal_problem(rng, n=12, p=4):
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    x = q * np.sqrt(n)
    y = rng.standard_normal(n) * 2.0
    return RegressionProblem(x, y, normalized=True)


class TestFitLasso:
    def test_orthogonal_closed_form(self, rng):
        problem = _orthogonal_problem(rng)
        lam = 3.0
        fit = fit_lasso(problem, lam)
        rho = problem.x.T @ problem.y
        expected = np.sign(rho) * np.maximum(np.abs(rho) - lam, 0.0) / problem.n
        np.testing.assert_allclose(fit.beta_hat, expected, atol=1e-10)
        assert fit.converged

    def test_large_penalty_gives_zero(self, rng):
        problem = random_problem(rng, 10, 5)
        lam = float(np.max(np.abs(problem.x.T @ problem.y)))
        fit = fit_lasso(problem, lam * 1.000001)
        np.testing.assert_allclose(fit.beta_hat, 0.0, atol=1e-12)

    def test_matches_grid_oracle(self, rng):
        for _ in range(5):
            problem = random_problem(rng, 8, 3)
            lam = float(rng.uniform(0.3, 1.0)) * np.max(
                np.abs(problem.x.T @ problem.y))
            fit = fit_lasso(problem, lam)
            _, oracle_val = lasso_grid_oracle(problem.x, problem.y, lam)
            assert fit.objective <= oracle_val + 1e-6 * (1.0 + abs(oracle_val))

    def test_kkt_residual_small_at_optimum(self, rng):
        problem = random_problem(rng, 15, 6)
        lam = 0.3 * float(np.max(np.abs(problem.x.T @ problem.y)))
        fit = fit_lasso(problem, lam)
        assert fit.kkt_residual <= 1e-6 * lam
        assert fit.kkt_residual == kkt_residual(problem, fit.beta_hat, lam)

    def test_objective_descends_each_sweep(self, rng, monkeypatch):
        problem = random_problem(rng, 20, 8)
        lam = 0.1 * float(np.max(np.abs(problem.x.T @ problem.y)))
        # a run cut after k sweeps reports the objective after sweep k
        sweeps = fit_lasso(problem, lam).iterations
        hist = []
        for k in range(sweeps + 1):
            monkeypatch.setattr(lasso, "MAX_SWEEPS", k)
            hist.append(fit_lasso(problem, lam).objective)
        hist = np.array(hist)
        assert np.all(np.diff(hist) <= 1e-10 * (1.0 + np.abs(hist[:-1])))

    def test_response_scaling_equivariance(self, rng):
        # solution map commutes with (y, lam) -> (a y, a lam)
        problem = random_problem(rng, 12, 4)
        lam = 0.4 * float(np.max(np.abs(problem.x.T @ problem.y)))
        a = 3.5
        scaled = RegressionProblem(problem.x, a * problem.y, normalized=True)
        base = fit_lasso(problem, lam)
        big = fit_lasso(scaled, a * lam)
        np.testing.assert_allclose(big.beta_hat, a * base.beta_hat,
                                   rtol=1e-7, atol=1e-9)

    def test_rejects_unnormalized_by_default(self, rng):
        x = rng.standard_normal((6, 2)) * 5.0
        problem = RegressionProblem(x, rng.standard_normal(6))
        with pytest.raises(NotNormalizedError):
            fit_lasso(problem, 1.0)

    def test_rejects_nonpositive_lam(self, rng):
        problem = random_problem(rng, 6, 2)
        with pytest.raises(ValueError):
            fit_lasso(problem, 0.0)

    def test_objective_value_recorded(self, rng):
        problem = random_problem(rng, 10, 3)
        lam = 0.5 * float(np.max(np.abs(problem.x.T @ problem.y)))
        fit = fit_lasso(problem, lam)
        assert fit.objective == pytest.approx(
            lasso_objective(problem, fit.beta_hat, lam), rel=1e-12)


class TestLassoPath:
    def test_sparsity_monotone_pattern(self, rng):
        # support sizes are nondecreasing along a descending grid here
        problem = random_problem(rng, 30, 5)
        lam_max = float(np.max(np.abs(problem.x.T @ problem.y)))
        fits = [fit_lasso(problem, lam)
                for lam in lam_max * np.array([0.9, 0.5, 0.1, 0.01])]
        sizes = [int(np.count_nonzero(f.beta_hat)) for f in fits]
        assert sizes == sorted(sizes)

import numpy as np
import pytest

from trexlab.errors import DimensionError, NotNormalizedError, ZeroColumnError
from trexlab.model import (
    GroundTruth,
    RegressionProblem,
    make_problem,
    normalize_columns,
    prediction_loss,
)


class TestNormalizeColumns:
    def test_already_normalized_column_unchanged(self):
        x = np.ones((4, 1))  # norm 2 = sqrt(4)
        xn, scale = normalize_columns(x)
        np.testing.assert_allclose(xn, x)
        np.testing.assert_allclose(scale, [1.0])

    def test_spike_column_norm_two(self):
        x = np.array([[2.0], [0.0], [0.0], [0.0]])
        xn, scale = normalize_columns(x)
        np.testing.assert_allclose(xn, x)
        np.testing.assert_allclose(scale, [1.0])

    def test_single_row(self):
        xn, scale = normalize_columns(np.array([[5.0]]))
        np.testing.assert_allclose(xn, [[1.0]])
        np.testing.assert_allclose(scale, [0.2])
        assert abs(np.linalg.norm(xn[:, 0]) - 1.0) < 1e-12

    def test_zero_column_raises_with_index(self):
        x = np.ones((3, 3))
        x[:, 1] = 0.0
        with pytest.raises(ZeroColumnError) as err:
            normalize_columns(x)
        assert err.value.column == 1

    def test_idempotent(self, rng):
        x = rng.standard_normal((7, 4))
        x1, _ = normalize_columns(x)
        x2, scale2 = normalize_columns(x1)
        np.testing.assert_allclose(x2, x1, atol=1e-14)
        np.testing.assert_allclose(scale2, np.ones(4), atol=1e-12)

    def test_scale_maps_back(self, rng):
        x = rng.standard_normal((6, 3)) * [1.0, 10.0, 0.1]
        xn, scale = normalize_columns(x)
        beta_n = rng.standard_normal(3)
        np.testing.assert_allclose(x @ (beta_n * scale),
                                   xn @ beta_n, atol=1e-12)


class TestRegressionProblem:
    def test_normalized_flag_checked(self, rng):
        x = rng.standard_normal((5, 2)) * 3.0
        with pytest.raises(NotNormalizedError):
            RegressionProblem(x, np.zeros(5), normalized=True)

    def test_immutability(self, rng):
        problem = make_problem(rng.standard_normal((5, 2)), np.zeros(5))[0]
        with pytest.raises(ValueError):
            problem.x[0, 0] = 1.0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            RegressionProblem(rng.standard_normal((5, 2)), np.zeros(4))


class TestPredictionLoss:
    def _instance(self, rng, n=8, p=3):
        x, _ = normalize_columns(rng.standard_normal((n, p)))
        beta = np.zeros(p)
        beta[0] = 2.0
        eps = rng.standard_normal(n)
        problem = RegressionProblem(x, x @ beta + eps, normalized=True)
        truth = GroundTruth(beta, eps, 1.0)
        return problem, truth

    def test_zero_at_truth(self, rng):
        problem, truth = self._instance(rng)
        assert prediction_loss(problem, truth, truth.beta_star) == 0.0

    def test_orthogonal_design_reduces_to_l2(self, rng):
        n, p = 9, 3
        q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        x = q * np.sqrt(n)
        beta_star = np.array([1.0, -0.5, 0.0])
        eps = rng.standard_normal(n)
        problem = RegressionProblem(x, x @ beta_star + eps, normalized=True)
        truth = GroundTruth(beta_star, eps, 1.0)
        beta = rng.standard_normal(p)
        expected = float(np.sum((beta - beta_star) ** 2))
        np.testing.assert_allclose(prediction_loss(problem, truth, beta),
                                   expected, rtol=1e-10)

    def test_null_space_invariance(self, rng):
        # wide design: nontrivial null space
        x, _ = normalize_columns(rng.standard_normal((3, 6)))
        beta_star = np.zeros(6)
        eps = rng.standard_normal(3)
        problem = RegressionProblem(x, x @ beta_star + eps, normalized=True)
        truth = GroundTruth(beta_star, eps, 1.0)
        beta = rng.standard_normal(6)
        _, _, vt = np.linalg.svd(x)
        null_vec = vt[-1]
        assert np.linalg.norm(x @ null_vec) < 1e-10
        a = prediction_loss(problem, truth, beta)
        b = prediction_loss(problem, truth, beta + 5.0 * null_vec)
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10)


class TestGroundTruth:
    def test_support_and_sparsity_derived(self):
        gt = GroundTruth(np.array([0.0, 1.0, 0.0, -2.0]), np.zeros(3), 1.0)
        assert gt.support.tolist() == [1, 3]
        assert gt.sparsity == 2

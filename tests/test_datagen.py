import numpy as np
import pytest

from trexlab.bounds import check_assumption_signal_strength, check_assumption_small_signal
from trexlab.datagen import (
    DesignSpec,
    NoiseSpec,
    ScenarioSpec,
    SignalSpec,
    derive_seed,
    generate,
)
from trexlab.errors import ConfigError


def _base(**kw):
    defaults = dict(n=30, p=12, s=3, seed=7)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


class TestValidation:
    def test_orthogonal_needs_tall_design(self):
        with pytest.raises(ConfigError):
            _base(n=5, p=10, s=2, design=DesignSpec(kind="orthogonal"))

    def test_sparsity_range(self):
        with pytest.raises(ConfigError):
            _base(s=13)

    def test_student_t_df(self):
        with pytest.raises(ConfigError):
            _base(noise=NoiseSpec(kind="student_t", df=1.0))
        with pytest.warns(UserWarning):
            _base(noise=NoiseSpec(kind="student_t", df=1.5))

    def test_fixed_beta_length(self):
        with pytest.raises(ConfigError):
            _base(signal=SignalSpec(kind="fixed_beta", values=(1.0, 2.0)))

    def test_from_dict_reads_every_block(self):
        spec = _base(design=DesignSpec(kind="toeplitz", rho=0.6),
                     noise=NoiseSpec(kind="ar1", sigma=0.5, rho=0.3),
                     signal=SignalSpec(kind="fixed_beta", values=tuple(range(12))))
        again = ScenarioSpec.from_dict({
            "n": 30, "p": 12, "s": 3, "seed": 7,
            "design": {"kind": "toeplitz", "rho": 0.6},
            "noise": {"kind": "ar1", "sigma": 0.5, "rho": 0.3},
            "signal": {"kind": "fixed_beta", "values": list(range(12))}})
        assert again == spec

    def test_from_dict_leaves_omitted_keys_to_the_field_defaults(self):
        # an omitted s is the dataclass's 5, not pure noise
        assert ScenarioSpec.from_dict({"n": 50, "p": 100}) == ScenarioSpec(n=50, p=100)
        assert ScenarioSpec.from_dict({"n": 50, "p": 100}).s == 5


class TestGenerate:
    def test_reconstruction_identity(self):
        problem, truth = generate(_base())
        np.testing.assert_allclose(
            problem.y, problem.x @ truth.beta_star + truth.epsilon, atol=1e-12)

    def test_columns_normalized(self):
        for kind in ("iid_gaussian", "toeplitz", "orthogonal", "duplicated_columns"):
            spec = _base(n=20, p=8, design=DesignSpec(
                kind=kind, rho=0.5 if kind == "toeplitz" else 0.0,
                duplicates=2 if kind == "duplicated_columns" else 0))
            problem, _ = generate(spec)
            norms = np.linalg.norm(problem.x, axis=0)
            np.testing.assert_allclose(norms, np.sqrt(problem.n), rtol=1e-10)
            assert problem.normalized

    def test_bitwise_determinism(self):
        spec = _base(noise=NoiseSpec(kind="ar1", rho=0.4))
        a_problem, a_truth = generate(spec)
        b_problem, b_truth = generate(spec)
        np.testing.assert_array_equal(a_problem.x, b_problem.x)
        np.testing.assert_array_equal(a_problem.y, b_problem.y)
        np.testing.assert_array_equal(a_truth.beta_star, b_truth.beta_star)

    def test_different_seeds_differ(self):
        a, _ = generate(_base(seed=1))
        b, _ = generate(_base(seed=2))
        assert not np.array_equal(a.y, b.y)

    def test_duplicated_columns_identical(self):
        spec = _base(design=DesignSpec(kind="duplicated_columns", duplicates=2))
        problem, _ = generate(spec)
        np.testing.assert_allclose(problem.x[:, 0], problem.x[:, 1], atol=1e-12)
        np.testing.assert_allclose(problem.x[:, 2], problem.x[:, 3], atol=1e-12)

    def test_orthogonal_design_gram(self):
        spec = _base(n=20, p=6, design=DesignSpec(kind="orthogonal"))
        problem, _ = generate(spec)
        gram = problem.x.T @ problem.x
        np.testing.assert_allclose(gram, problem.n * np.eye(6), atol=1e-8)

    def test_support_size(self):
        _, truth = generate(_base(s=4))
        assert truth.sparsity == 4
        assert truth.support.tolist() == [0, 1, 2, 3]

    def test_fixed_beta_passthrough(self):
        vals = tuple(float(v) for v in range(12))
        _, truth = generate(_base(signal=SignalSpec(kind="fixed_beta",
                                                    values=vals)))
        np.testing.assert_allclose(truth.beta_star, vals)


class TestMarginScaling:
    def test_small_signal_margin_flip(self):
        below = _base(signal=SignalSpec(kind="scaled_to_small_signal",
                                        margin=0.99))
        above = _base(signal=SignalSpec(kind="scaled_to_small_signal",
                                        margin=1.01))
        p1, t1 = generate(below)
        p2, t2 = generate(above)
        assert check_assumption_small_signal(t1, p1).holds
        assert not check_assumption_small_signal(t2, p2).holds

    def test_signal_strength_margin_flip(self):
        below = _base(signal=SignalSpec(kind="scaled_to_signal_strength",
                                        margin=0.99, c=0.5))
        above = _base(signal=SignalSpec(kind="scaled_to_signal_strength",
                                        margin=1.01, c=0.5))
        p1, t1 = generate(below)
        p2, t2 = generate(above)
        assert not check_assumption_signal_strength(t1, p1, 0.5)[0].holds
        assert check_assumption_signal_strength(t2, p2, 0.5)[0].holds

    def test_group_signal_block_structure(self):
        spec = _base(p=12, s=8, signal=SignalSpec(kind="group_sparse",
                                                  groups_active=2,
                                                  group_size=4, margin=0.9))
        _, truth = generate(spec)
        assert np.all(truth.beta_star[:8] != 0.0)
        np.testing.assert_allclose(truth.beta_star[8:], 0.0)


class TestSeeds:
    def test_derive_seed_stable(self):
        assert derive_seed(3, "a") == derive_seed(3, "a")
        assert derive_seed(3, "a") != derive_seed(3, "b")
        assert derive_seed(3, "a") != derive_seed(4, "a")
        assert 0 <= derive_seed(3, "a") < 2**63

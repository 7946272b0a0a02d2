import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from trexlab.errors import ConfigError
from trexlab.norms import (
    NormSpec,
    group_spec,
    l1_spec,
    omega,
    omega_dual,
    prox_omega,
    singleton_groups,
    soft_threshold,
    weighted_l1_spec,
)

from oracles import norm_batch, prox_objective_min, soft_threshold_by_sign


def _random_specs(p):
    rng = np.random.default_rng(7)
    w = rng.uniform(0.5, 2.0, size=p)
    part = []
    idx = list(range(p))
    while idx:
        k = min(len(idx), int(rng.integers(1, 3)))
        part.append(tuple(idx[:k]))
        idx = idx[k:]
    gw = rng.uniform(0.5, 2.0, size=len(part))
    return [l1_spec(), weighted_l1_spec(w), group_spec(part, gw)]


class TestSpecValidation:
    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError):
            weighted_l1_spec([1.0, 0.0])

    def test_partition_must_cover(self):
        with pytest.raises(ConfigError):
            group_spec([(0, 1), (3,)])

    def test_partition_must_be_disjoint(self):
        with pytest.raises(ConfigError):
            group_spec([(0, 1), (1, 2)])

    def test_serialization_roundtrip(self):
        spec = group_spec([(0, 2), (1,)], [1.5, 2.0])
        again = NormSpec.from_dict(spec.to_dict())
        assert again == spec
        assert spec.to_dict()["partition"] == [[1, 3], [2]]  # 1-based in files


class TestOmega:
    def test_l1(self):
        assert omega(l1_spec(), [1.0, -2.0, 0.0]) == 3.0

    def test_group(self):
        spec = group_spec([(0, 1), (2,)], [1.0, 1.0])
        assert omega(spec, [3.0, 4.0, 5.0]) == pytest.approx(10.0)

    def test_weighted(self):
        assert omega(weighted_l1_spec([2.0, 1.0]), [1.0, 1.0]) == 3.0

    def test_zero_iff_zero(self, rng):
        for spec in _random_specs(4):
            assert omega(spec, np.zeros(4)) == 0.0
            v = rng.standard_normal(4)
            assert omega(spec, v) > 0.0


class TestOmegaDual:
    def test_l1_dual_is_linf(self):
        assert omega_dual(l1_spec(), [1.0, -3.0, 2.0]) == 3.0

    def test_group_dual(self):
        spec = group_spec([(0, 1), (2,)], [1.0, 1.0])
        assert omega_dual(spec, [3.0, 4.0, 0.0]) == pytest.approx(5.0)

    def test_weighted_dual(self):
        assert omega_dual(weighted_l1_spec([2.0, 1.0]), [4.0, 3.0]) == 3.0

    def test_holder_pairing(self, rng):
        for spec in _random_specs(5):
            for _ in range(1000):
                beta = rng.standard_normal(5)
                v = rng.standard_normal(5)
                assert v @ beta <= omega_dual(spec, v) * omega(spec, beta) + 1e-10

    def test_biconjugacy_sampled(self, rng):
        # closed form vs sup over sampled unit-ball points, p <= 4
        p = 4
        for spec in _random_specs(p):
            v = rng.standard_normal(p)
            closed = omega_dual(spec, v)
            # sparse-biased sampling reaches the extreme points of the ball
            m = 100_000
            signs = rng.choice([-1.0, 1.0], size=(m, p))
            mags = rng.dirichlet(np.full(p, 0.1), size=m)
            pts = signs * mags
            pts = pts / norm_batch(spec.kind, spec.weights,
                                   spec.partition, pts)[:, None]
            best = float(np.max(pts @ v))
            assert best <= closed + 1e-10
            assert best >= closed - 1e-3 * max(1.0, closed)


class TestProx:
    def test_soft_threshold(self):
        out = prox_omega(l1_spec(), [2.0, -0.3], 0.5)
        np.testing.assert_allclose(out, [1.5, 0.0])

    def test_t_zero_identity(self, rng):
        v = rng.standard_normal(4)
        for spec in _random_specs(4):
            np.testing.assert_allclose(prox_omega(spec, v, 0.0), v)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_l1_prox_equals_the_sign_form(self, data):
        # random batches with signed zeros, subnormals and ties |v| = th,
        # under th = 0, one threshold per row and one per entry; equal in
        # value (-0.0 == +0.0)
        k, p = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        V = data.draw(arrays(float, (k, p), elements=st.floats(-1e6, 1e6)))
        kind = data.draw(st.sampled_from(["zero", "row", "entry"]))
        thresholds = st.floats(0.0, 1e6)
        if kind == "zero":
            th = np.zeros((k, 1))
        elif kind == "row":
            th = data.draw(arrays(float, (k, 1), elements=thresholds))
        else:
            th = np.where(data.draw(arrays(bool, (k, p))), np.abs(V),
                          data.draw(arrays(float, (k, p), elements=thresholds)))
        np.testing.assert_array_equal(soft_threshold(V, th), soft_threshold_by_sign(V, th))
        w = data.draw(arrays(float, p, elements=st.floats(0.5, 2.0)))
        t = th if kind == "row" else np.zeros((k, 1))
        np.testing.assert_array_equal(prox_omega(l1_spec(), V, t),
                                      soft_threshold_by_sign(V, t))
        np.testing.assert_array_equal(prox_omega(weighted_l1_spec(w), V, t),
                                      soft_threshold_by_sign(V, t * w))

    def test_group_shrinkage_value(self):
        # factor 1 - 2.5/5 = 0.5; frozen after checking the numerical oracle
        spec = group_spec([(0, 1)], [1.0])
        out = prox_omega(spec, [3.0, 4.0], 2.5)
        np.testing.assert_allclose(out, [1.5, 2.0])
        _, oracle = prox_objective_min("group", (1.0,), ((0, 1),),
                                       [3.0, 4.0], 2.5)
        achieved = 0.5 * np.sum((out - np.array([3.0, 4.0])) ** 2) \
            + 2.5 * omega(spec, out)
        assert achieved <= oracle + 1e-8

    def test_group_zero_block_limit(self):
        spec = group_spec([(0, 1)], [1.0])
        np.testing.assert_allclose(prox_omega(spec, [0.0, 0.0], 1.0), [0.0, 0.0])

    def test_prox_matches_numerical_oracle(self, rng):
        for spec in _random_specs(3):
            for _ in range(5):
                v = rng.standard_normal(3) * 2.0
                t = float(rng.uniform(0.0, 1.5))
                z = prox_omega(spec, v, t)
                achieved = 0.5 * float(np.sum((z - v) ** 2)) + t * omega(spec, z)
                _, oracle = prox_objective_min(spec.kind, spec.weights,
                                               spec.partition, v, t)
                assert achieved <= oracle + 1e-8


class TestReductionIdentity:
    def test_l1_weighted_group_agree(self, rng):
        p = 5
        specs = [l1_spec(), weighted_l1_spec(np.ones(p)), singleton_groups(p)]
        for _ in range(50):
            v = rng.standard_normal(p)
            t = float(rng.uniform(0, 2))
            oms = [omega(s, v) for s in specs]
            duals = [omega_dual(s, v) for s in specs]
            proxs = [prox_omega(s, v, t) for s in specs]
            for k in (1, 2):
                assert abs(oms[k] - oms[0]) <= 1e-12
                assert abs(duals[k] - duals[0]) <= 1e-12
                np.testing.assert_allclose(proxs[k], proxs[0], atol=1e-12)



class TestBatch:
    @staticmethod
    def _specs():
        # l1, weighted l1 and a ragged group spec (groups of 3, 1 and 2)
        w = [0.5, 1.5, 2.0, 1.0, 0.8, 1.2]
        return [l1_spec(), weighted_l1_spec(w),
                group_spec([(0, 4, 2), (1,), (3, 5)], [1.3, 0.7, 2.0])]

    def test_batch_equals_row_by_row(self, rng):
        V = rng.standard_normal((7, 6)) * 2.0
        V[3, :] = 0.0                        # a zero row, every block at 0
        V[5, [0, 2, 4]] = 0.0                # one zero block
        t = rng.uniform(0.0, 1.5, (7, 1))
        for spec in self._specs():
            om, dual, prox = omega(spec, V), omega_dual(spec, V), prox_omega(spec, V, t)
            assert om.shape == dual.shape == (7,) and prox.shape == V.shape
            for k, v in enumerate(V):
                assert om[k] == omega(spec, v)
                assert dual[k] == omega_dual(spec, v)
                np.testing.assert_array_equal(prox[k], prox_omega(spec, v, t[k, 0]))

    def test_group_branch_matches_a_per_group_loop(self, rng):
        # ragged groups of sizes 1, 3 and 4, one zero block in one row
        partition = [(5,), (0, 7, 2), (1, 3, 4, 6)]
        weights = [0.6, 1.4, 2.5]
        spec = group_spec(partition, weights)
        V = rng.standard_normal((6, 8)) * 3.0
        V[2, [0, 7, 2]] = 0.0
        t = rng.uniform(0.0, 2.0, (6, 1))
        om, dual, prox = omega(spec, V), omega_dual(spec, V), prox_omega(spec, V, t)
        for k, v in enumerate(V):
            norms = [np.sqrt(sum(v[j] ** 2 for j in g)) for g in partition]
            assert om[k] == pytest.approx(sum(w * a for w, a in zip(weights, norms)),
                                          rel=1e-15)
            assert dual[k] == pytest.approx(max(a / w for w, a in zip(weights, norms)),
                                            rel=1e-15)
            ref = np.zeros(8)
            for w, a, g in zip(weights, norms, partition):
                if a > 0:
                    ref[list(g)] = v[list(g)] * max(0.0, 1.0 - t[k, 0] * w / a)
            np.testing.assert_allclose(prox[k], ref, rtol=1e-15, atol=0.0)

    def test_one_dimensional_calls_return_floats(self, rng):
        v = rng.standard_normal(6)
        for spec in self._specs():
            assert type(omega(spec, v)) is float
            assert type(omega_dual(spec, v)) is float
            assert prox_omega(spec, v, 0.3).shape == (6,)

    def test_negative_step_in_any_row_raises(self, rng):
        V = rng.standard_normal((4, 6))
        t = np.full((4, 1), 0.5)
        t[2, 0] = -1e-12
        for spec in self._specs():
            with pytest.raises(ValueError):
                prox_omega(spec, V, t)

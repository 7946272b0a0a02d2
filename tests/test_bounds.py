import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trexlab.bounds import (
    AssumptionCheck,
    BoundReport,
    check_assumption_signal_strength,
    check_assumption_small_signal,
    estimate_compatibility,
    reference_penalty,
    small_signal_threshold,
    trex_slow_rhs,
    verify_l1_ordering,
    verify_lasso_fast,
    verify_lasso_slow,
    verify_trex_fast_compat,
    verify_trex_fast_via_lasso,
    verify_trex_slow,
)
from trexlab.datagen import DesignSpec, ScenarioSpec, generate
from trexlab.errors import ConfigError
from trexlab.lasso import LassoFit, fit_lasso
from trexlab.model import GroundTruth, RegressionProblem, normalize_columns
from trexlab.norms import l1_spec, singleton_groups
from trexlab.trex import SolverConfig, TrexFit, solve_trex, solve_trex_constrained

from oracles import compatibility_scalar


def _instance(rng, n=24, p=6, s=2, sigma=0.5, scale=1.0):
    x, _ = normalize_columns(rng.standard_normal((n, p)))
    beta = np.zeros(p)
    beta[:s] = scale * np.resize([1.0, -1.0], s)
    eps = sigma * rng.standard_normal(n)
    problem = RegressionProblem(x, x @ beta + eps, normalized=True)
    return problem, GroundTruth(beta, eps, sigma)


def _fake_fit(beta, u_hat, c=0.5):
    return TrexFit(beta_hat=np.asarray(beta, dtype=float), u_hat=float(u_hat),
                   objective=0.0, winner=(0, 1), per_subproblem=(),
                   spec=l1_spec(), config=SolverConfig(c=c))


class TestConstants:
    def test_fast_rate_coefficients_at_defaults(self):
        k1, k2 = 2.0, 8.0
        assert 1.0 / k1 + 2.0 / k2 == 0.75
        assert 2.0 + 2.0 / k1 + 4.0 / k2 == 3.5
        assert (1.0 / k1 + 2.0 / k2) * 16.0 == 12.0
        assert 0.25 * (1.0 - 1.0 / k1 - 2.0 / k2) == 1.0 / 16.0

    def test_small_signal_threshold_formula(self, rng):
        problem, truth = _instance(rng)
        noise = float(np.max(np.abs(problem.x.T @ truth.epsilon)))
        energy = float(truth.epsilon @ truth.epsilon)
        got = small_signal_threshold(truth, problem)
        assert got == pytest.approx(energy / (16.0 * noise), rel=1e-12)

    def test_kappa_validation(self, rng):
        problem, truth = _instance(rng)
        with pytest.raises(ConfigError):
            small_signal_threshold(truth, problem, kappa1=1.0)
        with pytest.raises(ConfigError):
            small_signal_threshold(truth, problem, kappa2=2.0)
        with pytest.raises(ConfigError):
            # 1/k1 + 2/k2 = 1 exactly is out
            small_signal_threshold(truth, problem, kappa1=2.0, kappa2=4.0)

    def test_reference_penalty_is_max(self, rng):
        problem, truth = _instance(rng)
        noise = float(np.max(np.abs(problem.x.T @ truth.epsilon)))
        c = 0.5
        lo = reference_penalty(problem, truth, 0.0, c)
        assert lo == pytest.approx(8.0 * noise / c)
        hi = reference_penalty(problem, truth, 100.0 * noise, c)
        assert hi == pytest.approx(200.0 * noise)

    def test_trex_slow_rhs_formula(self):
        # u_hat below the floor: rhs pinned at (2d + 2d/c) b1 / n
        assert trex_slow_rhs(1.0, 0.5, 0.5, 2.0, 10) == pytest.approx(
            (2.0 + 4.0) * 2.0 / 10.0)
        # u_hat above the floor enters linearly
        assert trex_slow_rhs(1.0, 5.0, 0.5, 2.0, 10) == pytest.approx(
            (2.0 + 5.0) * 2.0 / 10.0)

    def test_trex_slow_rhs_monotone_in_u_hat(self):
        vals = [trex_slow_rhs(1.0, u, 0.5, 2.0, 10) for u in (0.0, 1.0, 4.0, 9.0)]
        assert vals == sorted(vals)


class TestVerdictLogic:
    def test_failed_gate_is_not_applicable(self):
        gate = AssumptionCheck("g", False, 1.0, 0.0)
        rep = BoundReport("lasso_slow", (gate,), bound_lhs=1e9, bound_rhs=0.0)
        assert rep.verdict == "not_applicable"
        assert not rep.holds

    def test_holds_and_violated(self):
        gate = AssumptionCheck("g", True, 0.0, 1.0)
        ok = BoundReport("lasso_slow", (gate,), 1.0, 1.0)
        assert ok.verdict == "holds"
        bad = BoundReport("lasso_slow", (gate,), 1.0 + 1e-6, 1.0)
        assert bad.verdict == "violated"
        slacked = BoundReport("lasso_slow", (gate,), 1.0 + 1e-6, 1.0, slack=1e-5)
        assert slacked.verdict == "holds"


class TestAssumptionChecks:
    def test_small_signal_flips_at_threshold(self, rng):
        problem, truth = _instance(rng, scale=1.0)
        th = small_signal_threshold(truth, problem)
        below = GroundTruth(truth.beta_star / np.sum(np.abs(truth.beta_star))
                            * th * 0.99, truth.epsilon, truth.sigma)
        above = GroundTruth(truth.beta_star / np.sum(np.abs(truth.beta_star))
                            * th * 1.01, truth.epsilon, truth.sigma)
        assert check_assumption_small_signal(below, problem).holds
        assert not check_assumption_small_signal(above, problem).holds

    def test_signal_strength_flips_with_scale(self, rng):
        problem, truth = _instance(rng, sigma=0.1, scale=5.0)
        main, implied = check_assumption_signal_strength(truth, problem, 0.5)
        assert main.holds
        tiny = GroundTruth(truth.beta_star * 1e-6, truth.epsilon, truth.sigma)
        tiny_problem = RegressionProblem(
            problem.x, problem.x @ tiny.beta_star + truth.epsilon,
            normalized=True)
        weak, _ = check_assumption_signal_strength(tiny, tiny_problem, 0.5)
        assert not weak.holds

    def test_main_implies_data_gate(self, rng):
        # whenever the main check holds the implied one must as well
        for k in range(20):
            local = np.random.default_rng(k)
            problem, truth = _instance(local, sigma=0.3,
                                       scale=float(local.uniform(0.01, 5.0)))
            main, implied = check_assumption_signal_strength(truth, problem, 0.5)
            if main.holds:
                assert implied.holds


_DRAWN_SHAPES = dict(n=st.integers(3, 40), p=st.integers(1, 40), s=st.integers(1, 40),
                     samples=st.integers(0, 400), seed=st.integers(0, 2**32 - 1),
                     duplicated=st.booleans())


def _drawn_instance(n, p, s, seed, duplicated):
    """A normalized random design and a support of min(s, p) columns; with
    ``duplicated`` (and p >= 2) the second support column, or an off-support
    one, repeats the first."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    support = rng.choice(p, min(s, p), replace=False)
    if duplicated and p >= 2:
        others = support[1:] if support.size > 1 else np.setdiff1d(np.arange(p), support)
        x[:, others[0]] = x[:, support[0]]
    x, _ = normalize_columns(x)
    return RegressionProblem(x, rng.standard_normal(n), normalized=True), support


class TestCompatibility:
    def test_orthogonal_design_exact_one(self, rng):
        n, p = 16, 4
        q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        x = q * np.sqrt(n)
        problem = RegressionProblem(x, rng.standard_normal(n), normalized=True)
        est = estimate_compatibility(problem, [0, 1])
        assert est.exact
        assert est.nu_lower_report == 1.0

    def test_duplicated_columns_near_zero(self, rng):
        n, p = 20, 6
        x = rng.standard_normal((n, p))
        x[:, 1] = x[:, 0]
        x, _ = normalize_columns(x)
        problem = RegressionProblem(x, rng.standard_normal(n), normalized=True)
        est = estimate_compatibility(problem, [0, 1], samples=500)
        assert not est.exact
        assert est.nu_lower_report < 0.1

    def test_upper_bounds_single_column_ratio(self, rng):
        # the singleton probe eta = e_j is in the cone, so the estimate
        # can never exceed sqrt(s) ||x_j|| / sqrt(n)
        problem, truth = _instance(rng, n=18, p=5, s=2)
        est = estimate_compatibility(problem, truth.support, samples=200)
        s = truth.sparsity
        cap = min(np.sqrt(s) * float(np.linalg.norm(problem.x[:, j]))
                  / np.sqrt(problem.n) for j in truth.support)
        assert est.nu_lower_report <= cap + 1e-12

    def test_empty_support_rejected(self, rng):
        problem, _ = _instance(rng)
        with pytest.raises(ValueError):
            estimate_compatibility(problem, [])

    def test_negative_samples_rejected(self, rng):
        problem, truth = _instance(rng)
        with pytest.raises(ValueError, match="samples"):
            estimate_compatibility(problem, truth.support, samples=-5)

    def test_sampled_estimate_is_pinned(self):
        # captured when the draws became blocks; any change to the block
        # order or the tail rescaling moves these bits
        spec = ScenarioSpec(n=40, p=25, s=5, seed=3,
                            design=DesignSpec(kind="toeplitz", rho=0.6))
        problem, truth = generate(spec)
        est = estimate_compatibility(problem, truth.support, samples=2000, seed=17)
        assert est.nu_lower_report == float.fromhex("0x1.3e49a19bfcaa0p-1")
        assert est.samples == 2025

    @pytest.mark.parametrize("n,p,s,seed,samples,repeated", [
        (40, 30, 3, 0, 2000, False),
        (30, 12, 3, 1, 500, False),
        (20, 8, 2, 2, 300, True),
        (50, 100, 5, 3, 1000, False),
        (20, 5, 5, 4, 400, False),           # p = s: no off-support coordinates
        (30, 40, 1, 5, 0, False),            # probes only
        (25, 10, 4, 6, 0, True),
    ])
    def test_batched_search_matches_one_at_a_time(self, n, p, s, seed, samples,
                                                  repeated):
        rng = np.random.default_rng(seed)
        x, _ = normalize_columns(rng.standard_normal((n, p)))
        problem = RegressionProblem(x, rng.standard_normal(n), normalized=True)
        support = rng.choice(p, s, replace=False)
        if repeated:
            # the support is a set: order and repeats do not matter
            support = np.r_[support[::-1], support[:1]]
        est = estimate_compatibility(problem, support, samples=samples, seed=seed)
        nu, count = compatibility_scalar(x, support, samples=samples, seed=seed)
        assert not est.exact
        assert est.samples == count
        assert est.nu_lower_report == pytest.approx(nu, rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(**_DRAWN_SHAPES)
    @example(n=20, p=5, s=5, samples=300, seed=1, duplicated=False)    # p = s
    @example(n=30, p=12, s=3, samples=0, seed=2, duplicated=False)     # probes only
    @example(n=25, p=10, s=3, samples=200, seed=3, duplicated=True)
    def test_batched_search_matches_one_at_a_time_drawn(self, n, p, s, samples,
                                                        seed, duplicated):
        problem, support = _drawn_instance(n, p, s, seed, duplicated)
        est = estimate_compatibility(problem, support, samples=samples, seed=seed)
        if est.exact:
            return
        nu, count = compatibility_scalar(problem.x, support, samples=samples,
                                         seed=seed)
        assert est.samples == count
        assert est.nu_lower_report == pytest.approx(nu, rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(**_DRAWN_SHAPES)
    @example(n=20, p=5, s=5, samples=300, seed=1, duplicated=False)
    @example(n=25, p=10, s=3, samples=200, seed=3, duplicated=True)
    def test_estimate_above_eigenvalue_floor(self, n, p, s, samples, seed,
                                             duplicated):
        # every cone candidate has sqrt(s) ||x eta|| / (sqrt(n) ||eta_S||_1)
        # >= sqrt(lambda_min(x.T x / n)), since ||eta_S||_1 <= sqrt(s) ||eta||_2.
        # The slack is on lambda_min: eigvalsh returns about 1e-17 for a zero
        # eigenvalue, and its square root (about 4e-9) exceeds any slack on nu
        p = min(p, n)
        problem, support = _drawn_instance(n, p, s, seed, duplicated)
        lam_min = np.linalg.eigvalsh(problem.x.T @ problem.x / n)[0]
        est = estimate_compatibility(problem, support, samples=samples, seed=seed)
        assert est.nu_lower_report >= np.sqrt(max(lam_min - 1e-12, 0.0))


class TestLassoBounds:
    def test_fast_gate_soundness(self, rng):
        problem, truth = _instance(rng, sigma=0.5)
        noise = float(np.max(np.abs(problem.x.T @ truth.epsilon)))
        good = fit_lasso(problem, 2.0 * noise * 1.01)
        rep = verify_lasso_fast(problem, truth, good, nu=0.5)
        assert rep.gates_pass
        bad = fit_lasso(problem, 2.0 * noise * 0.99)
        rep2 = verify_lasso_fast(problem, truth, bad, nu=0.5)
        assert rep2.verdict == "not_applicable"

    def test_fast_rhs_value(self, rng):
        problem, truth = _instance(rng)
        fit = fit_lasso(problem, 1.0)
        rep = verify_lasso_fast(problem, truth, fit, nu=0.7)
        want = 16.0 * truth.sparsity * 1.0 / (0.49 * problem.n**2)
        assert rep.bound_rhs == pytest.approx(want, rel=1e-12)

    def test_slow_holds_on_clean_instance(self, rng):
        problem, truth = _instance(rng, n=40, p=8, sigma=0.5)
        noise = float(np.max(np.abs(problem.x.T @ truth.epsilon)))
        fit = fit_lasso(problem, 1.5 * noise)
        rep = verify_lasso_slow(problem, truth, fit)
        assert rep.verdict == "holds"

    def test_slow_gate(self, rng):
        problem, truth = _instance(rng)
        noise = float(np.max(np.abs(problem.x.T @ truth.epsilon)))
        fit = fit_lasso(problem, 0.5 * noise)
        rep = verify_lasso_slow(problem, truth, fit)
        assert rep.verdict == "not_applicable"


class TestTrexBounds:
    def test_slow_holds_on_strong_signal(self, rng):
        problem, truth = _instance(rng, n=50, p=10, sigma=0.3, scale=3.0)
        fit = solve_trex(problem)
        rep = verify_trex_slow(problem, truth, fit)
        assert rep.theorem_id == "trex_slow"
        assert rep.verdict == "holds"

    def test_general_norm_reduction(self, rng):
        # singleton groups reproduce the l1 numbers under the general id
        problem, truth = _instance(rng, n=30, p=5, sigma=0.4, scale=2.0)
        fit = solve_trex(problem)
        l1_rep = verify_trex_slow(problem, truth, fit)
        gen_rep = verify_trex_slow(problem, truth, fit,
                                   spec=singleton_groups(problem.p))
        assert gen_rep.theorem_id == "general_slow"
        assert gen_rep.bound_lhs == pytest.approx(l1_rep.bound_lhs, abs=1e-12)
        assert gen_rep.bound_rhs == pytest.approx(l1_rep.bound_rhs, rel=1e-12)
        assert gen_rep.verdict == l1_rep.verdict

    def test_slow_u_hat_gate(self, rng):
        problem, truth = _instance(rng, sigma=0.3, scale=3.0)
        data_dual = float(np.max(np.abs(problem.x.T @ problem.y)))
        fake = _fake_fit(np.zeros(problem.p), u_hat=2.0 * data_dual)
        rep = verify_trex_slow(problem, truth, fake)
        assert rep.verdict == "not_applicable"

    def test_fast_via_lasso_default_id_and_gates(self, rng):
        problem, truth = _instance(rng, n=60, p=6, sigma=2.0, scale=0.05)
        fit = solve_trex(problem)
        rep = verify_trex_fast_via_lasso(problem, truth, fit)
        assert rep.theorem_id == "trex_fast_via_lasso"
        rep2 = verify_trex_fast_via_lasso(problem, truth, fit,
                                          kappa1=3.0, kappa2=9.0)
        assert rep2.theorem_id == "trex_fast_via_lasso_kappa"

    def test_fast_via_lasso_never_violated_for_minimizer(self, rng):
        # the derivation compares against the actual objective minimizer, so
        # a failing gate must yield not_applicable and a passing gate holds
        for k in range(10):
            local = np.random.default_rng(1000 + k)
            problem, truth = _instance(local, n=80, p=6, sigma=2.0, scale=0.05)
            fit = solve_trex(problem)
            rep = verify_trex_fast_via_lasso(problem, truth, fit)
            assert rep.verdict != "violated"

    def test_fast_compat_constant_and_condition(self, rng):
        problem, truth = _instance(rng, n=60, p=6, sigma=2.0, scale=0.05)
        fit = solve_trex(problem)
        rep = verify_trex_fast_compat(problem, truth, fit, nu=1.0, nu_exact=True)
        assert rep.inputs["constant"] == 12.0
        lam = rep.inputs["lambda_tilde"]
        want = 12.0 * truth.sparsity * lam**2 / problem.n**2
        assert rep.bound_rhs == pytest.approx(want, rel=1e-12)
        # c = 0.5 satisfies 1/8 + 2/12 <= 2
        cond = [a for a in rep.assumptions if a.name == "kappa_c_condition"][0]
        assert cond.holds

    def test_fast_compat_deflation(self, rng):
        problem, truth = _instance(rng, n=40, p=5, sigma=1.0, scale=0.05)
        fit = solve_trex(problem)
        rep = verify_trex_fast_compat(problem, truth, fit, nu=0.8)
        assert rep.inputs["nu_effective"] == pytest.approx(0.4)
        assert rep.bound_rhs == pytest.approx(
            rep.inputs["rhs_estimate"] * (0.8 / 0.4) ** 2, rel=1e-12)

    def test_rhs_monotone_in_u_hat(self, rng):
        # larger fitted dual residual can only loosen the fast-rate penalty
        problem, truth = _instance(rng, n=40, p=5, sigma=1.0, scale=0.05)
        noise = float(np.max(np.abs(problem.x.T @ truth.epsilon)))
        lams = [reference_penalty(problem, truth, u, 0.5)
                for u in (0.0, noise, 10.0 * noise, 100.0 * noise)]
        assert lams == sorted(lams)


class TestL1Ordering:
    def test_holds_for_solver_output(self, rng):
        for k in range(5):
            local = np.random.default_rng(50 + k)
            problem, _ = _instance(local, n=30, p=8, sigma=1.0)
            fit = solve_trex(problem)
            rep = verify_l1_ordering(problem, fit)
            assert rep.verdict == "holds"

    def test_violated_for_zero_vector_claim(self, rng):
        # claiming beta = 0 with a small u_hat must fail the ordering; the
        # strong signal keeps u_hat well below the data dual norm so the
        # reference fit is nonzero
        problem, _ = _instance(rng, n=50, p=6, sigma=0.3, scale=3.0)
        fit = solve_trex(problem)
        fake = _fake_fit(np.zeros(problem.p), u_hat=fit.u_hat)
        rep = verify_l1_ordering(problem, fake)
        assert rep.verdict == "violated"

    def test_rejects_nonpositive_u_hat(self, rng):
        problem, _ = _instance(rng)
        fake = _fake_fit(np.zeros(problem.p), u_hat=0.0)
        with pytest.raises(ValueError):
            verify_l1_ordering(problem, fake)

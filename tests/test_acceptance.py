"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained and seeded; together they pin the solver oracle
equivalences, the certified inequalities at scale, the reduction identities,
and byte-level determinism of the verification pipeline.
"""

import time

import numpy as np
import pytest

from trexlab.bounds import (
    estimate_compatibility,
    verify_l1_ordering,
    verify_trex_fast_compat,
    verify_trex_fast_via_lasso,
    verify_trex_slow,
)
from trexlab.datagen import DesignSpec, NoiseSpec, ScenarioSpec, SignalSpec, derive_seed, generate
from trexlab.harness import rows_to_csv, run_verification
from trexlab.lasso import fit_lasso
from trexlab.model import RegressionProblem, make_problem
from trexlab.norms import group_spec, l1_spec, singleton_groups
from trexlab.serialize import ExperimentConfig
from trexlab.trex import (
    SolverConfig,
    _solve,
    solve_trex,
    solve_trex_constrained,
    solve_trex_unpenalized,
    trex_objective,
)

from oracles import lasso_grid_oracle, trex_grid_oracle


def test_criterion_01_trex_oracle_equivalence():
    # 50 seeded instances, p in {1, 2}, n in {4, 8}, c = 1/2: the solver
    # objective matches a dense-grid global minimum within 1e-3, under one
    # minute in total
    start = time.monotonic()
    c = 0.5
    checked = 0
    k = 0
    while checked < 50:
        rng = np.random.default_rng(derive_seed(101, f"instance={k}"))
        k += 1
        n = int(rng.choice([4, 8]))
        p = int(rng.choice([1, 2]))
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        if np.min(np.linalg.norm(x, axis=0)) < 1e-6:
            continue
        problem, _ = make_problem(x, y)
        fit = solve_trex(problem, SolverConfig(c=c))
        _, oracle = trex_grid_oracle(problem.x, problem.y, c)
        assert abs(fit.objective - oracle) <= 1e-3
        checked += 1
    assert time.monotonic() - start < 60.0


def test_criterion_02_lasso_oracle_equivalence():
    # 50 seeded instances with p <= 3: coordinate descent matches the grid
    # oracle within 1e-6 in objective and satisfies the stationarity
    # tolerance on every fit
    for k in range(50):
        rng = np.random.default_rng(derive_seed(202, f"instance={k}"))
        n = int(rng.integers(5, 15))
        p = int(rng.integers(1, 4))
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n) * 2.0
        problem, _ = make_problem(x, y)
        lam = float(rng.uniform(0.2, 1.2)) * float(
            np.max(np.abs(problem.x.T @ problem.y)))
        fit = fit_lasso(problem, lam)
        assert fit.converged
        assert fit.kkt_residual <= 1e-6 * lam
        _, oracle = lasso_grid_oracle(problem.x, problem.y, lam)
        assert abs(fit.objective - oracle) <= 1e-6


def _mixed_scenarios():
    designs = [DesignSpec(), DesignSpec(kind="toeplitz", rho=0.5),
               DesignSpec(kind="duplicated_columns", duplicates=2)]
    noises = [NoiseSpec(), NoiseSpec(kind="student_t", df=5.0),
              NoiseSpec(kind="ar1", rho=0.5)]
    return [(d, z) for d in designs for z in noises]


def test_criterion_03_l1_ordering_at_scale():
    # 500 seeded instances at n = 50, p = 100 over mixed designs and noises:
    # the fitted l1 norm weakly dominates the l1 fit at penalty u_hat on
    # every single instance, in under five minutes
    start = time.monotonic()
    combos = _mixed_scenarios()
    for k in range(500):
        design, noise = combos[k % len(combos)]
        spec = ScenarioSpec(n=50, p=100, s=5, design=design, noise=noise,
                            seed=derive_seed(303, f"instance={k}"))
        problem, _ = generate(spec)
        fit = solve_trex(problem)
        rep = verify_l1_ordering(problem, fit)
        lasso_l1 = rep.bound_lhs
        trex_l1 = rep.bound_rhs
        assert trex_l1 >= lasso_l1 - 1e-6
    assert time.monotonic() - start < 300.0


def test_criterion_04_slow_rate_certification():
    # 500 seeded instances engineered so the signal-strength assumption and
    # the dual-residual gate hold: zero violated verdicts, and at least 90%
    # of the engineered instances actually pass the gate checks
    combos = _mixed_scenarios()
    gates_passed = 0
    for k in range(500):
        design, noise = combos[k % len(combos)]
        spec = ScenarioSpec(
            n=30, p=60, s=3, design=design, noise=noise,
            signal=SignalSpec(kind="scaled_to_signal_strength", margin=1.05,
                              c=0.5),
            seed=derive_seed(404, f"instance={k}"))
        problem, truth = generate(spec)
        fit = solve_trex_constrained(problem)
        rep = verify_trex_slow(problem, truth, fit)
        assert rep.verdict != "violated"
        if rep.gates_pass:
            gates_passed += 1
    assert gates_passed >= 450


def test_criterion_05_fast_rate_certification():
    # 500 seeded instances with the small-signal assumption engineered true
    # at margin 0.9 on compatibility-friendly (orthogonal) designs: zero
    # violated verdicts on either fast-rate bound, and the compatibility
    # constant 12 reproduced symbolically from the default constants (2, 8)
    kappa1, kappa2 = 2.0, 8.0
    assert (1.0 / kappa1 + 2.0 / kappa2) * 16.0 == 12.0
    decided = 0
    for k in range(500):
        spec = ScenarioSpec(
            n=40, p=20, s=2, design=DesignSpec(kind="orthogonal"),
            signal=SignalSpec(kind="scaled_to_small_signal", margin=0.9),
            seed=derive_seed(505, f"instance={k}"))
        problem, truth = generate(spec)
        fit = solve_trex(problem)
        via = verify_trex_fast_via_lasso(problem, truth, fit)
        assert via.verdict != "violated"
        small = [a for a in via.assumptions if a.name == "small_signal"][0]
        assert small.holds
        est = estimate_compatibility(problem, truth.support)
        compat = verify_trex_fast_compat(problem, truth, fit,
                                         est.nu_lower_report,
                                         nu_exact=est.exact)
        assert compat.verdict != "violated"
        decided += (via.verdict != "not_applicable") + (compat.verdict != "not_applicable")
    # no verdict is decided: u_hat fails the u_hat_gate on every instance, so
    # the checks above hold vacuously (ROADMAP item 7). A change that starts
    # deciding these verdicts must update this count
    assert decided == 0


def test_criterion_06_general_norm_reductions():
    # singleton-group penalties reproduce the l1 solve to 1e-6 in objective
    # on 50 instances, and the general-norm slow-rate right-hand side under
    # the l1 spec matches the l1 formula to 1e-12
    for k in range(50):
        spec = ScenarioSpec(n=20, p=10, s=2,
                            seed=derive_seed(606, f"instance={k}"))
        problem, truth = generate(spec)
        a = solve_trex(problem)
        b = solve_trex(problem, spec=singleton_groups(problem.p))
        assert abs(a.objective - b.objective) <= 1e-6 * (1.0 + abs(a.objective))
        l1_rep = verify_trex_slow(problem, truth, a)
        gen_rep = verify_trex_slow(problem, truth, a,
                                   spec=singleton_groups(problem.p))
        assert gen_rep.theorem_id == "general_slow"
        assert abs(gen_rep.bound_rhs - l1_rep.bound_rhs) <= 1e-12 * (
            1.0 + abs(l1_rep.bound_rhs))


def test_criterion_07_unpenalized_identities():
    # with the unpenalized columns orthogonal to the penalized ones, the
    # projection path agrees with the split solve-then-least-squares path to
    # 1e-8; the zero-correlation constraint holds to 1e-8 always; the full
    # index set returns the least-squares fit
    for k in range(20):
        rng = np.random.default_rng(derive_seed(707, f"instance={k}"))
        n, p_pen, p_un = 24, 5, 2
        q, _ = np.linalg.qr(rng.standard_normal((n, p_pen + p_un)))
        x = q * np.sqrt(n)
        beta = np.zeros(p_pen + p_un)
        beta[:2] = [1.5, -1.0]
        beta[p_pen:] = [0.7, -0.4]
        y = x @ beta + 0.4 * rng.standard_normal(n)
        problem = RegressionProblem(x, y, normalized=True)
        u_idx = tuple(range(p_pen, p_pen + p_un))

        fit = solve_trex_unpenalized(problem, unpenalized=u_idx)
        assert np.max(np.abs(x[:, list(u_idx)].T
                             @ (y - x @ fit.beta_hat))) <= 1e-8

        # split path: project y off the unpenalized span, solve on the
        # penalized block (not normalized, so through the solver's body),
        # then least squares for the unpenalized block
        x_u = x[:, list(u_idx)]
        m_u = np.eye(n) - x_u @ np.linalg.pinv(x_u)
        sub = RegressionProblem(m_u @ x[:, :p_pen], m_u @ y, normalized=False)
        sub_fit = _solve(sub, SolverConfig(), l1_spec())
        resid = y - x[:, :p_pen] @ sub_fit.beta_hat
        beta_u = np.linalg.pinv(x_u.T @ x_u) @ (x_u.T @ resid)
        split = np.concatenate([sub_fit.beta_hat, beta_u])
        np.testing.assert_allclose(fit.beta_hat, split, atol=1e-8)

        full = solve_trex_unpenalized(problem,
                                      unpenalized=tuple(range(p_pen + p_un)))
        ls, *_ = np.linalg.lstsq(x, y, rcond=None)
        np.testing.assert_allclose(full.beta_hat, ls, atol=1e-8)


def test_criterion_08_constrained_dual_bound():
    # the constrained variant keeps the fitted dual residual at or below the
    # dual norm of x.T y (plus 1e-8) on 200 seeded instances, which makes
    # the slow-rate dual gate hold unconditionally
    combos = _mixed_scenarios()
    for k in range(200):
        design, noise = combos[k % len(combos)]
        spec = ScenarioSpec(n=25, p=40, s=3, design=design, noise=noise,
                            seed=derive_seed(808, f"instance={k}"))
        problem, _ = generate(spec)
        fit = solve_trex_constrained(problem)
        data_dual = float(np.max(np.abs(problem.x.T @ problem.y)))
        assert fit.u_hat <= data_dual + 1e-8


def test_criterion_09_compatibility_estimator():
    # exactly 1 on orthogonal designs; below 0.1 when duplicated columns sit
    # inside the support
    for k in range(10):
        spec = ScenarioSpec(n=30, p=12, s=3,
                            design=DesignSpec(kind="orthogonal"),
                            seed=derive_seed(909, f"instance={k}"))
        problem, truth = generate(spec)
        est = estimate_compatibility(problem, truth.support)
        assert est.exact
        assert est.nu_lower_report == 1.0
    for k in range(10):
        spec = ScenarioSpec(n=30, p=12, s=3,
                            design=DesignSpec(kind="duplicated_columns",
                                              duplicates=2),
                            seed=derive_seed(910, f"instance={k}"))
        problem, truth = generate(spec)
        # support 0, 1, 2 includes the duplicated pair (0, 1)
        est = estimate_compatibility(problem, truth.support, samples=500)
        assert est.nu_lower_report < 0.1


def test_criterion_10_determinism():
    # the full verification pipeline run twice with a fixed seed produces
    # byte-identical CSV output once the timestamp is suppressed
    config = ExperimentConfig.from_dict({
        "scenarios": [
            {"n": 25, "p": 30, "s": 3, "seed": 17},
            {"n": 25, "p": 10, "s": 2, "seed": 18,
             "design": {"kind": "orthogonal"}},
            {"n": 25, "p": 30, "s": 3, "seed": 19,
             "noise": {"kind": "ar1", "rho": 0.4},
             "signal": {"kind": "scaled_to_signal_strength", "margin": 1.05}},
        ],
        "estimators": ["trex_constrained"],
        "theorems": ["trex_slow", "l1_ordering", "lasso_slow", "lasso_fast",
                     "trex_fast_via_lasso", "trex_fast_compat"],
        "replicates": 3,
    })
    first = rows_to_csv(run_verification(config), timestamp=False)
    second = rows_to_csv(run_verification(config), timestamp=False)
    assert first.encode() == second.encode()


def test_criterion_11_general_slow_decided_under_a_group_norm():
    # 40 seeded instances, n = 40, p = 12, groups of 4, a signal scaled to
    # margins 1.05 and 2.0 above the signal-strength threshold: the
    # constrained fit under the group norm decides the general-norm slow-rate
    # bound, with no violated row and at least 36 of 40 holding
    spec = group_spec([range(j, j + 4) for j in range(0, 12, 4)])
    verdicts = []
    for margin in (1.05, 2.0):
        for k in range(20):
            scenario = ScenarioSpec(
                n=40, p=12, s=4,
                signal=SignalSpec(kind="scaled_to_signal_strength", margin=margin),
                seed=derive_seed(1111, f"margin={margin}/instance={k}"))
            problem, truth = generate(scenario)
            fit = solve_trex_constrained(problem, spec=spec)
            rep = verify_trex_slow(problem, truth, fit)
            assert rep.theorem_id == "general_slow"
            verdicts.append(rep.verdict)
    assert "violated" not in verdicts
    assert verdicts.count("holds") >= 36

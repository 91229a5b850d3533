import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import low_coherence_matrix
from homogenlab import solvers
from homogenlab.bounds import lowrank_forward, phase_retrieval_forward
from homogenlab.experiments import gaussian_matrix
from homogenlab.network import PROBE_CHUNK, ActivationSpec, LayerSpec, NetworkSpec, evaluate
from homogenlab.numerics import spectral_norm
from homogenlab.solvers import (
    ProblemSpec,
    SolveConfig,
    _soft_threshold,
    brute_force_sparse_fit,
    ista_objective,
    ista_run,
    lista_eval,
    lista_from_ista,
    robustness_scan,
    selection_discontinuity_demo,
    solve,
    verify_optimality,
)


def sparse_instance(rng):
    """A Gaussian 6x8 A, a 2-sparse x and y = A x plus noise of norm 0.01."""
    a = gaussian_matrix(rng, 6, 8)
    x = np.zeros(8)
    x[rng.choice(8, size=2, replace=False)] = rng.standard_normal(2)
    e = rng.standard_normal(6)
    return a, x, a @ x + 0.01 * e / np.linalg.norm(e)


def quality_set():
    """10 seeded ``sparse_instance``s x 4 variants: eta cycling through 1e-1,
    1e-2, 1e-3, lam 0.05, tau ||x||_1."""
    for seed in range(10):
        a, x, y = sparse_instance(np.random.default_rng([seed, 40]))
        eta = (1e-1, 1e-2, 1e-3)[seed % 3]
        parameters = {"qcbp": eta, "bpdn": 0.05, "lasso": np.abs(x).sum(), "dantzig": eta}
        yield from (ProblemSpec(v, a, y, t) for v, t in parameters.items())


def scaled_problem(variant, a, x, y, c=1.0):
    """``variant`` on (A, c y) with eta = lam = 0.05 c or tau = 0.9 c ||x||_1:
    its minimizers are c times those at c = 1."""
    parameter = 0.9 * np.abs(x).sum() if variant == "lasso" else 0.05
    return ProblemSpec(variant, a, c * y, c * parameter)


class TestProblemSpec:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="^unknown variant 'basis-pursuit'"):
            ProblemSpec("basis-pursuit", np.eye(2), np.ones(2), 0.1)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec("qcbp", np.eye(2), np.ones(2), -0.5)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec("bpdn", np.eye(2), np.ones(2), 0.0)

    def test_dantzig_takes_any_matrix(self):
        # A^T (A z - y) = (14 z1 - 6, 0): the smallest |z1| with
        # |14 z1 - 6| <= 0.1 is 5.9 / 14, and z2 is free, so 0.
        rank_deficient = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        problem = ProblemSpec("dantzig", rank_deficient, np.ones(3), 0.1)
        report = solve(problem)
        assert report.converged
        assert np.allclose(report.solution, [5.9 / 14, 0.0], atol=1e-8)
        assert not verify_optimality(problem, report.solution, report.dual, 1e-7)

    def test_dantzig_takes_a_tall_matrix(self):
        # A least-squares solution has A^T (A z - y) = 0, so every A is feasible.
        rng = np.random.default_rng([8, 5])
        problem = ProblemSpec("dantzig", gaussian_matrix(rng, 8, 5), rng.standard_normal(8), 0.05)
        report = solve(problem)
        assert report.converged
        assert not verify_optimality(problem, report.solution, report.dual, 1e-7)

    def test_measurement_length_checked(self):
        with pytest.raises(ValueError):
            ProblemSpec("qcbp", np.eye(2), np.ones(3), 0.1)

    def test_infeasible_qcbp_rejected(self):
        # range(A) is the line through (1, 2, 3); (1, 0, 0) lies 0.96 from it
        rank_deficient = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(ValueError, match="infeasible"):
            ProblemSpec("qcbp", rank_deficient, [1.0, 0.0, 0.0], 0.5)
        ProblemSpec("qcbp", rank_deficient, [1.0, 0.0, 0.0], 0.97)
        ProblemSpec("qcbp", rank_deficient, [0.1, 0.2, 0.3], 0.0)

    def test_holds_read_only_copies(self, rng):
        a, y = rng.standard_normal((3, 5)), rng.standard_normal(3)
        a_before, y_before = a.copy(), y.copy()
        problem = ProblemSpec("bpdn", a, y, 0.1)
        assert a.flags.writeable and y.flags.writeable
        a[0, 0] = y[0] = np.nan
        assert np.array_equal(problem.a, a_before) and np.array_equal(problem.y, y_before)
        assert not problem.a.flags.writeable and not problem.y.flags.writeable


class TestSolveClosedForms:
    def test_qcbp_shrinks_to_ball_boundary(self):
        report = solve(ProblemSpec("qcbp", np.eye(2), [3.0, 0.0], 1.0))
        assert report.converged
        assert np.allclose(report.solution, [2.0, 0.0], atol=1e-8)

    def test_qcbp_large_eta_gives_zero(self):
        report = solve(ProblemSpec("qcbp", np.eye(2), [3.0, 0.0], 4.0))
        assert report.converged
        assert np.allclose(report.solution, 0.0, atol=1e-10)

    def test_bpdn_scalar_stationarity(self):
        # 2 sign(z) + 2 (z - 3) = 0  =>  z = 2
        report = solve(ProblemSpec("bpdn", np.array([[1.0]]), [3.0], 2.0), SolveConfig(tol=1e-10))
        assert report.converged
        assert report.solution[0] == pytest.approx(2.0, abs=1e-8)

    def test_lasso_zero_budget(self):
        report = solve(ProblemSpec("lasso", np.eye(2), [3.0, 0.0], 0.0))
        assert report.converged
        assert np.array_equal(report.solution, np.zeros(2))

    def test_lasso_budget_below_rounding(self):
        # 3 - 1e-20 rounds to 3: the l1-ball projection must still find its
        # threshold.
        problem = ProblemSpec("lasso", np.eye(2), [3.0, 0.0], 1e-20)
        report = solve(problem)
        assert report.converged
        assert not verify_optimality(problem, report.solution, report.dual, 1e-7)

    def test_lasso_projects_onto_budget(self):
        report = solve(ProblemSpec("lasso", np.eye(2), [3.0, 0.0], 1.0))
        assert report.converged
        assert np.allclose(report.solution, [1.0, 0.0], atol=1e-8)

    def test_dantzig_orthonormal_soft_threshold(self):
        y = np.array([3.0, 0.5])
        report = solve(ProblemSpec("dantzig", np.eye(2), y, 1.0))
        assert report.converged
        want = _soft_threshold(y, 1.0)
        assert np.allclose(report.solution, want, atol=1e-8)

    def test_converged_reports_pass_independent_verifier(self, rng):
        for trial in range(10):
            a = low_coherence_matrix(np.random.default_rng([3, trial]), 5, 8)
            x = np.zeros(8)
            x[trial % 8] = 1.0
            y = a @ x + 0.01 * np.sin(np.arange(5.0))
            problems = [
                ProblemSpec("qcbp", a, y, 0.05),
                ProblemSpec("bpdn", a, y, 0.1),
                ProblemSpec("lasso", a, y, 1.5),
                ProblemSpec("dantzig", a, y, 0.05),
            ]
            for problem in problems:
                report = solve(problem, SolveConfig(tol=1e-8))
                assert report.converged, problem.variant
                violations = verify_optimality(problem, report.solution, report.dual, 1e-7)
                assert not violations, (problem.variant, violations)

    def test_iteration_cap_reports_non_convergence(self):
        report = solve(ProblemSpec("qcbp", np.eye(2), [3.0, 0.0], 1.0), SolveConfig(max_iters=2))
        assert not report.converged
        assert report.iterations == 2
        assert report.uniqueness == "undetermined"


class TestConvergence:
    def test_quality_set_converges_and_verifies(self):
        for problem in quality_set():
            report = solve(problem, SolveConfig(max_iters=20_000))
            assert report.converged, problem.variant
            violations = verify_optimality(problem, report.solution, report.dual, 1e-7)
            assert not violations, (problem.variant, violations)

    def test_bpdn_dual_meets_its_bound_at_small_lambda(self):
        # ||A^T u||_inf may exceed lam by the primal residual; at lam = 0.05 the
        # verifier allows 5e-9, below the 1e-8 tolerance of the other variants
        for seed in range(10, 30):
            rng = np.random.default_rng([seed, 40])
            a = gaussian_matrix(rng, 6, 8)
            problem = ProblemSpec("bpdn", a, a[:, :2] @ rng.standard_normal(2) + 0.01 * rng.standard_normal(6), 0.05)
            report = solve(problem)
            assert report.converged
            assert np.abs(a.T @ report.dual).max() <= 0.05 * (1.0 + 1e-7)
            assert not verify_optimality(problem, report.solution, report.dual, 1e-7)

    def test_badly_scaled_qcbp_converges(self):
        # A and y in units 1e3 larger: the primal stays of order 1 while the
        # dual shrinks to order 1e-3, the imbalance the primal weight absorbs
        rng = np.random.default_rng([2, 7])
        a = 1e3 * gaussian_matrix(rng, 6, 8)
        x = np.zeros(8)
        x[[1, 5]] = [1.0, -0.5]
        problem = ProblemSpec("qcbp", a, a @ x + 1e3 * 0.01 * np.eye(6)[0], 1e3 * 0.01)
        report = solve(problem, SolveConfig(max_iters=20_000))
        assert report.converged
        assert not verify_optimality(problem, report.solution, report.dual, 1e-7)


VIOLATION_KINDS = ("infeasible", "dual subgradient bound violated", "duality gap")


class TestVerifierRejects:
    @pytest.mark.parametrize(
        "variant, z_scale, u_scale, kinds",
        [
            ("qcbp", 0.5, 1.0, ["infeasible"]),
            ("qcbp", 1.0, 3.0, ["dual subgradient bound violated"]),
            ("qcbp", 1.1, 1.0, ["duality gap"]),
            ("bpdn", 1.0, 3.0, ["dual subgradient bound violated"]),
            ("bpdn", 1.1, 1.0, ["duality gap"]),
            ("lasso", 2.0, 1.0, ["infeasible", "duality gap"]),
            ("lasso", 0.5, 1.0, ["duality gap"]),
            ("dantzig", 0.5, 1.0, ["infeasible"]),
            ("dantzig", 1.0, 3.0, ["dual subgradient bound violated"]),
            ("dantzig", 1.1, 1.0, ["duality gap"]),
        ],
        ids=[
            "qcbp-infeasible", "qcbp-dual", "qcbp-gap", "bpdn-dual", "bpdn-gap",
            "lasso-infeasible", "lasso-gap", "dantzig-infeasible", "dantzig-dual", "dantzig-gap",
        ],
    )
    def test_perturbed_pair_is_named(self, variant, z_scale, u_scale, kinds):
        # The first quality-set instance of each variant, solved, then its
        # solution or dual scaled: 0.5 leaves the qcbp and dantzig
        # constraints, 2 the lasso budget; 1.1 (0.5 for the lasso) stays
        # feasible but off the minimum; a dual x3 leaves its bound.
        problem = next(p for p in quality_set() if p.variant == variant)
        report = solve(problem, SolveConfig(max_iters=20_000))
        assert report.converged
        assert not verify_optimality(problem, report.solution, report.dual, 1e-7)
        violations = verify_optimality(problem, z_scale * report.solution, u_scale * report.dual, 1e-7)
        named = [next((k for k in VIOLATION_KINDS if v.startswith(k)), v) for v in violations]
        assert named == kinds, violations


class TestUniqueness:
    def test_solve_runs_the_engine_once(self, monkeypatch):
        calls = []
        engine = solvers._pdhg

        def counted(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(solvers, "_pdhg", counted)
        solve(ProblemSpec("qcbp", np.eye(2), [3.0, 0.0], 1.0))
        assert len(calls) == 1

    def test_duplicated_column_basis_pursuit_is_not_unique(self):
        a = low_coherence_matrix(np.random.default_rng(5), 5, 7)
        a = np.hstack([a, a[:, :1]])
        report = solve(ProblemSpec("qcbp", a, a[:, 0], 0.0))
        assert report.converged
        assert report.uniqueness == "not_unique"

    def test_well_conditioned_one_sparse_is_unique(self):
        a = low_coherence_matrix(np.random.default_rng(5), 6, 8)
        y = a[:, 2]
        for problem in (ProblemSpec("qcbp", a, y, 0.05), ProblemSpec("bpdn", a, y, 0.1)):
            report = solve(problem)
            assert report.converged, problem.variant
            assert report.uniqueness == "unique", problem.variant

    def test_full_column_rank_lasso_is_unique(self):
        # ||A z - y||^2 is strictly convex when A has full column rank, so the
        # minimizer is unique whether or not the budget is active
        for tau in (1.0, 10.0):
            report = solve(ProblemSpec("lasso", np.eye(2), [3.0, 0.0], tau))
            assert report.converged
            assert report.uniqueness == "unique", tau

    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 59), exponent=st.floats(-3.0, 3.0))
    def test_units_do_not_change_the_verdict(self, variant, seed, exponent):
        a, x, y = sparse_instance(np.random.default_rng([seed, 77]))
        config = SolveConfig(max_iters=20_000)
        base = solve(scaled_problem(variant, a, x, y), config)
        scaled = solve(scaled_problem(variant, a, x, y, 10.0**exponent), config)
        assume(base.converged and scaled.converged)
        assert scaled.uniqueness == base.uniqueness

    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 59),
        order=st.permutations(range(8)),
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=8, max_size=8),
    )
    def test_column_labels_do_not_change_the_verdict(self, variant, seed, order, signs):
        a, x, y = sparse_instance(np.random.default_rng([seed, 77]))
        order, signs = np.array(order), np.array(signs)
        config = SolveConfig(max_iters=20_000)
        base = solve(scaled_problem(variant, a, x, y), config)
        relabelled = solve(scaled_problem(variant, a[:, order] * signs, x[order] * signs, y), config)
        assert base.converged and relabelled.converged
        assert relabelled.uniqueness == base.uniqueness
        np.testing.assert_allclose(
            relabelled.solution, base.solution[order] * signs, rtol=0, atol=1e-9 * np.abs(base.solution).max()
        )

    @pytest.mark.xfail(
        strict=True,
        reason="PDHG's stop test is absolute: 105 iterations at c = 1, 6,559 at c = 0.01, the cap at c = 1e-3",
    )
    def test_small_units_converge(self):
        a, x, y = sparse_instance(np.random.default_rng([4, 77]))
        assert solve(scaled_problem("qcbp", a, x, y, 1e-3), SolveConfig(max_iters=20_000)).converged

    def test_dual_must_clear_its_bound_off_the_support(self):
        problem = ProblemSpec("qcbp", np.eye(2), [3.0, 0.0], 1.0)
        z = np.array([2.0, 0.0])
        assert solvers._uniqueness(problem, z, np.array([-1.0, 0.5]), 1e-8) == "unique"
        for at_bound in (1.0, 1.0 - 1e-6):
            u = np.array([-1.0, at_bound])
            assert solvers._uniqueness(problem, z, u, 1e-8) == "undetermined"


def polish_returning(monkeypatch, make_pair):
    """Replace ``solvers._polish`` by ``make_pair(problem, polished)``, where
    ``polished`` is the real candidate or None."""
    polish = solvers._polish
    monkeypatch.setattr(
        solvers, "_polish", lambda problem, z, u: make_pair(problem, polish(problem, z, u))
    )


class TestPolish:
    @pytest.mark.parametrize(
        "problem, config, want",
        [
            (ProblemSpec("qcbp", np.eye(2), [3.0, 0.0], 1.0), SolveConfig(), [2.0, 0.0]),
            (ProblemSpec("bpdn", np.array([[1.0]]), [3.0], 2.0), SolveConfig(tol=1e-10), [2.0]),
            (ProblemSpec("lasso", np.eye(2), [3.0, 0.0], 1.0), SolveConfig(), [1.0, 0.0]),
            # The budget is inactive: the answer is the least-squares fit.
            (ProblemSpec("lasso", np.eye(2), [3.0, 0.0], 10.0), SolveConfig(), [3.0, 0.0]),
            (ProblemSpec("dantzig", np.eye(2), [3.0, 0.5], 1.0), SolveConfig(), _soft_threshold(np.array([3.0, 0.5]), 1.0)),
        ],
        ids=["qcbp-boundary", "bpdn-scalar", "lasso-budget", "lasso-inactive-budget", "dantzig-soft-threshold"],
    )
    def test_closed_forms_are_exact(self, problem, config, want):
        report = solve(problem, config)
        assert report.converged
        np.testing.assert_allclose(report.solution, want, rtol=0, atol=1e-12)

    def test_iteration_cap_is_respected(self):
        for problem in quality_set():
            for max_iters in range(1, 6):
                report = solve(problem, SolveConfig(max_iters=max_iters))
                assert report.iterations <= max_iters, problem.variant
                if not report.converged:
                    assert report.uniqueness == "undetermined", problem.variant

    def test_polished_step_counts_against_the_cap(self):
        # The step from the polished pair is iteration N: a cap of N still
        # leaves room for it, a cap of N - 1 does not, and that run stops at
        # the cap on the plain trajectory.
        for problem in quality_set():
            report = solve(problem, SolveConfig(max_iters=20_000))
            at_cap = solve(problem, SolveConfig(max_iters=report.iterations))
            assert at_cap.converged and at_cap.iterations == report.iterations, problem.variant
            assert np.array_equal(at_cap.solution, report.solution), problem.variant
            capped = solve(problem, SolveConfig(max_iters=report.iterations - 1))
            assert capped.iterations == report.iterations - 1, problem.variant
            assert not capped.converged and capped.uniqueness == "undetermined"

    def test_dantzig_active_rows_ignore_rounding_level_duals(self):
        # A dual entry far below the others still ranks below the |S| active
        # rows, so the polish does not give up on it.
        a, _, y = sparse_instance(np.random.default_rng(0))
        problem = ProblemSpec("dantzig", a, y, 0.05)
        report = solve(problem)
        assert report.converged
        u = report.dual.copy()
        u[np.flatnonzero(u == 0)[0]] = 1e-9 * np.abs(u).max()
        polished = solvers._polish(problem, report.solution, u)
        assert polished is not None
        assert not verify_optimality(problem, *polished, 1e-7)

    def test_wrong_pair_is_never_returned(self, monkeypatch):
        flipped = []

        def wrong_sign(problem, pair):
            if pair is None:
                return None
            flipped.append(problem.variant)
            return -pair[0], -pair[1]

        polish_returning(monkeypatch, wrong_sign)
        for problem in quality_set():
            report = solve(problem, SolveConfig(max_iters=20_000))
            assert report.converged, problem.variant
            violations = verify_optimality(problem, report.solution, report.dual, 1e-7)
            assert not violations, (problem.variant, violations)
        assert set(flipped) == set(solvers.VARIANTS)

    def test_matches_the_unpolished_engine(self, monkeypatch):
        def problems():
            for seed in range(20):
                rng = np.random.default_rng([seed, 41])
                a = gaussian_matrix(rng, 6, 8)
                x = np.zeros(8)
                x[rng.choice(8, size=2, replace=False)] = rng.standard_normal(2)
                y = a @ x + 0.01 * rng.standard_normal(6)
                eta = (1e-1, 1e-2, 1e-3, 0.0)[seed % 4]
                parameters = {"qcbp": eta, "bpdn": 0.05, "lasso": np.abs(x).sum(), "dantzig": eta}
                yield from (ProblemSpec(v, a, y, t) for v, t in parameters.items())

        config = SolveConfig(max_iters=20_000)
        polished = [solve(problem, config) for problem in problems()]
        polish_returning(monkeypatch, lambda problem, pair: None)
        reference = [solve(problem, config) for problem in problems()]
        for problem, report, plain in zip(problems(), polished, reference):
            assert report.converged and plain.converged, problem.variant
            assert not verify_optimality(problem, report.solution, report.dual, 1e-7), problem.variant
            assert report.uniqueness == plain.uniqueness, problem.variant
        assert sum(r.iterations for r in polished) < sum(r.iterations for r in reference)


def project_l1_ball_reference(v, radius):
    """``solvers._project_l1_ball`` before it found its last positive index
    with ``nonzero()[0][-1]``."""
    mag = np.abs(v)
    if mag.sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    drop = np.sort(mag)[::-1]
    cumulative = np.cumsum(drop)
    idx = np.arange(1, v.size + 1)
    positive = drop - (cumulative - radius) / idx > 0
    k = int(np.max(np.nonzero(positive)[0])) + 1
    theta = (cumulative[k - 1] - radius) / k
    return _soft_threshold(v, theta)


def project_l2_ball_reference(u, center, radius):
    """``solvers._project_l2_ball`` when it copied a point inside the ball."""
    d = u - center
    nd = math.sqrt(d @ d)
    if nd <= radius:
        return u.copy()
    return center + d * (radius / nd)


def project_linf_ball_reference(u, center, radius):
    """``solvers._project_linf_ball`` through ``np.clip``."""
    return center + np.clip(u - center, -radius, radius)


def pdhg_reference(problem, config):
    """``solvers._pdhg`` as it was before its hot path was trimmed (``@``
    products, both residuals every step, attribute lookups in the loop),
    kept verbatim apart from the module prefixes. Run it under
    ``reference_kernels`` so that it also projects as it did then."""
    k, prox_primal, prox_dual = solvers._variant_operators(problem)
    step = 0.95 / max(spectral_norm(k), 1e-30)
    p_tol = config.tol * min(1.0, problem.parameter) if problem.variant == "bpdn" else config.tol
    kt = k.T
    omega = 1.0
    tau = sigma = step

    def pdhg_step(z, u, kz, ktu):
        """T(z, u), its movement and the residuals of the pair it returns."""
        z_new = prox_primal(z - tau * ktu, tau)
        kz_new = k @ z_new
        dz = z - z_new
        dkz = kz - kz_new
        u_new = prox_dual(u + sigma * (kz_new - dkz), sigma)
        ktu_new = kt @ u_new
        du = u - u_new
        r = dz / tau - (ktu - ktu_new)
        p_res = math.sqrt(r @ r)
        r = du / sigma - dkz
        d_res = math.sqrt(r @ r)
        return z_new, u_new, kz_new, ktu_new, dz, du, p_res, d_res

    z0 = z = np.zeros(k.shape[1])
    u0 = u = np.zeros(k.shape[0])
    kz = k @ z
    ktu = kt @ u
    j = 0
    for iters in range(1, config.max_iters + 1):
        z_new, u_new, kz_new, ktu_new, dz, du, p_res, d_res = pdhg_step(z, u, kz, ktu)
        if p_res <= p_tol and d_res <= config.tol:
            break
        fixed = math.sqrt(omega * (dz @ dz) + (du @ du) / omega)
        if j == 0:
            fixed0 = fixed
        elif (
            fixed <= solvers._RESTART_SUFFICIENT * fixed0
            or (fixed <= solvers._RESTART_NECESSARY * fixed0 and fixed > fixed_prev)
            or j >= solvers._RESTART_ARTIFICIAL * iters
        ):
            polished = solvers._polish(problem, z_new, u_new) if iters < config.max_iters else None
            if polished is not None:
                z_pol, u_pol = polished
                z_pol, u_pol, _, _, _, _, p_pol, d_pol = pdhg_step(z_pol, u_pol, k @ z_pol, kt @ u_pol)
                if p_pol <= p_tol and d_pol <= config.tol:
                    z_new, u_new, p_res, d_res = z_pol, u_pol, p_pol, d_pol
                    iters += 1
                    break
            dz, du = z_new - z0, u_new - u0
            moved_z, moved_u = math.sqrt(dz @ dz), math.sqrt(du @ du)
            if moved_z > solvers._MOVEMENT_FLOOR and moved_u > solvers._MOVEMENT_FLOOR:
                omega = math.sqrt(omega * moved_u / moved_z)
                tau, sigma = step / omega, step * omega
            z0 = z = z_new
            u0 = u = u_new
            kz, ktu = kz_new, ktu_new
            j = 0
            continue
        fixed_prev = fixed
        anchor = 1.0 / (j + 2)
        z = z_new - dz  # the reflection 2 T(w) - w, then the pull towards w0
        z += anchor * (z0 - z)
        u = u_new - du
        u += anchor * (u0 - u)
        kz = k @ z
        ktu = kt @ u
        j += 1
    converged = p_res <= p_tol and d_res <= config.tol
    return z_new, u_new, p_res, d_res, iters, converged


@contextlib.contextmanager
def reference_kernels():
    """``solvers`` projecting with the reference kernels."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_project_l1_ball", project_l1_ball_reference)
        patch.setattr(solvers, "_project_l2_ball", project_l2_ball_reference)
        patch.setattr(solvers, "_project_linf_ball", project_linf_ball_reference)
        yield


def random_problem(rng, variant):
    """A Gaussian A of 2-8 rows and 2-11 columns, a sparse x and y = A x
    plus noise; qcbp's eta grows until y is within it of range(A)."""
    m, n = int(rng.integers(2, 9)), int(rng.integers(2, 12))
    a = rng.standard_normal((m, n))
    x = np.zeros(n)
    x[rng.choice(n, size=min(2, n), replace=False)] = rng.standard_normal(min(2, n))
    y = a @ x + 0.01 * rng.standard_normal(m)
    parameter = np.abs(x).sum() if variant == "lasso" else 0.05
    if variant == "qcbp":
        parameter += np.linalg.norm(a @ np.linalg.lstsq(a, y, rcond=None)[0] - y)
    return ProblemSpec(variant, a, y, parameter)


class TestPdhgMatchesReference:
    def assert_same_run(self, problem, config):
        z, u, p_res, d_res, iters, converged = solvers._pdhg(problem, config)
        with reference_kernels():
            z_ref, u_ref, p_ref, d_ref, iters_ref, converged_ref = pdhg_reference(problem, config)
        assert z.tobytes() == z_ref.tobytes() and u.tobytes() == u_ref.tobytes()
        assert (p_res, d_res, iters, converged) == (p_ref, d_ref, iters_ref, converged_ref)
        return iters, converged

    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    def test_six_by_eight_problems(self, variant):
        for seed in range(12):
            a, x, y = sparse_instance(np.random.default_rng([seed, 43]))
            eta = (1e-1, 1e-2, 1e-3, 0.0)[seed % 4]
            parameter = {"qcbp": eta, "bpdn": 0.05, "lasso": np.abs(x).sum(), "dantzig": eta}[variant]
            problem = ProblemSpec(variant, a, y, parameter)
            _, converged = self.assert_same_run(problem, SolveConfig(max_iters=20_000))
            assert converged, (variant, seed)

    @pytest.mark.parametrize("max_iters", [1, 2, 3, 5, 8, 13, 40])
    def test_capped_random_problems(self, max_iters):
        rng = np.random.default_rng([max_iters, 44])
        capped = 0
        for i in range(40):
            problem = random_problem(rng, solvers.VARIANTS[i % 4])
            iters, converged = self.assert_same_run(problem, SolveConfig(max_iters=max_iters))
            capped += not converged and iters == max_iters
        assert capped


signed_zero = st.sampled_from([0.0, -0.0])
# Bounded so that no sum or difference of nine entries overflows.
entry = st.one_of(signed_zero, st.floats(-1e300, 1e300))
non_negative = st.one_of(signed_zero, st.floats(0.0, 1e300))


class TestProxKernels:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        t=st.lists(entry, min_size=1, max_size=9),
        z=non_negative,
        tie=st.integers(0, 8),
    )
    def test_soft_threshold_keeps_the_sign_of_zero_rule(self, t, z, tie):
        # sign(t) * max(|t| - z, 0) maps -0.0 to +0.0 and a negative entry
        # within the threshold to -0.0; np.copysign(max(|t| - z, 0), t), a
        # call cheaper, would map -0.0 to -0.0.
        t = np.array(t)
        if tie < t.size:
            z = abs(t[tie])  # a tie |t| = z
        want = [0.0 if v == 0 else math.copysign(max(abs(v) - z, 0.0), v) for v in t.tolist()]
        assert _soft_threshold(t, z).tobytes() == np.array(want).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        u=st.lists(entry, min_size=1, max_size=9),
        center=st.one_of(st.none(), st.lists(entry, min_size=9, max_size=9)),
        radius=non_negative,
        tie=st.integers(0, 8),
    )
    def test_linf_projection_matches_np_clip(self, u, center, radius, tie):
        u = np.array(u)
        # A zero center passes u's signed zeros through to u - center.
        center = np.zeros(u.size) if center is None else np.array(center[: u.size])
        if tie < u.size:
            radius = abs(u[tie] - center[tie])  # entry ``tie`` lands on the bound
        got = solvers._project_linf_ball(u, center, radius)
        assert got.tobytes() == project_linf_ball_reference(u, center, radius).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(v=st.lists(entry, min_size=1, max_size=9), radius=non_negative)
    def test_l1_projection_matches_the_reference(self, v, radius):
        v = np.array(v)
        try:
            want = project_l1_ball_reference(v, radius)
        except ValueError:
            # Rounding can leave no index positive when radius << max|v|;
            # the first always is in exact arithmetic, which gives theta.
            want = _soft_threshold(v, np.abs(v).max() - radius)
        assert solvers._project_l1_ball(v, radius).tobytes() == want.tobytes()

    def test_l2_projection_returns_an_inside_point_itself(self, rng):
        center = rng.standard_normal(5)
        for radius, inside in ((10.0, True), (0.0, False), (1e-3, False)):
            u = center + 0.1 * rng.standard_normal(5)
            before = u.copy()
            got = solvers._project_l2_ball(u, center, radius)
            assert (got is u) == inside
            assert u.tobytes() == before.tobytes()
            assert got.tobytes() == project_l2_ball_reference(u, center, radius).tobytes()


class TestNoiseScaling:
    def test_error_grows_linearly_with_eta(self):
        # well-conditioned fixed instance; doubling eta at most 2.5x the error
        a = low_coherence_matrix(np.random.default_rng(5), 6, 8)
        x = np.zeros(8)
        x[2] = 1.0
        rng = np.random.default_rng(17)
        direction = rng.standard_normal(6)
        direction /= np.linalg.norm(direction)
        for eta in (1e-3, 1e-2, 1e-1):
            errs = {}
            for factor in (1.0, 2.0):
                e = direction * eta * factor
                report = solve(ProblemSpec("qcbp", a, a @ x + e, eta * factor), SolveConfig(max_iters=200_000))
                assert report.converged
                errs[factor] = np.linalg.norm(report.solution - x)
            assert errs[2.0] <= 2.5 * errs[1.0] + 1e-12


def brute_force_loop_reference(a, y, s):
    """Per-support loop: one lstsq per support, (residual, support) order."""
    best_support, best_coeffs, best_res = (), np.zeros(0), float(np.linalg.norm(y))
    for size in range(1, s + 1):
        for support in itertools.combinations(range(a.shape[1]), size):
            cols = a[:, support]
            coeffs, *_ = np.linalg.lstsq(cols, y, rcond=None)
            res = float(np.linalg.norm(cols @ coeffs - y))
            if res < best_res or (res == best_res and support < best_support):
                best_support, best_coeffs, best_res = support, coeffs, res
    return best_support, best_coeffs, best_res


class TestBruteForce:
    def _assert_matches_loop(self, a, y, s):
        support, coeffs, residual = brute_force_sparse_fit(a, y, s)
        want_support, want_coeffs, want_residual = brute_force_loop_reference(a, y, s)
        assert support == want_support
        assert all(type(i) is int for i in support)
        assert coeffs.tobytes() == want_coeffs.tobytes()
        assert residual == want_residual

    def test_matches_lstsq_loop_bitwise(self, rng):
        for m, n, s in ((5, 8, 2), (6, 9, 3), (8, 10, 1)):
            a = rng.standard_normal((m, n))
            self._assert_matches_loop(a, rng.standard_normal(m), s)
            x = np.zeros(n)
            x[rng.choice(n, size=s, replace=False)] = rng.standard_normal(s)
            self._assert_matches_loop(a, a @ x, s)

    def test_sparsity_at_least_rows_matches_loop_bitwise(self, rng):
        # every full-rank support of size >= m fits y to within rounding
        for m, n, s in ((3, 7, 3), (3, 7, 4), (2, 6, 3)):
            self._assert_matches_loop(rng.standard_normal((m, n)), rng.standard_normal(m), s)

    def test_duplicated_column_matches_loop_bitwise(self, rng):
        a = rng.standard_normal((4, 7))
        a[:, 5] = a[:, 1]
        self._assert_matches_loop(a, rng.standard_normal(4), 3)
        self._assert_matches_loop(a, 2.0 * a[:, 1] - a[:, 3], 2)

    def test_zero_measurement_matches_loop_bitwise(self, rng):
        self._assert_matches_loop(rng.standard_normal((4, 6)), np.zeros(4), 3)

    def test_several_chunks_match_loop_bitwise(self, rng):
        a = rng.standard_normal((6, 16))
        # C(16, 3) = 560 supports of size 3 span two chunks
        self._assert_matches_loop(a, rng.standard_normal(6), 3)

    def test_cap_counts_every_size(self):
        # 30 + 435 + 4060 = 4525 supports, although C(30, 3) = 4060 fits the cap
        with pytest.raises(ValueError, match="4525"):
            brute_force_sparse_fit(np.ones((2, 30)), np.ones(2), 3, cap=4100)
        # 2^10 - 2 = 1022 supports, although C(10, 9) = 10
        with pytest.raises(ValueError, match="1022"):
            brute_force_sparse_fit(np.ones((2, 10)), np.ones(2), 9, cap=100)

    def test_exact_one_sparse_data(self, rng):
        a = rng.standard_normal((5, 6))
        y = a @ np.eye(6)[0]
        support, coeffs, residual = brute_force_sparse_fit(a, y, 1)
        assert support == (0,)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert residual <= 1e-12

    def test_zero_measurement(self, rng):
        support, coeffs, residual = brute_force_sparse_fit(rng.standard_normal((4, 5)), np.zeros(4), 2)
        assert support == ()
        assert residual == 0.0

    def test_matches_reversed_enumeration(self, rng):
        a = rng.standard_normal((6, 8))
        y = rng.standard_normal(6)
        support, coeffs, residual = brute_force_sparse_fit(a, y, 2)

        best = (np.inf, None, None)
        supports = [()]
        supports += [(i,) for i in range(8)]
        supports += list(itertools.combinations(range(8), 2))
        for sup in reversed(supports):
            if sup:
                cols = a[:, sup]
                c, *_ = np.linalg.lstsq(cols, y, rcond=None)
                r = float(np.linalg.norm(cols @ c - y))
            else:
                c = np.zeros(0)
                r = float(np.linalg.norm(y))
            if r < best[0] or (r == best[0] and sup < best[1]):
                best = (r, sup, c)
        assert support == best[1]
        assert residual == pytest.approx(best[0], abs=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            brute_force_sparse_fit(np.ones((2, 30)), np.ones(2), 5, cap=1000)


class TestIsta:
    def test_zero_data_keeps_zero_trajectory(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        traj = ista_run(a, np.zeros(2), 0.5, 1.0, 20)
        assert np.array_equal(traj, np.zeros((21, 2)))

    def test_scalar_fixed_point(self):
        a = np.array([[1.0]])
        traj = ista_run(a, np.array([3.0]), 2.0, 1.0, 30)
        # eta_2(3) = 1 is a fixed point; matches _soft_threshold([3], 2)
        assert traj[1, 0] == pytest.approx(1.0, abs=1e-14)
        assert traj[-1, 0] == pytest.approx(_soft_threshold(np.array([3.0]), 2.0)[0], abs=1e-12)

    def test_objective_monotone_with_valid_step(self):
        for trial in range(20):
            rng = np.random.default_rng([11, trial])
            a = rng.standard_normal((6, 10))
            y = rng.standard_normal(6)
            lam = 0.1
            step = spectral_norm(a) ** 2
            traj = ista_run(a, y, lam, step, 200)
            objs = [ista_objective(a, y, lam, z) for z in traj]
            assert all(o2 <= o1 + 1e-12 for o1, o2 in zip(objs, objs[1:]))

    def test_invalid_step_bound_rejected(self):
        with pytest.raises(ValueError):
            ista_run(np.eye(2), np.ones(2), 0.1, 0.0, 5)

    def test_negative_lambda_rejected(self):
        message = r"^lambda must be a non-negative finite number$"
        with pytest.raises(ValueError, match=message):
            ista_run(np.eye(2), np.ones(2), -0.1, 1.0, 2)
        with pytest.raises(ValueError, match=message):
            lista_from_ista(np.eye(2), -0.1, 1.0, 2)

    def test_measurement_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="measurement length 1 does not match 2 rows"):
            ista_run(np.eye(2), np.ones(1), 0.1, 1.0, 2)
        with pytest.raises(ValueError, match="measurement length 3 does not match 2 rows"):
            ista_objective(np.eye(2), np.ones(3), 0.1, np.zeros(2))


class TestLista:
    def test_reproduces_ista_trajectory(self, rng):
        a = rng.standard_normal((5, 8))
        y = rng.standard_normal(5)
        lam = 0.2
        step = spectral_norm(a) ** 2
        depth = 50
        traj = ista_run(a, y, lam, step, depth)
        net = lista_from_ista(a, lam, step, depth)
        endpoint = lista_eval(net, y)
        assert np.max(np.abs(endpoint - traj[-1])) <= 1e-12

    def test_mismatched_measurement_rejected(self, rng):
        net = lista_from_ista(rng.standard_normal((3, 4)), 0.1, 2.0, 2)
        with pytest.raises(ValueError):
            lista_eval(net, np.ones(5))

    def test_layer_dimension_validation(self, rng):
        from homogenlab.solvers import Lista

        with pytest.raises(ValueError):
            Lista(np.eye(3), np.ones((4, 2)), 0.1, 1)

    def test_depth_zero_starts_from_zeros_and_checks_the_measurement(self, rng):
        net = lista_from_ista(rng.standard_normal((3, 4)), 0.1, 2.0, 0)
        assert np.array_equal(lista_eval(net, rng.standard_normal(3)), np.zeros(4))
        with pytest.raises(ValueError, match=r"^measurement length 5 does not match 3 rows$"):
            lista_eval(net, np.ones(5))

    @pytest.mark.parametrize(
        "w1, w2, threshold, depth, message",
        [
            (np.ones((3, 2)), np.ones((3, 2)), 0.1, 1, r"^w1 must be square"),
            (np.eye(3), np.ones((3, 2)), -0.1, 1, r"^threshold must be non-negative$"),
            (np.eye(3), np.ones((3, 2)), np.nan, 1, r"^threshold must be non-negative$"),
            (np.eye(3), np.ones((3, 2)), 0.1, -1, r"^depth must be non-negative$"),
        ],
        ids=["w1-not-square", "threshold", "threshold-nan", "depth"],
    )
    def test_tied_pair_rejected_by_rule(self, w1, w2, threshold, depth, message):
        from homogenlab.solvers import Lista

        with pytest.raises(ValueError, match=message):
            Lista(w1, w2, threshold, depth)

    def test_holds_read_only_copies(self):
        from homogenlab.solvers import Lista

        w1, w2 = np.eye(2), np.ones((2, 1))
        net = Lista(w1, w2, 0.1, 3)
        before = lista_eval(net, [1.0])
        assert w1.flags.writeable and w2.flags.writeable
        w1[0, 0] = w2[0, 0] = np.nan
        assert np.array_equal(lista_eval(net, [1.0]), before)
        assert not net.w1.flags.writeable and not net.w2.flags.writeable

    def test_matches_the_steps_written_out_bitwise(self, rng):
        # W2 = A^T / L is F-ordered; a copy in another order changes W2 @ y.
        a, y = rng.standard_normal((5, 8)), rng.standard_normal(5)
        lam, step, depth = 0.2, spectral_norm(a) ** 2, 30
        w1, w2 = np.eye(8) - (a.T @ a) / step, a.T / step
        x = np.zeros(8)
        for _ in range(depth):
            x = _soft_threshold(w1 @ x + w2 @ y, lam / step)
        assert np.array_equal(lista_eval(lista_from_ista(a, lam, step, depth), y), x)


class TestForwardOperators:
    def test_zero_matrix_maps_to_zero(self, rng):
        a = rng.standard_normal((4, 3))
        assert np.array_equal(lowrank_forward(a, np.zeros((3, 3))), np.zeros(4))

    def test_basis_matrix_gives_squared_column(self, rng):
        a = rng.standard_normal((4, 3))
        e11 = np.zeros((3, 3))
        e11[0, 0] = 1.0
        assert np.allclose(lowrank_forward(a, e11), a[:, 0] ** 2, atol=1e-14)

    def test_outer_product_equals_phase_retrieval(self, rng):
        for _ in range(20):
            a = rng.standard_normal((5, 4))
            x = rng.standard_normal(4)
            assert np.allclose(
                lowrank_forward(a, np.outer(x, x)), phase_retrieval_forward(a, x), atol=1e-12
            )

    def test_sign_invariance(self, rng):
        a = rng.standard_normal((5, 4))
        x = rng.standard_normal(4)
        assert np.array_equal(phase_retrieval_forward(a, x), phase_retrieval_forward(a, -x))

    def test_zero_signal(self, rng):
        a = rng.standard_normal((5, 4))
        assert np.array_equal(phase_retrieval_forward(a, np.zeros(4)), np.zeros(5))

    def test_stack_matches_per_matrix_values(self, rng):
        a = rng.standard_normal((5, 4))
        stack = rng.standard_normal((7, 4, 4))
        want = np.array([lowrank_forward(a, x) for x in stack])
        assert np.allclose(lowrank_forward(a, stack), want, rtol=1e-12, atol=0)

    def test_dimension_mismatch(self, rng):
        a = rng.standard_normal((5, 4))
        with pytest.raises(ValueError):
            lowrank_forward(a, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            lowrank_forward(a, np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            lowrank_forward(a, np.zeros(16))
        with pytest.raises(ValueError, match="non-finite"):
            lowrank_forward(a, np.full((2, 4, 4), np.nan))
        with pytest.raises(ValueError):
            phase_retrieval_forward(a, np.zeros(3))


class TestRobustnessScan:
    def test_linear_map_bounded_by_spectral_norm(self, rng):
        m = rng.standard_normal((3, 4))
        rows = robustness_scan(lambda y: y @ m.T, np.eye(4), rng.standard_normal(4), [0.1, 1.0], 10, seed=3)
        bound = spectral_norm(m)
        assert len(rows) == 20
        for _, _, ratio in rows:
            assert ratio <= bound + 1e-9

    def test_scale_invariant_map_gives_identical_ratios(self, rng):
        w1 = rng.standard_normal((6, 4))
        w2 = rng.standard_normal((4, 6))

        def f(y):
            return np.maximum(y @ w1.T, 0.0) @ w2.T

        a = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        rows1 = robustness_scan(f, a, x, [0.01, 0.1], 5, seed=9)
        rows10 = robustness_scan(f, a, 10.0 * x, [0.1, 1.0], 5, seed=9)
        for (_, _, r1), (_, _, r10) in zip(rows1, rows10):
            assert r1 == pytest.approx(r10, rel=1e-9)

    def test_zero_level_rejected(self, rng):
        with pytest.raises(ValueError):
            robustness_scan(lambda y: y, np.eye(2), np.ones(2), [0.0, 0.1], 3, seed=1)

    def test_underflowing_level_rejected_before_any_map(self):
        def never(y):
            raise AssertionError("the map ran")

        # The squared entries of the noise underflow, so ||e|| is 0 and every
        # ratio would be nan; at 1e-160 they are subnormal and the norm is not.
        with pytest.raises(ValueError, match="noise level 1e-170 is too small"):
            robustness_scan(never, np.eye(2), np.ones(2), [1e-3, 1e-170], 3, seed=1)
        rows = robustness_scan(lambda y: y, np.eye(2), np.ones(2), [1e-160], 3, seed=1)
        assert all(math.isfinite(ratio) for _, _, ratio in rows)

    def test_overflowing_norm_rejected_when_the_gain_rounds_to_zero(self):
        # At 1e160 ||e|| overflows; the gap of a map that shrinks by 1e-10 stays
        # finite, so the gain would read 0 instead of 1e-10.
        with pytest.raises(ValueError, match=r"noise level 1e\+160 is too large"):
            robustness_scan(lambda y: 1e-10 * y, np.eye(2), np.ones(2), [1e-3, 1e160], 3, seed=1)

    def test_deterministic(self, rng):
        rows1 = robustness_scan(lambda y: y, np.eye(3), np.ones(3), [0.5], 4, seed=12)
        rows2 = robustness_scan(lambda y: y, np.eye(3), np.ones(3), [0.5], 4, seed=12)
        assert rows1 == rows2


    def test_rows_match_per_point_reference(self, rng):
        net = NetworkSpec(
            (
                LayerSpec(rng.standard_normal((12, 5)), rng.standard_normal(12)),
                LayerSpec(rng.standard_normal((3, 12)), rng.standard_normal(3)),
            ),
            ActivationSpec.relu(),
            unbiased=False,
        )
        a, x, levels = rng.standard_normal((5, 7)), rng.standard_normal(7), [0.1, 1.0]
        sizes = []

        def recording(y):
            sizes.append(len(y))
            return evaluate(net, y)

        rows = robustness_scan(recording, a, x, levels, 70, seed=4)
        assert max(sizes) == PROBE_CHUNK and sum(sizes) == 1 + 140
        # One draw and one evaluate call per trial, from the same generator.
        gen = np.random.default_rng(4)
        y = a @ x
        base = evaluate(net, y)
        want = []
        for level in levels:
            for trial in range(70):
                direction = gen.standard_normal(y.size)
                e = direction * (level / float(np.linalg.norm(direction)))
                gain = float(np.linalg.norm(evaluate(net, y + e) - base))
                want.append((level, trial, gain / float(np.linalg.norm(e))))
        assert [r[:2] for r in rows] == [w[:2] for w in want]
        np.testing.assert_allclose([r[2] for r in rows], [w[2] for w in want], rtol=1e-12, atol=0)


class TestSelectionDiscontinuity:
    def test_small_y2_picks_zero(self):
        assert selection_discontinuity_demo(0.5) == (0.0, False)

    def test_large_y2_picks_one(self):
        assert selection_discontinuity_demo(1.5) == (1.0, False)

    def test_tie_flags_multiplicity(self):
        z1, multiple = selection_discontinuity_demo(1.0)
        assert z1 == 0.0
        assert multiple

    def test_jump_is_exact(self):
        assert selection_discontinuity_demo(0.999)[0] == 0.0
        assert selection_discontinuity_demo(1.001)[0] == 1.0

    def test_out_of_range_rejected(self):
        for bad in (0.0, 2.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                selection_discontinuity_demo(bad)

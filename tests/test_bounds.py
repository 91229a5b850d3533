import itertools

import numpy as np
import pytest

from homogenlab.bounds import (
    SUPPORT_CHUNK,
    ConditioningReport,
    DirectionSet,
    eckart_young_gap,
    empirical_conditioning,
    lowrank_forward,
    lowrank_rip_sample,
    one_layer_lower_bound,
    phase_retrieval_forward,
    rip_exhaustive,
    support_chunks,
    support_count,
    uat_negative_bound,
    uat_negative_matrix,
)
from homogenlab.homogenize import FitConfig, fit_regression
from homogenlab.network import evaluate, unbiased_relu_net
from homogenlab.solvers import brute_force_sparse_fit


def gram_eigen_tail_oracle(x, m):
    """Independent route to the lower bound: eigenvalues of the Gram matrix."""
    eigs = np.sort(np.linalg.eigvalsh(x.T @ x))[::-1]
    tail = np.clip(eigs[m:], 0.0, None)
    return float(np.sqrt(tail.sum() / x.shape[1]))


class TestOneLayerLowerBound:
    def test_identity_columns_give_closed_form(self):
        # sqrt(1 - m/n) with m = 2, n = 4
        assert one_layer_lower_bound(2, DirectionSet.identity(4)) == pytest.approx(
            0.70710678, abs=1e-8
        )

    def test_closed_form_for_all_small_sizes(self):
        for n in range(1, 17):
            for m in range(1, n + 1):
                got = one_layer_lower_bound(m, DirectionSet.identity(n))
                assert abs(got - np.sqrt(1.0 - m / n)) <= 1e-12

    def test_zero_when_m_reaches_direction_count(self, rng):
        x = rng.standard_normal((5, 3))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        assert one_layer_lower_bound(3, DirectionSet(x)) == 0.0
        assert one_layer_lower_bound(7, DirectionSet(x)) == 0.0

    def test_matches_gram_eigenvalue_oracle(self, rng):
        for _ in range(50):
            x = rng.standard_normal((5, 7))
            x /= np.linalg.norm(x, axis=0, keepdims=True)
            got = one_layer_lower_bound(3, DirectionSet(x))
            assert got == pytest.approx(gram_eigen_tail_oracle(x, 3), abs=1e-10)

    def test_non_unit_columns_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            DirectionSet(np.array([[1.0, 0.5], [0.0, 0.0]]))

    def test_non_unit_column_message_is_a_plain_number(self):
        with pytest.raises(ValueError) as info:
            DirectionSet(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
        assert str(info.value) == "column 2 has l2 norm 0.7071067811865476, expected 1"

    def test_holds_a_read_only_copy(self):
        x = np.eye(3)
        directions = DirectionSet(x)
        assert x.flags.writeable
        x[0, 0] = np.nan
        assert np.array_equal(directions.columns, np.eye(3))
        assert not directions.columns.flags.writeable

    def test_empty_direction_set_rejected(self):
        with pytest.raises(ValueError, match="need at least one direction"):
            DirectionSet(np.zeros((3, 0)))


class TestUatNegative:
    def test_single_zero_slope(self):
        assert np.allclose(uat_negative_matrix(np.array([0.0])), [[1.0], [0.0]])

    def test_column_formula(self):
        got = uat_negative_matrix(np.array([0.0, 1.0]))
        want_second = 1.0 / np.sqrt(2.0)
        assert np.allclose(got[:, 0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(got[:, 1], [want_second, want_second], atol=1e-12)

    def test_repeated_slopes_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            uat_negative_matrix(np.array([1.0, 1.0]))

    def test_slope_whose_square_overflows_rejected(self):
        # 1e154 still gives a unit column; at 1e155, 1 + w^2 overflows.
        assert np.allclose(uat_negative_matrix(np.array([1e154]))[:, 0], [1e-154, 1.0])
        with pytest.raises(ValueError, match=r"slope -1e\+155 is too large"):
            uat_negative_matrix(np.array([0.0, -1e155]))

    def test_empty_slopes_rejected(self):
        with pytest.raises(ValueError, match="at least one slope"):
            uat_negative_matrix(np.array([]))

    def test_unit_columns_and_nonzero_subdeterminants(self, rng):
        w = np.sort(rng.standard_normal(6) * 3)
        a = uat_negative_matrix(w)
        assert np.allclose(np.linalg.norm(a, axis=0), 1.0, atol=1e-12)
        from itertools import combinations

        for i, j in combinations(range(6), 2):
            det = a[0, i] * a[1, j] - a[0, j] * a[1, i]
            assert abs(det) > 1e-12

    def test_bound_values(self):
        assert uat_negative_bound(8) == pytest.approx(0.86602540, abs=1e-8)
        assert uat_negative_bound(4) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert uat_negative_bound(1) == pytest.approx(0.35355339, abs=1e-8)

    def test_bound_rejects_zero(self):
        with pytest.raises(ValueError):
            uat_negative_bound(0)


def rip_loop_reference(a, t):
    """Per-support loop: one Gram matrix and one eigvalsh per support."""
    worst_lb = worst_ub = 0.0
    for support in itertools.combinations(range(a.shape[1]), t):
        cols = a[:, support]
        w = np.linalg.eigvalsh(cols.T @ cols)
        worst_lb = max(worst_lb, 1.0 - float(w[0]))
        worst_ub = max(worst_ub, float(w[-1]) - 1.0)
    return max(worst_lb, worst_ub), worst_lb, worst_ub


class TestSupportChunks:
    def test_lexicographic_in_bounded_chunks(self):
        chunks = list(support_chunks(16, 4))
        assert all(1 <= len(c) <= SUPPORT_CHUNK for c in chunks)
        assert len(chunks) > 1
        flat = [tuple(row) for c in chunks for row in c.tolist()]
        assert flat == list(itertools.combinations(range(16), 4))

    def test_single_and_full_size(self):
        assert [c.tolist() for c in support_chunks(3, 1)] == [[[0], [1], [2]]]
        assert [c.tolist() for c in support_chunks(3, 3)] == [[[0, 1, 2]]]


class TestSupportCount:
    def test_sums_binomials_over_the_sizes(self):
        assert support_count(10, (4,), 210) == 210
        assert support_count(10, range(1, 4), 175) == 10 + 45 + 120

    def test_brute_force_counts_every_size_up_to_s(self):
        message = r"^support enumeration needs 175 supports, cap is 100$"
        with pytest.raises(ValueError, match=message):
            brute_force_sparse_fit(np.ones((2, 10)), np.ones(2), 3, cap=100)


class TestRipExhaustive:
    def _assert_matches_loop(self, a, t):
        report = rip_exhaustive(a, t)
        assert (report.delta, report.delta_lb, report.delta_ub) == rip_loop_reference(a, t)

    def test_matches_per_support_loop_bitwise(self, rng):
        for m, n, t in ((3, 5, 2), (6, 8, 3), (4, 9, 4), (7, 7, 1), (2, 6, 3)):
            self._assert_matches_loop(rng.standard_normal((m, n)) / np.sqrt(m), t)

    def test_duplicated_column_matches_loop_bitwise(self, rng):
        a = rng.standard_normal((5, 8)) / np.sqrt(5)
        a[:, 6] = a[:, 2]
        self._assert_matches_loop(a, 3)
        # the pair (2, 6) has a singular Gram matrix
        assert rip_exhaustive(a, 2).delta_lb == pytest.approx(1.0, abs=1e-12)

    def test_several_chunks_match_loop_bitwise(self, rng):
        a = rng.standard_normal((15, 16)) / np.sqrt(15)
        assert rip_exhaustive(a, 4).supports_checked == 1820 > SUPPORT_CHUNK
        self._assert_matches_loop(a, 4)

    def test_orthonormal_columns_give_zero(self):
        report = rip_exhaustive(np.eye(4), 2)
        assert report.delta == 0.0
        assert report.supports_checked == 6

    def test_two_by_two_worked_example(self):
        a = np.array([[1.0, 0.6], [0.0, 0.8]])
        report = rip_exhaustive(a, 2)
        # Gram eigenvalues 1 +- 0.6
        assert report.delta == pytest.approx(0.6, abs=1e-12)
        assert report.delta_lb == pytest.approx(0.6, abs=1e-12)
        assert report.delta_ub == pytest.approx(0.6, abs=1e-12)

    def test_order_above_columns_rejected(self):
        with pytest.raises(ValueError):
            rip_exhaustive(np.eye(3), 4)

    def test_cap_enforced_with_count(self):
        with pytest.raises(ValueError, match="210"):
            rip_exhaustive(np.ones((2, 10)), 4, cap=100)

    def test_delta_monotone_in_order(self, rng):
        for _ in range(5):
            a = rng.standard_normal((6, 8))
            a /= np.linalg.norm(a, axis=0, keepdims=True)
            deltas = [rip_exhaustive(a, t).delta for t in range(1, 5)]
            assert all(d1 <= d2 + 1e-12 for d1, d2 in zip(deltas, deltas[1:]))


class TestReconstructionFloor:
    """Empirical side of the one-hidden-layer impossibility statement."""

    def _max_error(self, net, a, n):
        worst = 0.0
        for j in range(n):
            for sign in (1.0, -1.0):
                x = np.zeros(n)
                x[j] = sign
                worst = max(worst, float(np.linalg.norm(evaluate(net, a @ x) - x)))
        return worst

    def test_random_one_layer_nets_hit_floor(self, rng):
        m, n = 2, 4
        floor = one_layer_lower_bound(m, DirectionSet.identity(n))
        for _ in range(50):
            width = int(rng.integers(1, 40))
            a = rng.standard_normal((m, n))
            net = unbiased_relu_net(
                [rng.standard_normal((width, m)), rng.standard_normal((n, width))]
            )
            assert self._max_error(net, a, n) >= floor - 1e-9

    def test_trained_one_layer_nets_hit_floor(self, rng):
        m, n = 2, 4
        floor = one_layer_lower_bound(m, DirectionSet.identity(n))
        targets = np.vstack([np.eye(n), -np.eye(n)])
        for trial in range(5):
            a = rng.standard_normal((m, n))
            a /= np.linalg.norm(a, axis=0, keepdims=True)
            inputs = targets @ a.T
            cfg = FitConfig(width=16, learning_rate=0.3, steps=1500, restarts=2, seed=100 + trial)
            net, _ = fit_regression(inputs, targets, cfg, unbiased=True)
            assert self._max_error(net, a, n) >= floor - 1e-9


def conditioning_loop_reference(forward, sampler, num_pairs, tag, seed):
    """The per-draw loop: sampled pairs first, then interleaved ambient
    pairs, with ``forward`` called on one point at a time."""

    def norm_ii(d):
        if tag == "l1":
            return float(np.abs(d).sum())
        if tag == "l2":
            return float(np.linalg.norm(d))
        side = int(round(np.sqrt(d.size)))
        return float(np.linalg.svd(d.reshape(side, side), compute_uv=False).sum())

    def gap(x1, x2):
        return float(np.linalg.norm(forward(x1[None])[0] - forward(x2[None])[0]))

    rng = np.random.default_rng(seed)
    pairs = [(sampler(rng), sampler(rng)) for _ in range(num_pairs)]
    pairs = [(x1, x2) for x1, x2 in pairs if not np.array_equal(x1, x2)]
    tau, rho = np.inf, 0.0
    for x1, x2 in pairs:
        tau = min(tau, gap(x1, x2) / float(np.linalg.norm(x1 - x2)))
        rho = max(rho, gap(x1, x2) / norm_ii(x1 - x2))
    dim = pairs[0][0].size
    for _ in range(num_pairs):
        x1, x2 = rng.standard_normal(dim), rng.standard_normal(dim)
        rho = max(rho, gap(x1, x2) / norm_ii(x1 - x2))
    return tau, rho, len(pairs)


def lowrank_rip_loop_reference(a, r, num_samples, seed):
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(num_samples):
        x = rng.standard_normal((a.shape[1], 2 * r)) @ rng.standard_normal((a.shape[1], 2 * r)).T
        vals.append(np.abs(lowrank_forward(a, x / np.linalg.norm(x))).sum() / a.shape[0])
    return 1.0 - min(vals), max(vals) - 1.0


def eckart_young_loop_reference(m, r, candidates, seed):
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(candidates):
        cand = rng.standard_normal((m.shape[0], r)) @ rng.standard_normal((r, m.shape[1]))
        sq = float(np.sum(cand * cand))
        if sq > 0.0:
            cand *= float(np.sum(m * cand)) / sq
        best = min(best, float(np.linalg.norm(m - cand)))
    return best


def signed_basis_sampler(n, k):
    """Signed basis vectors among the first ``k``: repeats are frequent, so
    some pairs are degenerate."""

    def sampler(rng):
        x = np.zeros(n)
        x[rng.integers(0, k)] = 1.0 if rng.integers(0, 2) else -1.0
        return x

    return sampler


class TestEmpiricalConditioning:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ConditioningReport(-1.0, 1.0, 2, "l2", 1.0), "tau_hat must be non-negative"),
            (lambda: empirical_conditioning(lambda x: x, lambda rng: rng.standard_normal(4), 10, "l3", seed=1),
             "unknown norm tag 'l3'"),
        ],
        ids=["negative-tau", "norm-tag"],
    )
    def test_rejections(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            build()

    def test_identity_is_an_isometry(self):
        def sampler(rng):
            return rng.standard_normal(4)

        report = empirical_conditioning(lambda x: x, sampler, 50, "l2", seed=3)
        assert report.tau_hat == pytest.approx(1.0, abs=1e-12)
        assert report.rho_hat == pytest.approx(1.0, abs=1e-12)
        assert report.norm_equiv_M == 1.0

    def test_sparse_pairs_respect_isometry_constant(self, rng):
        from conftest import low_coherence_matrix

        a = low_coherence_matrix(rng, 6, 8)
        delta = rip_exhaustive(a, 2).delta
        assert delta < 1.0

        def sampler(rng_):
            x = np.zeros(8)
            x[rng_.integers(0, 8)] = 1.0 if rng_.integers(0, 2) else -1.0
            return x

        report = empirical_conditioning(lambda x: x @ a.T, sampler, 100, "l1", seed=5)
        assert report.tau_hat >= np.sqrt(1.0 - delta) - 1e-9
        assert report.tau_hat <= report.rho_hat * report.norm_equiv_M * (1 + 1e-9)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError):
            empirical_conditioning(lambda x: x, lambda rng: rng.standard_normal(2), 0, "l2", seed=1)

    def test_all_degenerate_pairs_rejected(self):
        def constant_sampler(rng):
            return np.ones(3)

        with pytest.raises(ValueError, match="degenerate"):
            empirical_conditioning(lambda x: x, constant_sampler, 5, "l2", seed=1)

    def test_nan_forward_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            empirical_conditioning(
                lambda x: np.where(x[:, :1] > 0, np.nan, x), lambda rng: rng.standard_normal(3), 5, "l2", seed=1
            )

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ConditioningReport(tau_hat=5.0, rho_hat=1.0, pairs_sampled=3, norm_ii_tag="l2", norm_equiv_M=1.0)

    def test_nuclear_norm_tag(self, rng):
        def sampler(rng_):
            u = rng_.standard_normal(3)
            return np.outer(u, u).ravel() / np.linalg.norm(u) ** 2

        report = empirical_conditioning(lambda x: x, sampler, 20, "nuclear", seed=2)
        assert report.norm_equiv_M == pytest.approx(np.sqrt(3.0))
        assert report.rho_hat <= 1.0 + 1e-12  # ||.||_2 <= ||.||_*

    @pytest.mark.parametrize("tag", ["l1", "l2", "nuclear"])
    def test_matches_per_draw_loop(self, tag):
        degenerate = 0
        for seed in range(20):
            a = np.random.default_rng([seed, 1]).standard_normal((5, 9))

            def forward(x):
                return np.tanh(x @ a.T)

            sampler = signed_basis_sampler(9, 3)
            report = empirical_conditioning(forward, sampler, 12 + seed, tag, seed)
            tau, rho, used = conditioning_loop_reference(forward, sampler, 12 + seed, tag, seed)
            assert report.pairs_sampled == used
            assert report.tau_hat == pytest.approx(tau, rel=1e-12)
            assert report.rho_hat == pytest.approx(rho, rel=1e-12)
            degenerate += used < 12 + seed
        assert degenerate > 0


class TestLowrankRipSample:
    def test_rank_one_outer_product_identity(self, rng):
        a = rng.standard_normal((5, 4))
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        vals = lowrank_forward(a, np.outer(u, u))
        assert np.all(vals >= -1e-12)
        assert np.allclose(np.abs(vals).sum() / 5, phase_retrieval_forward(a, u).sum() / 5)

    def test_single_sample_degenerate_interval(self, rng):
        a = rng.standard_normal((6, 4))
        lb, ub = lowrank_rip_sample(a, 1, 1, seed=9)
        assert lb == pytest.approx(-ub)

    def test_interval_width_shrinks_with_more_measurements(self):
        widths = []
        for m in (12, 48, 192):
            a = np.random.default_rng([1, m]).standard_normal((m, 4))
            lb, ub = lowrank_rip_sample(a, 1, 2000, seed=77)
            widths.append(lb + ub)
        assert widths[0] > widths[1] > widths[2]

    def test_rank_out_of_range(self, rng):
        with pytest.raises(ValueError):
            lowrank_rip_sample(rng.standard_normal((4, 3)), 2, 5, seed=0)

    def test_matches_per_draw_loop(self):
        for seed in range(20):
            a = np.random.default_rng([seed, 2]).standard_normal((6 + seed, 4 + 2 * (seed % 2)))
            r = 1 + seed % 2
            got = lowrank_rip_sample(a, r, 30 + seed, seed)
            assert got == pytest.approx(lowrank_rip_loop_reference(a, r, 30 + seed, seed), rel=1e-12)


class TestEckartYoungGap:
    def test_diagonal_tail(self, rng):
        tail, best = eckart_young_gap(np.diag([3.0, 2.0, 1.0]), 2, candidates=500, seed=4)
        assert tail == pytest.approx(1.0)
        assert tail <= best + 1e-12

    def test_full_rank_zero_tail(self, rng):
        m = rng.standard_normal((4, 4))
        tail, _ = eckart_young_gap(m, 4, candidates=10, seed=4)
        assert tail == 0.0

    def test_truncation_beats_random_candidates(self, rng):
        for trial in range(20):
            m = rng.standard_normal((6, 6))
            tail, best = eckart_young_gap(m, 2, candidates=1000, seed=trial)
            assert tail <= best + 1e-12

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            eckart_young_gap(np.eye(3), 5, candidates=10, seed=0)

    def test_matches_per_draw_loop(self):
        for seed in range(20):
            m = np.random.default_rng([seed, 3]).standard_normal((5, 3 + seed % 4))
            r = seed % 3  # rank 0 draws only zero candidates, which stay unscaled
            _, best = eckart_young_gap(m, r, 40 + seed, seed)
            assert best == pytest.approx(eckart_young_loop_reference(m, r, 40 + seed, seed), rel=1e-12)

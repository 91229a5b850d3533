import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homogenlab.numerics import (
    as_rows,
    check_measurement,
    check_signal,
    numerical_rank,
    rank_truncate,
    read_only_copy,
    row_norms,
    spectral_norm,
    sphere_noise,
)
from homogenlab.solvers import _project_l2_ball, _project_linf_ball, _soft_threshold


class TestSoftThreshold:
    def test_shrinks_above_threshold(self):
        assert np.array_equal(_soft_threshold(np.array([3.0]), 1.0), [2.0])

    def test_zero_below_threshold(self):
        assert np.array_equal(_soft_threshold(np.array([0.5]), 1.0), [0.0])

    def test_zero_threshold_is_identity(self):
        assert np.array_equal(_soft_threshold(np.array([-2.5]), 0.0), [-2.5])

    def test_vectorized(self):
        out = _soft_threshold(np.array([3.0, -3.0, 0.2]), 1.0)
        assert np.allclose(out, [2.0, -2.0, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(
        t1=st.floats(-1e6, 1e6),
        t2=st.floats(-1e6, 1e6),
        z=st.floats(0.0, 1e6),
    )
    def test_one_lipschitz(self, t1, t2, z):
        s1, s2 = _soft_threshold(np.array([t1, t2]), z)
        assert abs(s1 - s2) <= abs(t1 - t2) * (1 + 1e-12)


class TestNorms:
    def test_spectral_matches_svd(self, rng):
        m = rng.standard_normal((4, 6))
        assert spectral_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0])

    def test_row_norms_match_linalg_norm_bitwise(self, rng):
        m = rng.standard_normal((50, 7)) * 10.0 ** rng.integers(-150, 150, size=(50, 1))
        assert np.array_equal(row_norms(m), [np.linalg.norm(row) for row in m])

    # The squares overflow (1e160, 1e300), underflow to 0 (1e-170) or sum to a
    # subnormal that keeps only a few digits (1e-160).
    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 1e300])
    def test_row_norms_outside_the_range_of_squares(self, rng, scale):
        m = rng.standard_normal((20, 5))
        np.testing.assert_allclose(row_norms(scale * m), scale * row_norms(m), rtol=1e-15, atol=0)

    def test_row_norms_keep_zero_and_non_finite_rows(self):
        out = row_norms(np.array([[0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0], [1.5e308, 1.5e308]]))
        assert out[0] == 0.0 and out[1] == np.inf and np.isnan(out[2]) and out[3] == np.inf
        assert np.array_equal(row_norms(np.zeros((3, 0))), np.zeros(3))


class TestRankTruncate:
    def test_diagonal(self):
        truncated, tail = rank_truncate(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(truncated, np.diag([3.0, 2.0, 0.0]), atol=1e-12)
        assert tail == pytest.approx(1.0)

    def test_full_rank_is_identity(self, rng):
        m = rng.standard_normal((4, 4))
        truncated, tail = rank_truncate(m, 4)
        assert tail == 0.0
        assert np.array_equal(truncated, m)

    def test_residual_matches_tail(self, rng):
        m = rng.standard_normal((5, 5))
        truncated, tail = rank_truncate(m, 2)
        assert np.linalg.norm(m - truncated) == pytest.approx(tail, abs=1e-10)
        # self-consistency against the raw spectrum
        s = np.linalg.svd(m, compute_uv=False)
        assert tail == pytest.approx(float(np.sqrt(np.sum(s[2:] ** 2))), abs=1e-12)

    def test_beats_random_candidates(self, rng):
        m = rng.standard_normal((5, 5))
        _, tail = rank_truncate(m, 2)
        for _ in range(1000):
            cand = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))
            assert tail <= np.linalg.norm(m - cand) + 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rank_truncate(np.eye(3), 4)
        with pytest.raises(ValueError):
            rank_truncate(np.eye(3), -1)


class TestProjections:
    def test_inside_ball_unchanged(self):
        u = np.array([0.1, 0.2])
        assert np.array_equal(_project_l2_ball(u, np.zeros(2), 1.0), u)
        assert np.array_equal(_project_linf_ball(u, np.zeros(2), 1.0), u)

    def test_l2_radial_scaling(self):
        out = _project_l2_ball(np.array([3.0, 0.0]), np.zeros(2), 1.0)
        assert np.allclose(out, [1.0, 0.0])

    def test_linf_componentwise_clamp(self):
        out = _project_linf_ball(np.array([3.0, -0.5]), np.zeros(2), 1.0)
        assert np.allclose(out, [1.0, -0.5])

    @settings(max_examples=100, deadline=None)
    @given(
        coords=st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        radius=st.floats(0.0, 50.0),
    )
    def test_idempotent(self, coords, radius):
        u = np.array(coords)
        center = np.array([1.0, -2.0, 0.5])
        for project in (_project_l2_ball, _project_linf_ball):
            once = project(u, center, radius)
            twice = project(once, center, radius)
            assert np.allclose(once, twice, atol=1e-12)

    def test_feasible_after_projection(self, rng):
        for _ in range(50):
            u = 10 * rng.standard_normal(4)
            center = rng.standard_normal(4)
            r = float(rng.uniform(0, 2))
            assert np.linalg.norm(_project_l2_ball(u, center, r) - center) <= r + 1e-12
            assert np.max(np.abs(_project_linf_ball(u, center, r) - center)) <= r + 1e-12


class TestReadOnlyCopy:
    def test_copy_keeps_the_memory_order(self, rng):
        for a in (rng.standard_normal((3, 4)), rng.standard_normal((4, 3)).T):
            out = read_only_copy(a)
            assert np.array_equal(out, a) and out.strides == a.strides
            assert not np.shares_memory(out, a)
            assert not out.flags.writeable and a.flags.writeable


class TestPackageExports:
    def test_top_level_names(self):
        from homogenlab import bounds, lowrank_forward, phase_retrieval_forward, spectral_norm as top

        assert lowrank_forward is bounds.lowrank_forward
        assert phase_retrieval_forward is bounds.phase_retrieval_forward
        assert top is spectral_norm


class TestAsRows:
    def test_vector_is_one_column(self):
        rows = as_rows([1, 2, 3])
        assert rows.shape == (3, 1) and rows.dtype == np.float64
        assert np.array_equal(rows[:, 0], [1.0, 2.0, 3.0])

    def test_matrix_passes_through(self, rng):
        m = rng.standard_normal((4, 3))
        assert np.array_equal(as_rows(m), m)

    def test_rejects_three_dimensions_by_name(self):
        with pytest.raises(ValueError, match="points must be two-dimensional"):
            as_rows(np.zeros((2, 2, 2)), "points")

    def test_rejects_non_finite_by_name(self):
        with pytest.raises(ValueError, match="values contains non-finite entries"):
            as_rows([1.0, np.nan], "values")


class TestLengthChecks:
    def test_measurement_has_one_entry_per_row_and_signal_per_column(self):
        a = np.ones((2, 3))
        assert check_measurement(a, [1.0, 2.0])[1].tolist() == [1.0, 2.0]
        assert check_signal(a, [1.0, 2.0, 3.0])[1].tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match=r"^measurement length 3 does not match 2 rows$"):
            check_measurement(a, np.ones(3))
        with pytest.raises(ValueError, match=r"^signal length 2 does not match 3 columns$"):
            check_signal(a, np.ones(2))

    def test_measurement_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match=r"^measurement must be one-dimensional, got shape \(2, 2\)$"):
            check_measurement(np.eye(2), np.eye(2))


@pytest.mark.parametrize(
    "m, rank",
    [(np.zeros((2, 3)), 0), (np.zeros((0, 3)), 0), (np.diag([1.0, 1e-13]), 1), (np.eye(3), 3)],
    ids=["zero", "empty", "below-tolerance", "identity"],
)
def test_numerical_rank(m, rank):
    assert numerical_rank(m) == rank


class TestSphereNoise:
    def test_rows_are_level_major_on_their_spheres(self):
        levels, trials, dim = [0.5, 2.0, 1e-3], 4, 5
        radii, e = sphere_noise(np.random.default_rng(3), levels, trials, dim)
        assert np.array_equal(radii, np.repeat(levels, trials))
        assert e.shape == (len(levels) * trials, dim)
        np.testing.assert_allclose(row_norms(e), radii, rtol=1e-14, atol=0)
        # One normal draw, each row scaled onto its sphere.
        draw = np.random.default_rng(3).standard_normal(e.shape)
        assert np.array_equal(e, draw * (radii / row_norms(draw))[:, None])

    @pytest.mark.parametrize(
        "levels, trials, message",
        [
            ([], 1, "need at least one noise level"),
            ([0.1, np.inf], 1, "noise levels must be positive finite numbers"),
            ([0.0], 1, "noise levels must be positive finite numbers"),
            ([0.1], 0, "need at least one trial per noise level"),
        ],
        ids=["no-levels", "infinite-level", "zero-level", "no-trials"],
    )
    def test_rejected(self, levels, trials, message):
        with pytest.raises(ValueError, match=message):
            sphere_noise(np.random.default_rng(0), levels, trials, 3)

    def test_level_whose_draw_overflows_rejected(self):
        # Some of 20 draws in R^2 are shorter than 1e308 / 1.8e308; at 1e307
        # every row keeps the bits of the plain scaling.
        with pytest.raises(ValueError, match=r"noise level 1e\+308 is too large: the noise draw overflows"):
            sphere_noise(np.random.default_rng(1), [0.1, 1e308], 20, 2)
        radii, e = sphere_noise(np.random.default_rng(1), [0.1, 1e307], 20, 2)
        draw = np.random.default_rng(1).standard_normal(e.shape)
        assert np.array_equal(e, draw * (radii / row_norms(draw))[:, None])

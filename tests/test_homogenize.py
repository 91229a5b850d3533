import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homogenlab import homogenize
from homogenlab.experiments import gaussian_matrix, sparse_signal_sampler
from homogenlab.homogenize import (
    FitConfig,
    build_inverse_recovery_net,
    fit_regression,
    fit_regressions,
    homogenize_one_layer,
    mcshane_extend,
    minimal_consistent_lipschitz,
    radial_extend_l2,
    sample_l1_sphere,
)
from homogenlab.network import (
    ActivationSpec,
    LayerSpec,
    NetworkSpec,
    ProbeConfig,
    check_positive_homogeneity,
    deserialize,
    evaluate,
    serialize,
    unbiased_relu_net,
)


def biased_one_layer(rng, m, k, p=1):
    return NetworkSpec(
        (
            LayerSpec(rng.standard_normal((k, m)), rng.standard_normal(k)),
            LayerSpec(rng.standard_normal((p, k)), rng.standard_normal(p)),
        ),
        ActivationSpec.relu(),
        unbiased=False,
    )


class TestHomogenizeOneLayer:
    # README promises the lift leaves no layer empty; an empty layer of g is
    # refused by its spec, so the lift never indexes into one.
    def test_g_with_an_empty_output_layer_never_reaches_the_lift(self):
        with pytest.raises(ValueError, match=r"at least one row and one column, got shape \(0, 3\)"):
            homogenize_one_layer(
                NetworkSpec(
                    (LayerSpec(np.ones((3, 2)), np.ones(3)), LayerSpec(np.ones((0, 3)), np.ones(0))),
                    ActivationSpec.relu(),
                    unbiased=False,
                )
            )

    def test_constant_net_becomes_l1_norm(self):
        c = 2.5
        g = NetworkSpec(
            (LayerSpec(np.zeros((3, 2))), LayerSpec(np.zeros((1, 3)), np.array([c]))),
            ActivationSpec.relu(),
            unbiased=False,
        )
        f = homogenize_one_layer(g)
        assert evaluate(f, np.array([1.0, 0.0]))[0] == pytest.approx(c)
        assert evaluate(f, np.array([2.0, 0.0]))[0] == pytest.approx(2 * c)

    def test_matches_direct_formula(self, rng):
        g = biased_one_layer(rng, 3, 5)
        f = homogenize_one_layer(g)
        assert f.unbiased
        assert f.depth == 2
        assert f.hidden_widths == (6, 6)  # (2m, k + 1)
        for _ in range(1000):
            x = rng.standard_normal(3)
            l1 = np.abs(x).sum()
            want = l1 * evaluate(g, x / l1)
            got = evaluate(f, x)
            assert abs(got[0] - want[0]) <= 1e-9 * (1 + l1)

    def test_multi_output_structure_and_values(self, rng):
        g = biased_one_layer(rng, 4, 6, p=3)
        f = homogenize_one_layer(g)
        assert f.hidden_widths == (8, 3 * 7)
        for _ in range(200):
            x = rng.standard_normal(4)
            l1 = np.abs(x).sum()
            want = l1 * evaluate(g, x / l1)
            assert np.allclose(evaluate(f, x), want, atol=1e-9 * (1 + l1))

    def test_block_diagonal_g_gets_one_block_per_output(self, rng):
        m, ks = 3, (2, 3, 4)
        w2 = np.zeros((len(ks), sum(ks)))
        offsets = np.cumsum((0,) + ks)
        for j, k in enumerate(ks):
            w2[j, offsets[j] : offsets[j + 1]] = rng.standard_normal(k)
        g = NetworkSpec(
            (
                LayerSpec(rng.standard_normal((sum(ks), m)), rng.standard_normal(sum(ks))),
                LayerSpec(w2, rng.standard_normal(len(ks))),
            ),
            ActivationSpec.relu(),
            unbiased=False,
        )
        f = homogenize_one_layer(g)
        assert f.hidden_widths == (2 * m, sum(k + 1 for k in ks))
        x = rng.standard_normal((200, m))
        l1 = np.abs(x).sum(axis=1, keepdims=True)
        want = l1 * evaluate(g, x / l1)
        np.testing.assert_allclose(evaluate(f, x), want, rtol=0, atol=1e-9 * (1 + l1.max()))

    def test_all_zero_output_row_keeps_only_the_norm_row(self, rng):
        g = biased_one_layer(rng, 3, 5, p=2)
        w2 = g.layers[1].weights.copy()
        w2[1] = 0.0
        g = NetworkSpec((g.layers[0], LayerSpec(w2, g.layers[1].bias)), g.activation, unbiased=False)
        f = homogenize_one_layer(g)
        assert f.hidden_widths == (6, 5 + 1 + 1)
        x = rng.standard_normal((100, 3))
        l1 = np.abs(x).sum(axis=1, keepdims=True)
        want = l1 * evaluate(g, x / l1)
        np.testing.assert_allclose(evaluate(f, x), want, rtol=0, atol=1e-9 * (1 + l1.max()))
        np.testing.assert_allclose(evaluate(f, x)[:, 1], l1[:, 0] * g.layers[1].bias[1], rtol=1e-12)

    @pytest.mark.parametrize("b2", [None, [0.5, 0.0, -1.0]], ids=["bias-free", "one-zero-bias"])
    def test_norm_row_only_where_the_output_bias_is_nonzero(self, rng, b2):
        m, k, p = 3, 5, 3
        hidden = LayerSpec(rng.standard_normal((k, m)), rng.standard_normal(k))
        g = NetworkSpec((hidden, LayerSpec(rng.standard_normal((p, k)), b2)), ActivationSpec.relu(), unbiased=False)
        f = homogenize_one_layer(g)
        assert f.hidden_widths == (2 * m, p * k + np.count_nonzero(b2 or 0))
        x = rng.standard_normal((200, m))
        l1 = np.abs(x).sum(axis=1, keepdims=True)
        want = l1 * evaluate(g, x / l1)
        np.testing.assert_allclose(evaluate(f, x), want, rtol=0, atol=1e-9 * (1 + l1.max()))

    def test_zero_map_lifts_to_one_norm_row_of_weight_0(self, rng):
        # No lifted unit has a nonzero weight; the one kept row leaves no layer
        # empty, so the lift is a net the network file holds.
        g = NetworkSpec(
            (LayerSpec(np.ones((4, 2)), np.ones(4)), LayerSpec(np.zeros((2, 4)), np.zeros(2))),
            ActivationSpec.relu(),
            unbiased=False,
        )
        f = homogenize_one_layer(g)
        assert f.hidden_widths == (4, 1)
        assert serialize(deserialize(serialize(f))) == serialize(f)
        assert not evaluate(f, rng.standard_normal((50, 2))).any()

    def test_scaling_exact(self, rng):
        g = biased_one_layer(rng, 3, 5)
        f = homogenize_one_layer(g)
        for _ in range(100):
            x = rng.standard_normal(3)
            assert np.allclose(evaluate(f, 7.0 * x), 7.0 * evaluate(f, x), atol=1e-12)

    def test_zero_maps_to_zero_exactly(self, rng):
        f = homogenize_one_layer(biased_one_layer(rng, 3, 4))
        assert np.array_equal(evaluate(f, np.zeros(3)), np.zeros(1))

    def test_wrong_depth_rejected(self, rng):
        net = unbiased_relu_net(
            [rng.standard_normal((4, 3)), rng.standard_normal((4, 4)), rng.standard_normal((1, 4))]
        )
        with pytest.raises(ValueError):
            homogenize_one_layer(net)

    def test_non_relu_rejected(self, rng):
        g = NetworkSpec(
            (LayerSpec(rng.standard_normal((4, 3))), LayerSpec(rng.standard_normal((1, 4)))),
            ActivationSpec.named("tanh"),
            unbiased=True,
        )
        with pytest.raises(ValueError):
            homogenize_one_layer(g)

    def test_probe_confirms_invariance(self, rng):
        f = homogenize_one_layer(biased_one_layer(rng, 3, 5))
        report = check_positive_homogeneity(f, 3, ProbeConfig(seed=9))
        assert report.max_defect <= 1e-12


class TestRadialExtension:
    def test_constant_becomes_l2_norm(self):
        f = radial_extend_l2(lambda u: np.array([1.0]))
        assert f(np.array([3.0, 4.0]))[0] == pytest.approx(5.0)

    def test_linear_restriction_extends_linearly(self, rng):
        f = radial_extend_l2(lambda u: np.array([u[0]]))
        for _ in range(20):
            x = rng.standard_normal(3)
            assert f(x)[0] == pytest.approx(x[0])

    def test_zero_maps_to_zero(self):
        f = radial_extend_l2(lambda u: np.array([1.0, 2.0]))
        assert np.array_equal(f(np.zeros(3)), np.zeros(2))

    def test_zero_length_point_rejected(self):
        f = radial_extend_l2(lambda u: np.array([1.0]))
        with pytest.raises(ValueError, match="at least one coordinate"):
            f(np.zeros(0))

    def test_exact_scale_invariance(self, rng):
        f = radial_extend_l2(lambda u: np.array([np.abs(u).max(), u[0] - u[1]]))
        for _ in range(100):
            x = rng.standard_normal(3)
            for lam in (0.5, 2.0, 30.0):
                lhs = f(lam * x)
                rhs = lam * f(x)
                assert np.linalg.norm(lhs - rhs) <= 1e-14 * (1 + np.linalg.norm(rhs))

    def test_doubled_lipschitz_bound_monte_carlo(self, rng):
        anchor = np.array([0.3, -0.5, 0.8])
        anchor /= np.linalg.norm(anchor)
        f = radial_extend_l2(lambda u: np.array([np.linalg.norm(u - anchor)]))  # 1-Lipschitz
        pts = rng.standard_normal((10_000, 2, 3))
        for x, y in pts:
            gap = np.linalg.norm(x - y)
            if gap == 0:
                continue
            assert abs(f(x)[0] - f(y)[0]) / gap <= 2 + 1e-6


class TestMcshaneExtension:
    def test_single_sample_formula(self):
        f = mcshane_extend(np.array([[0.0]]), np.array([5.0]), 2.0)
        assert f(np.array([1.0])) == pytest.approx(7.0)

    def test_two_scalar_samples(self):
        f = mcshane_extend(np.array([[0.0], [2.0]]), np.array([0.0, 2.0]), 1.0)
        assert f(np.array([1.0])) == pytest.approx(1.0)  # min(0 + 1, 2 + 1)

    def test_agrees_with_samples(self, rng):
        pts = rng.standard_normal((10, 3))
        lip = 3.0
        vals = np.array([0.5 * p[0] - 0.25 * p[2] for p in pts])
        f = mcshane_extend(pts, vals, lip)
        for p, v in zip(pts, vals):
            assert f(p) == pytest.approx(v, abs=1e-12)

    def test_inconsistent_samples_rejected_with_pair(self):
        with pytest.raises(ValueError, match="0 and 1"):
            mcshane_extend(np.array([[0.0], [1.0]]), np.array([0.0, 5.0]), 1.0)

    @pytest.mark.parametrize("lip", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_non_finite_or_non_positive_constant_rejected(self, lip):
        with pytest.raises(ValueError, match="positive finite"):
            mcshane_extend(np.array([[0.0], [2.0]]), np.array([0.0, 2.0]), lip)

    def test_value_count_checked_by_minimal_constant(self):
        with pytest.raises(ValueError, match="3 values for 2 points"):
            minimal_consistent_lipschitz(np.array([[0.0], [1.0]]), np.array([0.0, 1.0, 2.0]))

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="need at least one sample"):
            mcshane_extend(np.zeros((0, 2)), np.zeros(0), 1.0)
        with pytest.raises(ValueError, match="need at least one sample"):
            minimal_consistent_lipschitz(np.zeros((0, 2)), np.zeros(0))

    def test_one_sample_needs_no_constant(self):
        assert minimal_consistent_lipschitz(np.array([[1.0, -2.0]]), np.array([3.0])) == 0.0

    def test_non_finite_values_rejected_by_minimal_constant(self):
        with pytest.raises(ValueError, match="values contains non-finite"):
            minimal_consistent_lipschitz(np.array([[0.0], [1.0]]), np.array([0.0, np.nan]))

    def test_vector_valued(self, rng):
        pts = rng.standard_normal((6, 2))
        vals = np.column_stack([pts[:, 0], -pts[:, 1]])
        f = mcshane_extend(pts, vals, 2.0)
        out = f(pts[0])
        assert out.shape == (2,)
        assert np.allclose(out, vals[0], atol=1e-12)

    @pytest.mark.parametrize("outputs", [1, 3])
    def test_batch_rows_equal_single_points_bitwise(self, rng, outputs):
        pts = sample_l1_sphere(rng, 4, 12)
        vals = rng.standard_normal((12, outputs))
        vals = vals[:, 0] if outputs == 1 else vals
        f = mcshane_extend(pts, vals, 1.05 * minimal_consistent_lipschitz(pts, vals))
        queries = sample_l1_sphere(rng, 4, 150)
        batch = f(queries)
        single = np.array([f(x) for x in queries])
        assert batch.shape == single.shape == ((150,) if outputs == 1 else (150, outputs))
        assert np.array_equal(batch, single)

    def test_point_shape_checked(self, rng):
        f = mcshane_extend(rng.standard_normal((5, 4)), rng.standard_normal((5, 2)), 50.0)
        assert f(np.zeros(4)).shape == (2,)
        for bad in (np.zeros(1), np.zeros(5), np.zeros((3, 2)), np.zeros((2, 3, 4)), np.float64(0.0)):
            with pytest.raises(ValueError, match=rf"{re.escape(str(bad.shape))}.*\(5, 4\)"):
                f(bad)

    def test_each_coordinate_lipschitz(self, rng):
        pts = rng.standard_normal((8, 3))
        vals = rng.standard_normal((8, 2))
        lip = minimal_consistent_lipschitz(pts, vals) * 1.01
        f = mcshane_extend(pts, vals, lip)
        queries = rng.standard_normal((10_000, 2, 3))
        for x, y in queries:
            gap = float(np.linalg.norm(x - y))
            if gap == 0:
                continue
            assert np.max(np.abs(f(x) - f(y))) <= lip * gap * (1 + 1e-9)


class TestMidpointExtension:
    """The target ``build_inverse_recovery_net`` trains on: the midpoint of
    McShane's upper and Whitney's lower Lipschitz extension."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 999),
        anchors=st.integers(1, 8),
        dim=st.integers(1, 4),
        outputs=st.integers(1, 3),
        headroom=st.floats(1.05, 4.0),
    )
    def test_central_lipschitz_interpolant(self, seed, anchors, dim, outputs, headroom):
        rng = np.random.default_rng([seed, 34])
        pts = rng.standard_normal((anchors, dim))
        vals = rng.standard_normal((anchors, outputs))
        lip = headroom * max(minimal_consistent_lipschitz(pts, vals), 1e-12)
        mid = homogenize._midpoint_extension(pts, vals, lip)
        upper = mcshane_extend(pts, vals, lip)
        lower = mcshane_extend(pts, -vals, lip)
        assert np.max(np.abs(mid(pts) - vals)) <= 1e-12
        queries = np.vstack([pts, 2.0 * rng.standard_normal((200, dim))])
        got = mid(queries)
        assert np.all((-lower(queries) <= got) & (got <= upper(queries)))
        x, y = queries[anchors:][:100], queries[anchors:][100:]
        gaps = np.linalg.norm(x - y, axis=1)
        # 1e-12 covers the rounding of the terms v + L d, which reach about 100.
        assert np.all(np.abs(mid(x) - mid(y)) <= lip * gaps[:, None] * (1 + 1e-9) + 1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 999), anchors=st.integers(1, 6), dim=st.integers(1, 4))
    def test_odd_on_sign_symmetric_anchors(self, seed, anchors, dim):
        rng = np.random.default_rng([seed, 43])
        half_pts = rng.standard_normal((anchors, dim))
        half_vals = rng.standard_normal((anchors, 2))
        pts, vals = np.vstack([half_pts, -half_pts]), np.vstack([half_vals, -half_vals])
        mid = homogenize._midpoint_extension(pts, vals, 1.05 * minimal_consistent_lipschitz(pts, vals))
        queries = rng.standard_normal((100, dim))
        assert np.array_equal(mid(-queries), -mid(queries))


def reference_fit(u, t, config, unbiased):
    """Plain per-row full-batch gradient descent, or Adam in the textbook
    per-parameter formulas, with restarts: fresh arrays every step, no merged
    rows. Returns the chosen restart's weights, the MSE of those weights and
    the whole training curve."""
    t = t[:, None] if t.ndim == 1 else t
    n, in_dim = u.shape
    out_dim = t.shape[1]
    denom = n * out_dim

    def forward(w1, b1, w2, b2):
        pre = u @ w1.T
        if b1 is not None:
            pre = pre + b1
        hid = np.maximum(pre, 0.0)
        out = hid @ w2.T
        if b2 is not None:
            out = out + b2
        resid = out - t
        return pre, hid, resid, float(np.sum(resid * resid)) / denom

    curve = []
    best = None
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        w1 = rng.standard_normal((config.width, in_dim)) / np.sqrt(in_dim)
        w2 = rng.standard_normal((out_dim, config.width)) / np.sqrt(config.width)
        b1 = None if unbiased else 0.1 * rng.standard_normal(config.width)
        b2 = None if unbiased else np.zeros(out_dim)
        lr = config.learning_rate
        moments = [[0.0, 0.0] for _ in range(4)]
        for step in range(config.steps):
            pre, hid, resid, mse = forward(w1, b1, w2, b2)
            curve.append((restart, step, mse))
            if not np.isfinite(mse) or mse <= config.target_mse:
                break
            d_out = (2.0 / denom) * resid
            g_w2 = d_out.T @ hid
            d_hid = (d_out @ w2) * (pre > 0.0)
            g_w1 = d_hid.T @ u
            if config.optimizer == "adam":
                # Kingma & Ba 2015, Algorithm 1, one parameter array at a time.
                k = step + 1
                params = []
                grads = (g_w1, d_hid.sum(axis=0), g_w2, d_out.sum(axis=0))
                for p, g, mv in zip((w1, b1, w2, b2), grads, moments):
                    if p is not None:
                        mv[0] = 0.9 * mv[0] + (1 - 0.9) * g
                        mv[1] = 0.999 * mv[1] + (1 - 0.999) * g**2
                        m_hat = mv[0] / (1 - 0.9**k)
                        v_hat = mv[1] / (1 - 0.999**k)
                        p = p - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
                    params.append(p)
                w1, b1, w2, b2 = params
                continue
            w1 = w1 - lr * g_w1
            w2 = w2 - lr * g_w2
            if b1 is not None:
                b1 = b1 - lr * d_hid.sum(axis=0)
            if b2 is not None:
                b2 = b2 - lr * d_out.sum(axis=0)
        else:
            mse = forward(w1, b1, w2, b2)[3]
        if np.isfinite(mse) and (best is None or mse < best[0]):
            best = (mse, (w1, b1, w2, b2))
        if best is not None and best[0] <= config.target_mse:
            break
    return best[1], best[0], curve


class TestFitter:
    def test_linear_target_fits_to_tolerance(self, rng):
        u = sample_l1_sphere(rng, 3, 64)
        cfg = FitConfig(width=4, learning_rate=0.5, steps=30_000, restarts=3, seed=11, target_mse=5e-7)
        net, mse = fit_regression(u, 2.0 * u[:, 0], cfg)
        assert mse <= 1e-6
        assert net.depth == 1

    def test_absolute_value_fits_to_tolerance(self, rng):
        u = sample_l1_sphere(rng, 3, 64)
        cfg = FitConfig(width=2, learning_rate=0.3, steps=50_000, restarts=8, seed=11, target_mse=5e-7)
        net, mse = fit_regression(u, np.abs(u[:, 0]), cfg)
        assert mse <= 1e-6

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_regression(np.zeros((0, 3)), np.zeros((0, 1)), FitConfig(2, 0.1, 10, 1, 0))

    @pytest.mark.parametrize(
        "fit, message",
        [
            (lambda cfg: fit_regression(np.zeros((3, 2)), np.zeros(4), cfg), "4 targets for 3 inputs"),
            (lambda cfg: fit_regressions(np.zeros((3, 2)), np.zeros(3), [cfg], curves=[[], []]),
             "2 curves for 1 configs"),
        ],
        ids=["targets", "curves"],
    )
    def test_mismatched_counts_rejected(self, fit, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit(FitConfig(2, 0.1, 10, 1, 0))

    def test_one_dimensional_inputs_are_scalar_rows(self):
        # Like the targets and the Lipschitz extension, a 1-D input array is
        # N scalar rows, not one row of N features.
        u, t = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 4.0])
        cfg = FitConfig(4, 0.1, 10, 1, 0)
        net, mse = fit_regression(u, t, cfg)
        net_col, mse_col = fit_regression(u[:, None], t, cfg)
        assert math.isfinite(mse) and mse == mse_col
        assert np.array_equal(net.layers[0].weights, net_col.layers[0].weights)
        assert minimal_consistent_lipschitz(u, t) == 3.0

    def test_deterministic_given_seed(self, rng):
        u = sample_l1_sphere(rng, 2, 16)
        cfg = FitConfig(width=4, learning_rate=0.2, steps=200, restarts=2, seed=3)
        net1, mse1 = fit_regression(u, u[:, 0] ** 2, cfg)
        net2, mse2 = fit_regression(u, u[:, 0] ** 2, cfg)
        assert mse1 == mse2
        assert np.array_equal(net1.layers[0].weights, net2.layers[0].weights)

    def test_unbiased_mode_pins_biases(self, rng):
        u = sample_l1_sphere(rng, 2, 16)
        net, _ = fit_regression(u, u[:, :1], FitConfig(4, 0.2, 100, 1, 0), unbiased=True)
        assert net.unbiased
        assert all(layer.bias is None for layer in net.layers)

    def test_repeated_rows_fit_like_rows_taken_once(self, rng):
        u = sample_l1_sphere(rng, 3, 12)
        t = np.column_stack([u[:, 0] ** 2, np.abs(u[:, 1])])
        cfg = FitConfig(width=6, learning_rate=0.3, steps=300, restarts=2, seed=4)
        once, mse_once = fit_regression(u, t, cfg)
        thrice, mse_thrice = fit_regression(np.repeat(u, 3, axis=0), np.repeat(t, 3, axis=0), cfg)
        assert mse_thrice == pytest.approx(mse_once, rel=1e-12)
        for a, b in zip(once.layers, thrice.layers):
            np.testing.assert_allclose(b.weights, a.weights, rtol=1e-9)
            np.testing.assert_allclose(b.bias, a.bias, rtol=1e-9)

    @pytest.mark.parametrize("steps", [5, 300])
    def test_reported_mse_is_that_of_returned_net(self, rng, steps):
        u = sample_l1_sphere(rng, 3, 32)
        t = np.abs(u[:, 0]) - u[:, 1] ** 2
        cfg = FitConfig(width=8, learning_rate=0.3, steps=steps, restarts=2, seed=2)
        curve = []
        net, mse = fit_regression(u, t, cfg, curve=curve)
        pred = np.array([evaluate(net, x)[0] for x in u])
        actual = float(np.mean((pred - t) ** 2))
        assert mse == pytest.approx(actual, rel=1e-12)
        assert len(curve) == 2 * steps

    @pytest.mark.parametrize(
        "out_dim, unbiased, width", [(1, False, 16), (4, True, 8)], ids=["biased-1", "unbiased-4"]
    )
    def test_distinct_rows_match_reference_loop_bitwise(self, rng, out_dim, unbiased, width):
        u = sample_l1_sphere(rng, 3, 40)
        t = np.abs(u) @ rng.standard_normal((3, out_dim))
        t = t[:, 0] if out_dim == 1 else t
        cfg = FitConfig(width=width, learning_rate=0.3, steps=200, restarts=2, seed=9)
        curve = []
        net, mse = fit_regression(u, t, cfg, unbiased=unbiased, curve=curve)
        (w1, b1, w2, b2), ref_mse, ref_curve = reference_fit(u, t, cfg, unbiased)
        assert mse == pytest.approx(ref_mse, rel=1e-12)
        assert np.array_equal(np.array(curve), np.array(ref_curve))
        assert np.array_equal(net.layers[0].weights, w1)
        assert np.array_equal(net.layers[1].weights, w2)
        if unbiased:
            assert net.layers[0].bias is None and net.layers[1].bias is None
        else:
            assert np.array_equal(net.layers[0].bias, b1)
            assert np.array_equal(net.layers[1].bias, b2)


    @pytest.mark.parametrize(
        "out_dim, unbiased, repeats",
        [(1, False, False), (1, False, True), (4, True, False), (4, True, True)],
        ids=["biased-1", "biased-1-repeats", "unbiased-4", "unbiased-4-repeats"],
    )
    def test_adam_matches_reference_loop(self, rng, out_dim, unbiased, repeats):
        u = sample_l1_sphere(rng, 3, 40)
        t = np.abs(u) @ rng.standard_normal((3, out_dim))
        if repeats:
            u, t = np.vstack([u, u[:9], u[:3]]), np.vstack([t, t[:9], t[:3]])
        t = t[:, 0] if out_dim == 1 else t
        cfg = FitConfig(width=12, learning_rate=1e-2, steps=300, restarts=2, seed=9, optimizer="adam")
        curve = []
        net, mse = fit_regression(u, t, cfg, unbiased=unbiased, curve=curve)
        (w1, b1, w2, b2), ref_mse, ref_curve = reference_fit(u, t, cfg, unbiased)
        assert mse == pytest.approx(ref_mse, rel=1e-12)
        np.testing.assert_allclose(np.array(curve), np.array(ref_curve), rtol=1e-12, atol=0)
        np.testing.assert_allclose(net.layers[0].weights, w1, rtol=1e-12, atol=0)
        np.testing.assert_allclose(net.layers[1].weights, w2, rtol=1e-12, atol=0)
        if unbiased:
            assert net.layers[0].bias is None and net.layers[1].bias is None
        else:
            np.testing.assert_allclose(net.layers[0].bias, b1, rtol=1e-12, atol=0)
            np.testing.assert_allclose(net.layers[1].bias, b2, rtol=1e-12, atol=0)

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer 'sgd'"):
            FitConfig(width=2, learning_rate=0.1, steps=10, restarts=1, seed=0, optimizer="sgd")


def assert_fit_equal(fitted, want, rtol=0.0):
    """A (net, mse) pair against reference weights (w1, b1, w2, b2) and mse:
    bit for bit at rtol 0."""
    net, mse = fitted
    (w1, b1, w2, b2), ref_mse = want
    got = (net.layers[0].weights, net.layers[0].bias, net.layers[1].weights, net.layers[1].bias)
    for g, w in zip(got, (w1, b1, w2, b2)):
        if w is None:
            assert g is None
        else:
            np.testing.assert_allclose(g, w, rtol=rtol, atol=0)
    np.testing.assert_allclose(mse, ref_mse, rtol=rtol, atol=0)


class TestStackedFits:
    """``fit_regressions`` trains every (width, seed, restart) of its configs
    side by side; each config must come out as its own sequential fit."""

    @staticmethod
    def data(rng, out_dim):
        u = sample_l1_sphere(rng, 3, 40)
        t = np.abs(u) @ rng.standard_normal((3, out_dim))
        return u, (t[:, 0] if out_dim == 1 else t)

    @staticmethod
    def assert_match_reference_bitwise(u, t, configs, unbiased):
        curves = [[] for _ in configs]
        fits = fit_regressions(u, t, configs, unbiased=unbiased, curves=curves)
        for cfg, fitted, curve in zip(configs, fits, curves):
            weights, ref_mse, ref_curve = reference_fit(u, t, cfg, unbiased)
            assert_fit_equal(fitted, (weights, ref_mse))
            assert np.array_equal(np.array(curve), np.array(ref_curve))

    # At one restart each width is a run of one member inside a stack of four.
    @pytest.mark.parametrize(
        "out_dim, unbiased, restarts",
        [(1, False, 2), (4, True, 2), (1, False, 1), (4, True, 1)],
        ids=["biased-1", "unbiased-4", "biased-1-restarts-1", "unbiased-4-restarts-1"],
    )
    def test_gd_widths_match_reference_loop_bitwise(self, rng, out_dim, unbiased, restarts):
        u, t = self.data(rng, out_dim)
        configs = [
            FitConfig(width=w, learning_rate=0.3, steps=200, restarts=restarts, seed=9 + w)
            for w in (1, 3, 8, 16)
        ]
        self.assert_match_reference_bitwise(u, t, configs, unbiased)

    @pytest.mark.parametrize("out_dim, unbiased", [(1, False), (4, True)], ids=["biased-1", "unbiased-4"])
    def test_run_of_two_then_run_of_one_match_reference_bitwise(self, rng, out_dim, unbiased):
        u, t = self.data(rng, out_dim)
        configs = [
            FitConfig(width=w, learning_rate=0.3, steps=200, restarts=1, seed=s)
            for w, s in ((3, 4), (3, 5), (8, 6))
        ]
        self.assert_match_reference_bitwise(u, t, configs, unbiased)

    def test_adam_keeps_the_sequential_restart_rule(self, rng):
        u, t = self.data(rng, 1)
        # At this target: width 12 hits it in restart 0, so restart 1's rows
        # go; width 8 hits it only in restart 1, so both restarts stay; width
        # 4 never does and keeps the stack running after the others stop.
        target = 2e-3
        configs = [
            FitConfig(width=w, learning_rate=1e-2, steps=300, restarts=2, seed=s,
                      target_mse=target, optimizer="adam")
            for w, s in ((12, 6), (8, 3), (4, 1))
        ]
        curves = [[] for _ in configs]
        fits = fit_regressions(u, t, configs, curves=curves)
        restarts_seen = [sorted({row[0] for row in curve}) for curve in curves]
        assert restarts_seen == [[0], [0, 1], [0, 1]]
        assert fits[0][1] <= target and fits[1][1] <= target and fits[2][1] > target
        for cfg, fitted, curve in zip(configs, fits, curves):
            weights, ref_mse, ref_curve = reference_fit(u, t, cfg, False)
            assert_fit_equal(fitted, (weights, ref_mse), rtol=1e-12)
            assert len(curve) == len(ref_curve)
            np.testing.assert_allclose(np.array(curve), np.array(ref_curve), rtol=1e-12, atol=0)

    def test_diverged_members_leave_the_others_alone(self, rng):
        u, t = self.data(rng, 4)
        # At lr 6, width 16 diverges in restart 0 only; 32 and 64 diverge in both.
        configs = [
            FitConfig(width=w, learning_rate=6.0, steps=200, restarts=2, seed=9 + w)
            for w in (1, 3, 8, 16, 32, 64)
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            curves = [[] for _ in configs]
            fits = fit_regressions(u, t, configs, unbiased=True, curves=curves)
            assert [fitted is None for fitted in fits] == [False] * 4 + [True] * 2
            for cfg, fitted, curve in zip(configs, fits, curves):
                solo_curve = []
                if fitted is None:
                    with pytest.raises(ValueError, match="all restarts diverged"):
                        fit_regression(u, t, cfg, unbiased=True, curve=solo_curve)
                    assert curve == solo_curve
                    continue
                net, mse = fit_regression(u, t, cfg, unbiased=True, curve=solo_curve)
                assert_fit_equal(fitted, ((net.layers[0].weights, None, net.layers[1].weights, None), mse))
                assert curve == solo_curve
        assert not all(np.isfinite(mse) for restart, _, mse in curves[3] if restart == 0)

    # Width 16 diverges while widths 3 and 8 run all 200 steps: at lr 6 its
    # squared residual overflows at step 10, at lr 7 its residual at step 9.
    @pytest.mark.parametrize("lr, stop", [(6.0, 10), (7.0, 9)])
    def test_diverged_member_stops_computing(self, rng, lr, stop):
        u, t = self.data(rng, 4)
        configs = [FitConfig(width=w, learning_rate=lr, steps=200, restarts=1, seed=9 + w) for w in (3, 8, 16)]
        curves = [[] for _ in configs]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fits = fit_regressions(u, t, configs, unbiased=True, curves=curves)
        assert [fitted is None for fitted in fits] == [False, False, True]
        assert [len(curve) for curve in curves] == [200, 200, stop]
        # Its zeroed slices keep the inf/nan of its last step out of every later one.
        assert not [w for w in caught if "invalid value" in str(w.message)]
        for cfg, fitted, curve in zip(configs[:2], fits, curves):
            solo_curve = []
            net, mse = fit_regression(u, t, cfg, unbiased=True, curve=solo_curve)
            assert_fit_equal(fitted, ((net.layers[0].weights, None, net.layers[1].weights, None), mse))
            assert curve == solo_curve

    def test_gd_member_stopping_at_target_leaves_the_others_alone(self, rng):
        u, t = self.data(rng, 1)
        # At this target the first width-8 member stops at step 209, inside a
        # run of two; the other three members run all 400 steps.
        configs = [
            FitConfig(width=w, learning_rate=0.3, steps=400, restarts=1, seed=s, target_mse=1e-3)
            for w, s in ((16, 4), (8, 5), (8, 9), (3, 6))
        ]
        curves = [[] for _ in configs]
        fits = fit_regressions(u, t, configs, curves=curves)
        assert [len(curve) for curve in curves] == [400, 209, 400, 400]
        for cfg, fitted, curve in zip(configs, fits, curves):
            solo_curve = []
            net, mse = fit_regression(u, t, cfg, curve=solo_curve)
            hidden, out = net.layers
            assert_fit_equal(fitted, ((hidden.weights, hidden.bias, out.weights, out.bias), mse))
            assert curve == solo_curve

    def test_restart_in_a_later_stack_skipped_once_the_target_is_met(self, rng, monkeypatch):
        u, t = self.data(rng, 1)
        stacks, fit_stack = [], homogenize._fit_stack

        def recording_stack(*args):
            stacks.append(args[5])  # the (width, seed, restart) members
            return fit_stack(*args)

        monkeypatch.setattr(homogenize, "_fit_stack", recording_stack)
        # 40 rows x width 256 fills more than half of STACK_BUDGET, so every
        # restart trains in a stack of its own. Seed 4 runs both restarts;
        # seed 3 meets the target in restart 0, so its restart 1, the last
        # one pending, never runs.
        assert 2 * len(u) * 256 > homogenize.STACK_BUDGET >= len(u) * 256
        configs = [
            FitConfig(width=256, learning_rate=0.3, steps=300, restarts=2, seed=s, target_mse=3e-3)
            for s in (4, 3)
        ]
        curves = [[] for _ in configs]
        fits = fit_regressions(u, t, configs, curves=curves)
        assert stacks == [[(256, 4, 0)], [(256, 4, 1)], [(256, 3, 0)]]
        assert [sorted({row[0] for row in curve}) for curve in curves] == [[0, 1], [0]]
        assert fits[1][1] <= 3e-3 < fits[0][1]
        for cfg, fitted, curve in zip(configs, fits, curves):
            weights, ref_mse, ref_curve = reference_fit(u, t, cfg, False)
            assert_fit_equal(fitted, (weights, ref_mse))
            assert np.array_equal(np.array(curve), np.array(ref_curve))

    # The scheduler's contract: each config comes out as its solo fit and as
    # the sequential reference, bit for bit; a stack of several members stays
    # within STACK_BUDGET; members run in queue order; and a member runs unless
    # its config met the target in an earlier stack. 40 rows x width 409 is
    # within the budget and x 410 past it. At target 0 no restart meets it;
    # at 1e9 every restart 0 does.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 999),
        widths=st.lists(st.sampled_from([1, 5, 200, 409, 410, 600]), min_size=1, max_size=4),
        restarts=st.integers(1, 3),
        target=st.sampled_from([0.0, 1e9]),
    )
    def test_queue_pass_keeps_budget_order_decisions_and_bits(self, seed, widths, restarts, target):
        u, t = self.data(np.random.default_rng([seed, 37]), 1)
        configs = [
            FitConfig(width=w, learning_rate=0.3, steps=20, restarts=restarts, seed=c, target_mse=target)
            for c, w in enumerate(widths)
        ]
        stacks, fit_stack = [], homogenize._fit_stack

        def recording_stack(*args):
            outcomes = fit_stack(*args)
            # Each config's seed is its index: members are (config, restart, mse).
            stacks.append([(c, r, mse) for (_, c, r), (mse, _, _) in zip(args[5], outcomes)])
            return outcomes

        curves = [[] for _ in configs]
        with mock.patch.object(homogenize, "_fit_stack", recording_stack):
            fits = fit_regressions(u, t, configs, curves=curves)

        for cfg, fitted, curve in zip(configs, fits, curves):
            solo_curve = []
            net, mse = fit_regression(u, t, cfg, curve=solo_curve)
            hidden, out = net.layers
            assert_fit_equal(fitted, ((hidden.weights, hidden.bias, out.weights, out.bias), mse))
            assert curve == solo_curve
            weights, ref_mse, ref_curve = reference_fit(u, t, cfg, False)
            assert_fit_equal(fitted, (weights, ref_mse))
            assert np.array_equal(np.array(curve), np.array(ref_curve))
        for stack in stacks:
            load = len(u) * sum(configs[c].width for c, _, _ in stack)
            assert len(stack) == 1 or load <= homogenize.STACK_BUDGET
        ran = [(c, r) for stack in stacks for c, r, _ in stack]
        queue = [(c, r) for c in range(len(configs)) for r in range(restarts)]
        assert all(a < b for a, b in zip(ran, ran[1:])) and set(ran) <= set(queue)
        decided = set()
        for stack in stacks:
            assert not decided & {c for c, _, _ in stack}
            decided |= {c for c, _, mse in stack if mse <= target}
        assert {c for c, _ in set(queue) - set(ran)} <= decided

    @pytest.mark.parametrize(
        "change",
        [{"learning_rate": 0.2}, {"steps": 11}, {"optimizer": "adam"}, {"restarts": 2}, {"target_mse": 1e-3}],
        ids=["learning-rate", "steps", "optimizer", "restarts", "target"],
    )
    def test_configs_differing_beyond_width_and_seed_rejected(self, rng, change):
        u, t = self.data(rng, 1)
        base = FitConfig(width=4, learning_rate=0.1, steps=10, restarts=1, seed=0)
        other = dataclasses.replace(base, width=8, seed=1, **change)
        with pytest.raises(ValueError, match="width and seed"):
            fit_regressions(u, t, [base, other])


def cycled_signed_basis(n, count):
    """count rows e_0, -e_0, e_1, -e_1, ..., cycling through the 2n of them."""
    return np.tile(np.kron(np.eye(n), [[1.0], [-1.0]]), (count // (2 * n), 1))


class TestInverseRecovery:
    def test_identity_map_one_sparse(self):
        n = 3
        fit = FitConfig(width=32, learning_rate=0.4, steps=3000, restarts=2, seed=5, target_mse=1e-5)
        net = build_inverse_recovery_net(np.eye(n), cycled_signed_basis(n, 30), fit, densify_points=48)
        assert net.unbiased and net.depth == 2
        for j in range(n):
            for sign in (1.0, -1.0):
                x = np.zeros(n)
                x[j] = sign
                err = np.linalg.norm(evaluate(net, x) - x)
                assert err <= 0.05, (j, sign, err)
        report = check_positive_homogeneity(net, n, ProbeConfig(seed=2))
        assert report.max_defect <= 1e-12

    def test_kernel_signal_rejected(self):
        a = np.array([[1.0, 0.0, 0.0]])
        signals = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # row 1 in ker(A)
        fit = FitConfig(width=4, learning_rate=0.2, steps=10, restarts=1, seed=0)
        with pytest.raises(ValueError, match="signal 1 in kernel"):
            build_inverse_recovery_net(a, signals, fit)

    @pytest.mark.parametrize(
        "signals, message",
        [(np.ones((2, 3)), "3 columns, expected 2"), (np.zeros((0, 2)), "at least one signal")],
        ids=["columns", "no-rows"],
    )
    def test_malformed_signals_rejected(self, signals, message):
        fit = FitConfig(width=4, learning_rate=0.2, steps=10, restarts=1, seed=0)
        with pytest.raises(ValueError, match=message):
            build_inverse_recovery_net(np.eye(2), signals, fit)

    def test_negative_densify_rejected(self):
        fit = FitConfig(width=4, learning_rate=0.2, steps=10, restarts=1, seed=0)
        with pytest.raises(ValueError, match="densify"):
            build_inverse_recovery_net(np.eye(2), np.array([[1.0, 0.0]]), fit, densify_points=-1)

    def test_contradictory_samples_rejected(self):
        # e1 and e2 both measure to the direction (1,), with different values.
        fit = FitConfig(width=4, learning_rate=0.2, steps=10, restarts=1, seed=0)
        with pytest.raises(ValueError, match="samples 0 and 1 are inconsistent"):
            build_inverse_recovery_net(np.array([[1.0, 1.0]]), np.eye(2), fit)

    @pytest.mark.parametrize("s, repeated", [(2, False), (3, False), (2, True)], ids=["2", "3", "2-repeated"])
    def test_anchor_directions_are_rowwise_measurements(self, monkeypatch, s, repeated):
        # One stacked product measures every signal, and must give the bits
        # of a @ x one row at a time. Exact repeats leave the first
        # occurrence of each row, in order.
        class Stop(Exception):
            pass

        anchors = []

        def record_and_stop(dirs, vals):
            anchors.append((dirs, vals))
            raise Stop

        monkeypatch.setattr(homogenize, "minimal_consistent_lipschitz", record_and_stop)
        rng = np.random.default_rng([s, 3])
        a = gaussian_matrix(rng, 5, 8)
        sampler = sparse_signal_sampler(8, s)
        signals = np.array([sampler(rng) for _ in range(40)])
        # Row i comes first at position 2i; rows below 20 repeat at 4i + 1 and 4i + 3.
        order = np.stack([np.arange(40), np.arange(40) // 2], axis=1).ravel() if repeated else np.arange(40)
        fit = FitConfig(width=4, learning_rate=0.2, steps=10, restarts=1, seed=0)
        with pytest.raises(Stop):
            build_inverse_recovery_net(a, signals[order], fit)
        scales = [float(np.abs(a @ x).sum()) for x in signals]
        expected_dirs = np.array([(a @ x) / scale for x, scale in zip(signals, scales)])
        expected_vals = np.array([x / scale for x, scale in zip(signals, scales)])
        [(dirs, vals)] = anchors
        assert np.array_equal(dirs, expected_dirs)
        assert np.array_equal(vals, expected_vals)

    @pytest.mark.parametrize("seed", [552, 31])
    def test_single_lift_matches_stacked_per_coordinate_lifts(self, monkeypatch, seed):
        fits = []
        interpolate = homogenize._interpolate_anchors

        def recording_correction(*args):
            fits.append(interpolate(*args))
            return fits[-1]

        monkeypatch.setattr(homogenize, "_interpolate_anchors", recording_correction)
        a = gaussian_matrix(np.random.default_rng([seed, 0]), 4, 6)
        fit = FitConfig(width=16, learning_rate=0.4, steps=200, restarts=2, seed=seed, target_mse=2e-5)
        net = build_inverse_recovery_net(a, cycled_signed_basis(6, 60), fit, densify_points=96)
        assert len(fits) == 6
        assert serialize(net) == serialize(stacked_lifts_reference(fits))


class TestAnchorInterpolation:
    """Each coordinate's output row and bias are moved, as little as the
    training rows' features allow, so that the fit meets every anchor."""

    @staticmethod
    def build(monkeypatch, seed):
        """A cheap s = 1 recovery net at ``seed``, its anchors and every
        coordinate's (fit, corrected fit, rows, counts, anchors, values)."""
        calls = []
        interpolate = homogenize._interpolate_anchors

        def recording_correction(net, *args):
            calls.append((net, interpolate(net, *args), *args))
            return calls[-1][1]

        monkeypatch.setattr(homogenize, "_interpolate_anchors", recording_correction)
        a = gaussian_matrix(np.random.default_rng([seed, 0]), 4, 6)
        fit = FitConfig(width=16, learning_rate=3e-3, steps=200, restarts=1, seed=seed, optimizer="adam")
        signals = cycled_signed_basis(6, 60)
        net = build_inverse_recovery_net(a, signals, fit, densify_points=96)
        scale = np.abs(signals @ a.T).sum(axis=1, keepdims=True)
        return net, (signals @ a.T) / scale, signals / scale, calls

    @pytest.mark.parametrize("seed", [31, 552, 977, 7, 2718])
    def test_lifted_net_meets_every_anchor(self, monkeypatch, seed):
        net, dirs, vals, calls = self.build(monkeypatch, seed)
        assert len(calls) == 6
        missed = [np.max(np.abs(evaluate(fitted, dirs)[:, 0] - vals[:, j])) for j, (fitted, *_) in enumerate(calls)]
        assert max(missed) > 1e-3  # 200 steps alone miss the anchors
        assert np.max(np.abs(evaluate(net, dirs) - vals)) <= 1e-12 * np.max(np.abs(vals))

    def test_change_is_the_least_in_the_training_metric(self, monkeypatch):
        # The stationarity condition of min Delta^T M Delta subject to
        # F_a Delta = -r: M Delta lies in the row space of F_a.
        *_, calls = self.build(monkeypatch, 31)
        for fitted, fixed, rows, counts, anchors, values in calls:
            (hidden, out), (_, new_out) = fitted.layers, fixed.layers
            assert new_out.weights.shape == out.weights.shape and fixed.layers[0] is hidden
            # M is taken over the fit's 60 + 96 training rows: 12 distinct signals, 96 extra points.
            assert len(rows) == 12 + 96 and counts.sum() == 60 + 96

            def features(x):
                return np.hstack([np.maximum(x @ hidden.weights.T + hidden.bias, 0.0), np.ones((len(x), 1))])

            f, f_a = features(rows), features(anchors)
            gram = (f * counts).T @ f
            metric = gram + 1e-3 * np.trace(gram) / len(gram) * np.eye(len(gram))
            delta = np.append(new_out.weights[0] - out.weights[0], new_out.bias - out.bias)
            pushed = metric @ delta
            coef, *_ = np.linalg.lstsq(f_a.T, pushed, rcond=None)
            assert np.linalg.norm(f_a.T @ coef - pushed) <= 1e-10 * np.linalg.norm(pushed)
            assert np.max(np.abs(f_a @ (np.append(out.weights[0], out.bias) + delta) - values)) <= 1e-12


def stacked_lifts_reference(fits):
    """Lift every scalar coordinate fit on its own, then stack the lifted nets:
    the shared [I; -I] first layer, the second layers one below the other and
    a block-diagonal final layer."""
    lifted = [homogenize_one_layer(net) for net in fits]
    first = lifted[0].layers[0].weights
    widths = [f.layers[1].out_dim for f in lifted]
    final = np.zeros((len(lifted), sum(widths)))
    offset = 0
    for j, f in enumerate(lifted):
        assert np.array_equal(f.layers[0].weights, first)
        final[j, offset : offset + widths[j]] = f.layers[2].weights[0]
        offset += widths[j]
    second = np.vstack([f.layers[1].weights for f in lifted])
    return unbiased_relu_net([first, second, final])

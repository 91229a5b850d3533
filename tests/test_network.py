import numpy as np
import pytest

from conftest import forward_pass_oracle
from homogenlab.bounds import empirical_conditioning
from homogenlab.network import (
    PROBE_CHUNK,
    ActivationSpec,
    LayerSpec,
    NetworkSpec,
    ProbeConfig,
    check_positive_homogeneity,
    convert_relu_to_activation,
    deserialize,
    evaluate,
    pad_identity_layers,
    serialize,
    sigma_gamma_probe,
    unbiased_relu_net,
)


def random_unbiased_net(rng, dims):
    return unbiased_relu_net([rng.standard_normal((dims[i + 1], dims[i])) for i in range(len(dims) - 1)])


def pointwise_reference(net, x):
    """One point at a time, ``W @ h`` products and the two-sided relu-family
    formula: the forward pass whose bits the 1-D path keeps."""
    h = np.asarray(x, dtype=np.float64)
    act = net.activation
    for layer in net.layers[:-1]:
        pre = layer.weights @ h
        if layer.bias is not None:
            pre = pre + layer.bias
        if act.is_relu_family:
            h = act.alpha * np.maximum(pre, 0.0) + act.beta * np.maximum(-pre, 0.0)
        else:
            h = act.apply(pre)
    out = net.layers[-1].weights @ h
    if net.layers[-1].bias is not None:
        out = out + net.layers[-1].bias
    return out


def probe_loop_reference(f, dim, probe):
    """Point-by-point probe: (max defect, worst point, worst scale), first
    strict maximum in point-major order."""
    points = np.random.default_rng(probe.seed).standard_normal((probe.num_points, dim))
    best = (-1.0, points[0], probe.scales[0])
    for x in points:
        base = np.atleast_1d(f(x))
        for lam in probe.scales:
            gap = np.atleast_1d(f(lam * x)) - lam * base
            defect = float(np.linalg.norm(gap)) / (lam * (1.0 + float(np.linalg.norm(x))))
            if defect > best[0]:
                best = (defect, x, lam)
    return best


def mixed_nets(rng):
    """Biased and unbiased nets over relu, a relu-family member, tanh and softplus."""
    acts = (
        ActivationSpec.relu(),
        ActivationSpec.relu_family(0.7, -0.3),
        ActivationSpec.named("tanh"),
        ActivationSpec.named("softplus"),
    )
    nets = []
    for k, act in enumerate(acts):
        dims = [4, 9, 7, 3]
        biased = k % 2 == 0
        layers = tuple(
            LayerSpec(
                rng.standard_normal((dims[i + 1], dims[i])),
                rng.standard_normal(dims[i + 1]) if biased else None,
            )
            for i in range(3)
        )
        nets.append(NetworkSpec(layers, act, unbiased=not biased))
    return nets


class TestLayerSpec:
    def test_holds_read_only_copies(self, rng):
        big, b = rng.standard_normal((4, 3)), rng.standard_normal(2)
        w_before, b_before = big[:2].copy(), b.copy()
        layer = LayerSpec(big[:2], b)
        assert big.flags.writeable and b.flags.writeable
        big[:] = b[:] = np.nan
        assert np.array_equal(layer.weights, w_before) and np.array_equal(layer.bias, b_before)
        assert not layer.weights.flags.writeable and not layer.bias.flags.writeable


class TestEvaluate:
    def test_identity_gadget(self, rng):
        eye = np.eye(3)
        net = unbiased_relu_net([np.vstack([eye, -eye]), np.hstack([eye, -eye])])
        for _ in range(10):
            x = rng.standard_normal(3)
            assert np.allclose(evaluate(net, x), x, atol=1e-14)

    def test_unbiased_net_is_zero_at_origin(self, rng):
        net = random_unbiased_net(rng, [4, 7, 5, 3])
        assert np.array_equal(evaluate(net, np.zeros(4)), np.zeros(3))

    def test_matches_independent_forward_pass(self, rng):
        dims = [3, 6, 5, 2]
        weights = [rng.standard_normal((dims[i + 1], dims[i])) for i in range(3)]
        biases = [rng.standard_normal(dims[i + 1]) for i in range(2)] + [None]
        net = NetworkSpec(
            tuple(LayerSpec(w, b) for w, b in zip(weights, biases)),
            ActivationSpec.relu(),
            unbiased=False,
        )
        for _ in range(10):
            x = rng.standard_normal(3)
            assert np.allclose(evaluate(net, x), forward_pass_oracle(weights, biases, x), atol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        net = random_unbiased_net(rng, [3, 4, 2])
        with pytest.raises(ValueError):
            evaluate(net, np.ones(5))

    def test_vector_path_bits_unchanged(self, rng):
        for net in mixed_nets(rng):
            points = rng.standard_normal((200, 4))
            points[::10] = 0.0
            for x in points:
                assert evaluate(net, x).tobytes() == pointwise_reference(net, x).tobytes()

    def test_relu_gives_positive_zero(self):
        out = ActivationSpec.relu().apply(np.array([-0.0, 0.0, -2.0, 3.0]))
        assert out.tobytes() == np.array([0.0, 0.0, 0.0, 3.0]).tobytes()

    def test_batch_matches_rows(self, rng):
        for net in mixed_nets(rng):
            for count in (1, 5, 130):
                batch = rng.standard_normal((count, 4))
                rows = np.array([evaluate(net, x) for x in batch])
                got = evaluate(net, batch)
                assert got.shape == (count, 3)
                np.testing.assert_allclose(got, rows, rtol=1e-12, atol=1e-12 * np.abs(rows).max())

    def test_batch_of_wrong_width_rejected(self, rng):
        net = random_unbiased_net(rng, [3, 4, 2])
        with pytest.raises(ValueError, match=r"\(6, 5\)"):
            evaluate(net, np.ones((6, 5)))

    def test_layer_chain_validated(self):
        with pytest.raises(ValueError):
            unbiased_relu_net([np.ones((4, 3)), np.ones((2, 5))])

    def test_unbiased_flag_with_bias_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(
                (LayerSpec(np.eye(2), np.ones(2)), LayerSpec(np.eye(2))),
                ActivationSpec.relu(),
                unbiased=True,
            )


class TestHomogeneityProbe:
    def test_unbiased_relu_net_passes(self, rng):
        net = random_unbiased_net(rng, [3, 8, 8, 2])
        report = check_positive_homogeneity(net, 3, ProbeConfig(seed=5))
        assert report.max_defect <= 1e-12
        assert report.samples == 64 * 5

    def test_output_bias_fails(self, rng):
        w1 = rng.standard_normal((4, 3))
        w2 = rng.standard_normal((2, 4))
        net = NetworkSpec(
            (LayerSpec(w1), LayerSpec(w2, np.array([1.0, 0.0]))),
            ActivationSpec.relu(),
            unbiased=False,
        )
        report = check_positive_homogeneity(net, 3, ProbeConfig(seed=5, scales=(0.5, 10.0)))
        assert report.max_defect >= 0.1

    def test_tanh_net_fails(self, rng):
        net = NetworkSpec(
            (LayerSpec(rng.standard_normal((6, 3))), LayerSpec(rng.standard_normal((2, 6)))),
            ActivationSpec.named("tanh"),
            unbiased=True,
        )
        report = check_positive_homogeneity(net, 3, ProbeConfig(seed=5))
        assert report.max_defect >= 0.01

    def test_deterministic_given_seed(self, rng):
        net = random_unbiased_net(rng, [2, 5, 2])
        r1 = check_positive_homogeneity(net, 2, ProbeConfig(seed=11))
        r2 = check_positive_homogeneity(net, 2, ProbeConfig(seed=11))
        assert r1.max_defect == r2.max_defect
        assert np.array_equal(r1.worst_point, r2.worst_point)

    def test_worst_point_and_scale_match_loop(self, rng):
        assert 150 % PROBE_CHUNK != 0
        for net in mixed_nets(rng):
            if net.unbiased and net.activation.is_relu_family:
                continue  # defects are rounding noise, with no well-defined worst point
            probe = ProbeConfig(seed=4, num_points=150, scales=(0.5, 2.0, 10.0))
            report = check_positive_homogeneity(net, 4, probe)
            defect, point, scale = probe_loop_reference(net, 4, probe)
            assert np.array_equal(report.worst_point, point)
            assert report.worst_scale == scale
            assert report.max_defect == pytest.approx(defect, rel=1e-12)

    def test_overflowing_net_fails(self):
        net = unbiased_relu_net([np.full((3, 2), 1e200), np.full((1, 3), 1e200)])
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_positive_homogeneity(net, 2, ProbeConfig(seed=1))
        assert report.max_defect == np.inf
        assert not report.passed

    def test_nan_output_fails_at_first_point_and_scale(self):
        report = check_positive_homogeneity(
            lambda x: np.full((len(x), 1), np.nan), 2, ProbeConfig(seed=1, scales=(3.0, 1.0))
        )
        assert report.max_defect == np.inf
        assert not report.passed
        assert report.worst_scale == 3.0
        assert np.array_equal(report.worst_point, np.random.default_rng(1).standard_normal((64, 2))[0])

    def test_output_rows_must_match_batch(self):
        with pytest.raises(ValueError, match=r"shape \(1,\)"):
            check_positive_homogeneity(lambda x: np.array([np.nan]), 2, ProbeConfig(seed=1))
        with pytest.raises(ValueError, match=r"shape \(2, 64\)"):
            check_positive_homogeneity(lambda x: x.T, 2, ProbeConfig(seed=1))

    def test_map_sees_at_most_probe_chunk_rows(self, rng):
        net = random_unbiased_net(rng, [3, 8, 2])
        sizes = []

        def recording(x):
            sizes.append(len(x))
            return evaluate(net, x)

        check_positive_homogeneity(recording, 3, ProbeConfig(seed=2, num_points=150, scales=(0.5, 2.0)))
        assert max(sizes) == PROBE_CHUNK and sum(sizes) == 150 * 3

        # Conditioning maps its counted pairs only: distinct sampled pairs,
        # then every ambient pair.
        sizes.clear()
        report = empirical_conditioning(recording, lambda g: np.eye(3)[g.integers(0, 2)], 100, "l2", seed=3)
        assert report.pairs_sampled < 100
        assert max(sizes) == PROBE_CHUNK and sum(sizes) == 2 * report.pairs_sampled + 2 * 100

    def test_empty_probe_rejected(self):
        with pytest.raises(ValueError):
            ProbeConfig(seed=1, num_points=0)
        with pytest.raises(ValueError):
            ProbeConfig(seed=1, scales=())
        with pytest.raises(ValueError):
            ProbeConfig(seed=1, scales=(0.0, 1.0))


class TestActivationConversion:
    def test_relu_to_relu(self, rng):
        net = random_unbiased_net(rng, [3, 6, 2])
        converted = convert_relu_to_activation(net, 1.0, 0.0)
        assert converted.hidden_widths == (12,)
        for _ in range(50):
            x = rng.standard_normal(3)
            ref = evaluate(net, x)
            assert np.allclose(evaluate(converted, x), ref, atol=1e-12 * (1 + np.abs(ref).max()))

    @pytest.mark.parametrize("alpha,beta", [(2.0, 1.0), (1.0, -2.0), (0.0, 3.0)])
    def test_general_family_pointwise_equal(self, rng, alpha, beta):
        net = random_unbiased_net(rng, [3, 5, 4, 2])
        converted = convert_relu_to_activation(net, alpha, beta)
        assert converted.hidden_widths == (10, 8)
        for _ in range(1000):
            x = rng.standard_normal(3)
            ref = evaluate(net, x)
            assert np.allclose(evaluate(converted, x), ref, atol=1e-12 * (1 + np.abs(ref).max()))

    def test_gamma_coefficients(self):
        # alpha/(alpha^2 - beta^2) and beta/(alpha^2 - beta^2) for (2, 1)
        assert 2.0 / 3.0 == pytest.approx(2.0 / (4.0 - 1.0))
        assert 1.0 / 3.0 == pytest.approx(1.0 / (4.0 - 1.0))

    def test_degenerate_family_rejected(self, rng):
        net = random_unbiased_net(rng, [2, 4, 1])
        with pytest.raises(ValueError, match="degenerate"):
            convert_relu_to_activation(net, 1.0, -1.0)
        with pytest.raises(ValueError, match="degenerate"):
            convert_relu_to_activation(net, 1.0, 1.0)
        # alpha^2 - beta^2 underflows to 0, overflows to inf, or is inf - inf
        for alpha, beta in [(1e-200, 0.0), (1e200, 0.0), (1e160, 1e159)]:
            with pytest.raises(ValueError) as info:
                convert_relu_to_activation(net, alpha, beta)
            assert str(info.value) == (
                f"alpha^2 - beta^2 underflows or overflows for alpha={alpha!r}, beta={beta!r}"
            )
        for alpha in (np.nan, np.inf):
            with pytest.raises(ValueError, match=r"^activation coefficients must be finite$"):
                convert_relu_to_activation(net, alpha, 0.0)

    def test_small_normal_denominator_still_converts(self, rng):
        # alpha^2 = 1e-300 is still a normal float
        net = random_unbiased_net(rng, [3, 5, 2])
        converted = convert_relu_to_activation(net, 1e-150, 0.0)
        x = rng.standard_normal((50, 3))
        np.testing.assert_allclose(evaluate(converted, x), evaluate(net, x), rtol=1e-12, atol=1e-12)

    def test_no_hidden_layer_keeps_its_layers(self, rng):
        net = random_unbiased_net(rng, [3, 2])
        converted = convert_relu_to_activation(net, 2.0, 1.0)
        assert converted.layers is net.layers
        assert converted.activation == ActivationSpec.relu_family(2.0, 1.0)

    def test_biased_net_rejected(self, rng):
        net = NetworkSpec(
            (LayerSpec(rng.standard_normal((4, 2)), rng.standard_normal(4)), LayerSpec(rng.standard_normal((1, 4)))),
            ActivationSpec.relu(),
            unbiased=False,
        )
        with pytest.raises(ValueError):
            convert_relu_to_activation(net, 2.0, 1.0)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, 1.0), (1.0, -2.0), (0.0, 3.0)])
    def test_scalar_decoding_identity(self, rng, alpha, beta):
        # g1 sigma(x) - g2 sigma(-x) recovers relu(x)
        sigma = ActivationSpec.relu_family(alpha, beta)
        denom = alpha * alpha - beta * beta
        g1, g2 = alpha / denom, beta / denom
        x = rng.standard_normal(1000)
        lhs = g1 * sigma.apply(x) - g2 * sigma.apply(-x)
        assert np.allclose(lhs, np.maximum(x, 0.0), atol=1e-14)


class TestPadding:
    def test_same_depth_unchanged(self, rng):
        net = random_unbiased_net(rng, [3, 6, 2])
        assert pad_identity_layers(net, 1) is net

    def test_padding_preserves_values(self, rng):
        net = random_unbiased_net(rng, [3, 6, 2])
        padded = pad_identity_layers(net, 4)
        assert padded.depth == 4
        assert padded.hidden_widths == (6, 12, 12, 12)
        for _ in range(1000):
            x = rng.standard_normal(3)
            ref = evaluate(net, x)
            assert np.allclose(evaluate(padded, x), ref, atol=1e-12 * (1 + np.abs(ref).max()))

    def test_depth_zero_net_can_be_padded(self, rng):
        net = unbiased_relu_net([rng.standard_normal((2, 3))])
        padded = pad_identity_layers(net, 2)
        assert padded.depth == 2
        for _ in range(100):
            x = rng.standard_normal(3)
            assert np.allclose(evaluate(padded, x), evaluate(net, x), atol=1e-13)

    def test_shrinking_rejected(self, rng):
        net = random_unbiased_net(rng, [3, 6, 5, 2])
        with pytest.raises(ValueError):
            pad_identity_layers(net, 1)


class TestSigmaGammaProbe:
    def test_relu_family_is_scale_invariant(self, rng):
        for _ in range(5):
            gamma = rng.standard_normal(int(rng.integers(1, 5)))
            report = sigma_gamma_probe(ActivationSpec.relu(), gamma, ProbeConfig(seed=3))
            assert report.max_defect <= 1e-12

    def test_general_family_scale_invariant(self):
        report = sigma_gamma_probe(
            ActivationSpec.relu_family(2.0, -3.0), np.array([1.0, 1.0]), ProbeConfig(seed=3)
        )
        assert report.max_defect <= 1e-12

    def test_tanh_fails(self):
        report = sigma_gamma_probe(ActivationSpec.named("tanh"), np.array([1.0, 1.0]), ProbeConfig(seed=3))
        assert report.max_defect >= 0.01

    def test_empty_gamma_rejected(self):
        with pytest.raises(ValueError):
            sigma_gamma_probe(ActivationSpec.relu(), np.array([]), ProbeConfig(seed=3))


class TestSerialization:
    def test_round_trip_bit_identical(self, rng):
        net = NetworkSpec(
            (
                LayerSpec(rng.standard_normal((4, 3)), rng.standard_normal(4)),
                LayerSpec(rng.standard_normal((2, 4)), None),
            ),
            ActivationSpec.relu_family(1.5, -0.25),
            unbiased=False,
        )
        back = deserialize(serialize(net))
        assert back.unbiased == net.unbiased
        assert back.activation == net.activation
        for a, b in zip(back.layers, net.layers):
            assert np.array_equal(a.weights, b.weights)
            assert (a.bias is None) == (b.bias is None)
            if a.bias is not None:
                assert np.array_equal(a.bias, b.bias)

    def test_named_activation_round_trip(self, rng):
        net = NetworkSpec(
            (LayerSpec(rng.standard_normal((2, 2))), LayerSpec(rng.standard_normal((1, 2)))),
            ActivationSpec.named("softplus"),
            unbiased=True,
        )
        assert deserialize(serialize(net)).activation.kind == "softplus"

    def test_mismatched_dims_rejected(self):
        doc = """{"activation": {"relu_family": {"alpha": 1.0, "beta": 0.0}},
                  "unbiased": true,
                  "layers": [{"weights": [[1.0, 2.0]], "bias": null},
                             {"weights": [[1.0, 2.0]], "bias": null}]}"""
        with pytest.raises(ValueError, match=r"layers\[1\]"):
            deserialize(doc)

    def test_unbiased_with_bias_rejected(self):
        doc = """{"activation": {"relu_family": {"alpha": 1.0, "beta": 0.0}},
                  "unbiased": true,
                  "layers": [{"weights": [[1.0], [2.0]], "bias": [0.5, 1.0]},
                             {"weights": [[1.0, 2.0]], "bias": null}]}"""
        with pytest.raises(ValueError, match="unbiased"):
            deserialize(doc)

    # Rules of the specs come back with the JSON location of the layer.
    @pytest.mark.parametrize(
        "unbiased, layers, message",
        [
            ("false", '[{"weights": [[1.0], [2.0]], "bias": [0.5]}, {"weights": [[1.0, 2.0]], "bias": null}]',
             r"^layers\[0\]: bias length 1 does not match weight rows 2$"),
            ("true", '[{"weights": [[1.0, 2.0]], "bias": null}, {"weights": [[1.0, 2.0]], "bias": null}]',
             r"^layers\[1\]: input width 2 does not chain with previous output width 1$"),
            ("true", '[{"weights": [[1.0]], "bias": null}, {"weights": [[1.0]], "bias": [0.5]}]',
             r"^layers\[1\]: bias present in a network flagged unbiased$"),
        ],
        ids=["bias-length", "width-chain", "unbiased-with-bias"],
    )
    def test_spec_rules_rejected_at_their_layer(self, unbiased, layers, message):
        doc = f"""{{"activation": {{"relu_family": {{"alpha": 1.0, "beta": 0.0}}}},
                  "unbiased": {unbiased}, "layers": {layers}}}"""
        with pytest.raises(ValueError, match=message):
            deserialize(doc)

    def test_unknown_named_activation_rejected(self):
        doc = """{"activation": {"named": "relu"}, "unbiased": true,
                  "layers": [{"weights": [[1.0]], "bias": null}]}"""
        with pytest.raises(ValueError, match=r"^activation\.named: unknown activation 'relu'; expected one of"):
            deserialize(doc)

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            deserialize("{not json")

    def test_boolean_numbers_rejected_with_location(self):
        doc = """{"activation": {"relu_family": {"alpha": 1.0, "beta": 0.0}}, "unbiased": true,
                  "layers": [{"weights": [[1.0], [2.0], [3.0]], "bias": null},
                             {"weights": [[1.0, 2.0, true]], "bias": null}]}"""
        with pytest.raises(ValueError, match=r"^layers\[1\]\.weights\[0\]\[2\]: .*true"):
            deserialize(doc)
        doc = """{"activation": {"relu_family": {"alpha": true, "beta": 0.0}}, "unbiased": true,
                  "layers": [{"weights": [[1.0]], "bias": null}]}"""
        with pytest.raises(ValueError, match=r"^activation\.relu_family\.alpha: "):
            deserialize(doc)

    def test_non_finite_numbers_rejected_with_location(self):
        doc = """{"activation": {"named": "tanh"}, "unbiased": true,
                  "layers": [{"weights": [[1.0], [NaN]], "bias": null},
                             {"weights": [[1.0, 2.0]], "bias": null}]}"""
        with pytest.raises(ValueError, match=r"^layers\[0\]\.weights\[1\]\[0\]: .*NaN"):
            deserialize(doc)
        doc = """{"activation": {"named": "tanh"}, "unbiased": false,
                  "layers": [{"weights": [[1.0], [2.0]], "bias": [0.0, Infinity]},
                             {"weights": [[1.0, 2.0]], "bias": null}]}"""
        with pytest.raises(ValueError, match=r"^layers\[0\]\.bias\[1\]: .*Infinity"):
            deserialize(doc)
        for beyond_float in ("1e400", "1" + "0" * 400):
            doc = f"""{{"activation": {{"named": "tanh"}}, "unbiased": true,
                      "layers": [{{"weights": [[1.0, {beyond_float}]], "bias": null}}]}}"""
            with pytest.raises(ValueError, match=r"^layers\[0\]\.weights\[0\]\[1\]: "):
                deserialize(doc)

    def test_ragged_weights_rejected(self):
        doc = """{"activation": {"named": "tanh"}, "unbiased": true,
                  "layers": [{"weights": [[1.0, 2.0], [1.0]], "bias": null}]}"""
        with pytest.raises(ValueError, match="ragged"):
            deserialize(doc)


class TestScaleInvarianceInvariant:
    def test_unbiased_relu_nets_scale_exactly(self, rng):
        for dims in ([2, 5, 1], [3, 8, 6, 2], [4, 4, 4, 4, 4]):
            net = random_unbiased_net(rng, dims)
            for _ in range(20):
                x = rng.standard_normal(dims[0])
                for lam in (0.25, 1.0, 3.0, 50.0):
                    lhs = evaluate(net, lam * x)
                    rhs = lam * evaluate(net, x)
                    assert np.linalg.norm(lhs - rhs) <= 1e-12 * lam * (1 + np.linalg.norm(x)) * (
                        1 + np.abs(rhs).max()
                    )

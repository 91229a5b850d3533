"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import time

import numpy as np
import pytest

from conftest import low_coherence_matrix
from homogenlab.bounds import (
    DirectionSet,
    eckart_young_gap,
    lowrank_forward,
    one_layer_lower_bound,
    phase_retrieval_forward,
    rip_exhaustive,
    uat_negative_bound,
    uat_negative_matrix,
)
from homogenlab.cli import run
from homogenlab.experiments import recovery_experiment, write_matrix_csv
from homogenlab.homogenize import FitConfig, fit_regression, homogenize_one_layer
from homogenlab.network import (
    ActivationSpec,
    LayerSpec,
    NetworkSpec,
    ProbeConfig,
    check_positive_homogeneity,
    convert_relu_to_activation,
    evaluate,
    pad_identity_layers,
    serialize,
    sigma_gamma_probe,
    unbiased_relu_net,
)
from homogenlab.numerics import spectral_norm
from homogenlab.solvers import (
    SolveConfig,
    _soft_threshold,
    bpdn,
    brute_force_sparse_fit,
    dantzig,
    ista_objective,
    ista_run,
    lasso,
    lista_eval,
    lista_from_ista,
    qcbp,
    selection_discontinuity_demo,
    solve,
)


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS - {text}")


def signed_basis(n):
    vecs = []
    for j in range(n):
        for sign in (1.0, -1.0):
            x = np.zeros(n)
            x[j] = sign
            vecs.append(x)
    return vecs


def max_signed_error(net, a, n):
    return max(float(np.linalg.norm(evaluate(net, a @ x) - x)) for x in signed_basis(n))


def test_criterion_01_one_layer_error_floor():
    t0 = time.time()
    m, n = 2, 4
    floor = np.sqrt(0.5)
    rng = np.random.default_rng(101)
    for _ in range(200):
        width = int(rng.integers(1, 65))
        a = rng.standard_normal((m, n))
        net = unbiased_relu_net([rng.standard_normal((width, m)), rng.standard_normal((n, width))])
        assert max_signed_error(net, a, n) >= floor - 1e-9
    targets = np.vstack([np.eye(n), -np.eye(n)])
    for trial in range(20):
        rng_t = np.random.default_rng([102, trial])
        a = rng_t.standard_normal((m, n))
        a /= np.linalg.norm(a, axis=0, keepdims=True)
        cfg = FitConfig(
            width=[4, 8, 16, 32, 64][trial % 5],
            learning_rate=0.3,
            steps=1500,
            restarts=2,
            seed=1000 + trial,
        )
        net, _ = fit_regression(targets @ a.T, targets, cfg, unbiased=True)
        assert max_signed_error(net, a, n) >= floor - 1e-9
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    report(1, f"200 random + 20 trained one-hidden-layer nets stay above sqrt(0.5) ({elapsed:.1f}s)")


def test_criterion_02_lower_bound_values():
    for n in range(1, 17):
        for m in range(1, n + 1):
            got = one_layer_lower_bound(m, DirectionSet.identity(n))
            assert abs(got - np.sqrt(1.0 - m / n)) <= 1e-12
    rng = np.random.default_rng(202)
    for _ in range(50):
        n_dirs = int(rng.integers(3, 9))
        dim = int(rng.integers(3, 7))
        x = rng.standard_normal((dim, n_dirs))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        m = int(rng.integers(1, min(dim, n_dirs)))
        eigs = np.sort(np.linalg.eigvalsh(x.T @ x))[::-1]
        oracle = float(np.sqrt(np.clip(eigs[m:], 0, None).sum() / n_dirs))
        assert abs(one_layer_lower_bound(m, DirectionSet(x)) - oracle) <= 1e-10
    report(2, "closed form exact for n <= 16 and Gram-eigenvalue oracle matched on 50 sets")


def test_criterion_03_homogenization_exactness():
    rng = np.random.default_rng(303)
    g = NetworkSpec(
        (
            LayerSpec(rng.standard_normal((5, 3)), rng.standard_normal(5)),
            LayerSpec(rng.standard_normal((1, 5)), rng.standard_normal(1)),
        ),
        ActivationSpec.relu(),
        unbiased=False,
    )
    f = homogenize_one_layer(g)
    assert f.hidden_widths == (6, 6)  # (2m, k + 1)
    for _ in range(1000):
        x = rng.standard_normal(3)
        l1 = float(np.abs(x).sum())
        want = l1 * evaluate(g, x / l1)[0]
        assert abs(evaluate(f, x)[0] - want) <= 1e-9 * (1 + l1)
    probe = check_positive_homogeneity(f, 3, ProbeConfig(seed=303))
    assert probe.max_defect <= 1e-12
    report(3, "lifted net matches ||x||_1 g(x/||x||_1) on 1000 points; widths (2m, k+1); defect <= 1e-12")


def test_criterion_04_activation_conversion():
    rng = np.random.default_rng(404)
    net = unbiased_relu_net([rng.standard_normal((6, 3)), rng.standard_normal((5, 6)), rng.standard_normal((2, 5))])
    for alpha, beta in [(1.0, 0.0), (2.0, 1.0), (1.0, -2.0), (0.0, 3.0)]:
        converted = convert_relu_to_activation(net, alpha, beta)
        for _ in range(1000):
            x = rng.standard_normal(3)
            ref = evaluate(net, x)
            assert np.linalg.norm(evaluate(converted, x) - ref) <= 1e-12 * (1 + np.linalg.norm(ref))
    for alpha, beta in [(1.0, 1.0), (1.0, -1.0)]:
        with pytest.raises(ValueError):
            convert_relu_to_activation(net, alpha, beta)
    report(4, "four activation families match to 1e-12 at 1000 points; |alpha| = |beta| rejected")


def test_criterion_05_identity_padding():
    rng = np.random.default_rng(505)
    net = unbiased_relu_net([rng.standard_normal((7, 3)), rng.standard_normal((4, 7)), rng.standard_normal((2, 4))])
    assert net.depth == 2
    padded = pad_identity_layers(net, 5)
    assert padded.depth == 5
    for _ in range(1000):
        x = rng.standard_normal(3)
        ref = evaluate(net, x)
        assert np.linalg.norm(evaluate(padded, x) - ref) <= 1e-12 * (1 + np.linalg.norm(ref))
    report(5, "depth 2 -> 5 padding preserves outputs to 1e-12 at 1000 points")


def test_criterion_06_activation_chain_probes():
    rng = np.random.default_rng(606)
    for _ in range(20):
        gamma = rng.standard_normal(int(rng.integers(1, 6)))
        alpha, beta = rng.standard_normal(2)
        rep = sigma_gamma_probe(ActivationSpec.relu_family(alpha, beta), gamma, ProbeConfig(seed=606))
        assert rep.max_defect <= 1e-12
    for name in ("tanh", "softplus"):
        worst = max(
            sigma_gamma_probe(ActivationSpec.named(name), gamma, ProbeConfig(seed=606)).max_defect
            for gamma in (np.array([1.0]), np.array([1.0, 1.0]), np.array([0.5, 2.0]))
        )
        assert worst >= 0.01, name
    report(6, "relu-family chains scale exactly for 20 gammas; tanh and softplus fail by >= 0.01")


def test_criterion_07_two_hidden_layer_recovery():
    t0 = time.time()
    n, m, s = 6, 4, 1
    fit = FitConfig(width=128, learning_rate=0.4, steps=6000, restarts=2, seed=552, target_mse=2e-5)
    a, net, rip, rows = recovery_experiment(
        n, m, s, fit, noise_levels=(1e-3, 1e-2, 1e-1), trials=8, rip_threshold=0.61
    )
    assert rip.delta <= 0.6
    exact = [r for r in rows if r[0] == "exact"]
    assert len(exact) == 12
    for row in exact:
        assert row[5] <= 0.2 * row[2], row
    noisy = np.array([(r[4], r[5]) for r in rows if r[0] == "noisy"])
    design = np.column_stack([np.ones(len(noisy)), noisy[:, 0]])
    coeffs, *_ = np.linalg.lstsq(design, noisy[:, 1], rcond=None)
    resid = noisy[:, 1] - design @ coeffs
    rel = float(np.linalg.norm(resid) / np.linalg.norm(noisy[:, 1]))
    assert rel <= 0.5
    probe = check_positive_homogeneity(net, m, ProbeConfig(seed=707))
    assert probe.max_defect <= 1e-12
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    report(
        7,
        f"recovery net: delta_2={rip.delta:.3f}, max rel error "
        f"{max(r[5] for r in exact):.3f} <= 0.2, noise fit residual {rel:.3f} <= 0.5 ({elapsed:.0f}s)",
    )


def test_criterion_08_solver_matches_brute_force():
    sizes = [(6, 5, 1), (8, 6, 1), (10, 8, 1), (7, 6, 1), (9, 8, 2), (10, 8, 2), (8, 7, 2), (8, 8, 2)]
    found = 0
    draw = 0
    while found < 50:
        n, m, s = sizes[draw % len(sizes)]
        rng = np.random.default_rng([808, draw])
        draw += 1
        a = low_coherence_matrix(rng, m, n)
        if rip_exhaustive(a, min(2 * s, n)).delta >= 0.6:
            continue
        support = np.sort(rng.choice(n, size=s, replace=False))
        x = np.zeros(n)
        x[support] = rng.standard_normal(s)
        y = a @ x
        rep = solve(qcbp(a, y, 0.0), SolveConfig(max_iters=200_000, tol=1e-9))
        assert rep.converged
        sup, coef, _ = brute_force_sparse_fit(a, y, s)
        xb = np.zeros(n)
        xb[list(sup)] = coef
        assert np.max(np.abs(rep.solution - xb)) <= 1e-6, (n, m, s, draw)
        found += 1
    report(8, f"50 exact-sparse instances (delta_2s < 0.6 verified): solver matches exhaustive fit to 1e-6")


def test_criterion_09_closed_form_solver_checks():
    cfg = SolveConfig(tol=1e-10)
    rep = solve(bpdn(np.array([[1.0]]), [3.0], 2.0), cfg)
    assert rep.converged and abs(rep.solution[0] - 2.0) <= 1e-8
    y = np.array([3.0, 0.5])
    rep = solve(dantzig(np.eye(2), y, 1.0), cfg)
    assert rep.converged and np.max(np.abs(rep.solution - _soft_threshold(y, 1.0))) <= 1e-8
    rep = solve(lasso(np.eye(2), [3.0, 0.0], 1.0), cfg)
    assert rep.converged and np.max(np.abs(rep.solution - [1.0, 0.0])) <= 1e-8
    rep = solve(qcbp(np.eye(2), [3.0, 0.0], 1.0), cfg)
    assert rep.converged and np.max(np.abs(rep.solution - [2.0, 0.0])) <= 1e-8
    report(9, "bpdn scalar, dantzig shrinkage, lasso budget, qcbp boundary all within 1e-8")


def test_criterion_10_ista_lista():
    rng = np.random.default_rng(1010)
    for _ in range(5):
        a = rng.standard_normal((5, 8))
        y = rng.standard_normal(5)
        lam = 0.2
        step = spectral_norm(a) ** 2
        traj = ista_run(a, y, lam, step, 50)
        net = lista_from_ista(a, lam, step, 50)
        assert np.max(np.abs(lista_eval(net, y) - traj[-1])) <= 1e-12
    for trial in range(20):
        rng_t = np.random.default_rng([1011, trial])
        a = rng_t.standard_normal((6, 10))
        y = rng_t.standard_normal(6)
        step = spectral_norm(a) ** 2
        traj = ista_run(a, y, 0.15, step, 200)
        objs = [ista_objective(a, y, 0.15, z) for z in traj]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(objs, objs[1:]))
    report(10, "unrolled endpoints match trajectories to 1e-12 at depth 50; objective monotone on 20 runs")


def test_criterion_11_phase_retrieval_identity():
    rng = np.random.default_rng(1111)
    for _ in range(100):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        lhs = lowrank_forward(a, np.outer(x, x))
        rhs = phase_retrieval_forward(a, x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))
    report(11, "quadratic map of x x^T equals componentwise |Ax|^2 on 100 draws")


def test_criterion_12_truncation_beats_random_candidates():
    violations = 0
    for trial in range(100):
        rng = np.random.default_rng([1212, trial])
        m = rng.standard_normal((6, 6))
        tail, best = eckart_young_gap(m, 2, candidates=1000, seed=trial)
        if tail > best + 1e-12:
            violations += 1
    assert violations == 0
    report(12, "rank-2 truncation tail never beaten by 1000 random candidates on 100 matrices")


def test_criterion_13_hard_instance_values():
    assert abs(uat_negative_bound(8) - 0.866025) <= 1e-6
    assert abs(uat_negative_bound(4) - 0.707107) <= 1e-6
    assert abs(uat_negative_bound(1) - 0.353553) <= 1e-6
    with pytest.raises(ValueError):
        uat_negative_matrix(np.array([2.0, 2.0]))
    a = uat_negative_matrix(np.array([-1.5, 0.0, 0.25, 3.0]))
    assert np.max(np.abs(np.linalg.norm(a, axis=0) - 1.0)) <= 1e-12
    report(13, "hard-instance bounds at n = 8, 4, 1 and matrix construction verified")


def test_criterion_14_selection_jump():
    assert selection_discontinuity_demo(0.9) == (0.0, False)
    assert selection_discontinuity_demo(1.1) == (1.0, False)
    z1, multiple = selection_discontinuity_demo(1.0)
    assert z1 == 0.0 and multiple
    report(14, "minimizer jumps 0 -> 1 across y2 = 1 with the tie flagged")


def test_criterion_15_byte_identical_artifacts(tmp_path):
    rng = np.random.default_rng(1515)
    net_path = tmp_path / "net.json"
    net_path.write_text(
        serialize(unbiased_relu_net([rng.standard_normal((6, 3)), rng.standard_normal((4, 6))]))
    )
    a_path = tmp_path / "a.csv"
    write_matrix_csv(a_path, rng.standard_normal((3, 4)), "seed-matrix", {})
    commands = {
        "impossibility": [
            "impossibility-experiment", "--m", "2", "--n", "4", "--widths", "4,8",
            "--seed", "5", "--steps", "300", "--learning-rate", "0.3", "--restarts", "1",
            "--target-mse", "0",
        ],
        "robustness": [
            "robustness", "--net", str(net_path), "--in", str(a_path),
            "--x", "1,0,0,0", "--levels", "0.01,0.1", "--trials", "4", "--seed", "9",
        ],
        "rip": ["rip", "--gaussian-m", "4", "--gaussian-n", "6", "--seed", "11", "--order", "2"],
        "conditioning": [
            "conditioning", "--gaussian-m", "4", "--gaussian-n", "6", "--seed", "3", "--pairs", "50",
        ],
        "lowrank": ["lowrank-rip", "--m", "12", "--n", "4", "--rank", "1", "--samples", "100", "--seed", "4"],
    }
    for name, args in commands.items():
        out1 = tmp_path / f"{name}_1.csv"
        out2 = tmp_path / f"{name}_2.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), name
        assert out1.read_text().startswith("# command=")
    report(15, "five experiment commands re-run byte-identically with config header lines")

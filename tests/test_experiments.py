import dataclasses
import shlex

import numpy as np
import pytest

from homogenlab import experiments
from homogenlab.experiments import (
    IMPOSSIBILITY_HEADER,
    config_line,
    format_cell,
    gaussian_matrix,
    impossibility_experiment,
    max_signed_basis_error,
    read_matrix_csv,
    recovery_experiment,
    render_csv,
    sparse_signal_sampler,
    sparse_tail_l1,
    write_csv,
)
from homogenlab.homogenize import FitConfig, fit_regression
from homogenlab.network import evaluate, unbiased_relu_net


class TestHelpers:
    def test_format_cell_seventeen_digits(self):
        assert format_cell(1.0 / 3.0) == "0.33333333333333331"
        assert format_cell(7) == "7"
        assert format_cell(True) == "1"

    def test_render_csv_shape(self):
        text = render_csv("demo", {"seed": 4}, ("a", "b"), [(1, 0.5)])
        lines = text.splitlines()
        assert lines[0] == "# command=demo seed=4"
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"

    def test_config_line_quotes_ambiguous_values(self):
        config = {"variant": "qcbp", "in": "x y=z/a.csv", "y": "3;0", "note": "it's"}
        line = config_line("solve", config)
        tokens = shlex.split(line)
        assert tokens[0] == "#"
        pairs = dict(token.split("=", 1) for token in tokens[1:])
        assert pairs == {"command": "solve", **config}

    def test_config_line_leaves_plain_values_bare(self):
        config = {"noise": "0.001;0.01;0.1", "lam": "", "in": "runs/a.csv", "seed": 3, "eta": 0.1}
        assert config_line("recovery-experiment", config) == (
            "# command=recovery-experiment noise=0.001;0.01;0.1 lam= in=runs/a.csv seed=3 "
            "eta=0.10000000000000001"
        )

    def test_config_line_rejects_line_break(self, tmp_path):
        for brk in ("\n", "\r"):
            with pytest.raises(ValueError, match=r"""^cannot record "in='a\\[nr]b\.csv'" on one line"""):
                config_line("solve", {"seed": 3, "in": f"a{brk}b.csv"})
            with pytest.raises(ValueError, match="on one line"):
                write_csv(tmp_path / "out.csv", "solve", {"in": f"a{brk}b.csv"}, ("a",), [(1,)])
            assert not (tmp_path / "out.csv").exists()

    def test_gaussian_matrix_unit_columns(self, rng):
        a = gaussian_matrix(rng, 4, 7)
        assert np.allclose(np.linalg.norm(a, axis=0), 1.0, atol=1e-12)

    def test_read_matrix_csv_names_file_line_and_column(self, tmp_path):
        path = tmp_path / "a.csv"
        for text, where, got in (
            ("# command=test\n1,2\n3,\n", "3: column 2", "''"),
            ("1,2\n3,x4\n", "2: column 2", "'x4'"),
            ("\n1,nan\n", "2: column 2", "'nan'"),
            ("1,2\n\n3\n", "3", "ragged"),
        ):
            path.write_text(text)
            with pytest.raises(ValueError, match=rf"a\.csv:{where}: .*{got}"):
                read_matrix_csv(path)

    def test_sparse_tail(self):
        assert sparse_tail_l1(np.array([3.0, -1.0, 0.5]), 1) == 1.5
        assert sparse_tail_l1(np.array([3.0, -1.0]), 2) == 0.0


class TestSampler:
    def test_random_mode_has_unit_norm_and_support(self):
        sampler = sparse_signal_sampler(6, 2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = sampler(rng)
            assert np.count_nonzero(x) == 2
            assert np.linalg.norm(x) == pytest.approx(1.0)


class TestImpossibilityExperiment:
    def test_rows_carry_bound_and_flag(self):
        fit = FitConfig(width=1, learning_rate=0.3, steps=300, restarts=1, seed=2)
        _, rows = impossibility_experiment(2, 4, [4, 8], fit)
        assert len(rows) == 2
        for width, err, bound, mse, ok in rows:
            assert bound == pytest.approx(np.sqrt(0.5))
            assert err >= bound - 1e-9
            assert ok

    def test_rows_match_fits_one_width_at_a_time(self):
        # The stacked fits pad every width to the widest; the rows must still
        # be those of one fit_regression per width, bit for bit.
        fit = FitConfig(width=1, learning_rate=0.4, steps=400, restarts=2, seed=7, target_mse=2e-5)
        widths = [2, 4, 8, 16]
        a, rows = impossibility_experiment(2, 4, widths, fit)
        signals = np.repeat(np.eye(4), 2, axis=0) * np.tile([1.0, -1.0], 4)[:, None]
        for idx, (width, row) in enumerate(zip(widths, rows)):
            cfg = dataclasses.replace(fit, width=width, seed=fit.seed * 1_000_003 + idx)
            net, mse = fit_regression(signals @ a.T, signals, cfg, unbiased=True)
            err = max_signed_basis_error(net, a)
            assert row == (width, err, np.sqrt(0.5), mse, True)
            assert row[1] == err and row[3] == mse

    def test_square_case_gives_degenerate_floor(self):
        fit = FitConfig(width=1, learning_rate=0.3, steps=10, restarts=1, seed=2)
        _, rows = impossibility_experiment(4, 4, [2], fit)
        assert rows[0][2] == 0.0  # floor collapses, row still emitted

    def test_oversized_m_rejected(self):
        fit = FitConfig(width=1, learning_rate=0.3, steps=10, restarts=1, seed=2)
        with pytest.raises(ValueError):
            impossibility_experiment(5, 4, [2], fit)


class TestRecoveryExperiment:
    def test_rip_failure_rejected_before_training(self):
        fit = FitConfig(width=8, learning_rate=0.3, steps=10, restarts=1, seed=0)
        with pytest.raises(ValueError, match="RIP"):
            recovery_experiment(6, 5, 2, fit, [0.1])  # delta_4 = 1.452

    @staticmethod
    def training_signals(monkeypatch, *args):
        """The signal rows recovery_experiment hands to the pipeline."""

        class Stop(Exception):
            pass

        seen = []

        def record_and_stop(a, signals, fit, **kwargs):
            seen.append(signals)
            raise Stop

        monkeypatch.setattr(experiments, "build_inverse_recovery_net", record_and_stop)
        with pytest.raises(Stop):
            recovery_experiment(*args)
        return seen[0]

    def test_one_sparse_trains_on_cycled_signed_basis(self, monkeypatch):
        fit = FitConfig(width=8, learning_rate=0.3, steps=10, restarts=1, seed=31)
        signals = self.training_signals(monkeypatch, 6, 4, 1, fit, [0.1])
        expected = np.zeros((60, 6))
        for i in range(60):
            expected[i, (i // 2) % 6] = 1.0 if i % 2 == 0 else -1.0
        assert np.array_equal(signals, expected)

    @pytest.mark.parametrize("seed", [48, 101])
    def test_two_sparse_trains_on_ordered_sampler_draws(self, monkeypatch, seed):
        fit = FitConfig(width=8, learning_rate=0.3, steps=10, restarts=1, seed=seed)
        signals = self.training_signals(monkeypatch, 6, 5, 2, fit, [0.1])
        sampler = sparse_signal_sampler(6, 2)
        rng = np.random.default_rng([seed, 101])
        assert np.array_equal(signals, np.array([sampler(rng) for _ in range(72)]))

    @pytest.mark.parametrize("m, s, seed", [(4, 1, 31), (5, 2, 48)])
    def test_no_training_signals_rejected(self, m, s, seed):
        fit = FitConfig(width=8, learning_rate=0.3, steps=10, restarts=1, seed=seed)
        with pytest.raises(ValueError, match="need at least one signal"):
            recovery_experiment(6, m, s, fit, [0.1], num_signals=0)

    def test_curves_collected_per_coordinate(self):
        fit = FitConfig(width=8, learning_rate=0.3, steps=25, restarts=2, seed=552)
        curves = []
        _, _, _, rows = recovery_experiment(
            6, 4, 1, fit, [0.1], trials=1, num_signals=12, densify_points=8, curves=curves
        )
        coords, restarts, steps, mses = zip(*curves)
        assert sorted(set(coords)) == list(range(6)) and list(coords) == sorted(coords)
        assert {r for c, r in zip(coords, restarts) if c == 0} == {0, 1}
        assert all(np.isfinite(m) for m in mses)
        zero_rows = [r for r in rows if r[0] == "zero"]
        assert len(zero_rows) == 1 and zero_rows[0][5] == 0.0


def recovery_rows_reference(net, a, s, seed, levels, trials):
    """The recovery table one point at a time: one evaluate call per row and
    one noise draw per trial, from the same seeded generators. Returns the
    rows and the reconstructions net(y), one per row."""
    m, n = a.shape
    recons = []

    def row(case, idx, x, level, y):
        tail = float(np.sort(np.abs(x))[::-1][s:].sum())
        recons.append(evaluate(net, y))
        err = float(np.linalg.norm(recons[-1] - x))
        return (case, idx, float(np.linalg.norm(x)), tail, level, err)

    rows = [row("zero", 0, np.zeros(n), 0.0, np.zeros(m))]

    if s == 1:
        exact = []
        for j in range(n):
            for sign in (1.0, -1.0):
                x = np.zeros(n)
                x[j] = sign
                exact.append(x)
    else:
        rng_cases = np.random.default_rng([seed, 7])
        sampler = sparse_signal_sampler(n, s)
        exact = [sampler(rng_cases) for _ in range(2 * n)]
    rows += [row("exact", idx, x, 0.0, a @ x) for idx, x in enumerate(exact)]
    rng = np.random.default_rng([seed, 8])
    for idx in range(trials):
        x = exact[idx % len(exact)] + 0.1 * rng.standard_normal(n)
        rows.append(row("approx", idx, x, 0.0, a @ x))
    rng_noise = np.random.default_rng([seed, 9])
    idx = 0
    for level in levels:
        for _ in range(trials):
            x = exact[idx % len(exact)]
            direction = rng_noise.standard_normal(m)
            e = direction * (level / float(np.linalg.norm(direction)))
            rows.append(row("noisy", idx, x, level, a @ x + e))
            idx += 1
    return rows, np.array(recons)


class TestBatchedRowsMatchPerPoint:
    @pytest.mark.parametrize("s, m, seed", [(1, 4, 552), (2, 5, 48)])
    def test_recovery_rows(self, monkeypatch, s, m, seed):
        batched = []

        def recording_evaluate(net, y):
            batched.append(evaluate(net, y))
            return batched[-1]

        monkeypatch.setattr(experiments, "evaluate", recording_evaluate)
        fit = FitConfig(width=16, learning_rate=0.4, steps=100, restarts=1, seed=seed)
        levels = [1e-3, 1e-2, 1e-1]
        a, net, _, rows = recovery_experiment(6, m, s, fit, levels, trials=15, densify_points=32)
        want, want_recons = recovery_rows_reference(net, a, s, seed, levels, 15)
        assert len(rows) == len(want) == 1 + 12 + 15 + 45
        assert [r[:5] for r in rows] == [w[:5] for w in want]
        gaps = np.linalg.norm(np.vstack(batched) - want_recons, axis=1)
        assert np.all(gaps <= 1e-12 * np.linalg.norm(want_recons, axis=1))
        # An error is ||net(y) - x||, so by the triangle inequality two
        # errors differ by at most the gap of their reconstructions, plus
        # the rounding of the two norms. A relative bound would not hold for
        # a small error of near-equal vectors, such as a noisy row at 1e-3
        # or an exact row met to rounding.
        got, ref = np.array([r[5] for r in rows]), np.array([w[5] for w in want])
        assert np.all(np.abs(got - ref) <= gaps + 2 * np.finfo(float).eps * ref)

    def test_max_signed_basis_error(self, rng):
        for m, n in ((2, 4), (4, 6), (3, 9)):
            a = gaussian_matrix(rng, m, n)
            net = unbiased_relu_net([rng.standard_normal((8, m)), rng.standard_normal((n, 8))])
            want = 0.0
            for x in np.vstack([np.eye(n), -np.eye(n)]):
                want = max(want, float(np.linalg.norm(evaluate(net, a @ x) - x)))
            assert max_signed_basis_error(net, a) == pytest.approx(want, rel=1e-12, abs=0)

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homogenlab
from homogenlab import bounds, experiments, network, solvers
from homogenlab.cli import build_parser, run
from homogenlab.experiments import format_cell, gaussian_matrix, read_matrix_csv, write_matrix_csv
from homogenlab.network import (
    ActivationSpec,
    LayerSpec,
    NetworkSpec,
    deserialize,
    serialize,
    unbiased_relu_net,
)


def save_net(path, net):
    path.write_text(serialize(net))


def load_net(path):
    return deserialize(path.read_text())


@pytest.fixture
def one_layer_net(rng):
    return NetworkSpec(
        (
            LayerSpec(rng.standard_normal((4, 3)), rng.standard_normal(4)),
            LayerSpec(rng.standard_normal((1, 4)), rng.standard_normal(1)),
        ),
        ActivationSpec.relu(),
        unbiased=False,
    )


class TestExitCodes:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert run(["definitely-not-a-command"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert run(["counterexample", "--nope", "1"]) == 1

    def test_rejected_input_exits_one(self, capsys):
        assert run(["counterexample", "--y2", "2.5"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file_exits_one(self, capsys, tmp_path):
        assert run(["homogenize", "--in", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.json")]) == 1

    def test_non_convergence_exits_two(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        write_matrix_csv(a_path, np.eye(2), "test", {})
        code = run(
            ["solve", "--variant", "qcbp", "--in", str(a_path), "--y", "3,0", "--eta", "1", "--max-iters", "2"]
        )
        assert code == 2

    def test_infeasible_qcbp_exits_one(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        write_matrix_csv(a_path, np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), "test", {})
        code = run(["solve", "--variant", "qcbp", "--in", str(a_path), "--y", "1,0,0", "--eta", "0.5"])
        assert code == 1
        assert "infeasible" in capsys.readouterr().err


# The rejected number is the last flag of each command line: a non-finite or
# out-of-range value, no rows in a generated matrix, an empty list, or a
# measurement whose length is not the matrix's row count.
REJECTED_NUMBERS = [
    ["solve", "--variant", "bpdn", "--in", "{a}", "--y", "1,0", "--lam", "inf"],
    ["solve", "--variant", "bpdn", "--in", "{a}", "--y", "1,0", "--lam", "nan"],
    ["solve", "--variant", "qcbp", "--in", "{a}", "--y", "1,0", "--eta", "nan"],
    ["solve", "--variant", "dantzig", "--in", "{a}", "--y", "1,0", "--eta", "inf"],
    ["solve", "--variant", "lasso", "--in", "{a}", "--y", "1,0", "--tau", "inf"],
    ["solve", "--variant", "qcbp", "--in", "{a}", "--y", "1,0", "--eta", "0.1", "--tol", "nan"],
    ["solve", "--variant", "qcbp", "--in", "{a}", "--y", "1,0", "--eta", "0.1", "--tol", "-1"],
    ["solve", "--variant", "qcbp", "--in", "{a}", "--y", "1,0", "--eta", "0.1", "--tol", "inf"],
    ["solve", "--variant", "qcbp", "--in", "{a}", "--y", "1,0", "--eta", "0.1", "--max-iters", "0"],
    ["impossibility-experiment", "--m", "2", "--n", "4", "--widths", "4", "--seed", "1",
     "--out", "{out}", "--learning-rate", "nan"],
    ["impossibility-experiment", "--m", "2", "--n", "4", "--widths", "4", "--seed", "1",
     "--out", "{out}", "--target-mse", "inf"],
    ["recovery-experiment", "--n", "6", "--m", "4", "--seed", "552", "--out", "{out}",
     "--learning-rate", "inf"],
    ["recovery-experiment", "--n", "6", "--m", "4", "--seed", "552", "--out", "{out}",
     "--noise", "0.1,inf"],
    ["probe-homogeneity", "--in", "{net}", "--seed", "1", "--out", "{out}", "--tolerance", "nan"],
    ["probe-homogeneity", "--in", "{net}", "--seed", "1", "--out", "{out}", "--scales", "1,inf"],
    ["robustness", "--net", "{net}", "--in", "{a}", "--x", "1,0,0", "--seed", "1", "--out", "{out}",
     "--levels", "0.1,nan"],
    ["robustness", "--net", "{net}", "--in", "{a}", "--levels", "0.1", "--seed", "1", "--out", "{out}",
     "--x", "1,0"],
    ["ista", "--in", "{a}", "--y", "1,0", "--iters", "2", "--out", "{out}", "--lam", "inf"],
    ["ista", "--in", "{a}", "--y", "1,0", "--lam", "0.1", "--iters", "2", "--out", "{out}",
     "--step-bound", "nan"],
    ["lista", "--in", "{a}", "--y", "1,0", "--depth", "2", "--out", "{out}", "--lam", "nan"],
    ["lowrank-rip", "--n", "4", "--rank", "1", "--samples", "3", "--seed", "1", "--out", "{out}", "--m", "0"],
    ["rip", "--gaussian-n", "4", "--seed", "0", "--order", "1", "--out", "{out}", "--gaussian-m", "0"],
    ["conditioning", "--gaussian-n", "4", "--seed", "0", "--out", "{out}", "--gaussian-m", "0"],
    ["impossibility-experiment", "--m", "2", "--n", "4", "--seed", "1", "--out", "{out}", "--widths", ","],
    ["recovery-experiment", "--n", "6", "--m", "4", "--seed", "552", "--out", "{out}", "--noise", ","],
    ["uat-negative", "--out", "{out}", "--w", ","],
    ["ista", "--in", "{a}", "--lam", "0.1", "--iters", "2", "--out", "{out}", "--y", "1"],
    ["recovery-experiment", "--n", "6", "--m", "4", "--seed", "552", "--out", "{out}", "--s", "7"],
    ["recovery-experiment", "--n", "6", "--m", "4", "--seed", "552", "--out", "{out}", "--s", "0"],
    ["recovery-experiment", "--n", "6", "--m", "4", "--seed", "552", "--out", "{out}", "--s", "-1"],
    ["recovery-experiment", "--n", "6", "--m", "4", "--seed", "552", "--out", "{out}", "--signals", "0"],
    ["recovery-experiment", "--n", "6", "--m", "4", "--seed", "552", "--out", "{out}", "--densify", "-1"],
    ["robustness", "--net", "{net}", "--in", "{a}", "--x", "1,0,0", "--levels", "0.1", "--seed", "1",
     "--out", "{out}", "--trials", "0"],
    ["convert-activation", "--in", "{net}", "--beta", "0", "--out", "{out}", "--alpha", "1e-200"],
    ["convert-activation", "--in", "{net}", "--beta", "0", "--out", "{out}", "--alpha", "1e200"],
]


@pytest.mark.parametrize("argv", REJECTED_NUMBERS, ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_non_finite_or_out_of_range_number_exits_one(tmp_path, monkeypatch, capsys, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran on a rejected number")

    for target in (solvers, experiments, network):
        for name in (
            "solve", "fit_regression", "fit_regressions", "build_inverse_recovery_net", "evaluate",
            "rip_exhaustive",
        ):
            if hasattr(target, name):
                monkeypatch.setattr(target, name, must_not_run)
    a_path, net_path, out = tmp_path / "a.csv", tmp_path / "net.json", tmp_path / "out.csv"
    write_matrix_csv(a_path, np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.5]]), "test", {})
    save_net(net_path, unbiased_relu_net([np.ones((3, 2)), np.ones((1, 3))]))
    paths = {"a": str(a_path), "net": str(net_path), "out": str(out)}
    assert run([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("s", ["7", "0", "-1"])
def test_recovery_sparsity_out_of_range_named(tmp_path, capsys, s):
    argv = ["recovery-experiment", "--n", "6", "--m", "4", "--seed", "552", "--s", s]
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: sparsity {s} out of range [1, 6]\n"


def test_robustness_signal_length_named(tmp_path, capsys):
    a_path, net_path = tmp_path / "a.csv", tmp_path / "net.json"
    write_matrix_csv(a_path, np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.5]]), "test", {})
    save_net(net_path, unbiased_relu_net([np.ones((3, 2)), np.ones((1, 3))]))
    argv = ["robustness", "--net", str(net_path), "--in", str(a_path), "--x", "1,0", "--levels", "0.1"]
    assert run(argv + ["--seed", "1", "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: signal length 2 does not match 3 columns\n"


def test_lista_depth_zero_checks_measurement_length(tmp_path, capsys):
    # The net holds its input matrix at every depth, so depth 0 checks the length too.
    a_path = tmp_path / "a.csv"
    write_matrix_csv(a_path, np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.5]]), "test", {})
    argv = ["lista", "--in", str(a_path), "--y", "1,2,3,4", "--lam", "0.1", "--depth", "0"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: measurement length 4 does not match 2 rows\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--variant", "bpdn", "--in", "{a}", "--y", "1,a", "--lam", "0.1"],
         "error: argument --y: expected comma-separated numbers, got '1,a'"),
        (["impossibility-experiment", "--m", "2", "--n", "4", "--seed", "1", "--out", "{out}", "--widths", "4,x"],
         "error: argument --widths: expected comma-separated integers, got '4,x'"),
        (["robustness", "--net", "{net}", "--in", "{a}", "--x", "1,0", "--seed", "1", "--out", "{out}",
          "--levels", "0.1,,1"],
         "error: argument --levels: expected comma-separated numbers, got '0.1,,1'"),
        (["solve", "--variant", "bpdn", "--in", "{a}", "--lam", "0.1", "--y", "1,,0"],
         "error: argument --y: expected comma-separated numbers, got '1,,0'"),
        (["impossibility-experiment", "--m", "2", "--n", "4", "--seed", "1", "--out", "{out}", "--widths", "4,"],
         "error: argument --widths: expected comma-separated integers, got '4,'"),
    ],
    ids=["floats", "ints", "floats-empty-entry", "floats-empty-middle", "ints-empty-last"],
)
def test_unparsable_list_names_the_flag(tmp_path, capsys, argv, message):
    a_path, net_path, out = tmp_path / "a.csv", tmp_path / "net.json", tmp_path / "out.csv"
    write_matrix_csv(a_path, np.eye(2), "test", {})
    save_net(net_path, unbiased_relu_net([np.ones((3, 2)), np.ones((1, 3))]))
    assert run([arg.format(a=a_path, net=net_path, out=out) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == message
    assert not out.exists()


# A value each layer rejects by its own rule, and the stderr line naming it;
# {tmp} stands for the directory of the inputs and outputs, {nl} for a line
# break inside one argument.
REJECTED_ARGUMENTS = [
    ("lower-bound --m -1 --identity-n 3", "number of measurements must be non-negative"),
    ("conditioning --in {tmp}/wide.csv --seed 1 --norm-ii nuclear",
     "nuclear norm needs a square-matrix vector, got length 12"),
    ("lowrank-rip --m 6 --n 4 --rank 1 --seed 1 --out {tmp}/out.csv --samples 0", "need at least one sample"),
    ("lowrank-rip --rank 1 --samples 3 --seed 1 --out {tmp}/out.csv", "provide --in or both --m and --n"),
    ("rip --order 2 --out {tmp}/out.csv", "provide --in or both --gaussian-m and --gaussian-n"),
    ("rip --gaussian-m 3 --gaussian-n 4 --order 2 --out {tmp}/out.csv",
     "--seed is required when generating a matrix"),
    ("rip --in {tmp}/comments.csv --order 1 --out {tmp}/out.csv", "{tmp}/comments.csv: no numeric rows"),
    ("solve --variant bpdn --in {tmp}/a.csv --lam 0.1 --out {tmp}/out.csv --y 1,nan,0",
     "measurement contains non-finite entries"),
    ("brute-force --in {tmp}/a.csv --y 1,0,0 --s 5", "sparsity 5 out of range [0, 4]"),
    ("ista --in {tmp}/a.csv --y 1,0,0 --lam 0.1 --out {tmp}/out.csv --iters -1",
     "iteration count must be non-negative"),
    ("impossibility-experiment --m 2 --n 4 --widths 4 --seed 1 --out {tmp}/out.csv --steps 0",
     "steps must be at least 1"),
    ("impossibility-experiment --m 2 --n 4 --widths 4 --seed 1 --out {tmp}/out.csv --restarts 0",
     "restarts must be at least 1"),
    ("recovery-experiment --n 6 --m 4 --seed 552 --out {tmp}/out.csv --width 0", "width must be at least 1"),
    ("pad --in {tmp}/biased.json --depth 3 --out {tmp}/out.csv", "padding requires an unbiased network"),
    ("pad --in {tmp}/converted.json --depth 3 --out {tmp}/out.csv", "padding requires relu activation"),
    ("convert-activation --in {tmp}/converted.json --alpha 2 --beta 0.5 --out {tmp}/out.csv",
     "conversion requires relu activation"),
    ("probe-homogeneity --in {tmp}/sigmoid.json --seed 1 --out {tmp}/out.csv",
     "activation: expected key 'relu_family' or 'named'"),
    ("probe-homogeneity --in {tmp}/misspelt.json --seed 1 --out {tmp}/out.csv", "layers[0]: unexpected key 'biass'"),
    ("rip --in {tmp}/a.csv --gaussian-m 4 --gaussian-n 6 --order 2 --out {tmp}/out.csv",
     "--in excludes --gaussian-m and --gaussian-n"),
    ("conditioning --in {tmp}/a.csv --gaussian-m 4 --seed 1 --out {tmp}/out.csv",
     "--in excludes --gaussian-m and --gaussian-n"),
    ("lowrank-rip --in {tmp}/a.csv --m 3 --n 9 --rank 1 --samples 3 --seed 1 --out {tmp}/out.csv",
     "--in excludes --m and --n"),
    ("rip --in {tmp}/a.csv --seed 3 --order 2 --out {tmp}/out.csv", "--in excludes --seed"),
    ("solve --variant bpdn --in {tmp}/a{nl}b.csv --y 1,0,0 --lam 0.1 --out {tmp}/out.csv",
     "cannot record \"in='{tmp}/a\\nb.csv'\" on one line: the value holds a line break"),
    ("robustness --net {tmp}/converted.json --in {tmp}/wide.csv --x 1,0,0,0,0,0,0,0,0,0,0,0 --levels 1e-170 "
     "--seed 1 --out {tmp}/out.csv", "noise level 1e-170 is too small: ||e|| rounds to 0"),
    ("recovery-experiment --n 6 --m 5 --s 2 --seed 0 --out {tmp}/out.csv",
     "RIP check failed: delta_4 = 1.452362 >= 1.0"),
    # ||e|| itself overflows at 1e160; at 1e154 it is finite but the gain or error is not.
    ("robustness --net {tmp}/converted.json --in {tmp}/wide.csv --x 1,0,0,0,0,0,0,0,0,0,0,0 --levels 1e160 "
     "--seed 1 --out {tmp}/out.csv", "noise level 1e+160 is too large: the gain overflows"),
    ("robustness --net {tmp}/converted.json --in {tmp}/wide.csv --x 1,0,0,0,0,0,0,0,0,0,0,0 --levels 0.1,1e154 "
     "--seed 1 --out {tmp}/out.csv", "noise level 1e+154 is too large: the gain overflows"),
    ("recovery-experiment --n 6 --m 4 --seed 552 --steps 20 --out {tmp}/out.csv --noise 1e160",
     "noise level 1e+160 is too large: the error overflows"),
    ("recovery-experiment --n 6 --m 4 --seed 552 --steps 20 --out {tmp}/out.csv --noise 0.1,1e154",
     "noise level 1e+154 is too large: the error overflows"),
    ("uat-negative --w 1e200,1 --out {tmp}/out.csv", "slope 1e+200 is too large: 1 + w^2 overflows"),
]


@pytest.mark.parametrize(
    "argv, message",
    REJECTED_ARGUMENTS,
    ids=[f"{argv.split()[0]}-{k}" for k, (argv, _) in enumerate(REJECTED_ARGUMENTS)],
)
def test_rejected_argument_names_the_rule(tmp_path, capsys, argv, message):
    write_matrix_csv(tmp_path / "a.csv", np.arange(12.0).reshape(3, 4) % 5, "test", {})
    write_matrix_csv(tmp_path / "a\nb.csv", np.arange(12.0).reshape(3, 4) % 5, "test", {})
    write_matrix_csv(tmp_path / "wide.csv", np.eye(2, 12), "test", {})
    (tmp_path / "comments.csv").write_text("# no rows\n\n")
    biased = NetworkSpec(
        (LayerSpec(np.ones((3, 2)), np.ones(3)), LayerSpec(np.ones((1, 3)))), ActivationSpec.relu(), unbiased=False
    )
    save_net(tmp_path / "biased.json", biased)
    relu = unbiased_relu_net([np.ones((3, 2)), np.ones((1, 3))])
    save_net(tmp_path / "converted.json", network.convert_relu_to_activation(relu, 2.0, 0.5))
    (tmp_path / "sigmoid.json").write_text(
        '{"activation": {"sigmoid": {}}, "unbiased": true, "layers": [{"weights": [[1.0]]}]}'
    )
    (tmp_path / "misspelt.json").write_text(
        '{"activation": {"named": "tanh"}, "unbiased": false, "layers": [{"weights": [[1.0, 2.0]], "biass": [0.5]}]}'
    )
    assert run([arg.format(tmp=tmp_path, nl="\n") for arg in argv.split()]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("lower-bound --m 2", "one of the arguments --identity-n --in is required"),
        ("lower-bound --m 2 --identity-n 3 --in {tmp}/eye.csv",
         "argument --in: not allowed with argument --identity-n"),
        ("uat-negative", "one of the arguments --n --w is required"),
        ("uat-negative --n 6 --w 0.5,1", "argument --w: not allowed with argument --n"),
        ("uat-negative --w 0.5,1 --n 6 --out {tmp}/out.csv", "argument --n: not allowed with argument --w"),
    ],
    ids=["lower-bound-neither", "lower-bound-both", "uat-negative-neither", "uat-negative-both",
         "uat-negative-both-reversed"],
)
def test_either_or_flags_take_exactly_one(tmp_path, capsys, argv, message):
    write_matrix_csv(tmp_path / "eye.csv", np.eye(3), "test", {})
    assert run(argv.format(tmp=tmp_path).split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"error: {message}"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=["top", "subcommand"])
def test_help_exits_zero(capsys, argv):
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("usage: homogenlab")


def test_diverging_fits_are_flagged_not_dropped(tmp_path):
    out = tmp_path / "imp.csv"
    argv = ["impossibility-experiment", "--m", "2", "--n", "4", "--widths", "4,8", "--seed", "3"]
    assert run(argv + ["--learning-rate", "1e6", "--steps", "50", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [(r[0], r[1], r[3], r[4]) for r in rows] == [("4", "nan", "nan", "0"), ("8", "nan", "nan", "0")]


def test_diverging_restart_prints_no_warning(tmp_path, capsys):
    # At seed 552 a width-128 restart diverges; every width still fits.
    out = tmp_path / "imp.csv"
    argv = ["impossibility-experiment", "--m", "2", "--n", "4", "--widths", "4,128", "--seed", "552"]
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [r[4] for r in rows] == ["1", "1"]


def test_lower_bound_without_directions_exits_one(capsys):
    assert run(["lower-bound", "--m", "1", "--identity-n", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least one direction\n"


class TestPrintedValues:
    def test_lower_bound_identity(self, capsys):
        assert run(["lower-bound", "--m", "2", "--identity-n", "4"]) == 0
        assert capsys.readouterr().out.strip() == "0.70710678"

    def test_counterexample_prints_minimizer(self, capsys):
        assert run(["counterexample", "--y2", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "z1 = 0"
        assert run(["counterexample", "--y2", "1.5"]) == 0
        assert capsys.readouterr().out.strip() == "z1 = 1"
        assert run(["counterexample", "--y2", "1.0"]) == 0
        assert "not unique" in capsys.readouterr().out

    def test_uat_negative_bound(self, capsys):
        assert run(["uat-negative", "--n", "8"]) == 0
        assert capsys.readouterr().out.strip() == "0.86602540"

    def test_uat_negative_matrix_prints_the_file_rows(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert run(["uat-negative", "--w", "0.5,-1,2", "--out", str(out)]) == 0
        assert run(["uat-negative", "--w", "0.5,-1,2"]) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        assert lines[0].startswith(b"#")
        assert capsys.readouterr().out.encode() == b"".join(lines[1:])

    def test_lower_bound_from_a_file(self, tmp_path, capsys):
        a_path = tmp_path / "eye.csv"
        write_matrix_csv(a_path, np.eye(3), "test", {})
        assert run(["lower-bound", "--m", "1", "--identity-n", "3"]) == 0
        want = capsys.readouterr().out
        assert run(["lower-bound", "--m", "1", "--in", str(a_path)]) == 0
        assert capsys.readouterr().out == want


class TestNetworkPipeline:
    def test_homogenize_then_probe(self, tmp_path, one_layer_net, capsys):
        g_path = tmp_path / "g.json"
        f_path = tmp_path / "f.json"
        save_net(g_path, one_layer_net)
        assert run(["homogenize", "--in", str(g_path), "--out", str(f_path)]) == 0
        assert run(["probe-homogeneity", "--in", str(f_path), "--seed", "7"]) == 0
        out = capsys.readouterr().out
        defect = float(out.split("max_defect=")[1].split()[0])
        assert defect <= 1e-12
        assert "passed=true" in out

    def test_probe_of_overflowing_net_fails(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_net(path, unbiased_relu_net([np.full((3, 2), 1e200), np.full((1, 3), 1e200)]))
        out = tmp_path / "probe.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["probe-homogeneity", "--in", str(path), "--seed", "1", "--out", str(out)]) == 0
        assert "max_defect=inf" in capsys.readouterr().out
        row = [line for line in out.read_text().splitlines() if not line.startswith("#")][1]
        assert row.split(",")[0] == "inf"
        assert row.split(",")[-1] == "0"

    def test_convert_preserves_values(self, tmp_path, rng):
        net = unbiased_relu_net([rng.standard_normal((5, 3)), rng.standard_normal((2, 5))])
        src = tmp_path / "net.json"
        dst = tmp_path / "conv.json"
        save_net(src, net)
        assert run(["convert-activation", "--in", str(src), "--alpha", "2", "--beta", "1", "--out", str(dst)]) == 0
        converted = load_net(dst)
        from homogenlab.network import evaluate

        for _ in range(25):
            x = rng.standard_normal(3)
            assert np.allclose(evaluate(converted, x), evaluate(net, x), atol=1e-10)

    def test_pad_depth(self, tmp_path, rng):
        net = unbiased_relu_net([rng.standard_normal((5, 3)), rng.standard_normal((2, 5))])
        src = tmp_path / "net.json"
        dst = tmp_path / "pad.json"
        save_net(src, net)
        assert run(["pad", "--in", str(src), "--depth", "4", "--out", str(dst)]) == 0
        assert load_net(dst).depth == 4

    def test_degenerate_conversion_exits_one(self, tmp_path, rng, capsys):
        net = unbiased_relu_net([rng.standard_normal((4, 2)), rng.standard_normal((1, 4))])
        src = tmp_path / "net.json"
        save_net(src, net)
        code = run(["convert-activation", "--in", str(src), "--alpha", "1", "--beta", "-1", "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "degenerate" in capsys.readouterr().err


class TestSolverCommands:
    def test_solve_qcbp(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        write_matrix_csv(a_path, np.eye(2), "test", {})
        assert run(["solve", "--variant", "qcbp", "--in", str(a_path), "--y", "3,0", "--eta", "1"]) == 0
        out = capsys.readouterr().out
        sol = [float(v) for v in out.split("solution=")[1].split()[0].split(",")]
        assert np.allclose(sol, [2.0, 0.0], atol=1e-7)

    def test_solve_vector_with_leading_minus(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        out_path = tmp_path / "solve.csv"
        write_matrix_csv(a_path, np.eye(2), "test", {})
        args = ["solve", "--variant", "qcbp", "--in", str(a_path), "--y", "-3,0", "--eta", "1"]
        assert run(args + ["--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        sol = [float(v) for v in out.split("solution=")[1].split()[0].split(",")]
        assert np.allclose(sol, [-2.0, 0.0], atol=1e-7)
        assert "uniqueness=unique" in out
        lines = out_path.read_text().splitlines()
        assert " y=-3;0 " in lines[0]
        assert lines[1].split(",")[5] == "uniqueness"
        assert lines[2].split(",")[5] == "unique"

    def test_full_column_rank_lasso_is_unique(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        write_matrix_csv(a_path, np.eye(2), "test", {})
        assert run(["solve", "--variant", "lasso", "--in", str(a_path), "--tau", "10", "--y=3,0"]) == 0
        assert "uniqueness=unique" in capsys.readouterr().out

    def test_ista_trajectory_csv(self, tmp_path):
        a_path = tmp_path / "a.csv"
        out_path = tmp_path / "traj.csv"
        write_matrix_csv(a_path, np.array([[1.0]]), "test", {})
        assert run(
            ["ista", "--in", str(a_path), "--y", "3", "--lam", "2", "--step-bound", "1", "--iters", "10", "--out", str(out_path)]
        ) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# command=ista")
        assert lines[1].split(",")[:2] == ["step", "objective"]
        last = lines[-1].split(",")
        assert float(last[2]) == pytest.approx(1.0, abs=1e-12)

    def test_lista_matches_ista_endpoint(self, tmp_path, rng, capsys):
        a = rng.standard_normal((3, 5))
        a_path = tmp_path / "a.csv"
        write_matrix_csv(a_path, a, "test", {})
        y = "0.3,-1.2,0.7"
        out_ista = tmp_path / "ista.csv"
        assert run(["ista", "--in", str(a_path), "--y", y, "--lam", "0.2", "--iters", "50", "--out", str(out_ista)]) == 0
        ista_last = [float(v) for v in out_ista.read_text().splitlines()[-1].split(",")[2:]]
        out_lista = tmp_path / "lista.csv"
        assert run(["lista", "--in", str(a_path), "--y", y, "--lam", "0.2", "--depth", "50", "--out", str(out_lista)]) == 0
        lista_vals = [float(v) for v in out_lista.read_text().splitlines()[-1].split(",")]
        assert np.max(np.abs(np.array(lista_vals) - np.array(ista_last))) <= 1e-12

    def test_brute_force(self, tmp_path, rng, capsys):
        a = rng.standard_normal((4, 6))
        a_path = tmp_path / "a.csv"
        write_matrix_csv(a_path, a, "test", {})
        y = ",".join(str(v) for v in a @ np.eye(6)[2])
        assert run(["brute-force", "--in", str(a_path), "--y", y, "--s", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("support=2 ")


class TestReportsAndDeterminism:
    def test_rip_report(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        write_matrix_csv(a_path, np.array([[1.0, 0.6], [0.0, 0.8]]), "test", {})
        assert run(["rip", "--in", str(a_path), "--order", "2"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("delta=")[1].split()[0]) == pytest.approx(0.6, abs=1e-12)

    def test_conditioning_report(self, capsys):
        assert run(["conditioning", "--gaussian-m", "4", "--gaussian-n", "6", "--seed", "3", "--pairs", "40"]) == 0
        out = capsys.readouterr().out
        assert "tau_hat=" in out and "rho_hat=" in out

    def test_lowrank_rip(self, capsys):
        assert run(["lowrank-rip", "--m", "12", "--n", "4", "--rank", "1", "--samples", "50", "--seed", "5"]) == 0
        assert "delta_lb_hat=" in capsys.readouterr().out

    def test_robustness_csv_deterministic(self, tmp_path, rng):
        net = unbiased_relu_net([rng.standard_normal((6, 3)), rng.standard_normal((4, 6))])
        net_path = tmp_path / "net.json"
        save_net(net_path, net)
        a_path = tmp_path / "a.csv"
        write_matrix_csv(a_path, rng.standard_normal((3, 4)), "test", {})
        args = [
            "robustness", "--net", str(net_path), "--in", str(a_path),
            "--x", "1,0,0,0", "--levels", "0.01,0.1", "--trials", "4", "--seed", "9",
        ]
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_robustness_vector_with_leading_minus(self, tmp_path, rng):
        net_path = tmp_path / "net.json"
        save_net(net_path, unbiased_relu_net([rng.standard_normal((6, 3)), rng.standard_normal((4, 6))]))
        a_path = tmp_path / "a.csv"
        write_matrix_csv(a_path, rng.standard_normal((3, 4)), "test", {})
        out = tmp_path / "r.csv"
        args = [
            "robustness", "--net", str(net_path), "--in", str(a_path),
            "--x", "-1,0.5,0,0", "--levels", "0.01", "--trials", "2", "--seed", "9", "--out", str(out),
        ]
        assert run(args) == 0
        assert " x=-1;0.5;0;0 " in out.read_text().splitlines()[0]

    def test_rip_generated_matrix_deterministic(self, tmp_path):
        args = ["rip", "--gaussian-m", "4", "--gaussian-n", "6", "--seed", "11", "--order", "2"]
        out1 = tmp_path / "a1.csv"
        out2 = tmp_path / "a2.csv"
        assert run(args + ["--out", str(out1), "--save-matrix", str(tmp_path / "m1.csv")]) == 0
        assert run(args + ["--out", str(out2), "--save-matrix", str(tmp_path / "m2.csv")]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()
        assert read_matrix_csv(tmp_path / "m1.csv").shape == (4, 6)

    def test_impossibility_experiment_rows(self, tmp_path):
        out = tmp_path / "imp.csv"
        code = run(
            [
                "impossibility-experiment", "--m", "2", "--n", "4",
                "--widths", "4,16", "--seed", "3",
                "--steps", "400", "--learning-rate", "0.3", "--restarts", "1", "--target-mse", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "width,max_rel_error,lower_bound,train_mse,fit_ok"
        bound = np.sqrt(1 - 2 / 4)
        for line in lines[2:]:
            cells = line.split(",")
            assert float(cells[1]) >= bound - 1e-9
            assert cells[4] == "1"


class TestRecoveryDefaults:
    @pytest.mark.parametrize("seed", [31, 552, 977, 7, 2718])
    def test_exact_rows_within_bound_and_net_scale_invariant(self, tmp_path, seed):
        out, net_path = tmp_path / "rec.csv", tmp_path / "net.json"
        argv = ["recovery-experiment", "--n", "6", "--m", "4", "--seed", str(seed)]
        assert run(argv + ["--save-net", str(net_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert " learning_rate=0.0030000000000000001 steps=1500 " in lines[0]
        assert " optimizer=adam rip_delta=" in lines[0]
        exact = [line.split(",") for line in lines[2:] if line.startswith("exact,")]
        assert len(exact) == 12
        assert max(float(cells[5]) / float(cells[2]) for cells in exact) <= 0.2
        net = load_net(net_path)
        probe = network.check_positive_homogeneity(net, net.input_dim, network.ProbeConfig(seed=seed))
        assert probe.max_defect <= 1e-12


class TestParserReuse:
    def test_consecutive_runs_match_fresh_processes(self, tmp_path, capsys):
        a_path = tmp_path / "a.csv"
        write_matrix_csv(a_path, np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.5]]), "test", {})
        solve = ["solve", "--in", str(a_path), "--y", "-1,0.4"]
        calls = [
            solve + ["--variant", "bpdn", "--lam", "0.1"],
            solve + ["--variant", "qcbp", "--eta", "0.05"],
            solve + ["--variant", "nope", "--eta", "0.05"],
            solve + ["--variant", "dantzig", "--eta", "0.05"],
        ]

        def outcomes(kind, invoke):
            rows = []
            for k, argv in enumerate(calls):
                out = tmp_path / kind / f"{k}.csv"
                out.parent.mkdir(exist_ok=True)
                rows.append(invoke(argv + ["--out", str(out)]) + (out.exists() and out.read_text(),))
            return rows

        def in_process(argv):
            code = run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        env = dict(os.environ, PYTHONPATH=str(Path(homogenlab.__file__).parents[1]))

        def fresh_process(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "homogenlab.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            return proc.returncode, proc.stdout, proc.stderr

        reused = outcomes("in_process", in_process)
        assert [row[0] for row in reused] == [0, 0, 1, 0]
        assert " lam= " in reused[1][3].splitlines()[0]
        assert reused == outcomes("fresh", fresh_process)
        assert build_parser() is build_parser()


@pytest.fixture
def cli_inputs(tmp_path):
    """A 2 x 3 matrix, a diagonal matrix and a 2-4-3 relu net in tmp_path."""
    write_matrix_csv(tmp_path / "a.csv", np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.5]]), "test", {})
    write_matrix_csv(tmp_path / "d.csv", np.diag([2.0, 1.0]), "test", {})
    save_net(tmp_path / "net.json", unbiased_relu_net([np.arange(8.0).reshape(4, 2) - 3, np.ones((3, 4))]))
    return tmp_path


_RECOVERY_LINE = (
    "# command=recovery-experiment n=3 m=2 s=1 seed=5 noise=0.10000000000000001 trials=1 signals= "
    "densify=4 width=4 learning_rate=0.0030000000000000001 steps=20 restarts=1 "
    "target_mse=2.0000000000000002e-05 optimizer=adam rip_delta={rip_delta}"
)

# Command line, then the first line of each artifact it writes; {tmp} stands
# for the directory of the inputs and outputs.
CONFIG_LINES = [
    ("probe-homogeneity --in {tmp}/net.json --seed 1 --points 8 --out {tmp}/out.csv",
     {"out.csv": "# command=probe-homogeneity in={tmp}/net.json seed=1 points=8 scales=0.5;1;2;10;100 "
                 "tolerance=9.9999999999999998e-13"}),
    ("probe-homogeneity --in {tmp}/net.json --seed 1 --points 8 --scales 0.5,3 --tolerance 1e-9 --out {tmp}/out.csv",
     {"out.csv": "# command=probe-homogeneity in={tmp}/net.json seed=1 points=8 scales=0.5;3 "
                 "tolerance=1.0000000000000001e-09"}),
    ("uat-negative --w 0.5,-1,2 --out {tmp}/out.csv",
     {"out.csv": "# command=uat-negative w=0.5;-1;2"}),
    ("rip --in {tmp}/a.csv --order 2 --out {tmp}/out.csv",
     {"out.csv": "# command=rip in={tmp}/a.csv gaussian_m= gaussian_n= seed= order=2 cap=200000"}),
    ("rip --gaussian-m 3 --gaussian-n 5 --seed 4 --order 2 --cap 100 --save-matrix {tmp}/m.csv --out {tmp}/out.csv",
     {"m.csv": "# command=rip in= gaussian_m=3 gaussian_n=5 seed=4 order=2 cap=100",
      "out.csv": "# command=rip in= gaussian_m=3 gaussian_n=5 seed=4 order=2 cap=100"}),
    ("conditioning --gaussian-m 3 --gaussian-n 5 --seed 4 --pairs 10 --norm-ii l2 --out {tmp}/out.csv",
     {"out.csv": "# command=conditioning in= gaussian_m=3 gaussian_n=5 seed=4 sparsity=1 pairs=10 norm_ii=l2"}),
    ("conditioning --in {tmp}/a.csv --seed 4 --sparsity 2 --pairs 10 --out {tmp}/out.csv",
     {"out.csv": "# command=conditioning in={tmp}/a.csv gaussian_m= gaussian_n= seed=4 sparsity=2 pairs=10 norm_ii=l1"}),
    ("lowrank-rip --in {tmp}/a.csv --rank 1 --samples 5 --seed 2 --out {tmp}/out.csv",
     {"out.csv": "# command=lowrank-rip in={tmp}/a.csv m= n= rank=1 samples=5 seed=2"}),
    ("lowrank-rip --m 6 --n 4 --rank 1 --samples 5 --seed 2 --out {tmp}/out.csv",
     {"out.csv": "# command=lowrank-rip in= m=6 n=4 rank=1 samples=5 seed=2"}),
    ("solve --variant qcbp --in {tmp}/a.csv --y 1,-0.5 --eta 0.05 --out {tmp}/out.csv",
     {"out.csv": "# command=solve variant=qcbp in={tmp}/a.csv y=1;-0.5 eta=0.050000000000000003 lam= tau= "
                 "tol=1e-08 max_iters=50000"}),
    ("solve --variant bpdn --in {tmp}/a.csv --y 1,-0.5 --lam 0.1 --tol 1e-6 --out {tmp}/out.csv",
     {"out.csv": "# command=solve variant=bpdn in={tmp}/a.csv y=1;-0.5 eta= lam=0.10000000000000001 tau= "
                 "tol=9.9999999999999995e-07 max_iters=50000"}),
    ("solve --variant lasso --in {tmp}/a.csv --y 1,-0.5 --tau 1 --max-iters 300 --out {tmp}/out.csv",
     {"out.csv": "# command=solve variant=lasso in={tmp}/a.csv y=1;-0.5 eta= lam= tau=1 tol=1e-08 max_iters=300"}),
    ("solve --variant dantzig --in {tmp}/a.csv --y 1,-0.5 --eta 0.05 --out {tmp}/out.csv",
     {"out.csv": "# command=solve variant=dantzig in={tmp}/a.csv y=1;-0.5 eta=0.050000000000000003 lam= tau= "
                 "tol=1e-08 max_iters=50000"}),
    ("ista --in {tmp}/d.csv --y 1,0.5 --lam 0.1 --iters 3 --out {tmp}/out.csv",
     {"out.csv": "# command=ista in={tmp}/d.csv y=1;0.5 lam=0.10000000000000001 step_bound=4 iters=3"}),
    ("ista --in {tmp}/d.csv --y 1,0.5 --lam 0.1 --step-bound 5 --iters 3 --out {tmp}/out.csv",
     {"out.csv": "# command=ista in={tmp}/d.csv y=1;0.5 lam=0.10000000000000001 step_bound=5 iters=3"}),
    ("lista --in {tmp}/d.csv --y 1,0.5 --lam 0.1 --depth 3 --out {tmp}/out.csv",
     {"out.csv": "# command=lista in={tmp}/d.csv y=1;0.5 lam=0.10000000000000001 step_bound=4 depth=3"}),
    ("robustness --net {tmp}/net.json --in {tmp}/a.csv --x 1,0,-1 --levels 0.01,0.1 --trials 2 --seed 3 "
     "--out {tmp}/out.csv",
     {"out.csv": "# command=robustness net={tmp}/net.json in={tmp}/a.csv x=1;0;-1 levels=0.01;0.10000000000000001 "
                 "trials=2 seed=3"}),
    ("impossibility-experiment --m 2 --n 3 --widths 2,3 --seed 1 --steps 20 --restarts 1 --out {tmp}/out.csv",
     {"out.csv": "# command=impossibility-experiment m=2 n=3 widths=2;3 seed=1 learning_rate=0.40000000000000002 "
                 "steps=20 restarts=1 target_mse=2.0000000000000002e-05"}),
    ("recovery-experiment --n 3 --m 2 --seed 5 --noise 0.1 --trials 1 --densify 4 --width 4 --steps 20 "
     "--restarts 1 --save-curves {tmp}/curves.csv --out {tmp}/out.csv",
     {"curves.csv": _RECOVERY_LINE, "out.csv": _RECOVERY_LINE}),
]


@pytest.mark.parametrize(
    "argv, lines", CONFIG_LINES, ids=[f"{argv.split()[0]}-{k}" for k, (argv, _) in enumerate(CONFIG_LINES)]
)
def test_configuration_lines(cli_inputs, capsys, argv, lines):
    # The isometry constant is measured, not a flag; it comes from the
    # same seeded 2 x 3 matrix the command draws.
    a = gaussian_matrix(np.random.default_rng([5, 0]), 2, 3)
    rip_delta = format_cell(bounds.rip_exhaustive(a, 2).delta)
    assert run(argv.format(tmp=cli_inputs).split()) == 0
    assert capsys.readouterr().err == ""
    for name, line in lines.items():
        first = (cli_inputs / name).read_text().splitlines()[0]
        assert first == line.format(tmp=cli_inputs, rip_delta=rip_delta)


@pytest.mark.parametrize(
    "argv",
    [
        "ista --in {tmp}/d.csv --y 1,0.5 --lam 0.1 --iters 3",
        "lista --in {tmp}/d.csv --y 1,0.5 --lam 0.1 --depth 3",
        "robustness --net {tmp}/net.json --in {tmp}/a.csv --x 1,0,-1 --levels 0.01,0.1 --trials 2 --seed 3",
    ],
    ids=["ista", "lista", "robustness"],
)
def test_stdout_carries_the_file_bytes(cli_inputs, capsys, argv):
    argv = argv.format(tmp=cli_inputs).split()
    out = cli_inputs / "out.csv"
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("variant, flag", [("qcbp", "eta"), ("bpdn", "lam"), ("lasso", "tau"), ("dantzig", "eta")])
def test_solve_without_its_parameter_exits_one(cli_inputs, capsys, variant, flag):
    assert run(["solve", "--variant", variant, "--in", str(cli_inputs / "a.csv"), "--y", "1,0"]) == 1
    assert capsys.readouterr().err == f"error: {variant} needs --{flag}\n"


@pytest.mark.parametrize(
    "variant, flag, other",
    [("qcbp", "eta", "lam"), ("bpdn", "lam", "eta"), ("lasso", "tau", "eta"), ("dantzig", "eta", "tau")],
)
def test_solve_with_another_variants_parameter_exits_one(cli_inputs, capsys, variant, flag, other):
    out = cli_inputs / "ignored.csv"
    argv = ["solve", "--variant", variant, "--in", str(cli_inputs / "a.csv"), "--y", "1,0"]
    assert run(argv + [f"--{flag}", "0.1", f"--{other}", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {variant} takes --{flag}, not --{other}\n"
    assert not out.exists()

"""Command-line entry point: reproducible, seeded experiments with CSV and
network-JSON artifacts.

Exit codes: 0 success, 1 rejected input (one machine-readable error line on
stderr), 2 iteration cap reached without convergence.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from . import bounds, experiments, homogenize, network, solvers
from .experiments import (
    format_cell,
    gaussian_matrix,
    read_matrix_csv,
    render_csv,
    write_csv,
    write_matrix_csv,
)
from .numerics import spectral_norm


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; rejected input must exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


# A leading minus sign followed by a digit or a point starts a number, never
# a flag of this program.
_NUMBER_START = re.compile(r"-\.?\d")


def _attach_negative_values(argv) -> list[str]:
    """Rewrite ``--flag -0.5,1`` as ``--flag=-0.5,1``: argparse takes a value
    with a leading minus for a flag unless it is a single plain number."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        if _NUMBER_START.match(arg) and prev.startswith("--") and len(prev) > 2 and "=" not in prev:
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def _floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _load_net(path) -> network.NetworkSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return network.deserialize(fh.read())


def _save_net(path, net: network.NetworkSpec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(network.serialize(net))


def _matrix_from_args(args):
    if args.infile:
        return read_matrix_csv(args.infile)
    if args.gaussian_m is None or args.gaussian_n is None:
        raise ValueError("provide --in or both --gaussian-m and --gaussian-n")
    if args.seed is None:
        raise ValueError("--seed is required when generating a matrix")
    return gaussian_matrix(np.random.default_rng([args.seed, 0]), args.gaussian_m, args.gaussian_n)


def _fit_config(args, width=None, optimizer="gd") -> homogenize.FitConfig:
    return homogenize.FitConfig(
        width=width if width is not None else args.width,
        learning_rate=args.learning_rate,
        steps=args.steps,
        restarts=args.restarts,
        seed=args.seed,
        target_mse=args.target_mse,
        optimizer=optimizer,
    )


def _add_fit_flags(p, width_default=128, learning_rate=0.4, steps=6000):
    if width_default is not None:
        p.add_argument("--width", type=int, default=width_default)
    p.add_argument("--learning-rate", type=float, default=learning_rate)
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--target-mse", type=float, default=2e-5)


@functools.cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process; ``parse_args``
    returns a fresh namespace each call."""
    parser = _Parser(prog="homogenlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homogenize", help="lift a one-hidden-layer net to a scale-invariant two-hidden-layer net")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("convert-activation", help="rewrite a bias-free relu net over alpha relu(x) + beta relu(-x)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pad", help="deepen a bias-free relu net with identity gadget layers")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("probe-homogeneity", help="measure the worst scaling defect of a network file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--points", type=int, default=network.ProbeConfig.num_points)
    p.add_argument("--scales", type=_floats, default=network.DEFAULT_PROBE_SCALES)
    p.add_argument("--tolerance", type=float, default=network.ProbeConfig.tolerance)
    p.add_argument("--out")

    p = sub.add_parser("lower-bound", help="one-hidden-layer reconstruction error floor for a direction set")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--identity-n", type=int)
    p.add_argument("--in", dest="infile", help="CSV matrix whose columns are unit directions")

    p = sub.add_parser("uat-negative", help="hard-instance bound or matrix for one-hidden-layer approximation")
    p.add_argument("--n", type=int)
    p.add_argument("--w", type=_floats, help="pairwise distinct slopes for the 2 x n matrix")
    p.add_argument("--out")

    p = sub.add_parser("rip", help="exhaustive restricted-isometry constants")
    p.add_argument("--in", dest="infile")
    p.add_argument("--gaussian-m", type=int)
    p.add_argument("--gaussian-n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--cap", type=int, default=bounds.DEFAULT_SUPPORT_CAP)
    p.add_argument("--save-matrix")
    p.add_argument("--out")

    p = sub.add_parser("conditioning", help="sampled expansion/contraction estimates of x -> A x on sparse signals")
    p.add_argument("--in", dest="infile")
    p.add_argument("--gaussian-m", type=int)
    p.add_argument("--gaussian-n", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sparsity", type=int, default=1)
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--norm-ii", choices=bounds.CONDITIONING_NORMS, default="l1")
    p.add_argument("--out")

    p = sub.add_parser("lowrank-rip", help="sampled isometry interval of the quadratic measurement map")
    p.add_argument("--in", dest="infile")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("solve", help="run one of the four l1 recovery programs")
    p.add_argument("--variant", choices=solvers.VARIANTS, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--y", type=_floats, required=True)
    p.add_argument("--eta", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--tol", type=float, default=solvers.SolveConfig.tol)
    p.add_argument("--max-iters", type=int, default=solvers.SolveConfig.max_iters)
    p.add_argument("--out")

    p = sub.add_parser("ista", help="shrinkage-thresholding trajectory")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--y", type=_floats, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--step-bound", type=float, help="default: squared spectral norm")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("lista", help="evaluate the unrolled shrinkage network")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--y", type=_floats, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--step-bound", type=float)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("brute-force", help="exhaustive sparse least squares")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--y", type=_floats, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--cap", type=int, default=bounds.DEFAULT_SUPPORT_CAP)

    p = sub.add_parser("robustness", help="perturbation-gain scan of a network file")
    p.add_argument("--net", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x", type=_floats, required=True)
    p.add_argument("--levels", type=_floats, required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("counterexample", help="exact minimizer of the scalar selection problem")
    p.add_argument("--y2", type=float, required=True)

    p = sub.add_parser("impossibility-experiment", help="trained one-hidden-layer nets against the error floor")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--widths", type=_ints, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_fit_flags(p, width_default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("recovery-experiment", help="two-hidden-layer recovery net error table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--noise", type=_floats, default=(1e-3, 1e-2, 1e-1))
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--signals", type=int)
    p.add_argument("--densify", type=int, default=homogenize.DENSIFY_POINTS)
    _add_fit_flags(p, learning_rate=3e-3, steps=1500)
    p.add_argument("--save-net")
    p.add_argument("--save-curves", help="per-coordinate training curves as CSV")
    p.add_argument("--out", required=True)

    return parser


#: Not part of an artifact's configuration line: the subcommand, which the
#: line names first, and the output paths.
_UNRECORDED = ("command", "out", "save_matrix", "save_net", "save_curves")


def _config(args, **resolved) -> dict:
    """Configuration line of an artifact: every flag of the subcommand in
    declaration order, ``--in`` as ``in``, an absent flag as an empty value
    and a list as its cells joined by ``;``. ``resolved`` replaces the value
    of a flag whose default the command worked out and appends settings
    without a flag and measured values."""
    config = {}
    for key, value in {**vars(args), **resolved}.items():
        if key in _UNRECORDED:
            continue
        if value is None:
            value = ""
        elif isinstance(value, (list, tuple)):
            value = ";".join(format_cell(v) for v in value)
        config["in" if key == "infile" else key] = value
    return config


def _print_or_write(args, command, config, header, rows):
    if getattr(args, "out", None):
        write_csv(args.out, command, config, header, rows)
    else:
        sys.stdout.write(render_csv(command, config, header, rows))


def _cmd_homogenize(args):
    _save_net(args.out, homogenize.homogenize_one_layer(_load_net(args.infile)))
    return 0


def _cmd_convert(args):
    net = network.convert_relu_to_activation(_load_net(args.infile), args.alpha, args.beta)
    _save_net(args.out, net)
    return 0


def _cmd_pad(args):
    _save_net(args.out, network.pad_identity_layers(_load_net(args.infile), args.depth))
    return 0


def _cmd_probe(args):
    net = _load_net(args.infile)
    probe = network.ProbeConfig(
        seed=args.seed,
        num_points=args.points,
        scales=tuple(args.scales),
        tolerance=args.tolerance,
    )
    report = network.check_positive_homogeneity(net, net.input_dim, probe)
    rows = [(report.max_defect, report.worst_scale, report.samples, report.passed)]
    if args.out:
        write_csv(args.out, "probe-homogeneity", _config(args), ("max_defect", "worst_scale", "samples", "passed"), rows)
    print(
        f"max_defect={format_cell(report.max_defect)} worst_scale={format_cell(report.worst_scale)} "
        f"samples={report.samples} passed={str(report.passed).lower()}"
    )
    return 0


def _cmd_lower_bound(args):
    if (args.identity_n is None) == (args.infile is None):
        raise ValueError("provide exactly one of --identity-n or --in")
    if args.identity_n is not None:
        directions = bounds.DirectionSet.identity(args.identity_n)
    else:
        directions = bounds.DirectionSet(read_matrix_csv(args.infile))
    print(f"{bounds.one_layer_lower_bound(args.m, directions):.8f}")
    return 0


def _cmd_uat_negative(args):
    if (args.n is None) == (args.w is None):
        raise ValueError("provide exactly one of --n or --w")
    if args.n is not None:
        print(f"{bounds.uat_negative_bound(args.n):.8f}")
        return 0
    matrix = bounds.uat_negative_matrix(np.array(args.w))
    config = {"w": ";".join(format_cell(v) for v in args.w)}
    if args.out:
        write_matrix_csv(args.out, matrix, "uat-negative", config)
    else:
        for row in matrix:
            print(",".join(format_cell(v) for v in row))
    return 0


def _cmd_rip(args):
    a = _matrix_from_args(args)
    report = bounds.rip_exhaustive(a, args.order, args.cap)
    config = _config(args)
    if args.save_matrix:
        write_matrix_csv(args.save_matrix, a, "rip", config)
    rows = [(report.order, report.delta, report.delta_lb, report.delta_ub, report.supports_checked)]
    if args.out:
        write_csv(args.out, "rip", config, ("order", "delta", "delta_lb", "delta_ub", "supports_checked"), rows)
    print(
        f"delta={format_cell(report.delta)} delta_lb={format_cell(report.delta_lb)} "
        f"delta_ub={format_cell(report.delta_ub)} supports={report.supports_checked}"
    )
    return 0


def _cmd_conditioning(args):
    a = _matrix_from_args(args)
    n = a.shape[1]
    sampler = experiments.sparse_signal_sampler(n, args.sparsity)
    report = bounds.empirical_conditioning(
        lambda x: x @ a.T, sampler, args.pairs, args.norm_ii, args.seed
    )
    rows = [(report.tau_hat, report.rho_hat, report.pairs_sampled, report.norm_ii_tag, report.norm_equiv_M)]
    if args.out:
        write_csv(args.out, "conditioning", _config(args), ("tau_hat", "rho_hat", "pairs_sampled", "norm_ii", "norm_equiv_M"), rows)
    print(
        f"tau_hat={format_cell(report.tau_hat)} rho_hat={format_cell(report.rho_hat)} "
        f"pairs={report.pairs_sampled} norm_equiv_M={format_cell(report.norm_equiv_M)}"
    )
    return 0


def _cmd_lowrank_rip(args):
    if args.infile:
        a = read_matrix_csv(args.infile)
    else:
        if args.m is None or args.n is None:
            raise ValueError("provide --in or both --m and --n")
        # unit-variance entries; the 1/m normalization lives in the sampled map
        a = np.random.default_rng([args.seed, 0]).standard_normal((args.m, args.n))
    lb, ub = bounds.lowrank_rip_sample(a, args.rank, args.samples, args.seed)
    if args.out:
        write_csv(args.out, "lowrank-rip", _config(args), ("delta_lb_hat", "delta_ub_hat"), [(lb, ub)])
    print(f"delta_lb_hat={format_cell(lb)} delta_ub_hat={format_cell(ub)}")
    return 0


def _cmd_solve(args):
    flag = solvers.PARAMETERS[args.variant]
    for other in sorted(set(solvers.PARAMETERS.values()) - {flag}):
        if getattr(args, other) is not None:
            raise ValueError(f"{args.variant} takes --{flag}, not --{other}")
    parameter = getattr(args, flag)
    if parameter is None:
        raise ValueError(f"{args.variant} needs --{flag}")
    a = read_matrix_csv(args.infile)
    problem = getattr(solvers, args.variant)(a, np.array(args.y), parameter)
    report = solvers.solve(problem, solvers.SolveConfig(max_iters=args.max_iters, tol=args.tol))
    fields = ("objective", "primal_residual", "dual_residual", "iterations", "converged", "uniqueness")
    header = fields + tuple(f"z{i}" for i in range(report.solution.size))
    rows = [tuple(getattr(report, field) for field in fields) + tuple(report.solution)]
    if args.out:
        write_csv(args.out, "solve", _config(args), header, rows)
    print(
        f"solution={','.join(format_cell(v) for v in report.solution)} "
        f"objective={format_cell(report.objective)} iterations={report.iterations} "
        f"converged={str(report.converged).lower()} uniqueness={report.uniqueness}"
    )
    return 0 if report.converged else 2


def _step_bound(args, a) -> float:
    """``--step-bound``, by default the squared spectral norm of ``a``."""
    if args.step_bound is None:
        return spectral_norm(a) ** 2
    return args.step_bound


def _cmd_ista(args):
    a = read_matrix_csv(args.infile)
    y = np.array(args.y)
    step_bound = _step_bound(args, a)
    trajectory = solvers.ista_run(a, y, args.lam, step_bound, args.iters)
    header = ("step", "objective") + tuple(f"z{i}" for i in range(trajectory.shape[1]))
    rows = [
        (k, solvers.ista_objective(a, y, args.lam, trajectory[k])) + tuple(trajectory[k])
        for k in range(trajectory.shape[0])
    ]
    _print_or_write(args, "ista", _config(args, step_bound=step_bound), header, rows)
    return 0


def _cmd_lista(args):
    a = read_matrix_csv(args.infile)
    step_bound = _step_bound(args, a)
    net = solvers.lista_from_ista(a, args.lam, step_bound, args.depth)
    final = solvers.lista_eval(net, args.y)
    header = tuple(f"z{i}" for i in range(final.size))
    _print_or_write(args, "lista", _config(args, step_bound=step_bound), header, [tuple(final)])
    return 0


def _cmd_brute_force(args):
    a = read_matrix_csv(args.infile)
    support, coeffs, residual = solvers.brute_force_sparse_fit(a, np.array(args.y), args.s, args.cap)
    print(
        f"support={','.join(str(i) for i in support)} "
        f"coefficients={','.join(format_cell(v) for v in coeffs)} "
        f"residual={format_cell(residual)}"
    )
    return 0


def _cmd_robustness(args):
    net = _load_net(args.net)
    a = read_matrix_csv(args.infile)
    rows = solvers.robustness_scan(net, a, np.array(args.x), args.levels, args.trials, args.seed)
    _print_or_write(args, "robustness", _config(args), ("noise_level", "trial", "ratio"), rows)
    return 0


def _cmd_counterexample(args):
    z1, multiple = solvers.selection_discontinuity_demo(args.y2)
    if multiple:
        print(f"z1 = {format_cell(z1)} (minimizer not unique)")
    else:
        print(f"z1 = {format_cell(z1)}")
    return 0


def _cmd_impossibility(args):
    fit = _fit_config(args, width=1)
    a, rows = experiments.impossibility_experiment(args.m, args.n, args.widths, fit)
    write_csv(args.out, "impossibility-experiment", _config(args), experiments.IMPOSSIBILITY_HEADER, rows)
    return 0


def _cmd_recovery(args):
    fit = _fit_config(args, optimizer="adam")
    curves = {} if args.save_curves else None
    a, net, rip, rows = experiments.recovery_experiment(
        args.n,
        args.m,
        args.s,
        fit,
        args.noise,
        trials=args.trials,
        num_signals=args.signals,
        densify_points=args.densify,
        curves=curves,
    )
    config = _config(args, optimizer=fit.optimizer, rip_delta=rip.delta)
    if args.save_net:
        _save_net(args.save_net, net)
    if args.save_curves:
        curve_rows = [
            (coord, restart, step, mse)
            for coord in sorted(curves)
            for restart, step, mse in curves[coord]
        ]
        write_csv(
            args.save_curves,
            "recovery-experiment",
            config,
            ("coordinate", "restart", "step", "mse"),
            curve_rows,
        )
    write_csv(args.out, "recovery-experiment", config, experiments.RECOVERY_HEADER, rows)
    return 0


_HANDLERS = {
    "homogenize": _cmd_homogenize,
    "convert-activation": _cmd_convert,
    "pad": _cmd_pad,
    "probe-homogeneity": _cmd_probe,
    "lower-bound": _cmd_lower_bound,
    "uat-negative": _cmd_uat_negative,
    "rip": _cmd_rip,
    "conditioning": _cmd_conditioning,
    "lowrank-rip": _cmd_lowrank_rip,
    "solve": _cmd_solve,
    "ista": _cmd_ista,
    "lista": _cmd_lista,
    "brute-force": _cmd_brute_force,
    "robustness": _cmd_robustness,
    "counterexample": _cmd_counterexample,
    "impossibility-experiment": _cmd_impossibility,
    "recovery-experiment": _cmd_recovery,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(argv))
        return _HANDLERS[args.command](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code in (None, 0) else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

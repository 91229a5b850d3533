"""Per-layer metrics from the spans of traced passes.

Names follow ``<module>.<quantity>``.  Totals (``_s``, ``_ms``) and counts
are per pass; ``_us`` figures are per call.  A layer that does no work on a
workload reports 0.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from spans import COMMAND_SPAN, self_times
from stats import median

PROX = ("numerics.soft_threshold", "numerics.project_l2_ball", "numerics.project_linf_ball")
PROBLEM_BUILDERS = ("solvers.qcbp", "solvers.bpdn", "solvers.lasso", "solvers.dantzig")
MCSHANE_CLOSURE = "homogenize.mcshane_extend.extended"

#: Outcome figures the workload checks compute from untraced passes; a
#: workload that has none of them reports 0.
UNTRACED = {
    "fail_frac": "ratio",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "recovery_err_max": "ratio",
    "heldout_mse": "mse",
    "solvers.iters_p50": "count",
    "solvers.iters_p90": "count",
    "solvers.converged_frac": "ratio",
    "solvers.verify_pass_frac": "ratio",
}

#: Shares of useful outcomes; every other per-layer metric is better lower.
HIGHER_IS_BETTER = (
    "homogenize.fit_target_hit_frac", "solvers.converged_frac", "solvers.verify_pass_frac",
)


def make_hooks(tracer, notes: dict[str, list]):
    """Hooks that record the counts spans cannot see into ``notes``."""
    for key in ("fits", "anchors", "lifted", "rip", "brute", "iters"):
        notes.setdefault(key, [])
    from homogenlab import homogenize

    fit_signature = inspect.signature(homogenize.fit_regression)

    def fit_regression(args, kwargs):
        # Steps are counted from the training curve fit_regression can fill.
        bound = fit_signature.bind(*args, **kwargs)
        if bound.arguments.get("curve") is None:
            bound.arguments["curve"] = []
        curve = bound.arguments["curve"]
        before = len(curve)
        _, mse = yield bound.args, bound.kwargs
        notes["fits"].append((len(curve) - before, mse, bound.arguments["config"].target_mse))

    def mcshane_extend(args, kwargs):
        extension = yield args, kwargs
        notes["anchors"].append(len(args[0]))
        return tracer.wrap(extension, MCSHANE_CLOSURE)

    def homogenize_one_layer(args, kwargs):
        net = yield args, kwargs
        notes["lifted"].append(net.hidden_widths[-1])

    def rip_exhaustive(args, kwargs):
        report = yield args, kwargs
        notes["rip"].append(report.supports_checked)

    def brute_force_sparse_fit(args, kwargs):
        yield args, kwargs
        n, s = np.shape(args[0])[1], args[2]
        notes["brute"].append(sum(math.comb(n, k) for k in range(1, s + 1)))

    def solve(args, kwargs):
        report = yield args, kwargs
        notes["iters"].append(report.iterations)

    return {
        "homogenize.fit_regression": fit_regression,
        "homogenize.mcshane_extend": mcshane_extend,
        "homogenize.homogenize_one_layer": homogenize_one_layer,
        "bounds.rip_exhaustive": rip_exhaustive,
        "solvers.brute_force_sparse_fit": brute_force_sparse_fit,
        "solvers.solve": solve,
    }


class SpanTable:
    def __init__(self, names, cols):
        self.names = list(names)
        self.cols = cols
        self.dur = cols["end"] - cols["start"]
        self.self = self_times(cols["sid"], cols["parent"], cols["start"], cols["end"], cols["thread"])

    def module(self, prefix: str) -> list[str]:
        return [n for n in self.names if n.startswith(prefix + ".")]

    def mask(self, *names):
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.cols["name"], ids)

    def count(self, *names) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def self_total(self, *names) -> float:
        return float(self.self[self.mask(*names)].sum())

    def mean(self, *names) -> float:
        d = self.dur[self.mask(*names)]
        return float(d.mean()) if d.size else 0.0

    def durations(self, *names) -> np.ndarray:
        return self.dur[self.mask(*names)]

    def pool_workers(self) -> int:
        """Most distinct worker threads that recorded spans for one command."""
        c = self.cols
        if COMMAND_SPAN not in self.names:
            return 0
        commands = self.mask(COMMAND_SPAN)
        main = set(c["thread"][commands].tolist())
        worker = ~np.isin(c["thread"], list(main)) & (c["cmd"] >= 0)
        best = 0
        for cmd in np.unique(c["cmd"][worker]):
            best = max(best, np.unique(c["thread"][worker & (c["cmd"] == cmd)]).size)
        return best


def per_layer(table: SpanTable, notes, passes: int, commands: int, overhead: float,
              untraced: dict) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    metrics = _span_metrics(table, notes, passes, commands)
    metrics.update({name: untraced.get(name, (0.0, unit)) for name, unit in UNTRACED.items()})
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def _span_metrics(table: SpanTable, notes, passes: int, commands: int) -> dict:
    t = table
    p = max(passes, 1)
    fits = notes["fits"]
    steps = sum(f[0] for f in fits)
    fit_s = t.total("homogenize.fit_regression")
    rip_supports = sum(notes["rip"])
    iters = sum(notes["iters"])
    solve_ms = t.durations("solvers.solve") * 1e3
    return {
        "homogenize.fit_regression_s": (fit_s / p, "s"),
        "homogenize.fit_steps": (steps / p, "count"),
        "homogenize.fit_step_us": (fit_s / steps * 1e6 if steps else 0.0, "us"),
        "homogenize.fit_train_mse_max": (max((f[1] for f in fits), default=0.0), "mse"),
        "homogenize.fit_target_hit_frac": (
            sum(f[1] <= f[2] for f in fits) / len(fits) if fits else 0.0, "ratio"),
        "homogenize.build_inverse_recovery_net_self_s": (
            t.self_total("homogenize.build_inverse_recovery_net") / p, "s"),
        "homogenize.anchors": (sum(notes["anchors"]) / p, "count"),
        "homogenize.mcshane_evals": (t.count(MCSHANE_CLOSURE) / p, "count"),
        "homogenize.mcshane_eval_us": (t.mean(MCSHANE_CLOSURE) * 1e6, "us"),
        "homogenize.minimal_consistent_lipschitz_us": (
            t.mean("homogenize.minimal_consistent_lipschitz") * 1e6, "us"),
        "homogenize.homogenize_one_layer_ms": (
            t.total("homogenize.homogenize_one_layer") / p * 1e3, "ms"),
        "network.lifted_width": (sum(notes["lifted"]) / p, "count"),
        "network.evaluate_calls": (t.count("network.evaluate") / p, "count"),
        "network.evaluate_us": (t.mean("network.evaluate") * 1e6, "us"),
        "network.check_positive_homogeneity_ms": (
            t.total("network.check_positive_homogeneity") / p * 1e3, "ms"),
        "network.serialize_ms": (t.total("network.serialize") / p * 1e3, "ms"),
        "network.deserialize_ms": (t.total("network.deserialize") / p * 1e3, "ms"),
        "bounds.rip_exhaustive_ms": (t.total("bounds.rip_exhaustive") / p * 1e3, "ms"),
        "bounds.rip_supports": (rip_supports / p, "count"),
        "bounds.rip_us_per_support": (
            t.total("bounds.rip_exhaustive") / rip_supports * 1e6 if rip_supports else 0.0, "us"),
        "numerics.extreme_eigenvalues_calls": (t.count("numerics.extreme_eigenvalues") / p, "count"),
        "numerics.extreme_eigenvalues_us": (t.mean("numerics.extreme_eigenvalues") * 1e6, "us"),
        "solvers.brute_force_ms": (t.total("solvers.brute_force_sparse_fit") / p * 1e3, "ms"),
        "solvers.brute_force_supports": (sum(notes["brute"]) / p, "count"),
        "solvers.robustness_scan_ms": (t.total("solvers.robustness_scan") / p * 1e3, "ms"),
        "solvers.solve_ms_p50": (median(solve_ms) or 0.0, "ms"),
        "solvers.us_per_iter": (t.total("solvers.solve") / iters * 1e6 if iters else 0.0, "us"),
        "solvers.problem_build_us": (t.mean(*PROBLEM_BUILDERS) * 1e6, "us"),
        "numerics.prox_calls": (t.count(*PROX) / p, "count"),
        "numerics.prox_us": (t.mean(*PROX) * 1e6, "us"),
        "numerics.as_vector_calls": (t.count("numerics.as_vector") / p, "count"),
        "numerics.matrix_norm_us": (t.mean("numerics.matrix_norm") * 1e6, "us"),
        "experiments.pool_workers": (t.pool_workers(), "count"),
        "experiments.impossibility_experiment_s": (
            t.total("experiments.impossibility_experiment") / p, "s"),
        "experiments.max_signed_basis_error_ms": (
            t.total("experiments.max_signed_basis_error") / p * 1e3, "ms"),
        "cli.self_ms": (t.self_total(*t.module("cli")) / max(commands, 1) * 1e3, "ms"),
        "experiments.read_matrix_csv_us": (t.mean("experiments.read_matrix_csv") * 1e6, "us"),
        "experiments.write_csv_ms": (t.total("experiments.write_csv") / p * 1e3, "ms"),
        "experiments.recovery_experiment_self_s": (
            t.self_total("experiments.recovery_experiment") / p, "s"),
    }

"""Seeded experiment drivers and CSV artifact helpers for the command line.

Every artifact starts with a comment line recording the full configuration so
a run can be reproduced; identical configurations produce byte-identical
files. Floats are printed with 17 significant digits.
"""

from __future__ import annotations

import dataclasses
import math
import re
import shlex
from typing import Iterable, Sequence

import numpy as np

from .bounds import DirectionSet, one_layer_lower_bound, rip_exhaustive
from .homogenize import DENSIFY_POINTS, FitConfig, build_inverse_recovery_net, fit_regressions
from .network import NetworkSpec, evaluate
from .numerics import row_norms, sphere_noise


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def format_row(cells) -> str:
    """One CSV row: every cell through ``format_cell``, comma-separated."""
    return ",".join(format_cell(cell) for cell in cells)


#: A bare value holding one of these would not read back whole via shlex.split.
_NEEDS_QUOTES = re.compile(r"[\s'\"\\]")


def _config_value(value) -> str:
    """A config value as written: None as empty, a list or tuple as its cells
    joined by ``;``, anything else through ``format_cell``."""
    if value is None:
        text = ""
    elif isinstance(value, (list, tuple)):
        text = ";".join(format_cell(v) for v in value)
    else:
        text = format_cell(value)
    return shlex.quote(text) if _NEEDS_QUOTES.search(text) else text


def config_line(command: str, config: dict) -> str:
    """``# command=... key=value ...``; ``shlex.split`` reads each pair back
    as one token, because values holding whitespace, quotes or backslashes
    are shell-quoted (all others stay bare). A value holding a line break
    has no one-line form and raises ``ValueError``."""
    parts = [f"command={_config_value(command)}"]
    parts += [f"{k}={_config_value(v)}" for k, v in config.items()]
    for part in parts:
        if "\n" in part or "\r" in part:
            raise ValueError(f"cannot record {part!r} on one line: the value holds a line break")
    return "# " + " ".join(parts)


def render_csv(command: str, config: dict, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [config_line(command, config), ",".join(header)]
    lines += [format_row(row) for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(path, command: str, config: dict, header: Sequence[str], rows) -> None:
    text = render_csv(command, config, header, rows)  # a rejected value leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_matrix_csv(path) -> np.ndarray:
    """Matrix from a CSV file, skipping blank and ``#`` lines. A cell that is
    not a finite number, or a row of another length, is rejected with the
    file, line and column."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            row = []
            for col, cell in enumerate(line.split(","), start=1):
                try:
                    value = float(cell)
                    finite = math.isfinite(value)
                except ValueError:
                    finite = False
                if not finite:
                    raise ValueError(
                        f"{path}:{lineno}: column {col}: expected a finite number, got {cell!r}"
                    )
                row.append(value)
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: ragged rows: {len(row)} columns, expected {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no numeric rows")
    return np.array(rows, dtype=np.float64)


def write_matrix_csv(path, m: np.ndarray, command: str, config: dict) -> None:
    lines = [config_line(command, config)]
    lines += [format_row(row) for row in np.atleast_2d(m)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Measurement matrix with N(0, 1/rows) entries and columns rescaled to
    unit l2, which keeps exhaustive isometry constants usable at desk scale."""
    if rows < 1 or cols < 1:
        raise ValueError(f"need at least one row and one column, got {rows} x {cols}")
    a = rng.standard_normal((rows, cols)) / np.sqrt(rows)
    return a / np.linalg.norm(a, axis=0, keepdims=True)


def sparse_signal_sampler(n: int, s: int):
    """Sampler of unit-norm s-sparse signals: each call draws a support and
    its values from the generator it is passed, and keeps no state."""
    if not 1 <= s <= n:
        raise ValueError(f"sparsity {s} out of range [1, {n}]")

    def sampler(rng: np.random.Generator) -> np.ndarray:
        x = np.zeros(n)
        support = np.sort(rng.choice(n, size=s, replace=False))
        vals = rng.standard_normal(s)
        vals /= np.linalg.norm(vals)
        x[support] = vals
        return x

    return sampler


def _signed_basis(n: int) -> np.ndarray:
    """The signed unit vectors e_0, -e_0, e_1, -e_1, ... as (2n, n) rows."""
    out = np.zeros((2 * n, n))
    rows = np.arange(2 * n)
    out[rows, rows // 2] = np.where(rows % 2 == 0, 1.0, -1.0)
    return out


def _errors(net: NetworkSpec, inputs: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """l2 error of net(y) against x for every row pair (y, x), in one batch."""
    return row_norms(evaluate(net, inputs) - signals)


def max_signed_basis_error(net: NetworkSpec, a: np.ndarray) -> float:
    """Largest l2 reconstruction error of net(A x) over the signed unit
    1-sparse vectors (equals the worst relative error for scale-invariant
    nets)."""
    x = _signed_basis(a.shape[1])
    return float(np.max(_errors(net, x @ a.T, x)))


IMPOSSIBILITY_HEADER = ("width", "max_rel_error", "lower_bound", "train_mse", "fit_ok")


def impossibility_experiment(
    m: int, n: int, widths: Sequence[int], fit: FitConfig
) -> tuple[np.ndarray, list[tuple]]:
    """Train one bias-free one-hidden-layer net per width to invert a seeded
    Gaussian map on 1-sparse signals and record its worst error over the
    signed basis next to the error floor sqrt(1 - m/n).

    Failed fits are flagged in the row, never dropped. m = n is allowed and
    produces degenerate rows with floor 0. Returns the matrix and the result
    rows.
    """
    if not 0 < m <= n:
        raise ValueError(f"need 0 < m <= n, got m={m}, n={n}")
    widths = [int(w) for w in widths]
    if not widths:
        raise ValueError("need at least one width")
    a = gaussian_matrix(np.random.default_rng([fit.seed, 0]), m, n)
    bound = one_layer_lower_bound(m, DirectionSet.identity(n))
    targets = _signed_basis(n)
    inputs = targets @ a.T

    configs = [
        dataclasses.replace(fit, width=width, seed=fit.seed * 1_000_003 + idx)
        for idx, width in enumerate(widths)
    ]

    def row(width, fitted):
        if fitted is None:
            return (width, float("nan"), bound, float("nan"), False)
        net, mse = fitted
        err = max_signed_basis_error(net, a)
        return (width, err, bound, mse, np.isfinite(err))

    fits = fit_regressions(inputs, targets, configs, unbiased=True)
    return a, [row(width, fitted) for width, fitted in zip(widths, fits)]


RECOVERY_HEADER = ("case", "index", "norm_x", "sparse_tail_l1", "norm_e", "error")


def sparse_tail_l1(x: np.ndarray, s: int) -> float | np.ndarray:
    """l1 distance of x to the set of s-sparse vectors (sum of all but the s
    largest magnitudes); one value per row for a 2-D x."""
    mags = np.sort(np.abs(x), axis=-1)[..., ::-1]
    return mags[..., s:].sum(axis=-1)


def recovery_experiment(
    n: int,
    m: int,
    s: int,
    fit: FitConfig,
    noise_levels: Sequence[float],
    trials: int = 8,
    num_signals: int | None = None,
    densify_points: int = DENSIFY_POINTS,
    curves: list | None = None,
) -> tuple[np.ndarray, NetworkSpec, "object", list[tuple]]:
    """Build the two-hidden-layer recovery net for a seeded Gaussian map and
    tabulate its errors on exactly sparse, approximately sparse, and noisy
    inputs.

    The isometry constant of order min(2s, n) is verified exhaustively before
    any training; the run is rejected when it reaches 1.
    The net trains on ``num_signals`` rows: the signed basis, cycled, for
    s = 1, and otherwise the sampler's draws from ``default_rng([seed, 101])``.
    Returns (matrix, net, rip report, rows).
    """
    sampler = sparse_signal_sampler(n, s)  # rejects an s outside [1, n]
    a = gaussian_matrix(np.random.default_rng([fit.seed, 0]), m, n)  # rejects m < 1
    norm_e, e = sphere_noise(np.random.default_rng([fit.seed, 9]), noise_levels, trials, m)
    if num_signals is None:
        num_signals = 10 * n if s == 1 else 12 * n
    if num_signals < 1:
        raise ValueError("need at least one signal")
    if densify_points < 0:
        raise ValueError("densify points must be non-negative")
    order = min(2 * s, n)
    rip = rip_exhaustive(a, order)
    if rip.delta >= 1.0:
        raise ValueError(f"RIP check failed: delta_{order} = {rip.delta:.6f} >= 1.0")
    if s == 1:
        exact = _signed_basis(n)
        signals = exact[np.arange(num_signals) % (2 * n)]
    else:
        rng_signals, rng_cases = (np.random.default_rng([fit.seed, k]) for k in (101, 7))
        signals = np.array([sampler(rng_signals) for _ in range(num_signals)]).reshape(-1, n)
        exact = np.array([sampler(rng_cases) for _ in range(2 * n)])
    net = build_inverse_recovery_net(a, signals, fit, densify_points=densify_points, curves=curves)

    # Row i of the approx and noisy blocks perturbs exact case i mod 2n.
    rng = np.random.default_rng([fit.seed, 8])
    approx = exact[np.arange(trials) % len(exact)] + 0.1 * rng.standard_normal((trials, n))
    noisy = exact[np.arange(len(norm_e)) % len(exact)]
    blocks = (
        ("zero", np.zeros((1, n)), np.zeros((1, m)), np.zeros(1)),
        ("exact", exact, exact @ a.T, np.zeros(len(exact))),
        ("approx", approx, approx @ a.T, np.zeros(trials)),
        ("noisy", noisy, noisy @ a.T + e, norm_e),
    )
    rows = []
    for case, x, y, level in blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            err = _errors(net, y, x)
        if not np.isfinite(err).all():  # only a huge noise level overflows
            raise ValueError(f"noise level {level[np.isfinite(err).argmin()]:g} is too large: the error overflows")
        cols = (row_norms(x), sparse_tail_l1(x, s), level, err)
        rows += [(case, idx, *map(float, row)) for idx, row in enumerate(zip(*cols))]
    return a, net, rip, rows

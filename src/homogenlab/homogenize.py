"""Exact scale-invariant lifting of one-hidden-layer approximators and the
full inverse-recovery pipeline built on it.

``homogenize_one_layer`` turns any (possibly biased) one-hidden-layer relu
network g into a bias-free two-hidden-layer relu network computing
``||x||_1 * g(x / ||x||_1)`` (and 0 at 0), which is scale invariant by
construction. The pipeline samples an inverse map on the l1 sphere of the
measurement space, densifies it with a Lipschitz inf-extension, fits a
one-hidden-layer net per output coordinate, and lifts the result.

``fit_regressions`` fits several widths and seeds to the same rows at once:
their restarts train side by side in one stack while they are small enough
(``STACK_BUDGET``), each to the bits of its own ``fit_regression``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .network import ActivationSpec, LayerSpec, NetworkSpec, unbiased_relu_net
from .numerics import as_matrix, as_rows, as_vector

#: Optimizers of ``fit_regression``: plain gradient descent, or Adam.
OPTIMIZERS = ("adam", "gd")

#: Adam (Kingma & Ba 2015, "Adam: a method for stochastic optimization"):
#: the moment decay rates and the denominator guard of the paper.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: Fits train side by side while merged rows x the sum of their widths stays
#: within this budget. Past it a step is bound by elementwise work, not call
#: overhead, and stacking was measured to gain little or lose; a larger fit
#: runs alone.
STACK_BUDGET = 16_384

#: Extra l1-sphere points the recovery pipeline densifies its samples with.
DENSIFY_POINTS = 96


@dataclass(frozen=True)
class FitConfig:
    """Full-batch settings for the one-hidden-layer fitter; ``optimizer``
    names the step rule, one of ``OPTIMIZERS``."""

    width: int
    learning_rate: float
    steps: int
    restarts: int
    seed: int
    target_mse: float = 0.0
    optimizer: str = "gd"

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; expected one of {OPTIMIZERS}")
        if self.width < 1:
            raise ValueError("width must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be a positive finite number")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if not 0 <= self.target_mse < math.inf:
            raise ValueError("target mse must be a non-negative finite number")


def sample_l1_sphere(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Draw points on the l1 unit sphere: Dirichlet magnitudes over the
    coordinates, independent random signs. Covers all faces."""
    mags = rng.dirichlet(np.ones(dim), size=count)
    signs = rng.integers(0, 2, size=(count, dim)) * 2 - 1
    return mags * signs


def homogenize_one_layer(g: NetworkSpec) -> NetworkSpec:
    """Lift a one-hidden-layer relu network g (biases allowed) to a bias-free
    two-hidden-layer relu network f with f(x) = ||x||_1 * g(x / ||x||_1) for
    x != 0 and f(0) = 0.

    Structure: first hidden layer [I; -I] of width 2m; per output coordinate j
    a second hidden block holding the lifted hidden units with a nonzero
    weight in row j of g's output layer, in order, plus one row computing
    ||x||_1; the output weights of block j are that row's nonzero weights
    followed by g's output bias j. A dense g gets p blocks of width k+1.
    """
    if g.depth != 1:
        raise ValueError(f"expected exactly one hidden layer, got depth {g.depth}")
    if not g.activation.is_plain_relu:
        raise ValueError("homogenization requires relu activation")
    w1 = g.layers[0].weights
    k, m = w1.shape
    b1 = g.layers[0].bias if g.layers[0].bias is not None else np.zeros(k)
    w2 = g.layers[1].weights
    p = w2.shape[0]
    b2 = g.layers[1].bias if g.layers[1].bias is not None else np.zeros(p)

    eye = np.eye(m)
    first = np.vstack([eye, -eye])  # (2m, m)

    # Applied to (relu(x); relu(-x)) these rows yield (W1 x + ||x||_1 b1; ||x||_1).
    rows = np.vstack([np.hstack([w1 + b1[:, None], -w1 + b1[:, None]]), np.ones((1, 2 * m))])
    out_weights = np.hstack([w2, b2[:, None]])  # (p, k + 1)
    keep = np.hstack([w2 != 0, np.ones((p, 1), dtype=bool)])
    out_idx, unit_idx = np.nonzero(keep)  # row-major: block j, norm row last
    final = np.zeros((p, out_idx.size))
    final[out_idx, np.arange(out_idx.size)] = out_weights[out_idx, unit_idx]
    return unbiased_relu_net([first, rows[unit_idx], final])


def radial_extend_l2(f_on_sphere: Callable) -> Callable:
    """Extend a map defined on the l2 unit sphere to all of R^n by
    f(x) = ||x||_2 * f(x / ||x||_2), with f(0) = 0.

    The extension is scale invariant by construction; if the sphere map is
    L-Lipschitz the extension is 2L-Lipschitz.
    """

    def extended(x):
        x = as_vector(x, "point")
        r = float(np.linalg.norm(x))
        if r == 0.0:
            probe = np.zeros(x.size)
            probe[0] = 1.0
            return 0.0 * np.asarray(f_on_sphere(probe), dtype=np.float64)
        return r * np.asarray(f_on_sphere(x / r), dtype=np.float64)

    return extended


def _pairwise_gaps(points, values):
    """Checked samples: points as (N, d) rows (a 1-D array is N scalars),
    values as (N, p) rows (a 1-D array is N scalars), both finite, N >= 1,
    with their pairwise l2 distances and largest per-coordinate value gaps."""
    u = as_rows(points, "points")
    v = as_rows(values, "values")
    if v.shape[0] != u.shape[0]:
        raise ValueError(f"{v.shape[0]} values for {u.shape[0]} points")
    if not u.shape[0]:
        raise ValueError("need at least one sample")
    dists = np.linalg.norm(u[:, None, :] - u[None, :, :], axis=2)
    gaps = np.abs(v[:, None, :] - v[None, :, :]).max(axis=2)
    return u, v, dists, gaps


def mcshane_extend(points, values, lipschitz: float) -> Callable:
    """Constructive Lipschitz extension of sampled values
    f_j(x) = min_i (v_i)_j + L ||x - u_i||_2 (per output coordinate).

    Samples must be consistent per coordinate,
    |(v_i)_j - (v_k)_j| <= L ||u_i - u_k||_2; inconsistent data is rejected
    naming the violating pair. Each coordinate of the extension is
    L-Lipschitz, so the vector map is sqrt(p) L-Lipschitz for p outputs.
    """
    if not 0 < lipschitz < math.inf:
        raise ValueError("Lipschitz constant must be a positive finite number")
    scalar_out = np.ndim(values) == 1
    u, v, dists, gaps = _pairwise_gaps(points, values)
    bad = gaps > lipschitz * dists + 1e-12
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ValueError(
            f"samples {i} and {k} are inconsistent with Lipschitz constant "
            f"{lipschitz}: value gap {gaps[i, k]} over distance {dists[i, k]}"
        )

    dim = u.shape[1]

    def extended(x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] != (dim,) or x.ndim > 2:
            raise ValueError(
                f"point shape {x.shape} does not match anchors of shape {u.shape}; "
                f"expected ({dim},) or (N, {dim})"
            )
        d = np.linalg.norm(u - x[..., None, :], axis=-1)
        out = np.min(v + lipschitz * d[..., None], axis=-2)
        if scalar_out:
            return out[..., 0] if out.ndim == 2 else float(out[0])
        return out

    return extended


def minimal_consistent_lipschitz(points, values) -> float:
    """Smallest per-coordinate Lipschitz constant under which the samples are
    mutually consistent (0 for a single sample)."""
    _, _, dists, gaps = _pairwise_gaps(points, values)
    mask = dists > 0
    return float(np.max(gaps[mask] / dists[mask], initial=0.0))


def _init_params(width, seed, restart, in_dim, out_dim, unbiased) -> np.ndarray:
    """Initial weights, flat in ``_param_views`` order; drawn w1, w2, then b1."""
    rng = np.random.default_rng([seed, restart])
    w1 = rng.standard_normal((width, in_dim)) / np.sqrt(in_dim)
    w2 = rng.standard_normal((out_dim, width)) / np.sqrt(width)
    if unbiased:
        return np.concatenate([w1.ravel(), w2.ravel()])
    b1 = 0.1 * rng.standard_normal(width)
    return np.concatenate([w1.ravel(), b1, w2.ravel(), np.zeros(out_dim)])


def _param_views(flat: np.ndarray, width, in_dim, out_dim, unbiased):
    """w1, b1, w2, b2 as reshaped views into consecutive slices of the last
    axis of ``flat``, keeping any leading stack axis; the biases are None
    when unbiased."""
    lead = flat.shape[:-1]
    bias_shapes = (None, None) if unbiased else ((width,), (out_dim,))
    shapes = [(width, in_dim), bias_shapes[0], (out_dim, width), bias_shapes[1]]
    views, start = [], 0
    for shape in shapes:
        if shape is None:
            views.append(None)
            continue
        size = math.prod(shape)
        views.append(flat[..., start : start + size].reshape(lead + shape))
        start += size
    return views


def _adam_step(theta, grad, m, v, scratch, lr: float, t: int) -> None:
    """Adam update number ``t`` of ``theta`` in place, with bias-corrected
    moments ``m`` and ``v``; ``grad`` is overwritten."""
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=scratch)
    m += scratch
    v *= ADAM_BETA2
    np.multiply(grad, grad, out=grad)
    grad *= 1.0 - ADAM_BETA2
    v += grad
    np.divide(v, 1.0 - ADAM_BETA2**t, out=grad)
    np.sqrt(grad, out=grad)
    grad += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**t, out=scratch)
    scratch *= lr
    scratch /= grad
    theta -= scratch


def _merge_repeated_rows(u: np.ndarray, t: np.ndarray):
    """Merge bitwise-identical (input, target) rows into one row each, in
    first-occurrence order, with the repeat count as a float weight column."""
    slot = {}
    keep, counts = [], []
    for i, row in enumerate(np.hstack([u, t])):
        j = slot.setdefault(row.tobytes(), len(keep))
        if j == len(keep):
            keep.append(i)
            counts.append(0.0)
        counts[j] += 1.0
    return u[keep], t[keep], np.array(counts)[:, None]


def _fit_stack(u, t, weight, denom, config: FitConfig, members, unbiased, record):
    """Train the (width, seed, restart) ``members`` side by side.

    Each member keeps its weights in the layout of a solo fit, one after the
    other in one flat vector, so every elementwise stage and the update run
    once for all members. Each product runs once per run of equal-width
    members, laid out like a solo fit's arrays, so every member trains to the
    bits of its solo fit (BLAS rounded width-1, 2, 3 and 5 products
    differently once they were padded to a wider width). A run of several
    members works on (members, rows, width) blocks with ``np.matmul``; a run of
    one keeps 2-D arrays and ``np.dot`` for the hidden-layer gradient. A member
    stops at a non-finite MSE or one at most the target: its weights are kept
    as they are then and zeroed with its residual, gradient scale and Adam
    moments, so every later update of it is exactly zero.

    Returns, per member, the MSE of its kept weights, those weights and, when
    ``record``, its MSE at every step it ran.
    """
    rows, in_dim = u.shape
    out_dim = t.shape[1]
    count = len(members)
    inits = [_init_params(*member, in_dim, out_dim, unbiased) for member in members]
    starts = np.cumsum([0] + [init.size for init in inits])
    theta = np.concatenate(inits)
    grad = np.empty_like(theta)
    edges = [0] + [r for r in range(1, count) if members[r][0] != members[r - 1][0]] + [count]
    hidden_size = sum((b - a) * rows * members[a][0] for a, b in zip(edges, edges[1:]))
    pre, hid, d_hid = np.empty(hidden_size), np.empty(hidden_size), np.empty(hidden_size)
    active = np.empty(hidden_size, dtype=bool)
    out, resid, sq, d_out = (np.empty((count, rows, out_dim)) for _ in range(4))
    # Every elementwise stage gets operands of one shape: broadcasting the
    # (rows, 1) weights against the member axis was measured slower.
    t, weight = (np.broadcast_to(x, out.shape).copy() for x in (t, weight))
    grad_scale = (2.0 / denom) * weight

    # Per run of equal-width members, the views each stage needs. matmul
    # leaves BLAS for the hidden-layer gradient when out_dim is 1 (about 3x
    # slower), so a run of one keeps 2-D views and np.dot; np.dot has no
    # batched form, so a longer run keeps matmul on its blocks.
    first, second, back, last, offset = [], [], [], [], 0
    for a, b in zip(edges, edges[1:]):
        width = members[a][0]
        lone = b - a == 1
        shape = () if lone else (b - a,)
        span = slice(offset, offset + (b - a) * rows * width)
        offset = span.stop
        g_pre, g_hid, g_d_hid = (x[span].reshape(shape + (rows, width)) for x in (pre, hid, d_hid))
        w1, b1, w2, b2, g_w1, g_b1, g_w2, g_b2 = (
            view
            for flat in (theta, grad)
            for view in _param_views(
                flat[starts[a] : starts[b]].reshape(shape + (-1,)), width, in_dim, out_dim, unbiased
            )
        )
        g_out, g_d_out = (out[a], d_out[a]) if lone else (out[a:b], d_out[a:b])
        b1_row, b2_row = (None, None) if unbiased else (b1[..., None, :], b2[..., None, :])
        first.append((np.swapaxes(w1, -1, -2), g_pre, b1_row))
        second.append((g_hid, np.swapaxes(w2, -1, -2), g_out, b2_row))
        hidden_grad = np.dot if lone else np.matmul
        back.append((np.swapaxes(g_d_out, -1, -2), g_hid, g_w2, hidden_grad, g_d_out, w2, g_d_hid))
        last.append((np.swapaxes(g_d_hid, -1, -2), g_w1, g_d_hid, g_b1, g_d_out, g_b2))
    sums = np.empty(count)
    sq_rows = sq.reshape(count, -1)
    adam = config.optimizer == "adam"
    if adam:
        moment1, moment2, scratch = np.zeros_like(theta), np.zeros_like(theta), np.empty_like(theta)

    def forward_mse():
        for w1_t, g_pre, b1_row in first:
            np.matmul(u, w1_t, out=g_pre)
            if b1_row is not None:
                np.add(g_pre, b1_row, out=g_pre)
        np.maximum(pre, 0.0, out=hid)
        for g_hid, w2_t, g_out, b2_row in second:
            np.matmul(g_hid, w2_t, out=g_out)
            if b2_row is not None:
                np.add(g_out, b2_row, out=g_out)
        np.subtract(out, t, out=resid)
        np.multiply(resid, resid, out=sq)
        np.multiply(sq, weight, out=sq)
        np.add.reduce(sq_rows, axis=1, out=sums)
        return np.divide(sums, denom, out=sums)

    # kept[r] = (mse, weights, steps run) once member r stops.
    kept = [None] * count
    live = list(range(count))
    trail = np.empty((config.steps, count)) if record else None
    for step in range(config.steps):
        mse = forward_mse()
        if trail is not None:
            trail[step] = mse
        values = mse.tolist()
        stopped = [r for r in live if not config.target_mse < values[r] < math.inf]
        if stopped:
            for r in stopped:
                span = slice(starts[r], starts[r + 1])
                kept[r] = (values[r], theta[span].copy(), step + 1)
                theta[span] = grad_scale[r] = resid[r] = 0.0
                if adam:
                    moment1[span] = moment2[span] = 0.0
            live = [r for r in live if kept[r] is None]
            if not live:
                break
        np.multiply(resid, grad_scale, out=d_out)
        for g_d_out_t, g_hid, g_w2, hidden_grad, g_d_out, w2, g_d_hid in back:
            np.matmul(g_d_out_t, g_hid, out=g_w2)
            hidden_grad(g_d_out, w2, out=g_d_hid)
        np.greater(pre, 0.0, out=active)
        d_hid *= active
        for g_d_hid_t, g_w1, g_d_hid, g_b1, g_d_out, g_b2 in last:
            np.matmul(g_d_hid_t, u, out=g_w1)
            if g_b1 is not None:
                np.add.reduce(g_d_hid, axis=-2, out=g_b1)
                np.add.reduce(g_d_out, axis=-2, out=g_b2)
        if adam:
            _adam_step(theta, grad, moment1, moment2, scratch, config.learning_rate, step + 1)
        else:
            grad *= config.learning_rate
            theta -= grad
    else:
        # The budget ran out after an update: report the returned weights.
        values = forward_mse().tolist()
        for r in live:
            kept[r] = (values[r], theta[starts[r] : starts[r + 1]], config.steps)

    outcomes = []
    for r, ((width, _, _), (mse, weights, ran)) in enumerate(zip(members, kept)):
        params = _param_views(weights, width, in_dim, out_dim, unbiased)
        outcomes.append((mse, params, None if trail is None else trail[:ran, r]))
    return outcomes


def fit_regressions(
    inputs, targets, configs, unbiased: bool = False, curves: list | None = None
) -> list[tuple[NetworkSpec, float] | None]:
    """Fit one one-hidden-layer relu network per config to the same (input,
    target) rows, as ``fit_regression`` would one by one, and return one
    (net, mse) per config, or None where every restart diverged.

    The configs may differ only in ``width`` and ``seed``. Every
    (config, restart) pair is a member of a stack that trains side by side
    (``_fit_stack``); members join a stack while merged rows x the sum of
    their widths stays within ``STACK_BUDGET``. Restarts come back in order,
    and each config keeps the best finite one by (mse, restart index) until
    one meets the target; restarts after that one are dropped, or not run
    when they fall in a later stack. Pass one list per config as ``curves``
    to collect its (restart, step, mse) rows.
    """
    u = as_rows(inputs, "inputs")
    t = as_rows(targets, "targets")
    if u.shape[0] == 0:
        raise ValueError("no training data")
    if t.shape[0] != u.shape[0]:
        raise ValueError(f"{t.shape[0]} targets for {u.shape[0]} inputs")
    configs = list(configs)
    if len({dataclasses.replace(c, width=1, seed=0) for c in configs}) > 1:
        raise ValueError("stacked fit configs may differ only in width and seed")
    if curves is not None and len(curves) != len(configs):
        raise ValueError(f"{len(curves)} curves for {len(configs)} configs")
    denom = u.shape[0] * t.shape[1]
    u, t, weight = _merge_repeated_rows(u, t)

    best, decided = [None] * len(configs), set()
    pending = [(c, r) for c in range(len(configs)) for r in range(configs[c].restarts)][::-1]
    while pending:
        chunk, load = [], 0
        while pending:
            c, r = pending[-1]
            if c in decided:  # an earlier restart met the target
                pending.pop()
                continue
            load += u.shape[0] * configs[c].width
            if chunk and load > STACK_BUDGET:
                break
            chunk.append(pending.pop())
        if not chunk:
            break
        members = [(configs[c].width, configs[c].seed, r) for c, r in chunk]
        # A diverging restart overflows; the stop rule handles its non-finite mse.
        with np.errstate(over="ignore", invalid="ignore"):
            stack = _fit_stack(u, t, weight, denom, configs[0], members, unbiased, curves is not None)
        for (c, r), (mse, params, trail) in zip(chunk, stack):
            if c in decided:
                continue
            if curves is not None:
                curves[c].extend((r, step, v) for step, v in enumerate(trail.tolist()))
            if math.isfinite(mse) and (best[c] is None or mse < best[c][0]):
                best[c] = (mse, params)
            if mse <= configs[c].target_mse:
                decided.add(c)

    results = []
    for fit in best:
        if fit is not None:
            mse, (w1, b1, w2, b2) = fit
            layers = (LayerSpec(w1, b1), LayerSpec(w2, b2))
            fit = (NetworkSpec(layers, ActivationSpec.relu(), unbiased=unbiased), mse)
        results.append(fit)
    return results


def fit_regression(
    inputs, targets, config: FitConfig, unbiased: bool = False, curve: list | None = None
) -> tuple[NetworkSpec, float]:
    """Fit a one-hidden-layer relu network to (input, target) rows by seeded
    full-batch gradient descent or Adam (``config.optimizer``) with restarts.

    Returns the best restart by (mse, restart index), where mse is that of
    the returned weights; deterministic given the config seed.
    ``unbiased=True`` pins all biases to zero so the fitted net is scale
    invariant. Pass a list as ``curve`` to collect (restart, step, mse)
    training-curve rows, one per step.

    Identical rows are merged once into one weighted row; the objective (mean
    squared error over all original rows) is unchanged, and data without
    repeats trains to the same bits as the plain per-row loop. Restarts that
    fit within ``STACK_BUDGET`` train side by side (``fit_regressions``);
    Adam's moments restart from zero with each restart.
    """
    (fit,) = fit_regressions(inputs, targets, [config], unbiased, None if curve is None else [curve])
    if fit is None:
        raise ValueError("all restarts diverged; reduce the learning rate")
    return fit


def build_inverse_recovery_net(
    a,
    signals,
    fit: FitConfig,
    densify_points: int = DENSIFY_POINTS,
    curves: list | None = None,
) -> NetworkSpec:
    """End-to-end construction of a bias-free two-hidden-layer relu network
    approximately inverting x -> A x on the (N, n) signal rows x_i.

    Pipeline: measure y_i = A x_i; form sphere pairs
    (y_i / ||y_i||_1, x_i / ||y_i||_1); densify with the Lipschitz
    inf-extension at extra l1-sphere points, whose Lipschitz constant is the
    smallest one consistent with the data plus 5% headroom; fit one
    hidden layer per output coordinate; put the n fits side by side in one
    net (stacked hidden layers, block-diagonal output weights) and lift it.

    Pass a list as ``curves`` to collect (coordinate, restart, step, mse)
    training-curve rows, one per step, in coordinate order.
    """
    a = as_matrix(a, "measurement matrix")
    m, n = a.shape
    signals = as_matrix(signals, "signals")
    if signals.shape[1] != n:
        raise ValueError(f"signals have {signals.shape[1]} columns, expected {n}")
    if not len(signals):
        raise ValueError("need at least one signal")
    if densify_points < 0:
        raise ValueError("densify points must be non-negative")
    # Row i of the stacked (1, n) @ (n, m) products is a @ signals[i], bit for
    # bit (as in numerics.row_norms); a plain signals @ a.T is not.
    y = (signals[:, None, :] @ a.T)[:, 0]
    scale = np.abs(y).sum(axis=1, keepdims=True)
    if not scale.all():
        raise ValueError(f"signal {int(np.argmin(scale))} in kernel of A")
    dirs = y / scale
    vals = signals / scale

    # The anchors are the distinct rows, by the fitter's own rule; a direction
    # sampled with two values reaches the extension's consistency check.
    anchor_dirs, anchor_vals, _ = _merge_repeated_rows(dirs, vals)
    lipschitz_bound = 1.05 * max(minimal_consistent_lipschitz(anchor_dirs, anchor_vals), 1e-12)
    extension = mcshane_extend(anchor_dirs, anchor_vals, lipschitz_bound)

    extra = sample_l1_sphere(np.random.default_rng([fit.seed, 202]), m, densify_points)
    train_dirs = np.vstack([dirs, extra])
    train_vals = np.vstack([vals, extension(extra)])

    hidden, outs = [], []
    for j in range(n):
        coord_fit = dataclasses.replace(fit, seed=fit.seed * 1_000_003 + j)
        curve = None if curves is None else []
        net_j, _ = fit_regression(train_dirs, train_vals[:, j], coord_fit, curve=curve)
        if curves is not None:
            curves.extend((j, *row) for row in curve)
        hidden.append(net_j.layers[0])
        outs.append(net_j.layers[1])
    # The n scalar fits side by side: stacked hidden layers, block-diagonal output.
    w2 = np.zeros((n, n * fit.width))
    w2[np.arange(n).repeat(fit.width), np.arange(n * fit.width)] = np.concatenate(
        [out.weights[0] for out in outs]
    )
    g = NetworkSpec(
        (
            LayerSpec(np.vstack([h.weights for h in hidden]), np.concatenate([h.bias for h in hidden])),
            LayerSpec(w2, np.concatenate([out.bias for out in outs])),
        ),
        ActivationSpec.relu(),
        unbiased=False,
    )
    return homogenize_one_layer(g)

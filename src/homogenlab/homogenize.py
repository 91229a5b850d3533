"""Exact scale-invariant lifting of one-hidden-layer approximators and the
full inverse-recovery pipeline built on it.

``homogenize_one_layer`` turns any (possibly biased) one-hidden-layer relu
network g into a bias-free two-hidden-layer relu network computing
``||x||_1 * g(x / ||x||_1)`` (and 0 at 0), which is scale invariant by
construction. The pipeline samples an inverse map on the l1 sphere of the
measurement space, densifies it with a Lipschitz inf-extension, fits a
one-hidden-layer net per output coordinate, and lifts the result.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .network import ActivationSpec, LayerSpec, NetworkSpec, unbiased_relu_net
from .numerics import as_matrix, as_vector

#: Optimizers of ``fit_regression``: plain gradient descent, or Adam.
OPTIMIZERS = ("adam", "gd")

#: Adam (Kingma & Ba 2015, "Adam: a method for stochastic optimization"):
#: the moment decay rates and the denominator guard of the paper.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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


def mcshane_extend(points, values, lipschitz: float) -> Callable:
    """Constructive Lipschitz extension of sampled values
    f_j(x) = min_i (v_i)_j + L ||x - u_i||_2 (per output coordinate).

    Samples must be consistent per coordinate,
    |(v_i)_j - (v_k)_j| <= L ||u_i - u_k||_2; inconsistent data is rejected
    naming the violating pair. Each coordinate of the extension is
    L-Lipschitz, so the vector map is sqrt(p) L-Lipschitz for p outputs.
    """
    if lipschitz <= 0:
        raise ValueError("Lipschitz constant must be positive")
    u = np.asarray(points, dtype=np.float64)
    if u.ndim == 1:
        u = u[:, None]
    u = as_matrix(u, "points")
    v = np.asarray(values, dtype=np.float64)
    scalar_out = v.ndim == 1
    if scalar_out:
        v = v[:, None]
    v = as_matrix(v, "values")
    if v.shape[0] != u.shape[0]:
        raise ValueError(f"{v.shape[0]} values for {u.shape[0]} points")

    dists = np.linalg.norm(u[:, None, :] - u[None, :, :], axis=2)
    gaps = np.abs(v[:, None, :] - v[None, :, :]).max(axis=2)
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
    u = as_matrix(np.atleast_2d(np.asarray(points, dtype=np.float64)), "points")
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    dists = np.linalg.norm(u[:, None, :] - u[None, :, :], axis=2)
    gaps = np.abs(v[:, None, :] - v[None, :, :]).max(axis=2)
    mask = dists > 0
    if not mask.any():
        return 0.0
    return float(np.max(gaps[mask] / dists[mask]))


def _init_params(rng, width, in_dim, out_dim, unbiased):
    w1 = rng.standard_normal((width, in_dim)) / np.sqrt(in_dim)
    w2 = rng.standard_normal((out_dim, width)) / np.sqrt(width)
    if unbiased:
        return w1, None, w2, None
    b1 = 0.1 * rng.standard_normal(width)
    b2 = np.zeros(out_dim)
    return w1, b1, w2, b2


def _param_views(flat: np.ndarray, width, in_dim, out_dim, unbiased):
    """w1, b1, w2, b2 as reshaped views into consecutive slices of one flat
    vector, in ``_init_params``'s order; the biases are None when unbiased."""
    bias_shapes = (None, None) if unbiased else ((width,), (out_dim,))
    shapes = [(width, in_dim), bias_shapes[0], (out_dim, width), bias_shapes[1]]
    views, start = [], 0
    for shape in shapes:
        if shape is None:
            views.append(None)
            continue
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
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
    repeats trains to the same bits as the plain per-row loop. Each restart
    keeps its weights in one flat vector, so a step updates all of them at
    once; Adam's moments restart from zero with each restart.
    """
    u = as_matrix(np.atleast_2d(np.asarray(inputs, dtype=np.float64)), "inputs")
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    t = as_matrix(t, "targets")
    if u.shape[0] == 0:
        raise ValueError("no training data")
    if t.shape[0] != u.shape[0]:
        raise ValueError(f"{t.shape[0]} targets for {u.shape[0]} inputs")
    n, in_dim = u.shape
    out_dim = t.shape[1]
    denom = n * out_dim
    u, t, weight = _merge_repeated_rows(u, t)
    grad_scale = (2.0 / denom) * weight

    # Step buffers, reused by every step of every restart.
    rows, width = u.shape[0], config.width
    pre = np.empty((rows, width))
    hid = np.empty((rows, width))
    d_hid = np.empty((rows, width))
    active = np.empty((rows, width), dtype=bool)
    out = np.empty((rows, out_dim))
    resid = np.empty((rows, out_dim))
    sq = np.empty((rows, out_dim))
    d_out = np.empty((rows, out_dim))
    size = width * (in_dim + out_dim) + (0 if unbiased else width + out_dim)
    grad = np.empty(size)
    g_w1, g_b1, g_w2, g_b2 = _param_views(grad, width, in_dim, out_dim, unbiased)
    adam = config.optimizer == "adam"
    if adam:
        moment1, moment2, scratch = np.empty(size), np.empty(size), np.empty(size)

    def forward_mse(w1, b1, w2, b2) -> float:
        np.matmul(u, w1.T, out=pre)
        if b1 is not None:
            np.add(pre, b1, out=pre)
        np.maximum(pre, 0.0, out=hid)
        np.matmul(hid, w2.T, out=out)
        if b2 is not None:
            np.add(out, b2, out=out)
        np.subtract(out, t, out=resid)
        np.multiply(resid, resid, out=sq)
        np.multiply(sq, weight, out=sq)
        return float(np.sum(sq)) / denom

    best = None
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        init = _init_params(rng, width, in_dim, out_dim, unbiased)
        theta = np.concatenate([p.ravel() for p in init if p is not None])
        w1, b1, w2, b2 = _param_views(theta, width, in_dim, out_dim, unbiased)
        lr = config.learning_rate
        if adam:
            moment1.fill(0.0)
            moment2.fill(0.0)
        for step in range(config.steps):
            mse = forward_mse(w1, b1, w2, b2)
            if curve is not None:
                curve.append((restart, step, mse))
            if not math.isfinite(mse) or mse <= config.target_mse:
                break
            np.multiply(resid, grad_scale, out=d_out)
            np.matmul(d_out.T, hid, out=g_w2)
            # matmul leaves BLAS for this product when out_dim is 1 (about 3x
            # slower); np.dot everywhere instead slowed fits run on two threads.
            np.dot(d_out, w2, out=d_hid)
            np.greater(pre, 0.0, out=active)
            d_hid *= active
            np.matmul(d_hid.T, u, out=g_w1)
            if not unbiased:
                np.sum(d_hid, axis=0, out=g_b1)
                np.sum(d_out, axis=0, out=g_b2)
            if adam:
                _adam_step(theta, grad, moment1, moment2, scratch, lr, step + 1)
            else:
                grad *= lr
                theta -= grad
        else:
            # The budget ran out after an update: report the returned weights.
            mse = forward_mse(w1, b1, w2, b2)
        if not math.isfinite(mse):
            continue
        if best is None or mse < best[0]:
            best = (mse, restart, w1, b1, w2, b2)
        if best[0] <= config.target_mse:
            break
    if best is None:
        raise ValueError("all restarts diverged; reduce the learning rate")
    mse, _, w1, b1, w2, b2 = best
    layers = (LayerSpec(w1, b1), LayerSpec(w2, b2))
    net = NetworkSpec(layers, ActivationSpec.relu(), unbiased=unbiased)
    return net, mse


def build_inverse_recovery_net(
    a,
    signal_sampler: Callable[[np.random.Generator], np.ndarray],
    fit: FitConfig,
    num_signals: int = 64,
    densify_points: int = 192,
    curves: dict[int, list] | None = None,
) -> NetworkSpec:
    """End-to-end construction of a bias-free two-hidden-layer relu network
    approximately inverting x -> A x on the signals the sampler produces.

    Pipeline: draw signals x_i and measurements y_i = A x_i; form sphere pairs
    (y_i / ||y_i||_1, x_i / ||y_i||_1); densify with the Lipschitz
    inf-extension at extra l1-sphere points, whose Lipschitz constant is the
    smallest one consistent with the data plus 5% headroom; fit one
    hidden layer per output coordinate; put the n fits side by side in one
    net (stacked hidden layers, block-diagonal output weights) and lift it.
    """
    a = as_matrix(a, "measurement matrix")
    m, n = a.shape
    if num_signals < 1:
        raise ValueError("need at least one signal")
    if densify_points < 0:
        raise ValueError("densify points must be non-negative")
    rng_signals = np.random.default_rng([fit.seed, 101])
    dirs = []
    vals = []
    for _ in range(num_signals):
        x = as_vector(signal_sampler(rng_signals), "sampled signal")
        if x.size != n:
            raise ValueError(f"sampled signal has length {x.size}, expected {n}")
        y = a @ x
        scale = float(np.abs(y).sum())
        if scale == 0.0:
            raise ValueError("signal in kernel of A")
        dirs.append(y / scale)
        vals.append(x / scale)
    dirs = np.array(dirs)
    vals = np.array(vals)

    # The extension only needs distinct directions (contradictory repeats are
    # rejected by its consistency check). Repeated draws stay in the training
    # data; fit_regression merges them into weighted rows, so they still count
    # once per draw in the objective.
    _, keep = np.unique(dirs.round(decimals=12), axis=0, return_index=True)
    keep.sort()
    anchor_dirs = dirs[keep]
    anchor_vals = vals[keep]

    lipschitz_bound = 1.05 * max(minimal_consistent_lipschitz(anchor_dirs, anchor_vals), 1e-12)
    extension = mcshane_extend(anchor_dirs, anchor_vals, lipschitz_bound)

    extra = sample_l1_sphere(np.random.default_rng([fit.seed, 202]), m, densify_points)
    train_dirs = np.vstack([dirs, extra])
    train_vals = np.vstack([vals, extension(extra)])

    hidden, outs = [], []
    for j in range(n):
        coord_fit = dataclasses.replace(fit, seed=fit.seed * 1_000_003 + j)
        curve = None if curves is None else curves.setdefault(j, [])
        net_j, _ = fit_regression(train_dirs, train_vals[:, j], coord_fit, curve=curve)
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

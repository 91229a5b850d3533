"""Feedforward networks: representation, evaluation, serialization, scaling
probes, and the two-parameter relu-family activation algebra.

A network is a chain of affine layers; the activation acts componentwise on
every hidden layer, the last layer stays affine. Bias-free relu networks are
positively scale-invariant: f(lam * x) = lam * f(x) for lam >= 0. The probe
utilities measure how badly a given function violates that identity.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import as_matrix, as_vector, read_only_copy

NAMED_ACTIVATIONS = ("tanh", "softplus")

DEFAULT_PROBE_SCALES = (0.5, 1.0, 2.0, 10.0, 100.0)

#: Rows per call of a map in ``map_rows``; bounds the memory of one block.
PROBE_CHUNK = 64


@dataclass(frozen=True)
class ActivationSpec:
    """Componentwise nonlinearity.

    ``relu_family`` is the two-parameter family
    ``sigma(x) = alpha * relu(x) + beta * relu(-x)``; the named kinds (tanh,
    softplus) exist as negative probes that are *not* scale invariant.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("relu_family",) + NAMED_ACTIVATIONS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("activation coefficients must be finite")

    @staticmethod
    def relu() -> "ActivationSpec":
        return ActivationSpec("relu_family", 1.0, 0.0)

    @staticmethod
    def relu_family(alpha: float, beta: float) -> "ActivationSpec":
        return ActivationSpec("relu_family", float(alpha), float(beta))

    @staticmethod
    def named(name: str) -> "ActivationSpec":
        if name not in NAMED_ACTIVATIONS:
            raise ValueError(f"unknown activation {name!r}; expected one of {NAMED_ACTIVATIONS}")
        return ActivationSpec(name)

    @property
    def is_relu_family(self) -> bool:
        return self.kind == "relu_family"

    @property
    def is_plain_relu(self) -> bool:
        return self.kind == "relu_family" and self.alpha == 1.0 and self.beta == 0.0

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.is_plain_relu:
            # + 0.0 turns any -0.0 into +0.0, as the two-sided formula does
            return np.maximum(x, 0.0) + 0.0
        if self.kind == "relu_family":
            return self.alpha * np.maximum(x, 0.0) + self.beta * np.maximum(-x, 0.0)
        if self.kind == "tanh":
            return np.tanh(x)
        return np.logaddexp(0.0, x)  # softplus


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer: ``weights @ x (+ bias)``."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        w = read_only_copy(as_matrix(self.weights, "weights"))
        object.__setattr__(self, "weights", w)
        if self.bias is not None:
            b = as_vector(self.bias, "bias")
            if b.size != w.shape[0]:
                raise ValueError(
                    f"bias length {b.size} does not match weight rows {w.shape[0]}"
                )
            object.__setattr__(self, "bias", read_only_copy(b))

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class NetworkSpec:
    """Layered feedforward network: hidden layers plus a final linear map.

    ``depth`` counts hidden layers (= len(layers) - 1, possibly 0).
    ``unbiased=True`` asserts that no layer carries a bias vector.
    """

    layers: tuple[LayerSpec, ...]
    activation: ActivationSpec
    unbiased: bool

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        object.__setattr__(self, "layers", layers)
        for i, (prev, cur) in enumerate(zip(layers, layers[1:])):
            if cur.in_dim != prev.out_dim:
                raise ValueError(
                    f"layers[{i + 1}]: input width {cur.in_dim} does not chain "
                    f"with previous output width {prev.out_dim}"
                )
        biased = [i for i, layer in enumerate(layers) if layer.bias is not None]
        if self.unbiased and biased:
            raise ValueError(f"layers[{biased[0]}]: bias present in a network flagged unbiased")

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(layer.out_dim for layer in self.layers[:-1])

    def __call__(self, x) -> np.ndarray:
        return evaluate(self, x)


def unbiased_relu_net(weight_list: Sequence) -> NetworkSpec:
    """Convenience constructor for a bias-free relu network."""
    return NetworkSpec(
        tuple(LayerSpec(w) for w in weight_list), ActivationSpec.relu(), unbiased=True
    )


def evaluate(net: NetworkSpec, x) -> np.ndarray:
    """Forward pass: activation on hidden layers, final layer affine.

    A vector of length ``input_dim`` maps to a vector of the last layer's
    output width; an (N, input_dim) batch maps to N such rows.
    """
    x = np.asarray(x, dtype=np.float64)
    h = as_matrix(x, "input batch") if x.ndim == 2 else as_vector(x, "input")[None, :]
    if h.shape[1] != net.input_dim:
        raise ValueError(f"input shape {x.shape} does not match network input {net.input_dim}")
    for i, layer in enumerate(net.layers):
        if i:
            h = net.activation.apply(h)
        h = h @ layer.weights.T
        if layer.bias is not None:
            h += layer.bias
    return h if x.ndim == 2 else h[0]


@dataclass(frozen=True)
class ProbeConfig:
    """Sampling plan for scaling probes; the seed is mandatory so probes are
    reproducible."""

    seed: int
    num_points: int = 64
    scales: tuple[float, ...] = DEFAULT_PROBE_SCALES
    tolerance: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        if self.num_points < 1:
            raise ValueError("probe needs at least one point")
        if not self.scales:
            raise ValueError("probe needs at least one scale")
        if not all(0 < s < math.inf for s in self.scales):
            raise ValueError("probe scales must be positive finite numbers")
        if not 0 <= self.tolerance < math.inf:
            raise ValueError("tolerance must be a non-negative finite number")


@dataclass(frozen=True)
class HomogeneityReport:
    """Worst observed scaling defect
    ``max ||f(lam x) - lam f(x)||_2 / (lam (1 + ||x||_2))`` over the probe."""

    max_defect: float
    worst_point: np.ndarray
    worst_scale: float
    samples: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_defect <= self.tolerance


def check_positive_homogeneity(
    f: Callable[[np.ndarray], np.ndarray], dim: int, probe: ProbeConfig
) -> HomogeneityReport:
    """Probe ``f`` on seeded standard-normal points and positive scales.

    ``f`` is called on batches: it maps an (N, dim) array to N output rows,
    as an (N, p) array or, for scalar outputs, an (N,) array. Networks
    qualify. Any other output shape raises ``ValueError``. Points go through
    ``map_rows``, once unscaled and once per scale.

    The defect is normalized by ``lam * (1 + ||x||_2)`` so it stays defined at
    the origin and is comparable across scales. The worst (point, scale) is
    the first maximum in point-major order. A non-finite defect (an output
    that overflows or is NaN) counts as infinite, so the probe fails there.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.default_rng(probe.seed)
    points = rng.standard_normal((probe.num_points, dim))
    base = map_rows(f, points)
    nx = np.linalg.norm(points, axis=1)
    defects = np.empty((probe.num_points, len(probe.scales)))
    for j, lam in enumerate(probe.scales):
        gap = map_rows(f, lam * points) - lam * base
        defects[:, j] = np.linalg.norm(gap, axis=1) / (lam * (1.0 + nx))
    defects[~np.isfinite(defects)] = np.inf
    i, j = np.unravel_index(np.argmax(defects), defects.shape)
    return HomogeneityReport(
        max_defect=float(defects[i, j]),
        worst_point=points[i].copy(),
        worst_scale=probe.scales[j],
        samples=probe.num_points * len(probe.scales),
        tolerance=probe.tolerance,
    )


def map_rows(f: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """``f`` applied to the rows of an (N, d) array, called on blocks of at
    most ``PROBE_CHUNK`` rows; returns (N, p). Each call must return one
    output row per input row, as (rows, p) or, for scalars, (rows,); any
    other shape raises ``ValueError``."""
    out = []
    for start in range(0, len(points), PROBE_CHUNK):
        block = points[start : start + PROBE_CHUNK]
        rows = np.asarray(f(block), dtype=np.float64)
        if rows.ndim not in (1, 2) or rows.shape[0] != len(block):
            raise ValueError(
                f"map returned shape {rows.shape} for an input batch of shape "
                f"{block.shape}; expected {len(block)} output rows"
            )
        out.append(rows.reshape(len(block), -1))
    return np.concatenate(out)


def convert_relu_to_activation(net: NetworkSpec, alpha: float, beta: float) -> NetworkSpec:
    """Rewrite a bias-free relu network over the activation
    ``sigma(x) = alpha relu(x) + beta relu(-x)`` without changing its values.

    Uses relu(x) = g1 sigma(x) - g2 sigma(-x) with g1 = alpha/(alpha^2-beta^2)
    and g2 = beta/(alpha^2-beta^2); every hidden width doubles.
    """
    if not net.unbiased:
        raise ValueError("conversion requires an unbiased network")
    if not net.activation.is_plain_relu:
        raise ValueError("conversion requires relu activation")
    activation = ActivationSpec.relu_family(alpha, beta)
    if abs(alpha) == abs(beta):
        raise ValueError("degenerate activation family: |alpha| == |beta|")
    denom = alpha * alpha - beta * beta
    if not sys.float_info.min <= abs(denom) < math.inf:
        raise ValueError(
            f"alpha^2 - beta^2 underflows or overflows for alpha={activation.alpha!r}, beta={activation.beta!r}"
        )
    g1 = alpha / denom
    g2 = beta / denom
    mats = [layer.weights for layer in net.layers]
    if len(mats) == 1:
        # no hidden layer, the activation is never applied
        return NetworkSpec(net.layers, activation, unbiased=True)
    new_mats = [np.vstack([mats[0], -mats[0]])]
    for w in mats[1:-1]:
        top = np.hstack([g1 * w, -g2 * w])
        new_mats.append(np.vstack([top, -top]))
    new_mats.append(np.hstack([g1 * mats[-1], -g2 * mats[-1]]))
    return NetworkSpec(
        tuple(LayerSpec(w) for w in new_mats),
        activation,
        unbiased=True,
    )


def pad_identity_layers(net: NetworkSpec, target_depth: int) -> NetworkSpec:
    """Deepen a bias-free relu network to ``target_depth`` hidden layers
    without changing its values, via relu(x) - relu(-x) = x gadget layers.

    The first inserted layer doubles the width feeding the final map; further
    insertions keep it.
    """
    if not net.unbiased:
        raise ValueError("padding requires an unbiased network")
    if not net.activation.is_plain_relu:
        raise ValueError("padding requires relu activation")
    if target_depth < net.depth:
        raise ValueError(f"target depth {target_depth} is below current depth {net.depth}")
    if target_depth == net.depth:
        return net
    mats = [layer.weights for layer in net.layers]
    k = mats[-1].shape[1]
    eye = np.eye(k)
    hidden = mats[:-1]
    hidden.append(np.vstack([eye, -eye]))
    keep = np.block([[eye, -eye], [-eye, eye]])
    for _ in range(target_depth - net.depth - 1):
        hidden.append(keep)
    hidden.append(np.hstack([mats[-1], -mats[-1]]))
    return unbiased_relu_net(hidden)


def sigma_gamma_probe(activation: ActivationSpec, gamma, probe: ProbeConfig) -> HomogeneityReport:
    """Scaling probe for the scalar chain
    ``g_k sigma(g_{k-1} sigma(... sigma(g_1 sigma(x)) ...))`` built from the
    given activation and coefficient vector ``gamma`` (k applications)."""
    g = as_vector(gamma, "gamma")
    if g.size == 0:
        raise ValueError("gamma must contain at least one coefficient")

    def chain(x):
        t = activation.apply(x)
        for c in g[:-1]:
            t = activation.apply(c * t)
        return g[-1] * t

    return check_positive_homogeneity(chain, 1, probe)


def serialize(net: NetworkSpec) -> str:
    """Network file format (JSON text, round-trips weights bit-exactly)."""
    if net.activation.is_relu_family:
        activation = {"relu_family": {"alpha": net.activation.alpha, "beta": net.activation.beta}}
    else:
        activation = {"named": net.activation.kind}
    doc = {
        "activation": activation,
        "unbiased": net.unbiased,
        "layers": [
            {
                "weights": layer.weights.tolist(),
                "bias": None if layer.bias is None else layer.bias.tolist(),
            }
            for layer in net.layers
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _expect(cond: bool, where: str, what: str):
    if not cond:
        raise ValueError(f"{where}: {what}")


def _located(where: str, build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _finite_number(v) -> bool:
    # Exact types: JSON true/false load as bool, a subclass of int.
    if type(v) is int:
        return abs(v) <= sys.float_info.max
    return type(v) is float and math.isfinite(v)


def _expect_number(v, where: str) -> None:
    _expect(_finite_number(v), where, f"expected a finite number, got {json.dumps(v)}")


def _expect_numbers(values: list, where: str) -> None:
    # Entry locations are formatted only once something is wrong.
    if not all(_finite_number(v) for v in values):
        for k, v in enumerate(values):
            _expect_number(v, f"{where}[{k}]")


def deserialize(text: str) -> NetworkSpec:
    """Parse the network file format, rejecting malformed documents with the
    offending location. The reader checks JSON types; the specs state the rest."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"document: invalid JSON ({exc})") from exc
    _expect(isinstance(doc, dict), "document", "expected a JSON object")

    act = doc.get("activation")
    _expect(isinstance(act, dict) and len(act) == 1, "activation", "expected one-key object")
    if "relu_family" in act:
        fam = act["relu_family"]
        _expect(
            isinstance(fam, dict) and set(fam) == {"alpha", "beta"},
            "activation.relu_family",
            "expected keys alpha, beta",
        )
        for key in ("alpha", "beta"):
            _expect_number(fam[key], f"activation.relu_family.{key}")
        activation = ActivationSpec.relu_family(fam["alpha"], fam["beta"])
    elif "named" in act:
        activation = _located("activation.named", ActivationSpec.named, act["named"])
    else:
        raise ValueError("activation: expected key 'relu_family' or 'named'")

    unbiased = doc.get("unbiased")
    _expect(isinstance(unbiased, bool), "unbiased", "expected a boolean")

    raw_layers = doc.get("layers")
    _expect(isinstance(raw_layers, list) and raw_layers, "layers", "expected a non-empty array")
    layers = []
    for i, entry in enumerate(raw_layers):
        where = f"layers[{i}]"
        _expect(isinstance(entry, dict), where, "expected an object")
        weights = entry.get("weights")
        _expect(isinstance(weights, list) and weights, f"{where}.weights", "expected a non-empty array of rows")
        for j, row in enumerate(weights):
            _expect(isinstance(row, list) and row, f"{where}.weights[{j}]", "expected a non-empty row")
            _expect_numbers(row, f"{where}.weights[{j}]")
            _expect(len(row) == len(weights[0]), f"{where}.weights[{j}]", "ragged rows")
        bias = entry.get("bias")
        if bias is not None:
            _expect(isinstance(bias, list), f"{where}.bias", "expected an array or null")
            _expect_numbers(bias, f"{where}.bias")
        layers.append(_located(where, LayerSpec, weights, bias))
    return NetworkSpec(tuple(layers), activation, unbiased)

"""Impossibility bounds and conditioning certificates.

Covers the one-hidden-layer reconstruction lower bound over a union of lines,
the hard-instance matrix and bound for scale-invariant approximation by
one-hidden-layer relu nets, exhaustive restricted-isometry constants,
sampled generalized-RIP intervals for rank-constrained measurements, and
sampled expansion/contraction estimates (tau, rho) of a forward map.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .numerics import as_matrix, as_vector, rank_truncate, singular_values

CONDITIONING_NORMS = ("l1", "l2", "nuclear")

DEFAULT_SUPPORT_CAP = 200_000

#: Supports per stacked linear-algebra call; bounds the memory of one chunk.
SUPPORT_CHUNK = 512

#: Direction columns must be unit l2 within this tolerance.
DIRECTION_TOL = 1e-12


@dataclass(frozen=True)
class DirectionSet:
    """Matrix whose columns are unit-l2 directions spanning a union of lines."""

    columns: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.columns, "directions")
        norms = np.linalg.norm(x, axis=0)
        off = np.abs(norms - 1.0)
        if np.any(off > DIRECTION_TOL):
            worst = int(np.argmax(off))
            raise ValueError(f"column {worst} has l2 norm {norms[worst]!r}, expected 1")
        x.setflags(write=False)
        object.__setattr__(self, "columns", x)

    @staticmethod
    def identity(n: int) -> "DirectionSet":
        return DirectionSet(np.eye(n))

    @property
    def count(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class RipReport:
    """Exhaustive restricted-isometry constants of order ``order``.

    ``delta_lb`` bounds the worst contraction (1 - min eigenvalue of a support
    Gram matrix), ``delta_ub`` the worst expansion; ``delta`` is their max.
    """

    order: int
    delta: float
    delta_lb: float
    delta_ub: float
    supports_checked: int


@dataclass(frozen=True)
class ConditioningReport:
    """One-sided sampled conditioning estimates of a forward map.

    ``tau_hat`` is the smallest observed l2 expansion ratio over pairs from
    the constraint set (an upper estimate of the true infimum tau);
    ``rho_hat`` the largest observed ratio against the second norm (a lower
    estimate of the true supremum rho). ``norm_equiv_M`` is the constant with
    ||.||_II <= M ||.||_2.
    """

    tau_hat: float
    rho_hat: float
    pairs_sampled: int
    norm_ii_tag: str
    norm_equiv_M: float

    def __post_init__(self):
        if self.tau_hat < 0:
            raise ValueError("tau_hat must be non-negative")
        if self.tau_hat > self.rho_hat * self.norm_equiv_M * (1.0 + 1e-9):
            raise ValueError(
                "inconsistent sampled ratios: tau_hat exceeds rho_hat * norm_equiv_M"
            )


def one_layer_lower_bound(m: int, directions: DirectionSet) -> float:
    """Reconstruction error floor sqrt(mean of squared singular values past
    the m-th) for the union of lines spanned by the direction columns; zero
    once m reaches the number of directions."""
    if m < 0:
        raise ValueError("number of measurements must be non-negative")
    n_dirs = directions.count
    if m >= n_dirs:
        return 0.0
    s = singular_values(directions.columns)
    tail = s[m:] if m < s.size else np.array([])
    return float(np.sqrt(np.sum(tail**2) / n_dirs))


def uat_negative_matrix(w) -> np.ndarray:
    """2 x n matrix with unit columns (1, w_k) / sqrt(1 + w_k^2); pairwise
    distinct slopes make every 2x2 subdeterminant nonzero."""
    w = as_vector(w, "slopes")
    if np.unique(w).size != w.size:
        raise ValueError("slopes must be pairwise distinct")
    scale = np.sqrt(1.0 + w**2)
    return np.vstack([np.ones_like(w), w]) / scale


def uat_negative_bound(n: int) -> float:
    """Error floor for approximating the hard scale-invariant target with a
    one-hidden-layer relu net mapping into R^n: sqrt(1 - 2/n) for n > 4,
    sqrt(n/8) for n <= 4."""
    if n < 1:
        raise ValueError("output dimension must be at least 1")
    if n > 4:
        return math.sqrt(1.0 - 2.0 / n)
    return math.sqrt(n / 8.0)


def support_chunks(n: int, t: int) -> Iterator[np.ndarray]:
    """Every size-``t`` subset of ``range(n)`` in lexicographic order, as
    consecutive (at most ``SUPPORT_CHUNK``, t) arrays of column indices."""
    combos = itertools.combinations(range(n), t)
    while True:
        chunk = np.fromiter(itertools.islice(combos, SUPPORT_CHUNK), dtype=(np.intp, (t,)))
        if not len(chunk):
            return
        yield chunk


def rip_exhaustive(a, t: int, cap: int = DEFAULT_SUPPORT_CAP) -> RipReport:
    """Exact order-``t`` restricted-isometry constants by enumerating every
    size-``t`` support (lexicographic) and taking extreme eigenvalues of the
    support Gram matrices, one stacked ``eigvalsh`` per chunk of supports.
    Rejected when C(n, t) exceeds ``cap``."""
    a = as_matrix(a, "measurement matrix")
    n = a.shape[1]
    if not 1 <= t <= n:
        raise ValueError(f"order {t} out of range [1, {n}]")
    count = math.comb(n, t)
    if count > cap:
        raise ValueError(f"support enumeration needs {count} supports, cap is {cap}")
    rows = a.T
    worst_lb = 0.0
    worst_ub = 0.0
    for supports in support_chunks(n, t):
        cols = rows[supports]  # (chunk, t, m): the transposed support columns
        eig = np.linalg.eigvalsh(cols @ cols.transpose(0, 2, 1))
        worst_lb = max(worst_lb, float(np.max(1.0 - eig[:, 0])))
        worst_ub = max(worst_ub, float(np.max(eig[:, -1] - 1.0)))
    return RipReport(
        order=t,
        delta=max(worst_lb, worst_ub),
        delta_lb=worst_lb,
        delta_ub=worst_ub,
        supports_checked=count,
    )


def _norm_ii(diff: np.ndarray, tag: str) -> float:
    if tag == "l1":
        return float(np.abs(diff).sum())
    if tag == "l2":
        return float(np.linalg.norm(diff))
    side = math.isqrt(diff.size)
    if side * side != diff.size:
        raise ValueError(f"nuclear norm needs a square-matrix vector, got length {diff.size}")
    return float(np.sum(singular_values(diff.reshape(side, side))))


def _norm_equiv_constant(dim: int, tag: str) -> float:
    if tag == "l1":
        return math.sqrt(dim)
    if tag == "l2":
        return 1.0
    return math.sqrt(math.isqrt(dim))


def empirical_conditioning(
    forward: Callable[[np.ndarray], np.ndarray],
    sampler: Callable[[np.random.Generator], np.ndarray],
    num_pairs: int,
    norm_ii_tag: str,
    seed: int,
) -> ConditioningReport:
    """Sampled conditioning of ``forward``: the smallest l2 expansion ratio
    over pairs from the sampler's constraint set and the largest ratio against
    the second norm over ambient pairs (the constraint-set pairs included, so
    the reported numbers are mutually consistent).

    Both numbers are one-sided: tau_hat can only overestimate the true
    infimum and rho_hat can only underestimate the true supremum; sampling
    certifies neither.
    """
    if norm_ii_tag not in CONDITIONING_NORMS:
        raise ValueError(f"unknown norm tag {norm_ii_tag!r}; expected one of {CONDITIONING_NORMS}")
    if num_pairs < 2:
        raise ValueError("need at least two pairs")
    rng = np.random.default_rng(seed)
    tau_hat = np.inf
    rho_hat = 0.0
    used = 0
    dim = None
    set_pairs = []
    for _ in range(num_pairs):
        x1 = as_vector(sampler(rng), "sampled point")
        x2 = as_vector(sampler(rng), "sampled point")
        dim = x1.size
        if np.array_equal(x1, x2):
            continue
        set_pairs.append((x1, x2))
    if not set_pairs:
        raise ValueError("all sampled pairs were degenerate")
    for x1, x2 in set_pairs:
        gap = float(np.linalg.norm(np.asarray(forward(x1)) - np.asarray(forward(x2))))
        tau_hat = min(tau_hat, gap / float(np.linalg.norm(x1 - x2)))
        rho_hat = max(rho_hat, gap / _norm_ii(x1 - x2, norm_ii_tag))
        used += 1
    for _ in range(num_pairs):
        x1 = rng.standard_normal(dim)
        x2 = rng.standard_normal(dim)
        denom = _norm_ii(x1 - x2, norm_ii_tag)
        if denom == 0.0:
            continue
        gap = float(np.linalg.norm(np.asarray(forward(x1)) - np.asarray(forward(x2))))
        rho_hat = max(rho_hat, gap / denom)
    return ConditioningReport(
        tau_hat=tau_hat,
        rho_hat=rho_hat,
        pairs_sampled=used,
        norm_ii_tag=norm_ii_tag,
        norm_equiv_M=_norm_equiv_constant(dim, norm_ii_tag),
    )


def lowrank_rip_sample(a, r: int, num_samples: int, seed: int) -> tuple[float, float]:
    """Sampled isometry interval of the rank-constrained quadratic measurement
    map: draws unit-Frobenius matrices of rank <= 2r (normalized products of
    Gaussian factors), evaluates (1/m) ||A(X)||_1, and returns
    (1 - min observed, max observed - 1)."""
    from .solvers import lowrank_forward  # solvers imports this module

    a = as_matrix(a, "measurement matrix")
    m, n = a.shape
    if m < 1:
        raise ValueError("measurement matrix has no rows")
    if not 1 <= 2 * r <= n:
        raise ValueError(f"rank {r} out of range: need 1 <= 2r <= {n}")
    if num_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    lo = np.inf
    hi = -np.inf
    for _ in range(num_samples):
        left = rng.standard_normal((n, 2 * r))
        right = rng.standard_normal((n, 2 * r))
        x = left @ right.T
        x /= np.linalg.norm(x)
        val = float(np.abs(lowrank_forward(a, x)).sum()) / m
        lo = min(lo, val)
        hi = max(hi, val)
    return 1.0 - lo, hi - 1.0


def eckart_young_gap(m, r: int, candidates: int, seed: int) -> tuple[float, float]:
    """Tail of the best rank-``r`` truncation of ``m`` next to the best
    Frobenius error among ``candidates`` random rank-``r`` matrices (each
    scaled optimally toward ``m``); the tail can never lose."""
    m = as_matrix(m, "matrix")
    _, tail = rank_truncate(m, r)
    rng = np.random.default_rng(seed)
    rows, cols = m.shape
    best = np.inf
    for _ in range(candidates):
        cand = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        sq = float(np.sum(cand * cand))
        if sq > 0.0:
            cand *= float(np.sum(m * cand)) / sq
        best = min(best, float(np.linalg.norm(m - cand)))
    return tail, best

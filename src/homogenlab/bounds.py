"""Impossibility bounds and conditioning certificates.

Covers the one-hidden-layer reconstruction lower bound over a union of lines,
the hard-instance matrix and bound for scale-invariant approximation by
one-hidden-layer relu nets, exhaustive restricted-isometry constants, the
quadratic and phase-retrieval forward operators with sampled generalized-RIP
intervals for rank-constrained measurements, the Eckart-Young truncation gap,
and sampled expansion/contraction estimates (tau, rho) of a forward map.

The sampled estimates take all their draws up front, in the order a
per-draw loop would, and evaluate them as stacked array operations; a
forward map is called on (N, d) batches through ``network.map_rows``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .network import map_rows
from .numerics import as_matrix, as_vector, check_signal, rank_truncate, read_only_copy, row_norms, singular_values

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
        if not x.shape[1]:
            raise ValueError("need at least one direction")
        norms = np.linalg.norm(x, axis=0)
        off = np.abs(norms - 1.0)
        if np.any(off > DIRECTION_TOL):
            worst = int(np.argmax(off))
            raise ValueError(f"column {worst} has l2 norm {float(norms[worst])!r}, expected 1")
        object.__setattr__(self, "columns", read_only_copy(x))

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
    s = singular_values(directions.columns)
    return float(np.sqrt(np.sum(s[m:] ** 2) / directions.count))


def uat_negative_matrix(w) -> np.ndarray:
    """2 x n matrix with unit columns (1, w_k) / sqrt(1 + w_k^2); pairwise
    distinct slopes make every 2x2 subdeterminant nonzero."""
    w = as_vector(w, "slopes")
    if not w.size:
        raise ValueError("need at least one slope")
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


def support_count(n: int, sizes, cap: int) -> int:
    """Sum of C(n, k) over the support ``sizes``; rejected above ``cap``."""
    count = sum(math.comb(n, k) for k in sizes)
    if count > cap:
        raise ValueError(f"support enumeration needs {count} supports, cap is {cap}")
    return count


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
    count = support_count(n, (t,), cap)
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


def _norm_ii(diff: np.ndarray, tag: str) -> tuple[np.ndarray, float]:
    """The second norm of every row of ``diff`` and the constant M with
    ||.||_II <= M ||.||_2 on rows of that length."""
    if tag == "l1":
        return np.abs(diff).sum(axis=1), math.sqrt(diff.shape[1])
    if tag == "l2":
        return row_norms(diff), 1.0
    side = math.isqrt(diff.shape[1])
    if side * side != diff.shape[1]:
        raise ValueError(f"nuclear norm needs a square-matrix vector, got length {diff.shape[1]}")
    return np.linalg.svd(diff.reshape(-1, side, side), compute_uv=False).sum(axis=1), math.sqrt(side)


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

    ``sampler`` is called 2 * ``num_pairs`` times, in pair order, and the
    ambient pairs come next from the same generator. ``forward`` maps an
    (N, d) batch to N rows; it is called through ``map_rows`` on every pair
    except the coinciding ones, which are dropped. A NaN gap raises.

    Both numbers are one-sided: tau_hat can only overestimate the true
    infimum and rho_hat can only underestimate the true supremum; sampling
    certifies neither.
    """
    if norm_ii_tag not in CONDITIONING_NORMS:
        raise ValueError(f"unknown norm tag {norm_ii_tag!r}; expected one of {CONDITIONING_NORMS}")
    if num_pairs < 2:
        raise ValueError("need at least two pairs")
    rng = np.random.default_rng(seed)
    points = np.stack([as_vector(sampler(rng), "sampled point") for _ in range(2 * num_pairs)])
    dim = points.shape[1]
    pairs = points.reshape(num_pairs, 2, dim)
    pairs = pairs[np.any(pairs[:, 0] != pairs[:, 1], axis=1)]
    used = len(pairs)
    if not used:
        raise ValueError("all sampled pairs were degenerate")
    ambient = rng.standard_normal((num_pairs, 2, dim))
    ambient = ambient[_norm_ii(ambient[:, 0] - ambient[:, 1], norm_ii_tag)[0] != 0.0]
    pairs = np.concatenate([pairs, ambient])
    diff = pairs[:, 0] - pairs[:, 1]
    norms_ii, norm_equiv = _norm_ii(diff, norm_ii_tag)
    images = map_rows(forward, pairs.reshape(-1, dim)).reshape(len(pairs), 2, -1)
    gaps = row_norms(images[:, 0] - images[:, 1])
    if np.isnan(gaps).any():
        raise ValueError("forward map returned NaN")
    return ConditioningReport(
        tau_hat=float(np.min(gaps[:used] / row_norms(diff[:used]))),
        rho_hat=float(np.max(gaps / norms_ii)),
        pairs_sampled=used,
        norm_ii_tag=norm_ii_tag,
        norm_equiv_M=norm_equiv,
    )


def lowrank_forward(a, x) -> np.ndarray:
    """Quadratic measurement map of a square matrix: component j is
    row_j(A) X row_j(A)^T. An (S, n, n) stack of matrices maps to (S, m)."""
    a = as_matrix(a, "measurement matrix")
    x = np.asarray(x, dtype=np.float64)
    n = a.shape[1]
    if x.ndim > 3 or x.shape[-2:] != (n, n):
        raise ValueError(f"matrix signal must be {n}x{n} or a stack of them, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix signal contains non-finite entries")
    return np.einsum("jk,...kl,jl->...j", a, x, a)


def phase_retrieval_forward(a, x) -> np.ndarray:
    """Componentwise squared measurements |A x|^2; invariant under x -> -x and
    identical to the quadratic map applied to x x^T."""
    a, x = check_signal(a, x)
    z = a @ x
    return z * z


def lowrank_rip_sample(a, r: int, num_samples: int, seed: int) -> tuple[float, float]:
    """Sampled isometry interval of the rank-constrained quadratic measurement
    map: draws unit-Frobenius matrices of rank <= 2r (normalized products of
    Gaussian factors, all samples in one draw), evaluates (1/m) ||A(X)||_1,
    and returns (1 - min observed, max observed - 1)."""
    a = as_matrix(a, "measurement matrix")
    m, n = a.shape
    if m < 1:
        raise ValueError("measurement matrix has no rows")
    if not 1 <= 2 * r <= n:
        raise ValueError(f"rank {r} out of range: need 1 <= 2r <= {n}")
    if num_samples < 1:
        raise ValueError("need at least one sample")
    factors = np.random.default_rng(seed).standard_normal((num_samples, 2, n, 2 * r))
    x = factors[:, 0] @ factors[:, 1].transpose(0, 2, 1)
    x /= row_norms(x.reshape(num_samples, -1))[:, None, None]
    vals = np.abs(lowrank_forward(a, x)).sum(axis=1) / m
    return 1.0 - float(vals.min()), float(vals.max()) - 1.0


def eckart_young_gap(m, r: int, candidates: int, seed: int) -> tuple[float, float]:
    """Tail of the best rank-``r`` truncation of ``m`` next to the best
    Frobenius error among ``candidates`` random rank-``r`` matrices (each
    scaled optimally toward ``m``; a zero candidate stays zero); the tail can
    never lose."""
    m = as_matrix(m, "matrix")
    _, tail = rank_truncate(m, r)
    rows, cols = m.shape
    draws = np.random.default_rng(seed).standard_normal((candidates, rows * r + r * cols))
    left = draws[:, : rows * r].reshape(candidates, rows, r)
    right = draws[:, rows * r :].reshape(candidates, r, cols)
    flat = (left @ right).reshape(candidates, rows * cols)
    sq = (flat * flat).sum(axis=1)
    scale = np.divide((m.ravel() * flat).sum(axis=1), sq, out=np.ones_like(sq), where=sq > 0.0)
    flat *= scale[:, None]
    return tail, float(np.min(row_norms(m.ravel() - flat), initial=np.inf))

"""Dense linear algebra primitives shared by the rest of the package.

Everything works on float64 numpy arrays and is a pure function of its inputs,
a random generator counting as one. Non-finite input, dimension mismatches
and out-of-range parameters raise ``ValueError``.
"""

from __future__ import annotations

import math

import numpy as np

# Singular values below RANK_TOLERANCE * sigma_max count as zero for rank
# decisions.
RANK_TOLERANCE = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array, rejecting everything else."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_rows(a, name: str = "rows") -> np.ndarray:
    """``as_matrix`` with a 1-D array read as one column of N rows."""
    m = np.asarray(a, dtype=np.float64)
    return as_matrix(m[:, None] if m.ndim == 1 else m, name)


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-D array, rejecting everything else."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def check_measurement(a, y) -> tuple[np.ndarray, np.ndarray]:
    """Validated matrix and measurement, the measurement one entry per row."""
    a = as_matrix(a, "measurement matrix")
    y = as_vector(y, "measurement")
    if y.size != a.shape[0]:
        raise ValueError(f"measurement length {y.size} does not match {a.shape[0]} rows")
    return a, y


def check_signal(a, x) -> tuple[np.ndarray, np.ndarray]:
    """Validated matrix and signal, the signal one entry per column."""
    a = as_matrix(a, "measurement matrix")
    x = as_vector(x, "signal")
    if x.size != a.shape[1]:
        raise ValueError(f"signal length {x.size} does not match {a.shape[1]} columns")
    return a, x


def read_only_copy(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a`` in its own memory layout, so that a product
    with it gives the bits of the same product with ``a``."""
    out = a.copy(order="K")
    out.setflags(write=False)
    return out


def singular_values(m) -> np.ndarray:
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def numerical_rank(m) -> int:
    """Rank of ``m`` with singular values below ``RANK_TOLERANCE * sigma_max``
    treated as zero."""
    s = singular_values(m)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOLERANCE * s[0]))


def row_norms(m: np.ndarray) -> np.ndarray:
    """l2 norm of every row of a 2-D array, bit for bit ``np.linalg.norm`` of
    that row: each stacked (1, d) @ (d, 1) product runs the same dot kernel."""
    return np.sqrt((m[:, None, :] @ m[:, :, None]).ravel())


def sphere_noise(rng: np.random.Generator, levels, trials: int, dim: int):
    """Per level, ``trials`` rows uniform on the l2 sphere of that radius in
    R^dim, level-major from one normal draw: (radius of each row, rows)."""
    levels = [float(v) for v in levels]
    if not levels:
        raise ValueError("need at least one noise level")
    if not all(0 < v < math.inf for v in levels):
        raise ValueError("noise levels must be positive finite numbers")
    if trials < 1:
        raise ValueError("need at least one trial per noise level")
    radii = np.repeat(levels, trials)
    e = rng.standard_normal((radii.size, dim))
    e *= (radii / row_norms(e))[:, None]
    return radii, e


def spectral_norm(m) -> float:
    """Largest singular value of ``m`` (0 for an empty matrix)."""
    s = singular_values(m)
    return float(s[0]) if s.size else 0.0


def rank_truncate(m, r: int) -> tuple[np.ndarray, float]:
    """Best rank-``r`` approximation (SVD truncation) and the Frobenius norm of
    the discarded tail, ``sqrt(sum of squared discarded singular values)``."""
    m = as_matrix(m)
    max_rank = min(m.shape)
    if not 0 <= r <= max_rank:
        raise ValueError(f"rank {r} out of range [0, {max_rank}]")
    if r == max_rank:
        return m, 0.0
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    tail = float(np.sqrt(np.sum(s[r:] ** 2)))
    return (u[:, :r] * s[:r]) @ vt[:r], tail

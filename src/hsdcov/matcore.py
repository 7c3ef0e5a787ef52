"""Dense real matrix kernels: norms, Cholesky, symmetric eigenvalues,
pairwise squared distances.

Everything operates on plain ``numpy.ndarray`` objects (row-major semantics)
and is a pure function of its inputs, so concurrent use is safe. Tolerances
are expressed relative to problem scale throughout.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

Matrix = NDArray[np.float64]

SYMMETRY_RTOL = 1e-12


class NotPositiveDefinite(Exception):
    """LAPACK rejected the matrix, or a Cholesky pivot fell at or below the
    positive-definiteness threshold."""


class EigenConvergenceError(Exception):
    """LAPACK's symmetric eigensolver did not converge."""


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Coerce to a finite 2-d float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def check_symmetric(s, name: str = "matrix") -> Matrix:
    """Validate ``|S[i,j] - S[j,i]| <= 1e-12 * (1 + |S[i,j]|)`` and return S."""
    m = as_matrix(s, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    gap = np.abs(m - m.T)
    tol = SYMMETRY_RTOL * (1.0 + np.abs(m))
    if np.any(gap > tol):
        raise ValueError(f"{name} is not symmetric within tolerance")
    return m


def frobenius_norm_sq(m) -> float:
    """Sum of squared entries."""
    a = as_matrix(m)
    return float(np.sum(a * a))


def cholesky(s) -> Matrix:
    """Lower-triangular L with ``L @ L.T == S``, from LAPACK.

    Raises ``NotPositiveDefinite`` when LAPACK rejects S or a pivot
    ``L[j, j]**2`` is at or below ``dim * 1e-12 * max(diag(S))``.
    """
    a = check_symmetric(s, "cholesky input")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    threshold = n * 1e-12 * max(float(np.max(np.diag(a))), 0.0)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{exc} (threshold {threshold:.3e})") from exc
    pivots = np.diag(lower) ** 2
    j = int(np.argmin(pivots))
    if pivots[j] <= threshold:
        raise NotPositiveDefinite(
            f"pivot {pivots[j]:.3e} at column {j} (threshold {threshold:.3e})"
        )
    return lower


def sym_eigenvalues(s) -> Matrix:
    """Eigenvalues of a symmetric matrix, nondecreasing, from LAPACK."""
    a = check_symmetric(s, "eigensolver input")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc


def pairwise_sq_distances(x) -> Matrix:
    """n x n matrix of squared Euclidean distances between rows of ``x``.

    Computed via ``|a|^2 + |b|^2 - 2 a.b`` on column-centred rows; negative
    round-off is clamped to zero. The diagonal is exactly zero, and the result
    is exactly symmetric: the Gram matrix is, and ``|a|^2 + |b|^2`` is one term.
    """
    m = as_matrix(x, "observations")
    if m.shape[0] < 1:
        raise ValueError("need at least one observation row")
    m = m - m.mean(axis=0)
    d = m @ m.T
    sq = np.diag(d).copy()
    # row blocks of 1 MiB: no n x n temporary, and each block stays in cache
    step = max(1, (1 << 17) // d.shape[0])
    for lo in range(0, d.shape[0], step):
        block = d[lo : lo + step]
        block *= -2.0
        block += sq[lo : lo + step, None] + sq
        np.maximum(block, 0.0, out=block)
    np.fill_diagonal(d, 0.0)
    return d

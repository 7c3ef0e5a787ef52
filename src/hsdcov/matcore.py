"""Dense real matrix kernels: norms, Cholesky, pairwise squared distances.

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


def pairwise_sq_distances(x) -> Matrix:
    """n x n matrix of squared Euclidean distances between rows of ``x``.

    Computed via ``|a|^2 + |b|^2 - 2 a.b`` on column-centred rows. Where that
    cancels, below 1e-4 of the largest centred |a|^2 (the only place it can go
    negative), round-off is clamped to zero, equal rows are set to zero and
    distinct rows are retaken from the difference of their input rows. The
    diagonal is exactly zero, and the result is exactly symmetric: the Gram
    matrix is, ``|a|^2 + |b|^2`` is one term, and b - a is a - b negated.
    """
    m = as_matrix(x, "observations")
    if m.shape[0] < 1:
        raise ValueError("need at least one observation row")
    c = m - m.mean(axis=0)
    d = c @ c.T
    sq = np.diag(d).copy()
    cut = 1e-4 * sq.max()
    row_ids = None
    # row blocks, and retakes, of 1 MiB: no n x n or n^2 x p temporary
    step = max(1, (1 << 17) // d.shape[0])
    for lo in range(0, d.shape[0], step):
        block = d[lo : lo + step]
        block *= -2.0
        block += sq[lo : lo + step, None] + sq
        np.fill_diagonal(block[:, lo:], np.inf)
        if block.min() < cut:
            np.maximum(block, 0.0, out=block)
            if row_ids is None:
                # byte-equal rows share an id: equal rows are set to 0, not retaken
                rows = np.ascontiguousarray(m).view(np.dtype((np.void, 8 * m.shape[1])))
                row_ids = np.unique(rows.ravel(), return_inverse=True)[1]
            same = row_ids[lo : lo + step, None] == row_ids
            np.putmask(block, same, 0.0)
            # flat indices: twice as fast as a 2-d np.nonzero
            i, j = np.divmod(np.flatnonzero((block < cut) & ~same), d.shape[0])
            chunk = max(1, (1 << 17) // m.shape[1])
            for s in range(0, i.size, chunk):
                ii, jj = i[s : s + chunk], j[s : s + chunk]
                diff = m[lo + ii] - m[jj]
                block[ii, jj] = np.einsum("ij,ij->i", diff, diff)
    np.fill_diagonal(d, 0.0)
    return d

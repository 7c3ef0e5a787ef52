"""Closed-form population quantities for jointly Gaussian blocks: mean and
variance expansions of the sample distance covariance, the local shift
parameter driving test power, kernel scaling factors, theoretical power, and
the rank-four perturbation eigenvalue identity used by the minimax prior."""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .matcore import (
    Matrix,
    NotPositiveDefinite,
    as_matrix,
    check_symmetric,
    cholesky,
    frobenius_norm_sq,
    sym_eigenvalues,
)
from .dcovstats import KernelSpec


class DegenerateKernel(Exception):
    """Kernel derivative vanishes at the operating ratio tau/gamma."""


class DegenerateBlocks(Exception):
    """A marginal covariance block has zero Frobenius norm or trace."""


@dataclass(frozen=True)
class CovarianceBlocks:
    """Population covariance split into marginal blocks and the cross block.

    The assembled [[S_x, S_xy], [S_yx, S_y]] must be symmetric and positive
    semidefinite (checked through a Cholesky of the matrix plus 1e-10 I).
    """

    sigma_x: Matrix
    sigma_xy: Matrix
    sigma_y: Matrix

    def __post_init__(self):
        sx = check_symmetric(self.sigma_x, "sigma_x")
        sy = check_symmetric(self.sigma_y, "sigma_y")
        sxy = as_matrix(self.sigma_xy, "sigma_xy")
        if sxy.shape != (sx.shape[0], sy.shape[0]):
            raise ValueError(
                f"sigma_xy must be {sx.shape[0]} x {sy.shape[0]}, "
                f"got {sxy.shape}"
            )
        object.__setattr__(self, "sigma_x", sx)
        object.__setattr__(self, "sigma_xy", sxy)
        object.__setattr__(self, "sigma_y", sy)
        full = self.full()
        try:
            cholesky(full + 1e-10 * np.eye(full.shape[0]))
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                f"assembled covariance is not positive semidefinite: {exc}"
            ) from exc

    @property
    def p(self) -> int:
        return self.sigma_x.shape[0]

    @property
    def q(self) -> int:
        return self.sigma_y.shape[0]

    @functools.cached_property
    def cholesky_factor(self) -> Matrix:
        """Cholesky factor of ``full()``, computed on first use and kept
        (concurrent first uses may each compute it). Raises
        ``NotPositiveDefinite`` for a singular covariance."""
        return cholesky(self.full())

    def full(self) -> Matrix:
        top = np.hstack([self.sigma_x, self.sigma_xy])
        bottom = np.hstack([self.sigma_xy.T, self.sigma_y])
        return np.vstack([top, bottom])

    @classmethod
    def identity_blocks(cls, p: int, q: int, rho_xy: float) -> "CovarianceBlocks":
        """S_x = I_p, S_y = I_q, S_xy = rho on the leading diagonal."""
        return cls(np.eye(p), rho_xy * np.eye(p, q), np.eye(q))


class VarianceParts(NamedTuple):
    sigma1_sq: float
    sigma2_sq: float
    total: float


@dataclass
class TheoryReport:
    """Bundle of the closed-form predictions for one (blocks, n, alpha)."""

    tau_x_sq: float
    tau_y_sq: float
    mean: float
    sigma1_sq: float
    sigma2_sq: float
    sigma_sq: float
    local_a: float
    power: float
    warnings: list = field(default_factory=list)


def tau_sq(sigma_half) -> float:
    """Mean squared distance between independent copies: 2 tr(Sigma)."""
    m = as_matrix(sigma_half, "sigma")
    if m.shape[0] != m.shape[1]:
        raise ValueError("tau_sq needs a square block")
    return 2.0 * float(np.trace(m))


def mean_expansion(blocks: CovarianceBlocks) -> float:
    """Leading term of the distance covariance: |S_xy|_F^2 / (tau_x tau_y).

    The relative remainder is O(1/min(tau_x, tau_y)) and is not computed.
    """
    tx_sq = tau_sq(blocks.sigma_x)
    ty_sq = tau_sq(blocks.sigma_y)
    if tx_sq <= 0 or ty_sq <= 0:
        raise DegenerateBlocks("mean expansion requires positive traces")
    return frobenius_norm_sq(blocks.sigma_xy) / math.sqrt(tx_sq * ty_sq)


def _variance_parts(sx: Matrix, sxy: Matrix, sy: Matrix, n: int) -> VarianceParts:
    if n < 2:
        raise ValueError(f"variance formula needs n >= 2, got {n}")
    syx = sxy.T
    tx_sq = tau_sq(sx)
    ty_sq = tau_sq(sy)
    if tx_sq <= 0 or ty_sq <= 0:
        raise DegenerateBlocks("variance formula requires positive traces")
    f2 = frobenius_norm_sq(sxy)
    f_x = frobenius_norm_sq(sx)
    f_y = frobenius_norm_sq(sy)
    # traces of products as tr(P M) = sum(P * M^T)
    sigma1 = (4.0 / (n * tx_sq * ty_sq)) * (
        frobenius_norm_sq(sxy @ syx)
        + float(np.sum(sxy @ sy @ syx * sx.T))
        + f2 * f2 * f_x / (2.0 * tx_sq * tx_sq)
        + f2 * f2 * f_y / (2.0 * ty_sq * ty_sq)
        - (2.0 * f2 / tx_sq) * float(np.sum(sxy @ syx * sx.T))
        - (2.0 * f2 / ty_sq) * float(np.sum(syx @ sxy * sy.T))
        + f2 * f2 * f2 / (tx_sq * ty_sq)
    )
    sigma2 = (2.0 / (n * (n - 1) * tx_sq * ty_sq)) * (f_x * f_y + f2 * f2)
    if sigma1 < 0:
        warnings.warn(
            "first-order variance term is negative; covariance lies outside "
            "the bounded-spectrum regime",
            RuntimeWarning,
            stacklevel=3,
        )
    return VarianceParts(sigma1, sigma2, sigma1 + sigma2)


def sigma_bar_sq(blocks: CovarianceBlocks, n: int) -> VarianceParts:
    """First- and second-order variance contributions of the sample distance
    covariance, and their sum.

    sigma1 can turn negative for covariances outside the bounded-spectrum
    regime; the value is reported faithfully with a warning rather than
    clamped, since clamping would corrupt standardization checks.
    """
    return _variance_parts(blocks.sigma_x, blocks.sigma_xy, blocks.sigma_y, n)


def sigma_bar_sq_marginal(sigma_x, n: int) -> VarianceParts:
    """Marginal analogue of ``sigma_bar_sq`` for one block: its value at
    S_x = S_y = S_xy = sigma_x. The blocks are not assembled, since
    [[S, S], [S, S]] is singular."""
    sx = check_symmetric(sigma_x, "sigma_x")
    return _variance_parts(sx, sx, sx, n)


def local_param_A(blocks: CovarianceBlocks, n: int) -> float:
    """Local shift parameter n |S_xy|_F^2 / (|S_x|_F |S_y|_F)."""
    fx = math.sqrt(frobenius_norm_sq(blocks.sigma_x))
    fy = math.sqrt(frobenius_norm_sq(blocks.sigma_y))
    if fx <= 0 or fy <= 0:
        raise DegenerateBlocks("local parameter requires nondegenerate marginals")
    return n * frobenius_norm_sq(blocks.sigma_xy) / (fx * fy)


def varrho(
    kernels: tuple[KernelSpec, KernelSpec],
    gamma: tuple[float, float],
    blocks: CovarianceBlocks,
) -> float:
    """Scaling factor relating kernelized and plain distance covariance:
    f_x'(tau_x/gamma_x) f_y'(tau_y/gamma_y) / (gamma_x gamma_y).

    Exact for the identity kernel; leading-order otherwise. Raises
    ``DegenerateKernel`` when a derivative magnitude falls below 1e-12.
    """
    gx, gy = gamma
    if not (gx > 0 and gy > 0):
        raise ValueError("bandwidths must be positive")
    rho_x = math.sqrt(tau_sq(blocks.sigma_x)) / gx
    rho_y = math.sqrt(tau_sq(blocks.sigma_y)) / gy
    dx = float(kernels[0].f_prime(rho_x))
    dy = float(kernels[1].f_prime(rho_y))
    if abs(dx) < 1e-12 or abs(dy) < 1e-12:
        raise DegenerateKernel(
            f"kernel derivative too small at operating point: "
            f"f_x'({rho_x:.4g})={dx:.3e}, f_y'({rho_y:.4g})={dy:.3e}"
        )
    return dx * dy / (gx * gy)


def theoretical_power(blocks: CovarianceBlocks, n: int, alpha: float) -> float:
    """First-order power of the distance correlation test at level alpha:
    Phi(m - z) + Phi(-m - z) with m = A(Sigma)/sqrt(2) and z = z_{alpha/2}."""
    from .testkit import normal_cdf, normal_quantile

    m = local_param_A(blocks, n) / math.sqrt(2.0)
    z = normal_quantile(alpha / 2.0)
    return normal_cdf(m - z) + normal_cdf(-m - z)


# eigenvalues of the perturbation above this magnitude count as nontrivial
NONTRIVIAL_TOL = 1e-8


@dataclass
class EigencheckReport:
    max_identity_error: float
    nontrivial_eigencount: int
    lambda_values: list


def _sign_vector(v, length_name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).ravel()
    if not np.all(np.abs(arr) == 1.0):
        raise ValueError(f"{length_name} must contain only +1/-1 entries")
    return arr


def minimax_eigencheck(
    u_signs: tuple[Sequence[float], Sequence[float]],
    v_signs: tuple[Sequence[float], Sequence[float]],
    a: float,
) -> EigencheckReport:
    """Numerically verify the rank-four perturbation identity behind the
    minimax prior construction.

    Builds the perturbation from two sign-pattern draws per side (scaled to
    norm sqrt(pq)), computes its spectrum with the dense eigensolver, pairs
    the nontrivial eigenvalues against their closed-form grouping, and checks

        (1+l1)(1+l2) = (1+l3)(1+l4)
                     = 1 + a^2/(1-(apq)^2) (p^2 q^2 - <u1,u2><v1,v2>).

    Requires nonempty sign vectors and |a| p q < 1.
    """
    s1 = _sign_vector(u_signs[0], "u_signs[0]")
    s2 = _sign_vector(u_signs[1], "u_signs[1]")
    t1 = _sign_vector(v_signs[0], "v_signs[0]")
    t2 = _sign_vector(v_signs[1], "v_signs[1]")
    if s1.size != s2.size or t1.size != t2.size:
        raise ValueError("sign vectors in a pair must share a length")
    p, q = s1.size, t1.size
    if p == 0 or q == 0:
        raise ValueError("sign vectors must be nonempty")
    if abs(a) * p * q >= 1.0:
        raise ValueError(f"|a| p q = {abs(a) * p * q} must be < 1")

    u1, u2 = (np.concatenate([math.sqrt(q) * s, np.zeros(q)]) for s in (s1, s2))
    v1, v2 = (np.concatenate([np.zeros(p), math.sqrt(p) * t]) for t in (t1, t2))

    apq = a * p * q
    c1 = a / (2.0 * (1.0 + apq))
    c2 = a / (2.0 * (1.0 - apq))
    pert = (
        -c1 * (np.outer(u1 + v1, u1 + v1) + np.outer(u2 + v2, u2 + v2))
        + c2 * (np.outer(u1 - v1, u1 - v1) + np.outer(u2 - v2, u2 - v2))
    )

    spectrum = sym_eigenvalues(pert)
    nontrivial = spectrum[np.abs(spectrum) > NONTRIVIAL_TOL]

    uu = float(u1 @ u2)
    vv = float(v1 @ v2)
    rhs = 1.0 + a * a / (1.0 - apq * apq) * (p * p * q * q - uu * vv)

    # with w = u1 + s u2 and z = v1 + s v2 (mutually orthogonal, as
    # |u1| = |u2| and |v1| = |v2|), pert is the sum over s = +1, -1 of a
    # rank-2 piece on span{w, z}; in the orthonormal basis (w/|w|, z/|z|)
    # each piece is the 2x2 matrix below, and its eigenvalues group the
    # numerical ones into the pairs (l1, l2) and (l3, l4)
    pieces = []
    for s in (1.0, -1.0):
        w_sq = 2.0 * (p * q + s * uu)
        z_sq = 2.0 * (p * q + s * vv)
        # when a plane collapses (s2 = -s1 or t2 = -t1), round-off can leave
        # w_sq * z_sq a little below zero
        off = -(c1 + c2) * math.sqrt(max(w_sq * z_sq, 0.0))
        pieces.append([[(c2 - c1) * w_sq, off], [off, (c2 - c1) * z_sq]])
    lam12, lam34 = np.linalg.eigvalsh(0.5 * np.array(pieces))

    # match each closed-form value to the closest remaining numerical one
    pool = list(nontrivial)
    matched12, matched34 = [], []
    for lam, bucket in [(l, matched12) for l in lam12] + [
        (l, matched34) for l in lam34
    ]:
        if pool and abs(lam) > NONTRIVIAL_TOL:
            k = int(np.argmin([abs(x - lam) for x in pool]))
            bucket.append(pool.pop(k))
        else:
            bucket.append(0.0)

    prod12 = (1.0 + matched12[0]) * (1.0 + matched12[1])
    prod34 = (1.0 + matched34[0]) * (1.0 + matched34[1])
    err = max(abs(prod12 - rhs), abs(prod34 - rhs)) / abs(rhs)
    return EigencheckReport(
        max_identity_error=float(err),
        nontrivial_eigencount=int(nontrivial.size),
        lambda_values=[float(v) for v in nontrivial],
    )


def theory_report(
    blocks: CovarianceBlocks, n: int, alpha: float = 0.05
) -> TheoryReport:
    """Assemble every closed-form prediction into one report."""
    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parts = sigma_bar_sq(blocks, n)
    notes.extend(str(w.message) for w in caught)
    return TheoryReport(
        tau_x_sq=tau_sq(blocks.sigma_x),
        tau_y_sq=tau_sq(blocks.sigma_y),
        mean=mean_expansion(blocks),
        sigma1_sq=parts.sigma1_sq,
        sigma2_sq=parts.sigma2_sq,
        sigma_sq=parts.total,
        local_a=local_param_A(blocks, n),
        power=theoretical_power(blocks, n, alpha),
        warnings=notes,
    )

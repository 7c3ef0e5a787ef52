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
    trace_chain,
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


def sigma_bar_sq(blocks: CovarianceBlocks, n: int) -> VarianceParts:
    """First- and second-order variance contributions of the sample distance
    covariance, and their sum.

    sigma1 can turn negative for covariances outside the bounded-spectrum
    regime; the value is reported faithfully with a warning rather than
    clamped, since clamping would corrupt standardization checks.
    """
    if n < 2:
        raise ValueError(f"variance formula needs n >= 2, got {n}")
    sx, sxy, sy = blocks.sigma_x, blocks.sigma_xy, blocks.sigma_y
    syx = sxy.T
    tx_sq = tau_sq(sx)
    ty_sq = tau_sq(sy)
    if tx_sq <= 0 or ty_sq <= 0:
        raise DegenerateBlocks("variance formula requires positive traces")
    f2 = frobenius_norm_sq(sxy)
    f_x = frobenius_norm_sq(sx)
    f_y = frobenius_norm_sq(sy)
    sigma1 = (4.0 / (n * tx_sq * ty_sq)) * (
        frobenius_norm_sq(sxy @ syx)
        + trace_chain([sxy, sy, syx, sx])
        + f2 * f2 * f_x / (2.0 * tx_sq * tx_sq)
        + f2 * f2 * f_y / (2.0 * ty_sq * ty_sq)
        - (2.0 * f2 / tx_sq) * trace_chain([sxy, syx, sx])
        - (2.0 * f2 / ty_sq) * trace_chain([syx, sxy, sy])
        + f2 * f2 * f2 / (tx_sq * ty_sq)
    )
    sigma2 = (2.0 / (n * (n - 1) * tx_sq * ty_sq)) * (f_x * f_y + f2 * f2)
    if sigma1 < 0:
        warnings.warn(
            "first-order variance term is negative; covariance lies outside "
            "the bounded-spectrum regime",
            RuntimeWarning,
            stacklevel=2,
        )
    return VarianceParts(sigma1, sigma2, sigma1 + sigma2)


def sigma_bar_sq_marginal(sigma_x, n: int) -> VarianceParts:
    """Marginal analogue of ``sigma_bar_sq`` for one block."""
    if n < 2:
        raise ValueError(f"variance formula needs n >= 2, got {n}")
    sx = check_symmetric(sigma_x, "sigma_x")
    tr = float(np.trace(sx))
    if tr <= 0:
        raise DegenerateBlocks("marginal variance requires a positive trace")
    f_x = frobenius_norm_sq(sx)
    sigma1 = (1.0 / (n * tr * tr)) * (
        2.0 * frobenius_norm_sq(sx @ sx)
        + f_x ** 3 / (2.0 * tr * tr)
        - 2.0 * f_x * trace_chain([sx, sx, sx]) / tr
    )
    sigma2 = f_x * f_x / (n * (n - 1) * tr * tr)
    if sigma1 < 0:
        warnings.warn(
            "first-order marginal variance term is negative",
            RuntimeWarning,
            stacklevel=2,
        )
    return VarianceParts(sigma1, sigma2, sigma1 + sigma2)


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


def _quad_roots(a2: float, a1: float, a0: float) -> tuple[float, float]:
    """Roots of a2 x^2 + a1 x + a0, degenerating gracefully to the linear
    case; a vanishing equation contributes no finite root (returned as nan)."""
    if abs(a2) > 1e-30:
        disc = max(a1 * a1 - 4.0 * a2 * a0, 0.0)
        r = math.sqrt(disc)
        return ((-a1 - r) / (2.0 * a2), (-a1 + r) / (2.0 * a2))
    if abs(a1) > 1e-30:
        return (-a0 / a1, math.nan)
    return (math.nan, math.nan)


def minimax_eigencheck(
    u_signs: tuple[Sequence[float], Sequence[float]],
    v_signs: tuple[Sequence[float], Sequence[float]],
    a: float,
    nontrivial_tol: float = 1e-8,
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

    ut1, ut2 = math.sqrt(q) * s1, math.sqrt(q) * s2
    vt1, vt2 = math.sqrt(p) * t1, math.sqrt(p) * t2
    dim = p + q
    u1 = np.concatenate([ut1, np.zeros(q)])
    u2 = np.concatenate([ut2, np.zeros(q)])
    v1 = np.concatenate([np.zeros(p), vt1])
    v2 = np.concatenate([np.zeros(p), vt2])

    apq = a * p * q
    c1 = a / (2.0 * (1.0 + apq))
    c2 = a / (2.0 * (1.0 - apq))
    pert = (
        -c1 * (np.outer(u1 + v1, u1 + v1) + np.outer(u2 + v2, u2 + v2))
        + c2 * (np.outer(u1 - v1, u1 - v1) + np.outer(u2 - v2, u2 - v2))
    )

    spectrum = sym_eigenvalues(pert)
    nontrivial = spectrum[np.abs(spectrum) > nontrivial_tol]

    uu = float(u1 @ u2)
    vv = float(v1 @ v2)
    rhs = 1.0 + a * a / (1.0 - apq * apq) * (p * p * q * q - uu * vv)

    # closed-form eigenvalues, used to group the numerical ones into the
    # two product pairs
    b1, b2 = _quad_roots(
        (c1 + c2) * (vv + p * q), (c2 - c1) * (vv - uu), -(c1 + c2) * (uu + p * q)
    )
    b3, b4 = _quad_roots(
        (c1 + c2) * (vv - p * q), (c2 - c1) * (vv - uu), -(c1 + c2) * (uu - p * q)
    )
    lam12 = [
        (c2 - c1) * (p * q + uu) - b * (c1 + c2) * (vv + p * q)
        if not math.isnan(b)
        else 0.0
        for b in (b1, b2)
    ]
    lam34 = [
        (c2 - c1) * (p * q - uu) + b * (c1 + c2) * (vv - p * q)
        if not math.isnan(b)
        else 0.0
        for b in (b3, b4)
    ]

    # match each closed-form value to the closest remaining numerical one
    pool = list(nontrivial)
    matched12, matched34 = [], []
    for lam, bucket in [(l, matched12) for l in lam12] + [
        (l, matched34) for l in lam34
    ]:
        if pool and abs(lam) > nontrivial_tol:
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

"""Closed-form population quantities for jointly Gaussian blocks: mean and
variance expansions of the sample distance covariance, the local shift
parameter driving test power and the null standardization, kernel scaling
factors, theoretical power, the truncated statistic's fluctuation in two
independent forms, and the minimax prior's rank-four eigenvalue identity."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .matcore import (
    Matrix,
    NotPositiveDefinite,
    as_matrix,
    check_symmetric,
    cholesky,
    frobenius_norm_sq,
)
from .dcovstats import KernelSpec, PairedSample, SampleTooSmall, _valid_gamma
from .testkit import normal_cdf, normal_quantile


class DegenerateKernel(Exception):
    """Kernel derivative vanishes at the operating ratio tau/gamma."""


class DegenerateBlocks(Exception):
    """A marginal covariance block is zero (for a PSD block, a zero trace and
    a zero Frobenius norm are the same thing)."""


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

    @functools.cached_property
    def tau_sq(self) -> tuple[float, float]:
        """Population (tau_sq(S_x), tau_sq(S_y)), computed on first use and kept."""
        return tau_sq(self.sigma_x), tau_sq(self.sigma_y)

    @property
    def tau(self) -> tuple[float, float]:
        """Population (tau_x, tau_y), the square roots of ``tau_sq``."""
        return math.sqrt(self.tau_sq[0]), math.sqrt(self.tau_sq[1])

    def full(self) -> Matrix:
        top = np.hstack([self.sigma_x, self.sigma_xy])
        bottom = np.hstack([self.sigma_xy.T, self.sigma_y])
        return np.vstack([top, bottom])

    @classmethod
    def identity_blocks(cls, p: int, q: int, rho_xy: float) -> "CovarianceBlocks":
        """S_x = I_p, S_y = I_q, S_xy = rho on the leading diagonal."""
        if p < 1 or q < 1:
            raise ValueError(f"p and q must be positive, got p={p}, q={q}")
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
    A: float
    power: float


def tau_sq(sigma_half) -> float:
    """Mean squared distance between independent copies: 2 tr(Sigma)."""
    m = as_matrix(sigma_half, "sigma")
    if m.shape[0] != m.shape[1]:
        raise ValueError("tau_sq needs a square block")
    return 2.0 * float(np.trace(m))


def _nonzero_marginals(sx, sy, tau_sq_pair) -> tuple[float, float, float]:
    """(tau_x^2, tau_y^2, |S_x|_F |S_y|_F) under the one rule that both
    marginals are nonzero, checked on what the formulas divide by, which for
    tiny blocks can underflow to 0 while the traces do not."""
    tx_sq, ty_sq = tau_sq_pair
    fx_fy = math.sqrt(frobenius_norm_sq(sx)) * math.sqrt(frobenius_norm_sq(sy))
    if min(tx_sq, ty_sq) <= 0 or tx_sq * ty_sq == 0 or fx_fy == 0:
        raise DegenerateBlocks("marginal covariance blocks must be nonzero")
    return tx_sq, ty_sq, fx_fy


def mean_expansion(blocks: CovarianceBlocks) -> float:
    """Leading term of the distance covariance: |S_xy|_F^2 / (tau_x tau_y).

    The relative remainder is O(1/min(tau_x, tau_y)) and is not computed.
    """
    tx_sq, ty_sq, _ = _nonzero_marginals(blocks.sigma_x, blocks.sigma_y, blocks.tau_sq)
    return frobenius_norm_sq(blocks.sigma_xy) / math.sqrt(tx_sq * ty_sq)


def _variance_parts(sx: Matrix, sxy: Matrix, sy: Matrix, n: int, tau_sq_pair) -> VarianceParts:
    if n < 2:
        raise SampleTooSmall(f"variance formula needs n >= 2, got {n}")
    syx = sxy.T
    tx_sq, ty_sq, _ = _nonzero_marginals(sx, sy, tau_sq_pair)
    f2 = frobenius_norm_sq(sxy)
    # sigma1 = 4 Var(L) / (n tau_x^2 tau_y^2) for the quadratic form
    # L = X' S_xy Y - a |X|^2 - b |Y|^2 = Z' M Z of Z = (X, Y) ~ N(0, Sigma),
    # and Var(Z' M Z) = 2 tr((M Sigma)^2) (Isserlis), so sigma1 >= 0
    a, b = f2 / (2.0 * tx_sq), f2 / (2.0 * ty_sq)
    m = np.block([[-a * np.eye(len(sx)), 0.5 * sxy], [0.5 * syx, -b * np.eye(len(sy))]])
    ms = m @ np.block([[sx, sxy], [syx, sy]])
    sigma1 = 8.0 * float(np.sum(ms * ms.T)) / (n * tx_sq * ty_sq)
    sigma2 = (2.0 / (n * (n - 1) * tx_sq * ty_sq)) * (
        frobenius_norm_sq(sx) * frobenius_norm_sq(sy) + f2 * f2
    )
    return VarianceParts(sigma1, sigma2, sigma1 + sigma2)


def sigma_bar_sq(blocks: CovarianceBlocks, n: int) -> VarianceParts:
    """First- and second-order variance contributions of the sample distance
    covariance, and their sum.

    sigma1 is a positive multiple of the variance of a Gaussian quadratic
    form, so it is >= 0 for every valid covariance.
    """
    return _variance_parts(blocks.sigma_x, blocks.sigma_xy, blocks.sigma_y, n, blocks.tau_sq)


def sigma_bar_sq_marginal(sigma_x, n: int) -> VarianceParts:
    """Marginal analogue of ``sigma_bar_sq`` for one block: its value at
    S_x = S_y = S_xy = sigma_x. The blocks are not assembled, since
    [[S, S], [S, S]] is singular."""
    sx = check_symmetric(sigma_x, "sigma_x")
    return _variance_parts(sx, sx, sx, n, (tau_sq(sx),) * 2)


def local_param_A(blocks: CovarianceBlocks, n: int) -> float:
    """Local shift parameter n |S_xy|_F^2 / (|S_x|_F |S_y|_F)."""
    _, _, fx_fy = _nonzero_marginals(blocks.sigma_x, blocks.sigma_y, blocks.tau_sq)
    return n * frobenius_norm_sq(blocks.sigma_xy) / fx_fy


def null_standardized(blocks: CovarianceBlocks, n: int, rescaled):
    """n (tau_x tau_y v - |S_xy|_F^2) / (sqrt 2 |S_x|_F |S_y|_F) for statistics
    v already divided by their kernel scaling."""
    tx_sq, ty_sq, fx_fy = _nonzero_marginals(blocks.sigma_x, blocks.sigma_y, blocks.tau_sq)
    f2 = frobenius_norm_sq(blocks.sigma_xy)
    return n * (math.sqrt(tx_sq * ty_sq) * rescaled - f2) / (math.sqrt(2.0) * fx_fy)


def _fluctuation_setup(name: str, sample: PairedSample, blocks: CovarianceBlocks):
    """(|S_xy|_F^2, tau_x^2, tau_y^2, tau_x tau_y) once the sample matches the
    blocks, n >= 2 and both marginals are nonzero; tr S is then tau^2 / 2."""
    p, q = sample.x.shape[1], sample.y.shape[1]
    if blocks.p != p or blocks.q != q:
        raise ValueError(f"covariance blocks are ({blocks.p},{blocks.q}) but data is ({p},{q})")
    if sample.n < 2:
        raise SampleTooSmall(f"{name} needs n >= 2")
    tx_sq, ty_sq, _ = _nonzero_marginals(blocks.sigma_x, blocks.sigma_y, blocks.tau_sq)
    return frobenius_norm_sq(blocks.sigma_xy), tx_sq, ty_sq, math.sqrt(tx_sq * ty_sq)


def tbar_fluctuation(sample: PairedSample, blocks: CovarianceBlocks) -> float:
    """Fluctuation of the truncated statistic around its constant term,
    computed through the three aggregate sums of its closed-form
    representation (ordered distinct pairs throughout):

        psi1 = sum_{i != j} (X_i'X_j Y_i'Y_j - |S_xy|_F^2)
        psi2 = sum_{i != j} (X_i'S_xy Y_j + X_j'S_xy Y_i)
        psi3 = sum_i [ (|S_xy|_F^2/tau_x^2)(|X_i|^2 - tr S_x)
                     + (|S_xy|_F^2/tau_y^2)(|Y_i|^2 - tr S_y) ]

    returning (psi1 - psi2)/(tau_x tau_y 2 C(n,2)) - psi3/(tau_x tau_y n).
    Agrees with ``hoeffding_sum`` exactly.
    """
    f2, tau_x_sq, tau_y_sq, tau_prod = _fluctuation_setup("tbar_fluctuation", sample, blocks)
    x, y, n = sample.x, sample.y, sample.n

    cross = (x @ x.T) * (y @ y.T)
    psi1 = float(cross.sum() - np.trace(cross)) - n * (n - 1) * f2

    g = x @ blocks.sigma_xy
    diag_gy = np.einsum("ij,ij->i", g, y)
    psi2 = 2.0 * (float(g.sum(axis=0) @ y.sum(axis=0)) - float(diag_gy.sum()))

    dev_x = np.sum(x * x, axis=1) - tau_x_sq / 2.0
    dev_y = np.sum(y * y, axis=1) - tau_y_sq / 2.0
    psi3 = f2 / tau_x_sq * float(dev_x.sum()) + f2 / tau_y_sq * float(dev_y.sum())

    return (psi1 - psi2) / (tau_prod * n * (n - 1)) - psi3 / (tau_prod * n)


def hoeffding_sum(sample: PairedSample, blocks: CovarianceBlocks) -> float:
    """Same fluctuation via the first- and second-order main-term kernels:
    4 U_n(g1) + 6 U_n(g2), with the unknown constant term dropped
    symmetrically with ``tbar_fluctuation``."""
    f2, tau_x_sq, tau_y_sq, tau_prod = _fluctuation_setup("hoeffding_sum", sample, blocks)
    x, y, n, sxy = sample.x, sample.y, sample.n, blocks.sigma_xy
    tr_x, tr_y = tau_x_sq / 2.0, tau_y_sq / 2.0

    d = np.einsum("ij,ij->i", x @ sxy, y)  # d_i = X_i' S_xy Y_i
    sq_x, sq_y = np.sum(x * x, axis=1), np.sum(y * y, axis=1)
    g1 = (
        d - f2 - f2 / (2.0 * tau_x_sq) * (sq_x - tr_x) - f2 / (2.0 * tau_y_sq) * (sq_y - tr_y)
    ) / (2.0 * tau_prod)

    # g2 summed over pairs i != j through row sums and the p x q product X'Y:
    # sum X_i'X_j Y_i'Y_j = |X'Y|_F^2 - sum |X_i|^2 |Y_i|^2 and
    # sum X_i'S_xy Y_j = (1'X) S_xy (Y'1) - sum d_i
    xty = x.T @ y
    cross = float(np.sum(xty * xty)) - float(sq_x @ sq_y)
    e = float(x.sum(axis=0) @ sxy @ y.sum(axis=0)) - float(d.sum())
    u2 = ((cross - 2.0 * e) / (n * (n - 1)) - 2.0 * float(d.mean()) + f2) / (6.0 * tau_prod)

    return 4.0 * float(g1.mean()) + 6.0 * u2


def varrho(
    kernels: tuple[KernelSpec, KernelSpec],
    gamma: tuple[float, float],
    tau: tuple[float, float],
) -> float:
    """Scaling factor relating kernelized and plain distance covariance:
    f_x'(tau_x/gamma_x) f_y'(tau_y/gamma_y) / (gamma_x gamma_y), with
    ``tau`` the population pair ``CovarianceBlocks.tau``.

    Exact for the identity kernel; leading-order otherwise. Raises
    ``DegenerateKernel`` when a derivative magnitude falls below 1e-12.
    """
    gx, gy = map(_valid_gamma, gamma)
    rho_x, rho_y = tau[0] / gx, tau[1] / gy
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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
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
    norm sqrt(pq)), computes its spectrum with the dense eigensolver, and
    checks

        (1+l1)(1+l2) = (1+l3)(1+l4)
                     = 1 + a^2/(1-(apq)^2) (p^2 q^2 - <u1,u2><v1,v2>)

    on the four largest-magnitude eigenvalues (zeros for any within
    round-off of 0), reporting the smallest relative error over their three
    pairings.

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
    if not abs(a) * p * q < 1.0:
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

    spectrum = np.linalg.eigvalsh(pert)
    nontrivial = spectrum[np.abs(spectrum) > NONTRIVIAL_TOL]

    uu = float(u1 @ u2)
    vv = float(v1 @ v2)
    rhs = 1.0 + a * a / (1.0 - apq * apq) * (p * p * q * q - uu * vv)

    # a collapsed plane's zero eigenvalues come out near eps |pert|, which
    # passes the cut when |a| p q is near 1, so below 2 eps |pert| they are
    # the zeros padding the four largest; with distinct eigenvalues,
    # (1+l)(1+m) = rhs = (1+l)(1+m') forces m = m', so the spectrum pairs
    # itself and the best of the three pairings is the identity's
    round_off = 2.0 * np.finfo(float).eps * np.abs(spectrum).max()
    big = sorted(nontrivial[np.abs(nontrivial) > round_off], key=abs)[-4:]
    factor = 1.0 + np.pad(big, (0, 4 - len(big)))
    err = min(
        max(abs(factor[0] * factor[i] - rhs), abs(factor[j] * factor[k] - rhs))
        for i, j, k in ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    ) / abs(rhs)
    return EigencheckReport(
        max_identity_error=float(err),
        nontrivial_eigencount=int(nontrivial.size),
        lambda_values=[float(v) for v in nontrivial],
    )


def theory_report(
    blocks: CovarianceBlocks, n: int, alpha: float = 0.05
) -> TheoryReport:
    """Assemble every closed-form prediction into one report."""
    parts = sigma_bar_sq(blocks, n)
    return TheoryReport(
        tau_x_sq=blocks.tau_sq[0],
        tau_y_sq=blocks.tau_sq[1],
        mean=mean_expansion(blocks),
        sigma1_sq=parts.sigma1_sq,
        sigma2_sq=parts.sigma2_sq,
        sigma_sq=parts.total,
        A=local_param_A(blocks, n),
        power=theoretical_power(blocks, n, alpha),
    )

"""Sample-level statistics: kernelized distance matrices, U-centering,
bias-corrected (kernel) distance covariance and correlation, the brute-force
U-statistic oracle, and the truncated-statistic cross-check pair."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, NamedTuple, Optional

import numpy as np

from .matcore import Matrix, as_matrix, check_symmetric, pairwise_sq_distances

ORACLE_MAX_N = 12

# degenerate-denominator guard for distance correlation ratios
_DENOM_FLOOR = 1e-300


class SampleTooSmall(Exception):
    """Fewer observations than the estimator's denominators allow."""


class DegenerateSample(Exception):
    """All pairwise distances vanish; data-driven bandwidths are undefined."""


@dataclass(frozen=True)
class PairedSample:
    """Aligned observation matrices: x is n x p, y is n x q."""

    x: Matrix
    y: Matrix

    def __post_init__(self):
        x = as_matrix(self.x, "x")
        y = as_matrix(self.y, "y")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"row counts differ: x has {x.shape[0]}, y has {y.shape[0]}"
            )
        if x.shape[0] < 1:
            raise ValueError("need at least one observation")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class KernelSpec:
    """Radial kernel f applied to distance/bandwidth ratios, with derivative.

    Built-ins: identity f(w)=w, gaussian f(w)=exp(-w^2/2), laplace
    f(w)=exp(-w). f may overwrite its float64 argument, as the built-ins do.
    Custom kernels must supply f_prime explicitly; no numerical
    differentiation happens downstream.
    """

    kind: str
    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[float], float]


def identity_kernel() -> KernelSpec:
    return KernelSpec("identity", lambda w: w, lambda w: 1.0)


def gaussian_kernel() -> KernelSpec:
    return KernelSpec(
        "gaussian",
        lambda w: np.exp(np.multiply(np.square(w, out=w), -0.5, out=w), out=w),
        lambda w: -w * math.exp(-0.5 * w * w),
    )


def laplace_kernel() -> KernelSpec:
    return KernelSpec(
        "laplace",
        lambda w: np.exp(np.negative(w, out=w), out=w),
        lambda w: -math.exp(-w),
    )


def custom_kernel(f, f_prime) -> KernelSpec:
    return KernelSpec("custom", f, f_prime)


_KERNELS = {
    "identity": identity_kernel,
    "gaussian": gaussian_kernel,
    "laplace": laplace_kernel,
}
KERNEL_NAMES = tuple(_KERNELS)


def kernel_by_name(name: str) -> KernelSpec:
    try:
        return _KERNELS[name]()
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {sorted(_KERNELS)}"
        ) from None


@dataclass(frozen=True)
class BandwidthSpec:
    """Bandwidth policy: fixed gamma, median pairwise distance, or a target
    ratio rho = tau/gamma inverted against the (population or estimated) tau."""

    policy: str
    gamma: Optional[float] = None
    rho_target: Optional[float] = None

    def __post_init__(self):
        if self.policy == "fixed":
            if self.gamma is None or not 0 < self.gamma < math.inf:
                raise ValueError("fixed bandwidth requires a finite gamma > 0")
        elif self.policy == "rho":
            if self.rho_target is None or not 0 < self.rho_target < math.inf:
                raise ValueError("rho bandwidth requires a finite rho_target > 0")
        elif self.policy != "median":
            raise ValueError(f"unknown bandwidth policy {self.policy!r}")

    @classmethod
    def fixed(cls, gamma: float) -> "BandwidthSpec":
        return cls("fixed", gamma=float(gamma))

    @classmethod
    def median(cls) -> "BandwidthSpec":
        return cls("median")

    @classmethod
    def rho(cls, rho_target: float) -> "BandwidthSpec":
        return cls("rho", rho_target=float(rho_target))

    @classmethod
    def parse(cls, text: str) -> "BandwidthSpec":
        """Grammar: ``fixed:<gamma>``, ``median``, ``rho:<rho_target>``."""
        if text == "median":
            return cls.median()
        head, sep, value = text.partition(":")
        if sep and head == "fixed":
            return cls.fixed(float(value))
        if sep and head == "rho":
            return cls.rho(float(value))
        raise ValueError(f"cannot parse bandwidth spec {text!r}")

    def label(self) -> str:
        if self.policy == "fixed":
            return f"fixed:{self.gamma!r}"
        if self.policy == "rho":
            return f"rho:{self.rho_target!r}"
        return "median"


def kernel_matrix(x, kernel: KernelSpec, gamma: float) -> Matrix:
    """Entry (k,l) = f(|X_k - X_l| / gamma) off the diagonal, 0 on it.

    The zero diagonal applies to every kernel, identity included; for the
    identity kernel the result is the plain distance matrix over gamma.
    """
    if not gamma > 0:
        raise ValueError(f"bandwidth must be positive, got {gamma}")
    k = np.asarray(kernel.f(distance_matrix(x) / gamma), dtype=np.float64)
    np.fill_diagonal(k, 0.0)
    if not np.all(np.isfinite(k)):
        raise ValueError(f"{kernel.kind} kernel produced non-finite values")
    return k


def u_center(a) -> Matrix:
    """U-centered version of a symmetric zero-diagonal matrix.

    A* = A - (11'A + A11')/(n-2) + 11'A11'/((n-1)(n-2)), diagonal forced to
    zero. Off-diagonal row sums of the result vanish. Requires n >= 4.
    """
    m = check_symmetric(a, "u_center input")
    n = m.shape[0]
    if n < 4:
        raise SampleTooSmall(f"u_center needs n >= 4, got {n}")
    row = m.sum(axis=1, keepdims=True)
    col = m.sum(axis=0, keepdims=True)
    total = float(m.sum())
    out = m - (row + col) / (n - 2) + total / ((n - 1) * (n - 2))
    np.fill_diagonal(out, 0.0)
    return out


def distance_matrix(x) -> Matrix:
    """Euclidean distances between the rows of x: exactly symmetric, zero diagonal."""
    d = pairwise_sq_distances(x)
    return np.sqrt(d, out=d)


def pairwise_distance_median(x, dist: Optional[Matrix] = None) -> float:
    """Lower median of {|X_s - X_t| : s < t}; ``dist`` may give x's distances."""
    d = distance_matrix(x) if dist is None else dist
    n = d.shape[0]
    if n < 2:
        raise SampleTooSmall("median bandwidth needs n >= 2")
    # the pairs s < t row by row: half a matrix and no index arrays
    upper = np.concatenate([d[s, s + 1 :] for s in range(n - 1)])
    k = (upper.size - 1) // 2
    upper.partition(k)
    if upper[k] == 0.0 and not upper.any():
        raise DegenerateSample("all pairwise distances are zero")
    return float(upper[k])


def estimate_tau(x) -> float:
    """sqrt of the mean squared pairwise distance over distinct pairs, in
    closed form: that mean is 2 sum_i |X_i - mean(X)|^2 / (n - 1)."""
    m = as_matrix(x, "observations")
    if m.shape[0] < 2:
        raise SampleTooSmall("tau estimation needs n >= 2")
    c = m - m.mean(axis=0)
    return math.sqrt(2.0 * float(np.vdot(c, c)) / (m.shape[0] - 1))


def resolve_bandwidth(
    x, spec: BandwidthSpec, tau: Optional[float] = None, dist: Optional[Matrix] = None
) -> float:
    """Resolve a bandwidth policy to a concrete gamma for one data block.

    ``tau`` supplies the population value for the rho policy; when None the
    value is estimated from the data. ``dist`` is passed to the median.
    """
    if spec.policy == "fixed":
        return float(spec.gamma)
    if spec.policy == "median":
        return pairwise_distance_median(x, dist)
    t = float(tau) if tau is not None else estimate_tau(x)
    return t / float(spec.rho_target)


def _kernel_block(x, kernel, spec, tau=None, dist=None):
    """(K, row sums of K, gamma) for one block, K being the zero-diagonal kernel
    matrix less its off-diagonal mean, which U-centring ignores; removing it
    keeps ``_u_inner`` well conditioned and zeroes a constant block. ``dist``
    is only read; without it the distances are built here and overwritten."""
    d = distance_matrix(x) if dist is None else dist
    n = d.shape[0]
    if n < 4:
        raise SampleTooSmall(f"U-centred statistics need n >= 4, got {n}")
    gamma = resolve_bandwidth(x, spec, tau, d)
    if not gamma > 0:
        raise ValueError(f"bandwidth must be positive, got {gamma}")
    w = np.divide(d, gamma, out=d if dist is None else None)
    k = np.asarray(kernel.f(w), dtype=np.float64)
    np.fill_diagonal(k, 0.0)
    total = float(k.sum())
    if not math.isfinite(total):
        raise ValueError(f"{kernel.kind} kernel produced non-finite values")
    k -= total / (n * (n - 1))
    np.fill_diagonal(k, 0.0)
    return k, k.sum(axis=1), gamma


def _u_inner(a, b) -> float:
    """(1/(n(n-3))) sum_{k != l} A*_{kl} B*_{kl} for two ``_kernel_block``
    results, by the U-centring inner-product identity (Szekely & Rizzo 2014)
    on row sums r, so A* and B* are never formed:
    <A*, B*> = <A, B> - 2 <r_a, r_b>/(n-2) + (1'r_a)(1'r_b)/((n-1)(n-2))."""
    (ka, ra, _), (kb, rb, _) = a, b
    n = ka.shape[0]
    total = float(np.vdot(ka, kb)) - 2.0 / (n - 2) * float(ra @ rb)
    total += float(ra.sum()) * float(rb.sum()) / ((n - 1) * (n - 2))
    return total / (n * (n - 3))


class DcovParts(NamedTuple):
    """The U-centred inner products behind the studentized statistic, and
    the bandwidths they were computed at."""

    v_xy: float
    v_x: float
    v_y: float
    gamma: tuple[float, float]
    n: int

    @property
    def degenerate(self) -> bool:
        """A marginal (a sum of squares) is not positive, as for a constant
        block, or the product underflows: statistic and correlation are 0."""
        v_x, v_y = self.v_x, self.v_y
        return not (v_x > 0.0 and v_y > 0.0 and v_x * v_y > _DENOM_FLOOR)

    def studentized(self) -> float:
        """n v_xy / sqrt(2 v_x v_y), or 0 when degenerate."""
        if self.degenerate:
            return 0.0
        return self.n * self.v_xy / math.sqrt(2.0 * self.v_x * self.v_y)


def dcov_parts(
    sample: PairedSample,
    kernels: tuple[KernelSpec, KernelSpec] = (identity_kernel(), identity_kernel()),
    bandwidths: tuple[BandwidthSpec, BandwidthSpec] = (BandwidthSpec.fixed(1.0),) * 2,
    tau=None,
    dists=None,
) -> DcovParts:
    """The statistic core. Each block's distance matrix is built once from
    column-centred data (or read from ``dists``), its bandwidth resolved from
    it (``tau``: population values for the rho policy) and the kernel applied
    in place; v_xy, v_x and v_y then take row sums and one ``vdot`` each."""
    tau, dists = tau or (None, None), dists or (None, None)
    bx, by = map(_kernel_block, (sample.x, sample.y), kernels, bandwidths, tau, dists)
    parts = _u_inner(bx, by), _u_inner(bx, bx), _u_inner(by, by)
    return DcovParts(*parts, (bx[2], by[2]), sample.n)


def dcov_star(sample: PairedSample) -> float:
    """Bias-corrected sample distance covariance (identity kernel).

    (1/(n(n-3))) sum_{k != l} A*_{kl} B*_{kl}; may be negative.
    """
    return dcov_parts(sample).v_xy


def dcov_star_marginal(x) -> float:
    """dcov_star of a block with itself; a sum of squares, hence >= 0."""
    return dcov_star_kernel_marginal(x, identity_kernel(), 1.0)


def dcov_star_kernel(
    sample: PairedSample,
    kernels: tuple[KernelSpec, KernelSpec],
    gamma: tuple[float, float],
) -> float:
    """Generalized sample distance covariance with per-block kernels and
    bandwidths, built on zero-diagonal kernel matrices."""
    return dcov_parts(sample, kernels, tuple(map(BandwidthSpec.fixed, gamma))).v_xy


def dcov_star_kernel_marginal(x, kernel: KernelSpec, gamma: float) -> float:
    block = _kernel_block(x, kernel, BandwidthSpec.fixed(gamma))
    return _u_inner(block, block)


def dcor_star(
    sample: PairedSample,
    kernels: tuple[KernelSpec, KernelSpec] = (identity_kernel(), identity_kernel()),
    gamma: tuple[float, float] = (1.0, 1.0),
) -> float:
    """Kernelized distance correlation with the 0/0 -> 0 convention: a
    degenerate sample (``DcovParts.degenerate``) maps to 0."""
    parts = dcov_parts(sample, kernels, tuple(map(BandwidthSpec.fixed, gamma)))
    if parts.degenerate:
        return 0.0
    return parts.v_xy / math.sqrt(parts.v_x * parts.v_y)


def dcov_ustat_oracle(sample: PairedSample) -> float:
    """Brute-force 4th-order U-statistic evaluation of the sample distance
    covariance: mean of the symmetrized kernel over all 4-subsets and all 24
    orderings. Combinatorial cost caps n at 12."""
    n = sample.n
    if not 4 <= n <= ORACLE_MAX_N:
        raise ValueError(f"oracle supports 4 <= n <= {ORACLE_MAX_N}, got {n}")
    a = np.sqrt(pairwise_sq_distances(sample.x))
    b = np.sqrt(pairwise_sq_distances(sample.y))
    total = 0.0
    for quad in combinations(range(n), 4):
        acc = 0.0
        for i1, i2, i3, i4 in permutations(quad):
            acc += (
                a[i1, i2] * b[i1, i2]
                + a[i1, i2] * b[i3, i4]
                - 2.0 * a[i1, i2] * b[i1, i3]
            )
        total += acc / 24.0
    return total / math.comb(n, 4)


def _check_blocks_shape(sample: PairedSample, blocks) -> None:
    p, q = sample.x.shape[1], sample.y.shape[1]
    if blocks.p != p or blocks.q != q:
        raise ValueError(
            f"covariance blocks are ({blocks.p},{blocks.q}) "
            f"but data is ({p},{q})"
        )


def tbar_fluctuation(sample: PairedSample, blocks) -> float:
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
    _check_blocks_shape(sample, blocks)
    x, y = sample.x, sample.y
    n = sample.n
    if n < 2:
        raise SampleTooSmall("tbar_fluctuation needs n >= 2")
    sxy = blocks.sigma_xy
    f2 = float(np.sum(sxy * sxy))
    tau_x_sq = 2.0 * float(np.trace(blocks.sigma_x))
    tau_y_sq = 2.0 * float(np.trace(blocks.sigma_y))
    tau_prod = math.sqrt(tau_x_sq * tau_y_sq)

    cross = (x @ x.T) * (y @ y.T)
    psi1 = float(cross.sum() - np.trace(cross)) - n * (n - 1) * f2

    g = x @ sxy
    diag_gy = np.einsum("ij,ij->i", g, y)
    psi2 = 2.0 * (float(g.sum(axis=0) @ y.sum(axis=0)) - float(diag_gy.sum()))

    dev_x = np.sum(x * x, axis=1) - float(np.trace(blocks.sigma_x))
    dev_y = np.sum(y * y, axis=1) - float(np.trace(blocks.sigma_y))
    psi3 = f2 / tau_x_sq * float(dev_x.sum()) + f2 / tau_y_sq * float(dev_y.sum())

    return (psi1 - psi2) / (tau_prod * n * (n - 1)) - psi3 / (tau_prod * n)


def hoeffding_sum(sample: PairedSample, blocks) -> float:
    """Same fluctuation via the first- and second-order main-term kernels:
    4 U_n(g1) + 6 U_n(g2), with the unknown constant term dropped
    symmetrically with ``tbar_fluctuation``."""
    _check_blocks_shape(sample, blocks)
    x, y = sample.x, sample.y
    n = sample.n
    if n < 2:
        raise SampleTooSmall("hoeffding_sum needs n >= 2")
    sxy = blocks.sigma_xy
    f2 = float(np.sum(sxy * sxy))
    tr_x = float(np.trace(blocks.sigma_x))
    tr_y = float(np.trace(blocks.sigma_y))
    tau_x_sq, tau_y_sq = 2.0 * tr_x, 2.0 * tr_y
    tau_prod = math.sqrt(tau_x_sq * tau_y_sq)

    d = np.einsum("ij,ij->i", x @ sxy, y)  # d_i = X_i' S_xy Y_i
    dev_x = np.sum(x * x, axis=1) - tr_x
    dev_y = np.sum(y * y, axis=1) - tr_y
    g1 = (
        d - f2 - f2 / (2.0 * tau_x_sq) * dev_x - f2 / (2.0 * tau_y_sq) * dev_y
    ) / (2.0 * tau_prod)
    u1 = float(g1.mean())

    cross = (x @ x.T) * (y @ y.T)  # cross[i,j] = X_i'X_j Y_i'Y_j
    e = x @ sxy @ y.T  # e[i,j] = X_i' S_xy Y_j
    iu = np.triu_indices(n, k=1)
    pair_vals = (
        cross[iu] - d[iu[0]] - d[iu[1]] + f2 - e[iu] - e.T[iu]
    ) / (6.0 * tau_prod)
    u2 = float(pair_vals.mean())

    return 4.0 * u1 + 6.0 * u2

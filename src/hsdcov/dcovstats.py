"""Sample-level statistics: kernelized distance matrices, U-centering,
bias-corrected (kernel) distance covariance and correlation, alone or over a
kernel x bandwidth grid, and the brute-force U-statistic oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, NamedTuple, Optional

import numpy as np

from .matcore import Matrix, as_matrix, check_symmetric, pairwise_sq_distances

ORACLE_MAX_N = 12


class SampleTooSmall(Exception):
    """Fewer observations than the estimator's denominators allow."""


class DegenerateSample(Exception):
    """A data-driven bandwidth resolves to 0: the block has no spread, or
    most of its rows coincide."""


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
    A custom kernel is ``KernelSpec("custom", f, f_prime)``, its derivative
    given explicitly; no numerical differentiation happens downstream.
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
    """Bandwidth policy and its value: ``fixed`` gamma, the ``median``
    pairwise distance (no value), or ``rho``, a target ratio tau/gamma
    inverted against the estimated tau (``at_tau`` fixes a known tau)."""

    policy: str
    value: Optional[float] = None

    def __post_init__(self):
        if self.policy == "median":
            if self.value is not None:
                raise ValueError("median bandwidth takes no value")
        elif self.policy not in ("fixed", "rho"):
            raise ValueError(f"unknown bandwidth policy {self.policy!r}")
        elif self.value is None or not 0 < self.value < math.inf:
            raise ValueError(f"{self.policy} bandwidth requires a finite value > 0")

    @classmethod
    def fixed(cls, gamma: float) -> "BandwidthSpec":
        return cls("fixed", float(gamma))

    @classmethod
    def median(cls) -> "BandwidthSpec":
        return cls("median")

    @classmethod
    def rho(cls, rho_target: float) -> "BandwidthSpec":
        return cls("rho", float(rho_target))

    def at_tau(self, tau: float) -> "BandwidthSpec":
        """``rho:t`` as ``fixed:tau/t`` at a known tau; other specs unchanged."""
        return BandwidthSpec.fixed(_valid_gamma(tau / self.value)) if self.policy == "rho" else self

    @classmethod
    def parse(cls, text: str) -> "BandwidthSpec":
        """Grammar: ``fixed:<gamma>``, ``median``, ``rho:<rho_target>``; the
        inverse of ``label``."""
        policy, sep, value = text.partition(":")
        return cls(policy, float(value) if sep else None)

    def label(self) -> str:
        return self.policy if self.value is None else f"{self.policy}:{float(self.value)!r}"


def kernel_matrix(x, kernel: KernelSpec, gamma: float) -> Matrix:
    """Entry (k,l) = f(|X_k - X_l| / gamma) off the diagonal, 0 on it.

    The zero diagonal applies to every kernel, identity included; for the
    identity kernel the result is the plain distance matrix over gamma.
    """
    k = np.asarray(kernel.f(distance_matrix(x) / _valid_gamma(gamma)), dtype=np.float64)
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
    return float(upper[k])


def estimate_tau(x) -> float:
    """sqrt of the mean squared pairwise distance over distinct pairs, in
    closed form: that mean is 2 sum_i |X_i - mean(X)|^2 / (n - 1)."""
    m = as_matrix(x, "observations")
    if m.shape[0] < 2:
        raise SampleTooSmall("tau estimation needs n >= 2")
    c = m - m.mean(axis=0)
    return math.sqrt(2.0 * float(np.einsum("ij,ij->", c, c)) / (m.shape[0] - 1))


def _valid_gamma(gamma: float) -> float:
    if not 0 < gamma < math.inf:
        raise ValueError(f"bandwidth must be finite and positive, got {gamma}")
    return gamma


def resolve_bandwidth(x, spec: BandwidthSpec, dist: Optional[Matrix] = None) -> float:
    """A concrete gamma in (0, inf) for one block; rho inverts the estimated
    tau and ``dist`` is passed to the median. A gamma of exactly 0 (no spread,
    or most rows coincide) raises ``DegenerateSample``; any other gamma
    outside (0, inf) raises ``ValueError``."""
    if spec.policy == "fixed":
        gamma = spec.value
    elif spec.policy == "median":
        gamma = pairwise_distance_median(x, dist)
    else:
        gamma = estimate_tau(x) / spec.value
    if gamma == 0.0:
        raise DegenerateSample(f"{spec.policy} bandwidth resolved to zero")
    return _valid_gamma(gamma)


def _kernel_block(x, kernel, spec, dist=None):
    """(K, row sums of K, gamma) for one block, K being the zero-diagonal kernel
    matrix less its off-diagonal mean, which U-centring ignores; removing it
    keeps ``_u_inner`` well conditioned and zeroes a constant block. ``dist``
    is only read; without it the distances are built here and overwritten."""
    d = distance_matrix(x) if dist is None else dist
    n = d.shape[0]
    if n < 4:
        raise SampleTooSmall(f"U-centred statistics need n >= 4, got {n}")
    gamma = resolve_bandwidth(x, spec, d)
    w = np.divide(d, gamma, out=d if dist is None else None)
    k = np.asarray(kernel.f(w), dtype=np.float64)
    np.fill_diagonal(k, 0.0)
    total = float(k.sum())
    if not math.isfinite(total):
        raise ValueError(f"{kernel.kind} kernel produced non-finite values")
    k -= total / (n * (n - 1))
    np.fill_diagonal(k, 0.0)
    return k, k.sum(axis=1), gamma


def _u_inner(a, b, tol: float = 0.0) -> float:
    """(1/(n(n-3))) sum_{k != l} A*_{kl} B*_{kl} for two ``_kernel_block``
    results, by the U-centring inner-product identity (Szekely & Rizzo 2014)
    on row sums r, so A* and B* are never formed:
    <A*, B*> = <A, B> - 2 <r_a, r_b>/(n-2) + (1'r_a)(1'r_b)/((n-1)(n-2)).
    With ``tol`` > 0, a result at or below tol n eps <A, B>/(n(n-3)) is 0."""
    (ka, ra, _), (kb, rb, _) = a, b
    n = ka.shape[0]
    # einsum's own loop, unlike BLAS, sums in one order for any thread count
    raw = float(np.einsum("ij,ij->", ka, kb))
    total = raw - 2.0 / (n - 2) * float(ra @ rb)
    total += float(ra.sum()) * float(rb.sum()) / ((n - 1) * (n - 2))
    return 0.0 if tol and total <= tol * n * math.ulp(1.0) * raw else total / (n * (n - 3))


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
        block: statistic and correlation are then 0. ``dcov_parts`` takes a
        marginal at or below 8 n eps <K, K>/(n(n-3)) as exactly 0, K being the
        block's kernel matrix less its off-diagonal mean: the round-off of a
        U-centred matrix that vanishes without the block being constant."""
        return not (self.v_x > 0.0 and self.v_y > 0.0)

    def correlation(self) -> float:
        """v_xy / (sqrt v_x sqrt v_y), or 0 when degenerate; no v_x v_y to overflow."""
        if self.degenerate:
            return 0.0
        return self.v_xy / (math.sqrt(self.v_x) * math.sqrt(self.v_y))

    def studentized(self) -> float:
        """n v_xy / sqrt(2 v_x v_y) = n correlation / sqrt 2, or 0 when degenerate."""
        return self.n * self.correlation() / math.sqrt(2.0)


def _parts(n: int, bx, by) -> DcovParts:
    parts = _u_inner(bx, by), _u_inner(bx, bx, 8.0), _u_inner(by, by, 8.0)
    return DcovParts(*parts, (bx[2], by[2]), n)


def dcov_parts(
    sample: PairedSample,
    kernels: tuple[KernelSpec, KernelSpec] = (identity_kernel(), identity_kernel()),
    bandwidths: tuple[BandwidthSpec, BandwidthSpec] = (BandwidthSpec.fixed(1.0),) * 2,
) -> DcovParts:
    """The statistic core. Each block's distance matrix is built once from
    column-centred data, its bandwidth resolved from it and the kernel applied
    in place; v_xy, v_x and v_y then take row sums and one ``einsum`` each."""
    return _parts(sample.n, *map(_kernel_block, (sample.x, sample.y), kernels, bandwidths))


def studentized_grid(sample: PairedSample, kernels, bandwidth_pairs) -> list[float]:
    """Studentized statistics of one sample in every (kernel, bandwidth pair)
    cell, kernel-major, each kernel on both blocks. Both distance matrices are
    built once, so the cells are paired; the identity kernel's statistic does
    not depend on the bandwidth and is computed once, at the first pair."""
    dists = distance_matrix(sample.x), distance_matrix(sample.y)
    stats = []
    for kernel in kernels:
        stat = None
        for pair in bandwidth_pairs:
            if stat is None or kernel.kind != "identity":
                blocks = map(_kernel_block, (sample.x, sample.y), (kernel, kernel), pair, dists)
                stat = _parts(sample.n, *blocks).studentized()
            stats.append(stat)
    return stats


def dcov_star(sample: PairedSample) -> float:
    """Bias-corrected sample distance covariance (identity kernel).

    (1/(n(n-3))) sum_{k != l} A*_{kl} B*_{kl}; may be negative.
    """
    return dcov_parts(sample).v_xy


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

"""The (generalized kernel) distance correlation test of independence, plus
standard-normal CDF/quantile helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .dcovstats import BandwidthSpec, KernelSpec, PairedSample, dcov_parts, identity_kernel


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# Rational inverse-CDF approximation coefficients (Acklam), refined below by
# one Newton step against normal_cdf.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)


def _inv_cdf_seed(prob: float) -> float:
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if prob < p_low:
        w = math.sqrt(-2.0 * math.log(prob))
        return (
            ((((_C[0] * w + _C[1]) * w + _C[2]) * w + _C[3]) * w + _C[4]) * w + _C[5]
        ) / ((((_D[0] * w + _D[1]) * w + _D[2]) * w + _D[3]) * w + 1.0)
    if prob <= p_high:
        w = prob - 0.5
        r = w * w
        return (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * w
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
        )
    w = math.sqrt(-2.0 * math.log(1.0 - prob))
    return -(
        ((((_C[0] * w + _C[1]) * w + _C[2]) * w + _C[3]) * w + _C[4]) * w + _C[5]
    ) / ((((_D[0] * w + _D[1]) * w + _D[2]) * w + _D[3]) * w + 1.0)


def normal_quantile(alpha: float) -> float:
    """Upper quantile: the z with P(N(0,1) > z) = alpha, for alpha in (0,1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    prob = 1.0 - alpha
    z = _inv_cdf_seed(prob)
    pdf = normal_pdf(z)
    if pdf > 0.0:
        z -= (normal_cdf(z) - prob) / pdf
    return z


@dataclass(frozen=True)
class TestResult:
    statistic: float
    threshold: float
    reject: bool
    p_value: float
    kernel_label: str
    bandwidth_used: tuple[float, float]
    degenerate: bool = False


def dcor_test(
    sample: PairedSample,
    alpha: float,
    kernels: tuple[KernelSpec, KernelSpec] = (identity_kernel(), identity_kernel()),
    bandwidths: tuple[BandwidthSpec, BandwidthSpec] = (
        BandwidthSpec.fixed(1.0),
        BandwidthSpec.fixed(1.0),
    ),
    tau: Optional[tuple[float, float]] = None,
) -> TestResult:
    """Two-sided independence test on the studentized kernel distance
    covariance: statistic n v_xy / sqrt(2 v_x v_y) against z_{alpha/2}.

    The factor n is used rather than sqrt(n(n-1)); asymptotically equivalent,
    fixed here so results are bit-comparable. A degenerate sample (constant
    data) yields statistic 0, no rejection, p-value 1 and the degenerate flag,
    since the null is indistinguishable from degeneracy.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    parts = dcov_parts(sample, kernels, bandwidths, tau)
    stat = parts.studentized()
    threshold = normal_quantile(alpha / 2.0)
    kx, ky = kernels
    return TestResult(
        statistic=stat,
        threshold=threshold,
        reject=abs(stat) > threshold,
        p_value=math.erfc(abs(stat) / math.sqrt(2.0)),  # no underflow in the tail
        kernel_label=kx.kind if kx.kind == ky.kind else f"{kx.kind}/{ky.kind}",
        bandwidth_used=parts.gamma,
        degenerate=parts.degenerate,
    )

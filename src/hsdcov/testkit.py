"""The (generalized kernel) distance correlation test of independence, plus
standard-normal CDF/quantile helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .dcovstats import BandwidthSpec, KernelSpec, PairedSample, dcov_parts, identity_kernel


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(alpha: float) -> float:
    """Upper quantile: the z with P(N(0,1) > z) = alpha, for alpha in (0,1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    return 0.0 - NormalDist().inv_cdf(alpha)  # +0.0, not -0.0, at the median


@dataclass(frozen=True)
class TestResult:
    statistic: float
    threshold: float
    reject: bool
    p_value: float
    kernel: str
    bandwidth: tuple[float, float]
    degenerate: bool = False


def dcor_test(
    sample: PairedSample,
    alpha: float,
    kernels: tuple[KernelSpec, KernelSpec] = (identity_kernel(), identity_kernel()),
    bandwidths: tuple[BandwidthSpec, BandwidthSpec] = (
        BandwidthSpec.fixed(1.0),
        BandwidthSpec.fixed(1.0),
    ),
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
    parts = dcov_parts(sample, kernels, bandwidths)
    stat = parts.studentized()
    threshold = normal_quantile(alpha / 2.0)
    kx, ky = kernels
    return TestResult(
        statistic=stat,
        threshold=threshold,
        reject=abs(stat) > threshold,
        p_value=math.erfc(abs(stat) / math.sqrt(2.0)),  # no underflow in the tail
        kernel=kx.kind if kx.kind == ky.kind else f"{kx.kind}/{ky.kind}",
        bandwidth=parts.gamma,
        degenerate=parts.degenerate,
    )

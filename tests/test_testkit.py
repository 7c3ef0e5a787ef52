import math

import numpy as np
import pytest

from hsdcov.dcovstats import (
    BandwidthSpec,
    PairedSample,
    SampleTooSmall,
    gaussian_kernel,
    identity_kernel,
)
from hsdcov.testkit import dcor_test, normal_cdf, normal_quantile


def phi_quadrature(x, steps=400000):
    lo = -13.0
    if x <= lo:
        return 0.0
    xs = np.linspace(lo, x, steps + 1)
    ys = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
    h = (x - lo) / steps
    return float(h / 3 * (ys[0] + ys[-1] + 4 * ys[1::2].sum() + 2 * ys[2:-1:2].sum()))


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        for x in (-3.7, -1.0, 0.3, 2.2, 6.0):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    def test_quantile_roundtrip_point(self):
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)

    @pytest.mark.parametrize("x", [-4.0, -2.0, -0.5, 0.0, 0.7, 1.5, 3.0])
    def test_against_quadrature(self, x):
        assert normal_cdf(x) == pytest.approx(phi_quadrature(x), abs=1e-10)


class TestNormalQuantile:
    def test_median(self):
        # +0.0 exactly: the clt CSV prints this value, so -0.0 would show
        assert math.copysign(1.0, normal_quantile(0.5)) == 1.0
        assert normal_quantile(0.5) == 0.0

    # exact quantiles rounded to double; at 1e-12, forming 1 - alpha first
    # loses about 4e-7 relative
    @pytest.mark.parametrize(
        "alpha, want",
        [(0.025, 1.959963984540054), (1e-12, 7.034483825301132)],
        ids=["0.025", "1e-12"],
    )
    def test_two_sided_point(self, alpha, want):
        assert normal_quantile(alpha) == pytest.approx(want, rel=1e-15)

    def test_symmetry(self):
        for alpha in (0.01, 0.1, 0.3):
            assert normal_quantile(alpha) == pytest.approx(
                -normal_quantile(1.0 - alpha), abs=1e-9
            )

    @pytest.mark.parametrize("alpha", [1e-6, 1e-3, 0.02425, 0.05, 0.2, 0.5, 0.9, 0.999])
    def test_cdf_roundtrip(self, alpha):
        z = normal_quantile(alpha)
        assert normal_cdf(z) == pytest.approx(1.0 - alpha, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)


def seeded_sample(seed, n, p, q):
    rng = np.random.default_rng(seed)
    return PairedSample(rng.normal(size=(n, p)), rng.normal(size=(n, q)))


class TestDcorTest:
    def test_constant_y_degenerate(self):
        sample = PairedSample(seeded_sample(0, 8, 2, 2).x, np.ones((8, 2)))
        result = dcor_test(sample, 0.05)
        assert result.statistic == 0.0
        assert not result.reject
        assert result.p_value == 1.0
        assert result.degenerate

    def test_self_pair_statistic(self):
        for n in (4, 6, 20):
            x = np.random.default_rng(n).normal(size=(n, 3))
            result = dcor_test(PairedSample(x, x.copy()), 0.05)
            assert result.statistic == pytest.approx(n / math.sqrt(2.0), rel=1e-10)
            assert result.reject

    def test_far_tail_p_value_does_not_underflow(self):
        x = np.random.default_rng(37).normal(size=(37, 3))
        result = dcor_test(PairedSample(x, x.copy()), 0.05)
        assert result.statistic == pytest.approx(26.16, abs=0.01)
        assert result.p_value > 0.0
        assert result.p_value == math.erfc(result.statistic / math.sqrt(2.0))

    def test_reject_iff_pvalue_below_alpha(self):
        for seed in range(8):
            sample = seeded_sample(seed, 10, 2, 2)
            result = dcor_test(sample, 0.05)
            assert result.reject == (result.p_value < 0.05)
            assert result.reject == (abs(result.statistic) > result.threshold)

    def test_small_sample(self):
        with pytest.raises(SampleTooSmall):
            dcor_test(seeded_sample(0, 3, 2, 2), 0.05)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            dcor_test(seeded_sample(0, 6, 2, 2), 1.5)

    def test_identity_kernel_bandwidth_invariance(self):
        sample = seeded_sample(5, 12, 3, 2)
        base = dcor_test(sample, 0.05)
        wide = dcor_test(
            sample,
            0.05,
            bandwidths=(BandwidthSpec.fixed(17.0), BandwidthSpec.fixed(0.3)),
        )
        assert wide.statistic == pytest.approx(base.statistic, rel=1e-12)
        assert wide.reject == base.reject

    def test_data_transformation_invariance(self):
        rng = np.random.default_rng(9)
        sample = seeded_sample(9, 10, 3, 3)
        base = dcor_test(sample, 0.05)
        perm = rng.permutation(10)
        qx, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = PairedSample(
            (sample.x @ qx + rng.normal(size=(1, 3)))[perm], sample.y[perm]
        )
        got = dcor_test(moved, 0.05)
        assert got.statistic == pytest.approx(base.statistic, rel=1e-9)
        assert got.reject == base.reject

    def test_kernel_label_and_bandwidths_reported(self):
        sample = seeded_sample(3, 8, 2, 2)
        result = dcor_test(
            sample,
            0.05,
            kernels=(gaussian_kernel(), gaussian_kernel()),
            bandwidths=(BandwidthSpec.median(), BandwidthSpec.median()),
        )
        assert result.kernel == "gaussian"
        assert all(b > 0 for b in result.bandwidth)

    def test_mixed_kernel_label(self):
        sample = seeded_sample(4, 8, 2, 2)
        result = dcor_test(
            sample,
            0.05,
            kernels=(identity_kernel(), gaussian_kernel()),
            bandwidths=(BandwidthSpec.fixed(1.0), BandwidthSpec.fixed(2.0)),
        )
        assert result.kernel == "identity/gaussian"

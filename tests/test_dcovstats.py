import math

import numpy as np
import pytest

from hsdcov.dcovstats import (
    BandwidthSpec,
    DegenerateSample,
    KernelSpec,
    PairedSample,
    SampleTooSmall,
    dcov_parts,
    dcov_star,
    dcov_ustat_oracle,
    gaussian_kernel,
    identity_kernel,
    kernel_by_name,
    kernel_matrix,
    laplace_kernel,
    resolve_bandwidth,
    u_center,
)
from hsdcov.theory import CovarianceBlocks, hoeffding_sum, tbar_fluctuation


# ---------------------------------------------------------------------------
# independent reference implementations (slow, loop-based)
# ---------------------------------------------------------------------------

def distances_loops(x):
    n = x.shape[0]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = math.sqrt(float(np.sum((x[i] - x[j]) ** 2)))
    return d


def ucenter_loops(a):
    n = a.shape[0]
    row = a.sum(axis=1)
    col = a.sum(axis=0)
    total = a.sum()
    out = np.zeros_like(a)
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = (
                    a[i, j]
                    - row[i] / (n - 2)
                    - col[j] / (n - 2)
                    + total / ((n - 1) * (n - 2))
                )
    return out


def dcov_kernel_loops(x, y, fx, fy, gx, gy):
    n = x.shape[0]
    a = fx(distances_loops(x) / gx)
    b = fy(distances_loops(y) / gy)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(b, 0.0)
    a_star = ucenter_loops(a)
    b_star = ucenter_loops(b)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += a_star[i, j] * b_star[i, j]
    return total / (n * (n - 3))


def dcov_trace_form(x, y):
    """Alternative closed form: (tr(AB) + 1'A1 1'B1 / ((n-1)(n-2))
    - 2 1'AB1/(n-2)) / (n(n-3))."""
    n = x.shape[0]
    a = distances_loops(x)
    b = distances_loops(y)
    one = np.ones(n)
    return (
        float(np.trace(a @ b))
        + float(one @ a @ one) * float(one @ b @ one) / ((n - 1) * (n - 2))
        - 2.0 * float(one @ a @ b @ one) / (n - 2)
    ) / (n * (n - 3))


def seeded_sample(seed, n, p, q):
    rng = np.random.default_rng(seed)
    return PairedSample(rng.normal(size=(n, p)), rng.normal(size=(n, q)))


# ---------------------------------------------------------------------------
# kernel matrices
# ---------------------------------------------------------------------------

class TestKernelMatrix:
    def test_identity_is_distance_matrix(self):
        x = np.array([[0.0], [3.0], [7.0]])
        k = kernel_matrix(x, identity_kernel(), 1.0)
        np.testing.assert_allclose(k, distances_loops(x))
        assert np.all(np.diag(k) == 0.0)

    def test_gaussian_duplicate_rows(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        k = kernel_matrix(x, gaussian_kernel(), 2.0)
        assert k[0, 1] == 1.0  # e^0 between identical rows
        assert k[0, 0] == 0.0  # diagonal forced to zero even for f(0)=1

    def test_laplace_scalar_evaluation(self):
        x = np.array([[0.0], [3.0]])
        k = kernel_matrix(x, laplace_kernel(), 3.0)
        assert k[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            kernel_matrix(np.zeros((3, 1)), gaussian_kernel(), 0.0)

    def test_infinite_gamma_rejected(self):
        with pytest.raises(ValueError, match="bandwidth must be finite and positive"):
            kernel_matrix(np.array([[0.0], [1.0]]), identity_kernel(), math.inf)

    def test_non_finite_kernel_values_rejected(self):
        blowup = KernelSpec("custom", lambda w: np.full_like(w, np.inf), lambda w: 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            kernel_matrix(np.array([[0.0], [1.0]]), blowup, 1.0)
        # the statistic core checks its own kernel blocks
        sample = PairedSample(np.arange(5.0)[:, None], np.arange(5.0)[:, None])
        with pytest.raises(ValueError, match="^custom kernel produced non-finite values$"):
            dcov_parts(sample, (blowup, blowup))

    def test_kernel_by_name(self):
        assert kernel_by_name("gaussian").kind == "gaussian"
        with pytest.raises(ValueError):
            kernel_by_name("cubic")


# ---------------------------------------------------------------------------
# U-centering
# ---------------------------------------------------------------------------

class TestUCenter:
    def test_zero_matrix(self):
        np.testing.assert_allclose(u_center(np.zeros((5, 5))), np.zeros((5, 5)))

    def test_constant_offdiagonal_row_sums(self):
        a = np.full((4, 4), 2.5)
        np.fill_diagonal(a, 0.0)
        out = u_center(a)
        sums = out.sum(axis=1)  # diagonal is zero, so this is the off-diag sum
        np.testing.assert_allclose(sums, 0.0, atol=1e-12)

    def test_hand_evaluation_matches(self):
        x = np.array([[0.0], [1.0], [2.0], [4.0]])
        a = distances_loops(x)
        np.testing.assert_allclose(u_center(a), ucenter_loops(a), atol=1e-12)

    def test_small_sample_rejected(self):
        with pytest.raises(SampleTooSmall):
            u_center(np.zeros((3, 3)))

    def test_asymmetric_input_rejected(self):
        a = np.ones((5, 5))
        a[0, 1] = 2.0
        with pytest.raises(ValueError, match="symmetric"):
            u_center(a)

    @pytest.mark.parametrize("seed", range(10))
    def test_row_sum_invariant_random(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(4, 12)
        a = np.abs(rng.normal(size=(n, n)))
        a = a + a.T
        np.fill_diagonal(a, 0.0)
        out = u_center(a)
        scale = 1e-9 * (1.0 + np.abs(out).max())
        np.testing.assert_allclose(out.sum(axis=1), 0.0, atol=scale)


# ---------------------------------------------------------------------------
# distance covariance estimators
# ---------------------------------------------------------------------------

class TestDcovStar:
    def test_constant_y_is_zero(self):
        x = seeded_sample(0, 6, 2, 2).x
        sample = PairedSample(x, np.ones((6, 3)))
        assert dcov_star(sample) == 0.0

    def test_duplicated_x_rows_zero(self):
        x = np.tile([[1.0, 2.0]], (5, 1))
        y = seeded_sample(1, 5, 2, 2).y
        assert dcov_star(PairedSample(x, y)) == 0.0

    def test_matches_oracle_seeded(self):
        sample = seeded_sample(42, 6, 2, 2)
        v = dcov_star(sample)
        o = dcov_ustat_oracle(sample)
        assert abs(v - o) <= 1e-10 * (1.0 + abs(v))

    def test_matches_trace_form(self):
        sample = seeded_sample(7, 9, 3, 2)
        assert dcov_star(sample) == pytest.approx(
            dcov_trace_form(sample.x, sample.y), rel=1e-12
        )

    def test_small_sample_rejected(self):
        with pytest.raises(SampleTooSmall):
            dcov_star(seeded_sample(0, 3, 2, 2))

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        sample = seeded_sample(10, 8, 3, 2)
        shifted = PairedSample(
            sample.x + rng.normal(size=(1, 3)), sample.y + rng.normal(size=(1, 2))
        )
        v0, v1 = dcov_star(sample), dcov_star(shifted)
        assert abs(v0 - v1) <= 1e-10 * (1.0 + abs(v0))

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(11)
        sample = seeded_sample(11, 8, 3, 2)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = PairedSample(sample.x @ q, sample.y)
        v0, v1 = dcov_star(sample), dcov_star(rotated)
        assert abs(v0 - v1) <= 1e-10 * (1.0 + abs(v0))

    def test_scaling_homogeneity(self):
        sample = seeded_sample(12, 7, 2, 2)
        c = -2.5
        scaled = PairedSample(c * sample.x, sample.y)
        assert dcov_star(scaled) == pytest.approx(
            abs(c) * dcov_star(sample), rel=1e-10
        )

    def test_row_permutation_invariance(self):
        sample = seeded_sample(13, 8, 2, 3)
        perm = np.random.default_rng(13).permutation(8)
        permuted = PairedSample(sample.x[perm], sample.y[perm])
        assert dcov_star(permuted) == pytest.approx(dcov_star(sample), rel=1e-10)


def marginal(x) -> float:
    """dcov_star of a block with itself: a sum of squares, hence >= 0."""
    return dcov_parts(PairedSample(x, x)).v_x


class TestDcovStarMarginal:
    def test_constant_is_zero(self):
        assert marginal(np.ones((5, 2))) == 0.0

    def test_nonnegative(self):
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=(6, 3))
            assert marginal(x) >= 0.0

    def test_matches_direct_loops(self):
        x = np.random.default_rng(21).normal(size=(5, 1))
        expected = dcov_kernel_loops(x, x, lambda w: w, lambda w: w, 1.0, 1.0)
        assert marginal(x) == pytest.approx(expected, rel=1e-12)


def at_gamma(sample, kernels=(identity_kernel(), identity_kernel()), gamma=(1.0, 1.0)):
    """``dcov_parts`` at fixed per-block bandwidths."""
    return dcov_parts(sample, kernels, tuple(map(BandwidthSpec.fixed, gamma)))


class TestDcovStarKernel:
    def test_identity_unit_gamma_reduces(self):
        sample = seeded_sample(30, 7, 2, 3)
        ks = (identity_kernel(), identity_kernel())
        assert at_gamma(sample, ks, (1.0, 1.0)).v_xy == dcov_star(sample)

    def test_identity_homogeneity_in_gamma(self):
        sample = seeded_sample(31, 7, 2, 3)
        ks = (identity_kernel(), identity_kernel())
        a, b = 2.0, 5.0
        got = at_gamma(sample, ks, (a, b)).v_xy
        want = dcov_star(sample) / (a * b)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    def test_gaussian_matches_loop_reference(self):
        sample = seeded_sample(32, 6, 2, 2)
        got = at_gamma(sample, (gaussian_kernel(), gaussian_kernel()), (1.5, 0.7)).v_xy
        want = dcov_kernel_loops(
            sample.x,
            sample.y,
            lambda w: np.exp(-0.5 * w**2),
            lambda w: np.exp(-0.5 * w**2),
            1.5,
            0.7,
        )
        assert got == pytest.approx(want, rel=1e-12)


class TestDcorStar:
    def test_constant_x_zero_by_convention(self):
        sample = PairedSample(np.ones((6, 2)), seeded_sample(1, 6, 2, 2).y)
        assert at_gamma(sample).correlation() == 0.0

    def test_self_correlation_is_one(self):
        x = seeded_sample(40, 8, 3, 3).x
        sample = PairedSample(x, x.copy())
        assert at_gamma(sample).correlation() == pytest.approx(1.0, rel=1e-12)

    def test_compositional_ratio(self):
        sample = seeded_sample(41, 8, 2, 3)
        ks = (laplace_kernel(), gaussian_kernel())
        gam = (2.0, 3.0)
        v_xy = at_gamma(sample, ks, gam).v_xy
        v_x = at_gamma(
            PairedSample(sample.x, sample.x), (ks[0], ks[0]), (gam[0], gam[0])
        ).v_xy
        v_y = at_gamma(
            PairedSample(sample.y, sample.y), (ks[1], ks[1]), (gam[1], gam[1])
        ).v_xy
        assert at_gamma(sample, ks, gam).correlation() == pytest.approx(
            v_xy / math.sqrt(v_x * v_y), rel=1e-12
        )

    @pytest.mark.parametrize("shift", [0.0, 3.0, 1000.0, -46.0])
    def test_round_off_marginal_is_degenerate_at_any_shift(self, shift):
        # one row apart from five coincident rows: the U-centred distance
        # matrix vanishes, and v_x is +-2e-16 of round-off whose sign moves
        # with a translation (T = 4.24 at -46 without the relative rule)
        x = np.array([[2.0], [0.0], [0.0], [0.0], [0.0], [0.0]])
        parts = dcov_parts(PairedSample(x + shift, 2.0 - x + shift))
        assert parts.degenerate and parts.v_x == parts.v_y == 0.0
        assert parts.studentized() == 0.0


# ---------------------------------------------------------------------------
# bandwidth resolution
# ---------------------------------------------------------------------------

class TestResolveBandwidth:
    def test_fixed(self):
        x = np.zeros((3, 1))
        assert resolve_bandwidth(x, BandwidthSpec.fixed(2.5)) == 2.5

    def test_median_lower_for_even_counts(self):
        x = np.array([[0.0], [1.0], [3.0]])  # pair distances {1, 2, 3}
        assert resolve_bandwidth(x, BandwidthSpec.median()) == 2.0
        x4 = np.array([[0.0], [1.0], [3.0], [7.0]])
        # distances {1,3,7,2,6,4}; lower median of 6 values -> 3
        assert resolve_bandwidth(x4, BandwidthSpec.median()) == 3.0

    def test_median_degenerate(self):
        with pytest.raises(DegenerateSample):
            resolve_bandwidth(np.ones((4, 2)), BandwidthSpec.median())

    def test_rho_target_with_population_tau(self):
        p = 100
        x = np.zeros((2, p))
        spec = BandwidthSpec.rho(math.sqrt(2.0)).at_tau(math.sqrt(2.0 * p))
        assert resolve_bandwidth(x, spec) == pytest.approx(10.0, rel=1e-14)

    @pytest.mark.parametrize("tau, target", [(math.sqrt(200.0), math.sqrt(2.0)), (7.3, 0.3)])
    def test_at_tau_fixes_rho_target(self, tau, target):
        spec = BandwidthSpec.rho(target).at_tau(tau)
        assert spec == BandwidthSpec.fixed(tau / target)
        assert spec.value == tau / target

    @pytest.mark.parametrize("spec", [BandwidthSpec.fixed(2.5), BandwidthSpec.median()])
    def test_at_tau_keeps_other_policies(self, spec):
        assert spec.at_tau(7.3) is spec

    def test_overflowing_gamma_is_value_error(self):
        # estimated tau over a subnormal target overflows to gamma = inf
        x = np.array([[0.0], [1.0], [3.0], [4.0]])
        spec = BandwidthSpec.rho(1e-320)
        with pytest.raises(ValueError, match="finite"):
            resolve_bandwidth(x, spec)
        with pytest.raises(ValueError, match="finite"):
            dcov_parts(PairedSample(x, x), (gaussian_kernel(),) * 2, (spec, spec))
        with pytest.raises(ValueError, match="bandwidth must be finite and positive"):
            spec.at_tau(3.0)  # the same rule at a population tau

    def test_rho_target_estimated_tau(self):
        x = np.array([[0.0], [1.0], [3.0]])
        # squared distances {1, 4, 9}; tau_hat = sqrt(14/3)
        got = resolve_bandwidth(x, BandwidthSpec.rho(2.0))
        assert got == pytest.approx(math.sqrt(14.0 / 3.0) / 2.0, rel=1e-14)

    def test_parse_grammar(self):
        assert BandwidthSpec.parse("fixed:2.5").value == 2.5
        assert BandwidthSpec.parse("median").policy == "median"
        assert BandwidthSpec.parse("rho:1.4142135").value == 1.4142135
        with pytest.raises(ValueError):
            BandwidthSpec.parse("bogus:1")

    @pytest.mark.parametrize(
        "policy, value", [("median", 2.0), ("fixed", None), ("rho", None)]
    )
    def test_value_given_iff_not_median(self, policy, value):
        with pytest.raises(ValueError):
            BandwidthSpec(policy, value)

    @pytest.mark.parametrize(
        "spec",
        [
            BandwidthSpec.fixed(0.1),
            BandwidthSpec.median(),
            BandwidthSpec.rho(2.0**0.5),
            BandwidthSpec("rho", np.float64(1.2)),  # numpy 2 reprs it as np.float64(1.2)
        ],
        ids=["fixed", "median", "rho", "rho-numpy-scalar"],
    )
    def test_parse_inverts_label(self, spec):
        assert BandwidthSpec.parse(spec.label()) == spec


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

class TestOracle:
    def test_single_subset_matches(self):
        sample = seeded_sample(50, 4, 2, 2)
        v = dcov_star(sample)
        assert abs(dcov_ustat_oracle(sample) - v) <= 1e-10 * (1.0 + abs(v))

    def test_constant_y(self):
        sample = PairedSample(seeded_sample(51, 5, 2, 2).x, np.ones((5, 2)))
        assert dcov_ustat_oracle(sample) == pytest.approx(0.0, abs=1e-13)

    def test_seeded_identity(self):
        sample = seeded_sample(52, 7, 3, 1)
        v = dcov_star(sample)
        assert abs(dcov_ustat_oracle(sample) - v) <= 1e-10 * (1.0 + abs(v))

    def test_size_limits(self):
        with pytest.raises(ValueError):
            dcov_ustat_oracle(seeded_sample(0, 13, 1, 1))
        with pytest.raises(ValueError):
            dcov_ustat_oracle(seeded_sample(0, 3, 1, 1))


# ---------------------------------------------------------------------------
# truncated-statistic pair
# ---------------------------------------------------------------------------

def random_blocks(seed, p, q):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(p + q, p + q))
    full = m @ m.T / (p + q) + np.eye(p + q)
    return CovarianceBlocks(
        full[:p, :p], full[:p, p:], full[p:, p:]
    )


class TestTruncatedStatistic:
    def test_null_blocks_reduce_to_cross_sum(self):
        sample = seeded_sample(60, 6, 3, 2)
        blocks = CovarianceBlocks(np.eye(3), np.zeros((3, 2)), np.eye(2))
        n = 6
        tau_prod = math.sqrt(2.0 * 3 * 2.0 * 2)
        cross = (sample.x @ sample.x.T) * (sample.y @ sample.y.T)
        expected = (cross.sum() - np.trace(cross)) / (tau_prod * n * (n - 1))
        assert tbar_fluctuation(sample, blocks) == pytest.approx(expected, rel=1e-12)

    def test_zero_data_null_blocks(self):
        sample = PairedSample(np.zeros((4, 2)), np.zeros((4, 3)))
        blocks = CovarianceBlocks(np.eye(2), np.zeros((2, 3)), np.eye(3))
        assert tbar_fluctuation(sample, blocks) == 0.0
        assert hoeffding_sum(sample, blocks) == pytest.approx(0.0, abs=1e-15)

    def test_pair_kernel_at_n_two(self):
        sample = seeded_sample(61, 2, 2, 2)
        blocks = random_blocks(61, 2, 2)
        # with a single pair, both routes collapse to one g2 evaluation plus
        # the two g1 terms; the identity must still hold exactly
        a = tbar_fluctuation(sample, blocks)
        b = hoeffding_sum(sample, blocks)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_hoeffding_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        sample = seeded_sample(seed + 1000, n, p, q)
        blocks = random_blocks(seed, p, q)
        a = tbar_fluctuation(sample, blocks)
        b = hoeffding_sum(sample, blocks)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_dimension_mismatch(self):
        sample = seeded_sample(62, 5, 2, 2)
        blocks = random_blocks(62, 3, 2)
        with pytest.raises(ValueError):
            tbar_fluctuation(sample, blocks)
        with pytest.raises(ValueError):
            hoeffding_sum(sample, blocks)

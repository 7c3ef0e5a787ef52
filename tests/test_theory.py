import math

import numpy as np
import pytest

from hsdcov.dcovstats import (
    KernelSpec,
    PairedSample,
    SampleTooSmall,
    gaussian_kernel,
    identity_kernel,
    laplace_kernel,
)
from hsdcov.matcore import NotPositiveDefinite
from hsdcov.theory import (
    CovarianceBlocks,
    DegenerateBlocks,
    DegenerateKernel,
    hoeffding_sum,
    local_param_A,
    mean_expansion,
    minimax_eigencheck,
    null_standardized,
    sigma_bar_sq,
    sigma_bar_sq_marginal,
    tau_sq,
    tbar_fluctuation,
    theoretical_power,
    theory_report,
    varrho,
)


def identity_case(p, rho):
    return CovarianceBlocks.identity_blocks(p, p, rho)


def sigma1_trace_oracle(blocks, n):
    """Independent evaluation of the first-order variance using plain numpy
    products, no shared code with the implementation's trace folding."""
    sx, sxy, sy = blocks.sigma_x, blocks.sigma_xy, blocks.sigma_y
    syx = sxy.T
    tx2 = 2.0 * np.trace(sx)
    ty2 = 2.0 * np.trace(sy)
    f2 = np.sum(sxy**2)
    fx2 = np.sum(sx**2)
    fy2 = np.sum(sy**2)
    return (4.0 / (n * tx2 * ty2)) * (
        np.sum((sxy @ syx) ** 2)
        + np.trace(sxy @ sy @ syx @ sx)
        + f2**2 * fx2 / (2 * tx2**2)
        + f2**2 * fy2 / (2 * ty2**2)
        - (2 * f2 / tx2) * np.trace(sxy @ syx @ sx)
        - (2 * f2 / ty2) * np.trace(syx @ sxy @ sy)
        + f2**3 / (tx2 * ty2)
    )


class TestCovarianceBlocks:
    def test_rejects_non_psd(self):
        with pytest.raises(NotPositiveDefinite):
            CovarianceBlocks(np.eye(2), 1.5 * np.eye(2), np.eye(2))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CovarianceBlocks(np.eye(2), np.zeros((3, 2)), np.eye(2))

    @pytest.mark.parametrize("p, q", [(0, 3), (3, 0)])
    def test_identity_blocks_need_positive_dimensions(self, p, q):
        with pytest.raises(ValueError, match="must be positive"):
            CovarianceBlocks.identity_blocks(p, q, 0.1)

    def test_full_assembly(self):
        blocks = identity_case(2, 0.5)
        full = blocks.full()
        assert full.shape == (4, 4)
        np.testing.assert_allclose(full, full.T)


class TestTauSq:
    def test_identity(self):
        assert tau_sq(np.eye(17)) == 34.0

    def test_diagonal(self):
        assert tau_sq(np.diag([1.0, 2.0, 3.0])) == 12.0

    def test_zero(self):
        assert tau_sq(np.zeros((3, 3))) == 0.0


class TestMeanExpansion:
    def test_null(self):
        assert mean_expansion(identity_case(5, 0.0)) == 0.0

    def test_diagonal_case(self):
        for p, rho in [(4, 0.3), (10, 0.5)]:
            assert mean_expansion(identity_case(p, rho)) == pytest.approx(
                rho**2 / 2.0, rel=1e-12
            )

    def test_paper_scale_numbers(self):
        assert mean_expansion(identity_case(100, 0.1)) == pytest.approx(
            0.005, rel=1e-12
        )


class TestSigmaBarSq:
    def test_null_case_matches_closed_form(self):
        p, n = 6, 50
        parts = sigma_bar_sq(identity_case(p, 0.0), n)
        assert parts.sigma1_sq == 0.0
        assert parts.sigma2_sq == pytest.approx(1.0 / (2 * n * (n - 1)), rel=1e-12)
        assert parts.total == parts.sigma2_sq

    @pytest.mark.parametrize("p,rho,n", [(4, 0.2, 30), (8, 0.5, 100), (50, 0.1, 200)])
    def test_diagonal_arithmetic(self, p, rho, n):
        parts = sigma_bar_sq(identity_case(p, rho), n)
        want1 = (rho**2 - 0.75 * rho**4 + 0.25 * rho**6) / (n * p)
        want2 = (1.0 + rho**4) / (2 * n * (n - 1))
        assert parts.sigma1_sq == pytest.approx(want1, rel=1e-12)
        assert parts.sigma2_sq == pytest.approx(want2, rel=1e-12)
        assert parts.total == parts.sigma1_sq + parts.sigma2_sq

    def test_against_trace_oracle_general_blocks(self):
        rng = np.random.default_rng(5)
        p, q, n = 4, 3, 40
        m = rng.normal(size=(p + q, p + q))
        full = m @ m.T / (p + q) + np.eye(p + q)
        blocks = CovarianceBlocks(full[:p, :p], full[:p, p:], full[p:, p:])
        parts = sigma_bar_sq(blocks, n)
        assert parts.sigma1_sq == pytest.approx(
            sigma1_trace_oracle(blocks, n), rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_first_order_is_a_variance(self, seed):
        # sigma1 is Var of a Gaussian quadratic form up to a positive factor:
        # it stays >= 0 and agrees with the seven-term expansion, also on
        # strongly anisotropic blocks
        rng = np.random.default_rng(seed)
        p, q = (int(k) for k in rng.integers(1, 12, size=2))
        basis, _ = np.linalg.qr(rng.normal(size=(p + q, p + q)))
        full = (basis * np.exp(rng.normal(scale=2.0, size=p + q))) @ basis.T
        full = (full + full.T) / 2
        cases = [
            CovarianceBlocks(full[:p, :p], full[:p, p:], full[p:, p:]),
            CovarianceBlocks(
                np.diag([100.0, 0.01]), np.diag([0.9, 0.0005]), np.diag([100.0, 0.01])
            ),
        ]
        for blocks in cases:
            parts = sigma_bar_sq(blocks, 10)
            assert parts.sigma1_sq >= 0.0
            assert parts.sigma1_sq == pytest.approx(
                sigma1_trace_oracle(blocks, 10), rel=1e-12
            )
            assert parts.total == parts.sigma1_sq + parts.sigma2_sq


def marginal_expansion_oracle(sx, n):
    """The marginal variance expanded by hand for S_x = S_y = S_xy = S."""
    tr = np.trace(sx)
    f_x = np.sum(sx**2)
    sigma1 = (1.0 / (n * tr * tr)) * (
        2.0 * np.sum((sx @ sx) ** 2)
        + f_x**3 / (2.0 * tr * tr)
        - 2.0 * f_x * np.trace(sx @ sx @ sx) / tr
    )
    sigma2 = f_x * f_x / (n * (n - 1) * tr * tr)
    return sigma1, sigma2


class TestSigmaBarSqMarginal:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_hand_expansion(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 30))
        n = int(rng.integers(2, 400))
        m = rng.normal(size=(p, p))
        spd = m @ m.T + 0.1 * np.eye(p)
        anisotropic = np.diag(np.exp(rng.normal(scale=2.0, size=p)))
        for sx in (spd, anisotropic):
            got = sigma_bar_sq_marginal(sx, n)
            sigma1, sigma2 = marginal_expansion_oracle(sx, n)
            assert got.sigma1_sq == pytest.approx(sigma1, rel=1e-12)
            assert got.sigma2_sq == pytest.approx(sigma2, rel=1e-12)
            assert got.total == got.sigma1_sq + got.sigma2_sq

    def test_identity_closed_form(self):
        p, n = 9, 40
        parts = sigma_bar_sq_marginal(np.eye(p), n)
        assert parts.sigma1_sq == pytest.approx(1.0 / (2 * n * p), rel=1e-12)
        assert parts.sigma2_sq == pytest.approx(1.0 / (n * (n - 1)), rel=1e-12)

    def test_second_order_vanishes_relatively_for_large_n(self):
        p = 5
        ratio_small_n = (
            sigma_bar_sq_marginal(np.eye(p), 10).sigma2_sq
            / sigma_bar_sq_marginal(np.eye(p), 10).sigma1_sq
        )
        ratio_large_n = (
            sigma_bar_sq_marginal(np.eye(p), 10000).sigma2_sq
            / sigma_bar_sq_marginal(np.eye(p), 10000).sigma1_sq
        )
        assert ratio_large_n < ratio_small_n / 100
        # rate: ratio = 2p/(n-1)
        assert ratio_large_n == pytest.approx(2 * p / 9999, rel=1e-9)

    def test_scaling_leaves_component_ratio_unchanged(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4))
        sx = a @ a.T + 4 * np.eye(4)
        base = sigma_bar_sq_marginal(sx, 25)
        scaled = sigma_bar_sq_marginal(3.7 * sx, 25)
        assert scaled.sigma1_sq / scaled.sigma2_sq == pytest.approx(
            base.sigma1_sq / base.sigma2_sq, rel=1e-10
        )


# a 6 x 3 / 6 x 2 sample matching the blocks below
FLUCTUATION_SAMPLE = PairedSample(np.arange(18.0).reshape(6, 3), np.arange(12.0).reshape(6, 2))


@pytest.mark.parametrize(
    "formula",
    [
        mean_expansion,
        lambda b: sigma_bar_sq(b, 50),
        lambda b: sigma_bar_sq_marginal(b.sigma_x, 50),
        lambda b: local_param_A(b, 50),
        lambda b: theoretical_power(b, 50, 0.05),
        lambda b: theory_report(b, 50),
        lambda b: tbar_fluctuation(FLUCTUATION_SAMPLE, b),
        lambda b: hoeffding_sum(FLUCTUATION_SAMPLE, b),
        lambda b: null_standardized(b, 50, np.ones(4)),
    ],
    ids=["mean", "sigma", "sigma_marginal", "A", "power", "report", "tbar", "hoeffding", "null"],
)
@pytest.mark.parametrize("scale", [0.0, 1e-170], ids=["zero", "underflow"])
def test_zero_marginal_has_one_rule(formula, scale):
    # at 1e-170 the trace is positive, but |S_x|_F^2 underflows to 0
    blocks = CovarianceBlocks(scale * np.eye(3), np.zeros((3, 2)), np.eye(2))
    with pytest.raises(DegenerateBlocks, match="^marginal covariance blocks must be nonzero$"):
        formula(blocks)


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_null_standardized_is_scale_free(scale):
    # |S_x|_F^2 |S_y|_F^2 is 9e-400 or 9e400 here, out of double range
    def standardized(c):
        blocks = CovarianceBlocks(c * np.eye(3), 0.2 * c * np.eye(3), c * np.eye(3))
        return null_standardized(blocks, 50, c * np.array([1.0, 0.3]))

    np.testing.assert_allclose(standardized(scale), standardized(1.0), rtol=1e-12)


@pytest.mark.parametrize(
    "formula",
    [sigma_bar_sq, lambda b, n: sigma_bar_sq_marginal(b.sigma_x, n), theory_report],
    ids=["sigma", "sigma_marginal", "report"],
)
def test_variance_needs_two_observations(formula):
    with pytest.raises(SampleTooSmall, match="^variance formula needs n >= 2, got 1$"):
        formula(identity_case(3, 0.2), 1)


class TestLocalParam:
    def test_null(self):
        assert local_param_A(identity_case(4, 0.0), 100) == 0.0

    def test_diagonal(self):
        assert local_param_A(identity_case(7, 0.3), 50) == pytest.approx(
            50 * 0.09, rel=1e-12
        )

    def test_simulation_scale(self):
        assert local_param_A(identity_case(100, 0.1), 1000) == pytest.approx(
            10.0, rel=1e-12
        )


class TestVarrho:
    def test_identity_kernels(self):
        tau = (math.sqrt(6.0), math.sqrt(6.0))
        got = varrho((identity_kernel(), identity_kernel()), (2.0, 5.0), tau)
        assert got == pytest.approx(1.0 / 10.0, rel=1e-14)

    def test_gaussian_at_sqrt2(self):
        p = 16
        tau = math.sqrt(tau_sq(np.eye(p)))
        gamma = tau / math.sqrt(2.0)
        got = varrho((gaussian_kernel(), gaussian_kernel()), (gamma, gamma), (tau, tau))
        assert got == pytest.approx(2.0 * math.exp(-2.0) / gamma**2, rel=1e-12)

    def test_laplace_at_one(self):
        p = 8
        gamma = math.sqrt(2.0 * p)  # rho = 1
        got = varrho((laplace_kernel(), laplace_kernel()), (gamma, gamma), (gamma, gamma))
        assert got == pytest.approx(math.exp(-2.0) / gamma**2, rel=1e-12)

    @pytest.mark.parametrize("gamma", [(0.0, 1.0), (1.0, math.inf)])
    def test_bandwidth_outside_open_interval_rejected(self, gamma):
        ks = (identity_kernel(), identity_kernel())
        with pytest.raises(ValueError, match="bandwidth must be finite and positive"):
            varrho(ks, gamma, (1.0, 1.0))

    def test_degenerate_derivative(self):
        flat = KernelSpec("custom", lambda w: np.ones_like(w), lambda w: 0.0)
        with pytest.raises(DegenerateKernel):
            varrho((flat, flat), (1.0, 1.0), (2.0, 2.0))

    def test_identity_scaling_ties_kernel_to_plain_statistic(self):
        from hsdcov.dcovstats import BandwidthSpec, PairedSample, dcov_parts, dcov_star

        rng = np.random.default_rng(23)
        sample = PairedSample(rng.normal(size=(8, 3)), rng.normal(size=(8, 3)))
        ks = (identity_kernel(), identity_kernel())
        gam = (2.0, 7.0)
        scaled = varrho(ks, gam, (math.sqrt(6.0), math.sqrt(6.0))) * dcov_star(sample)
        parts = dcov_parts(sample, ks, tuple(map(BandwidthSpec.fixed, gam)))
        assert parts.v_xy == pytest.approx(scaled, rel=1e-12)


def phi_quadrature(x, steps=200000):
    """Composite-Simpson integral of the standard normal density on
    [-12, x]; independent oracle for the power formula."""
    lo = -12.0
    if x <= lo:
        return 0.0
    xs = np.linspace(lo, x, steps + 1)
    ys = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
    h = (x - lo) / steps
    return float(h / 3 * (ys[0] + ys[-1] + 4 * ys[1::2].sum() + 2 * ys[2:-1:2].sum()))


class TestTheoreticalPower:
    def test_null_equals_alpha(self):
        for alpha in (0.01, 0.05, 0.2):
            assert theoretical_power(identity_case(5, 0.0), 100, alpha) == (
                pytest.approx(alpha, abs=1e-9)
            )

    def test_monotone_in_shift(self):
        powers = [
            theoretical_power(identity_case(100, rho), 1000, 0.05)
            for rho in (0.0, 0.03, 0.05, 0.08, 0.12, 0.2)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(powers, powers[1:]))
        assert powers[-1] > 0.99

    def test_against_quadrature_oracle(self):
        blocks = identity_case(100, 0.05)
        n, alpha = 1000, 0.05
        a = local_param_A(blocks, n)
        assert a == pytest.approx(2.5, rel=1e-12)
        m = a / math.sqrt(2.0)
        z = 1.9599639845400545
        want = phi_quadrature(m - z) + phi_quadrature(-m - z)
        got = theoretical_power(blocks, n, alpha)
        assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            theoretical_power(identity_case(5, 0.1), 100, alpha)
        with pytest.raises(ValueError, match="alpha"):
            theory_report(identity_case(5, 0.1), 100, alpha)


class TestInvarianceUnderConjugation:
    def test_orthogonal_conjugation(self):
        rng = np.random.default_rng(17)
        p, q, n = 4, 3, 60
        m = rng.normal(size=(p + q, p + q))
        full = m @ m.T / (p + q) + np.eye(p + q)
        blocks = CovarianceBlocks(full[:p, :p], full[:p, p:], full[p:, p:])
        qx, _ = np.linalg.qr(rng.normal(size=(p, p)))
        qy, _ = np.linalg.qr(rng.normal(size=(q, q)))
        rotated = CovarianceBlocks(
            qx @ blocks.sigma_x @ qx.T,
            qx @ blocks.sigma_xy @ qy.T,
            qy @ blocks.sigma_y @ qy.T,
        )
        for fn in (mean_expansion, lambda b: local_param_A(b, n)):
            assert fn(rotated) == pytest.approx(fn(blocks), rel=1e-10)
        assert theoretical_power(rotated, n, 0.05) == pytest.approx(
            theoretical_power(blocks, n, 0.05), rel=1e-10
        )
        got = sigma_bar_sq(rotated, n)
        want = sigma_bar_sq(blocks, n)
        assert got.total == pytest.approx(want.total, rel=1e-10)


class TestMinimaxEigencheck:
    def test_zero_perturbation(self):
        report = minimax_eigencheck(
            (np.ones(4), -np.ones(4)), (np.ones(5), np.ones(5)), 0.0
        )
        assert report.max_identity_error == 0.0
        assert report.nontrivial_eigencount == 0

    def test_aligned_signs_product_one(self):
        s = np.array([1.0, -1.0, 1.0, 1.0])
        t = np.array([-1.0, 1.0, 1.0])
        a = 1.0 / (4 * 4 * 3)
        # s2 = -s1 or t2 = -t1 collapses one of the two invariant planes
        for u_sign, v_sign in [(1, 1), (-1, 1), (1, -1), (-1, -1)]:
            report = minimax_eigencheck((s, u_sign * s), (t, v_sign * t), a)
            assert report.max_identity_error <= 1e-10
            assert report.nontrivial_eigencount <= 4

    @pytest.mark.parametrize("seed", range(8))
    def test_random_signs(self, seed):
        rng = np.random.default_rng(seed)
        p = q = 6
        a = 1.0 / (4 * p * q)
        u = (rng.choice([-1.0, 1.0], p), rng.choice([-1.0, 1.0], p))
        v = (rng.choice([-1.0, 1.0], q), rng.choice([-1.0, 1.0], q))
        report = minimax_eigencheck(u, v, a)
        assert report.max_identity_error <= 1e-8
        assert report.nontrivial_eigencount <= 4

    def test_rectangular_sides(self):
        rng = np.random.default_rng(99)
        p, q = 5, 8
        a = 1.0 / (4 * p * q)
        report = minimax_eigencheck(
            (rng.choice([-1.0, 1.0], p), rng.choice([-1.0, 1.0], p)),
            (rng.choice([-1.0, 1.0], q), rng.choice([-1.0, 1.0], q)),
            a,
        )
        assert report.max_identity_error <= 1e-8

    def test_identical_planes(self):
        # <u1,u2> = <v1,v2> = 0 makes the two planes the same 2x2 piece, so
        # each eigenvalue is double and every pairing has a tie
        s = (np.array([1.0, 1.0, 1.0, 1.0]), np.array([1.0, 1.0, -1.0, -1.0]))
        t = (np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        report = minimax_eigencheck(s, t, 3.5 / 32)
        np.testing.assert_allclose(report.lambda_values, [-7 / 15] * 2 + [7.0] * 2, rtol=1e-12)
        assert report.max_identity_error <= 1e-12

    def test_near_singular_scale(self):
        # round-off lifts trivial eigenvalues above the cut; the four largest
        # still pair
        rng = np.random.default_rng(5)
        p = q = 6
        u = (rng.choice([-1.0, 1.0], p), rng.choice([-1.0, 1.0], p))
        v = (rng.choice([-1.0, 1.0], q), rng.choice([-1.0, 1.0], q))
        report = minimax_eigencheck(u, v, (1 - 1e-12) / (p * q))
        assert report.nontrivial_eigencount > 4
        assert math.isfinite(report.max_identity_error)

    def test_round_off_zero_pairs_as_zero(self, monkeypatch):
        # t2 = t1 collapses one plane, and near |a| p q = 1 the largest
        # eigenvalue is about 1e8, so eps times it passes the 1e-8 cut
        args = (
            (np.ones(8), np.array([1.0, 1, -1, -1, -1, -1, -1, -1])),
            (np.ones(1), np.ones(1)),
            (1 - 1e-8) / 8,
        )
        eigvalsh = np.linalg.eigvalsh

        def trivial_at(lift):
            def patched(m):
                w = eigvalsh(m)
                w[np.abs(w) < 1e-3] = 0.0
                w[np.argmin(np.abs(w))] = lift * np.abs(w).max()
                return w

            return patched

        monkeypatch.setattr(np.linalg, "eigvalsh", trivial_at(0.0))
        exact = minimax_eigencheck(*args)
        monkeypatch.setattr(np.linalg, "eigvalsh", trivial_at(np.finfo(float).eps))
        lifted = minimax_eigencheck(*args)
        assert lifted.nontrivial_eigencount == exact.nontrivial_eigencount + 1 == 4
        assert lifted.max_identity_error == exact.max_identity_error

    def test_wrong_spectrum_is_caught(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def shifted(m):
            w = eigvalsh(m)
            w[np.argmax(w)] += 1e-6
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
        rng = np.random.default_rng(3)
        p = q = 6
        u = (rng.choice([-1.0, 1.0], p), rng.choice([-1.0, 1.0], p))
        v = (rng.choice([-1.0, 1.0], q), rng.choice([-1.0, 1.0], q))
        report = minimax_eigencheck(u, v, 1.0 / (4 * p * q))
        assert report.max_identity_error >= 1e-7

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            minimax_eigencheck(
                (np.ones(4), np.ones(4)), (np.ones(4), np.ones(4)), 0.1
            )

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale(self, a):
        with pytest.raises(ValueError, match="must be < 1"):
            minimax_eigencheck((np.ones(3), np.ones(3)), (np.ones(3), np.ones(3)), a)

    def test_bad_signs(self):
        with pytest.raises(ValueError):
            minimax_eigencheck(
                (np.array([1.0, 0.5]), np.ones(2)), (np.ones(2), np.ones(2)), 0.01
            )

    @pytest.mark.parametrize("p, q", [(0, 3), (3, 0), (0, 0)])
    def test_empty_signs(self, p, q):
        # an empty side has no spectrum to check, so nothing may pass vacuously
        with pytest.raises(ValueError, match="nonempty"):
            minimax_eigencheck((np.ones(p), np.ones(p)), (np.ones(q), np.ones(q)), 0.01)


class TestTheoryReport:
    def test_fields_consistent(self):
        report = theory_report(identity_case(10, 0.2), 80, 0.05)
        assert report.sigma_sq == report.sigma1_sq + report.sigma2_sq
        assert report.power >= 0.05 - 1e-9
        assert report.tau_x_sq == 20.0

import math
import warnings

import numpy as np
import pytest

from hsdcov.dcovstats import gaussian_kernel, identity_kernel, laplace_kernel
from hsdcov.matcore import NotPositiveDefinite
from hsdcov.theory import (
    CovarianceBlocks,
    DegenerateKernel,
    local_param_A,
    mean_expansion,
    minimax_eigencheck,
    sigma_bar_sq,
    sigma_bar_sq_marginal,
    tau_sq,
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

    def test_negative_first_order_warns_not_clamps(self):
        # strongly anisotropic marginals push sigma1 negative
        sx = np.diag([100.0, 0.01])
        sy = np.diag([100.0, 0.01])
        sxy = np.diag([0.9, 0.0005])
        full = np.block([[sx, sxy], [sxy.T, sy]])
        assert np.all(np.linalg.eigvalsh(full) > 0)
        blocks = CovarianceBlocks(sx, sxy, sy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parts = sigma_bar_sq(blocks, 10)
        if parts.sigma1_sq < 0:
            assert any("negative" in str(w.message) for w in caught)
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
        blocks = identity_case(3, 0.0)
        got = varrho((identity_kernel(), identity_kernel()), (2.0, 5.0), blocks)
        assert got == pytest.approx(1.0 / 10.0, rel=1e-14)

    def test_gaussian_at_sqrt2(self):
        p = 16
        blocks = identity_case(p, 0.0)
        tau = math.sqrt(2.0 * p)
        gamma = tau / math.sqrt(2.0)
        got = varrho((gaussian_kernel(), gaussian_kernel()), (gamma, gamma), blocks)
        assert got == pytest.approx(2.0 * math.exp(-2.0) / gamma**2, rel=1e-12)

    def test_laplace_at_one(self):
        p = 8
        blocks = identity_case(p, 0.0)
        gamma = math.sqrt(2.0 * p)  # rho = 1
        got = varrho((laplace_kernel(), laplace_kernel()), (gamma, gamma), blocks)
        assert got == pytest.approx(math.exp(-2.0) / gamma**2, rel=1e-12)

    def test_degenerate_derivative(self):
        from hsdcov.dcovstats import custom_kernel

        flat = custom_kernel(lambda w: np.ones_like(w), lambda w: 0.0)
        with pytest.raises(DegenerateKernel):
            varrho((flat, flat), (1.0, 1.0), identity_case(2, 0.0))

    def test_identity_scaling_ties_kernel_to_plain_statistic(self):
        from hsdcov.dcovstats import PairedSample, dcov_star, dcov_star_kernel

        rng = np.random.default_rng(23)
        sample = PairedSample(rng.normal(size=(8, 3)), rng.normal(size=(8, 3)))
        blocks = identity_case(3, 0.0)
        ks = (identity_kernel(), identity_kernel())
        gam = (2.0, 7.0)
        scaled = varrho(ks, gam, blocks) * dcov_star(sample)
        assert dcov_star_kernel(sample, ks, gam) == pytest.approx(scaled, rel=1e-12)


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

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            minimax_eigencheck(
                (np.ones(4), np.ones(4)), (np.ones(4), np.ones(4)), 0.1
            )

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
        assert report.warnings == []

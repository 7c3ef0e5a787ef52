import math

import numpy as np
import pytest

from hsdcov import theory
from hsdcov.experiments import CltConfig, run_clt
from hsdcov.matcore import (
    EigenConvergenceError,
    NotPositiveDefinite,
    cholesky,
    frobenius_norm_sq,
    pairwise_sq_distances,
    sym_eigenvalues,
)


class TestFrobeniusNormSq:
    def test_zero_matrix(self):
        assert frobenius_norm_sq(np.zeros((3, 4))) == 0.0

    def test_identity(self):
        assert frobenius_norm_sq(np.eye(7)) == 7.0

    def test_small_dense(self):
        # 1 + 4 + 9 + 16
        assert frobenius_norm_sq([[1.0, 2.0], [3.0, 4.0]]) == 30.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            frobenius_norm_sq([[1.0, np.nan]])


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(4)), np.eye(4))

    def test_diagonal_roots(self):
        np.testing.assert_allclose(
            cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0])
        )

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky([[1.0, 1.1], [1.1, 1.0]])

    @pytest.mark.parametrize("dim", [2, 5, 20, 60])
    def test_reconstruction_roundtrip(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim))
        spd = a + a.T @ a + dim * np.eye(dim)
        spd = 0.5 * (spd + spd.T)
        lower = cholesky(spd)
        err = math.sqrt(frobenius_norm_sq(lower @ lower.T - spd))
        assert err <= 1e-10 * math.sqrt(frobenius_norm_sq(spd))
        assert np.allclose(np.triu(lower, k=1), 0.0)

    def test_pivot_below_relative_threshold_raises(self):
        # LAPACK factors this SPD matrix, but its second pivot 1e-14 lies
        # below dim * 1e-12 * max(diag) = 2e-12
        spd = np.diag([1.0, 1e-14])
        assert np.linalg.cholesky(spd)[1, 1] > 0.0
        with pytest.raises(NotPositiveDefinite, match="column 1"):
            cholesky(spd)

    def test_lapack_rejection_maps_to_not_positive_definite(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(indefinite)
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky(indefinite)
        assert not isinstance(err.value, np.linalg.LinAlgError)

    def test_run_clt_factors_explicit_blocks_once(self, monkeypatch):
        blocks = theory.CovarianceBlocks.identity_blocks(3, 2, 0.4)
        shapes = []

        def counting_cholesky(s):
            shapes.append(np.shape(s))
            return cholesky(s)

        monkeypatch.setattr(theory, "cholesky", counting_cholesky)
        cfg = CltConfig(reps=6, seed=2, blocks=blocks, n=20)
        first = run_clt(cfg)
        assert run_clt(cfg).raw == first.raw
        assert shapes == [(5, 5)]  # one factorisation across 12 replications


class TestSymEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(sym_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        np.testing.assert_allclose(
            sym_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0]
        )

    def test_two_by_two_closed_form(self):
        np.testing.assert_allclose(
            sym_eigenvalues([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 1.0], atol=1e-12
        )

    @pytest.mark.parametrize("dim", [2, 7, 25, 80])
    def test_trace_and_frobenius_identities(self, dim):
        rng = np.random.default_rng(100 + dim)
        a = rng.normal(size=(dim, dim))
        s = 0.5 * (a + a.T)
        lam = sym_eigenvalues(s)
        assert lam[0] <= lam[-1]
        assert np.all(np.diff(lam) >= -1e-12)
        tr = float(np.trace(s))
        assert abs(lam.sum() - tr) <= 1e-8 * (1.0 + abs(tr))
        fro = frobenius_norm_sq(s)
        assert abs(np.sum(lam**2) - fro) <= 1e-8 * (1.0 + fro)

    def test_matches_lapack(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(12, 12))
        s = 0.5 * (a + a.T)
        np.testing.assert_allclose(
            sym_eigenvalues(s), np.linalg.eigvalsh(s), atol=1e-9
        )

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            sym_eigenvalues([[0.0, 1.0], [0.5, 0.0]])

    def test_lapack_failure_maps_to_convergence_error(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(EigenConvergenceError, match="did not converge"):
            sym_eigenvalues(np.eye(3))


class TestPairwiseSqDistances:
    def test_single_point(self):
        np.testing.assert_allclose(pairwise_sq_distances([[1.5, 2.5]]), [[0.0]])

    def test_two_scalar_points(self):
        np.testing.assert_allclose(
            pairwise_sq_distances([[0.0], [3.0]]), [[0.0, 9.0], [9.0, 0.0]]
        )

    def test_duplicate_rows_zero(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0]])
        d = pairwise_sq_distances(x)
        assert d[0, 1] == 0.0
        assert d[1, 0] == 0.0

    def test_matches_direct_loops(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 4))
        d = pairwise_sq_distances(x)
        for i in range(7):
            for j in range(7):
                expected = float(np.sum((x[i] - x[j]) ** 2))
                assert d[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_triangle_inequality_after_sqrt(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 3)) * 50.0
        d = np.sqrt(pairwise_sq_distances(x))
        n = d.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_nonnegative_under_roundoff(self):
        # nearly identical large-magnitude rows stress the expansion formula
        x = np.full((5, 6), 1e8)
        x[1:, 0] += 1e-4
        assert np.all(pairwise_sq_distances(x) >= 0.0)

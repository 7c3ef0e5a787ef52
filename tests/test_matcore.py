import math

import numpy as np
import pytest

from hsdcov import theory
from hsdcov.experiments import CltConfig, run_clt
from hsdcov.matcore import (
    NotPositiveDefinite,
    cholesky,
    frobenius_norm_sq,
    pairwise_sq_distances,
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

    def test_close_pair_taken_from_row_difference(self):
        # the Gram expansion cancels to 0.0 here; the difference gives 3.0e-14
        x = 10.0 * np.random.default_rng(4).normal(size=(12, 3))
        x[7] = x[3] + 1e-7
        d = pairwise_sq_distances(x)
        diff = x[3] - x[7]
        assert d[3, 7] == float(np.einsum("i,i->", diff, diff)) > 0.0
        assert np.array_equal(d, d.T)

    @pytest.mark.parametrize("jitter", [0.0, 1e-6], ids=["tied", "close"])
    @pytest.mark.parametrize("n, p", [(400, 3), (30, 2000)], ids=["two_blocks", "chunked"])
    def test_crowded_rows_taken_from_row_differences(self, n, p, jitter):
        # n - 1 equal or close rows and one outlier, so almost every pair is
        # close: 400 rows span two row blocks, and 2000 columns make the
        # retake run in chunks of 65 pairs
        x = 1.0 + jitter * np.random.default_rng(5).normal(size=(n, p))
        x[-1] = 10.0
        d = pairwise_sq_distances(x)
        i, j = np.divmod(np.arange((n - 1) ** 2), n - 1)
        diff = x[i] - x[j]
        exact = np.einsum("ij,ij->i", diff, diff).reshape(n - 1, n - 1)
        assert np.array_equal(d[:-1, :-1], exact)
        far = np.sum((x - x[-1]) ** 2, axis=1)
        np.testing.assert_allclose(d[-1], far, rtol=1e-12)
        assert np.array_equal(d, d.T)

    def test_nonnegative_under_roundoff(self):
        # nearly identical large-magnitude rows stress the expansion formula
        x = np.full((5, 6), 1e8)
        x[1:, 0] += 1e-4
        assert np.all(pairwise_sq_distances(x) >= 0.0)

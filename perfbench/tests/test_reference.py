"""The benchmark's reference agrees with the library's brute-force oracle,
and its CSV inputs round-trip through the CLI's parser.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402
from hsdcov import PairedSample, dcov_ustat_oracle  # noqa: E402
from hsdcov import cli, dcovstats  # noqa: E402


@pytest.mark.parametrize("kernel", sorted(reference.KERNELS))
@pytest.mark.parametrize("n", [4, 7, 12])
def test_u_inner_matches_oracle(monkeypatch, kernel, n):
    gen = np.random.default_rng(n)
    x, y = gen.standard_normal((n, 5)), gen.standard_normal((n, 3))
    y[:, 0] += x[:, 0]
    gamma = 1.7

    def kernel_matrix(a):
        return reference.KERNELS[kernel](reference.distances(a) / gamma)

    # the oracle takes the square root of what it is given, so handing it
    # squared kernel values evaluates its U-statistic on the kernel matrices
    monkeypatch.setattr(dcovstats, "pairwise_sq_distances", lambda a: kernel_matrix(a) ** 2)
    want = dcov_ustat_oracle(PairedSample(x, y))
    got, _, _ = reference.dcov_triple(
        reference.kernel_of(reference.distances(x), kernel, gamma),
        reference.kernel_of(reference.distances(y), kernel, gamma),
    )
    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-13)


def test_median_distance_is_lower_median():
    d = reference.distances(np.random.default_rng(0).standard_normal((9, 4)))
    upper = np.sort(d[np.triu_indices(9, k=1)])
    assert reference.median_distance(d) == upper[(upper.size - 1) // 2]


def test_csv_round_trips_through_cli_parser(tmp_path):
    x = np.random.default_rng(1).standard_normal((20, 6)) * 10.0 ** np.arange(-3, 3)
    path = tmp_path / "x.csv"
    np.savetxt(path, x, fmt="%.17g", delimiter=",")
    assert np.array_equal(cli._read_csv_matrix(str(path), False), x)
    assert np.array_equal(np.loadtxt(path, delimiter=","), x)

"""The fused statistic core (``dcov_parts``) against the reference paths it
replaced: U-centred matrices, brute-force pair enumeration and the 4th-order
U-statistic oracle."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hsdcov import experiments
from hsdcov.dcovstats import (
    BandwidthSpec,
    DegenerateSample,
    PairedSample,
    dcor_star,
    dcov_parts,
    dcov_star,
    dcov_ustat_oracle,
    distance_matrix,
    estimate_tau,
    kernel_by_name,
    kernel_matrix,
    pairwise_distance_median,
    resolve_bandwidth,
    u_center,
)
from hsdcov.experiments import CltConfig, PowerConfig, ReplicationError, run_clt, run_power
from hsdcov.simgen import SimScenario, derive_stream, sample_factor
from hsdcov.testkit import dcor_test
from hsdcov.theory import tau_sq

KERNELS = ("identity", "gaussian", "laplace")
POLICIES = (BandwidthSpec.fixed(1.3), BandwidthSpec.median(), BandwidthSpec.rho(1.0))


def dependent_sample(seed, n, p=4, q=3, offset=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = x[:, :q] + rng.normal(size=(n, q))
    return PairedSample(x + offset, y + offset)


def u_center_path(sample, kernel, spec):
    """The pre-fusion pipeline: kernel matrices, U-centring, sum of products."""
    n = sample.n
    gx = resolve_bandwidth(sample.x, spec)
    gy = resolve_bandwidth(sample.y, spec)
    a = u_center(kernel_matrix(sample.x, kernel, gx))
    b = u_center(kernel_matrix(sample.y, kernel, gy))

    def inner(s, t):
        return float(np.sum(s * t)) / (n * (n - 3))

    return inner(a, b), inner(a, a), inner(b, b), (gx, gy)


@pytest.mark.parametrize("shape", [(1, 1), (4, 2), (37, 1), (300, 20), (1000, 7)])
def test_distance_matrix_exactly_symmetric(shape):
    x = np.random.default_rng(shape[0]).normal(size=shape) * 10.0 + 3.0
    d = distance_matrix(x)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)


@pytest.mark.parametrize("n", [4, 5, 50, 300])
@pytest.mark.parametrize("spec", POLICIES, ids=lambda s: s.policy)
@pytest.mark.parametrize("name", KERNELS)
def test_core_matches_u_center_path(name, spec, n):
    sample = dependent_sample(n, n)
    kernel = kernel_by_name(name)
    v_xy, v_x, v_y, gamma = u_center_path(sample, kernel, spec)
    parts = dcov_parts(sample, (kernel, kernel), (spec, spec))
    assert parts.gamma == gamma
    # v_xy on the studentized scale: one unit of n v_xy / sqrt(2 v_x v_y)
    unit = math.sqrt(2.0 * v_x * v_y) / n
    assert abs(parts.v_xy - v_xy) <= 1e-10 * max(abs(v_xy), unit)
    assert parts.v_x == pytest.approx(v_x, rel=1e-10)
    assert parts.v_y == pytest.approx(v_y, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 12).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, (n, 3), elements=st.floats(-50, 50, width=32)),
            arrays(np.float64, (n, 2), elements=st.floats(-50, 50, width=32)),
        )
    )
)
def test_core_matches_oracle(blocks):
    sample = PairedSample(*blocks)
    want = dcov_ustat_oracle(sample)
    got = dcov_parts(sample).v_xy
    scale = float(distance_matrix(sample.x).mean() * distance_matrix(sample.y).mean())
    assert abs(got - want) <= 1e-9 * (abs(want) + scale) + 1e-300


def brute_pair_distances(x):
    return [math.dist(a, b) for a, b in combinations(x.tolist(), 2)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 50, 51])
def test_median_and_tau_match_pair_enumeration(n):
    # pair counts 3, 6, 10, 15, 1225, 1275: odd and even
    x = np.random.default_rng(n).normal(size=(n, 3)) + 100.0
    pairs = sorted(brute_pair_distances(x))
    median = pairs[(len(pairs) - 1) // 2]
    tau = math.sqrt(sum(v * v for v in pairs) / len(pairs))
    assert pairwise_distance_median(x) == pytest.approx(median, rel=1e-12)
    assert resolve_bandwidth(x, BandwidthSpec.median()) == pairwise_distance_median(x)
    assert estimate_tau(x) == pytest.approx(tau, rel=1e-12)
    assert resolve_bandwidth(x, BandwidthSpec.rho(2.0)) == estimate_tau(x) / 2.0


def test_translation_invariance_at_large_offset():
    base, moved = dependent_sample(7, 60), dependent_sample(7, 60, offset=1e6)
    assert dcov_star(moved) == pytest.approx(dcov_star(base), rel=1e-9)
    kernel, median = kernel_by_name("gaussian"), BandwidthSpec.median()
    args = (0.05, (kernel, kernel), (median, median))
    assert dcor_test(moved, *args).statistic == pytest.approx(
        dcor_test(base, *args).statistic, rel=1e-9
    )


@pytest.mark.parametrize("name", KERNELS)
def test_constant_block_is_degenerate(name):
    x = np.random.default_rng(2).normal(size=(12, 3))
    sample = PairedSample(x, np.full((12, 2), 0.1))
    kernel = kernel_by_name(name)
    parts = dcov_parts(sample, (kernel, kernel), (BandwidthSpec.fixed(1.7),) * 2)
    assert parts.v_y == 0.0 and parts.degenerate
    result = dcor_test(sample, 0.05, (kernel, kernel), (BandwidthSpec.fixed(1.7),) * 2)
    assert result.degenerate and result.statistic == 0.0 and result.p_value == 1.0
    assert dcor_star(sample, (kernel, kernel), (1.7, 1.7)) == 0.0


def constant_sample(*args):
    return PairedSample(np.ones((8, 2)), np.ones((8, 2)))


@pytest.mark.parametrize("runner", ["power", "clt"])
def test_degenerate_median_raises_everywhere(monkeypatch, runner):
    median = BandwidthSpec.median()
    with pytest.raises(DegenerateSample):
        dcor_test(constant_sample(), 0.05, bandwidths=(median, median))
    monkeypatch.setattr(experiments, "sample_factor", constant_sample)
    scenario = SimScenario(n=8, p=2, rho=0.0)
    with pytest.raises(ReplicationError) as err:
        if runner == "power":
            run_power(PowerConfig(n=8, p=2, rho_grid=(0.0,), bandwidths=(median,), reps=2))
        else:
            run_clt(CltConfig(reps=2, seed=0, scenario=scenario, bandwidths=(median, median)))
    assert isinstance(err.value.__cause__, DegenerateSample)


def test_power_rates_match_dcor_test():
    kernels = tuple(kernel_by_name(k) for k in KERNELS)
    bandwidths = (BandwidthSpec.rho(0.5), BandwidthSpec.rho(5.0))
    cfg = PowerConfig(
        n=40, p=6, rho_grid=(0.2,), kernels=kernels, bandwidths=bandwidths, reps=8, seed=5
    )
    scenario = SimScenario(n=40, p=6, rho=0.2)
    tau = (math.sqrt(tau_sq(scenario.implied_blocks().sigma_x)),) * 2
    flags = []
    for rep in range(cfg.reps):
        sample = sample_factor(scenario, derive_stream(cfg.seed, rep))
        flags.append(
            [dcor_test(sample, cfg.alpha, (k, k), (b, b), tau).reject
             for k in kernels for b in bandwidths]
        )
    want = np.mean(np.asarray(flags, dtype=float), axis=0)
    assert [c.empirical_power for c in run_power(cfg).cells] == want.tolist()

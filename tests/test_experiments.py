import math
import time

import numpy as np
import pytest

from hsdcov import experiments
from hsdcov.dcovstats import BandwidthSpec, gaussian_kernel, identity_kernel
from hsdcov.experiments import (
    CltConfig,
    PowerConfig,
    ReplicationError,
    empirical_quantiles,
    ks_distance,
    run_clt,
    run_power,
)
from hsdcov.simgen import NoiseDist, SimScenario, derive_stream, sample_factor
from hsdcov.testkit import normal_quantile
from hsdcov.theory import CovarianceBlocks


class TestKsDistance:
    def test_plugin_quantiles(self):
        b = 40
        xs = [normal_quantile(1.0 - (i - 0.5) / b) for i in range(1, b + 1)]
        assert ks_distance(xs) == pytest.approx(0.5 / b, abs=1e-9)

    def test_all_zeros(self):
        assert ks_distance([0.0, 0.0, 0.0, 0.0]) == 0.5

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ks_distance([0.0, math.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_distance([])

    def test_matches_brute_force(self):
        from hsdcov.testkit import normal_cdf

        rng = np.random.default_rng(0)
        xs = rng.normal(size=37)
        grid = np.linspace(-6, 6, 20001)
        ecdf = np.searchsorted(np.sort(xs), grid, side="right") / xs.size
        brute = max(abs(e - normal_cdf(g)) for e, g in zip(ecdf, grid))
        assert ks_distance(xs) == pytest.approx(brute, abs=2e-3)


class TestEmpiricalQuantiles:
    def test_middle(self):
        assert empirical_quantiles([1.0, 2.0, 3.0], [0.5]) == [2.0]

    def test_extremes(self):
        xs = [5.0, -1.0, 3.0]
        assert empirical_quantiles(xs, [0.001])[0] == pytest.approx(-1.0, abs=0.02)

    def test_interpolation_rule(self):
        # position p (B-1) + 1 = 1.25 -> between order stats 1 and 2
        assert empirical_quantiles([0.0, 10.0], [0.25]) == [2.5]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_quantiles([], [0.5])


def small_clt_config(**overrides):
    base = dict(
        reps=60,
        seed=314,
        scenario=SimScenario(n=60, p=10, rho=0.0),
        standardize="empirical",
    )
    base.update(overrides)
    return CltConfig(**base)


class TestRunClt:
    def test_empirical_mean_zero_sd_one(self):
        result = run_clt(small_clt_config())
        vals = np.array(result.standardized)
        assert abs(vals.mean()) <= 1e-12
        assert abs(vals.std(ddof=1) - 1.0) <= 1e-12

    def test_quantiles_shape_and_order(self):
        result = run_clt(small_clt_config())
        assert len(result.probs) == 99
        assert result.probs[0] == 0.01 and result.probs[-1] == 0.99
        assert all(
            a <= b for a, b in zip(result.sample_quantiles, result.sample_quantiles[1:])
        )
        assert all(
            a < b for a, b in zip(result.normal_quantiles, result.normal_quantiles[1:])
        )

    def test_thread_count_does_not_change_results(self):
        sequential = run_clt(small_clt_config(threads=1))
        threaded = run_clt(small_clt_config(threads=4))
        assert sequential.standardized == threaded.standardized
        assert sequential.ks_distance == threaded.ks_distance

    def test_determinism_across_runs(self):
        a = run_clt(small_clt_config())
        b = run_clt(small_clt_config())
        assert a.standardized == b.standardized

    def test_constant_values_standardize_to_zero(self, monkeypatch):
        # every replication draws the same sample, so the statistics have
        # no spread and the empirical standardization takes its sd == 0 branch
        cfg = small_clt_config(reps=3)
        sample = sample_factor(cfg.scenario, derive_stream(cfg.seed, 0))
        monkeypatch.setattr(experiments, "sample_factor", lambda *args: sample)
        result = run_clt(cfg)
        assert len(set(result.raw)) == 1
        assert result.standardized == [0.0, 0.0, 0.0]
        assert result.ks_distance == 0.5

    def test_replication_errors_carry_index(self):
        blocks = CovarianceBlocks.identity_blocks(3, 3, 0.0)
        cfg = CltConfig(reps=4, seed=0, blocks=blocks, n=3)  # n < 4 fails inside
        with pytest.raises(ReplicationError) as err:
            run_clt(cfg)
        assert err.value.index == 0

    def test_theory_vs_empirical_ks_agreement(self):
        scenario = SimScenario(n=200, p=50, rho=0.0)
        empirical = run_clt(
            CltConfig(reps=300, seed=11, scenario=scenario, standardize="empirical")
        )
        theory = run_clt(
            CltConfig(
                reps=300,
                seed=11,
                scenario=scenario,
                standardize="theory",
                center="theory",
            )
        )
        assert abs(empirical.ks_distance - theory.ks_distance) <= 0.05

    def test_theory_standardization_nonnull(self):
        # closed-form mean and variance drive the standardization here, so a
        # miscalibrated formula would inflate KS well past this bound
        # (pilot at this seed family: ~0.05)
        result = run_clt(
            CltConfig(
                reps=300,
                seed=55,
                scenario=SimScenario(n=200, p=50, rho=0.1),
                standardize="theory",
                center="theory",
                threads=4,
            )
        )
        assert result.ks_distance <= 0.12

    def test_null_standardization_gaussian_kernel(self):
        scenario = SimScenario(n=100, p=25, rho=0.0)
        result = run_clt(
            CltConfig(
                reps=150,
                seed=21,
                scenario=scenario,
                kernels=(gaussian_kernel(), gaussian_kernel()),
                bandwidths=(
                    BandwidthSpec.rho(math.sqrt(2.0)),
                    BandwidthSpec.rho(math.sqrt(2.0)),
                ),
                standardize="null",
            )
        )
        assert result.ks_distance <= 0.15

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CltConfig(reps=1, seed=0, scenario=SimScenario(n=10, p=2, rho=0.0))
        with pytest.raises(ValueError):
            CltConfig(reps=5, seed=0)
        with pytest.raises(ValueError):
            CltConfig(
                reps=5,
                seed=0,
                scenario=SimScenario(n=10, p=2, rho=0.0),
                standardize="bogus",
            )
        with pytest.raises(ValueError):  # the scenario fixes n
            CltConfig(reps=4, seed=1, scenario=SimScenario(n=200, p=10, rho=0.3), n=50)
        with pytest.raises(ValueError, match="unknown centering"):
            small_clt_config(center="bogus")

    def test_rho_target_at_population_tau_is_fixed_gamma(self):
        blocks = CovarianceBlocks.identity_blocks(6, 4, 0.3)
        tau_x, tau_y = math.sqrt(12.0), math.sqrt(8.0)  # tau^2 = 2 tr S
        results = [
            run_clt(
                CltConfig(
                    reps=12, seed=4, blocks=blocks, n=30, standardize="theory",
                    kernels=(gaussian_kernel(), gaussian_kernel()), bandwidths=bandwidths,
                )
            )
            for bandwidths in (
                (BandwidthSpec.rho(1.0), BandwidthSpec.rho(1.0)),
                (BandwidthSpec.fixed(tau_x), BandwidthSpec.fixed(tau_y)),
            )
        ]
        assert results[0].raw == results[1].raw
        assert results[0].standardized == results[1].standardized

    def test_zero_population_tau_fails_before_any_replication(self, monkeypatch):
        # a rho target at tau = 0 is the invalid fixed gamma 0, refused before
        # the runner reaches a replication (which would now fail to start)
        monkeypatch.setattr(experiments, "_clt_replication", None)
        blocks = CovarianceBlocks(np.zeros((2, 2)), np.zeros((2, 3)), np.eye(3))
        rho = BandwidthSpec.rho(1.0)
        with pytest.raises(ValueError, match="bandwidth must be finite and positive"):
            run_clt(CltConfig(reps=4, seed=0, blocks=blocks, n=10, bandwidths=(rho, rho)))

    def test_population_tau_computed_once_per_run(self, monkeypatch):
        # CovarianceBlocks.tau_sq takes tau_sq of both blocks once; the
        # bandwidths, the per-replication kernel scaling, mean_expansion and
        # sigma_bar_sq all reuse the pair
        from hsdcov import theory

        calls = []

        def counting_tau_sq(sigma, inner=theory.tau_sq):
            calls.append(1)
            return inner(sigma)

        monkeypatch.setattr(theory, "tau_sq", counting_tau_sq)
        cfg = small_clt_config(
            reps=50, scenario=SimScenario(n=8, p=2, rho=0.3), standardize="theory"
        )
        run_clt(cfg)
        assert len(calls) == 2


class TestRunPower:
    def test_null_cell_near_alpha(self):
        cfg = PowerConfig(
            n=100, p=25, rho_grid=(0.0,), alpha=0.05, reps=300, seed=5
        )
        result = run_power(cfg)
        cell = result.cells[0]
        se = math.sqrt(0.05 * 0.95 / cfg.reps)
        assert abs(cell.empirical_power - 0.05) <= 3 * se
        assert cell.theoretical_power == pytest.approx(0.05, abs=1e-9)

    def test_full_power_at_large_shift(self):
        # A = n rho^2 = 100 * 0.36 = 36 -> essentially full power
        cfg = PowerConfig(n=100, p=25, rho_grid=(0.6,), reps=100, seed=6)
        cell = run_power(cfg).cells[0]
        assert cell.empirical_power >= 0.99

    def test_monotone_in_rho(self):
        cfg = PowerConfig(
            n=100, p=25, rho_grid=(0.0, 0.1, 0.2, 0.35), reps=200, seed=7
        )
        cells = run_power(cfg).cells
        rates = [c.empirical_power for c in cells]
        ses = [max(c.std_err, math.sqrt(0.05 * 0.95 / cfg.reps)) for c in cells]
        for i in range(len(rates) - 1):
            assert rates[i + 1] >= rates[i] - 2 * (ses[i] + ses[i + 1])

    def test_cell_layout_and_se(self):
        cfg = PowerConfig(
            n=60,
            p=10,
            rho_grid=(0.0, 0.3),
            kernels=(identity_kernel(), gaussian_kernel()),
            bandwidths=(BandwidthSpec.rho(1.0), BandwidthSpec.median()),
            reps=50,
            seed=8,
        )
        cells = run_power(cfg).cells
        assert len(cells) == 2 * 2 * 2
        for cell in cells:
            assert 0.0 <= cell.empirical_power <= 1.0
            assert cell.std_err == pytest.approx(
                math.sqrt(cell.empirical_power * (1 - cell.empirical_power) / 50),
                rel=1e-12,
            )

    def test_threads_do_not_change_rates(self):
        base = dict(
            n=60,
            p=10,
            rho_grid=(0.0, 0.2),
            kernels=(identity_kernel(),),
            bandwidths=(BandwidthSpec.fixed(1.0),),
            reps=40,
            seed=9,
        )
        a = run_power(PowerConfig(**base, threads=1))
        b = run_power(PowerConfig(**base, threads=4))
        assert [c.empirical_power for c in a.cells] == [
            c.empirical_power for c in b.cells
        ]

    @pytest.mark.parametrize("empty", ["kernels", "bandwidths"])
    def test_empty_kernels_or_bandwidths_rejected(self, empty):
        with pytest.raises(ValueError, match="nonempty"):
            PowerConfig(n=20, p=2, rho_grid=(0.0,), **{empty: ()})

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ({"n": 0}, None),
            ({"p": 0}, None),
            ({"rho_grid": (0.2, 1.0)}, None),
            ({"rho_grid": (-0.1,)}, None),
            ({"reps": 0}, "replication"),
            ({"alpha": 1.5}, "alpha"),
            ({"rho_grid": ()}, "rho grid"),
        ],
        ids=[*(f"sizes{i}" for i in range(4)), "reps", "alpha", "empty_rho_grid"],
    )
    def test_bad_sizes_rejected_up_front(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            PowerConfig(**{"n": 20, "p": 2, "rho_grid": (0.0,), **sizes})

    def test_failure_reports_its_stream_index(self, monkeypatch):
        # stream 7 of 2 rho x 5 reps is rho number 1, rep 2; it is recognised
        # by its first draw, not by the index the runner passes along
        cfg = PowerConfig(n=10, p=2, rho_grid=(0.0, 0.3), reps=5, seed=3)
        marker = derive_stream(cfg.seed, 7).generator().standard_normal()

        def failing_on_stream_7(scenario, stream):
            if stream.generator().standard_normal() == marker:
                raise RuntimeError("injected")
            return sample_factor(scenario, stream)

        monkeypatch.setattr(experiments, "sample_factor", failing_on_stream_7)
        with pytest.raises(ReplicationError, match="replication 7 failed") as err:
            run_power(cfg)
        assert err.value.index == 7

    def test_one_scenario_per_rho(self):
        cfg = PowerConfig(n=20, p=3, rho_grid=(0.0, 0.5), dist=NoiseDist.SCALED_T4)
        assert [(s.n, s.p, s.rho, s.dist) for s in cfg.scenarios] == [
            (20, 3, 0.0, NoiseDist.SCALED_T4),
            (20, 3, 0.5, NoiseDist.SCALED_T4),
        ]


@pytest.mark.parametrize("threads", [1, 4])
def test_ordered_map_stops_after_a_failure(threads):
    # Executor.map cancels the calls not yet started once a result raises,
    # so a failing first replication does not run the other 199
    calls = []

    def fn(i):
        calls.append(i)
        if i == 0:
            raise RuntimeError("first")
        time.sleep(0.05)

    with pytest.raises(ReplicationError) as err:
        experiments._ordered_map(fn, 200, threads)
    assert err.value.index == 0
    assert len(calls) <= 2 * threads

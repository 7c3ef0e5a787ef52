"""Monte-Carlo runners: central-limit verification (standardized statistics
against normal quantiles) and power / power-universality tables, plus the
Kolmogorov-Smirnov and quantile utilities they report through.

Replications are pure functions of (master seed, replication index), so the
runners may fan out over threads without changing any output; aggregation is
a deterministic fold in replication order.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .dcovstats import BandwidthSpec, KernelSpec, dcov_parts, distance_matrix, identity_kernel
from .matcore import frobenius_norm_sq
from .simgen import NoiseDist, SimScenario, derive_stream, sample_factor, sample_gaussian
from .testkit import normal_cdf, normal_quantile
from .theory import CovarianceBlocks, mean_expansion, sigma_bar_sq, tau_sq, theoretical_power, varrho

QUANTILE_PROBS = tuple(round(0.01 * i, 2) for i in range(1, 100))


class ReplicationError(Exception):
    """A statistic failed inside one replication; carries the index."""

    def __init__(self, index: int, cause: BaseException):
        super().__init__(f"replication {index} failed: {cause}")
        self.index = index


def ks_distance(xs: Sequence[float]) -> float:
    """Sup distance between the empirical CDF of ``xs`` and the standard
    normal CDF: max over order statistics of
    max(i/B - Phi(x_(i)), Phi(x_(i)) - (i-1)/B)."""
    arr = np.asarray(xs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("ks_distance needs at least one value")
    if not np.all(np.isfinite(arr)):
        raise ValueError("ks_distance requires finite values")
    arr = np.sort(arr)
    b = arr.size
    phi = np.array([normal_cdf(float(x)) for x in arr])
    i = np.arange(1, b + 1)
    return float(max(np.max(i / b - phi), np.max(phi - (i - 1) / b), 0.0))


def empirical_quantiles(xs: Sequence[float], probs: Sequence[float]) -> list[float]:
    """Order-statistic quantiles with linear interpolation at position
    p (B - 1) + 1 of the sorted sample."""
    arr = np.asarray(xs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empirical_quantiles needs at least one value")
    return [float(v) for v in np.quantile(arr, list(probs), method="linear")]


def _ordered_map(fn: Callable[[int], object], count: int, threads: int) -> list:
    """``[fn(i) for i in range(count)]`` on ``threads`` workers; a failure
    is re-raised as ``ReplicationError`` carrying its index."""

    def attempt(i: int):
        try:
            return fn(i)
        except Exception as exc:
            raise ReplicationError(i, exc) from exc

    if threads <= 1:
        return [attempt(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(attempt, range(count)))


@dataclass(frozen=True)
class CltConfig:
    """One CLT verification run.

    Data comes from either a factor-model scenario or explicit Gaussian
    blocks with a sample size. Standardization modes: ``theory`` divides the
    kernel statistic by the kernel scaling and standardizes with the
    closed-form mean/variance; ``null`` applies the local standardization
    n (tau_x tau_y v - |S_xy|_F^2) / (sqrt(2) |S_x|_F |S_y|_F); ``empirical``
    centers and scales by the replication sample mean and SD.
    """

    reps: int
    seed: int
    scenario: Optional[SimScenario] = None
    blocks: Optional[CovarianceBlocks] = None
    n: Optional[int] = None
    kernels: tuple[KernelSpec, KernelSpec] = (identity_kernel(), identity_kernel())
    bandwidths: tuple[BandwidthSpec, BandwidthSpec] = (
        BandwidthSpec.fixed(1.0),
        BandwidthSpec.fixed(1.0),
    )
    standardize: str = "empirical"
    center: str = "theory"
    threads: int = 1

    def __post_init__(self):
        if self.reps < 2:
            raise ValueError("need at least 2 replications")
        if (self.scenario is None) == (self.blocks is None):
            raise ValueError("provide exactly one of scenario or blocks")
        if self.blocks is not None and self.n is None:
            raise ValueError("blocks require an explicit sample size n")
        if self.standardize not in ("theory", "null", "empirical"):
            raise ValueError(f"unknown standardization {self.standardize!r}")
        if self.center not in ("theory", "empirical"):
            raise ValueError(f"unknown centering {self.center!r}")

    def effective_blocks(self) -> CovarianceBlocks:
        return self.blocks if self.blocks is not None else self.scenario.implied_blocks()

    def effective_n(self) -> int:
        return self.n if self.n is not None else self.scenario.n


@dataclass
class CltResult:
    standardized: list[float]
    probs: list[float]
    sample_quantiles: list[float]
    normal_quantiles: list[float]
    ks_distance: float
    raw: list[float] = field(default_factory=list)


def _tau_pair(blocks: CovarianceBlocks) -> tuple[float, float]:
    return math.sqrt(tau_sq(blocks.sigma_x)), math.sqrt(tau_sq(blocks.sigma_y))


def _clt_replication(
    cfg: CltConfig, blocks: CovarianceBlocks, tau_pop: tuple[float, float], index: int
):
    stream = derive_stream(cfg.seed, index)
    if cfg.scenario is not None:
        sample = sample_factor(cfg.scenario, stream)
    else:
        sample = sample_gaussian(blocks, cfg.n, stream)
    parts = dcov_parts(sample, cfg.kernels, cfg.bandwidths, tau_pop)
    return (parts.v_xy, *parts.gamma)


def run_clt(cfg: CltConfig) -> CltResult:
    """Run the configured replications and standardize the statistics."""
    blocks = cfg.effective_blocks()
    n = cfg.effective_n()
    replicate = partial(_clt_replication, cfg, blocks, _tau_pair(blocks))
    results = _ordered_map(replicate, cfg.reps, cfg.threads)
    values = np.array([r[0] for r in results])

    if cfg.standardize == "empirical":
        sd = float(values.std(ddof=1))
        standardized = (values - values.mean()) / sd if sd > 0 else np.zeros_like(values)
    else:
        scalings = np.array(
            [varrho(cfg.kernels, (gx, gy), blocks) for _, gx, gy in results]
        )
        rescaled = values / scalings
        if cfg.standardize == "null":
            tau_prod = math.sqrt(tau_sq(blocks.sigma_x) * tau_sq(blocks.sigma_y))
            f2 = frobenius_norm_sq(blocks.sigma_xy)
            denom = math.sqrt(2.0) * math.sqrt(
                frobenius_norm_sq(blocks.sigma_x) * frobenius_norm_sq(blocks.sigma_y)
            )
            standardized = n * (tau_prod * rescaled - f2) / denom
        else:
            centre = (
                mean_expansion(blocks)
                if cfg.center == "theory"
                else float(rescaled.mean())
            )
            scale = math.sqrt(sigma_bar_sq(blocks, n).total)
            standardized = (rescaled - centre) / scale

    probs = list(QUANTILE_PROBS)
    return CltResult(
        standardized=[float(v) for v in standardized],
        probs=probs,
        sample_quantiles=empirical_quantiles(standardized, probs),
        normal_quantiles=[normal_quantile(1.0 - p) for p in probs],
        ks_distance=ks_distance(standardized),
        raw=[float(v) for v in values],
    )


@dataclass(frozen=True)
class PowerConfig:
    """Power grid: every kernel is paired with every bandwidth policy, both
    applied to the two data blocks symmetrically. ``scenarios`` holds one
    factor-model scenario per rho, built (and so validated) up front."""

    n: int
    p: int
    rho_grid: tuple[float, ...]
    kernels: tuple[KernelSpec, ...] = (identity_kernel(),)
    bandwidths: tuple[BandwidthSpec, ...] = (BandwidthSpec.fixed(1.0),)
    alpha: float = 0.05
    reps: int = 500
    seed: int = 0
    dist: NoiseDist = NoiseDist.STD_NORMAL
    threads: int = 1
    scenarios: tuple[SimScenario, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("need at least one replication")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        if not self.rho_grid:
            raise ValueError("rho grid must be nonempty")
        if not self.kernels or not self.bandwidths:
            raise ValueError("kernels and bandwidths must be nonempty")
        scenarios = tuple(
            SimScenario(n=self.n, p=self.p, rho=rho, dist=self.dist) for rho in self.rho_grid
        )
        object.__setattr__(self, "scenarios", scenarios)


@dataclass
class PowerCell:
    kernel: str
    bandwidth: str
    rho: float
    empirical_power: float
    theoretical_power: float
    std_err: float


@dataclass
class PowerResult:
    cells: list[PowerCell]


def _power_replication(
    cfg: PowerConfig, rho_index: int, tau_pop: tuple[float, float], rep: int
) -> list[float]:
    """Studentized statistics of one dataset in every (kernel, bandwidth)
    cell, sharing the distance matrices so universality comparisons are
    paired. The identity kernel's statistic does not depend on the bandwidth
    and is computed once."""
    scenario = cfg.scenarios[rho_index]
    stream = derive_stream(cfg.seed, rho_index * cfg.reps + rep)
    sample = sample_factor(scenario, stream)
    dists = (distance_matrix(sample.x), distance_matrix(sample.y))

    stats = []
    for kernel in cfg.kernels:
        stat = None
        for bw in cfg.bandwidths:
            if stat is None or kernel.kind != "identity":
                parts = dcov_parts(sample, (kernel, kernel), (bw, bw), tau_pop, dists)
                stat = parts.studentized()
            stats.append(stat)
    return stats


def run_power(cfg: PowerConfig) -> PowerResult:
    """Empirical rejection rate per (kernel, bandwidth, rho) cell alongside
    the closed-form power prediction."""
    threshold = normal_quantile(cfg.alpha / 2.0)
    rates, powers = [], []
    for r_idx, scenario in enumerate(cfg.scenarios):
        blocks = scenario.implied_blocks()
        replicate = partial(_power_replication, cfg, r_idx, _tau_pair(blocks))
        stats = _ordered_map(replicate, cfg.reps, cfg.threads)
        rates.append(np.mean(np.abs(stats) > threshold, axis=0))
        powers.append(theoretical_power(blocks, cfg.n, cfg.alpha))

    cells = []
    for col, (kernel, bw) in enumerate(itertools.product(cfg.kernels, cfg.bandwidths)):
        for r_idx, rho in enumerate(cfg.rho_grid):
            rate = float(rates[r_idx][col])
            cells.append(
                PowerCell(
                    kernel=kernel.kind,
                    bandwidth=bw.label(),
                    rho=rho,
                    empirical_power=rate,
                    theoretical_power=powers[r_idx],
                    std_err=math.sqrt(rate * (1.0 - rate) / cfg.reps),
                )
            )
    return PowerResult(cells=cells)

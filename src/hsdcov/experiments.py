"""Monte-Carlo runners: central-limit verification (standardized statistics
against normal quantiles) and power / power-universality tables, plus the
Kolmogorov-Smirnov and quantile utilities they report through.

Replications are pure functions of (master seed, stream index), and each
runner maps all of its stream indices in one ordered pass, so it may fan out
over threads without changing any output; aggregation is a deterministic fold
in stream order.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .dcovstats import BandwidthSpec, KernelSpec, dcov_parts, identity_kernel, studentized_grid
from .simgen import NoiseDist, SimScenario, derive_stream, sample_factor, sample_gaussian
from .testkit import normal_cdf, normal_quantile
from .theory import (
    CovarianceBlocks,
    mean_expansion,
    null_standardized,
    sigma_bar_sq,
    theoretical_power,
    varrho,
)

QUANTILE_PROBS = tuple(round(0.01 * i, 2) for i in range(1, 100))


class ReplicationError(Exception):
    """A statistic failed inside one replication. ``index`` is its stream
    index in either runner, so ``derive_stream(seed, index)`` replays it."""

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
    """``[fn(i) for i in range(count)]`` on ``threads`` workers (at least one);
    a failure is re-raised as ``ReplicationError`` carrying its index, and
    ``Executor.map`` cancels the calls not yet started."""

    def attempt(i: int):
        try:
            return fn(i)
        except Exception as exc:
            raise ReplicationError(i, exc) from exc

    with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
        return list(pool.map(attempt, range(count)))


@dataclass(frozen=True)
class CltConfig:
    """One CLT verification run.

    Data comes from either a factor-model scenario or explicit Gaussian
    blocks with a sample size. Standardization modes: ``theory`` and ``null``
    divide the kernel statistic by the kernel scaling, then standardize with
    the closed-form mean/variance or ``theory.null_standardized``;
    ``empirical`` centers and scales by the replication sample mean and SD.
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
        if (self.blocks is None) != (self.n is None):
            raise ValueError("give n with blocks, not with a scenario (it carries its own n)")
        if self.standardize not in ("theory", "null", "empirical"):
            raise ValueError(f"unknown standardization {self.standardize!r}")
        if self.center not in ("theory", "empirical"):
            raise ValueError(f"unknown centering {self.center!r}")


@dataclass
class CltResult:
    standardized: list[float]
    probs: list[float]
    sample_quantiles: list[float]
    normal_quantiles: list[float]
    ks_distance: float
    raw: list[float] = field(default_factory=list)


def _clt_replication(cfg: CltConfig, draw: Callable, bandwidths: tuple, index: int):
    return dcov_parts(draw(derive_stream(cfg.seed, index)), cfg.kernels, bandwidths)


def run_clt(cfg: CltConfig) -> CltResult:
    """Run the configured replications and standardize the statistics."""
    scn = cfg.scenario
    blocks, n = (cfg.blocks, cfg.n) if scn is None else (scn.implied_blocks(), scn.n)
    draw = partial(sample_gaussian, blocks, n) if scn is None else partial(sample_factor, scn)
    bandwidths = tuple(map(BandwidthSpec.at_tau, cfg.bandwidths, blocks.tau))
    replicate = partial(_clt_replication, cfg, draw, bandwidths)
    results = _ordered_map(replicate, cfg.reps, cfg.threads)
    values = np.array([r.v_xy for r in results])

    if cfg.standardize == "empirical":
        sd = float(values.std(ddof=1))
        standardized = (values - values.mean()) / sd if sd > 0 else np.zeros_like(values)
    else:
        scalings = np.array([varrho(cfg.kernels, r.gamma, blocks.tau) for r in results])
        rescaled = values / scalings
        if cfg.standardize == "null":
            standardized = null_standardized(blocks, n, rescaled)
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


def _power_replication(cfg: PowerConfig, bandwidths: list, index: int) -> list[float]:
    """Studentized statistics of dataset ``index`` (rho number index // reps)
    in every (kernel, bandwidth) cell, paired on one sample."""
    r_idx = index // cfg.reps
    sample = sample_factor(cfg.scenarios[r_idx], derive_stream(cfg.seed, index))
    return studentized_grid(sample, cfg.kernels, bandwidths[r_idx])


def run_power(cfg: PowerConfig) -> PowerResult:
    """Empirical rejection rate per (kernel, bandwidth, rho) cell alongside
    the closed-form power prediction."""
    threshold = normal_quantile(cfg.alpha / 2.0)
    blocks = [scenario.implied_blocks() for scenario in cfg.scenarios]
    bandwidths = [[tuple(map(bw.at_tau, b.tau)) for bw in cfg.bandwidths] for b in blocks]
    replicate = partial(_power_replication, cfg, bandwidths)
    stats = _ordered_map(replicate, len(blocks) * cfg.reps, cfg.threads)
    # counts of booleans are exact, so the axis-1 mean keeps each rho's bits
    rates = np.mean(np.abs(stats).reshape(len(blocks), cfg.reps, -1) > threshold, axis=1)
    powers = [theoretical_power(b, cfg.n, cfg.alpha) for b in blocks]

    cells = []
    for col, (kernel, bw) in enumerate(itertools.product(cfg.kernels, cfg.bandwidths)):
        for r_idx, rho in enumerate(cfg.rho_grid):
            rate = float(rates[r_idx, col])
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

"""Reproducible data generation: Gaussian sampling from covariance blocks,
the balanced factor-model scenario with three unit-variance noise laws, and
deterministic per-replication random streams.

Streams are built on numpy's Philox counter-based generator keyed by the
128-bit value ``(stream_index << 64) | master_seed``; distinct (seed, index)
pairs therefore yield independent, schedule-invariant streams. This keying is
part of the output contract relied on by golden-file tests.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dcovstats import PairedSample
from .theory import CovarianceBlocks

_MASK64 = (1 << 64) - 1


class NoiseDist(enum.Enum):
    """Mean-zero, variance-one noise families for the factor scenario."""

    STD_NORMAL = "normal"
    UNIFORM_SQRT3 = "uniform"
    SCALED_T4 = "t4"


@dataclass(frozen=True)
class SimScenario:
    """Balanced factor model: coordinates j share a common factor with
    weight sqrt(rho), so the implied blocks are S_x = S_y = I_p and
    S_xy = rho I_p (exact under any of the unit-variance noise laws)."""

    n: int
    p: int
    rho: float
    dist: NoiseDist = NoiseDist.STD_NORMAL

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise ValueError("n and p must be positive")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0,1), got {self.rho}")

    def implied_blocks(self) -> CovarianceBlocks:
        return CovarianceBlocks.identity_blocks(self.p, self.p, self.rho)


@dataclass(frozen=True)
class RngStream:
    """Value-type handle on one deterministic stream."""

    master_seed: int
    stream_index: int

    def generator(self) -> np.random.Generator:
        key = (int(self.stream_index) << 64) | (int(self.master_seed) & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))


def derive_stream(master_seed: int, index: int) -> RngStream:
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    return RngStream(master_seed=int(master_seed), stream_index=int(index))


def sample_gaussian(blocks: CovarianceBlocks, n: int, rng: RngStream) -> PairedSample:
    """n i.i.d. rows from N(0, Sigma) via the blocks' cached Cholesky factor;
    the first p columns form x and the remaining q form y."""
    if n < 1:
        raise ValueError("need n >= 1")
    lower = blocks.cholesky_factor
    gen = rng.generator()
    z = gen.standard_normal((n, blocks.p + blocks.q))
    rows = z @ lower.T
    return PairedSample(x=rows[:, : blocks.p], y=rows[:, blocks.p :])


def _draw_noise(gen: np.random.Generator, dist: NoiseDist, shape) -> np.ndarray:
    if dist is NoiseDist.STD_NORMAL:
        return gen.standard_normal(shape)
    if dist is NoiseDist.UNIFORM_SQRT3:
        return gen.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=shape)
    # t with 4 degrees of freedom via the ratio construction (normal over
    # sqrt of chi-squared_4 / 4), divided by sqrt(2) so the variance is one
    z = gen.standard_normal(shape)
    w = gen.standard_normal(shape + (4,))
    chi_sq = np.sum(w * w, axis=-1)
    return z / np.sqrt(chi_sq / 4.0) / math.sqrt(2.0)


def sample_factor(scn: SimScenario, rng: RngStream) -> PairedSample:
    """Draw the factor-model pair: x = sqrt(rho) z1 + sqrt(1-rho) z2 and
    y = sqrt(rho) z1 + sqrt(1-rho) z3, i.i.d. across rows and coordinates."""
    gen = rng.generator()
    shape = (scn.n, scn.p)
    z1 = _draw_noise(gen, scn.dist, shape)
    z2 = _draw_noise(gen, scn.dist, shape)
    z3 = _draw_noise(gen, scn.dist, shape)
    w_common = math.sqrt(scn.rho)
    w_own = math.sqrt(1.0 - scn.rho)
    return PairedSample(x=w_common * z1 + w_own * z2, y=w_common * z1 + w_own * z3)

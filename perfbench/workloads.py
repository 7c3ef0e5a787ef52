"""Workload parameters and seed derivation, shared by the orchestrator
(``run.py``) and the worker processes (``worker.py``).

Only the standard library and numpy are imported here, so the orchestrator and
the reference check never load ``hsdcov``.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("test-cli", "power-grid", "clt-blocks")

# test-cli: `hsdcov test --kernel gaussian --bandwidth median` on factor-model
# CSV pairs; the CLI's default alpha applies.
TEST_N = 3000
TEST_P = 100
TEST_RHO = 0.02
TEST_ALPHA = 0.05
TEST_KERNEL = "gaussian"

# power-grid: the acceptance universality grid shape (A in {1, 2.5, 5}).
POWER_N = 200
POWER_P = 50
POWER_RHO_GRID = tuple(math.sqrt(a / POWER_N) for a in (1.0, 2.5, 5.0))
POWER_KERNELS = ("identity", "gaussian", "laplace")
POWER_TARGETS = (0.5, 1.0, math.sqrt(2.0), 5.0)
POWER_ALPHA = 0.05
POWER_REPS = 10

# clt-blocks: explicit AR(1) blocks, gaussian kernel at rho:sqrt(2).
CLT_N = 500
CLT_P = 100
CLT_AR = 0.5
CLT_CROSS = 0.05
CLT_TARGET = math.sqrt(2.0)
CLT_REPS = 20

_MASK64 = (1 << 64) - 1


def units_per_op(workload: str) -> int:
    """Units in one op: a `hsdcov test` call, or one dataset replication."""
    if workload == "test-cli":
        return 1
    if workload == "power-grid":
        return POWER_REPS * len(POWER_RHO_GRID)
    return CLT_REPS


def op_seed(seed: int, worker: int, op: int) -> int:
    """Master seed of op ``op`` in worker process ``worker`` of a run."""
    state = np.random.SeedSequence([seed & _MASK64, worker, op]).generate_state(
        1, np.uint64
    )
    return int(state[0])


def ar1(p: int, phi: float) -> np.ndarray:
    """AR(1) correlation matrix phi^|i-j|."""
    idx = np.arange(p)
    return phi ** np.abs(idx[:, None] - idx[None, :]).astype(np.float64)


def clt_full_covariance() -> np.ndarray:
    """The assembled (2p x 2p) covariance of the clt-blocks workload."""
    s = ar1(CLT_P, CLT_AR)
    c = CLT_CROSS * np.eye(CLT_P)
    return np.block([[s, c], [c.T, s]])

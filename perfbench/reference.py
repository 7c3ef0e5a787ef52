"""Independent numpy reference for the benchmark's output checks.

Nothing here imports ``hsdcov``. The U-centred inner product is computed
without forming U-centred matrices, through the identity (Szekely & Rizzo
2014, Ann. Statist.) for symmetric zero-diagonal A, B with row sums a_i, b_i
and totals a, b:

    sum_{i != j} A*_ij B*_ij = <A, B> - 2/(n-2) sum_i a_i b_i
                               + a b / ((n-1)(n-2))

so it shares neither code nor algorithm with the library's ``u_center``.
Values are compared on the studentized scale: a difference in v_xy counts
relative to max(|v_xy|, sqrt(2 v_x v_y) / n), which is the size of one unit
of the test statistic n v_xy / sqrt(2 v_x v_y).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

import workloads as wl

RTOL = 1e-9

_MASK64 = (1 << 64) - 1

KERNELS = {
    "identity": lambda w: w,
    "gaussian": lambda w: np.exp(-0.5 * w * w),
    "laplace": lambda w: np.exp(-w),
}


def philox(seed: int, index: int) -> np.random.Generator:
    """The library's documented stream contract: Philox keyed by
    ``(index << 64) | seed``."""
    return np.random.Generator(np.random.Philox(key=(index << 64) | (seed & _MASK64)))


def distances(x: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of the rows of x, from column-centred data."""
    xc = x - x.mean(axis=0)
    sq = np.einsum("ij,ij->i", xc, xc)
    d = xc @ xc.T
    d *= -2.0
    d += sq[:, None]
    d += sq[None, :]
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def median_distance(d: np.ndarray) -> float:
    """Lower median of the distances over pairs i < j."""
    upper = d[np.triu_indices(d.shape[0], k=1)]
    k = (upper.size - 1) // 2
    return float(np.partition(upper, k)[k])


def kernel_of(d: np.ndarray, kernel: str, gamma: float) -> np.ndarray:
    """f(d / gamma) less its off-diagonal mean, with a zero diagonal.

    U-centring is invariant to adding a constant off the diagonal; removing
    the mean first keeps the inner-product identity from cancelling large,
    nearly equal terms when the kernel is nearly constant.
    """
    k = KERNELS[kernel](d / gamma)
    np.fill_diagonal(k, 0.0)
    n = k.shape[0]
    k -= k.sum() / (n * (n - 1))
    np.fill_diagonal(k, 0.0)
    return k


def u_inner(a: np.ndarray, b: np.ndarray, ra: np.ndarray, rb: np.ndarray) -> float:
    """(1/(n(n-3))) sum_{i != j} A*_ij B*_ij by the row-sum identity, given
    the row sums ra, rb of a, b."""
    n = a.shape[0]
    total = (
        float(np.vdot(a, b))
        - 2.0 / (n - 2) * float(ra @ rb)
        + float(ra.sum()) * float(rb.sum()) / ((n - 1) * (n - 2))
    )
    return total / (n * (n - 3))


def dcov_triple(kx: np.ndarray, ky: np.ndarray) -> tuple[float, float, float]:
    """(v_xy, v_x, v_y) for zero-diagonal kernel matrices."""
    rx, ry = kx.sum(axis=1), ky.sum(axis=1)
    return u_inner(kx, ky, rx, ry), u_inner(kx, kx, rx, rx), u_inner(ky, ky, ry, ry)


def studentized(n: int, v_xy: float, v_x: float, v_y: float) -> float:
    return n * v_xy / math.sqrt(2.0 * v_x * v_y)


def upper_quantile(alpha: float) -> float:
    return NormalDist().inv_cdf(1.0 - alpha)


def _close(got: float, want: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= RTOL * max(abs(want), scale)


def _reject_matches(got: bool, stat: float, threshold: float) -> bool:
    """A statistic within tolerance of the threshold may go either way."""
    if abs(abs(stat) - threshold) <= RTOL * max(threshold, 1.0):
        return True
    return bool(got) == (abs(stat) > threshold)


def check_test(x: np.ndarray, y: np.ndarray, out: dict) -> list[str]:
    """Check one `hsdcov test` JSON report against x, y as parsed from CSV."""
    n = x.shape[0]
    dx = distances(x)
    gx = median_distance(dx)
    kx = kernel_of(dx, wl.TEST_KERNEL, gx)
    del dx
    dy = distances(y)
    gy = median_distance(dy)
    ky = kernel_of(dy, wl.TEST_KERNEL, gy)
    del dy
    stat = studentized(n, *dcov_triple(kx, ky))
    threshold = upper_quantile(wl.TEST_ALPHA / 2.0)
    errors = []
    if not _close(out["statistic"], stat, 1.0):
        errors.append(f"statistic {out['statistic']!r} != reference {stat!r}")
    if not (_close(out["bandwidth"][0], gx) and _close(out["bandwidth"][1], gy)):
        errors.append(f"bandwidth {out['bandwidth']!r} != reference {[gx, gy]!r}")
    if not _close(out["threshold"], threshold):
        errors.append(f"threshold {out['threshold']!r} != reference {threshold!r}")
    if not _reject_matches(out["reject"], stat, threshold):
        errors.append(f"reject {out['reject']!r} disagrees with statistic {stat!r}")
    p_value = math.erfc(abs(stat) / math.sqrt(2.0))
    if abs(out["p_value"] - p_value) > RTOL:
        errors.append(f"p_value {out['p_value']!r} != reference {p_value!r}")
    if out["degenerate"]:
        errors.append("reported degenerate on non-degenerate data")
    return errors


def factor_sample(seed: int, index: int, n: int, p: int, rho: float):
    """Balanced factor model, drawn from the keyed stream as z1, z2, z3."""
    gen = philox(seed, index)
    z1 = gen.standard_normal((n, p))
    z2 = gen.standard_normal((n, p))
    z3 = gen.standard_normal((n, p))
    wc, wo = math.sqrt(rho), math.sqrt(1.0 - rho)
    return wc * z1 + wo * z2, wc * z1 + wo * z3


def check_power(seed: int, cells: list[dict]) -> list[str]:
    """Recompute every dataset's rejections and compare the power table."""
    n, p, reps = wl.POWER_N, wl.POWER_P, wl.POWER_REPS
    threshold = upper_quantile(wl.POWER_ALPHA / 2.0)
    tau = math.sqrt(2.0 * p)
    combos = [(k, t) for k in wl.POWER_KERNELS for t in wl.POWER_TARGETS]
    table = {(c["kernel"], c["bandwidth"], c["rho"]): c for c in cells}
    errors = []
    if len(table) != len(combos) * len(wl.POWER_RHO_GRID):
        errors.append(f"power table has {len(cells)} cells")
    for r_idx, rho in enumerate(wl.POWER_RHO_GRID):
        counts = np.zeros(len(combos))
        slack = np.zeros(len(combos))
        for rep in range(reps):
            x, y = factor_sample(seed, r_idx * reps + rep, n, p, rho)
            dx, dy = distances(x), distances(y)
            for c_idx, (kernel, target) in enumerate(combos):
                gamma = tau / target
                stat = studentized(
                    n, *dcov_triple(kernel_of(dx, kernel, gamma), kernel_of(dy, kernel, gamma))
                )
                if abs(abs(stat) - threshold) <= RTOL * threshold:
                    slack[c_idx] += 1
                elif abs(stat) > threshold:
                    counts[c_idx] += 1
        m = n * rho * rho / math.sqrt(2.0)
        nd = NormalDist()
        power = nd.cdf(m - threshold) + nd.cdf(-m - threshold)
        for c_idx, (kernel, target) in enumerate(combos):
            key = (kernel, f"rho:{target!r}", rho)
            cell = table.get(key)
            if cell is None:
                errors.append(f"missing power cell {key}")
                continue
            hits = cell["empirical_power"] * reps
            if not counts[c_idx] - 1e-9 <= hits <= counts[c_idx] + slack[c_idx] + 1e-9:
                errors.append(
                    f"cell {key}: empirical power {cell['empirical_power']!r} "
                    f"!= reference {counts[c_idx] / reps!r}"
                )
            if not _close(cell["theoretical_power"], power):
                errors.append(
                    f"cell {key}: theoretical power {cell['theoretical_power']!r} "
                    f"!= reference {power!r}"
                )
    return errors


def ks_distance(values) -> float:
    arr = np.sort(np.asarray(values, dtype=np.float64))
    b = arr.size
    phi = np.array([NormalDist().cdf(float(v)) for v in arr])
    i = np.arange(1, b + 1)
    return float(max(np.max(i / b - phi), np.max(phi - (i - 1) / b)))


def check_clt(seed: int, out: dict) -> list[str]:
    """Regenerate each replication's Gaussian sample and compare ``raw``."""
    n, p = wl.CLT_N, wl.CLT_P
    full = wl.clt_full_covariance()
    lower = np.linalg.cholesky(full)
    gamma = math.sqrt(2.0 * float(np.trace(full[:p, :p]))) / wl.CLT_TARGET
    raw = out["raw"]
    errors = []
    if len(raw) != wl.CLT_REPS:
        return [f"{len(raw)} raw values for {wl.CLT_REPS} replications"]
    for i, got in enumerate(raw):
        z = philox(seed, i).standard_normal((n, 2 * p))
        rows = z @ lower.T
        kx = kernel_of(distances(rows[:, :p]), "gaussian", gamma)
        ky = kernel_of(distances(rows[:, p:]), "gaussian", gamma)
        v_xy, v_x, v_y = dcov_triple(kx, ky)
        if not _close(got, v_xy, math.sqrt(2.0 * v_x * v_y) / n):
            errors.append(f"replication {i}: raw {got!r} != reference {v_xy!r}")
    ks = ks_distance(out["standardized"])
    if abs(out["ks_distance"] - ks) > RTOL:
        errors.append(f"ks_distance {out['ks_distance']!r} != reference {ks!r}")
    return errors

"""One fresh benchmark process: set up a workload, run timed ops, print one
JSON line with the timings and every op's output for the orchestrator to
check. Started by ``run.py``; not meant to be run by hand.

Set-up (imports, seeded input generation, one untimed warm-up op) is timed
from the orchestrator's clock reading taken just before this process was
spawned. Inputs for each later op are generated between ops, outside the
timed region, so set-up is the same work however many ops follow.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hsdcov  # noqa: E402
import hsdcov.cli  # noqa: E402
import workloads as wl  # noqa: E402
from spans import SpanRecorder, layer_totals  # noqa: E402


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (VmHWM).

    ``ru_maxrss`` is not used: Linux carries the spawning process's high-water
    mark into it across exec, so it would report the orchestrator's memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


class TestCli:
    """`hsdcov test` through ``cli.main`` on a fresh CSV pair per op."""

    def __init__(self, seed: int, worker: int, out_dir: Path):
        self.seed, self.worker, self.out_dir = seed, worker, out_dir

    def paths(self, op: int) -> tuple[Path, Path, Path]:
        stem = self.out_dir / f"w{self.worker}-op{op}"
        return (Path(f"{stem}-x.csv"), Path(f"{stem}-y.csv"), Path(f"{stem}-out.json"))

    def prepare(self, op: int) -> int:
        sample = hsdcov.sample_factor(
            hsdcov.SimScenario(n=wl.TEST_N, p=wl.TEST_P, rho=wl.TEST_RHO),
            hsdcov.derive_stream(wl.op_seed(self.seed, self.worker, op), 0),
        )
        x_path, y_path, _ = self.paths(op)
        # %.17g round-trips every double; numpy's %r would write np.float64(...)
        np.savetxt(x_path, sample.x, fmt="%.17g", delimiter=",")
        np.savetxt(y_path, sample.y, fmt="%.17g", delimiter=",")
        return x_path.stat().st_size + y_path.stat().st_size

    def run(self, op: int) -> None:
        x_path, y_path, out_path = self.paths(op)
        argv = ["test", "--x", str(x_path), "--y", str(y_path),
                "--kernel", wl.TEST_KERNEL, "--bandwidth", "median",
                "--output", str(out_path)]
        code = hsdcov.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"hsdcov test exited with {code}")

    def collect(self, op: int) -> dict:
        x_path, y_path, out_path = self.paths(op)
        with open(out_path) as fh:
            report = json.load(fh)
        out_path.unlink()
        return {"x": str(x_path), "y": str(y_path), "report": report}

    def discard(self, op: int) -> None:
        for path in self.paths(op):
            path.unlink(missing_ok=True)


class PowerGrid:
    """``run_power`` on the universality grid shape, fresh seed per op."""

    def __init__(self, seed: int, worker: int, out_dir: Path):
        self.seed, self.worker = seed, worker
        self.kernels = tuple(hsdcov.kernel_by_name(k) for k in wl.POWER_KERNELS)
        self.bandwidths = tuple(hsdcov.BandwidthSpec.rho(t) for t in wl.POWER_TARGETS)
        self.cfg = None

    def prepare(self, op: int) -> int:
        self.cfg = hsdcov.PowerConfig(
            n=wl.POWER_N, p=wl.POWER_P, rho_grid=wl.POWER_RHO_GRID,
            kernels=self.kernels, bandwidths=self.bandwidths, alpha=wl.POWER_ALPHA,
            reps=wl.POWER_REPS, seed=wl.op_seed(self.seed, self.worker, op),
            threads=_nproc(),
        )
        return 0

    def run(self, op: int) -> None:
        self.result = hsdcov.run_power(self.cfg)

    def collect(self, op: int) -> dict:
        cells = [vars(c) for c in self.result.cells]
        return {"seed": self.cfg.seed, "cells": cells}

    def discard(self, op: int) -> None:
        pass


class CltBlocks:
    """``run_clt`` on explicit AR(1) covariance blocks, fresh seed per op."""

    def __init__(self, seed: int, worker: int, out_dir: Path):
        self.seed, self.worker = seed, worker
        s = wl.ar1(wl.CLT_P, wl.CLT_AR)
        self.blocks = hsdcov.CovarianceBlocks(s, wl.CLT_CROSS * np.eye(wl.CLT_P), s)
        self.kernel = hsdcov.gaussian_kernel()
        self.bandwidth = hsdcov.BandwidthSpec.rho(wl.CLT_TARGET)
        self.cfg = None

    def prepare(self, op: int) -> int:
        self.cfg = hsdcov.CltConfig(
            reps=wl.CLT_REPS, seed=wl.op_seed(self.seed, self.worker, op),
            blocks=self.blocks, n=wl.CLT_N, kernels=(self.kernel, self.kernel),
            bandwidths=(self.bandwidth, self.bandwidth), standardize="theory",
            threads=_nproc(),
        )
        return 0

    def run(self, op: int) -> None:
        self.result = hsdcov.run_clt(self.cfg)

    def collect(self, op: int) -> dict:
        r = self.result
        return {"seed": self.cfg.seed, "raw": r.raw,
                "standardized": r.standardized, "ks_distance": r.ks_distance}

    def discard(self, op: int) -> None:
        pass


WORKLOADS = {"test-cli": TestCli, "power-grid": PowerGrid, "clt-blocks": CltBlocks}


def _timed(workload, op: int) -> dict:
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        workload.run(op)
    except Exception as exc:  # reported to the orchestrator as a failed op
        return {"op": op, "error": f"{type(exc).__name__}: {exc}"}
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"op": op, "wall_s": wall, "cpu_s": cpu, "output": workload.collect(op)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--worker", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    workload = WORKLOADS[args.workload](args.seed, args.worker, out_dir)
    workload.prepare(0)
    warmup = _timed(workload, 0)
    workload.discard(0)
    setup_s = time.monotonic() - args.t0

    recorder = SpanRecorder() if args.trace else None

    # untraced run: ops until the next would overrun the budget; traced run:
    # alternate untraced and traced ops, at least one of each
    ops, elapsed, op = [], 0.0, 0
    while True:
        op += 1
        traced = bool(args.trace) and op % 2 == 0
        input_bytes = workload.prepare(op)
        if traced:
            recorder.op = op
            recorder.install()
        try:
            record = _timed(workload, op)
        finally:
            if traced:
                recorder.uninstall()
        record.update(traced=traced, input_bytes=input_bytes)
        ops.append(record)
        if "error" in record:
            workload.discard(op)
            break
        elapsed += record["wall_s"]
        done = len(ops) >= (2 if args.trace else 1)
        if done and elapsed + elapsed / len(ops) > args.budget:
            break

    result = {
        "setup_s": setup_s,
        "warmup_error": warmup.get("error"),
        "maxrss_mb": peak_rss_mb(),
        "ops": ops,
    }
    if recorder is not None:
        result["layers"] = layer_totals(recorder.spans)
        result["spans"] = len(recorder.spans)
        recorder.write_jsonl(out_dir / "trace.jsonl")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""hsdcov benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {test-cli,power-grid,clt-blocks} \\
        --seed N --seconds S --trace {0,1}

Each run starts fresh worker processes (``worker.py``) one after another; a
worker imports ``hsdcov`` from ``src/``, sets up the workload, runs one untimed
warm-up op and then timed ops. With ``--trace 0`` three workers share the
``--seconds`` budget, so set-up is measured three times and ``setup_s`` is
their median. With ``--trace 1`` one worker alternates untraced and traced
ops; the traced ops give the per-layer metrics and the pair gives the tracing
overhead. Spans are written to ``.perfbench_out/<run>/trace.jsonl``.

Every timed op's output is checked here, outside the timed region and outside
the measured process, against the independent numpy implementation in
``reference.py``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` (in units) and ``metrics``; the line
before it carries the environment. Metric names and units come from
``BENCHMARK.json``.

Thread settings are recorded, never set: the runners use ``threads = nproc``
and BLAS keeps its default, so oversubscription shows in ``cpu_s_per_unit``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def environment(args) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "runner_threads": nproc if args.workload != "test-cli" else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_vars": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def spawn(args, worker: int, budget: float, out_dir: Path, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before all workers ran")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--worker", str(worker), "--budget", repr(budget), "--t0", repr(t0),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {worker} killed at the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {worker} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {worker} printed no result:\n{proc.stderr}")
    return json.loads(lines[-1])


def check_op(workload: str, output: dict) -> list[str]:
    if workload == "test-cli":
        x = np.loadtxt(output["x"], delimiter=",", dtype=np.float64, ndmin=2)
        y = np.loadtxt(output["y"], delimiter=",", dtype=np.float64, ndmin=2)
        return reference.check_test(x, y, output["report"])
    if workload == "power-grid":
        return reference.check_power(output["seed"], output["cells"])
    return reference.check_clt(output["seed"], output)


def check_worker(workload: str, run: dict, problems: list[str]) -> tuple[int, int]:
    """Check every timed op of one worker; returns (attempted, failed) units."""
    units = wl.units_per_op(workload)
    attempted = failed = 0
    if run["warmup_error"]:
        attempted, failed = units, units
        problems.append(f"warm-up op: {run['warmup_error']}")
    for op in run["ops"]:
        attempted += units
        errors = [op["error"]] if "error" in op else check_op(workload, op["output"])
        if errors:
            failed += units
            problems.extend(f"op {op['op']}: {e}" for e in errors[:3])
    return attempted, failed


def _ok_ops(runs: list[dict], traced: bool | None = None) -> list[dict]:
    return [op for r in runs for op in r["ops"]
            if "error" not in op and (traced is None or op["traced"] == traced)]


def end_to_end(workload: str, runs: list[dict]) -> dict[str, float]:
    ops = _ok_ops(runs)
    if not ops:
        raise BenchError("no op completed")
    units = wl.units_per_op(workload) * len(ops)
    walls = [op["wall_s"] for op in ops]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "op_p50_s": statistics.median(walls),
        "units_per_s": units / sum(walls),
        "cpu_s_per_unit": sum(op["cpu_s"] for op in ops) / units,
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in runs),
    }


def per_layer(workload: str, runs: list[dict], names: list[str]) -> dict[str, float]:
    per_op = wl.units_per_op(workload)
    traced, plain = _ok_ops(runs, True), _ok_ops(runs, False)
    if not traced or not plain:
        raise BenchError("the traced run needs one untraced and one traced op")
    units = per_op * len(traced)
    totals = {}
    for r in runs:
        for key, value in r.get("layers", {}).items():
            totals[key] = totals.get(key, 0.0) + value
    traced_rate = units / sum(op["wall_s"] for op in traced)
    plain_rate = per_op * len(plain) / sum(op["wall_s"] for op in plain)
    values = {name: totals.get(name, 0.0) / units for name in names}
    values.update({
        "cli.input_bytes": sum(op["input_bytes"] for op in traced) / units,
        "trace.spans": sum(r.get("spans", 0) for r in runs) / units,
        "trace.units_per_s": traced_rate,
        "trace.untraced_units_per_s": plain_rate,
        "trace.overhead_frac": plain_rate / traced_rate - 1.0,
    })
    return values


def _remove_csvs(out_dir: Path) -> None:
    for csv in out_dir.glob("*.csv"):
        csv.unlink()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "hsdcov" / "__init__.py").is_file():
        print(f"perfbench: no hsdcov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    workers = 1 if args.trace else SETUP_SAMPLES
    runs, problems, attempted, failed = [], [], 0, 0
    try:
        for k in range(workers):
            run = spawn(args, k, args.seconds / workers, out_dir, deadline)
            a, f = check_worker(args.workload, run, problems)
            attempted, failed = attempted + a, failed + f
            runs.append(run)
            _remove_csvs(out_dir)
        names = [m["name"] for m in metric_specs]
        values = (per_layer(args.workload, runs, names) if args.trace
                  else end_to_end(args.workload, runs))
        missing = [n for n in names if n not in values]
        if missing:
            raise BenchError(f"metrics not computed: {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        _remove_csvs(out_dir)

    for line in problems:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    env = environment(args)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(out_dir / "result.json", "w") as fh:
        json.dump({"environment": env, "result": result, "workers": runs}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

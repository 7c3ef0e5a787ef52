"""Command-line front end.

Subcommands: ``test`` (independence test on two CSV files), ``clt`` and
``power`` (simulation reproductions emitting CSV series), ``theory``
(closed-form report for a covariance), ``eigencheck`` (minimax perturbation
identity). Every JSON output embeds the fully resolved configuration; CSV
outputs get a ``<name>.meta.json`` sidecar carrying the same, so any output
can be reproduced byte-identically from its own metadata.

Exit codes: 0 success, 2 malformed input/flags, 3 semantic errors (dimension
mismatch, too-small samples, non-PSD covariance, invalid perturbation scale).
A config file (``--config``, JSON, same keys as the long flags with
underscores) supplies defaults; explicit flags win. ``HSDCOV_SEED`` supplies
the default master seed. Each subcommand's flags are declared once, in
``_COMMANDS``, which builds the parser, the merge and the resolved config.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import warnings
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .dcovstats import (
    KERNEL_NAMES,
    BandwidthSpec,
    DegenerateSample,
    PairedSample,
    SampleTooSmall,
    kernel_by_name,
)
from .experiments import (
    CltConfig,
    PowerCell,
    PowerConfig,
    ReplicationError,
    run_clt,
    run_power,
)
from .matcore import EigenConvergenceError, NotPositiveDefinite
from .simgen import NoiseDist, SimScenario
from .testkit import dcor_test
from .theory import (
    CovarianceBlocks,
    DegenerateBlocks,
    DegenerateKernel,
    minimax_eigencheck,
    theory_report,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_SEMANTIC = 3

# raised by the library on well-formed input it cannot use
_SEMANTIC_ERRORS = (
    ValueError,
    ReplicationError,
    SampleTooSmall,
    DegenerateSample,
    NotPositiveDefinite,
    DegenerateBlocks,
    DegenerateKernel,
    EigenConvergenceError,
)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _malformed():
    """Report a ValueError raised inside as malformed flags or config."""
    try:
        yield
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT) from exc


def _default_seed() -> int:
    raw = os.environ.get("HSDCOV_SEED")
    return int(raw) if raw else 0


def _tokens(text: str) -> list[str]:
    return [tok for tok in text.split(",") if tok]


def _float_list(value) -> list[float]:
    """Comma-separated text, or a list as a resolved config records it."""
    if not isinstance(value, (list, tuple)):
        value = _tokens(str(value))
    return [float(v) for v in value]


def _alpha(value) -> float:
    """A test level, strictly between 0 and 1."""
    alpha = float(value)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    return alpha


def _boolean(value) -> bool:
    """A JSON boolean; text such as ``"false"`` is rejected, not read as true."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


class Flag(NamedTuple):
    """One option of a subcommand: ``--name`` on the command line (``_``
    spelled ``-``) and ``name`` in a config file. ``type`` converts flag and
    config values alike, and a callable ``default`` is called when needed.
    Recorded flags make up the resolved config that outputs embed."""

    name: str
    type: Callable[[Any], Any] = str
    default: Any = None
    choices: Optional[Sequence[str]] = None
    recorded: bool = True
    help: Optional[str] = None


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_BAD_INPUT)
    if not isinstance(data, dict):
        raise CliError(f"config {path} must hold a JSON object", EXIT_BAD_INPUT)
    # any command output embeds its resolved flags under "config", so output
    # files can be replayed directly
    if isinstance(data.get("config"), dict):
        return data["config"]
    return data


def _resolve(flags: Sequence[Flag], args: dict, config: dict) -> dict:
    """Each flag's value: the command line wins over the config file, which
    wins over the default."""
    values = {}
    for flag in flags:
        value = args.get(flag.name)
        if value is None:
            value = config.get(flag.name)
        if value is None:
            value = flag.default() if callable(flag.default) else flag.default
        if value is not None:
            try:
                value = flag.type(value)
            except (TypeError, ValueError) as exc:
                raise CliError(f"bad {flag.name} {value!r}: {exc}", EXIT_BAD_INPUT)
        if flag.choices and value not in flag.choices:
            raise CliError(
                f"bad {flag.name} {value!r}: expected one of {', '.join(flag.choices)}",
                EXIT_BAD_INPUT,
            )
        values[flag.name] = value
    return values


def _read_csv_matrix(path: str, skip_header: bool) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            rows = np.loadtxt(
                path,
                delimiter=",",
                ndmin=2,
                comments=None,
                quotechar='"',
                skiprows=int(skip_header),
            )
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_BAD_INPUT)
    if rows.size == 0:
        raise CliError(f"{path}: no data rows", EXIT_BAD_INPUT)
    return rows


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    repr(float(c)) if isinstance(c, float) else str(c) for c in row
                )
                + "\n"
            )


def _dump_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_test(v: dict, config: dict) -> int:
    if not v["x"] or not v["y"]:
        raise CliError("test requires --x and --y CSV paths", EXIT_BAD_INPUT)
    x = _read_csv_matrix(v["x"], v["header"])
    y = _read_csv_matrix(v["y"], v["header"])
    if x.shape[0] != y.shape[0]:
        raise CliError(
            f"row count mismatch: {v['x']} has {x.shape[0]} rows, "
            f"{v['y']} has {y.shape[0]}",
            EXIT_SEMANTIC,
        )
    kernel = kernel_by_name(v["kernel"])
    with _malformed():
        bandwidth = BandwidthSpec.parse(v["bandwidth"])
    result = dcor_test(
        PairedSample(x, y),
        v["alpha"],
        kernels=(kernel, kernel),
        bandwidths=(bandwidth, bandwidth),
    )
    payload = dataclasses.asdict(result)
    payload["kernel"] = payload.pop("kernel_label")
    payload["bandwidth"] = payload.pop("bandwidth_used")
    _dump_json({**payload, "config": config}, v["output"])
    return EXIT_OK


def _cmd_clt(v: dict, config: dict) -> int:
    kernel = kernel_by_name(v["kernel"])
    with _malformed():
        bandwidth = BandwidthSpec.parse(v["bandwidth"])
        cfg = CltConfig(
            reps=v["reps"],
            seed=v["seed"],
            scenario=SimScenario(
                n=v["n"], p=v["p"], rho=v["rho"], dist=NoiseDist(v["dist"])
            ),
            kernels=(kernel, kernel),
            bandwidths=(bandwidth, bandwidth),
            standardize=v["standardize"],
            center=v["center"],
            threads=v["threads"],
        )
    result = run_clt(cfg)
    if v["csv_out"]:
        _write_csv(
            v["csv_out"],
            ["prob", "normal_quantile", "sample_quantile"],
            zip(result.probs, result.normal_quantiles, result.sample_quantiles),
        )
    _dump_json({"ks_distance": result.ks_distance, "config": config}, v["json_out"])
    return EXIT_OK


def _cmd_power(v: dict, config: dict) -> int:
    if not v["out"]:
        raise CliError("power requires --out CSV path", EXIT_BAD_INPUT)
    with _malformed():
        cfg = PowerConfig(
            n=v["n"],
            p=v["p"],
            rho_grid=tuple(v["rho_grid"]),
            kernels=tuple(map(kernel_by_name, _tokens(v["kernels"]))),
            bandwidths=tuple(map(BandwidthSpec.parse, _tokens(v["bandwidths"]))),
            alpha=v["alpha"],
            reps=v["reps"],
            seed=v["seed"],
            dist=NoiseDist(v["dist"]),
            threads=v["threads"],
        )
    result = run_power(cfg)

    _write_csv(
        v["out"],
        [f.name for f in dataclasses.fields(PowerCell)],
        map(dataclasses.astuple, result.cells),
    )
    _dump_json({"config": config}, v["out"] + ".meta.json")
    return EXIT_OK


def _blocks(v: dict) -> CovarianceBlocks:
    paths = (v["sigma_x"], v["sigma_xy"], v["sigma_y"])
    if any(paths):
        if not all(paths):
            raise CliError(
                "CSV covariance input needs all of --sigma-x, --sigma-y, --sigma-xy",
                EXIT_BAD_INPUT,
            )
        return CovarianceBlocks(*(_read_csv_matrix(path, False) for path in paths))
    if v["p"] is None or v["rho_xy"] is None:
        raise CliError(
            "theory requires --p/--q/--rho-xy or explicit CSV blocks",
            EXIT_BAD_INPUT,
        )
    q = v["q"] if v["q"] is not None else v["p"]
    with _malformed():
        return CovarianceBlocks.identity_blocks(v["p"], q, v["rho_xy"])


def _cmd_theory(v: dict, config: dict) -> int:
    blocks = _blocks(v)
    report = theory_report(blocks, v["n"], v["alpha"])
    payload = dataclasses.asdict(report)
    payload["A"] = payload.pop("local_a")
    payload["config"] = {**config, "p": blocks.p, "q": blocks.q}
    _dump_json(payload, v["output"])
    return EXIT_OK


def _read_sign_file(path: str, expected: int) -> tuple[np.ndarray, np.ndarray]:
    m = _read_csv_matrix(path, False)
    if m.shape != (2, expected):
        raise CliError(
            f"{path}: expected 2 rows of {expected} signs, got {m.shape}",
            EXIT_BAD_INPUT,
        )
    return m[0], m[1]


def _cmd_eigencheck(v: dict, config: dict) -> int:
    p, q = v["p"], v["q"]
    if p < 1 or q < 1:
        raise CliError(f"p and q must be positive, got p={p}, q={q}", EXIT_BAD_INPUT)
    a = v["a"] if v["a"] is not None else 1.0 / (4 * p * q)
    if v["u_signs"] or v["v_signs"]:
        if not (v["u_signs"] and v["v_signs"]):
            raise CliError(
                "explicit signs need both --u-signs and --v-signs", EXIT_BAD_INPUT
            )
        u_pair = _read_sign_file(v["u_signs"], p)
        v_pair = _read_sign_file(v["v_signs"], q)
    else:
        gen = np.random.Generator(np.random.Philox(key=v["seed"]))
        u_pair, v_pair = [
            (gen.choice([-1.0, 1.0], size=d), gen.choice([-1.0, 1.0], size=d))
            for d in (p, q)
        ]
    report = minimax_eigencheck(u_pair, v_pair, a)
    _dump_json({**dataclasses.asdict(report), "config": {**config, "a": a}}, v["output"])
    return EXIT_OK


class Command(NamedTuple):
    run: Callable[[dict, dict], int]
    help: str
    flags: tuple[Flag, ...]


_ALPHA = Flag("alpha", _alpha, 0.05)
_SEED = Flag("seed", int, _default_seed)
_KERNEL = Flag("kernel", default="identity", choices=KERNEL_NAMES)
_BANDWIDTH = Flag("bandwidth", default="fixed:1.0", help="fixed:<g> | median | rho:<target>")
_DIST = Flag("dist", default="normal", choices=tuple(d.value for d in NoiseDist))
_THREADS = Flag("threads", int, 1, recorded=False)
_OUTPUT = Flag("output", recorded=False, help="write the JSON report here instead of stdout")

_COMMANDS = {
    "test": Command(_cmd_test, "independence test on two CSV files", (
        Flag("x", help="CSV of X observations (rows) x coordinates"),
        Flag("y", help="CSV of Y observations"),
        _ALPHA,
        _KERNEL,
        _BANDWIDTH,
        Flag("header", _boolean, False),
        _OUTPUT,
    )),
    "clt": Command(_cmd_clt, "standardized-statistic QQ data and KS distance", (
        Flag("n", int, 200),
        Flag("p", int, 50),
        Flag("rho", float, 0.0),
        _DIST,
        _KERNEL,
        _BANDWIDTH,
        Flag("reps", int, 200),
        _SEED,
        Flag("standardize", default="empirical", choices=("theory", "null", "empirical")),
        Flag("center", default="theory", choices=("theory", "empirical")),
        _THREADS,
        Flag("csv_out", recorded=False),
        Flag("json_out", recorded=False),
    )),
    "power": Command(_cmd_power, "empirical vs theoretical power table", (
        Flag("n", int, 200),
        Flag("p", int, 50),
        Flag("rho_grid", _float_list, "0.0", help="comma-separated rho values"),
        Flag("kernels", default="identity", help="comma-separated kernel names"),
        Flag("bandwidths", default="fixed:1.0", help="comma-separated bandwidth specs"),
        _ALPHA,
        Flag("reps", int, 500),
        _SEED,
        _DIST,
        _THREADS,
        Flag("out", help="output CSV path"),
    )),
    "theory": Command(_cmd_theory, "closed-form report for a covariance", (
        Flag("p", int),
        Flag("q", int),
        Flag("rho_xy", float),
        Flag("sigma_x"),
        Flag("sigma_y"),
        Flag("sigma_xy"),
        Flag("n", int, 200),
        _ALPHA,
        _OUTPUT,
    )),
    "eigencheck": Command(_cmd_eigencheck, "minimax perturbation identity check", (
        Flag("p", int, 6),
        Flag("q", int, 6),
        Flag("a", float, help="perturbation scale (default 1/(4pq))"),
        _SEED,
        Flag("u_signs"),
        Flag("v_signs"),
        _OUTPUT,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsdcov",
        description="Kernel distance covariance tests, theory reports, and "
        "simulation reproductions.",
    )
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            option = "--" + flag.name.replace("_", "-")
            if flag.type is _boolean:
                cmd.add_argument(
                    option, dest=flag.name, action="store_const", const=True
                )
            else:
                cmd.add_argument(
                    option, dest=flag.name, choices=flag.choices, help=flag.help
                )
    return parser


def _fail(exc: Exception, code: int) -> int:
    print(f"hsdcov: error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        values = _resolve(command.flags, vars(args), _load_config(args.config))
        config = {"command": args.command}
        config.update((f.name, values[f.name]) for f in command.flags if f.recorded)
        return command.run(values, config)
    except CliError as exc:
        return _fail(exc, exc.code)
    except OSError as exc:  # an output path that cannot be written
        return _fail(exc, EXIT_BAD_INPUT)
    except _SEMANTIC_ERRORS as exc:
        return _fail(exc, EXIT_SEMANTIC)


if __name__ == "__main__":
    sys.exit(main())

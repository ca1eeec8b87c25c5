"""Command-line front end.

Exit codes: 0 success (including runs that end in Blowup: that is a
verdict, not an error), 1 usage or bad arguments (also unreadable input
paths), 2 invalid config document, 3 numerical failure (NaN in a run,
monotonicity violations, bracket instability).

The config document, with built-in defaults, is the computation, and
flags say where results go.  Time series go out as CSV with '#' comment
lines carrying the tool version, the config hash, and a JSON footer;
structured results print as JSON.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import json
import os
import sys
from dataclasses import asdict

from . import __version__
from .analysis import MonotonicityError, classify_threshold, fit_power_law
from .config import ConfigError, parse_config
from .constants import (
    ModelParams,
    kappa_from_delta,
    kappa_from_params,
    regime_report,
    singular_morrey_norm,
    solve_sigma,
)
from .field import (SnapshotFormatError, SnapshotMeta, fft_workers, open_snapshot, thread_count,
                    write_octant_snapshot)
from .linear_propagators import HardyOperatorSpec, hardy_evolve
from .morrey import MorreyQuery, morrey_estimate
from .nonlinear_solver import NumericalFailure, evolve
from .radial_operator import steady_residual


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def _emit(lines, dest=None):
    text = "\n".join(lines) + "\n"
    if dest is None:
        sys.stdout.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)


def _cell(x) -> str:
    return repr(float(x))


def _write_series(config, columns: str, rows, footer: dict, dest):
    """A run's CSV: a '#' line with the version and config hash, the
    column line, one line per row, and a '#' JSON footer that also holds
    the hash and the version."""
    chash = config.config_hash()
    lines = [f"# fraclab {__version__} config {chash}", columns]
    lines += [",".join(map(_cell, row)) for row in rows]
    footer = dict(footer, config_hash=chash, version=__version__)
    lines.append("# " + json.dumps(footer, sort_keys=True))
    _emit(lines, dest)


def _print_result(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            print(f"{key:<{width}}  {value}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args) -> int:
    report = asdict(regime_report(ModelParams(args.alpha, args.d, args.p)))
    payload = {("s" if key == "singular_amplitude" else key): v for key, v in report.items()}
    _print_result(payload, args.json)
    return 0


def cmd_sigma(args) -> int:
    if args.kappa is not None:
        kappa = args.kappa
    elif args.p is not None:
        params = ModelParams(args.alpha, args.d, args.p)
        kappa = kappa_from_delta(params, args.delta) if args.delta is not None else kappa_from_params(params)
    else:
        raise ValueError("sigma needs --kappa, or --p (optionally with --delta)")
    value = solve_sigma(kappa, args.d, args.alpha)
    _print_result({"kappa": kappa, "sigma": value}, args.json)
    return 0


def cmd_steady_check(args) -> int:
    params = ModelParams(args.alpha, args.d, args.p)
    max_residual, per_point = steady_residual(params, args.r_min, args.r_max, args.n)
    lines = [f"# fraclab {__version__}", "r,residual"]
    lines += [f"{_cell(r)},{_cell(res)}" for r, res in per_point]
    lines.append(f"# max_residual = {_cell(max_residual)}")
    _emit(lines)
    return 0


def cmd_evolve(args) -> int:
    config = _load_config(args.config)
    every, snapshot_dir = args.snapshot_every, args.snapshot_dir
    if every is not None and snapshot_dir is None:
        raise ValueError("--snapshot-every needs a snapshot directory (--snapshot-dir)")
    if every is not None and every < 1:
        raise ValueError(f"--snapshot-every: must be positive, got {every}")
    every = every or 1  # --snapshot-dir alone keeps every output

    grid = config.build_grid()

    def write_every(i, t, octant):  # streams snapshots as their output times are reached
        if i % every == 0:
            path = os.path.join(snapshot_dir, f"snapshot_{i:04d}.frdf")
            meta = SnapshotMeta(alpha=config.params.alpha, p=config.params.p, t=float(t))
            write_octant_snapshot(grid, octant, path, meta)

    if snapshot_dir is not None:
        os.makedirs(snapshot_dir, exist_ok=True)
    record = evolve(config, on_output=None if snapshot_dir is None else write_every)
    footer = {"status": record.status_dict(), "monitor_maxima": record.monitor_maxima}
    _write_series(config, "t,sup_norm,l2_norm,mass,min_value,dt", record.rows(), footer, args.csv)
    return 3 if isinstance(record.status, NumericalFailure) else 0


def cmd_linear_evolve(args) -> int:
    config = _load_config(args.config)
    spec = HardyOperatorSpec(config.params.alpha, config.params.d, config.kappa())
    series = hardy_evolve(config.initial_field(), spec, config.output_times())
    columns = "t,norm_q1,norm_q2,norm_qinf,weighted_q1,weighted_q2,weighted_qinf"
    _write_series(config, columns, series.rows(), {"sigma": series.sigma, "kappa": spec.kappa}, args.csv)
    return 0


def cmd_morrey(args) -> int:
    try:
        with open_snapshot(args.snapshot) as snapshot:
            estimate = morrey_estimate(snapshot, MorreyQuery(s=args.s, q=args.q))
    except SnapshotFormatError as exc:
        raise SnapshotFormatError(f"snapshot {args.snapshot}: {exc}") from None
    payload = {
        "value": estimate.value,
        "argmax_center": list(estimate.argmax_center),
        "argmax_radius": estimate.argmax_radius,
        "s": args.s,
        "q": args.q,
        "t": snapshot.meta.t,
        "version": __version__,
    }
    _print_result(payload, args.json)
    return 0


def cmd_classify(args) -> int:
    config = _load_config(args.config)
    with fft_workers(thread_count(args.threads)):
        bracket = classify_threshold(
            config, args.lambda_min, args.lambda_max, tol=args.tol, state_path=args.state
        )
    context = (
        singular_morrey_norm(config.params) if config.params.singular_regime else None
    )
    payload = {
        **asdict(bracket),
        "singular_morrey_norm": context,
        "config_hash": config.config_hash(),
        "version": __version__,
    }
    _print_result(payload, True)
    return 0


def cmd_fit(args) -> int:
    with open(args.csv) as fh:
        rows = list(csv_module.DictReader(line for line in fh if not line.startswith("#")))
    if not rows:
        raise ValueError(f"{args.csv} has no data rows")
    if args.column not in rows[0] or "t" not in rows[0]:
        raise ValueError(f"column {args.column!r} or 't' not in {sorted(rows[0])}")
    times = [float(row["t"]) for row in rows]
    values = [float(row[args.column]) for row in rows]
    positive = [t for t in times if t > 0.0]
    if not positive:
        raise ValueError("no positive times to fit")
    window = (
        args.t_min if args.t_min is not None else min(positive),
        args.t_max if args.t_max is not None else max(times),
    )
    fit = fit_power_law(times, values, window)
    payload = {**asdict(fit), "column": args.column, "version": __version__}
    _print_result(payload, True)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="fraclab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fraclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("constants", help="regime report for a parameter triple")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_constants)

    p = sub.add_parser("sigma", help="weight exponent for a Hardy coupling")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kappa", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_sigma)

    p = sub.add_parser("steady-check", help="quadrature residual of the steady profile")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=cmd_steady_check)

    p = sub.add_parser("evolve", help="nonlinear run: CSV norms plus JSON footer")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", help="output path (default: stdout)")
    p.add_argument("--snapshot-every", type=int,
                   help="k: keep every k-th output's snapshot (default 1; needs --snapshot-dir)")
    p.add_argument("--snapshot-dir", help="write an FRDF snapshot of each output here")
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("linear-evolve", help="Hardy-semigroup run: CSV norm series")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", help="output path (default: stdout)")
    p.set_defaults(handler=cmd_linear_evolve)

    p = sub.add_parser("morrey", help="Morrey estimate of a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_morrey)

    p = sub.add_parser("classify", help="bisect the global/blowup amplitude threshold")
    p.add_argument("--config", required=True)
    p.add_argument("--lambda-min", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--tol", type=float, default=0.1)
    p.add_argument("--state", help="resumable bisection state (JSON)")
    p.add_argument("--threads", type=int, help="FFT workers; FRACLAB_THREADS as fallback")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("fit", help="power-law fit of a CSV column against t")
    p.add_argument("--csv", required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--t-min", type=float)
    p.add_argument("--t-max", type=float)
    p.set_defaults(handler=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (MonotonicityError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, SnapshotFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

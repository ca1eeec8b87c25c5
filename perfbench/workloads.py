"""Seeded inputs, CLI operations and output checks of the workloads.

A workload runs the CLI calls of one or more parts (PARTS; WORKLOADS says
which).  A seed selects one of VARIANTS input variants (seed mod VARIANTS).
The variant fixes the amplitudes, delta, lambda endpoints and field data;
grid sizes and output schedules never change.  references.json holds, per
part, what the CLI printed for every variant when the benchmark was
defined, with the sha256 of the inputs it was given, so a check compares
against numbers taken from a known-good program rather than from the
program under test.

Checks test properties a correct faster program keeps: exit codes and
verdicts match exactly, numbers agree with the reference to a stated
relative tolerance, and classify may return another bracket as long as it
meets the tolerance, overlaps the reference bracket and was reached through
a monotone sequence of observations.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

VARIANTS = 16

# 0.2 * power_map_coeff_max(1, 0.5), the criterion-7 coupling.  Written out
# so that the inputs do not depend on the program under test.
HARDY_KAPPA = 0.02799993549049658
CLASSIFY_TOL = 0.01
# classify's endpoints are (0.40 + 0.02 (k mod 8), 2.5 + 0.1 k).  For about a
# quarter of k in 0..31, tol 0.01 leaves a bracket narrower than the shift of
# the threshold under halved eta, and the reverify step exits 3 ("bracket
# unstable"), which is the program's documented check.  The variants use
# the first 16 k on which classify succeeds.
CLASSIFY_K = (0, 1, 2, 4, 5, 6, 8, 9, 13, 14, 16, 17, 19, 21, 22, 23)

# Relative tolerances.  Time-stepped series may drift by accumulated
# rounding when kernels are reordered or fused; closed forms may not.
RTOL_SERIES = 1e-6
RTOL_CLOSED = 1e-9

# Parts: evolve-3d is a 3-d 128^3 nonlinear evolve holding 9 snapshots
# (large-array FFT diffusion, reaction, snapshot memory and FRDF writes);
# hardy-1d a 1-d 2^18 Hardy linear flow of 240 fixed-dt steps (spectral
# multiplier, potential substep, Field validation, weighted norms);
# classify-1d a threshold bisection on a 256-point grid (~11k tiny steps,
# per-step Python overhead, thread pool, JSON state writes); cli-short five
# short calls (import start-up, radial quadrature, 2-d 1024^2 Morrey
# convolution, snapshot read, fit).
WORKLOADS = {
    "evolve-hardy": ("evolve-3d", "hardy-1d"),
    "classify-cli": ("classify-1d", "cli-short"),
}
WHY = {
    "evolve-hardy": "large arrays: 3-d 128^3 nonlinear evolve holding 9 snapshots (FFT diffusion, "
    "reaction, FRDF writes) and a 1-d 2^18 Hardy linear flow of 240 fixed-dt steps",
    "classify-cli": "small calls: threshold bisection of ~11k tiny steps (per-step overhead, thread "
    "pool, state writes) and five short CLI calls (import, quadrature, Morrey, snapshot read)",
}


class OutputError(Exception):
    """An output file is missing or cannot be parsed."""


class InputsDrifted(Exception):
    """Generated inputs differ from those the references were taken on."""


@dataclass
class Op:
    """One fraclab CLI call and how to judge what it printed."""

    name: str
    argv: list
    observe: Callable  # (stdout text) -> dict comparable with the reference
    verify: Callable  # (observed, reference) -> list of problems
    part: str = ""  # set by plan()


@dataclass
class Plan:
    workload: str
    variant: int
    inputs_sha256: dict  # part -> digest of its inputs and CLI arguments
    ops: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# comparison helpers


def compare(observed, reference, rtol: float, where: str = "") -> list:
    """Problems found comparing two JSON-like values; numbers by rtol."""
    if isinstance(reference, dict):
        if not isinstance(observed, dict) or set(observed) != set(reference):
            return [f"{where or 'output'}: keys {sorted(observed) if isinstance(observed, dict) else observed!r} "
                    f"!= {sorted(reference)}"]
        out = []
        for key in reference:
            out += compare(observed[key], reference[key], rtol, f"{where}.{key}" if where else key)
        return out
    if isinstance(reference, list):
        if not isinstance(observed, list) or len(observed) != len(reference):
            n = len(observed) if isinstance(observed, list) else observed
            return [f"{where}: length {n} != {len(reference)}"]
        out = []
        for i, (o, r) in enumerate(zip(observed, reference)):
            out += compare(o, r, rtol, f"{where}[{i}]")
        return out
    if isinstance(reference, (bool, str)) or reference is None:
        return [] if observed == reference else [f"{where}: {observed!r} != {reference!r}"]
    if isinstance(observed, bool) or not isinstance(observed, (int, float)):
        return [f"{where}: {observed!r} is not a number"]
    if math.isclose(observed, reference, rel_tol=rtol, abs_tol=0.0):
        return []
    return [f"{where}: {observed!r} differs from {reference!r} beyond rtol {rtol:g}"]


def read_series(text: str) -> dict:
    """Parse fraclab's CSV: '#' header, column line, rows, '# {json}' footer."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[-1].startswith("# {"):
        raise OutputError("CSV lacks a header, rows or JSON footer")
    footer = json.loads(lines[-1][2:])
    footer.pop("version", None)
    rows = [[float(x) for x in line.split(",")] for line in lines[2:-1]]
    return {"columns": lines[1].split(","), "rows": rows, "footer": footer}


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise OutputError(str(exc)) from None


def _json_stdout(stdout: str) -> dict:
    payload = json.loads(stdout)
    payload.pop("version", None)
    return payload


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


def _closed(rtol):
    return lambda observed, reference: compare(observed, reference, rtol)


# ---------------------------------------------------------------------------
# evolve-3d


def _evolve_3d(v: int, inputs: Path, out: Path) -> list:
    config = _write_json(inputs / "evolve-3d.json", {
        "params": {"alpha": 1.0, "d": 3, "p": 2.0},
        "grid": {"n": 128, "L": 32.0},
        "time": {"t_end": 8.0, "output_schedule": [float(t) for t in np.geomspace(0.5, 8.0, 8)]},
        # delta sets the step count through the dt rule: 34 steps at 0.86,
        # 38 at 0.935; a narrow range keeps the work nearly seed-independent
        "initial": {"kind": "truncated_singular", "delta": 0.89 + 0.00125 * v},
    })
    csv = out / "evolve.csv"
    snaps = out / "snapshots"

    def observe(_stdout):
        series = read_series(_read(csv))
        series["snapshots"] = _snapshot_summary(snaps)
        return series

    def verify(observed, reference):
        problems = compare(observed, reference, RTOL_SERIES)
        rows = observed["rows"]
        if len(observed["snapshots"]) != len(rows):
            problems.append(f"{len(observed['snapshots'])} snapshots read back for {len(rows)} rows")
        for (t, sup, _shape), row in zip(observed["snapshots"], rows):
            if not (math.isclose(t, row[0], rel_tol=1e-12) and math.isclose(sup, row[1], rel_tol=1e-12)):
                problems.append(f"snapshot (t={t}, max={sup}) disagrees with CSV row {row[:2]}")
        return problems

    argv = ["evolve", "--config", config, "--csv", str(csv),
            "--snapshot-every", "1", "--snapshot-dir", str(snaps)]
    return [Op("evolve", argv, observe, verify)]


def _snapshot_summary(directory: Path) -> list:
    """[t, max, shape] of every snapshot, read back through read_snapshot."""
    from fraclab.field import SnapshotFormatError, read_snapshot

    held = []
    for path in sorted(directory.glob("*.frdf")):
        try:
            snap, meta = read_snapshot(path)
        except SnapshotFormatError as exc:
            raise OutputError(f"{path.name}: {exc}") from None
        held.append([meta.t, float(np.max(snap.values)), list(snap.values.shape)])
    return held


# ---------------------------------------------------------------------------
# hardy-1d


def _hardy_1d(v: int, inputs: Path, out: Path) -> list:
    config = _write_json(inputs / "hardy-1d.json", {
        "params": {"alpha": 0.5, "d": 1, "p": 3.0},
        "grid": {"n": 262144, "L": 32768.0},
        "time": {"t_end": 64.0, "output_schedule": [float(t) for t in np.geomspace(6.4, 64.0, 10)]},
        "initial": {"kind": "gaussian", "amplitude": 0.5 + 0.1 * v, "width": 0.75 + 0.25 * (v % 4)},
        "potential": {"kappa": HARDY_KAPPA},
    })
    csv = out / "linear.csv"
    argv = ["linear-evolve", "--config", config, "--csv", str(csv)]
    return [Op("linear-evolve", argv, lambda _stdout: read_series(_read(csv)), _closed(RTOL_SERIES))]


# ---------------------------------------------------------------------------
# classify-1d


def _classify_1d(v: int, inputs: Path, out: Path) -> list:
    config = _write_json(inputs / "classify-1d.json", {
        "params": {"alpha": 0.5, "d": 1, "p": 3.0},
        "grid": {"n": 256, "L": 32.0},
        "time": {"t_end": 1000.0, "output_schedule": [100.0, 1000.0]},
        "initial": {"kind": "gaussian"},
    })
    k = CLASSIFY_K[v]
    lam_min = 0.40 + 0.02 * (k % 8)
    lam_max = 2.5 + 0.1 * k
    state = out / "state.json"

    def observe(stdout):
        payload = _json_stdout(stdout)
        try:
            payload["state"] = json.loads(_read(state))
        except json.JSONDecodeError as exc:
            raise OutputError(f"state file: {exc}") from None
        return payload

    def verify(observed, reference):
        lo, hi = observed["lambda_global"], observed["lambda_blowup"]
        ref_lo, ref_hi = reference["lambda_global"], reference["lambda_blowup"]
        problems = []
        if not (0.0 < lo < hi and hi / lo <= 1.0 + CLASSIFY_TOL * (1.0 + 1e-12)):
            problems.append(f"bracket [{lo}, {hi}] misses ratio 1 + {CLASSIFY_TOL}")
        elif not math.isclose(observed["ratio"], hi / lo, rel_tol=1e-12):
            problems.append(f"ratio {observed['ratio']} != {hi / lo}")
        if not (lo < ref_hi and ref_lo < hi):
            problems.append(f"bracket [{lo}, {hi}] does not overlap [{ref_lo}, {ref_hi}]")
        # the Morrey norm of a scaled datum is linear in the scale at q = 1
        for end, lam, ref_lam in (("global", lo, ref_lo), ("blowup", hi, ref_hi)):
            got, want = observed[f"morrey_{end}"] / lam, reference[f"morrey_{end}"] / ref_lam
            if not math.isclose(got, want, rel_tol=RTOL_CLOSED):
                problems.append(f"morrey_{end} / lambda = {got} != {want}")
        for key in ("singular_morrey_norm", "config_hash"):
            problems += compare(observed[key], reference[key], RTOL_CLOSED, key)
        problems += _state_problems(observed["state"], reference["config_hash"], (lam_min, lam_max), (lo, hi))
        return problems

    argv = ["classify", "--config", config, "--lambda-min", repr(lam_min),
            "--lambda-max", repr(lam_max), "--tol", repr(CLASSIFY_TOL),
            "--threads", "2", "--state", str(state)]
    return [Op("classify", argv, observe, verify)]


def _state_problems(state: dict, config_hash: str, endpoints: tuple, bracket: tuple) -> list:
    """The state file must hold Global/Blowup at the endpoints and at the
    returned bracket, with every Global below every Blowup."""
    problems = []
    if state.get("config_hash") != config_hash:
        problems.append(f"state config_hash {state.get('config_hash')!r} != {config_hash!r}")
    seen = {float(lam): kind for lam, kind in state.get("observations", [])}
    globals_ = [lam for lam, kind in seen.items() if kind == "Global"]
    blowups = [lam for lam, kind in seen.items() if kind == "Blowup"]
    for lo, hi, what in (*endpoints, "endpoints"), (*bracket, "bracket"):
        if seen.get(lo) != "Global" or seen.get(hi) != "Blowup":
            problems.append(f"state lacks the Global/Blowup verdicts at the {what} [{lo}, {hi}]")
    if globals_ and blowups and max(globals_) >= min(blowups):
        problems.append(f"state not monotone: Global at {max(globals_)} >= Blowup at {min(blowups)}")
    return problems


# ---------------------------------------------------------------------------
# cli-short


def _cli_short(v: int, inputs: Path, out: Path) -> list:
    frdf = _write_frdf(inputs / "field.frdf", v)
    fit_csv = _write_fit_csv(inputs / "series.csv", v)
    p = repr(2.0 + 0.05 * v)

    def steady(stdout):
        lines = stdout.splitlines()
        if len(lines) < 3 or not lines[-1].startswith("# max_residual = "):
            raise OutputError("steady-check CSV lacks its max_residual line")
        rows = [[float(x) for x in line.split(",")] for line in lines[2:-1]]
        return {"columns": lines[1].split(","), "rows": rows,
                "max_residual": float(lines[-1].split("=")[1])}

    return [
        Op("constants", ["constants", "--alpha", "1", "--d", "3", "--p", p, "--json"],
           _json_stdout, _closed(RTOL_CLOSED)),
        Op("sigma", ["sigma", "--alpha", "0.5", "--d", "1", "--p", "2.1", "--delta", repr(0.5 + 0.03 * v),
                     "--json"],
           _json_stdout, _closed(RTOL_CLOSED)),
        # residuals are differences of nearly equal quadrature sums
        Op("steady-check", ["steady-check", "--alpha", "1", "--d", "3", "--p", p,
                            "--r-min", "0.5", "--r-max", "2", "--n", "20"],
           steady, _closed(RTOL_SERIES)),
        Op("morrey", ["morrey", "--snapshot", frdf, "--s", "4", "--q", "1", "--json"],
           _json_stdout, _closed(RTOL_CLOSED)),
        Op("fit", ["fit", "--csv", fit_csv, "--column", "sup_norm", "--t-min", "1", "--t-max", "40"],
           _json_stdout, _closed(RTOL_CLOSED)),
    ]


def _write_frdf(path: Path, v: int) -> str:
    """A noisy 2-d 1024^2 Gaussian bump in the FRDF v1 layout.

    Written here rather than through fraclab.write_snapshot so the input
    bytes do not depend on the program under test.
    """
    n, half_length = 1024, 64.0
    axis = -half_length + (2.0 * half_length / n) * np.arange(n)
    r2 = axis[:, None] ** 2 + axis[None, :] ** 2
    width = 6.0 + 0.25 * v
    noise = np.random.default_rng(v).random((n, n))
    values = (1.0 + 0.1 * v) * np.exp(-r2 / width**2) * (1.0 + 0.1 * noise)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", b"FRDF", 1, 2))
        fh.write(struct.pack("<2I", n, n))
        fh.write(struct.pack("<dddd", half_length, 1.0, 2.0, 1.0))
        fh.write(values.astype("<f8").tobytes())
    return str(path)


def _write_fit_csv(path: Path, v: int) -> str:
    t = np.geomspace(0.5, 50.0, 40)
    noise = np.random.default_rng(VARIANTS + v).standard_normal(t.size)
    y = (1.0 + 0.1 * v) * t ** (-0.5 - 0.02 * v) * (1.0 + 0.01 * noise)
    rows = [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, y)]
    path.write_text("\n".join(["# seeded power law", "t,sup_norm", *rows]) + "\n")
    return str(path)


# ---------------------------------------------------------------------------

PARTS = {
    "evolve-3d": _evolve_3d,
    "hardy-1d": _hardy_1d,
    "classify-1d": _classify_1d,
    "cli-short": _cli_short,
}
NAMES = tuple(WORKLOADS)


def plan(name: str, seed: int, inputs: Path, out: Path) -> Plan:
    """Write the inputs of a workload or a single part for seed under
    inputs/<part>; ops write under out.

    Each part's digest covers its input files and its CLI arguments.
    """
    out.mkdir(parents=True, exist_ok=True)
    variant = seed % VARIANTS
    result = Plan(name, variant, {})
    for part in WORKLOADS.get(name, (name,)):
        where = inputs / part
        where.mkdir(parents=True, exist_ok=True)
        ops = PARTS[part](variant, where, out)
        h = hashlib.sha256()
        for file in sorted(os.listdir(where)):
            h.update(file.encode())
            h.update((where / file).read_bytes())
        argv = json.dumps([op.argv for op in ops])
        h.update(argv.replace(str(where), "<inputs>").replace(str(out), "<out>").encode())
        result.inputs_sha256[part] = h.hexdigest()
        for op in ops:
            op.part = part
        result.ops += ops
    return result


def load_references(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def reference_for(references: dict, plan_: Plan) -> dict:
    """The reference outputs of plan_'s variant, by operation name; raises
    if inputs drifted."""
    ops = {}
    for part, digest in plan_.inputs_sha256.items():
        entry = references[part][str(plan_.variant)]
        if entry["inputs_sha256"] != digest:
            raise InputsDrifted(
                f"{part} variant {plan_.variant}: generated inputs differ from "
                "the ones the references were taken on"
            )
        ops.update(entry["ops"])
    return ops


def check(op: Op, returncode: int, stdout: str, reference: dict) -> list:
    """Problems with one operation's result; empty means it passed."""
    if returncode != 0:
        return [f"{op.name}: exit code {returncode}"]
    try:
        problems = op.verify(op.observe(stdout), reference)
    except (OutputError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{op.name}: unreadable output: {exc!r}"]
    return [f"{op.name}: {p}" for p in problems]

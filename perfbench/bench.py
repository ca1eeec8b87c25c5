"""Measurement behind run.py: set-up, iterations, metrics and the report."""

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
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))  # output checks read snapshots back through fraclab

import tracer  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench_work"
CLI = "import sys; from fraclab.cli import main; sys.exit(main())"
IMPORT_PROBE = "import time; t = time.perf_counter(); import fraclab.cli; print(time.perf_counter() - t)"

SETUP_REPEATS = 8
# About the fastest time of yardstick.py on the machine of baseline.json in a
# quiet phase; see scaled().
YARDSTICK_REF_S = 0.35
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
OP_TIMEOUT_S = 60.0

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "FRACLAB_THREADS": "2",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LC_ALL": "C.UTF-8",
}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class BenchmarkError(Exception):
    """The benchmark cannot measure: fraclab is missing or does not import."""


@dataclass
class Iteration:
    traced: bool
    wall: float = 0.0
    op_walls: list = field(default_factory=list)  # one per operation
    cpu: float = 0.0
    rss_kb: int = 0
    problems: list = field(default_factory=list)  # one list per operation
    dumps: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(bool(p) for p in self.problems)


def child_env(work: Path) -> dict:
    env = {"PATH": os.environ.get("PATH", os.defpath), "HOME": str(work), "TMPDIR": str(work),
           "PYTHONPATH": str(ROOT / "src")}
    env.update(PINNED_ENV)
    return env


def import_seconds(launcher, env, work: Path) -> float:
    """Wall time of `import fraclab.cli` in a fresh interpreter."""
    out, err = work / "import.out", work / "import.err"
    code, *_ = launcher.spawn([sys.executable, "-c", IMPORT_PROBE], env, work, out, err, OP_TIMEOUT_S)
    if code != 0:
        raise BenchmarkError(f"import fraclab.cli failed:\n{err.read_text()[-2000:]}")
    return float(out.read_text())


def yardstick_seconds(launcher, env, work: Path) -> float:
    """Wall time of yardstick.py in a fresh interpreter."""
    out, err = work / "yardstick.out", work / "yardstick.err"
    code, wall, *_ = launcher.spawn([sys.executable, str(HERE / "yardstick.py")], env, work, out, err,
                                    OP_TIMEOUT_S)
    if code != 0:
        raise BenchmarkError(f"yardstick.py failed:\n{err.read_text()[-2000:]}")
    return wall


def run_iteration(launcher, plan, reference, env, out: Path, traced: bool, index: int, yard=None) -> Iteration:
    """Run the plan's operations once; with a yard list, time yardstick.py
    before each operation and append its times to it."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    logs = out.parent / "logs"
    shutil.rmtree(logs, ignore_errors=True)
    logs.mkdir()
    it = Iteration(traced)
    codes = []
    for i, op in enumerate(plan.ops):
        if yard is not None:
            yard.append(yardstick_seconds(launcher, env, out.parent))
        if traced:
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(logs / f"{i}.spans.json"),
                    f"{plan.workload}.{index}.{op.name}", *op.argv]
        else:
            argv = [sys.executable, "-c", CLI, *op.argv]
        code, wall, cpu, rss = launcher.spawn(argv, env, out, logs / f"{i}.out", logs / f"{i}.err", OP_TIMEOUT_S)
        codes.append(code)
        it.wall += wall
        it.op_walls.append(wall)
        it.cpu += cpu
        it.rss_kb = max(it.rss_kb, rss)
    for i, (op, code) in enumerate(zip(plan.ops, codes)):
        problems = workloads.check(op, code, (logs / f"{i}.out").read_text(), reference[op.name])
        if problems:
            tail = (logs / f"{i}.err").read_text()[-1000:]
            print(f"FAILED {plan.workload} {op.name}: {problems[:5]}\n{tail}", file=sys.stderr)
        it.problems.append(problems)
        if traced:
            spans = logs / f"{i}.spans.json"
            if spans.exists():
                it.dumps.append(json.loads(spans.read_text()))
    return it


def measure(launcher, plan, reference, env, work: Path, seconds: float, trace: bool):
    """Repeat iterations for `seconds`; returns (iterations, import times,
    yardstick times).

    With trace, iterations alternate untraced/traced.  Without, import
    probes are spread evenly over the run, SETUP_REPEATS of them, so that
    some fall outside the machine's slow phases.
    """
    iterations, setup, yard = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if not trace and len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(import_seconds(launcher, env, work))
        traced = trace and len(iterations) % 2 == 1
        iterations.append(run_iteration(launcher, plan, reference, env, work / "run" / "out", traced,
                                        len(iterations), None if trace else yard))
        elapsed = time.perf_counter() - start
        # stop before an iteration that would likely end past the deadline
        enough = len(iterations) >= (2 * MIN_TRACED_PAIRS if trace else MIN_ITERATIONS)
        if enough and elapsed * (len(iterations) + 1) / len(iterations) > seconds:
            break
    while not trace and len(setup) < SETUP_REPEATS:
        setup.append(import_seconds(launcher, env, work))
    return iterations, setup, yard


def tally(iterations) -> tuple:
    """(operations attempted, operations that failed their exit code or check)."""
    return sum(len(it.problems) for it in iterations), sum(it.failed for it in iterations)


def best_of(iterations, keep=None) -> float:
    """Sum over the operations (or those whose index is in keep) of each
    one's fastest wall time in the run.

    The host this benchmark was defined on runs 1.0-2.0x slower in phases
    of seconds to minutes; the slowdown comes from the machine, not the
    program (a plain timing loop slows as much, in CPU time as in wall
    time), and it only ever adds time.  A median over the few iterations
    of a run follows the share of the run that fell in slow phases; the
    fastest time of each operation follows the program.
    """
    per_op = zip(*(it.op_walls for it in iterations))
    return sum(min(walls) for i, walls in enumerate(per_op) if keep is None or i in keep)


def scaled(seconds: float, yardstick: list) -> float:
    """seconds at the machine speed at which yardstick.py takes YARDSTICK_REF_S.

    Slow phases of the host that outlast a run move the fastest times of
    the program and of the yardstick, timed between the program's calls,
    together; their ratio stays.  A change to fraclab cannot move the
    yardstick.
    """
    return seconds * YARDSTICK_REF_S / min(yardstick)


def tail_percentile(samples) -> tuple | None:
    """Highest whole percentile above the median with ten samples beyond it."""
    n = len(samples)
    pct = int(100 * (n - 10) / n) if n > 10 else 0
    if pct <= 50:
        return None
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def run_workload(launcher, name: str, seed: int, seconds: float, trace: bool, references: dict) -> dict:
    work = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.plan(name, seed, work / "inputs", work / "run" / "out")
        reference = workloads.reference_for(references, plan)
        env = child_env(work)
        import_seconds(launcher, env, work)  # compiles bytecode and warms the page cache
        iterations, setup, yard = measure(launcher, plan, reference, env, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is using it
            pass

    attempted, failed = tally(iterations)
    plain = [it for it in iterations if not it.traced]
    walls = [it.wall for it in plain]
    report = {"workload": name, "seed": seed, "variant": plan.variant, "trace": trace,
              "attempted": attempted, "failed": failed, "iterations": len(plain)}
    if not trace:
        report["metrics"] = {
            "setup_s": scaled(min(setup), yard),
            "run_s": scaled(best_of(plain), yard),
            "peak_rss_mb": statistics.median(it.rss_kb * 1024 / 1e6 for it in plain),
            "ok_ratio": 1.0 - failed / attempted,
        }
        report["counts"] = {"setup_s": len(setup), "run_s": len(walls), "peak_rss_mb": len(plain),
                             "ok_ratio": attempted}
        report["raw"] = {"setup_s": min(setup), "run_s": best_of(plain), "yardstick_s": min(yard)}
        report["run_s_median"] = statistics.median(walls)
        report["run_s_parts"] = {
            part: best_of(plain, {i for i, op in enumerate(plan.ops) if op.part == part})
            for part in plan.inputs_sha256
        }
        report["run_s_tail"] = tail_percentile(walls)
        report["run_s_samples"] = walls
        report["yardstick_s_samples"] = yard
        report["setup_s_samples"] = setup
        return report
    traced = [it for it in iterations if it.traced]
    per_iteration = [tracer.layer_metrics(it.dumps) for it in traced]
    metrics = {key: statistics.median(m[key] for m in per_iteration) for key in per_iteration[0]}
    metrics["process.cpu_per_wall"] = statistics.median(it.cpu / it.wall for it in plain)
    metrics["trace.overhead_ratio"] = best_of(traced) / best_of(plain) - 1.0
    report["metrics"] = {key: metrics[key] for key in tracer.LAYER_METRICS}
    report["counts"] = {key: len(traced) for key in tracer.LAYER_METRICS}
    report["counts"]["process.cpu_per_wall"] = len(plain)
    report["missing_seams"] = sorted({m for it in traced for d in it.dumps for m in d["missing"]})
    return report


def machine_record() -> dict:
    """nproc, cache sizes from lscpu and interpreter/library versions."""
    import numpy
    from importlib.metadata import PackageNotFoundError, version

    caches = {}
    lscpu = shutil.which("lscpu")
    if lscpu:
        text = subprocess.run([lscpu], capture_output=True, text=True, env={"LC_ALL": "C"}).stdout
        for line in text.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key:
                caches[key.strip()] = value.strip()
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "caches": caches, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version}


def print_report(report: dict):
    units = END_TO_END if not report["trace"] else tracer.LAYER_METRICS
    print(f"# {report['workload']}  seed {report['seed']} (variant {report['variant']})  "
          f"trace {int(report['trace'])}  iterations {report['iterations']}")
    for key, value in report["metrics"].items():
        print(f"{key:<44} {value:>14.6g} {units[key]:<6} n={report['counts'][key]}")
    for part, value in report.get("run_s_parts", {}).items():
        print(f"{f'run_s of part {part}':<44} {value:>14.6g} s")
    if "run_s_median" in report:
        print(f"{'run_s median of iterations':<44} {report['run_s_median']:>14.6g} s")
    if report.get("run_s_tail"):
        pct, value = report["run_s_tail"]
        print(f"{f'run_s p{pct} of iterations':<44} {value:>14.6g} s")
    for key, value in report.get("raw", {}).items():
        print(f"{f'{key} unscaled':<44} {value:>14.6g} s")
    for key in ("run_s", "yardstick_s", "setup_s"):
        if f"{key}_samples" in report:
            print(f"# {key} samples: " + " ".join(f"{x:.4f}" for x in report[f"{key}_samples"]))
    if not report["trace"]:
        print(f"{'failed_ratio':<44} {report['failed'] / report['attempted']:>14.6g} ratio  "
              f"{report['failed']} of {report['attempted']} operations")
    if report.get("missing_seams"):
        print(f"# seams not found, their layers read 0: {report['missing_seams']}")


def main(argv, launcher) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description="The fraclab benchmark.")
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fraclab" / "cli.py").is_file():
        print(f"error: no fraclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = workloads.load_references(HERE / "references.json")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    print("# machine " + json.dumps(machine_record(), sort_keys=True))
    try:
        reports = [run_workload(launcher, n, args.seed, args.seconds, bool(args.trace), references) for n in names]
    except (BenchmarkError, workloads.InputsDrifted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print_report(report)

    units = tracer.LAYER_METRICS if args.trace else END_TO_END
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        for key, value in report["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


"""Regenerate references.json: what the CLI prints for every input variant.

    python3 perfbench/make_references.py [PART ...]

References are kept per part (workloads.PARTS).  With part names, only
their entries are taken again.

Run it only at a commit whose outputs are known to be right; the benchmark
judges every later commit against the numbers it writes.
"""

import json
import shutil
import sys

from launcher import Launcher

import bench
import workloads


def main() -> int:
    path = bench.HERE / "references.json"
    names = sys.argv[1:] or workloads.PARTS
    references = workloads.load_references(path) if sys.argv[1:] else {}
    work = bench.WORK / "references"
    try:
        with Launcher() as launcher:
            for name in names:
                references[name] = _variants(launcher, name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _variants(launcher, name, work) -> dict:
    out = {}
    for variant in range(workloads.VARIANTS):
        shutil.rmtree(work, ignore_errors=True)
        plan = workloads.plan(name, variant, work / "inputs", work / "out")
        env = bench.child_env(work)
        ops = {}
        for op in plan.ops:
            argv = [sys.executable, "-c", bench.CLI, *op.argv]
            code, wall, _, _ = launcher.spawn(argv, env, work / "out", work / "stdout", work / "stderr",
                                              bench.OP_TIMEOUT_S)
            if code != 0:
                raise SystemExit(f"{name} {variant} {op.name}: exit {code}\n{(work / 'stderr').read_text()}")
            observed = op.observe((work / "stdout").read_text())
            problems = op.verify(json.loads(json.dumps(observed)), observed)
            if problems:
                raise SystemExit(f"{name} {variant} {op.name}: {problems}")
            ops[op.name] = observed
            print(f"{name} variant {variant} {op.name}: {wall:.2f} s", file=sys.stderr)
        out[str(variant)] = {"inputs_sha256": plan.inputs_sha256[name], "ops": ops}
    return out


if __name__ == "__main__":
    sys.exit(main())

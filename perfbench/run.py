"""The fraclab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fraclab is imported from ./src.
NAME is evolve-hardy, classify-cli or `all`.  A workload runs the CLI calls
of its parts (workloads.WORKLOADS): evolve-hardy those of evolve-3d and
hardy-1d, classify-cli those of classify-1d and cli-short.

Each workload writes its inputs from the seed (see workloads.py) into
.perfbench_work/ and runs fraclab's CLI entry point, fraclab.cli.main, in
a fresh interpreter per call, one child at a time, with the pinned
environment of bench.PINNED_ENV.  For about S seconds it repeats one
iteration, the workload's CLI calls, and checks every call's output
against references.json (see workloads.py).

--trace 0 reports the end-to-end metrics, with tracing off.  The two
timings are scaled to a fixed machine speed (bench.scaled): before every
CLI call the benchmark also times yardstick.py, a fixed piece of numpy
work that does not use fraclab, and multiplies a timing by
bench.YARDSTICK_REF_S over the yardstick's fastest time in the run.
  setup_s      fastest wall time of `import fraclab.cli` in a fresh
               interpreter, over bench.SETUP_REPEATS interpreters spread
               over the run; scaled
  run_s        wall time from spawning each of an iteration's CLI
               processes to its exit, summed over them; includes set-up.
               Each process counts with its fastest time over the run's
               iterations (bench.best_of); scaled.  The unscaled figures,
               the median over iterations and, with enough iterations, a
               tail percentile are printed too.
  peak_rss_mb  median over iterations of the largest ru_maxrss of the
               iteration's processes
  ok_ratio     operations that exited 0 and passed their output check,
               divided by operations attempted (1 - failed_ratio)

--trace 1 alternates untraced iterations with iterations run under
trace_cli.py and reports the per-layer metrics of tracer.LAYER_METRICS:
medians over the traced iterations, process.cpu_per_wall from the
untraced ones, and trace.overhead_ratio = traced run_s / untraced run_s - 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import sys

from launcher import Launcher


def main() -> int:
    # the launcher starts while this process is small: children inherit its
    # RSS high-water mark, and numpy is imported only after it is running
    with Launcher() as launcher:
        import bench

        return bench.main(sys.argv[1:], launcher)


if __name__ == "__main__":
    sys.exit(main())

"""Run the fraclab CLI under the span tracer.

    python3 perfbench/trace_cli.py DUMP.json RUN-ID CLI-ARGS...

Times `import fraclab.cli`, wraps the seams listed in tracer.SEAMS, runs
fraclab.cli.main(CLI-ARGS), restores every seam and writes the spans, all
of which belong to RUN-ID, and the import and grid-cache counters to
DUMP.json.  Exits with the CLI's code.
"""

import sys
import time


def main() -> int:
    dump_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    loaded = len(sys.modules)
    t0 = time.perf_counter()
    import fraclab.cli

    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - loaded
    scipy_interpolate = "scipy.interpolate" in sys.modules

    import json

    import tracer

    spans = tracer.Tracer()
    spans.install()
    try:
        return fraclab.cli.main(argv)
    finally:
        spans.uninstall()
        dump = {
            "run_id": run_id,
            "import_s": import_s,
            "import_modules": modules,
            "scipy_interpolate_loaded": int(scipy_interpolate),
            "grid_cache_bytes": tracer.grid_cache_bytes(),
            "missing": spans.missing,
            "spans": spans.spans,
        }
        with open(dump_path, "w") as fh:
            json.dump(dump, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())

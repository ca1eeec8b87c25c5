"""Span tracing of fraclab from outside the program.

install() replaces the public functions and module-level seams listed in
SEAMS with wrappers that record a span per call: (id, layer, start, end,
parent id, attributes).  A traced process runs one CLI call, so its spans
share one run id, which trace_cli.py writes once beside them.  Every fraclab namespace that holds the original
object gets the wrapper, and uninstall() puts each original back.  Spans
stay in memory until the traced process dumps them at exit.

A span opened on a pool thread with no open span of its own takes the
innermost open span of the main thread as its parent: classify's pool
threads run while the main thread waits inside run_sweep.

layer_metrics() turns the dumps of one traced iteration into the
per-layer metrics.  Self time is a span's duration minus the part of it
that its child spans cover.  Bytes are computed from the sizes of the
arrays a call takes and returns, so gbps_computed is not a measured
bandwidth.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict


def _bytes_in_out(args, kwargs, result, _pre):
    out = 0 if result is None else result.nbytes
    return {"bytes": args[0].nbytes + out}


def _field_bytes_in_out(args, kwargs, result, _pre):
    return {"bytes": args[0].values.nbytes + result.values.nbytes}


def _snapshot_bytes(args, kwargs, result, _pre):
    held = result.snapshots or ()
    return {"snapshot_bytes": sum(f.values.nbytes for f in held)}


def _file_bytes(args, kwargs, result, _pre):
    return {"bytes": os.path.getsize(args[1])}


def _bracket(args, kwargs, result, _pre):
    return {"lo": args[1], "hi": args[2]}


def _sweep_workers(args, kwargs, result, _pre):
    from fraclab.analysis import thread_count

    threads = args[1] if len(args) > 1 else kwargs.get("threads")
    return {"workers": min(thread_count(threads), max(len(result), 1))}


def _observation(args, kwargs, result, _pre):
    log, lam, kind = args
    return {"lam": lam, "kind": kind, "write": log.path is not None}


def _radii(args, kwargs, result, _pre):
    return {"radii": len(result.radii)}


def _cache_lookup(args, kwargs):
    grid, name = args[0], args[1]
    slot = sys.modules["fraclab.field"]._GRID_CACHE.get((grid.d, grid.n, grid.half_length), {})
    return slot.get(name) is None


def _cache_build(args, kwargs, result, missed):
    return {"build": missed}


# (layer, module, attribute or Class.method, attributes hook, pre-call hook)
SEAMS = (
    ("nonlinear_solver.diffuse", "fraclab.nonlinear_solver", "_diffuse", _bytes_in_out, None),
    ("nonlinear_solver.reaction", "fraclab.nonlinear_solver", "_reaction", _bytes_in_out, None),
    ("nonlinear_solver.evolve", "fraclab.nonlinear_solver", "evolve", _snapshot_bytes, None),
    ("linear_propagators.hardy_step", "fraclab.linear_propagators", "hardy_step", _field_bytes_in_out, None),
    ("linear_propagators.hardy_evolve", "fraclab.linear_propagators", "hardy_evolve", None, None),
    ("field.Field", "fraclab.field", "Field.__post_init__", None, None),
    ("field.weighted_norm", "fraclab.field", "weighted_norm", None, None),
    ("field.grid_cache", "fraclab.field", "_cached", _cache_build, _cache_lookup),
    ("field.write_snapshot", "fraclab.field", "write_snapshot", _file_bytes, None),
    ("field.read_snapshot", "fraclab.field", "read_snapshot", None, None),
    ("analysis.classify", "fraclab.analysis", "classify_threshold", _bracket, None),
    ("analysis.run_sweep", "fraclab.analysis", "run_sweep", _sweep_workers, None),
    ("analysis.observation_log", "fraclab.analysis", "_ObservationLog.record", _observation, None),
    ("morrey.morrey_estimate", "fraclab.morrey", "morrey_estimate", _radii, None),
    ("radial_operator.frac_lap_radial", "fraclab.radial_operator", "frac_lap_radial", None, None),
    ("radial_operator.profile_eval", "fraclab.radial_operator", "RadialProfile.__call__", None, None),
    ("config.parse_config", "fraclab.config", "parse_config", None, None),
    ("config.initial_field", "fraclab.config", "ExperimentConfig.initial_field", None, None),
    ("config.config_hash", "fraclab.config", "ExperimentConfig.config_hash", None, None),
    ("cli.emit", "fraclab.cli", "_emit", None, None),
    ("cli.emit", "fraclab.cli", "_print_result", None, None),
)

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "nonlinear_solver.diffuse.calls": "count",
    "nonlinear_solver.diffuse.busy_s": "s",
    "nonlinear_solver.diffuse.gbps_computed": "GB/s",
    "nonlinear_solver.reaction.calls": "count",
    "nonlinear_solver.reaction.busy_s": "s",
    "nonlinear_solver.reaction.gbps_computed": "GB/s",
    "nonlinear_solver.evolve.calls": "count",
    "nonlinear_solver.evolve.busy_s": "s",
    "nonlinear_solver.evolve.self_s": "s",
    "nonlinear_solver.snapshots.bytes_held": "bytes",
    "linear_propagators.hardy_step.calls": "count",
    "linear_propagators.hardy_step.busy_s": "s",
    "linear_propagators.hardy_step.self_s": "s",
    "linear_propagators.hardy_step.gbps_computed": "GB/s",
    "linear_propagators.hardy_evolve.self_s": "s",
    "field.Field.calls": "count",
    "field.Field.busy_s": "s",
    "field.weighted_norm.calls": "count",
    "field.weighted_norm.busy_s": "s",
    "field.grid_cache.builds": "count",
    "field.grid_cache.hit_ratio": "ratio",
    "field.grid_cache.bytes": "bytes",
    "field.write_snapshot.calls": "count",
    "field.write_snapshot.bytes": "bytes",
    "field.write_snapshot.busy_s": "s",
    "field.read_snapshot.busy_s": "s",
    "analysis.classify.probes": "count",
    "analysis.classify.useful_ratio": "ratio",
    "analysis.run_sweep.calls": "count",
    "analysis.run_sweep.busy_s": "s",
    "analysis.run_sweep.worker_busy_ratio": "ratio",
    "analysis.observation_log.writes": "count",
    "analysis.observation_log.busy_s": "s",
    "morrey.morrey_estimate.calls": "count",
    "morrey.morrey_estimate.busy_s": "s",
    "morrey.morrey_estimate.radii": "count",
    "radial_operator.frac_lap_radial.calls": "count",
    "radial_operator.frac_lap_radial.busy_s": "s",
    "radial_operator.profile_eval.calls": "count",
    "radial_operator.profile_eval.busy_s": "s",
    "config.parse_config.busy_s": "s",
    "config.initial_field.busy_s": "s",
    "config.config_hash.calls": "count",
    "cli.import.busy_s": "s",
    "cli.import.modules": "count",
    "cli.import.scipy_interpolate_loaded": "count",
    "cli.emit.busy_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_ratio": "ratio",
}

# layers whose spans give calls / busy_s / self_s directly
_SPAN_SUMS = {
    "nonlinear_solver.diffuse": ("calls", "busy_s"),
    "nonlinear_solver.reaction": ("calls", "busy_s"),
    "nonlinear_solver.evolve": ("calls", "busy_s", "self_s"),
    "linear_propagators.hardy_step": ("calls", "busy_s", "self_s"),
    "linear_propagators.hardy_evolve": ("self_s",),
    "field.Field": ("calls", "busy_s"),
    "field.weighted_norm": ("calls", "busy_s"),
    "field.write_snapshot": ("calls", "busy_s"),
    "field.read_snapshot": ("busy_s",),
    "analysis.run_sweep": ("calls", "busy_s"),
    "analysis.observation_log": ("busy_s",),
    "morrey.morrey_estimate": ("calls", "busy_s"),
    "radial_operator.frac_lap_radial": ("calls", "busy_s"),
    "radial_operator.profile_eval": ("calls", "busy_s"),
    "config.parse_config": ("busy_s",),
    "config.initial_field": ("busy_s",),
    "config.config_hash": ("calls",),
    "cli.emit": ("busy_s",),
}


class Tracer:
    """Wraps fraclab's seams and records one span per wrapped call."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._main_stack = []
        self._main_ident = threading.main_thread().ident
        self._local = threading.local()
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, layer, fn, attrs, pre):
        spans, ids, main_stack, local = self.spans, self._ids, self._main_stack, self._local
        main_ident, get_ident, clock = self._main_ident, threading.get_ident, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() == main_ident:
                stack = main_stack
            else:
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(ids)
            state = pre(args, kwargs) if pre is not None else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, layer, t0, clock(), parent, None))
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            extra = attrs(args, kwargs, result, state) if attrs is not None else None
            spans.append((sid, layer, t0, t1, parent, extra))
            return result

        return traced

    def install(self):
        """Wrap every seam in every loaded fraclab namespace."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "fraclab" or name.startswith("fraclab."))]
        for layer, module_name, attribute, attrs, pre in SEAMS:
            owner_name, _, key = attribute.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(key) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            wrapper = self._wrap(layer, original, attrs, pre)
            if owner_name:  # a method: patch it on its class only
                self._patch(owner, key, wrapper)
                continue
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, name, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self):
        """Put every original object back where install() found it."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)


def _covered(span, children) -> float:
    """Length of the union of the children's intervals inside span."""
    lo, hi = span[2], span[3]
    pieces = sorted((max(c[2], lo), min(c[3], hi)) for c in children)
    total, end = 0.0, lo
    for a, b in pieces:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(dumps: list) -> dict:
    """Per-layer metrics of one traced iteration from its processes' dumps."""
    out = {name: 0.0 for name in LAYER_METRICS if not name.startswith(("process.", "trace."))}
    byte_sums = defaultdict(float)
    sweep_busy = sweep_capacity = 0.0
    cache_calls = cache_builds = 0
    useful = 0
    for dump in dumps:
        out["cli.import.busy_s"] += dump["import_s"]
        out["cli.import.modules"] = max(out["cli.import.modules"], dump["import_modules"])
        out["cli.import.scipy_interpolate_loaded"] = max(
            out["cli.import.scipy_interpolate_loaded"], dump["scipy_interpolate_loaded"])
        out["field.grid_cache.bytes"] += dump["grid_cache_bytes"]
        spans = dump["spans"]
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s[4]].append(s)

        def under(span, layer):
            parent = by_id.get(span[4])
            while parent is not None:
                if parent[1] == layer:
                    return True
                parent = by_id.get(parent[4])
            return False

        for s in spans:
            layer, dur, extra = s[1], s[3] - s[2], s[5] or {}
            fields = _SPAN_SUMS.get(layer, ())
            if "calls" in fields:
                out[f"{layer}.calls"] += 1
            if "busy_s" in fields:
                out[f"{layer}.busy_s"] += dur
            if "self_s" in fields:
                out[f"{layer}.self_s"] += dur - _covered(s, children[s[0]])
            byte_sums[layer] += extra.get("bytes", 0)
            if layer == "nonlinear_solver.evolve":
                out["nonlinear_solver.snapshots.bytes_held"] = max(
                    out["nonlinear_solver.snapshots.bytes_held"], extra.get("snapshot_bytes", 0))
                if under(s, "analysis.classify"):
                    out["analysis.classify.probes"] += 1
            elif layer == "field.grid_cache":
                cache_calls += 1
                cache_builds += bool(extra.get("build"))
            elif layer == "analysis.observation_log":
                out["analysis.observation_log.writes"] += bool(extra.get("write"))
            elif layer == "morrey.morrey_estimate":
                out["morrey.morrey_estimate.radii"] += extra.get("radii", 0)
            elif layer == "analysis.run_sweep":
                sweep_capacity += extra.get("workers", 1) * dur
                sweep_busy += sum(c[3] - c[2] for c in children[s[0]] if c[1] == "nonlinear_solver.evolve")
            elif layer == "analysis.classify":
                useful += _useful_probes(s, children[s[0]], children)
    out["field.write_snapshot.bytes"] = byte_sums["field.write_snapshot"]
    for layer in ("nonlinear_solver.diffuse", "nonlinear_solver.reaction", "linear_propagators.hardy_step"):
        busy = out[f"{layer}.busy_s"]
        out[f"{layer}.gbps_computed"] = byte_sums[layer] / busy / 1e9 if busy > 0 else 0.0
    out["field.grid_cache.builds"] = cache_builds
    out["field.grid_cache.hit_ratio"] = (cache_calls - cache_builds) / cache_calls if cache_calls else 0.0
    probes = out["analysis.classify.probes"]
    out["analysis.classify.useful_ratio"] = useful / probes if probes else 0.0
    out["analysis.run_sweep.worker_busy_ratio"] = sweep_busy / sweep_capacity if sweep_capacity else 0.0
    return out


def _useful_probes(classify_span, direct_children, children) -> int:
    """Observations that moved an end of the bracket, replayed in order."""
    lo, hi = classify_span[5]["lo"], classify_span[5]["hi"]
    records = []
    stack = list(direct_children)
    while stack:
        s = stack.pop()
        if s[1] == "analysis.observation_log" and s[5]:
            records.append(s)
        stack.extend(children[s[0]])
    useful = 0
    for s in sorted(records, key=lambda s: s[3]):
        lam, kind = s[5]["lam"], s[5]["kind"]
        if lo < lam < hi:
            useful += 1
            if kind == "Global":
                lo = lam
            else:
                hi = lam
    return useful


def grid_cache_bytes() -> int:
    """Bytes of the arrays fraclab's per-grid cache holds right now."""
    from fraclab import field

    cache = getattr(field, "_GRID_CACHE", {})
    return sum(v.nbytes for slot in cache.values() for v in slot.values() if hasattr(v, "nbytes"))


"""Layer tracer: wraps the program's public functions from outside.

Each layer is a forestskein module.  The tracer replaces the listed
functions on the defining module and on every other forestskein module that
bound the same object with ``from .x import name``, so calls made through
either name are seen.  A wrapper opens a span on entry and closes it on
exit; a span's self time is its duration minus the time its child spans
cover.  Calls are aggregated per function; spans of the non-forest layers
are also kept one by one (up to a cap) with their parent span, so a slow
operation can be followed down the layers.  Nothing is written until
``report`` is called at the end of the run.

A listed name that a later version of the program no longer has is
reported under ``absent`` and its metrics read zero; it is never an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer -> module, and the functions wrapped in it.  Private names are
# marked with a leading underscore; they carry counters that the public
# surface cannot show (one reversal run each).
LAYERS = {
    "forest": ("forestskein.forest", [
        "leaf_count", "caret_count", "forest_leaf_count", "forest_caret_count",
        "compose", "tensor", "elementary", "divide",
        "tree_from_word", "word_from_tree", "forest_from_word", "word_from_forest",
        "find_occurrences", "rewrite_at",
        "tree_key", "forest_key", "trees_with_carets", "forests_with_carets",
    ]),
    "oracle": ("forestskein.oracle", [
        "saturate", "equivalent", "class_leq", "refute_left_cancellative",
        "check_ore_bounded", "mcm_bounded",
    ]),
    "reversing": ("forestskein.reversing", [
        "reverse", "_reverse_det", "_reverse_branching", "reverses_to_empty",
        "complement", "left_divides", "words_equal", "scc_at",
        "complemented_cube_word", "is_complete", "decide_left_cancellative",
        "ore_via_closed_family",
    ]),
    "fractions": ("forestskein.fractions", [
        "uses_reversing", "trees_equivalent", "common_multiple_witness",
        "multiply", "equals", "is_identity", "normal_form",
        "generator_element", "word_to_element",
    ]),
    "ordered_action": ("forestskein.ordered_action", [
        "raw_points_equal", "normalize_point", "grow_point", "point", "compare",
        "perm_multiply", "act", "flavour_check", "co_represent",
        "transitivity_witness", "stabilizer_generators", "make_fixer", "sample_fixer",
    ]),
    "ore_spine": ("forestskein.ore_spine", [
        "cofinal_search", "spine", "spine_classes_deduped",
        "f_infinity_certificate", "build_f_tau",
    ]),
    "group_presentation": ("forestskein.group_presentation", [
        "infinite_presentation", "finite_presentation", "abelianization",
        "evaluate_relator", "check_cgp", "check_cgp_any", "good_generator_list",
        "render_text", "render_cas",
    ]),
    "snf": ("forestskein.snf", ["smith_normal_form", "cokernel_invariants"]),
    "cli": ("forestskein.cli", [
        "load_presentation", "emit", "apply_expectations",
    ]),
}

# Sub-groups of the forest layer reported on their own.
FOREST_GROUPS = {
    "codec": {"tree_from_word", "word_from_tree", "forest_from_word", "word_from_forest"},
    "rewrite": {"find_occurrences", "rewrite_at", "divide"},
    "keys": {"tree_key", "forest_key"},
}

# Per-layer metrics the traced run reports, with their units.  The benchmark
# description (BENCHMARK.json) lists the same names.
PER_LAYER_UNITS = {
    "reversing.reversals": "count",
    "reversing.self_s": "s",
    "reversing.us_per_call": "us",
    "reversing.branching_self_s": "s",
    "reversing.unknown": "count",
    "reversing.is_complete.calls": "count",
    "reversing.decide_lc.calls": "count",
    "reversing.decide_lc.repeat": "ratio",
    "oracle.saturate.calls": "count",
    "oracle.strata": "count",
    "oracle.forests": "count",
    "oracle.hit_ratio": "ratio",
    "oracle.saturate.self_s": "s",
    "oracle.over_budget": "count",
    "oracle.class_leq.calls": "count",
    "oracle.self_s": "s",
    "forest.calls": "count",
    "forest.self_s": "s",
    "forest.codec.self_s": "s",
    "forest.rewrite.self_s": "s",
    "forest.keys.self_s": "s",
    "fractions.witness.calls": "count",
    "fractions.witness.oracle_route": "count",
    "fractions.normal_form.calls": "count",
    "fractions.self_s": "s",
    "fractions.unresolved": "count",
    "ordered_action.normalize.calls": "count",
    "ordered_action.scan_checks": "count",
    "ordered_action.scan_per_normalize": "ratio",
    "ordered_action.self_s": "s",
    "ore_spine.calls": "count",
    "ore_spine.self_s": "s",
    "group_presentation.self_s": "s",
    "snf.calls": "count",
    "snf.cells": "count",
    "snf.self_s": "s",
    "cli.commands": "count",
    "cli.self_s": "s",
    "trace.overhead_est": "ratio",
}

SPAN_CAP = 200_000


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict = defaultdict(_Stat)       # (layer, name) -> _Stat
        self.absent: list = []
        self.spans: list = []                       # (id, parent, layer.name, start, end)
        self.spans_dropped = 0
        self.counters: dict = defaultdict(int)
        self.strata: dict = {}                      # (presentation, roots, carets) -> forests
        self.lc_presentations: set = set()
        self.recording = False
        self._stack: list = []                      # [span id, layer, child time, saturate calls at entry]
        self._next_id = 1
        self._op = 0
        self._sat_count = 0                         # saturate calls so far
        self._t_on = 0.0
        self.window = 0.0

    # -- installation -----------------------------------------------------

    def install(self):
        loaded = {}
        for layer, (modname, _) in LAYERS.items():
            try:
                loaded[layer] = importlib.import_module(modname)
            except ImportError:
                pass
        modules = _forestskein_modules()
        for layer, (modname, names) in LAYERS.items():
            mod = loaded.get(layer)
            if mod is None:
                self.absent.extend(f"{layer}.{n}" for n in names)
                continue
            for name in names:
                orig = getattr(mod, name, None)
                if not callable(orig):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapped = self._wrap(layer, name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
        self._wrap_cli_commands()

    def _wrap_cli_commands(self):
        try:
            cli = importlib.import_module("forestskein.cli")
            reports = importlib.import_module("forestskein.reports")
        except ImportError:
            self.absent.append("cli.main")
            return
        group = getattr(cli, "main", None)
        todo = [group] if group is not None else []
        while todo:
            g = todo.pop()
            for name, cmd in getattr(g, "commands", {}).items():
                if getattr(cmd, "commands", None):
                    todo.append(cmd)        # a group: count its leaf commands
                elif cmd.callback is not None:
                    cmd.callback = self._wrap("cli", f"command.{name}", cmd.callback)
        run_report = getattr(reports, "RunReport", None)
        for meth in ("to_json", "dumps"):
            orig = getattr(run_report, meth, None) if run_report else None
            if orig is None:
                self.absent.append(f"cli.RunReport.{meth}")
                continue
            setattr(run_report, meth, self._wrap("cli", f"RunReport.{meth}", orig))

    # -- recording --------------------------------------------------------

    def start(self):
        """Begin the traced window: counts and spans before it are dropped."""
        self.stats.clear()
        self.counters.clear()
        self.spans.clear()
        self.spans_dropped = 0
        self.lc_presentations.clear()
        self.recording = True
        self._t_on = self.clock()

    def stop(self):
        self.window = self.clock() - self._t_on
        self.recording = False

    def op(self, index: int):
        """Mark the benchmark operation that the following root spans serve."""
        self._op = index

    def _wrap(self, layer, name, fn):
        tracer = self
        key = (layer, name)
        stack = self._stack
        clock = self.clock
        keep_spans = layer != "forest"
        hook = _HOOKS.get(key)
        is_generator = name == "forests_with_carets"
        is_saturate = key == ("oracle", "saturate")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_generator:
                # a generator's work happens while the caller iterates; only
                # the call is counted
                if tracer.recording:
                    tracer.stats[key].calls += 1
                return fn(*args, **kwargs)
            entry = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            if is_saturate:
                tracer._sat_count += 1
            stack.append([sid, layer, 0.0, tracer._sat_count])
            t0 = clock()
            exc = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                frame = stack.pop()
                d = t1 - t0
                if entry is not None:
                    entry[2] += d
                if tracer.recording:
                    st = tracer.stats[key]
                    st.calls += 1
                    st.total += d
                    st.self_time += d - frame[2]
                    outer = entry is None or entry[1] != layer
                    if outer:
                        tracer.counters[f"{layer}.entries"] += 1
                    if keep_spans:
                        if len(tracer.spans) < SPAN_CAP:
                            parent = entry[0] if entry is not None else f"op{tracer._op}"
                            tracer.spans.append((sid, parent, f"{layer}.{name}", t0, t1))
                        else:
                            tracer.spans_dropped += 1
                    if hook is not None:
                        hook(tracer, args, result, exc, outer, frame)
                elif hook is _saturate_hook and exc is None:
                    _remember_stratum(tracer, args, result)
        return wrapper

    # -- output -----------------------------------------------------------

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _), st in self.stats.items():
            out[layer] += st.self_time
        return out

    def _calls(self, layer, name) -> int:
        st = self.stats.get((layer, name))
        return st.calls if st else 0

    def _self(self, layer, names) -> float:
        return sum(st.self_time for (lay, n), st in self.stats.items()
                   if lay == layer and n in names)

    def metrics(self, overhead_est: float) -> dict:
        c = self.counters
        selfs = self.layer_self()
        reversals = self._calls("reversing", "_reverse_det") + \
            self._calls("reversing", "_reverse_branching")
        sat_calls = self._calls("oracle", "saturate")
        lc_calls = self._calls("reversing", "decide_left_cancellative")
        norm = self._calls("ordered_action", "normalize_point")
        scans = self._calls("ordered_action", "raw_points_equal")
        forest_calls = sum(st.calls for (lay, _), st in self.stats.items() if lay == "forest")
        values = {
            "reversing.reversals": reversals,
            "reversing.self_s": selfs["reversing"],
            "reversing.us_per_call": 1e6 * selfs["reversing"] / reversals if reversals else 0.0,
            "reversing.branching_self_s": self._self("reversing", {"_reverse_branching"}),
            "reversing.unknown": c["reversing.unknown"],
            "reversing.is_complete.calls": self._calls("reversing", "is_complete"),
            "reversing.decide_lc.calls": lc_calls,
            "reversing.decide_lc.repeat": (lc_calls / len(self.lc_presentations)
                                           if self.lc_presentations else 0.0),
            "oracle.saturate.calls": sat_calls,
            "oracle.strata": c["oracle.strata"],
            "oracle.forests": c["oracle.forests"],
            "oracle.hit_ratio": c["oracle.hits"] / sat_calls if sat_calls else 0.0,
            "oracle.saturate.self_s": self._self("oracle", {"saturate"}),
            "oracle.over_budget": c["oracle.over_budget"],
            "oracle.class_leq.calls": self._calls("oracle", "class_leq"),
            "oracle.self_s": selfs["oracle"],
            "forest.calls": forest_calls,
            "forest.self_s": selfs["forest"],
            "forest.codec.self_s": self._self("forest", FOREST_GROUPS["codec"]),
            "forest.rewrite.self_s": self._self("forest", FOREST_GROUPS["rewrite"]),
            "forest.keys.self_s": self._self("forest", FOREST_GROUPS["keys"]),
            "fractions.witness.calls": self._calls("fractions", "common_multiple_witness"),
            "fractions.witness.oracle_route": c["fractions.witness.oracle_route"],
            "fractions.normal_form.calls": self._calls("fractions", "normal_form"),
            "fractions.self_s": selfs["fractions"],
            "fractions.unresolved": c["fractions.unresolved"],
            "ordered_action.normalize.calls": norm,
            "ordered_action.scan_checks": scans,
            "ordered_action.scan_per_normalize": scans / norm if norm else 0.0,
            "ordered_action.self_s": selfs["ordered_action"],
            "ore_spine.calls": c["ore_spine.entries"],
            "ore_spine.self_s": selfs["ore_spine"],
            "group_presentation.self_s": selfs["group_presentation"],
            "snf.calls": self._calls("snf", "smith_normal_form"),
            "snf.cells": c["snf.cells"],
            "snf.self_s": selfs["snf"],
            "cli.commands": sum(st.calls for (lay, n), st in self.stats.items()
                                if lay == "cli" and n.startswith("command.")),
            "cli.self_s": selfs["cli"],
            "trace.overhead_est": overhead_est,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}

    def report(self, overhead_est: float) -> dict:
        selfs = self.layer_self()
        covered = sum(selfs.values())
        return {
            "window_s": self.window,
            "layer_self_s": selfs,
            "layer_share": {k: (v / covered if covered else 0.0) for k, v in selfs.items()},
            "outside_layers_s": max(self.window - covered, 0.0),
            "functions": {f"{lay}.{n}": {"calls": st.calls, "total_s": st.total,
                                         "self_s": st.self_time}
                          for (lay, n), st in sorted(self.stats.items())},
            "absent": sorted(set(self.absent)),
            "spans_kept": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "metrics": self.metrics(overhead_est),
        }

    def calibrate(self, calls: int = 20000) -> float:
        """Seconds one wrapped call adds, measured on a no-op function."""
        def noop(x):
            return x
        wrapped = self._wrap("forest", "__calibration__", noop)
        was = self.recording
        self.recording = True
        t0 = self.clock()
        for i in range(calls):
            noop(i)
        bare = self.clock() - t0
        t0 = self.clock()
        for i in range(calls):
            wrapped(i)
        traced = self.clock() - t0
        self.recording = was
        self.stats.pop(("forest", "__calibration__"), None)
        return max(traced - bare, 0.0) / calls

    def total_calls(self) -> int:
        return sum(st.calls for st in self.stats.values())


def _forestskein_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "forestskein" or name.startswith("forestskein."))]


# ---------------------------------------------------------------------------
# Hooks: counters read off a call's arguments, result or exception.

def _remember_stratum(tracer, args, result):
    key = _stratum_key(args)
    if key is not None and key not in tracer.strata:
        tracer.strata[key] = _table_size(result)


def _stratum_key(args):
    if len(args) < 3:
        return None
    return (args[0], args[1], args[2])


def _table_size(table) -> int:
    class_of = getattr(table, "class_of", None)
    return len(class_of) if class_of is not None else 0


def _saturate_hook(tracer, args, result, exc, outer, frame):
    if exc is not None:
        if type(exc).__name__ == "BudgetExceeded":
            tracer.counters["oracle.over_budget"] += 1
        return
    key = _stratum_key(args)
    if key is None:
        return
    if key in tracer.strata:
        tracer.counters["oracle.hits"] += 1
    else:
        size = _table_size(result)
        tracer.strata[key] = size
        tracer.counters["oracle.strata"] += 1
        tracer.counters["oracle.forests"] += size


def _unknown_hook(tracer, args, result, exc, outer, frame):
    verdict = getattr(result, "verdict", result)
    if outer and verdict == "unknown":
        tracer.counters["reversing.unknown"] += 1


def _decide_lc_hook(tracer, args, result, exc, outer, frame):
    if args:
        tracer.lc_presentations.add(args[0])
    _unknown_hook(tracer, args, result, exc, outer, frame)


def _unresolved_hook(tracer, args, result, exc, outer, frame):
    if exc is not None and type(exc).__name__ == "Unresolved":
        tracer.counters["fractions.unresolved"] += 1


def _witness_hook(tracer, args, result, exc, outer, frame):
    # the oracle route saturates strata; the reversing route never does
    if tracer._sat_count > frame[3]:
        tracer.counters["fractions.witness.oracle_route"] += 1
    _unresolved_hook(tracer, args, result, exc, outer, frame)


def _snf_hook(tracer, args, result, exc, outer, frame):
    matrix = args[0] if args else None
    if matrix:
        tracer.counters["snf.cells"] += len(matrix) * len(matrix[0])


_HOOKS = {
    ("oracle", "saturate"): _saturate_hook,
    ("reversing", "words_equal"): _unknown_hook,
    ("reversing", "left_divides"): _unknown_hook,
    ("reversing", "reverses_to_empty"): _unknown_hook,
    ("reversing", "scc_at"): _unknown_hook,
    ("reversing", "is_complete"): _unknown_hook,
    ("reversing", "decide_left_cancellative"): _decide_lc_hook,
    ("fractions", "common_multiple_witness"): _witness_hook,
    ("fractions", "trees_equivalent"): _unresolved_hook,
    ("snf", "smith_normal_form"): _snf_hook,
}

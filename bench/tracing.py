"""Spans and counters around the public functions of each shiftlab module.

The wrappers are installed from outside the package, in every ``shiftlab.*``
namespace that binds the name, so calls between modules are seen as well as
calls from the benchmark.  A class is traced through its ``__init__``, so a
span covers construction and validation.  Only these coarse names are
wrapped: per-symbol accessors such as ``SymbolicPoint.symbol_at`` or
``FiniteSystem.d`` run millions of times per job and are left alone.

Spans (name, start, end, parent, job id) are kept in memory.  Values for the
repeat-share counters are kept by reference during the run and keyed by
value only at the end, so that hashing them is not charged to any span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = {
    "shift_core": ("canonical_presentation", "determinize", "language_subset",
                   "language_equal", "word_in_language", "words_of_length",
                   "point_in_shift", "periodic_points"),
    "decomposition": ("chain_components", "entropy", "cyclic_structure",
                      "mixing_constant", "sync_length"),
    "codes": ("SlidingBlockCode", "code_image", "compose", "restrict", "apply_code"),
    "inverse_systems": ("InverseSequenceSpec", "composed_image", "image_chain",
                        "check_mlc", "hat_space", "restrict_to_cr",
                        "extract_mlc1_subsequence", "truncated_limit"),
    "towers": ("enumerate_towers", "select_max_tower", "verify_selection",
               "find_entropic_component", "truncated_fiber", "fiber_hausdorff_gap"),
    "chaos": ("find_r_distal_tuple", "build_scrambled_tuple", "density_report",
              "chain_proximal_join"),
    "shadow_lab": ("FiniteSystem", "truncate_shift", "brute_shadowing_check",
                   "build_layered_example", "layered_census",
                   "layered_fiber_shadowing"),
    "cli": ("main",),
}

SPAN_NAMES = ["job"] + ["%s.%s" % (m, f) for m, fs in LAYERS.items() for f in fs]

WORK_COUNTS = ("shift_core.canonical_presentation.out_states",
               "shadow_lab.brute_shadowing_check.states_explored",
               "shadow_lab.brute_shadowing_check.points",
               "chaos.build_scrambled_tuple.symbols")

REPEAT_SHARES = ("shift_core.canonical_presentation.repeat_share",
                 "codes.SlidingBlockCode.repeat_share",
                 "inverse_systems.composed_image.repeat_share",
                 "shadow_lab.brute_shadowing_check.repeat_share")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in SPAN_NAMES[1:]:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for module in LAYERS:
        units[module + ".self_s"] = "s"
    units["job.self_s"] = "s"
    units.update({n: "count" for n in WORK_COUNTS})
    units.update({n: "ratio" for n in REPEAT_SHARES})
    units["trace_overhead"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.counts = dict.fromkeys(WORK_COUNTS, 0)
        self.keep: dict[str, list] = {n: [] for n in REPEAT_SHARES}
        self.signatures: dict[str, inspect.Signature] = {}

    def span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def run_job(self, job_id: int, fn):
        self.job = job_id
        try:
            return self.span("job", fn)()
        finally:
            self.job = -1

    # -- counters -----------------------------------------------------------

    def _after(self, name: str, fn):
        """Counter hook run after a traced call, outside its span."""
        counts, keep = self.counts, self.keep
        if name + ".repeat_share" in keep:
            self.signatures[name] = inspect.signature(fn)
        if name == "shift_core.canonical_presentation":
            def after(args, kwargs, result):
                counts[name + ".out_states"] += len(result.vertices)
                keep[name + ".repeat_share"].append((args, kwargs))
        elif name == "shadow_lab.brute_shadowing_check":
            def after(args, kwargs, result):
                system = args[0] if args else kwargs["sys"]
                counts[name + ".states_explored"] += result.states_explored
                counts[name + ".points"] += len(system.labels)
                keep[name + ".repeat_share"].append((args, kwargs))
        elif name == "chaos.build_scrambled_tuple":
            def after(args, kwargs, result):
                counts[name + ".symbols"] += sum(len(s) for s in result.streams)
        elif name + ".repeat_share" in keep:
            def after(args, kwargs, result):
                keep[name + ".repeat_share"].append((args, kwargs))
        else:
            after = None
        return after

    def install(self) -> None:
        """Wrap every listed name in every loaded shiftlab module."""
        modules = {m: importlib.import_module("shiftlab." + m) for m in LAYERS}
        loaded = [mod for key, mod in sys.modules.items()
                  if key == "shiftlab" or key.startswith("shiftlab.")]
        for m, names in LAYERS.items():
            for fname in names:
                name = "%s.%s" % (m, fname)
                orig = getattr(modules[m], fname)
                if isinstance(orig, type):
                    init = orig.__init__
                    orig.__init__ = self.span(name, init, self._after(name, init))
                    continue
                traced = self.span(name, orig, self._after(name, orig))
                for mod in loaded:
                    if mod.__dict__.get(fname) is orig:
                        setattr(mod, fname, traced)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span name and per module, the work counts
        and the repeat shares."""
        child = [0.0] * len(self.spans)
        for (_n, start, end, parent, _j) in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _p, _j) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        out: dict[str, float] = {}
        for name in SPAN_NAMES[1:]:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        for m in LAYERS:
            out[m + ".self_s"] = sum(self_s[n] for n in SPAN_NAMES
                                     if n.startswith(m + "."))
        out["job.self_s"] = self_s["job"]
        out.update(self.counts)
        for metric, calls_kept in self.keep.items():
            sig = self.signatures[metric.rsplit(".", 1)[0]]
            out[metric] = _repeat_share(metric, [_bind(sig, a, k) for a, k in calls_kept])
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(["name", "start", "end", "parent", "job"]) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# Value keys for the repeat shares


def _bind(sig: inspect.Signature, args: tuple, kwargs: dict) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _code_key(code) -> tuple:
    return (code.domain, code.codomain, code.window, tuple(sorted(code.rule.items())))


def _repeat_share(metric: str, values: list) -> float:
    """1 - distinct/calls over values keyed by value (0 with no calls)."""
    if not values:
        return 0.0
    seq_keys: dict[int, tuple] = {}

    def seq_key(seq):
        k = seq_keys.get(id(seq))
        if k is None:
            k = (seq.levels, tuple(_code_key(c) for c in seq.codes),
                 seq.tail, seq.tail_block)
            seq_keys[id(seq)] = k
        return k

    if metric.startswith("codes."):
        keys = {_code_key(a["self"]) for a in values}
    elif metric.startswith("inverse_systems."):
        keys = {(seq_key(a["seq"]), a["m"], a["n"], a["start"]) for a in values}
    elif metric.startswith("shadow_lab."):
        keys = {(a["sys"].labels, frozenset(a["sys"].successors.items()),
                 frozenset(a["sys"].dist.items()), a["epsilon"], a["delta"],
                 a["horizon"], a["mode"], a["samples"], a["seed"], a["state_cap"])
                for a in values}
    else:
        keys = {a["g"] for a in values}
    return 1.0 - len(keys) / len(values)

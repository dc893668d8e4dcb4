"""In-memory span tracer wrapped around risnet's public layer calls.

Tracing is installed from the benchmark's side only: for the duration of a
traced phase each listed public function is replaced, in every risnet
module namespace that binds it, by a wrapper that records one span
(name, start, end, parent span, op id). Calls the program makes between its
own modules are therefore seen too. Spans stay in memory and are written
out once, when the run ends. Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _af_name(args, kwargs):
    phi = kwargs.get("phi_az_deg", args[5] if len(args) > 5 else 0.0)
    return "array.array_factor.grid" if np.size(phi) > 1 else "array.array_factor.cut"


def _af_counts(args, kwargs, result):
    layout = args[0]
    terms = np.size(kwargs.get("theta_deg", args[4] if len(args) > 4 else None))
    terms *= np.size(kwargs.get("phi_az_deg", args[5] if len(args) > 5 else 0.0))
    terms *= layout.n_cells
    return {"array.af_terms": terms, "array.af_tensor_bytes": 16 * terms}


def _sp8t_counts(args, kwargs, result):
    design = args[0]
    return {"loads.switch_points": result.gamma.size if design.switch is not None else 0}


def _spdt_counts(args, kwargs, result):
    return {"loads.switch_points": result.gamma.size if args[0] is not None else 0}


def _sigma_counts(args, kwargs, result):
    return {"metrics.sigma_points": args[0].gamma.size}


def _csv_read_counts(args, kwargs, result):
    return {"touchstone.csv_bytes": len(args[0])}


def _csv_write_counts(args, kwargs, result):
    return {"touchstone.csv_bytes": len(result)}


# (module, attribute, span namer or None, counter or None). Sizes are
# computed from the call's arguments and results, not measured inside it.
TARGETS = (
    ("touchstone", "parse_touchstone", None, None),
    ("touchstone", "serialize_touchstone", None, None),
    ("touchstone", "load_state_csv", None, _csv_read_counts),
    ("touchstone", "dump_state_csv", None, _csv_write_counts),
    ("network", "profile_from_network", None, None),
    ("loads", "synthesize_stub_lengths", None, None),
    ("loads", "sp8t_load_profile", None, _sp8t_counts),
    ("loads", "spdt_load_profile", None, _spdt_counts),
    ("metrics", "bandwidth", None, _sigma_counts),
    ("metrics", "select_states", None, None),
    ("array", "steering_codebook", None, None),
    ("array", "array_factor", _af_name, _af_counts),
    ("gating", "load_sweep_csv", None, None),
    ("gating", "time_gate", None, None),
    ("gating", "normalize_to_plate", None, None),
)

# Methods traced for nesting only: the op calls them, and they call the
# touchstone functions above.
METHODS = (("loads", "StubNetworkDesign", "to_json"), ("loads", "StubNetworkDesign", "from_json"))

class Tracer:
    """Collects spans and boundary counters for one traced phase."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counters = defaultdict(int)
        self.op_id = None
        self.enabled = False  # True only inside ``installed()``
        self._stack = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Untraced region inside a traced phase (output checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, name, fn, namer=None, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(namer(args, kwargs) if namer else name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters[key] += int(value)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers into every risnet namespace; restore on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "risnet" or n.startswith("risnet.")]
        undo = []
        for mod_name, attr, namer, counter in TARGETS:
            orig = getattr(sys.modules[f"risnet.{mod_name}"], attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", orig, namer, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"risnet.{mod_name}"], cls_name)
            raw = vars(cls)[meth]
            name = f"{mod_name}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            undo.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> dict:
    """Per span name and per layer: calls, busy_s and self_s.

    Self time is a span's duration minus the time its child spans cover.
    A layer's busy time counts only its outermost spans, so a layer calling
    itself (``from_json`` parsing Touchstone) is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        self_s = dur - child_time[i]
        layer = layer_of(name)
        for key in (name, layer):
            stats[key]["self_s"] += self_s
            stats[key]["calls"] += 1
        stats[name]["busy_s"] += dur
        p = parent
        while p is not None and layer_of(spans[p][0]) != layer:
            p = spans[p][3]
        if p is None:
            stats[layer]["busy_s"] += dur
    return dict(stats)

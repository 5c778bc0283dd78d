"""Tracing for the benchmark's traced run, kept outside the program.

Each layer is a function that a module of ``rdvsafe`` gives the rest of the
program.  Installing the tracer replaces every binding of that function in
the loaded ``rdvsafe`` modules (the module's own attribute and each
``from .mod import name`` copy) with a timing wrapper; the program's call
sites resolve those names at call time, so they reach the wrapper.  A layer
whose function no longer exists is reported as missing, and nothing is
patched for it.  Uninstalling restores every binding, so untraced operations
run the program untouched.

Coarse layers record one span per call (id, parent span, operation, name,
start, end, self time), kept in memory and written out when the run ends.
Per-step layers (``_classify``, ``_ModeChecker.check``) are only tallied,
since a mission operation calls them tens of thousands of times.  Either
kind charges its duration to the enclosing call, so a span's self time is
its duration minus the time its children cover.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Layer:
    name: str                  # metric prefix, e.g. "verifier.rendezvous"
    module: str                # module that defines the function
    attr: str                  # attribute path inside it ("Class.method" allowed)
    span: bool = True          # record spans (False: tally only)
    observe: Callable[[dict, tuple, dict, Any], None] | None = None


def _count_straddle(extra, args, kwargs, result):
    extra["straddle"] = extra.get("straddle", 0) + (result == "straddle")


def _count_empty(extra, args, kwargs, result):
    extra["empty"] = extra.get("empty", 0) + (result is None)


def _count_bytes(extra, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    extra["bytes"] = extra.get("bytes", 0) + os.path.getsize(path)


def _count_steps(extra, args, kwargs, result):
    extra["steps"] = extra.get("steps", 0) + len(result.times) - 1


LAYERS = (
    Layer("cli.load_scenario", "rdvsafe.cli", "load_scenario"),
    Layer("cli.emit_flowpipe", "rdvsafe.cli", "emit_flowpipe", observe=_count_bytes),
    Layer("cli.emit_report", "rdvsafe.cli", "emit_report", observe=_count_bytes),
    Layer("lqr.design", "rdvsafe.lqr", "design_mode_gains"),
    Layer("hybrid.build", "rdvsafe.hybrid", "build_rendezvous_automaton"),
    Layer("numsim.expm", "rdvsafe.numsim", "matrix_exp"),
    Layer("numsim.rk4", "rdvsafe.numsim", "simulate_nonlinear", observe=_count_steps),
    Layer("starset.hull", "rdvsafe.starset", "hull_boxes"),
    Layer("verifier.rendezvous", "rdvsafe.verifier", "_rendezvous_pipes"),
    Layer("verifier.passive", "rdvsafe.verifier", "_passive_segment"),
    Layer("verifier.restart", "rdvsafe.verifier", "_restart_box", observe=_count_empty),
    Layer("verifier.classify", "rdvsafe.verifier", "_classify", span=False,
          observe=_count_straddle),
    Layer("verifier.check", "rdvsafe.verifier", "_ModeChecker.check", span=False),
    Layer("verifier.simulate", "rdvsafe.verifier", "_simulate_with_ctx"),
    Layer("verifier.pointwise", "rdvsafe.verifier", "_pointwise_violation"),
)


@dataclass
class Tally:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)


def _resolve(module: str, attr: str):
    """(owner object, attribute name, function), or None if any part is gone."""
    obj = sys.modules.get(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part, None)
    fn = getattr(obj, parts[-1], None)
    return None if fn is None else (obj, parts[-1], fn)


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.tallies = {layer.name: Tally() for layer in layers}
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.top_s = 0.0           # time covered by calls made outside any layer
        self.op = -1               # operation the current spans belong to
        self._stack: list[list] = []   # frames: [child seconds, enclosing span id]
        self._patches: list[tuple[Any, str, Any]] = []
        self._wrappers: dict[str, Callable] = {}
        for layer in layers:
            found = _resolve(layer.module, layer.attr)
            if found is None:
                self.missing.append(layer.name)
            else:
                self._wrappers[layer.name] = self._wrap(layer, found[2])

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        stack, spans, tally = self._stack, self.spans, self.tallies[layer.name]
        observe, record, name = layer.observe, layer.span, layer.name

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(spans) if record else None
            frame = [0.0, span_id if record else (parent[1] if parent else None)]
            if record:
                spans.append(None)     # reserve the id; filled in below
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is None:
                    self.top_s += dur
                else:
                    parent[0] += dur
                tally.calls += 1
                tally.busy_s += dur
                tally.self_s += dur - frame[0]
                if record:
                    spans[span_id] = (span_id, parent[1] if parent else None, self.op,
                                      name, t0, t1, dur - frame[0])
            if observe is not None:
                observe(tally.extra, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Point every binding of each layer's function at its wrapper."""
        targets = {}
        for layer in self.layers:
            if layer.name in self._wrappers:
                owner, attr, fn = _resolve(layer.module, layer.attr)
                targets[id(fn)] = (fn, self._wrappers[layer.name])
                if isinstance(owner, type):
                    self._patches.append((owner, attr, fn))
                    setattr(owner, attr, self._wrappers[layer.name])
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rdvsafe" or mod_name.startswith("rdvsafe.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def write_spans(self, path: str) -> None:
        keys = ("id", "parent", "op", "name", "t0", "t1", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

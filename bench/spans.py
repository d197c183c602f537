"""Per-layer spans, recorded by wrapping the names callers look up.

The program is not edited. At run time every public function of the traced
modules is replaced, in every ``cropgate`` module that holds a reference to
it, by a wrapper that records a span: name, start, end, parent span and the
id of the op it ran in. ``Quantity`` arithmetic is counted on the class
(those calls are too frequent for a span each) and ``Quantity.to`` gets a
span. Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import array
import functools
import gzip
import json
import os
import statistics
import sys
import time
import types
from collections import defaultdict

MODULES = ("cli", "assess", "sections", "units", "farmspec", "factors",
           "inventory", "impact", "economics", "reports")
_COUNTED_OPS = ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__",
                "__neg__", "__lt__", "__le__", "to")


# span name -> (work count it adds to, amount from the call's args and result)
_COUNT_HOOKS = {
    "sections.parse_document": (
        "sections.lines", lambda args, result: args[0].count("\n") + 1),
    "farmspec.build_farm_model": (
        "farmspec.diagnostics", lambda args, result: len(result[1].diagnostics)),
    "factors.load_factor_db": (
        "factors.records", lambda args, result: len(result.records)),
    "inventory.build_lci": (
        "inventory.flows", lambda args, result: len(result.flows)),
}
for _writer in ("reports.write_assessment", "reports.write_comparison",
                "reports.write_sweep"):
    _COUNT_HOOKS[_writer] = ("reports.bytes_written", lambda args, result: sum(
        os.path.getsize(path) for path in result))


class Tracer:
    """Span recorder for one run; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._rows = array.array("q")  # op, span id, parent id, name, start, end
        self._stack: list[int] = []
        self._next_id = 0
        self.op = -1
        self.op_counts: list[defaultdict] = []
        self._counts: defaultdict = defaultdict(int)
        self.quantity_ops = 0
        self._patches: list[tuple[object, str, object]] = []

    # ---- ops ----------------------------------------------------------- #

    def begin_op(self) -> None:
        self.op += 1
        self._counts = defaultdict(int)
        self.quantity_ops = 0

    def end_op(self) -> None:
        self._counts["units.quantity_ops"] += self.quantity_ops
        self.op_counts.append(self._counts)

    # ---- wrappers ------------------------------------------------------ #

    def _span(self, fn, name: str, module: str):
        name_id = len(self.names)
        self.names.append(name)
        hook = _COUNT_HOOKS.get(name)
        rows, stack, perf = self._rows, self._stack, time.perf_counter_ns
        errors = f"{module}.errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_id = self._next_id
            self._next_id = span_id + 1
            stack.append(span_id)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._counts[errors] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                rows.extend((self.op, span_id, parent, name_id, start, end))
            if hook is not None:
                self._counts[hook[0]] += hook[1](args, result)
            return result
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            self.quantity_ops += 1
            return fn(*args)
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of MODULES wherever cropgate refers to them."""
        loaded = {name: module for name, module in sys.modules.items()
                  if name == "cropgate" or name.startswith("cropgate.")}
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            module = loaded.get(f"cropgate.{short}")
            if module is None:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if isinstance(fn, types.FunctionType) \
                        and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._span(fn, f"{short}.{attr}",
                                                       short))
        for module in loaded.values():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        quantity = loaded["cropgate.units"].Quantity
        for attr in _COUNTED_OPS:
            original = quantity.__dict__[attr]
            wrapper = (self._span(original, "units.Quantity.to", "units")
                       if attr == "to" else self._counted(original))
            self._patch(quantity, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- results ------------------------------------------------------- #

    def per_op(self) -> list[dict]:
        """Self time (ns) and calls per span name, plus work counts, per op.

        A span's self time is its duration minus the durations of its direct
        children; spans are recorded on exit, so children come first.
        """
        ops = [{"self_ns": defaultdict(int), "calls": defaultdict(int),
                "counts": dict(counts)} for counts in self.op_counts]
        child_ns: dict[int, int] = {}
        rows = self._rows
        for i in range(0, len(rows), 6):
            op, span_id, parent, name_id, start, end = rows[i:i + 6]
            duration = end - start
            name = self.names[name_id]
            if 0 <= op < len(ops):
                ops[op]["self_ns"][name] += duration - child_ns.pop(span_id, 0)
                ops[op]["calls"][name] += 1
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + duration
        return ops

    def write(self, path: str) -> int:
        """Write every span as one JSON array per line (gzip); returns count."""
        rows = self._rows
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"columns": ["op", "span", "parent", "name",
                                              "start_ns", "end_ns"],
                                  "names": self.names}) + "\n")
            for i in range(0, len(rows), 6):
                out.write(json.dumps(rows[i:i + 6].tolist()) + "\n")
        return len(rows) // 6


def layer_metrics(ops: list[dict], walls_s: list[float]) -> dict[str, float]:
    """Per-op medians over traced ops: ``<name>.ms``, ``<name>.calls``,
    work counts, and each module's self-time share of the op wall time."""
    names = sorted({name for op in ops for name in op["calls"]})
    counts = sorted({key for op in ops for key in op["counts"]})
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.ms"] = statistics.median(
            op["self_ns"].get(name, 0) / 1e6 for op in ops)
        out[f"{name}.calls"] = statistics.median(
            op["calls"].get(name, 0) for op in ops)
    for key in counts:
        out[key] = statistics.median(op["counts"].get(key, 0) for op in ops)
    for module in MODULES:
        prefix = module + "."
        out[f"{module}.share_pct"] = statistics.median(
            100.0 * sum(ns for name, ns in op["self_ns"].items()
                        if name.startswith(prefix)) / (wall * 1e9)
            for op, wall in zip(ops, walls_s))
    return out

"""Spans around the package's public functions, recorded from outside.

The traced run swaps each target function for a timing wrapper in
every ``rainbowmatch`` module that binds it (``validate_transversal``,
for one, is bound in ``latin``, ``transversal``, ``cli`` and the
package), and wraps ``ColoredGraph.neighbors`` at class level. Nothing
under ``src/`` changes, and every attribute is put back on exit.

A span is (name, start, end, parent, op id). Spans sit in array
columns while the run lasts and are written as JSON lines at the end.
``graphs.neighbors`` is called too often to keep one span per call: it
is counted and timed, and its time still leaves its parent's self
time, but it gets no span of its own. Self time is a span's duration
minus the durations of the spans called directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

from rainbowmatch import graphs

# module -> public functions to wrap; the module is where each one is defined
TARGETS = {
    "transversal": (
        "build_short_cycle_free_transversal",
        "cycle_free_transversal",
        "choose_color",
        "expand_layer",
        "apply_augmentation",
    ),
    "delta": (
        "find_rainbow_matching_delta",
        "extend_by_free_edge",
        "resolve_case",
        "chain_rotate",
    ),
    "layered": ("find_rainbow_matching_layered",),
    "graphs": ("validate_rainbow_matching", "parse_graph"),
    "latin": ("validate_transversal", "cycles_of", "parse_latin", "to_bipartite_factorization"),
    "generators": ("random_square", "random_proper_graph"),
    "oracle": ("max_rainbow_matching_exact",),
    "arith": ("int_kth_root",),
    "cli": ("main",),
}
NEIGHBORS = "graphs.neighbors"


class Tracer:
    """Span store plus per-(phase, name) call counts and self times."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.col_name = array("q")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("q")
        self.col_op = array("q")
        self._stack: list = []
        self.op = 0
        self.phase = "setup"
        self.calls: Counter = Counter()  # (phase, name) -> calls
        self.self_ns: Counter = Counter()  # (phase, name) -> self nanoseconds
        self.counters: Counter = Counter()  # solver counts read from hooks and results

    def _enter(self, name: str, record: bool) -> list:
        index = -1
        if record:
            index = len(self.col_name)
            name_id = self._ids.get(name)
            if name_id is None:
                name_id = self._ids[name] = len(self.names)
                self.names.append(name)
            self.col_name.append(name_id)
            self.col_start.append(0)
            self.col_end.append(0)
            self.col_parent.append(self._stack[-1][1] if self._stack else -1)
            self.col_op.append(self.op)
        frame = [name, index, 0, time.perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> int:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, index, child_ns, start = frame
        duration = end - start
        key = (self.phase, name)
        self.calls[key] += 1
        self.self_ns[key] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.col_start[index] = start
            self.col_end[index] = end
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code; yields a one-slot list
        that holds the span's duration in nanoseconds on exit."""
        frame = self._enter(name, True)
        took = [0]
        try:
            yield took
        finally:
            took[0] = self._leave(frame)

    def wrap(self, name: str, fn, *, record: bool = True, before=None, after=None):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, kwargs)
            frame = enter(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.col_name)):
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.col_name[i]],
                    "start_ns": self.col_start[i],
                    "end_ns": self.col_end[i],
                    "parent": self.col_parent[i],
                    "op": self.col_op[i],
                }) + "\n")


def _tee_layered_trace(tracer: Tracer, kwargs: dict) -> None:
    """Feed the solver's existing trace= events to the tracer as well."""
    inner = kwargs.get("trace")
    if inner is None:
        return

    def tee(event: dict) -> None:
        if "levels" in event:
            tracer.counters["layered.rounds"] += 1
            tracer.counters["layered.levels"] += len(event["levels"])
            tracer.counters["layered.exchanges"] += event["violation"] is not None
        inner(event)

    kwargs["trace"] = tee


def _count_layered_call(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["layered.solves"] += 1


def _read_transversal_stats(tracer: Tracer, args, kwargs, result) -> None:
    stats = kwargs.get("stats")
    if stats is not None:
        tracer.counters["transversal.augmentations"] += stats["augmentations"]


def _count_delta_levels(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["delta.levels"] += len(result)


def _count_outcome(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["delta.outcome." + type(result).__name__] += 1


def _count_square_steps(tracer: Tracer, args, kwargs, result) -> None:
    n = args[0] if args else kwargs["n"]
    tracer.counters["generators.random_square.steps"] += n**3


HOOKS = {
    "transversal.build_short_cycle_free_transversal": {"after": _read_transversal_stats},
    "delta.find_rainbow_matching_delta": {"after": _count_delta_levels},
    "delta.resolve_case": {"after": _count_outcome},
    "layered.find_rainbow_matching_layered": {
        "before": _tee_layered_trace,
        "after": _count_layered_call,
    },
    "generators.random_square": {"after": _count_square_steps},
}


def _package_modules() -> list:
    for module in TARGETS:
        importlib.import_module(f"rainbowmatch.{module}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "rainbowmatch" or name.startswith("rainbowmatch.")]


class Patch:
    """Reusable context manager that swaps every target for its wrapper
    on entry and puts every original back on exit."""

    def __init__(self, tracer: Tracer) -> None:
        modules = _package_modules()
        self.swaps = []
        for module, names in TARGETS.items():
            home = sys.modules[f"rainbowmatch.{module}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                name = f"{module}.{fn_name}"
                wrapper = tracer.wrap(name, original, **HOOKS.get(name, {}))
                for m in modules:
                    self.swaps.extend((m, attr, original, wrapper)
                                      for attr, value in vars(m).items() if value is original)
        neighbors = graphs.ColoredGraph.__dict__["neighbors"]
        self.swaps.append((graphs.ColoredGraph, "neighbors", neighbors,
                           tracer.wrap(NEIGHBORS, neighbors, record=False)))

    def __enter__(self) -> "Patch":
        for owner, attr, _, wrapper in self.swaps:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self.swaps):
            setattr(owner, attr, original)

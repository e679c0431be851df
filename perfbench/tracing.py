"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each proofkit layer from outside
the package: it replaces every module attribute bound to such a function
(including `from .syntax import x` bindings in other modules) with a
wrapper that records a span, and puts the originals back on `uninstall`.
Nothing under `src/` is edited.

A span is (name, start, end, parent).  A name already open on the stack is
not opened again, so a recursive function (`eval_term`, `_propagate`
nested in `assert_eq`) counts once, at its outermost call.  A span's self
time is its duration minus the time covered by its child spans.  Given
`memory_s`, the tracer also follows tracemalloc's peak inside the outermost
span of each layer, for that many seconds after `install`; tracemalloc
slows the program several times over, so the benchmark does this in a pass
of its own and bounds it in time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict

# The layers, named as the per-layer metrics name them; `kernel` is the
# package proofkit.kernel and covers its three modules.
LAYERS = (
    "syntax",
    "kernel",
    "normform",
    "propcalc",
    "stringarith",
    "extend",
    "hilbertack",
    "machines",
)

# CongruenceCore's entry points share one span name, so a `_propagate`
# reached from `assert_eq` or `congruent` is part of the outer span.
CONGRUENCE = "propcalc.congruence"
CONGRUENCE_METHODS = ("assert_eq", "congruent", "_propagate")

# Spans kept for `spans()`; beyond this they are still aggregated.
MAX_SPANS = 200_000


def layer_of(module_name: str):
    parts = module_name.split(".")
    if parts[0] != "proofkit" or len(parts) < 2 or parts[1] not in LAYERS:
        return None
    return parts[1]


class Tracer:
    def __init__(self, memory_s: float = 0.0):
        self.memory_s = memory_s
        self.memory = False  # tracemalloc running
        self._memory_until = 0.0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.mem_peak: defaultdict = defaultdict(int)  # layer -> bytes
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self.spans_dropped = 0
        self._stack: list = []  # [name, layer, start, child_s, span_index]
        self._open: Counter = Counter()  # name -> open spans of that name
        self._layer_open: Counter = Counter()
        self._mem_open: dict = {}  # layer -> [traced at entry, max traced]
        self._patches: list = []  # (owner, attribute, original)
        self._off = [False]  # set while `paused`

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str, layer: str):
        if self.memory and time.perf_counter() > self._memory_until:
            self._stop_memory()
        if self.memory and not self._layer_open[layer]:
            self._mem_enter(layer)
        self._layer_open[layer] += 1
        self._open[name] += 1
        index = len(self._span_start)
        if index < MAX_SPANS:
            nid = self._name_id.get(name)
            if nid is None:
                nid = self._name_id[name] = len(self.names)
                self.names.append(name)
            self._span_name.append(nid)
            self._span_parent.append(self._stack[-1][4] if self._stack else -1)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
        else:
            index = -1
            self.spans_dropped += 1
        frame = [name, layer, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        if index >= 0:
            self._span_start[index] = frame[2]

    def _exit(self):
        end = time.perf_counter()
        name, layer, start, child_s, index = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            self._span_end[index] = end
        self._open[name] -= 1
        self._layer_open[layer] -= 1
        if self.memory and not self._layer_open[layer]:
            self._mem_exit(layer)

    def _fold_peak(self):
        """Credit the peak since the last reset to every open layer span,
        then reset it so the next reading starts afresh."""
        current, peak = tracemalloc.get_traced_memory()
        for entry in self._mem_open.values():
            entry[1] = max(entry[1], peak)
        tracemalloc.reset_peak()
        return current

    def _mem_enter(self, layer: str):
        current = self._fold_peak()
        self._mem_open[layer] = [current, current]

    def _mem_exit(self, layer: str):
        self._fold_peak()
        self._record_peak(layer, *self._mem_open.pop(layer))

    def _record_peak(self, layer: str, at_entry: int, highest: int):
        self.mem_peak[layer] = max(self.mem_peak[layer], highest - at_entry)

    def _stop_memory(self):
        """Stop tracemalloc, crediting the open layer spans with what they
        reached so far."""
        if not self.memory:
            return
        self._fold_peak()
        for layer, (at_entry, highest) in self._mem_open.items():
            self._record_peak(layer, at_entry, highest)
        self._mem_open.clear()
        tracemalloc.stop()
        self.memory = False

    @property
    def span_count(self) -> int:
        return len(self._span_start) + self.spans_dropped

    def spans(self):
        """The recorded spans as (name, start, end, parent index) tuples."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(
                self._span_name, self._span_start, self._span_end, self._span_parent
            )
        ]

    def layer_self_s(self) -> dict:
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    # -- wrapping --------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self._off[0] = True
        try:
            yield
        finally:
            self._off[0] = False

    def wrap(self, name: str, layer: str, fn):
        open_ = self._open
        off = self._off
        enter = self._enter
        exit_ = self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if off[0] or open_[name]:
                return fn(*args, **kwargs)
            enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def install(self):
        """Wrap the public functions of every loaded proofkit layer module,
        and CongruenceCore's entry points."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "proofkit" or n.startswith("proofkit."))
        ]
        wrapped: dict[int, object] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            if layer is None:
                continue
            for attr, value in vars(module).items():
                # lru_cache-wrapped functions count as functions too
                if (
                    inspect.isfunction(getattr(value, "__wrapped__", value))
                    and not attr.startswith("_")
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    wrapped[id(value)] = self.wrap(f"{layer}.{attr}", layer, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)
        core = sys.modules["proofkit.propcalc"].CongruenceCore
        for attr in CONGRUENCE_METHODS:
            original = core.__dict__[attr]
            self._patches.append((core, attr, original))
            setattr(core, attr, self.wrap(CONGRUENCE, "propcalc", original))
        if self.memory_s:
            tracemalloc.start()
            self.memory = True
            self._memory_until = time.perf_counter() + self.memory_s

    def uninstall(self):
        self._stop_memory()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

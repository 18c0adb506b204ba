"""In-memory span tracer that instruments the program from outside.

Each layer is a list of targets (``"module:function"`` or
``"module:Class.method"``).  Installing a layer replaces the target with a
timing wrapper everywhere callers resolve it: a module-level function is
swapped in every loaded ``repro`` (and benchmark) module whose global
names the same object (so ``from repro.core.repair import consolidate_servers`` call
sites see the wrapper too), a method is swapped on its class.
:meth:`Tracer.uninstall` puts every original back.

A span is (id, layer, start, end, parent span id, event id).  Spans are kept in
compact arrays up to :data:`MAX_SPANS` and written out when the run ends;
per-layer call counts, self time (span duration minus the time covered by
its child spans) and outcome counts are aggregated exactly for every
span, recorded or not.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Outcome counter: a label and a classifier that maps a call's return
#: value to True when it is that outcome (a committed shutdown, a
#: successful placement, a refusal...).
Outcome = Tuple[str, Callable[[Any], bool]]


@dataclass(frozen=True)
class Layer:
    name: str
    targets: Tuple[str, ...]
    #: Optional outcome counter; its count is reported as ``<name>.<label>``.
    outcome: Optional[Outcome] = None
    #: Calls of this layer start a new event (serve requests): spans
    #: opened inside it carry its event id.
    starts_event: bool = False


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """(owner object, attribute name, current raw attribute value)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


#: Spans recorded in full (about 40 bytes each); aggregates stay exact beyond.
MAX_SPANS = 500_000


class Tracer:
    """Records spans and counts for a set of :class:`Layer` s."""

    ROOT = "bench.work"

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers = list(layers)
        self.names: List[str] = [self.ROOT] + [layer.name for layer in self.layers]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.outcomes = [0] * len(self.names)
        # recorded spans, column-wise, in the order they close
        self.span_id = array("q")
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_event = array("q")
        self.spans_total = 0
        self._next_event = 0
        self._event = -1
        # open spans: [span id, child seconds]
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.root_s = 0.0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer in self.layers:
            for target in layer.targets:
                self._install_target(layer, target)

    def _install_target(self, layer: Layer, target: str) -> None:
        owner, attr, raw = _resolve(target)
        lid = self._index[layer.name]
        if isinstance(owner, type):
            if isinstance(raw, staticmethod):
                wrapped: Any = staticmethod(self._wrap(raw.__func__, lid, layer))
            else:
                wrapped = self._wrap(raw, lid, layer)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        wrapped = self._wrap(raw, lid, layer)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not name.startswith(("repro", "perfbench")):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patches.append((module, key, raw))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- recording ------------------------------------------------------------

    def _open(self) -> List[float]:
        frame = [float(self.spans_total), 0.0]
        self.spans_total += 1
        self._stack.append(frame)
        return frame

    def _close(self, lid: int, frame: List[float], start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.calls[lid] += 1
        self.self_s[lid] += duration - frame[1]
        parent = -1
        if self._stack:
            self._stack[-1][1] += duration
            parent = int(self._stack[-1][0])
        if len(self.span_layer) < MAX_SPANS:
            self.span_id.append(int(frame[0]))
            self.span_layer.append(lid)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent)
            self.span_event.append(self._event)

    def _wrap(self, fn: Callable, lid: int, layer: Layer) -> Callable:
        clock = time.perf_counter
        outcome = layer.outcome[1] if layer.outcome is not None else None
        starts_event = layer.starts_event
        tracer = self

        def traced(*args, **kwargs):
            outer_event = tracer._event
            if starts_event:
                tracer._event = tracer._next_event
                tracer._next_event += 1
            frame = tracer._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(lid, frame, start, clock())
                tracer._event = outer_event
            if outcome is not None and outcome(result):
                tracer.outcomes[lid] += 1
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def root(self) -> "_RootSpan":
        """Context manager for the timed phase's root span."""
        return _RootSpan(self)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """``<layer>.calls`` / ``<layer>.self_s`` (and the outcome) per layer."""
        out: Dict[str, Tuple[float, str]] = {}
        for layer in self.layers:
            lid = self._index[layer.name]
            out[f"{layer.name}.calls"] = (float(self.calls[lid]), "count")
            out[f"{layer.name}.self_s"] = (self.self_s[lid], "s")
            if layer.outcome is not None:
                label = layer.outcome[0]
                out[f"{layer.name}.{label}"] = (float(self.outcomes[lid]), "count")
        return out

    def count(self, name: str) -> int:
        return self.calls[self._index[name]]

    def outcome_count(self, name: str) -> int:
        return self.outcomes[self._index[name]]

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        """Dump names, aggregates and the recorded spans as one JSON file."""
        document = {
            "layers": self.names,
            "calls": self.calls,
            "self_s": self.self_s,
            "outcomes": self.outcomes,
            "spans_total": self.spans_total,
            "spans_recorded": len(self.span_layer),
            "spans": {
                "id": self.span_id.tolist(),
                "layer": self.span_layer.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "event": self.span_event.tolist(),
            },
            "summary": extra,
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


class _RootSpan:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> "_RootSpan":
        self.frame = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.tracer._close(0, self.frame, self.start, end)
        self.tracer.root_s += end - self.start

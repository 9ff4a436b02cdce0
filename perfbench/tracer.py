"""Outside-in layer tracing for the benchmark.

The tracer replaces a layer's entry point, in every module or class where
its callers look the name up, with a wrapper that times the call.  Nothing
in the program is edited: the wrappers are installed for a traced run and
removed afterwards.

Each call is one span with a name, start, end and parent.  A span's self
time is its duration minus the time its child spans cover; calls are
strictly nested in this single-threaded program, so that is the sum of the
children's durations.  Per layer the tracer keeps the call count, total
time and self time.  Spans of layers marked ``keep`` are also stored in
memory and written out when the run ends; the hottest layers (the kernels
and the level probes, millions of calls per pass) are counted but not
stored, which keeps memory bounded.

An entry point that no longer exists is reported as absent and its layer
reads zero; the run goes on.
"""
from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    ``owner`` is the module (``"cecreuse.caching"``) or class
    (``"cecreuse.caching:EfficiencyContext"``) that defines ``attr``.
    ``sites`` are the modules whose global ``attr`` the callers use; empty
    means the owner itself is the lookup site (methods, or functions called
    through their module).  ``on_return(tracer, args, result)`` and
    ``on_raise(tracer, exc)`` update counters.  ``name_fn(tracer)`` may
    name each call from the tracer's open spans.
    """

    name: str
    owner: str
    attr: str
    sites: tuple[str, ...] = ()
    keep: bool = True
    on_return: Callable | None = None
    on_raise: Callable | None = None
    name_fn: Callable | None = None


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _Frame:
    name: str
    start: float
    index: int                    # position in Tracer.spans, -1 if not kept
    child_s: float = 0.0
    child_calls: dict = field(default_factory=dict)


def _resolve(path: str):
    """Module or class object for ``"pkg.mod"`` or ``"pkg.mod:Class"``."""
    module_name, _, class_name = path.partition(":")
    obj = importlib.import_module(module_name)
    if class_name:
        obj = getattr(obj, class_name)
    return obj


class Tracer:
    """Spans, per-layer totals and counters for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.absent: list[str] = []
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def enter(self, name: str, keep: bool = True) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_calls[name] = parent.child_calls.get(name, 0) + 1
        index = -1
        start = self.clock()
        if keep:
            index = len(self.spans)
            self.spans.append((name, start, start, parent.index if parent else -1))
        frame = _Frame(name, start, index)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        st = self.stats.setdefault(frame.name, LayerStats())
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.index >= 0:
            name, start, _end, parent = self.spans[frame.index]
            self.spans[frame.index] = (name, start, end, parent)

    def sibling_calls(self, name: str) -> int:
        """Calls of ``name`` made so far directly under the open span."""
        return self._stack[-1].child_calls.get(name, 0) if self._stack else 0

    # -- installing wrappers ---------------------------------------------

    def _wrap(self, layer: Layer, fn):
        tracer = self

        def traced(*args, **kwargs):
            name = layer.name_fn(tracer) if layer.name_fn else layer.name
            frame = tracer.enter(name, layer.keep)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if layer.on_raise is not None:
                    layer.on_raise(tracer, exc)
                raise
            finally:
                tracer.exit(frame)
            if layer.on_return is not None:
                layer.on_return(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer.attr)
        return traced

    def install(self, layers) -> None:
        """Wrap every layer at its lookup sites; missing ones go to absent."""
        for layer in layers:
            try:
                owner = _resolve(layer.owner)
                original = getattr(owner, layer.attr)
            except (ImportError, AttributeError):
                self.absent.append(layer.name)
                continue
            wrapped = self._wrap(layer, original)
            sites = [owner] if not layer.sites else []
            for site in layer.sites:
                try:
                    mod = importlib.import_module(site)
                except ImportError:
                    continue
                if getattr(mod, layer.attr, None) is original:
                    sites.append(mod)
            if not sites:
                self.absent.append(layer.name)
                continue
            for site in sites:
                self._undo.append((site, layer.attr, original))
                setattr(site, layer.attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            site, attr, original = self._undo.pop()
            setattr(site, attr, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Kept spans as columns, plus the per-layer totals and counters."""
        doc = {
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "layers": {k: vars(v) for k, v in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


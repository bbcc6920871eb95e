"""In-memory span recorder wrapped around the public calls of each layer.

`Tracer.install` replaces every public function of the layer modules, and
every public method (plus `__init__`) of the classes they define, with a
wrapper that records one span: (name, start_ns, end_ns, parent index,
note). Calls between layers go through module attributes, so calls the
program makes internally (bounds -> spectral.mu_bound, rewiring ->
state.ResistanceState.apply_edge) are recorded too. Nothing in the
program is edited; spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager

LAYERS = ("graph", "spectral", "state", "rewiring", "bounds", "cli")


class Tracer:
    def __init__(self, notes=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # span name -> fn(args, kwargs, result) giving a per-span note,
        # evaluated after the span's end time is taken
        self.notes = notes or {}

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, start):
        self.spans[idx][1:3] = start, time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name, note=None):
        idx = self._open(name)
        self.spans[idx][4] = note
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, start)

    def wrap(self, name, fn):
        note = self.notes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start)
            if note is not None:
                self.spans[idx][4] = note(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the layer modules of `package` (the imported `reswire`)."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                                meth == "__init__" or not meth.startswith("_")):
                            setattr(obj, meth,
                                    self.wrap(f"{layer}.{attr}.{meth}", fn))

    def dump(self, path, **extra) -> None:
        with open(path, "w") as f:
            json.dump(dict(extra, spans=self.spans), f)

"""Span recorder that wraps the package's public functions from outside.

Each public function of a layer module is replaced by a wrapper at every
module attribute that refers to it, because modules bind names at import
(``axes`` imports ``power`` and ``canonical_encoding`` by name, and the
package root re-exports most functions), so patching the defining module
alone would miss those call sites.  ``GraphMap.apply_path`` is wrapped on
the class.  Spans (function, parent span, start, end) are kept in compact
in-memory arrays and folded into per-function self time and call counts
only when ``drain`` is called, between operations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("graphs", "spectral", "traintrack", "nielsen", "whitehead",
          "isomorphism", "axes", "cli")

# Per-letter label helpers: constant work per call and called hundreds of
# thousands of times per decision, so a span around each would cost more
# than the work it measures.  Their time counts toward their callers.
UNTRACED = frozenset({"graphs.rev_edge", "graphs.base_label",
                      "graphs.is_positive", "graphs.rev_path",
                      "graphs.is_tight"})


class Tracer:
    def __init__(self):
        self.names = []
        self._func = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def wrap(self, name, fn):
        func_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        funcs, parents, starts, ends, stack = (
            self._func, self._parent, self._start, self._end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(funcs)
            funcs.append(func_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def drain(self):
        """Per-function [calls, self seconds] of the spans recorded since
        the last drain; the span arrays are emptied."""
        n = len(self._func)
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        out = {}
        for i in range(n):
            name = self.names[self._func[i]]
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += 1
            rec[1] += self._end[i] - self._start[i] - child[i]
        for arr in (self._func, self._parent, self._start, self._end):
            del arr[:]
        del self._stack[1:]
        return out


def install(package_name="loneaxis"):
    """Wrap every public function of each layer module of the package."""
    package = importlib.import_module(package_name)
    modules = {layer: importlib.import_module(f"{package_name}.{layer}")
               for layer in LAYERS}
    holders = [package, *modules.values()]
    tracer = Tracer()
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or f"{layer}.{attr}" in UNTRACED):
                continue
            traced = tracer.wrap(f"{layer}.{attr}", obj)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is obj:
                        setattr(holder, name, traced)
    graph_map = modules["graphs"].GraphMap
    graph_map.apply_path = tracer.wrap("graphs.GraphMap.apply_path",
                                       graph_map.apply_path)
    return tracer

"""In-memory span tracer for the benchmark's traced passes.

The tracer wraps every public wvfreq function at each module binding that
names it. ``recipes`` and ``cli`` import functions by name (``from
.signal_chain import synthesize_run``), so patching only the defining module
would miss their calls; wrapping every binding catches the call whichever
name the caller uses. Private helpers and methods are not wrapped: their
time stays in the self time of the public function that calls them, which is
why the dark-port kernel and the binomial draw both count as
``signal_chain.synthesize_run``.

A span is ``[name, layer, start, end, parent, request, count]``: ``parent``
indexes the enclosing span (``None`` at a request root) and ``count`` is the
work recorded at that boundary (samples, characters), 0 where none is.
"""

import contextlib
import functools
import inspect
import time

NAME, LAYER, START, END, PARENT, REQUEST, COUNT = range(7)

# units.py parses and formats config values, so it belongs to the config layer.
LAYER_OF_MODULE = {"units": "config"}

# Work counted where it happens: span name -> count(args, result).
COUNTERS = {
    "signal_chain.synthesize_run": lambda args, result: result.samples.size,
    "signal_chain.timeseries_to_csv": lambda args, result: len(result),
    "signal_chain.timeseries_from_csv": lambda args, result: len(args[0]),
}


class Tracer:
    """Records spans while installed; ``take`` hands them over and resets."""

    def __init__(self, modules):
        self.spans = []
        self._stack = []
        self._request = None
        self._requests = 0
        self._patches = []
        for module in modules:
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("wvfreq."):
                    continue
                short = obj.__module__.rsplit(".", 1)[1]
                layer = LAYER_OF_MODULE.get(short, short)
                wrapper = self._wrap(obj, f"{short}.{obj.__name__}", layer)
                self._patches.append((module, attr, obj, wrapper))

    def _wrap(self, fn, name, layer):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = [name, layer, clock(), 0.0, stack[-1] if stack else None, self._request, 0]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(args, result)
            return result

        return traced

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    @contextlib.contextmanager
    def request(self, name):
        """Root span for one request; spans opened inside share its id."""
        self._requests += 1
        self._request = self._requests
        span = [f"request.{name}", "bench", time.perf_counter(), 0.0, None, self._request, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self._request = None

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def summarize(spans):
    """Per span name: calls, inclusive ms, self ms and count; per layer: self ms.

    Self time is a span's duration minus the durations of its direct
    children, which never overlap because calls nest on one thread.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    by_name = {}
    by_layer = {}
    for span, children in zip(spans, child_time):
        duration = span[END] - span[START]
        own = (duration - children) * 1e3
        entry = by_name.setdefault(
            span[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0, "count": 0}
        )
        entry["calls"] += 1
        entry["ms"] += duration * 1e3
        entry["self_ms"] += own
        entry["count"] += span[COUNT]
        by_layer[span[LAYER]] = by_layer.get(span[LAYER], 0.0) + own
    return by_name, by_layer

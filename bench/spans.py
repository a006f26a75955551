"""In-memory spans recorded around calls into the package's modules.

A span is [name, start_ns, end_ns, parent_index].  Names are
"<layer>.<function>", where the layer is the package module whose work
the call does.  Spans are recorded only inside `Tracer.installed()`,
which swaps the wrapped module attributes for recording wrappers and puts
the originals back on exit, so untraced passes run the package untouched.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, targets):
        #: (module, attribute, span name) triples wrapped while installed.
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.on = False

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def _wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Record spans for the duration of the block; returns their index range."""
        originals = [(mod, attr, getattr(mod, attr))
                     for mod, attr, _ in self.targets]
        for (mod, attr, fn), (_, _, name) in zip(originals, self.targets):
            setattr(mod, attr, self._wrapper(name, fn))
        first = len(self.spans)
        self.on = True
        window = [first, first]
        try:
            yield window
        finally:
            self.on = False
            window[1] = len(self.spans)
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def summary(self, window) -> dict:
        """Per span name: call count, total and self time (ns) in the window.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because recording is single-threaded.
        """
        first, last = window
        child_ns = defaultdict(int)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= first:
                child_ns[parent] += end - start
        out: dict[str, dict[str, int]] = {}
        for i in range(first, last):
            name, start, end, _ = self.spans[i]
            s = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            s["calls"] += 1
            s["total_ns"] += end - start
            s["self_ns"] += end - start - child_ns[i]
        return out

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0
        rows = [[name, (start - origin) // 1000, (end - origin) // 1000, parent]
                for name, start, end, parent in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_us", "end_us",
                                               "parent"],
                                    "spans": rows}, separators=(",", ":")),
                        encoding="utf-8")

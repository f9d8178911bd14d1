"""In-memory timing spans around the public functions of shiftlab's layers.

The tracer wraps every public function and public method defined in the
layer modules. Modules bind names with `from .x import f`, so a wrapper is
installed under every name, in every shiftlab module, that refers to the
original function (for example `adapt.forward`, `mea.forward` and
`bench.train_source`). `restore()` puts every original back and checks
that each name is identical to it again. Nothing on disk is changed.

Each call records one span (name, start, end, parent index, tag). Spans stay
in memory until the run ends; self time is a span's duration minus the
durations of its direct children. The trace assumes one thread, which holds
while SHIFTLAB_THREADS is unset.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

LAYERS = ("datagen", "nn", "objectives", "adapt", "mea", "bench", "cli")

_WRAPPED = "__perfbench_original__"


class Tracer:
    def __init__(self, package, probes=None):
        """`probes` maps a span name to fn(args, kwargs) -> tag stored on the span."""
        self.package = package
        self.probes = probes or {}
        self.spans = []
        self._stack = []
        self._patches = []  # (namespace owner, attribute, original)

    def _modules(self):
        mods = [self.package]
        for info in pkgutil.iter_modules(self.package.__path__):
            mods.append(importlib.import_module(f"{self.package.__name__}.{info.name}"))
        return mods

    def _targets(self):
        """Original function -> span name, plus (class, attr, function, name) methods."""
        functions, methods = {}, []
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package.__name__}.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[obj] = f"{layer}.{name}"
                elif inspect.isclass(obj):
                    for attr, fn in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            methods.append((obj, attr, fn, f"{layer}.{name}.{attr}"))
        return functions, methods

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        probe = self.probes.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = probe(args, kwargs) if probe is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tag)

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    def install(self) -> None:
        """Wrap every target under every name bound to it."""
        functions, methods = self._targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in functions.items()}
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        for cls, attr, fn, name in methods:
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name))

    def restore(self) -> bool:
        """Put every original back; True when each name is the original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(vars(owner).get(attr) is original for owner, attr, original in self._patches)
        for mod in self._modules():
            ok = ok and not any(hasattr(v, _WRAPPED) for v in vars(mod).values())
        self._patches = []
        return ok

    def layer_table(self) -> dict:
        """Span name -> {calls, total_s, self_s, tags} aggregated over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {}
        for i, (name, start, end, parent, tag) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tags": []})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            if tag is not None:
                row["tags"].append(tag)
        return table

    def write_spans(self, path) -> None:
        """Write the raw spans as tab-separated lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")

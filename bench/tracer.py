"""Spans around the library's public functions, patched in from outside.

`Tracer.install()` replaces every public function and method of the geom3
modules with a wrapper that records a span.  A name is patched wherever a
caller looks it up: ``nil.mat2_mul`` as well as ``intmat.mat2_mul``,
because nil.py imports the name directly.  Nothing under src/ changes.

Every span is folded into per-name totals as it closes (calls, inclusive
and self time, failures); self time is the span's duration minus the time
its child spans cover.  The spans of each task's root and of the calls it
makes, plus every span of at least 1 ms, are also kept in memory, with
name, start, end, parent and task id, and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("algebra", "intmat", "descriptors", "nil", "sol", "euclid",
           "fibered", "hyperbolic", "zimmer", "selfcheck", "cli")

# Generated or bookkeeping methods: wrapping them measures the tracer.
_SKIP_METHODS = {"__init__", "__post_init__", "__setattr__", "__repr__",
                 "__str__", "__hash__", "__init_subclass__"}

KEEP_DEPTH = 1
KEEP_LONGER_THAN_S = 1e-3
MAX_KEPT_SPANS = 50000


class _Stat:
    __slots__ = ("calls", "total", "self_time", "failed", "ok_total",
                 "work", "decided")

    def __init__(self):
        self.calls = 0
        self.total = 0.0            # inclusive seconds
        self.self_time = 0.0        # minus the time child spans cover
        self.failed = 0
        self.ok_total = 0.0         # inclusive seconds of calls that returned
        self.work = 0               # work units of calls that returned
        self.decided = 0


class Tracer:
    def __init__(self, work_counters=None, result_counters=None):
        # name -> fn(args, kwargs) -> int, evaluated outside the timing
        self.work_counters = work_counters or {}
        # name -> fn(result) -> int (e.g. decided verdicts)
        self.result_counters = result_counters or {}
        self.stats: dict[str, _Stat] = {}
        self.module_failed: dict[str, int] = {m: 0 for m in MODULES}
        self.spans: list = []
        self.dropped_spans = 0
        self._stack: list = []          # [span_id, name, start, child_time]
        self._next_id = 0
        self._task_id = None
        self._patches: list = []
        self.enabled = False

    # -- span bookkeeping --------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, failed: bool):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[2]
        stat = self.stats.get(frame[1])
        if stat is None:
            stat = self.stats[frame[1]] = _Stat()
        stat.calls += 1
        stat.total += dur
        stat.self_time += dur - frame[3]
        if failed:
            stat.failed += 1
        else:
            stat.ok_total += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self._stack) <= KEEP_DEPTH or dur >= KEEP_LONGER_THAN_S:
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((frame[1], frame[2], end,
                                   parent[0] if parent else None,
                                   self._task_id, frame[0]))
            else:
                self.dropped_spans += 1

    def task_span(self, task_id, kind: str):
        """Context manager for the root span of one task."""
        tracer = self

        class _Span:
            def __enter__(self):
                tracer._task_id = task_id
                self.frame = tracer._enter("task:" + kind)

            def __exit__(self, exc_type, exc, tb):
                # a time-out can land inside a wrapper's bookkeeping: drop any
                # frame left above the task's own
                del tracer._stack[tracer._stack.index(self.frame) + 1:]
                tracer._exit(self.frame, exc_type is not None)
                tracer._task_id = None
                return False

        return _Span()

    # -- patching ----------------------------------------------------------------

    def _wrap(self, fn, name: str, module: str):
        tracer = self
        work = self.work_counters.get(name)
        result_counter = self.result_counters.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame, True)
                counted = getattr(exc, "_bench_failed_in", None)
                if counted is None:
                    counted = set()
                    try:
                        exc._bench_failed_in = counted
                    except AttributeError:
                        pass
                if module not in counted:
                    counted.add(module)
                    tracer.module_failed[module] += 1
                raise
            tracer._exit(frame, False)
            stat = tracer.stats[name]
            if work is not None:
                stat.work += work(args, kwargs)
            if result_counter is not None:
                stat.decided += result_counter(result)
            return result

        return wrapper

    def install(self, package):
        """Patch every public function and method of the geom3 modules."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                   for m in MODULES}
        wrappers = {}                   # id(original) -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}",
                                                   short)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, short, mod)
        # every module attribute (and the package's re-exports) that refers
        # to a wrapped function now refers to its wrapper
        for holder in (package, *modules.values()):
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patches.append((holder, attr, obj))
                    setattr(holder, attr, wrappers[id(obj)])
        self.enabled = True

    def _wrap_class(self, cls, short: str, mod):
        for attr, raw in list(vars(cls).items()):
            if attr in _SKIP_METHODS:
                continue
            if attr.startswith("_") and not (attr.startswith("__")
                                             and attr.endswith("__")):
                continue
            kind = None
            fn = raw
            if isinstance(raw, staticmethod):
                kind, fn = staticmethod, raw.__func__
            elif isinstance(raw, classmethod):
                kind, fn = classmethod, raw.__func__
            if not inspect.isfunction(fn):
                continue
            if fn.__code__.co_filename != mod.__file__:
                continue                # generated by dataclasses
            name = f"{short}.{cls.__name__}.{attr}"
            wrapped = self._wrap(fn, name, short)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def uninstall(self):
        self.enabled = False
        for holder, attr, obj in reversed(self._patches):
            setattr(holder, attr, obj)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def stat(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()

    def prefixed(self, prefix: str) -> _Stat:
        """Sum of the stats of every name starting with `prefix`."""
        out = _Stat()
        for name, s in self.stats.items():
            if name.startswith(prefix):
                out.calls += s.calls
                out.total += s.total
                out.self_time += s.self_time
                out.failed += s.failed
                out.ok_total += s.ok_total
                out.work += s.work
        return out

    def write_spans(self, path: str, record: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": record,
                                 "dropped_spans": self.dropped_spans}) + "\n")
            for name, start, end, parent, task, span_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")

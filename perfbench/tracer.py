"""In-memory span recorder that wraps plcfe functions from outside the package.

Modules bind names with `from .numcore import mlp_forward_cached`, so a
function is wrapped in every plcfe module namespace that holds it, not only
in the module that defines it; methods are wrapped on their class. Each
call records one span (name, start, end, parent) in flat arrays; nothing is
written until the caller asks for the spans after the run.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped so each call records a span named `name`;
        on_result(tracer, result) runs after the span closes."""
        idx = self._intern(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_idx.append(idx)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def inside(self, name: str) -> bool:
        """True while a span named `name` is open."""
        idx = self._name_ids.get(name)
        return idx is not None and any(self.name_idx[s] == idx for s in self._stack[1:])

    def patch(self, modules, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap owner.attr ("func" or "Class.method") wherever it is bound.

        A plain function is replaced in every module of `modules` whose
        namespace binds the same object. Raises LookupError if nothing was
        patched, so a renamed function cannot silently report zero calls.
        """
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self._swap(cls, meth, self.wrap(name, original, on_result))
            return
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, on_result)
        bound = [
            (module, key)
            for module in modules
            for key, value in vars(module).items()
            if value is original
        ]
        if not bound:
            raise LookupError(f"{owner.__name__}.{attr} is bound nowhere")
        for module, key in bound:
            self._swap(module, key, wrapper)

    def _swap(self, target, key: str, value) -> None:
        self._restore.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    @contextmanager
    def patched(self):
        """Undo every patch when the block ends."""
        try:
            yield self
        finally:
            while self._restore:
                target, key, value = self._restore.pop()
                setattr(target, key, value)

    def arrays(self):
        """(name_idx, parent, duration, self_time) as numpy arrays; self
        time is a span's duration minus the durations of its direct
        children, which nest strictly because the run is single-threaded."""
        name_idx = np.frombuffer(self.name_idx, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        return name_idx, parent, duration, duration - children

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds s, and self seconds."""
        name_idx, _, duration, self_time = self.arrays()
        n = len(self.names)
        calls = np.bincount(name_idx, minlength=n)
        total = np.bincount(name_idx, weights=duration, minlength=n)
        own = np.bincount(name_idx, weights=self_time, minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def tree(self) -> list[dict]:
        """Spans aggregated by their path from the root: one row per
        distinct call path with calls, s and self_s, in first-seen order."""
        name_idx, parent, duration, self_time = self.arrays()
        path_of = np.empty(name_idx.size, dtype=np.int64)
        rows: list[dict] = []
        keys: dict[tuple[int, int], int] = {}
        for sid in range(name_idx.size):
            # parents open before their children, so their path is known
            parent_path = int(path_of[parent[sid]]) if parent[sid] >= 0 else -1
            key = (parent_path, int(name_idx[sid]))
            row = keys.get(key)
            if row is None:
                row = keys[key] = len(rows)
                prefix = rows[parent_path]["path"] + "/" if parent_path >= 0 else ""
                rows.append({"path": prefix + self.names[key[1]], "calls": 0, "s": 0.0, "self_s": 0.0})
            path_of[sid] = row
            rows[row]["calls"] += 1
            rows[row]["s"] += float(duration[sid])
            rows[row]["self_s"] += float(self_time[sid])
        return rows

    def write(self, directory) -> None:
        """Raw spans as trace_spans.npz and the aggregated tree as
        trace_tree.json."""
        name_idx, parent, _, _ = self.arrays()
        np.savez_compressed(
            directory / "trace_spans.npz",
            names=np.array(self.names),
            name_idx=name_idx,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        with open(directory / "trace_tree.json", "w") as fh:
            json.dump(self.tree(), fh, indent=1)
            fh.write("\n")

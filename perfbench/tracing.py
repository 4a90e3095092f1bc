"""In-memory span tracing of the ``shb`` package's public functions.

The benchmark wraps every public function of each ``shb`` module (a
function defined in that module whose name has no leading underscore)
and installs the wrapper at every import site that holds the function
object, because modules import each other's functions by name.  Each
call records a span: name, start, end, parent span and run id.  Spans
stay in memory and are written out once, when the traced command ends.

Self time is a span's duration minus the union of its children's
intervals, clipped to the span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "experiments", "solver", "sketch", "linalg", "theory", "problems", "io")


def _result_bytes(result) -> int:
    """Bytes of the arrays a call returns (directly or in a tuple)."""
    if isinstance(result, np.ndarray):
        return result.nbytes
    if isinstance(result, tuple):
        return sum(x.nbytes for x in result if isinstance(x, np.ndarray))
    return 0


class Tracer:
    """Collects one record per call: [name, start, end, parent record, bytes]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: list[list] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        records = self.records
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, 0]
            records.append(rec)
            stack.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                rec[4] = _result_bytes(result)
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "shb") -> None:
        """Wrap the public functions of every loaded ``package`` module.

        A wrapper is named ``<layer>.<function>``.  Every module attribute
        that is the same object as a wrapped function is replaced, so
        calls through ``from x import f`` are traced as well.
        """
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        by_id: dict[int, object] = {}
        for modname, mod in modules.items():
            layer = modname.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                by_id[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def spans(self) -> dict:
        """Columns of the recorded spans; a span's id is its position."""
        ids = {id(rec): i for i, rec in enumerate(self.records)}
        return {
            "run_id": self.run_id,
            "names": [r[0] for r in self.records],
            "starts": [r[1] for r in self.records],
            "ends": [r[2] for r in self.records],
            "parents": [-1 if r[3] is None else ids[id(r[3])] for r in self.records],
            "bytes": [r[4] for r in self.records],
        }

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans()))


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[sid], ends[sid]))
    out = []
    for sid, (s, e) in enumerate(zip(starts, ends)):
        kids = children.get(sid)
        out.append(e - s - (union_length(kids, s, e) if kids else 0.0))
    return out


def function_stats(spans: dict) -> dict[str, dict[str, float]]:
    """Per qualified function: calls, inclusive s, self_s, us_per_call, bytes."""
    selfs = self_times(spans["starts"], spans["ends"], spans["parents"])
    stats: dict[str, dict[str, float]] = {}
    for name, s, e, own, nb in zip(spans["names"], spans["starts"], spans["ends"], selfs, spans["bytes"]):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
        st["calls"] += 1
        st["s"] += e - s
        st["self_s"] += own
        st["bytes"] += nb
    for st in stats.values():
        st["us_per_call"] = 1e6 * st["s"] / st["calls"]
    return stats

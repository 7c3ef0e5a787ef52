"""In-memory span recording around the public functions of hsdcov's modules.

``SpanRecorder`` replaces each public function of the seven modules under
every module attribute that binds it (``pairwise_sq_distances`` is bound in
``hsdcov.matcore``, ``hsdcov.dcovstats``, ``hsdcov.experiments`` and the
package itself), so calls made by the library's own code are seen too. The
private replication functions of ``experiments`` are wrapped as well, so the
Monte-Carlo pipeline that runs on pool threads is attributed to that layer.

A span records (id, parent, layer, function, start, end, thread, op, output
bytes). The parent is the innermost open span of the same thread; a span
opened on a pool thread with nothing open there takes the op's outermost span
as parent. Self time is computed per thread: a span's duration minus the
union of its children's intervals. The part of that union covered only by
children on other threads is reported as pool wait, not as self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

LAYERS = ("matcore", "dcovstats", "theory", "testkit", "simgen", "experiments", "cli")
PRIVATE = {"experiments": ("_clt_replication", "_power_replication")}


class Span(NamedTuple):
    id: int
    parent: int | None
    layer: str
    name: str
    start: int
    end: int
    thread: int
    op: int | None
    out_bytes: int


class SpanRecorder:
    """Wraps hsdcov's public functions; ``install``/``uninstall`` switch the
    wrappers in and out of every binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._root: int | None = None
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"hsdcov.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and (not name.startswith("_") or name in PRIVATE.get(layer, ()))
                ):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        self._bindings = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hsdcov" and not mod_name.startswith("hsdcov."):
                continue
            for attr, value in vars(module).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value, hit[1]))

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _wrap(self, layer: str, name: str, fn):
        local, spans, ids, clock = self._local, self.spans, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            thread = threading.get_ident()
            is_root = not stack and thread == self._main
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            if is_root:
                self._root = sid
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if is_root:
                    self._root = None
                out_bytes = result.nbytes if isinstance(result, np.ndarray) else 0
                spans.append(
                    Span(sid, parent, layer, name, start, end, thread, self.op, out_bytes)
                )

        return traced

    def write_jsonl(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = min((s.start for s in self.spans), default=0)
        threads = {}
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "layer": s.layer,
                            "name": s.name,
                            "start_s": (s.start - t0) / 1e9,
                            "end_s": (s.end - t0) / 1e9,
                            "thread": threads.setdefault(s.thread, len(threads)),
                            "op": s.op,
                        }
                    )
                    + "\n"
                )


def _union_ns(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Totals over all spans: calls and self seconds per layer and per
    function, pool wait per layer, and the bytes of the distance matrices
    matcore computed.

    A function's self time also includes the self time of same-layer
    functions it calls on its thread (``resolve_bandwidth`` includes the
    median search of ``pairwise_distance_median``), so each figure is the
    time spent in that call's own layer.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        kids = children.get(s.id, ())
        covered = _union_ns(
            (max(c.start, s.start), min(c.end, s.end)) for c in kids if c.end > s.start
        )
        same_thread = sum(c.end - c.start for c in kids if c.thread == s.thread)
        self_s = (s.end - s.start - covered) / 1e9
        out[f"{s.layer}.calls"] += 1
        out[f"{s.layer}.self_s"] += self_s
        out[f"{s.layer}.pool_wait_s"] += max(covered - same_thread, 0) / 1e9
        names = {s.name}
        up = by_id.get(s.parent)
        while up is not None and up.layer == s.layer and up.thread == s.thread:
            names.add(up.name)
            up = by_id.get(up.parent)
        for name in names:
            out[f"{s.layer}.{name}.self_s"] += self_s
        out[f"{s.layer}.{s.name}.calls"] += 1
        if s.name == "pairwise_sq_distances":
            out["matcore.bytes_computed"] += s.out_bytes
    return out

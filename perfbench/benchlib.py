"""Helpers of the benchmark that do not depend on hodatalog: spans and
self time, percentiles, the BFS oracle, the simulation step bound and host
facts.  They are kept apart so that their tests run without the program."""

from __future__ import annotations

import math
import os
import platform
import time
from collections import deque

# Layers are named after the modules of the program.  A span belongs to the
# longest layer name that is a dotted prefix of its own name; spans of no
# layer (the benchmark's own glue) count as unattributed.
LAYERS = ("codegen", "syntax", "typecheck", "encode",
          "engines.seminaive", "engines.demand", "tm")

# Percentiles the tail rule chooses from, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Spans kept in memory: (id, name, parent id, decision id, start, end)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def span(self, name, decision=None):
        return _Span(self, name, decision)


class _Span:
    __slots__ = ("tracer", "name", "decision", "sid", "parent", "start")

    def __init__(self, tracer, name, decision):
        self.tracer = tracer
        self.name = name
        self.decision = decision

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans)
        self.parent = None
        if tr._stack:
            self.parent = tr._stack[-1].sid
            if self.decision is None:
                self.decision = tr._stack[-1].decision
        tr.spans.append(None)  # reserve the id; filled in on exit
        tr._stack.append(self)
        self.start = tr.clock()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        end = tr.clock()
        tr._stack.pop()
        tr.spans[self.sid] = (self.sid, self.name, self.parent, self.decision,
                              self.start, end)
        return False


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> its duration minus the time its child spans cover."""
    children = {}
    for sid, _, parent, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, ()), start, end)
            for sid, _, _, _, start, end in spans}


def layer_of(name):
    best = None
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            if best is None or len(layer) > len(best):
                best = layer
    return best


def layer_self_times(spans):
    """Layer -> summed self time; spans of no layer go to None."""
    out = {layer: 0.0 for layer in LAYERS}
    out[None] = 0.0
    selfs = self_times(spans)
    for sid, name, _, _, _, _ in spans:
        out[layer_of(name)] += selfs[sid]
    return out


def nearest_rank(sorted_values, p):
    """The p-th percentile by the nearest-rank rule (no interpolation)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1]


def tail_percentile(values, ladder=TAIL_LADDER, min_beyond=TAIL_MIN_BEYOND):
    """The highest ladder percentile with at least `min_beyond` samples
    beyond its rank: (percentile, value, sample count), or None when even
    the lowest rung has too few."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in ladder:
        if n - max(1, math.ceil(p / 100.0 * n)) >= min_beyond:
            best = (p, nearest_rank(xs, p), n)
    return best


def bfs_reachable(edges, source):
    """Nodes reachable from source by one or more edges."""
    succ = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    seen = set()
    queue = deque(succ.get(source, ()))
    while queue:
        x = queue.popleft()
        if x in seen:
            continue
        seen.add(x)
        queue.extend(succ.get(x, ()))
    return seen


def sim_bound(k, d, n):
    """Machine steps an order-k, d-tuple program simulates on length-n
    input: n^d - 1 at k=1, expk(k-1, n^d) - 1 above; the short-string rules
    cover n < 2 with a horizon of 10^6."""
    if n < 2:
        return 10 ** 6
    steps = n ** d
    for _ in range(k - 1):
        steps = 2 ** steps
    return steps - 1


def host_info():
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_model": cpu,
            "nproc": (len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else os.cpu_count())}

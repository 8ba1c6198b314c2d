"""Traced mode: spans and counts around the program's layers.

The tracer wraps public functions of the program from outside, by
replacing module attributes while it is installed.  A function that another
module imported by name is wrapped there too (``percolation.realize``,
``brownian.nearest`` and so on), so every call path is seen.  Each wrapped
call is a span with a name, start, end and the index of the span that was
open when it began; a span's self time is its duration minus the time its
child spans cover.  Spans are kept in memory and written out by save().
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from interperc import brownian, interpolators, percolation, randomsets

_REALIZE_KIND = {
    randomsets.Poisson: "poisson",
    randomsets.RenewalWeibull: "renewal",
    randomsets.Periodic: "periodic",
    randomsets.BooleanComplement: "boolean",
}

#: (owner, attribute, span name) for every wrapped call site.
_SPANS = [
    (randomsets.RngStream, "child", "randomsets.child"),
    (randomsets, "extend", "randomsets.extend"),
    (randomsets, "nearest", "randomsets.nearest"),
    (brownian, "nearest", "randomsets.nearest"),
    (interpolators, "nearest", "randomsets.nearest"),
    (randomsets, "max_void_radius", "randomsets.max_void_radius"),
    (interpolators, "max_void_radius", "randomsets.max_void_radius"),
    (percolation, "strip_lines", "percolation.strip_lines"),
    (percolation, "lipschitz_feasible", "percolation.lipschitz_feasible"),
    (percolation, "crossing_probability", "percolation.crossing_probability"),
    (interpolators, "continuous_interpolate", "interpolators.continuous_interpolate"),
    (interpolators, "monotone_interpolate", "interpolators.monotone_interpolate"),
    (interpolators, "min_total_variation", "interpolators.min_total_variation"),
    (brownian, "brownian_path", "brownian.brownian_path"),
    (brownian, "midpoint_displacements", "brownian.midpoint_displacements"),
]

#: Modules whose ``realize`` is wrapped; the span is named by model kind.
_REALIZE_SITES = [randomsets, percolation, brownian]


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.counts: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self._stack: list = []       # [name, span index, child time]
        self._patches: list = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name=None, kind_of=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            nm = name or kind_of(args)
            nid = self._name_ids.get(nm)
            if nid is None:
                nid = self._name_ids[nm] = len(self.names)
                self.names.append(nm)
            idx = len(self.span_t0)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][1] if stack else -1)
            self.span_t0.append(0.0)
            self.span_t1.append(0.0)
            frame = [nm, idx, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.span_t0[idx] = t0
                self.span_t1[idx] = t1
                self.self_time[nm] += (t1 - t0) - frame[2]
                self.counts[nm + ".calls"] += 1
                if stack:
                    stack[-1][2] += t1 - t0
            if kind_of is not None:
                self._count_realize(nm, out)
            return out
        return wrapper

    def _count_realize(self, nm, rs):
        n = len(rs.values) if rs.values is not None else len(rs.hole_lo)
        self.counts[nm + ".points"] += n
        if self._stack and self._stack[-1][0] == "percolation.strip_lines":
            self.counts["percolation.lines_realized"] += 1

    def _wrap_ensure_window(self, fn):
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][0] == "percolation.lipschitz_feasible":
                self.counts["percolation.columns_visited"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _SPANS:
            # A layer the program no longer has reads 0 instead of failing.
            if hasattr(owner, attr):
                self._patch(owner, attr, self._wrap(getattr(owner, attr), name=name))
        for mod in _REALIZE_SITES:
            self._patch(mod, "realize", self._wrap(
                mod.realize,
                kind_of=lambda args: "randomsets.realize." + _REALIZE_KIND[type(args[0])]))
        self._patch(percolation, "ensure_window",
                    self._wrap_ensure_window(percolation.ensure_window))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output -----------------------------------------------------------

    def take_self_times(self) -> dict:
        """Self seconds per span name since the last call, then reset."""
        out = dict(self.self_time)
        self.self_time.clear()
        return out

    def save(self, path, **meta) -> None:
        """Write every span and count to an .npz file."""
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 t0=np.frombuffer(self.span_t0, dtype=np.float64),
                 t1=np.frombuffer(self.span_t1, dtype=np.float64),
                 count_names=np.array(sorted(self.counts), dtype=str),
                 count_values=np.array([self.counts[k] for k in sorted(self.counts)],
                                       dtype=np.int64),
                 **{k: np.asarray(v) for k, v in meta.items()})

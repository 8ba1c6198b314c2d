"""Interpolating functions through families of realized line sets.

Given lines at distinct abscissae, each carrying a realized random subset of
the vertical axis, these constructions produce functions f with f(x) inside
line x's set: a continuous piecewise-linear interpolant built by dyadic
refinement, a nondecreasing step interpolant, and bounded-variation traces
driven by sign sequences (greedy and exactly minimal).

Chosen points are recorded by identity (structural point ids), so membership
checks never involve floating-point tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .randomsets import (Poisson, RealizedSet, ensure_window, max_void_radius,
                         nearest)


@dataclass(frozen=True)
class Line:
    """A vertical line at abscissa x carrying its realized set."""

    x: float
    realized: RealizedSet


#: A sign sequence is a tuple over {+1, -1}; +1 means "jump to the first
#: point at or above", -1 the mirror image.
SignSequence = tuple


class PiecewiseLinearFunction:
    """Continuous piecewise-linear function given by knots (x, y, point_id).

    Evaluation is exact at knots and clamps to the boundary values outside
    the knot range.
    """

    def __init__(self, knots: Sequence[tuple]):
        ks = sorted(knots, key=lambda t: t[0])
        xs = [k[0] for k in ks]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("knot abscissae must be strictly increasing")
        self.knots = [(float(x), float(y), pid) for x, y, pid in ks]
        self._xs = np.array([k[0] for k in self.knots])
        self._ys = np.array([k[1] for k in self.knots])

    @property
    def knot_xs(self) -> np.ndarray:
        return self._xs

    def __call__(self, x):
        q = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self._xs, q, side="left")
        idx_c = np.clip(idx, 0, len(self._xs) - 1)
        exact = self._xs[idx_c] == q
        lo = np.clip(idx - 1, 0, len(self._xs) - 1)
        hi = np.clip(idx, 0, len(self._xs) - 1)
        x0, x1 = self._xs[lo], self._xs[hi]
        y0, y1 = self._ys[lo], self._ys[hi]
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(x1 > x0, (q - x0) / (x1 - x0), 0.0)
        out = y0 + t * (y1 - y0)
        out = np.where(exact, self._ys[idx_c], out)
        out = np.where(q <= self._xs[0], self._ys[0], out)
        out = np.where(q >= self._xs[-1], self._ys[-1], out)
        return float(out) if np.isscalar(x) or out.ndim == 0 else out


class StepFunction:
    """Right-continuous step function with breakpoints (x, y, point_id)."""

    def __init__(self, breakpoints: Sequence[tuple], left_value: float = 0.0):
        bs = sorted(breakpoints, key=lambda t: t[0])
        xs = [b[0] for b in bs]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        self.breakpoints = [(float(x), float(y), pid) for x, y, pid in bs]
        self.left_value = float(left_value)
        self._xs = np.array([b[0] for b in self.breakpoints])
        self._ys = np.array([b[1] for b in self.breakpoints])

    def __call__(self, x):
        q = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self._xs, q, side="right") - 1
        out = np.where(idx >= 0, self._ys[np.clip(idx, 0, None)], self.left_value)
        return float(out) if np.isscalar(x) or out.ndim == 0 else out

    @property
    def values(self) -> np.ndarray:
        return self._ys

    @property
    def sup_norm(self) -> float:
        m = float(np.max(np.abs(self._ys))) if self._ys.size else 0.0
        return max(abs(self.left_value), m)

    def is_nondecreasing(self) -> bool:
        seq = np.concatenate([[self.left_value], self._ys])
        return bool(np.all(np.diff(seq) >= 0))


@dataclass(frozen=True)
class TraceResult:
    """A sign-driven trace: g_0 = 0 and g_i jumps to a realized point."""

    signs: SignSequence
    values: tuple            # g_0 .. g_n
    point_ids: tuple         # None for g_0
    total_variation: float
    weighted_variation: Optional[float]


class LevelRecord(NamedTuple):
    level: int
    lines_added: int
    sup_change: float


# ---------------------------------------------------------------------------
# continuous construction


def continuous_interpolate(lines: Sequence[Line], a0: float, a1: float,
                           b0: float, b1: float,
                           level_log: Optional[list] = None) -> PiecewiseLinearFunction:
    """Continuous piecewise-linear interpolant through all line sets.

    Pins the endpoints (a0, b0) and (a1, b1), then admits lines in order of
    how sparse they are: a line whose largest void over the working corridor
    has radius r enters at the level n where 2**-n first drops to r,
    and is pinned to its set point nearest the current interpolant there.
    Successive levels move the function by at most 2**-(n-1) (asserted, on
    the union of knot abscissae, every run).  Lines whose set covers the
    whole corridor are pinned last at their current value, which is exact.

    Every level's per-run bound can be appended to level_log as LevelRecord
    entries when a list is passed.
    """
    if not (a0 < a1):
        raise ValueError(f"need a0 < a1, got {a0}, {a1}")
    if not all(a0 < ln.x < a1 for ln in lines):
        raise ValueError("line abscissae must lie strictly between a0 and a1")
    if len({ln.x for ln in lines}) != len(lines):
        raise ValueError("line abscissae must be pairwise distinct")

    # corridor half-height: 2 more than the largest distance-to-origin among
    # lines with a unit void near the origin (and than the endpoint values)
    d0 = 0.0
    for ln in lines:
        if max_void_radius(ln.realized, (-1.0, 1.0)).radius >= 1.0:
            d0 = max(d0, nearest(ln.realized, 0.0, "both").distance)
    half = max(d0, abs(b0), abs(b1)) + 2.0

    groups: dict[int, list[Line]] = {}
    covered: list[Line] = []
    for ln in lines:
        r = max_void_radius(ln.realized, (-half, half)).radius
        if r == 0.0:
            covered.append(ln)
            continue
        n = 0
        while 2.0 ** -n > r:
            n += 1
        groups.setdefault(n, []).append(ln)

    knots = {a0: (float(b0), None), a1: (float(b1), None)}
    f = PiecewiseLinearFunction([(x, y, pid) for x, (y, pid) in knots.items()])
    for n in range(0, (max(groups) + 1) if groups else 0):
        prev = f
        for ln in groups.get(n, ()):
            target = 0.0 if n == 0 else prev(ln.x)
            hit = nearest(ln.realized, target, "both")
            if n > 0:
                assert hit.distance <= 2.0 ** -(n - 1), \
                    f"level {n} displacement {hit.distance} at x={ln.x}"
            knots[ln.x] = (hit.value, hit.point_id)
        f = PiecewiseLinearFunction([(x, y, pid) for x, (y, pid) in knots.items()])
        sup = float(np.max(np.abs(f(f.knot_xs) - prev(f.knot_xs))))
        if n > 0:
            assert sup <= 2.0 ** -(n - 1), f"level {n} moved the function by {sup}"
        if level_log is not None:
            level_log.append(LevelRecord(n, len(groups.get(n, ())), sup))
    for ln in covered:
        hit = nearest(ln.realized, f(ln.x), "both")
        assert hit.distance == 0.0
        knots[ln.x] = (hit.value, hit.point_id)
    return PiecewiseLinearFunction([(x, y, pid) for x, (y, pid) in knots.items()])


# ---------------------------------------------------------------------------
# monotone construction


def monotone_interpolate(lines: Sequence[Line], start: float = 0.0) -> StepFunction:
    """Smallest nondecreasing step interpolant from the given start value.

    Lines must come sorted by abscissa.  Each step jumps to the smallest set
    point at or above the previous value, so the sup-norm over the covered
    range is attained at the final value.
    """
    xs = [ln.x for ln in lines]
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError("lines must be sorted by strictly increasing abscissa")
    y = float(start)
    bps = []
    for ln in lines:
        hit = nearest(ln.realized, y, "up")
        y = hit.value
        bps.append((ln.x, y, hit.point_id))
    return StepFunction(bps, left_value=start)


# ---------------------------------------------------------------------------
# bounded-variation traces


def _weighted(lines, values) -> Optional[float]:
    if not all(isinstance(ln.realized.model, Poisson) for ln in lines):
        return None
    terms = [ln.realized.model.intensity * abs(values[i + 1] - values[i])
             for i, ln in enumerate(lines)]
    return math.fsum(terms)


def _walk(lines, sign_at) -> TraceResult:
    # g_0 = 0, then on line i jump up (+1) or down (-1) from g as sign_at(i, g) says
    g = 0.0
    signs, values, pids = [], [0.0], [None]
    for i, ln in enumerate(lines):
        s = sign_at(i, g)
        hit = nearest(ln.realized, g, "up" if s > 0 else "down")
        g = hit.value
        signs.append(s)
        values.append(g)
        pids.append(hit.point_id)
    tv = math.fsum(abs(b - a) for a, b in zip(values, values[1:]))
    return TraceResult(tuple(signs), tuple(values), tuple(pids), tv,
                       _weighted(lines, values))


def trace_signs(lines: Sequence[Line], signs: Sequence[int]) -> TraceResult:
    """Trace a given sign sequence: g_0 = 0, then jump as each sign directs."""
    if len(signs) != len(lines):
        raise ValueError("need one sign per line")
    if any(s not in (+1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    return _walk(lines, lambda i, g: signs[i])


def greedy_trace(lines: Sequence[Line], f_values: Sequence[float]) -> TraceResult:
    """Sign-mimicking trace of a candidate interpolant.

    f_values[i] must be a point of line i's set (checked by exact value).
    The trace reads off s_i = sign(f_i - g_{i-1}) (zero counts as +) and
    jumps accordingly; its total variation never exceeds that of the
    candidate path 0, f_1, ..., f_n.
    """
    if len(f_values) != len(lines):
        raise ValueError("need one f value per line")
    for ln, fv in zip(lines, f_values):
        rs = ln.realized
        lo, hi = rs.window
        fv = float(fv)
        if (fv < lo or fv > hi) and rs.model is not None and rs.stream is not None:
            rs = ensure_window(rs, min(fv, lo), max(fv, hi))
        if not rs.contains_value(fv):
            raise ValueError(f"f value {fv} is not a realized point of line x={ln.x}")
    res = _walk(lines, lambda i, g: +1 if f_values[i] >= g else -1)
    f_tv = math.fsum(abs(b - a) for a, b in zip((0.0, *map(float, f_values)),
                                                map(float, f_values)))
    assert res.total_variation <= f_tv, "greedy trace exceeded the candidate's variation"
    return res


def min_total_variation(lines: Sequence[Line],
                        method: str = "reachable_states") -> TraceResult:
    """Minimal-total-variation trace over all 2**n sign sequences.

    "reachable_states" folds sign paths that land on the same realized point,
    keeping the smaller accumulated variation (sound because future jumps
    depend only on the current value).  "brute_force" walks the full sign
    tree and is kept as a reference; it refuses n > 24.
    """
    if method not in ("reachable_states", "brute_force"):
        raise ValueError(f"unknown method {method!r}")
    n = len(lines)
    # (line, value, sign) -> jump target, shared by sign paths meeting on a line
    memo: dict = {}

    def hop(i, g, s):
        key = (i, g, s)
        v = memo.get(key)
        if v is None:
            v = memo[key] = nearest(lines[i].realized, g, "up" if s > 0 else "down").value
        return v

    if method == "brute_force":
        if n > 24:
            raise ValueError("brute_force is limited to 24 lines")
        best = None

        def walk(i, g, cost, signs):
            nonlocal best
            if i == n:
                if best is None or cost < best[0]:
                    best = (cost, tuple(signs))
                return
            for s in (+1, -1):
                v = hop(i, g, s)
                signs.append(s)
                walk(i + 1, v, cost + abs(v - g), signs)
                signs.pop()

        walk(0, 0.0, 0.0, [])
        return trace_signs(lines, best[1])

    # value -> (accumulated tv, parent value, sign taken to get here)
    layer = {0.0: (0.0, None, None)}
    layers = [layer]
    for i in range(n):
        nxt: dict = {}
        for g, (cost, _, _) in layer.items():
            for s in (+1, -1):
                v = hop(i, g, s)
                c = cost + abs(v - g)
                old = nxt.get(v)
                if old is None or c < old[0]:
                    nxt[v] = (c, g, s)
        layer = nxt
        layers.append(layer)
    end = min(layer.items(), key=lambda kv: (kv[1][0], kv[0]))
    signs = []
    v = end[0]
    for i in range(n, 0, -1):
        cost, parent, s = layers[i][v]
        signs.append(s)
        v = parent
    signs.reverse()
    return trace_signs(lines, signs)


def weighted_variation_diagnostic(trace: TraceResult,
                                  intensities: Sequence[float]) -> list:
    """Per-step weighted jumps lam_i * |g_i - g_{i-1}|.

    Along a fixed sign sequence over independent Poisson lines these are
    i.i.d. standard exponentials, which makes them a useful calibration
    diagnostic.
    """
    steps = len(trace.values) - 1
    if len(intensities) != steps:
        raise ValueError(f"need {steps} intensities, got {len(intensities)}")
    return [float(lam) * abs(trace.values[i + 1] - trace.values[i])
            for i, lam in enumerate(intensities)]


# ---------------------------------------------------------------------------
# plot geometry (the CLI draws the plots)


def polyline_geometry(f: PiecewiseLinearFunction) -> list:
    """Plot geometry for the continuous interpolant: one polyline."""
    return [(x, y) for x, y, _ in f.knots]


def step_geometry(f: StepFunction, x_start: float, x_end: float) -> list:
    """Plot geometry for a step interpolant: the staircase polyline."""
    pts = [(x_start, f.left_value)]
    for x, y, _ in f.breakpoints:
        pts.append((x, pts[-1][1]))
        pts.append((x, y))
    pts.append((x_end, pts[-1][1]))
    return pts

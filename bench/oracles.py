"""Checks of the program's outputs that share no logic with the program.

Each oracle takes realized sets (made by the program's ``realize``, which is
the input being simulated) and recomputes a result by a different method:
a reachable-interval sweep instead of the nearest-neighbour sweep of
``lipschitz_feasible``, plain numpy nearest-point and membership tests on a
re-realized wider window instead of ``nearest``, and an exhaustive 2**n sign
search instead of the reachable-state folding of ``min_total_variation``.

Every ``check_*`` function returns a list of problems; an empty list means
the outputs are correct.
"""

from __future__ import annotations

import math

import numpy as np

from interperc.randomsets import RenewalWeibull, RngStream, realize

# ---------------------------------------------------------------------------
# crossing


def reachable_sweep(point_sets, k: float, corridor: tuple) -> bool:
    """Whether one point per line can be chosen with steps of at most k.

    point_sets holds each line's sorted points, covering the band
    [lo - k, hi + k].  The reachable region after each line is kept as a
    union of closed intervals [p - k, p + k] around the reachable points.
    """
    lo, hi = corridor
    band_lo, band_hi = lo - k, hi + k
    pts = point_sets[0]
    reach = pts[(pts >= lo) & (pts <= hi)]
    for pts in point_sets[1:]:
        if reach.size == 0:
            return False
        starts, ends = reach - k, reach + k
        breaks = np.flatnonzero(starts[1:] > ends[:-1]) + 1
        iv_lo = starts[np.r_[0, breaks]]
        iv_hi = ends[np.r_[breaks - 1, reach.size - 1]]
        cand = pts[(pts >= band_lo) & (pts <= band_hi)]
        j = np.searchsorted(iv_lo, cand, side="right") - 1
        inside = (j >= 0) & (cand <= iv_hi[np.maximum(j, 0)])
        reach = cand[inside]
    return reach.size > 0


def check_crossing_count(label: str, successes: int, oracle_flags) -> list:
    """The program's success count equals the oracle's."""
    want = int(sum(oracle_flags))
    if successes != want:
        return [f"{label}: program counted {successes} crossings, oracle {want}"]
    return []


def check_feasible_path(label: str, path, point_sets, k: float,
                        corridor: tuple) -> list:
    """A path returned by lipschitz_feasible is made of set points, starts
    in the corridor and moves by at most k per line."""
    if len(path) != len(point_sets):
        return [f"{label}: path has {len(path)} values for {len(point_sets)} lines"]
    ys = np.asarray(path, dtype=np.float64)
    problems = []
    if not (corridor[0] <= ys[0] <= corridor[1]):
        problems.append(f"{label}: path starts at {ys[0]} outside {corridor}")
    if ys.size > 1 and np.abs(np.diff(ys)).max() > k:
        problems.append(f"{label}: path step {np.abs(np.diff(ys)).max()} exceeds {k}")
    for j, (y, pts) in enumerate(zip(ys, point_sets)):
        if not np.any(pts == y):
            problems.append(f"{label}: path value {y!r} is not a point of line {j + 1}")
            break
    return problems


def check_intensity(label: str, points: int, length: float, lam: float) -> list:
    """Realized points per unit length lie within 5 SE of the intensity."""
    se = math.sqrt(lam / length)
    rate = points / length
    if abs(rate - lam) > 5.0 * se:
        return [f"{label}: {rate:.5f} points per unit length, intensity {lam} "
                f"({abs(rate - lam) / se:.1f} SE)"]
    return []


# ---------------------------------------------------------------------------
# Brownian paths


def nearest_tie_up(vals: np.ndarray, target: float) -> float:
    """Nearest value to target in a nonempty array, ties broken upward."""
    d = np.abs(vals - target)
    return float(vals[d == d.min()].max())


def _line_points(seed: int, level: int, numerator: int, target: float,
                 spacing: float) -> tuple:
    stream = RngStream(seed).child("level", level, "k", numerator)
    pad = 16.0 * spacing
    rs = realize(RenewalWeibull(level), stream, (target - pad, target + pad))
    return rs.values, pad


def check_path(seed: int, depth: int, ys: np.ndarray) -> list:
    """Every path value is a point of its own line and is that line's point
    nearest to the average of its two neighbours one level up.

    ys holds the path values at k / 2**depth for k = 0 .. 2**depth.
    """
    n = 2 ** depth
    if len(ys) != n + 1:
        return [f"seed {seed}: {len(ys)} values for depth {depth}"]
    problems = []
    if ys[0] != 0.0:
        problems.append(f"seed {seed}: path is not anchored at 0")
    todo = [(-1, 1, n, 0.0)]
    for r in range(1, depth + 1):
        stride = 2 ** (depth - r)
        for k in range(1, 2 ** r, 2):
            target = 0.5 * (ys[(k - 1) * stride] + ys[(k + 1) * stride])
            todo.append((r, k, k * stride, target))
    for level, k, i, target in todo:
        y = float(ys[i])
        spacing = math.sqrt(math.pi) * 2.0 ** (-level / 2.0)
        vals, pad = _line_points(seed, level, k, target, spacing)
        x = i / n
        if not np.any(vals == y):
            problems.append(f"seed {seed}: f({x}) = {y!r} is not a point of its line")
        else:
            want = nearest_tie_up(vals, target)
            if abs(want - target) >= pad:
                problems.append(f"seed {seed}: no point near {target} at x={x}")
            elif y != want:
                problems.append(f"seed {seed}: f({x}) = {y!r}, nearest point "
                                f"to {target!r} is {want!r}")
        if len(problems) >= 5:
            break
    return problems


def check_variance(label: str, samples: np.ndarray, target: float) -> list:
    """Sample variance within 5 SE of the target variance."""
    n = samples.size
    if n < 3:
        return [f"{label}: only {n} samples"]
    v = float(samples.var(ddof=1))
    se = target * math.sqrt(2.0 / (n - 1))
    if abs(v - target) > 5.0 * se:
        return [f"{label}: variance {v:.4e} vs {target:.4e} "
                f"({abs(v - target) / se:.1f} SE)"]
    return []


# ---------------------------------------------------------------------------
# interpolation


def is_member(rs, y: float) -> bool:
    """Exact membership of y in a realization whose window covers y."""
    lo, hi = rs.window
    if not (lo <= y <= hi):
        raise ValueError(f"{y} outside realized window {rs.window}")
    if rs.values is not None:
        return bool(np.any(rs.values == y))
    return not bool(np.any((rs.hole_lo < y) & (y < rs.hole_hi)))


def check_knots(label: str, lines, knots, ends) -> list:
    """Every knot of a continuous interpolant is a point of its line.

    lines is a list of (x, model, stream); knots the interpolant's (x, y)
    knot pairs; ends the pinned (x, y) endpoints.
    """
    got = {float(x): float(y) for x, y in knots}
    problems = []
    if len(got) != len(lines) + len(ends):
        problems.append(f"{label}: {len(got)} knots for {len(lines)} lines")
    for x, y in ends:
        if got.get(x) != y:
            problems.append(f"{label}: endpoint ({x}, {y}) not kept")
    for x, model, stream in lines:
        y = got.get(x)
        if y is None:
            problems.append(f"{label}: no knot at x={x}")
            continue
        rs = realize(model, stream, (min(y, -1.0) - 1.0, max(y, 1.0) + 1.0))
        if not is_member(rs, y):
            problems.append(f"{label}: knot ({x}, {y!r}) is not in its line's set")
    return problems


def check_monotone(label: str, lines, values, start: float) -> list:
    """Each step is the least set point at or above the previous value.

    lines is a list of (x, model, stream, intensity) in abscissa order.
    """
    if len(values) != len(lines):
        return [f"{label}: {len(values)} steps for {len(lines)} lines"]
    prev = start
    for (x, model, stream, lam), y in zip(lines, values):
        y = float(y)
        rs = realize(model, stream, (prev, max(y, prev) + 1.0 / lam))
        v = rs.values
        if not np.any(v == y):
            return [f"{label}: step {y!r} at x={x} is not a set point"]
        if np.any((v >= prev) & (v < y)):
            return [f"{label}: a set point in [{prev!r}, {y!r}) at x={x} was skipped"]
        prev = y
    return []


def check_mean(label: str, samples: np.ndarray, target: float) -> list:
    """Sample mean within 5 SE of the target."""
    n = samples.size
    if n < 3:
        return [f"{label}: only {n} samples"]
    mean = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(n)
    if abs(mean - target) > 5.0 * se:
        return [f"{label}: mean {mean:.5f} vs {target:.5f} "
                f"({abs(mean - target) / se:.1f} SE)"]
    return []


def exhaustive_min_variation(point_sets) -> float:
    """Least total variation over all 2**n sign sequences.

    g_0 = 0; sign + jumps to the least point at or above g, sign - to the
    greatest point at or below it.  All sequences are walked at once as one
    numpy array per step.  Each point set must reach past every value the
    walk visits; a walk that runs off an end raises.
    """
    g = np.zeros(1)
    cost = np.zeros(1)
    for pts in point_sets:
        iu = np.searchsorted(pts, g, side="left")
        idn = np.searchsorted(pts, g, side="right") - 1
        if iu.max() >= pts.size or idn.min() < 0:
            raise ValueError("point set too narrow for the sign search")
        up, dn = pts[iu], pts[idn]
        cost = np.concatenate([cost + (up - g), cost + (g - dn)])
        g = np.concatenate([up, dn])
    return float(cost.min())


def check_min_variation(label: str, program_tv: float, point_sets) -> list:
    """The program's minimal total variation equals the exhaustive search."""
    want = exhaustive_min_variation(point_sets)
    if not math.isclose(program_tv, want, rel_tol=1e-12, abs_tol=1e-12):
        return [f"{label}: min total variation {program_tv!r}, "
                f"exhaustive search {want!r}"]
    return []

"""Brownian paths on a dyadic grid, built from nested renewal lines.

Each dyadic abscissa carries its own independent renewal line whose point
spacing shrinks with the refinement level.  The path value at a new abscissa
is the line's set point nearest to the average of the two neighbors one level
up.  The signed nearest-point offset of a level-n line is exactly
N(0, 2**-(n+1)), which is the conditional midpoint law of Brownian motion, so
the finished grid has exactly the joint law of a Brownian path sampled at
spacing 2**-depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .randomsets import RenewalWeibull, RngStream, nearest, realize

_SQRT_PI = math.sqrt(math.pi)

#: Anchor id used for the fixed value at x = 0.
ANCHOR_ID = ("anchor", 0, 0)


def mean_spacing(level: int) -> float:
    """Mean interarrival of a level-n renewal line: sqrt(pi) * 2**(-n/2)."""
    return _SQRT_PI * 2.0 ** (-level / 2.0)


def displacement_variance(level: int) -> float:
    """Variance of the signed nearest-point offset for a level-n line."""
    return 2.0 ** -(level + 1)


def signed_displacement(rs, target: float):
    """Offset from target to its nearest set point, ties broken upward.

    Returns (offset, nearest_point, tied) where tied reports whether the
    two one-sided candidates were exactly equidistant.
    """
    up = nearest(rs, target, "up")
    dn = nearest(rs, target, "down")
    tied = up.distance == dn.distance and up.value != dn.value
    pick = dn if dn.distance < up.distance else up
    return pick.value - target, pick, tied


@dataclass(frozen=True)
class DyadicPath:
    """Path values on the grid {k / 2**depth : k = 0..2**depth}.

    values maps each grid abscissa to (value, point_id); the id names the
    chosen point on that abscissa's line, except at x = 0.0 which is the
    fixed anchor (0.0, ANCHOR_ID).  tie_count is how many nearest-point
    queries saw exactly equidistant candidates (broken upward).
    """

    seed: int
    depth: int
    values: dict
    tie_count: int

    def grid(self):
        """Sorted abscissas and their path values as arrays."""
        xs = np.array(sorted(self.values), dtype=np.float64)
        ys = np.array([self.values[x][0] for x in xs])
        return xs, ys

    def increments(self) -> np.ndarray:
        """Consecutive differences along the grid; iid N(0, 2**-depth)."""
        return np.diff(self.grid()[1])


def line_stream(seed: int, level: int, numerator: int) -> RngStream:
    """Stream of the line at abscissa numerator / 2**level.

    level -1 with numerator 1 is the endpoint line at x = 1; refinement
    level r >= 1 uses odd numerators.
    """
    return RngStream(seed).child("level", level, "k", numerator)


def _line_value(level, stream, target):
    # signed_displacement on the level's line, realized 4 mean spacings around target
    pad = 4.0 * mean_spacing(level)
    rs = realize(RenewalWeibull(level), stream, (target - pad, target + pad))
    return signed_displacement(rs, target)


def brownian_path(seed: int, depth: int) -> DyadicPath:
    """Build the dyadic-grid path for the given seed and depth (0..20).

    x = 0 anchors at 0.0; x = 1 takes the nearest point of a level -1 line
    (law N(0, 1)); refinement level r fills in odd k / 2**r using level-r
    lines targeted at the neighbor average, so each new value equals the
    average plus an independent N(0, 2**-(r+1)) offset.
    """
    if not (isinstance(depth, int) and 0 <= depth <= 20):
        raise ValueError(f"depth must be an integer in 0..20, got {depth}")
    values = {0.0: (0.0, ANCHOR_ID)}
    ties = 0
    _, pick, tied = _line_value(-1, line_stream(seed, -1, 1), 0.0)
    values[1.0] = (pick.value, pick.point_id)
    ties += tied
    for r in range(1, depth + 1):
        step = 2.0 ** -r
        for k in range(1, 2 ** r, 2):
            left = values[(k - 1) * step][0]
            right = values[(k + 1) * step][0]
            target = 0.5 * (left + right)
            _, pick, tied = _line_value(r, line_stream(seed, r, k), target)
            values[k * step] = (pick.value, pick.point_id)
            ties += tied
    return DyadicPath(seed, depth, values, ties)


def midpoint_displacements(level: int, count: int, seed: int) -> np.ndarray:
    """Signed nearest-point offsets from 0 over iid level-n lines.

    Samples the refinement step in isolation; the law is N(0, 2**-(level+1)).
    """
    base = RngStream(seed)
    return np.array([_line_value(level, base.child("disp", i), 0.0)[0]
                     for i in range(count)])

"""Lipschitz interpolation across unit-spaced lines as a percolation problem.

A family of lines at consecutive integer abscissae is "K-feasible" when some
choice of one set point per line moves by at most K between neighbours.
Feasibility maps onto an oriented site lattice whose sites are height-4
segments with a parity-alternating offset; K = 2 feasibility implies a
directed lattice crossing, and a crossing implies K = 6 feasibility.  The
crossing probability rises from 0 to 1 in the Poisson intensity, and a
bisection brackets the intensity where it passes one half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .interpolators import Line
from .randomsets import Poisson, RngStream, _gaps_meeting, ensure_window, realize


class BracketNotFoundError(RuntimeError):
    """The configured intensity range does not straddle the threshold."""


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo success-probability estimate with a 95% Wilson score CI."""

    successes: int
    trials: int

    @property
    def p_hat(self) -> float:
        return self.successes / self.trials

    @property
    def ci95(self) -> tuple:
        """Wilson score interval (Wilson, JASA 1927), clamped to [0, 1]; unlike
        the normal (Wald) interval it keeps a nonzero width at p_hat = 0 or 1."""
        n, p, z2 = self.trials, self.p_hat, 1.96 ** 2
        center = (p + z2 / (2 * n)) / (1.0 + z2 / n)
        half = 1.96 / (1.0 + z2 / n) * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n))
        return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# feasibility


def lipschitz_feasible(lines: Sequence[Line], k: float,
                       corridor: tuple) -> Optional[list]:
    """One set point per line with steps bounded by k, or None.

    The first point is confined to the closed corridor [lo, hi]; later
    points may roam [lo - k, hi + k].  Returns the chosen values in line
    order; infeasibility is certified by an empty reachable set at some
    line, which the forward sweep detects exactly.
    """
    lo, hi = _check_step_and_corridor(k, corridor)
    if not lines:
        raise ValueError("need at least one line")
    band_lo, band_hi = lo - k, hi + k

    def candidates(ln, b_lo, b_hi):
        rs = ensure_window(ln.realized, b_lo, b_hi)
        if rs.values is None:
            raise ValueError("lipschitz_feasible needs point-kind sets")
        v = rs.values
        i0 = int(np.searchsorted(v, b_lo, side="left"))
        i1 = int(np.searchsorted(v, b_hi, side="right"))
        return v[i0:i1]

    reach = candidates(lines[0], lo, hi)
    if reach.size == 0:
        return None
    kept: list = [reach]
    parents: list = [np.full(reach.size, -1, dtype=np.int64)]
    for ln in lines[1:]:
        cand = candidates(ln, band_lo, band_hi)
        if cand.size == 0:
            return None
        ok, par = _reach_step(reach, cand, k)
        if not ok.any():
            return None
        kept.append(cand[ok])
        parents.append(par[ok])
        reach = kept[-1]
    ys = [float(reach[0])]
    j = 0
    for lvl in range(len(kept) - 1, 0, -1):
        j = int(parents[lvl][j])
        ys.append(float(kept[lvl - 1][j]))
    ys.reverse()
    return ys


def _check_step(k):
    if k <= 0 or not math.isfinite(k):
        raise ValueError(f"step bound must be positive and finite, got {k}")


def _check_step_and_corridor(k, corridor):
    _check_step(k)
    lo, hi = float(corridor[0]), float(corridor[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad corridor {corridor}")
    return lo, hi


def _reach_step(reach, cand, k):
    """One step of the forward sweep: which of the sorted candidates lie
    within k of the sorted, nonempty reachable set, and the index of each
    one's nearest reachable value (ties to the left)."""
    pad = np.empty(reach.size + 2)
    pad[0], pad[1:-1], pad[-1] = -np.inf, reach, np.inf
    pos = reach.searchsorted(cand)
    dl = cand - pad[pos]         # inf left of reach[0]
    dr = pad[pos + 1] - cand     # inf right of reach[-1]
    return np.minimum(dl, dr) <= k, np.where(dl <= dr, pos - 1, pos)


def periodic_feasible(intensity: float, k: float) -> bool:
    """Feasibility for every realization of unit-period lattice lines with
    spacing 1/intensity: true exactly when the spacing is at most 2k, i.e.
    every height sits within k of each line's lattice."""
    if intensity <= 0 or k <= 0:
        raise ValueError("intensity and step bound must be positive")
    return intensity >= 1.0 / (2.0 * k)


# ---------------------------------------------------------------------------
# oriented site lattice


@dataclass(frozen=True)
class SiteLattice:
    """Directed site lattice over height-4 segments with parity offsets.

    Column x, row i covers the half-open segment
    [4i + (-1)**x, 4(i+1) + (-1)**x); a site is open when the line's set
    meets its segment.  Oriented edges go from (x, i) to (x+1, i) and to
    (x+1, i + (-1)**x).
    """

    xs: tuple
    i_lo: int
    height_sites: int
    open: np.ndarray = field(repr=False)

    @property
    def width(self) -> int:
        return len(self.xs)

    def segment(self, x: int, i: int) -> tuple:
        off = float(_parity(x))
        return (4.0 * i + off, 4.0 * (i + 1) + off)


def _parity(x: int) -> int:
    return 1 if x % 2 == 0 else -1


def build_lattice(lines: Sequence[Line], height_sites: int,
                  i_lo: int = 0) -> SiteLattice:
    """Open/closed grid for rows i_lo .. i_lo + height_sites - 1."""
    if height_sites < 1:
        raise ValueError("need at least one site row")
    xs = []
    for ln in lines:
        xi = int(ln.x)
        if xi != ln.x:
            raise ValueError("lattice lines must sit at integer abscissae")
        xs.append(xi)
    if any(b - a != 1 for a, b in zip(xs, xs[1:])):
        raise ValueError("lattice lines must be consecutive")
    w_lo = 4.0 * i_lo - 1.0
    w_hi = 4.0 * (i_lo + height_sites) + 1.0
    rows = np.arange(i_lo, i_lo + height_sites, dtype=np.float64)
    grid = np.zeros((len(xs), height_sites), dtype=bool)
    for c, ln in enumerate(lines):
        rs = ensure_window(ln.realized, w_lo, w_hi)
        off = float(_parity(xs[c]))
        bounds = np.concatenate([4.0 * rows + off, [4.0 * (rows[-1] + 1) + off]])
        glo, ghi = _gaps_meeting(rs, w_lo, w_hi)
        # Site [s0, s1) is closed iff one gap holds it.  Gaps are sorted and
        # disjoint, so only the last gap starting below s0 can; it does iff
        # it ends at or above s1, i.e. iff fewer gaps end below s1 than start
        # below s0.
        starts_below = np.searchsorted(glo, bounds[:-1], side="left")
        ends_below = np.searchsorted(ghi, bounds[1:], side="left")
        grid[c] = ends_below >= starts_below
    return SiteLattice(tuple(xs), i_lo, height_sites, grid)


def directed_crossing(lattice: SiteLattice) -> Optional[list]:
    """Directed open path spanning all columns, or None.

    Returns sites as (x, i) pairs.  The forward sweep keeps every reachable
    row per column, so absence is exact.
    """
    w, h = lattice.open.shape
    reach = lattice.open[0].copy()
    parents = np.full((w, h), -2, dtype=np.int64)
    parents[0, reach] = -1
    if not reach.any():
        return None
    for c in range(w - 1):
        e = _parity(lattice.xs[c])
        straight = reach
        diag = np.zeros_like(reach)
        if e > 0:
            diag[1:] = reach[:-1]     # source row j-1 feeds row j
        else:
            diag[:-1] = reach[1:]
        nxt = lattice.open[c + 1] & (straight | diag)
        if not nxt.any():
            return None
        rows = np.nonzero(nxt)[0]
        src = np.where(straight[rows], rows, rows - e)
        parents[c + 1, rows] = src
        reach = nxt
    i = int(np.nonzero(reach)[0][0])
    path = []
    for c in range(w - 1, -1, -1):
        path.append((lattice.xs[c], i + lattice.i_lo))
        i = int(parents[c, i])
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# Monte Carlo and threshold bracketing


def strip_lines(lam, k, width, height, stream, trial):
    """Poisson lines at x = 1..width for one crossing trial, each realized
    on the whole band [-k, height + k].

    Each trial and each line gets its own substream, so outcomes are stable
    under rescheduling and under changes of width (a narrower strip's lines
    are a prefix of a wider one's).  crossing_probability reads the same
    lines but realizes only the part of each that its sweep can reach.
    """
    ts = stream.child("trial", trial)
    window = (-k, height + k)
    return [Line(x=float(j),
                 realized=realize(Poisson(lam, x=float(j)), ts.child("line", j), window))
            for j in range(1, width + 1)]


def _strip_crosses(lam, k, width, height, ts):
    """lipschitz_feasible(strip_lines(...)) is not None, realizing less.

    The same forward sweep, but each line is realized only where a value
    could pass the step: line 1 on the corridor [0, height], line j + 1 on
    the reach of line j widened by k and clipped to the band, and no line
    after the reach empties.  Realizations are pure functions of (model,
    stream, window), so every value the full sweep keeps is drawn here too.
    """
    band_lo, band_hi = -k, height + k
    # k plus far more than any rounding of r - c or r +- k, so the window
    # holds every value the <= k test could keep (|r| <= height + k).
    reach_pad = k + 1e-9 * (height + 2.0 * k)
    window = (0.0, height)
    reach = None
    for j, line_stream in enumerate(ts.children(("line",), range(1, width + 1)), 1):
        cand = realize(Poisson(lam, x=float(j)), line_stream, window).values
        reach = cand if reach is None else cand[_reach_step(reach, cand, k)[0]]
        if reach.size == 0:
            return False
        window = (max(float(reach[0]) - reach_pad, band_lo),
                  min(float(reach[-1]) + reach_pad, band_hi))
    return True


def crossing_probability(lam: float, k: float, width: int, corridor_height: float,
                         trials: int, stream: RngStream) -> McEstimate:
    """Monte Carlo probability that a width-long Poisson strip is K-feasible.

    Trial t succeeds iff lipschitz_feasible(strip_lines(lam, k, width,
    corridor_height, stream, t), k, (0, corridor_height)) is not None; the
    sweep that decides it realizes only the part of each line it reads, and
    stops at the first line it cannot reach.  Per-trial substreams are
    pre-split from the given stream by trial index (and by line index inside
    a trial), so rerunning any subset of trials reproduces its outcomes.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _, height = _check_step_and_corridor(k, (0.0, corridor_height))
    if width < 1:
        raise ValueError("need at least one line")
    successes = 0
    for ts in stream.children(("trial",), range(trials)):
        successes += _strip_crosses(lam, k, width, height, ts)
    return McEstimate(successes=successes, trials=trials)


@dataclass(frozen=True)
class BracketRecord:
    width: int
    lo: float
    hi: float
    conclusive: bool
    evaluations: tuple      # (lam, McEstimate) pairs in evaluation order

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class LambdaCResult:
    k: float
    brackets: tuple         # one BracketRecord per width, in schedule order

    @property
    def final(self) -> BracketRecord:
        return self.brackets[-1]


def estimate_lambda_c(k: float, width_schedule: Sequence[int] = (50, 100, 200),
                      trials: int = 400, tol: float = 0.1,
                      stream: Optional[RngStream] = None,
                      lam_range: Optional[tuple] = None,
                      corridor_height: Optional[float] = None) -> LambdaCResult:
    """Bracket the intensity where the crossing probability passes 1/2.

    Runs a bisection at each width in the schedule and reports every
    bracket rather than extrapolating; the final (largest-width) bracket is
    the headline estimate.  Bisection stops when the bracket is narrower
    than tol or when the midpoint's CI straddles 1/2, which is reported as
    inconclusive at this trial budget.
    """
    _check_step(k)
    if len(width_schedule) == 0:
        raise ValueError("need at least one width")
    for width in width_schedule:
        if width < 1:
            raise ValueError(f"need at least one line per strip, got width {width}")
    stream = stream or RngStream(0)
    if lam_range is None:
        lam_range = (0.1 / k, 6.0 / k)
    lam_lo, lam_hi = lam_range
    records = []
    for width in width_schedule:
        height = corridor_height if corridor_height is not None else float(width) * k
        wstream = stream.child("width", int(width))
        evals = []

        def phat(lam):
            est = crossing_probability(lam, k, int(width), height, trials,
                                       wstream.child("eval", len(evals) + 1))
            evals.append((lam, est))
            return est
        lo, hi = float(lam_lo), float(lam_hi)
        e_lo = phat(lo)
        e_hi = phat(hi)
        if not (e_lo.p_hat < 0.5 <= e_hi.p_hat):
            raise BracketNotFoundError(
                f"crossing probability is {e_lo.p_hat:.3f} at {lo:g} and "
                f"{e_hi.p_hat:.3f} at {hi:g}; no sign change over the range")
        conclusive = True
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            est = phat(mid)
            if est.p_hat >= 0.5:
                hi = mid
            else:
                lo = mid
            c_lo, c_hi = est.ci95
            if c_lo < 0.5 < c_hi:
                conclusive = False
                break
        records.append(BracketRecord(int(width), lo, hi, conclusive, tuple(evals)))
    return LambdaCResult(k, tuple(records))


def scaling_report(result_base: LambdaCResult, result_scaled: LambdaCResult) -> dict:
    """Compare two thresholds against the exact scaling lam_c(K) = lam_c(1)/K."""
    m1 = result_base.final.midpoint
    m2 = result_scaled.final.midpoint
    predicted = m1 * result_base.k / result_scaled.k
    return {
        "k_base": result_base.k,
        "k_scaled": result_scaled.k,
        "midpoint_base": m1,
        "midpoint_scaled": m2,
        "predicted_scaled": predicted,
        "relative_error": abs(m2 - predicted) / predicted,
    }

"""Tests for Lipschitz feasibility, the site lattice, and threshold search."""

import itertools
import math
import re

import numpy as np
import pytest

from interperc import (
    BooleanComplement,
    BracketNotFoundError,
    Line,
    McEstimate,
    Periodic,
    Poisson,
    RngStream,
    SiteLattice,
    build_lattice,
    crossing_probability,
    directed_crossing,
    ensure_window,
    estimate_lambda_c,
    from_points,
    intersects_interval,
    lipschitz_feasible,
    model_label,
    periodic_feasible,
    realize,
    scaling_report,
    strip_lines,
)
from interperc.percolation import _strip_crosses


def explicit_lines(point_lists, window=(-20.0, 20.0), x0=1.0):
    return [Line(x0 + j, from_points(pts, window))
            for j, pts in enumerate(point_lists)]


def brute_force_feasible(point_lists, k, corridor):
    lo, hi = corridor
    for combo in itertools.product(*point_lists):
        if not (lo <= combo[0] <= hi):
            continue
        if all(abs(b - a) <= k for a, b in zip(combo, combo[1:])):
            return True
    return False


# ---------------------------------------------------------------------------
# feasibility sweep


@pytest.mark.parametrize("seed", range(12))
def test_lipschitz_matches_bruteforce(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 6))
    pls = [sorted(gen.uniform(-6.0, 6.0, size=int(gen.integers(1, 5)))) for _ in range(n)]
    k = float(gen.uniform(0.3, 2.5))
    corridor = (-1.0, 3.0)
    lines = explicit_lines(pls)
    got = lipschitz_feasible(lines, k, corridor)
    want = brute_force_feasible(pls, k, corridor)
    assert (got is not None) == want
    if got is not None:
        assert corridor[0] <= got[0] <= corridor[1]
        for a, b in zip(got, got[1:]):
            assert abs(b - a) <= k + 1e-12
        for y, ln in zip(got, lines):
            assert ln.realized.contains_value(y)


def test_lipschitz_simple_infeasible():
    lines = explicit_lines([[0.0], [10.0]])
    assert lipschitz_feasible(lines, 1.0, (-1.0, 1.0)) is None
    # same sets, large enough step bound
    assert lipschitz_feasible(lines, 10.0, (-1.0, 1.0)) is not None


def test_lipschitz_first_line_confined_to_corridor():
    lines = explicit_lines([[5.0], [5.0]])
    assert lipschitz_feasible(lines, 1.0, (0.0, 1.0)) is None
    assert lipschitz_feasible(lines, 1.0, (0.0, 5.0)) == [5.0, 5.0]


def test_lipschitz_validation():
    lines = explicit_lines([[0.0]])
    with pytest.raises(ValueError):
        lipschitz_feasible(lines, 0.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        lipschitz_feasible(lines, 1.0, (1.0, 0.0))
    with pytest.raises(ValueError):
        lipschitz_feasible([], 1.0, (0.0, 1.0))


def test_lipschitz_grows_windows_lazily():
    # realized on a sliver; the sweep must extend to the corridor band itself
    base = RngStream(17)
    lines = [Line(float(j), realize(Poisson(2.0), base.child(j), (-0.01, 0.01)))
             for j in range(1, 5)]
    path = lipschitz_feasible(lines, 1.5, (0.0, 4.0))
    assert path is not None
    for y, ln in zip(path, lines):
        assert -1.5 <= y <= 5.5


@pytest.mark.parametrize("k", [0.25, 1.0, 3.0])
def test_periodic_threshold_formula(k):
    eps = 1e-9
    thr = 1.0 / (2.0 * k)
    assert periodic_feasible(thr, k)
    assert periodic_feasible(thr + eps, k)
    assert not periodic_feasible(thr - eps, k)
    with pytest.raises(ValueError):
        periodic_feasible(-1.0, k)


# ---------------------------------------------------------------------------
# site lattice


def test_segment_offsets_alternate():
    lat = SiteLattice(xs=(1, 2), i_lo=0, height_sites=2, open=np.ones((2, 2), bool))
    assert lat.segment(1, 0) == (-1.0, 3.0)   # odd column, offset -1
    assert lat.segment(2, 0) == (1.0, 5.0)    # even column, offset +1
    assert lat.segment(1, 1) == (3.0, 7.0)
    assert lat.width == 2


def test_build_lattice_flags_match_membership():
    pts1 = [0.5, 6.0]          # column x=1 (offset -1): rows [-1,3),[3,7)
    pts2 = [1.0, 4.99]         # column x=2 (offset +1): rows [1,5),[5,9)
    lines = explicit_lines([pts1, pts2], window=(-2.0, 10.0))
    lat = build_lattice(lines, height_sites=2, i_lo=0)
    assert lat.open[0].tolist() == [True, True]
    assert lat.open[1].tolist() == [True, False]


def test_build_lattice_half_open_edges():
    # a point exactly at the upper boundary belongs to the next site up
    lines = explicit_lines([[3.0]], window=(-2.0, 10.0))
    lat = build_lattice(lines, height_sites=2, i_lo=0)
    assert lat.open[0].tolist() == [False, True]


@pytest.mark.parametrize("model", [BooleanComplement(arc_length=0.4),
                                   BooleanComplement(arc_length=0.9),
                                   Periodic(scale=0.7, base_interval=(0.0, 0.3)),
                                   Periodic(scale=-1.3, base_interval=(0.2, 0.9))],
                         ids=model_label)
def test_build_lattice_interval_kind_matches_per_row(model):
    """Interval-kind strips: each site flag is intersects_interval on its segment."""
    lines = [Line(float(x), realize(model, RngStream(8, x), (-1.0, 1.0)))
             for x in range(1, 7)]
    lat = build_lattice(lines, height_sites=6, i_lo=-2)
    for c, ln in enumerate(lines):
        rs = ensure_window(ln.realized, -9.0, 17.0)
        for r in range(lat.height_sites):
            lo, hi = lat.segment(lat.xs[c], r + lat.i_lo)
            assert lat.open[c, r] == intersects_interval(rs, lo, hi)


def test_build_lattice_validation():
    l1 = Line(1.5, from_points([0.0], (-1.0, 1.0)))
    with pytest.raises(ValueError):
        build_lattice([l1], height_sites=1)
    gap = [Line(1.0, from_points([0.0], (-9.0, 9.0))),
           Line(3.0, from_points([0.0], (-9.0, 9.0)))]
    with pytest.raises(ValueError):
        build_lattice(gap, height_sites=1)


def crossing_is_valid(lat, path):
    assert len(path) == lat.width
    for (x, i), nxt in zip(path, path[1:]):
        e = 1 if x % 2 == 0 else -1
        assert nxt[0] == x + 1
        assert nxt[1] in (i, i + e)
    for x, i in path:
        c = x - lat.xs[0]
        assert lat.open[c, i - lat.i_lo]


@pytest.mark.parametrize("seed", range(10))
def test_directed_crossing_vs_bruteforce(seed):
    gen = np.random.default_rng(100 + seed)
    w, h = 6, 5
    grid = gen.random((w, h)) < 0.7
    lat = SiteLattice(xs=tuple(range(1, w + 1)), i_lo=0, height_sites=h, open=grid)
    path = directed_crossing(lat)

    # reference: explicit DFS over the oriented edges
    def exists():
        stack = [(0, i) for i in range(h) if grid[0, i]]
        seen = set(stack)
        while stack:
            c, i = stack.pop()
            if c == w - 1:
                return True
            e = 1 if lat.xs[c] % 2 == 0 else -1
            for j in (i, i + e):
                if 0 <= j < h and grid[c + 1, j] and (c + 1, j) not in seen:
                    seen.add((c + 1, j))
                    stack.append((c + 1, j))
        return False

    assert (path is not None) == exists()
    if path is not None:
        crossing_is_valid(lat, path)


def test_directed_crossing_blocked_column():
    grid = np.ones((4, 3), bool)
    grid[2] = False
    lat = SiteLattice(xs=(1, 2, 3, 4), i_lo=0, height_sites=3, open=grid)
    assert directed_crossing(lat) is None


def test_directed_crossing_row_offset():
    grid = np.ones((3, 2), bool)
    lat = SiteLattice(xs=(1, 2, 3), i_lo=-1, height_sites=2, open=grid)
    path = directed_crossing(lat)
    crossing_is_valid(lat, path)
    assert all(i in (-1, 0) for _, i in path)


# ---------------------------------------------------------------------------
# the sandwich: K=2 feasibility -> lattice crossing -> K=6 feasibility


@pytest.mark.parametrize("trial", range(40))
def test_feasibility_sandwich(trial):
    """Whenever the strict problem is solvable the relaxations must be too."""
    lam, width, c = 1.0, 12, 16.0
    stream = RngStream(31337)
    lines = strip_lines(lam, 6.0, width, c, stream, trial)
    height = int(c / 4.0) + 2
    if lipschitz_feasible(lines, 2.0, (0.0, c)) is not None:
        lat = build_lattice(lines, height_sites=height, i_lo=-1)
        path = directed_crossing(lat)
        assert path is not None
        crossing_is_valid(lat, path)
    lat = build_lattice(lines, height_sites=height, i_lo=-1)
    if directed_crossing(lat) is not None:
        lo6 = 4.0 * -1 - 1.0
        hi6 = 4.0 * (-1 + height) + 1.0
        assert lipschitz_feasible(lines, 6.0, (lo6, hi6)) is not None


def test_site_open_probability():
    # height-4 segments of a Poisson(lam) line are open with rate 1-exp(-4 lam)
    lam = 0.4
    stream = RngStream(77)
    opens = 0
    total = 0
    for t in range(150):
        lines = strip_lines(lam, 2.0, 10, 20.0, stream, t)
        lat = build_lattice(lines, height_sites=5, i_lo=0)
        opens += int(lat.open.sum())
        total += lat.open.size
    p = 1.0 - math.exp(-4.0 * lam)
    se = math.sqrt(p * (1.0 - p) / total)
    assert abs(opens / total - p) < 4 * se


# ---------------------------------------------------------------------------
# Monte Carlo plumbing


def test_strip_lines_width_prefix_coupling():
    stream = RngStream(5005)
    narrow = strip_lines(1.3, 1.0, 6, 8.0, stream, trial=2)
    wide = strip_lines(1.3, 1.0, 11, 8.0, stream, trial=2)
    for a, b in zip(narrow, wide):
        assert a.x == b.x
        assert np.array_equal(a.realized.values, b.realized.values)


def test_wider_strip_is_harder_per_trial():
    stream = RngStream(606)
    lam, k, c = 0.8, 1.0, 10.0
    for t in range(60):
        short = strip_lines(lam, k, 5, c, stream, t)
        long = strip_lines(lam, k, 15, c, stream, t)
        feas_long = lipschitz_feasible(long, k, (0.0, c)) is not None
        feas_short = lipschitz_feasible(short, k, (0.0, c)) is not None
        if feas_long:
            assert feas_short  # a valid long path restricts to a valid prefix


def test_crossing_probability_reproducible_and_thread_invariant():
    est1 = crossing_probability(1.2, 1.0, 12, 12.0, 80, RngStream(99))
    est2 = crossing_probability(1.2, 1.0, 12, 12.0, 80, RngStream(99))
    assert est1 == est2
    assert 0 <= est1.successes <= 80


# (width, corridor height / k, trials): single lines, pairs, a short and the
# c10-width strip, and a corridor narrower than one step
_ORACLE_SHAPES = [(1, 10.0, 8), (2, 10.0, 8), (30, 10.0, 6), (200, 20.0, 4), (30, 0.5, 6)]


@pytest.mark.parametrize("k", [1.0, 2.0, 6.0])
def test_lazy_crossing_equals_full_sweep(k):
    outcomes = set()
    for lam_k, (width, h_k, trials) in itertools.product((0.3, 0.7, 1.0, 1.4, 3.0),
                                                         _ORACLE_SHAPES):
        lam, height = lam_k / k, h_k * k
        stream = RngStream(8100 + width, int(10 * lam_k))
        full = [lipschitz_feasible(strip_lines(lam, k, width, height, stream, t), k,
                                   (0.0, height)) is not None for t in range(trials)]
        lazy = [_strip_crosses(lam, k, width, height, stream.child("trial", t))
                for t in range(trials)]
        assert lazy == full, (lam_k, width, h_k)
        est = crossing_probability(lam, k, width, height, trials, stream)
        assert est.successes == sum(full)
        outcomes.update(full)
    assert outcomes == {True, False}


_BAD_STRIPS = [
    (0.0, 8, 10.0), (-1.0, 8, 10.0), (math.nan, 8, 10.0), (math.inf, 8, 10.0),
    (1.0, 8, 0.0), (1.0, 8, -3.0), (1.0, 8, math.nan), (1.0, 8, math.inf),
    (1.0, 0, 10.0),
]


@pytest.mark.parametrize("k,width,height", _BAD_STRIPS)
def test_crossing_probability_validates_like_lipschitz_feasible(k, width, height):
    with pytest.raises(ValueError) as want:
        lipschitz_feasible(explicit_lines([[0.0]] * width), k, (0.0, height))
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        crossing_probability(1.0, k, width, height, 3, RngStream(1))


def test_mc_estimate_ci():
    e = crossing_probability(5.0, 1.0, 4, 6.0, 50, RngStream(1))
    lo, hi = e.ci95
    assert 0.0 <= lo <= e.p_hat <= hi <= 1.0


@pytest.mark.parametrize("successes,trials", [(0, 5), (5, 5), (30, 100)])
def test_mc_estimate_ci_is_wilson(successes, trials):
    # closed form: (2s + z^2 -/+ z sqrt(z^2 + 4 s (n - s) / n)) / (2 (n + z^2))
    z, s, n = 1.96, successes, trials
    root = z * math.sqrt(z * z + 4.0 * s * (n - s) / n)
    lo, hi = McEstimate(s, n).ci95
    assert lo == pytest.approx(max(0.0, (2 * s + z * z - root) / (2 * (n + z * z))), abs=1e-12)
    assert hi == pytest.approx(min(1.0, (2 * s + z * z + root) / (2 * (n + z * z))), abs=1e-12)
    assert 0.0 <= lo <= s / n <= hi <= 1.0


def test_crossing_probability_increases_with_intensity():
    ps = [crossing_probability(lam, 1.0, 15, 15.0, 120, RngStream(12)).p_hat
          for lam in (0.3, 1.0, 4.0)]
    assert ps[0] < ps[2]
    assert ps[2] > 0.9


# ---------------------------------------------------------------------------
# threshold bracketing


def test_estimate_lambda_c_small_run():
    res = estimate_lambda_c(1.0, width_schedule=(8, 12), trials=80, tol=0.5,
                            stream=RngStream(7), corridor_height=12.0)
    assert len(res.brackets) == 2
    for rec in res.brackets:
        assert rec.lo < rec.hi
        assert rec.midpoint == pytest.approx(0.5 * (rec.lo + rec.hi))
        lams = [l for l, _ in rec.evaluations]
        assert len(set(lams)) == len(lams)
    assert res.final is res.brackets[-1]
    again = estimate_lambda_c(1.0, width_schedule=(8, 12), trials=80, tol=0.5,
                              stream=RngStream(7), corridor_height=12.0)
    assert again.final.lo == res.final.lo and again.final.hi == res.final.hi


@pytest.mark.parametrize("k,widths,message", [
    (0.0, (8,), "step bound must be positive and finite, got 0.0"),
    (-2.0, (8,), "step bound must be positive and finite, got -2.0"),
    (math.inf, (8,), "step bound must be positive and finite, got inf"),
    (1.0, (0,), "need at least one line per strip, got width 0"),
    (1.0, (8, -3), "need at least one line per strip, got width -3"),
    (1.0, (), "need at least one width"),
])
def test_estimate_lambda_c_checks_step_and_widths_first(k, widths, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        estimate_lambda_c(k, width_schedule=widths, trials=10)


def test_estimate_lambda_c_requires_sign_change():
    with pytest.raises(BracketNotFoundError):
        estimate_lambda_c(1.0, width_schedule=(6,), trials=40, tol=0.2,
                          stream=RngStream(3), lam_range=(4.0, 6.0),
                          corridor_height=8.0)


def test_estimate_lambda_c_inconclusive_flag_is_honest():
    # with a tiny trial budget the CI around 1/2 is wide; the record should
    # either finish conclusively or say it could not
    res = estimate_lambda_c(1.0, width_schedule=(10,), trials=24, tol=0.02,
                            stream=RngStream(21), corridor_height=10.0)
    rec = res.final
    if not rec.conclusive:
        lam, est = rec.evaluations[-1]
        lo, hi = est.ci95
        assert lo < 0.5 < hi


def test_scaling_report_fields():
    r1 = estimate_lambda_c(1.0, width_schedule=(8,), trials=60, tol=0.5,
                           stream=RngStream(70), corridor_height=10.0)
    r2 = estimate_lambda_c(2.0, width_schedule=(8,), trials=60, tol=0.25,
                           stream=RngStream(71), corridor_height=10.0)
    rep = scaling_report(r1, r2)
    assert rep["k_base"] == 1.0 and rep["k_scaled"] == 2.0
    assert rep["predicted_scaled"] == pytest.approx(rep["midpoint_base"] / 2.0)
    assert rep["relative_error"] >= 0.0

"""Tests for the interpolating-function constructions and variation traces."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from interperc import (
    Line,
    Periodic,
    PiecewiseLinearFunction,
    Poisson,
    RenewalWeibull,
    RngStream,
    StepFunction,
    continuous_interpolate,
    from_points,
    greedy_trace,
    min_total_variation,
    monotone_interpolate,
    nearest,
    realize,
    trace_signs,
    weighted_variation_diagnostic,
)
from interperc.interpolators import polyline_geometry, step_geometry


def poisson_lines(xs, lam, seed, window=(-8.0, 8.0)):
    base = RngStream(seed)
    out = []
    for j, x in enumerate(xs):
        rs = realize(Poisson(lam), base.child("line", j), window)
        out.append(Line(x, rs))
    return out


# ---------------------------------------------------------------------------
# function containers


def test_piecewise_linear_eval():
    f = PiecewiseLinearFunction([(0.0, 0.0, None), (1.0, 2.0, None), (3.0, -1.0, None)])
    assert f(0.0) == 0.0 and f(1.0) == 2.0 and f(3.0) == -1.0
    assert f(0.5) == pytest.approx(1.0)
    assert f(2.0) == pytest.approx(0.5)
    # clamps outside the knot range
    assert f(-5.0) == 0.0 and f(10.0) == -1.0
    got = f(np.array([0.25, 1.0, 2.0]))
    assert np.allclose(got, [0.5, 2.0, 0.5])


def test_piecewise_linear_rejects_duplicate_x():
    with pytest.raises(ValueError):
        PiecewiseLinearFunction([(0.0, 0.0, None), (0.0, 1.0, None)])


def test_step_function_eval():
    f = StepFunction([(1.0, 5.0, None), (2.0, 3.0, None)], left_value=-1.0)
    assert f(0.99) == -1.0
    assert f(1.0) == 5.0  # right continuous
    assert f(1.5) == 5.0
    assert f(2.0) == 3.0
    assert f.sup_norm == 5.0
    assert not f.is_nondecreasing()
    g = StepFunction([(0.0, 1.0, None), (4.0, 1.5, None)])
    assert g.is_nondecreasing()


# ---------------------------------------------------------------------------
# continuous interpolation


@pytest.mark.parametrize("seed", [11, 57, 2026])
def test_continuous_hits_every_line(seed):
    gen = np.random.default_rng(seed)
    xs = np.sort(gen.uniform(0.05, 0.95, size=12))
    lines = poisson_lines(xs, lam=4.0, seed=seed)
    f = continuous_interpolate(lines, 0.0, 1.0, 0.25, -0.5)
    assert f(0.0) == 0.25 and f(1.0) == -0.5
    for ln in lines:
        v = f(ln.x)
        assert ln.realized.contains_value(v) or ln.realized.model is not None
        # membership has to hold on a wide enough re-realization too
        wide = realize(ln.realized.model, ln.realized.stream,
                       (min(-16.0, v - 1.0), max(16.0, v + 1.0)))
        assert wide.contains_value(v)


@pytest.mark.parametrize("seed", [6, 91])
def test_continuous_level_certificates(seed):
    gen = np.random.default_rng(seed)
    xs = np.sort(gen.uniform(0.1, 0.9, size=15))
    lines = poisson_lines(xs, lam=float(gen.uniform(1.0, 8.0)), seed=seed + 1)
    log = []
    f = continuous_interpolate(lines, 0.0, 1.0, 0.0, 0.0, level_log=log)
    assert sum(rec.lines_added for rec in log) == len(lines)
    assert [rec.level for rec in log] == sorted(rec.level for rec in log)
    for rec in log:
        if rec.level >= 1:
            assert rec.sup_change <= 2.0 ** -(rec.level - 1)
    assert isinstance(f, PiecewiseLinearFunction)


def test_continuous_covering_line_is_free():
    # a line whose set is everything gets pinned wherever the function already is
    full = realize(Periodic(scale=1.0, base_interval=(0.0, 1.0), shift=0.0),
                   RngStream(1), (-8.0, 8.0))
    sparse = realize(Poisson(2.0), RngStream(2), (-8.0, 8.0))
    lines = [Line(0.3, sparse), Line(0.6, full)]
    f = continuous_interpolate(lines, 0.0, 1.0, 0.0, 0.0)
    assert sparse.contains_value(f(0.3))
    assert full.contains_value(f(0.6))


def test_continuous_input_validation():
    lines = poisson_lines([0.5], lam=1.0, seed=3)
    with pytest.raises(ValueError):
        continuous_interpolate(lines, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        continuous_interpolate(lines, 0.6, 1.0, 0.0, 0.0)  # x=0.5 not interior
    both = poisson_lines([0.4, 0.4], lam=1.0, seed=4)
    with pytest.raises(ValueError):
        continuous_interpolate(both, 0.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("level", [1, 3])
def test_continuous_with_renewal_lines(level, seed=19):
    gen = np.random.default_rng(seed)
    xs = np.sort(gen.uniform(0.1, 0.9, size=8))
    base = RngStream(seed)
    lines = [Line(float(x), realize(RenewalWeibull(level=level), base.child("r", j), (-8.0, 8.0)))
             for j, x in enumerate(xs)]
    log = []
    f = continuous_interpolate(lines, 0.0, 1.0, 0.1, 0.1, level_log=log)
    for ln in lines:
        assert ln.realized.contains_value(f(ln.x))
    for rec in log:
        if rec.level >= 1:
            assert rec.sup_change <= 2.0 ** -(rec.level - 1)


# ---------------------------------------------------------------------------
# monotone interpolation


@pytest.mark.parametrize("seed", [0, 8, 123])
def test_monotone_is_minimal(seed):
    xs = list(range(1, 13))
    lines = poisson_lines(xs, lam=2.0, seed=seed, window=(-2.0, 14.0))
    f = monotone_interpolate(lines)
    assert f.is_nondecreasing()
    y = 0.0
    for ln, bp in zip(lines, f.breakpoints):
        vals = ln.realized.values
        feas = vals[vals >= y]
        assert bp[1] == feas.min()  # the step takes the least admissible point
        y = bp[1]
    assert f.sup_norm == f.values[-1]


def test_monotone_dominated_by_any_other_choice():
    lines = poisson_lines(range(8), lam=3.0, seed=44, window=(-1.0, 12.0))
    f = monotone_interpolate(lines)
    gen = np.random.default_rng(7)
    for _ in range(25):
        # build a random nondecreasing competitor through the same sets
        y = 0.0
        comp = []
        ok = True
        for ln in lines:
            vals = ln.realized.values
            feas = vals[vals >= y]
            if feas.size == 0:
                ok = False
                break
            y = float(gen.choice(feas[: min(3, feas.size)]))
            comp.append(y)
        if ok:
            assert np.all(f.values <= np.asarray(comp) + 1e-15)


def test_monotone_start_value():
    lines = poisson_lines([1.0, 2.0], lam=1.0, seed=5, window=(0.0, 20.0))
    f = monotone_interpolate(lines, start=3.0)
    assert f.left_value == 3.0
    assert f.values[0] >= 3.0


def test_monotone_mean_final_value():
    """E[final value] is the sum of reciprocal intensities."""
    lams = [1.0, 4.0, 9.0]
    tot = 0.0
    n = 3000
    for i in range(n):
        base = RngStream(1000 + i)
        lines = [Line(j + 1.0, realize(Poisson(lam), base.child(j), (-0.5, 9.0)))
                 for j, lam in enumerate(lams)]
        tot += monotone_interpolate(lines).values[-1]
    want = sum(1.0 / l for l in lams)
    sd = math.sqrt(sum(1.0 / l**2 for l in lams))
    assert abs(tot / n - want) < 4 * sd / math.sqrt(n)


def test_monotone_requires_sorted_lines():
    lines = poisson_lines([2.0, 1.0], lam=1.0, seed=6)
    with pytest.raises(ValueError):
        monotone_interpolate(lines)


# ---------------------------------------------------------------------------
# sign traces and variation


def test_trace_signs_follows_directions():
    lines = poisson_lines(range(6), lam=2.0, seed=21)
    signs = (1, -1, 1, 1, -1, 1)
    tr = trace_signs(lines, signs)
    assert len(tr.values) == 7 and tr.values[0] == 0.0
    for i, s in enumerate(signs):
        prev, cur = tr.values[i], tr.values[i + 1]
        if s > 0:
            assert cur >= prev
        else:
            assert cur <= prev
        assert lines[i].realized.contains_value(cur)
    assert tr.total_variation == pytest.approx(
        sum(abs(tr.values[i + 1] - tr.values[i]) for i in range(6)))


def test_trace_signs_validation():
    lines = poisson_lines([0.0], lam=1.0, seed=2)
    with pytest.raises(ValueError):
        trace_signs(lines, (1, 1))
    with pytest.raises(ValueError):
        trace_signs(lines, (0,))


def test_weighted_variation_is_exponential():
    """lam * |jump| along a fixed sign sequence pools to Exp(1)."""
    lam = 3.0
    samples = []
    signs = (1, -1) * 5
    for i in range(800):
        lines = poisson_lines(range(10), lam=lam, seed=5000 + i, window=(-30.0, 30.0))
        tr = trace_signs(lines, signs)
        samples.extend(weighted_variation_diagnostic(tr, [lam] * 10))
    res = stats.kstest(np.asarray(samples), "expon")
    assert res.pvalue > 0.01


def test_weighted_variation_length_check():
    lines = poisson_lines(range(3), lam=1.0, seed=9)
    tr = trace_signs(lines, (1, 1, 1))
    with pytest.raises(ValueError):
        weighted_variation_diagnostic(tr, [1.0, 1.0])


@pytest.mark.parametrize("seed", [1, 2, 3, 10, 77])
def test_greedy_trace_never_beats_candidate(seed):
    gen = np.random.default_rng(seed)
    lines = poisson_lines(range(7), lam=2.5, seed=seed, window=(-10.0, 10.0))
    # candidate: random realized point near a drifting target
    fvals = []
    t = 0.0
    for ln in lines:
        t += gen.normal(0.0, 1.0)
        fvals.append(nearest(ln.realized, t, "both").value)
    tr = greedy_trace(lines, fvals)
    cand_tv = abs(fvals[0]) + sum(abs(b - a) for a, b in zip(fvals, fvals[1:]))
    assert tr.total_variation <= cand_tv + 1e-12
    for v, ln in zip(tr.values[1:], lines):
        assert ln.realized.contains_value(v)


def test_greedy_trace_rejects_foreign_values():
    lines = poisson_lines([0.0], lam=1.0, seed=31)
    with pytest.raises(ValueError):
        greedy_trace(lines, [math.pi])


def test_greedy_trace_extends_window_for_far_values():
    # candidate values outside the initial realization window must still work
    base = RngStream(420)
    lines = [Line(float(j), realize(Poisson(1.0), base.child(j), (-2.0, 2.0)))
             for j in range(3)]
    far = nearest(lines[1].realized, 30.0, "up")  # forces a grow inside nearest
    fvals = [nearest(lines[0].realized, 0.0, "up").value, far.value,
             nearest(lines[2].realized, 0.0, "down").value]
    tr = greedy_trace(lines, fvals)
    assert len(tr.values) == 4


def exhaustive_min_tv(lines):
    """Independent reference: try all sign tuples with plain nearest() calls."""
    best = None
    for signs in itertools.product((1, -1), repeat=len(lines)):
        g, tv = 0.0, 0.0
        for ln, s in zip(lines, signs):
            hit = nearest(ln.realized, g, "up" if s > 0 else "down")
            tv += abs(hit.value - g)
            g = hit.value
        if best is None or tv < best:
            best = tv
    return best


@pytest.mark.parametrize("seed", range(8))
def test_min_variation_methods_agree(seed):
    n = 8
    lines = poisson_lines(range(n), lam=1.5, seed=900 + seed, window=(-25.0, 25.0))
    a = min_total_variation(lines, method="reachable_states")
    b = min_total_variation(lines, method="brute_force")
    c = exhaustive_min_tv(lines)
    assert a.total_variation == b.total_variation == c
    assert len(a.signs) == n


def test_min_variation_beats_random_signs():
    gen = np.random.default_rng(3)
    lines = poisson_lines(range(10), lam=2.0, seed=555, window=(-25.0, 25.0))
    best = min_total_variation(lines)
    for _ in range(20):
        signs = tuple(int(s) for s in gen.choice([1, -1], size=10))
        assert best.total_variation <= trace_signs(lines, signs).total_variation + 1e-12


def test_min_variation_brute_force_size_cap():
    lines = poisson_lines(range(25), lam=1.0, seed=8, window=(-60.0, 60.0))
    with pytest.raises(ValueError):
        min_total_variation(lines, method="brute_force")
    with pytest.raises(ValueError):
        min_total_variation(lines, method="magic")


@pytest.mark.parametrize("method", ["reachable_states", "brute_force"])
def test_min_variation_no_lines(method):
    res = min_total_variation([], method=method)
    assert (res.signs, res.values, res.point_ids) == ((), (0.0,), (None,))
    assert res.total_variation == 0.0 and res.weighted_variation == 0.0


def test_explicit_sets_work_throughout():
    # hand-built sets exercise the same code paths without any model attached
    l1 = Line(0.0, from_points([-1.0, 0.5, 2.0], (-3.0, 3.0)))
    l2 = Line(1.0, from_points([-2.0, 0.25, 1.0], (-3.0, 3.0)))
    tr = min_total_variation([l1, l2])
    assert tr.total_variation == 0.75  # 0 -> 0.5 -> 0.25
    assert tr.values == (0.0, 0.5, 0.25)


def test_geometry_helpers():
    f = PiecewiseLinearFunction([(0.0, 0.0, None), (1.0, 1.0, None)])
    assert polyline_geometry(f) == [(0.0, 0.0), (1.0, 1.0)]
    g = StepFunction([(1.0, 2.0, None)], left_value=0.5)
    pts = step_geometry(g, 0.0, 3.0)
    assert pts[0] == (0.0, 0.5) and pts[-1] == (3.0, 2.0)
    assert (1.0, 0.5) in pts and (1.0, 2.0) in pts

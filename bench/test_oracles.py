"""Tests of the benchmark's own oracles and run-time checks.

Each oracle must agree with the program on small cases and must catch a
planted error.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import refkernel  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from interperc import (BooleanComplement, Line, Periodic, Poisson,  # noqa: E402
                       RenewalWeibull, RngStream, brownian_path,
                       continuous_interpolate, lipschitz_feasible,
                       min_total_variation, monotone_interpolate, nearest,
                       realize, strip_lines)

K, WIDTH, HEIGHT = 1.0, 24, 24.0
CORRIDOR = (0.0, HEIGHT)


def _strips(lam, trials, seed):
    stream = RngStream(seed)
    return [strip_lines(lam, K, WIDTH, HEIGHT, stream, t) for t in range(trials)]


def test_reachable_sweep_agrees_with_lipschitz_feasible():
    outcomes = []
    for lam in (0.8, 1.0, 1.3):
        for lines in _strips(lam, 25, 7):
            sets = [ln.realized.values for ln in lines]
            path = lipschitz_feasible(lines, K, CORRIDOR)
            assert oracles.reachable_sweep(sets, K, CORRIDOR) == (path is not None)
            if path is not None:
                assert oracles.check_feasible_path("t", path, sets, K, CORRIDOR) == []
            outcomes.append(path is not None)
    assert any(outcomes) and not all(outcomes)


def test_benchmark_strips_equal_strip_lines():
    wl = workloads.Crossing(3, 0.7)
    stream = wl.round_stream(2)
    ours = wl._strip(0.7, stream, 5)
    theirs = strip_lines(0.7, wl.K, wl.WIDTH, wl.HEIGHT, stream, 5)
    assert [ln.x for ln in ours] == [ln.x for ln in theirs]
    assert all(np.array_equal(a.realized.values, b.realized.values)
               for a, b in zip(ours, theirs))


def test_crossing_count_catches_a_flipped_outcome():
    strips = _strips(1.0, 12, 8)
    flags = [oracles.reachable_sweep([ln.realized.values for ln in s], K, CORRIDOR)
             for s in strips]
    successes = sum(lipschitz_feasible(s, K, CORRIDOR) is not None for s in strips)
    assert oracles.check_crossing_count("ok", successes, flags) == []
    flipped = list(flags)
    flipped[3] = not flipped[3]
    assert oracles.check_crossing_count("flipped", successes, flipped)


def test_feasible_path_check_catches_a_nudged_value():
    for lines in _strips(1.4, 5, 9):
        path = lipschitz_feasible(lines, K, CORRIDOR)
        if path is not None:
            break
    sets = [ln.realized.values for ln in lines]
    bad = list(path)
    bad[5] = float(np.nextafter(bad[5], np.inf))
    assert oracles.check_feasible_path("nudged", bad, sets, K, CORRIDOR)


def test_intensity_check():
    assert oracles.check_intensity("ok", 1000, 1000.0, 1.0) == []
    assert oracles.check_intensity("off", 1300, 1000.0, 1.0)


@pytest.mark.parametrize("seed", [3, 4])
def test_path_check_agrees_and_catches_a_one_ulp_nudge(seed):
    ys = brownian_path(seed, 5).grid()[1]
    assert oracles.check_path(seed, 5, ys) == []
    bad = ys.copy()
    bad[13] = np.nextafter(bad[13], np.inf)
    assert oracles.check_path(seed, 5, bad)


def test_path_check_catches_a_wrong_nearest_point():
    seed, depth = 5, 3
    ys = brownian_path(seed, depth).grid()[1]
    level, k = 3, 3                       # x = 3/8, between 2/8 and 4/8
    target = 0.5 * (ys[2] + ys[4])
    rs = realize(RenewalWeibull(level), RngStream(seed).child("level", level, "k", k),
                 (target - 5.0, target + 5.0))
    other = rs.values[np.searchsorted(rs.values, ys[3]) + 1]   # a point, not the nearest
    bad = ys.copy()
    bad[3] = other
    problems = oracles.check_path(seed, depth, bad)
    assert any("nearest point" in m for m in problems)


def test_variance_and_mean_checks():
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 0.5, 4000)
    assert oracles.check_variance("ok", x, 0.25) == []
    assert oracles.check_variance("off", x, 0.3)
    assert oracles.check_mean("ok", x + 2.0, 2.0) == []
    assert oracles.check_mean("off", x + 2.1, 2.0)


def _bv_lines(seed, n=8, lam=1.5):
    stream = RngStream(seed)
    specs = [(float(j), stream.child("line", j)) for j in range(n)]
    lines = [Line(x, realize(Poisson(lam, x=x), s, (-25.0, 25.0))) for x, s in specs]
    sets = [realize(Poisson(lam, x=x), s, (-60.0, 60.0)).values for x, s in specs]
    return lines, sets


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_exhaustive_sign_search_agrees_with_min_total_variation(seed):
    lines, sets = _bv_lines(seed)
    want = oracles.exhaustive_min_variation(sets)
    for method in ("reachable_states", "brute_force"):
        tv = min_total_variation(lines, method=method).total_variation
        assert math.isclose(tv, want, rel_tol=1e-12)
        assert oracles.check_min_variation("ok", tv, sets) == []
    assert oracles.check_min_variation("planted", want * (1 + 1e-9), sets)


def test_exhaustive_sign_search_refuses_a_narrow_window():
    narrow = [np.array([0.5, 1.0])] * 3
    with pytest.raises(ValueError):
        oracles.exhaustive_min_variation(narrow)


def _mixed_specs(seed, n=15):
    models = [lambda x: Poisson(3.0, x=x), lambda x: RenewalWeibull(2, x=x),
              lambda x: Periodic(0.7, base_interval=(0.0, 0.4), x=x),
              lambda x: BooleanComplement(0.6, x=x),
              lambda x: Periodic(0.9, base_points=(0.0, 0.3), x=x)]
    stream = RngStream(seed)
    return [((j + 1) / (n + 1), models[j % 5]((j + 1) / (n + 1)), stream.child("line", j))
            for j in range(n)]


def test_knot_check_agrees_and_catches_a_nudged_knot():
    specs = _mixed_specs(21)
    lines = [Line(x, realize(m, s, (-3.0, 3.0))) for x, m, s in specs]
    f = continuous_interpolate(lines, 0.0, 1.0, 0.0, 0.0)
    ends = [(0.0, 0.0), (1.0, 0.0)]
    knots = np.array([k[:2] for k in f.knots])
    assert oracles.check_knots("ok", specs, knots, ends) == []
    poisson_x = specs[0][0]                    # line 0 carries Poisson(3)
    i = int(np.flatnonzero(knots[:, 0] == poisson_x)[0])
    bad = knots.copy()
    bad[i, 1] = np.nextafter(bad[i, 1], np.inf)
    assert oracles.check_knots("nudged", specs, bad, ends)


def test_is_member_on_complement_sets():
    rs = realize(BooleanComplement(0.6), RngStream(5), (-3.0, 3.0))
    a, b = float(rs.hole_lo[1]), float(rs.hole_hi[1])
    assert oracles.is_member(rs, a) and oracles.is_member(rs, b)
    assert not oracles.is_member(rs, 0.5 * (a + b))


def test_monotone_check_agrees_and_catches_a_skipped_point():
    lams = [float(j * j) for j in range(1, 21)]
    stream = RngStream(31)
    specs = [(float(j + 1), Poisson(lam, x=float(j + 1)), stream.child("line", j), lam)
             for j, lam in enumerate(lams)]
    y, lines = 0.0, []
    for x, m, s, lam in specs:
        rs = realize(m, s, (y, y + 20.0 / lam))
        lines.append(Line(x, rs))
        y = nearest(rs, y, "up").value
    f = monotone_interpolate(lines, start=0.0)
    values = f.values.tolist()
    assert oracles.check_monotone("ok", specs, values, 0.0) == []
    rs = lines[4].realized
    nxt = nearest(rs, float(np.nextafter(values[4], np.inf)), "up").value
    skipped = values[:4] + [nxt] + values[5:]
    assert oracles.check_monotone("skipped", specs, skipped, 0.0)


def test_reference_kernel_is_unchanged():
    assert refkernel.kernel() == refkernel.CHECKSUM


def test_live_helpers_sees_a_leftover_thread_and_child():
    base = len(os.listdir("/proc/self/task"))
    assert run.live_helpers(base) == []
    stop = threading.Event()
    t = threading.Thread(target=stop.wait, args=(30,))
    t.start()
    try:
        assert any("Python threads" in m for m in run.live_helpers(base))
    finally:
        stop.set()
        t.join(timeout=10)
    assert not t.is_alive()
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        assert any("child processes" in m for m in run.live_helpers(base))
    finally:
        child.kill()
        child.wait(timeout=10)
    assert run.live_helpers(base) == []

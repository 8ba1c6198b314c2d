"""Tests for series diagnostics, subset extraction, and circle coverings."""

import math

import numpy as np
import pytest

from interperc import (
    ArcFamily,
    ProbeFailedError,
    circle_uncovered,
    dyadic_block_reversal,
    extract_divergent_subset,
    rotating_cover_scan,
    series_partial_sums,
    uncovered_measure,
)

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# series partial sums


def test_wm_series_geometric_closed_form():
    eps = 0.35
    d = series_partial_sums("wm", lambda n: float(n), [10, 100], eps=eps)
    q = math.exp(-eps)
    for cutoff, got in zip(d.cutoffs, d.partial_sums):
        want = q * (1.0 - q**cutoff) / (1.0 - q)
        assert got == pytest.approx(want, rel=1e-12)


def test_wm_series_squares():
    # sum of exp(-n^2) converges to about 0.38632
    d = series_partial_sums("wm", lambda n: float(n) ** 2, [5, 50, 500], eps=1.0)
    want = math.fsum(math.exp(-n * n) for n in range(1, 501))
    assert d.partial_sums[-1] == pytest.approx(want, rel=1e-13)
    assert d.partial_sums[-1] == pytest.approx(0.3863186024, abs=1e-9)
    assert not d.looks_divergent


def test_reciprocal_series_is_harmonic():
    d = series_partial_sums("reciprocal", lambda n: float(n), [100, 10_000])
    h = math.fsum(1.0 / i for i in range(1, 10_001))
    assert d.partial_sums[-1] == pytest.approx(h, rel=1e-12)
    assert d.partial_sums[-1] == pytest.approx(math.log(10_000) + EULER_GAMMA, abs=1e-4)
    assert d.looks_divergent


def test_shepp_series_matches_direct_sum():
    ells = [1.0 / n for n in range(1, 2001)]
    d = series_partial_sums("shepp", ells, [200, 2000])
    run = 0.0
    terms = []
    for n, l in enumerate(ells, start=1):
        run += l
        terms.append(math.exp(run) / n**2)
    assert d.partial_sums[0] == pytest.approx(math.fsum(terms[:200]), rel=1e-10)
    assert d.partial_sums[1] == pytest.approx(math.fsum(terms), rel=1e-10)
    assert d.looks_divergent
    assert d.growth_exponent_fit == pytest.approx(0.0, abs=0.2)  # log-like growth


def test_shepp_series_convergent_case():
    d = series_partial_sums("shepp", lambda n: 1.0 / float(n) ** 2, [100, 1000, 10_000])
    # tail adds exp(pi^2/6) * sum 1/n^2 over the last decade: about 5e-4
    assert d.partial_sums[-1] - d.partial_sums[-2] < 1e-2
    assert not d.looks_divergent


def test_series_sequence_and_callable_agree():
    seq = [float(n) for n in range(1, 501)]
    a = series_partial_sums("reciprocal", seq, [500])
    b = series_partial_sums("reciprocal", lambda n: float(n), [500])
    assert a.partial_sums == b.partial_sums


def test_series_validation():
    with pytest.raises(ValueError):
        series_partial_sums("wm", lambda n: float(n), [10])  # missing eps
    with pytest.raises(ValueError):
        series_partial_sums("reciprocal", lambda n: 0.0, [10])
    with pytest.raises(ValueError):
        series_partial_sums("shepp", lambda n: 1.5, [10])
    with pytest.raises(ValueError):
        series_partial_sums("reciprocal", lambda n: float(n), [10, 10])
    with pytest.raises(ValueError):
        series_partial_sums("nope", lambda n: float(n), [10])


# ---------------------------------------------------------------------------
# divergent subset extraction


def check_subset_certificates(res, mu, phi):
    """Recompute every reported quantity from scratch."""
    members = res.members
    assert np.all(np.diff(members) > 0)
    # the total is the sum of running prefix minima of mu(phi(member))
    w = np.array([mu(int(phi(int(m)))) for m in members])
    mins = np.minimum.accumulate(w)
    assert res.total == pytest.approx(math.fsum(mins), rel=1e-12)
    assert res.total >= 0.0
    # per-block bounds
    prev_max_img = -1
    for blk, bound in zip(res.blocks, res.per_block_bounds):
        imgs = np.array([phi(int(m)) for m in blk])
        want = blk.size * float(np.min([mu(int(i)) for i in imgs]))
        assert bound == pytest.approx(want, rel=1e-12)
        # image ranges are contiguous and sit just past everything before
        assert np.array_equal(np.sort(imgs), np.arange(prev_max_img + 1, prev_max_img + 1 + blk.size))
        prev_max_img = int(np.max(imgs))


def test_subset_identity_permutation():
    mu = lambda n: 1.0 / (np.asarray(n) + 1.0)
    res = extract_divergent_subset(mu, target=3.0)
    assert res.total >= 3.0
    check_subset_certificates(res, lambda n: 1.0 / (n + 1.0), lambda n: n)
    half = res.eps / 2.0
    assert all(b >= half for b in res.per_block_bounds)


def test_subset_with_dyadic_reversal():
    mu = lambda n: 1.0 / (np.asarray(n) + 1.0)
    res = extract_divergent_subset(mu, target=2.0,
                                   phi=dyadic_block_reversal,
                                   phi_inverse=dyadic_block_reversal)
    assert res.total >= 2.0
    check_subset_certificates(res, lambda n: 1.0 / (n + 1.0),
                              lambda n: int(dyadic_block_reversal(n)))


def test_subset_scalar_only_mu_matches_array_form():
    # a mu that rejects arrays is evaluated one index at a time
    scalar = extract_divergent_subset(lambda n: 1.0 / (float(n) + 1.0),
                                      target=2.0, probe_budget=2000)
    array = extract_divergent_subset(lambda n: 1.0 / (np.asarray(n) + 1.0),
                                     target=2.0, probe_budget=2000)
    assert (scalar.eps, scalar.total) == (array.eps, array.total)
    assert len(scalar.blocks) == len(array.blocks) == 3
    assert all(np.array_equal(a, b) for a, b in zip(scalar.blocks, array.blocks))


def test_subset_block_growth_is_geometricish():
    # for mu(n) = 1/(n+1) each block roughly doubles the index range
    mu = lambda n: 1.0 / (np.asarray(n) + 1.0)
    res = extract_divergent_subset(mu, target=4.0)
    tops = [int(b[-1]) for b in res.blocks]
    assert tops == sorted(tops)
    assert tops[-1] < 10_000  # diverges fast enough to stay small


def test_subset_validation_and_failure():
    mu = lambda n: 1.0 / (np.asarray(n) + 1.0)
    with pytest.raises(ValueError):
        extract_divergent_subset(mu, target=-1.0)
    with pytest.raises(ValueError):
        extract_divergent_subset(mu, target=1.0, phi=dyadic_block_reversal)
    with pytest.raises(ValueError):
        extract_divergent_subset(lambda n: -1.0 * np.ones_like(np.asarray(n, dtype=float)),
                                 target=1.0)
    # summable weights cannot reach a large target: the block search stalls
    with pytest.raises(ProbeFailedError):
        extract_divergent_subset(lambda n: np.exp2(-np.asarray(n, dtype=np.float64)),
                                 target=10.0, probe_budget=100, search_budget=20_000)


def test_dyadic_block_reversal_structure():
    n = np.arange(0, 2**12)
    img = dyadic_block_reversal(n)
    assert dyadic_block_reversal(0) == 0
    # self inverse, hence a permutation
    assert np.array_equal(dyadic_block_reversal(img), n)
    # preserves each dyadic block
    for j in range(0, 12):
        blk = np.arange(2**j, 2**(j + 1))
        assert np.array_equal(np.sort(dyadic_block_reversal(blk)), blk)
        assert dyadic_block_reversal(2**j) == 2**(j + 1) - 1
    # scalar and array calls agree
    assert [dyadic_block_reversal(int(i)) for i in range(20)] == list(img[:20])
    with pytest.raises(ValueError):
        dyadic_block_reversal(-3)


# ---------------------------------------------------------------------------
# circle coverings


def test_uncovered_no_arcs_is_everything():
    fam = ArcFamily(arcs=())
    assert circle_uncovered(fam) == [(0.0, 1.0)]


def test_uncovered_single_arc():
    fam = ArcFamily(arcs=((0.25, 0.1),))
    assert circle_uncovered(fam) == [(0.35, 1.1)]
    assert uncovered_measure(circle_uncovered(fam)) == pytest.approx(0.75)


def test_uncovered_wrapping_arc():
    # arc from 0.9 wraps to 0.2; complement is the closed arc [0.2, 0.9]
    fam = ArcFamily(arcs=((0.3, 0.9),))
    start = 0.9 + 0.3 - 1.0  # endpoint arithmetic stays in float64
    assert circle_uncovered(fam) == [(start, 0.9)]


def test_uncovered_touching_arcs_leave_a_point():
    fam = ArcFamily(arcs=((0.3, 0.0), (0.3, 0.3)))
    unc = circle_uncovered(fam)
    assert (0.3, 0.3) in unc          # degenerate point between open arcs
    assert (0.6, 1.0) in unc
    assert uncovered_measure(unc) == pytest.approx(0.4)


def test_uncovered_full_cover_is_empty():
    fam = ArcFamily(arcs=((0.6, 0.0), (0.6, 0.5)))
    assert circle_uncovered(fam) == []


def test_uncovered_seam_handling():
    # nothing wraps: the seam point 0 is uncovered even with dense arcs
    fam = ArcFamily(arcs=((0.5, 0.0), (0.5, 0.5)))
    unc = circle_uncovered(fam)
    assert (0.5, 0.5) in unc
    assert (0.0, 0.0) in unc or (1.0, 1.0) in unc or any(s == e for s, e in unc)


def test_uncovered_prefix_argument():
    fam = ArcFamily(arcs=((0.25, 0.1), (0.5, 0.4)))
    assert circle_uncovered(fam, n=1) == circle_uncovered(ArcFamily(arcs=((0.25, 0.1),)))
    assert uncovered_measure(circle_uncovered(fam, n=2)) <= \
        uncovered_measure(circle_uncovered(fam, n=1))


def grid_oracle(pairs, grid_size):
    """Count grid points of {k/grid_size} not strictly inside any arc."""
    covered = np.zeros(grid_size, dtype=bool)
    for l, u in pairs:
        a, b = u, u + l
        lo = math.floor(a * grid_size) + 1
        hi = math.ceil(b * grid_size) - 1
        if lo <= hi:
            idx = np.arange(lo, hi + 1) % grid_size
            covered[idx] = True
    return int((~covered).sum())


@pytest.mark.parametrize("seed", range(10))
def test_uncovered_matches_grid_oracle(seed):
    gen = np.random.default_rng(7000 + seed)
    n = 60
    pairs = tuple((1.0 / (j + 2.0), float(gen.uniform(0.0, 1.0) * (1.0 - 1e-12)))
                  for j in range(n))
    fam = ArcFamily(arcs=pairs)
    unc = circle_uncovered(fam)
    measure = uncovered_measure(unc)
    grid = 200_000
    free = grid_oracle(pairs, grid)
    assert abs(measure - free / grid) < (len(unc) + 1) / grid
    if free > 0:
        assert len(unc) > 0


def test_uncovered_measure_ignores_degenerate_points():
    assert uncovered_measure([(0.3, 0.3), (0.5, 0.75)]) == pytest.approx(0.25)
    assert uncovered_measure([]) == 0.0


def test_arc_family_validation():
    with pytest.raises(ValueError):
        ArcFamily(arcs=((1.5, 0.0),))
    with pytest.raises(ValueError):
        ArcFamily(arcs=((0.5, 1.0),))
    with pytest.raises(ValueError):
        ArcFamily(arcs=((0.5, 0.0),), speeds=(1.0, 2.0))


# ---------------------------------------------------------------------------
# rotating coverings


def test_rotation_with_integer_speeds_is_periodic():
    fam = ArcFamily(arcs=((0.3, 0.2), (0.4, 0.7)), speeds=(1.0, 2.0))
    scan = rotating_cover_scan(fam, [0.0, 0.25, 0.5, 1.0])
    assert scan.measures[0] == pytest.approx(scan.measures[-1], abs=1e-12)
    assert len(scan.times) == len(scan.measures) == len(scan.arc_counts) == 4


def test_rotation_static(seed=3):
    gen = np.random.default_rng(seed)
    pairs = tuple((0.2, float(gen.uniform(0, 0.999))) for _ in range(5))
    fam = ArcFamily(arcs=pairs, speeds=(0.0,) * 5)
    scan = rotating_cover_scan(fam, np.linspace(0.0, 1.0, 7))
    assert len(set(scan.measures)) == 1  # nothing moves


def test_rotation_windows_are_maximal_runs():
    # one fat arc sweeping the circle once: uncovered iff it fails to cover,
    # which for a single 0.4 arc is always, so one window spanning the scan
    fam = ArcFamily(arcs=((0.4, 0.0),), speeds=(1.0,))
    scan = rotating_cover_scan(fam, np.linspace(0.0, 1.0, 11))
    assert scan.windows == ((0.0, 1.0),)
    assert all(m == pytest.approx(0.6) for m in scan.measures)


def test_rotation_window_detection_with_gaps():
    # two half arcs that align at t = 0.5 leaving (almost) full cover
    fam = ArcFamily(arcs=((0.5, 0.0), (0.5, 0.0)), speeds=(0.0, 1.0))
    scan = rotating_cover_scan(fam, [0.0, 0.25, 0.5, 0.75])
    # at t = 0: identical arcs leave half the circle free; at t = 0.5 the
    # pair covers everything except the two touching endpoints
    assert scan.measures[0] == pytest.approx(0.5)
    assert scan.measures[2] == pytest.approx(0.0, abs=1e-12)
    assert scan.arc_counts[2] >= 1  # endpoints survive as point arcs


def test_rotation_prefix_n():
    fam = ArcFamily(arcs=((0.3, 0.1), (0.3, 0.5)), speeds=(1.0, 1.0))
    one = rotating_cover_scan(fam, [0.1, 0.2], n=1)
    solo = ArcFamily(arcs=((0.3, 0.1),), speeds=(1.0,))
    ref = rotating_cover_scan(solo, [0.1, 0.2])
    assert one.measures == ref.measures

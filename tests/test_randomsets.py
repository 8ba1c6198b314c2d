"""Tests for line models, lazy realization, and exact queries."""

import hashlib
import io
import math
import re

import numpy as np
import pytest
from scipy import stats

from interperc import (
    BooleanComplement,
    ExtensionBudgetError,
    Periodic,
    Poisson,
    RenewalWeibull,
    RngStream,
    extend,
    ensure_window,
    from_points,
    intersects_interval,
    max_void_radius,
    model_label,
    nearest,
    realize,
    thin,
    write_csv,
)

MODELS = [
    Poisson(intensity=2.0),
    Poisson(intensity=0.3),
    Periodic(scale=0.7),
    Periodic(scale=1.5, base_points=(0.0, 0.2), shift=None),
    RenewalWeibull(level=3),
    RenewalWeibull(level=0),
    BooleanComplement(arc_length=0.4),
]


def _ids(rs):
    return [rs.point_id(i) for i in range(len(rs))]


@pytest.mark.parametrize("model", MODELS, ids=model_label)
def test_realize_is_deterministic(model):
    """Same model, seed, stream and window give bit-identical content."""
    a = realize(model, RngStream(101, 7), (-5.0, 5.0))
    b = realize(model, RngStream(101, 7), (-5.0, 5.0))
    if a.kind == "points":
        assert np.array_equal(a.values, b.values)
        assert _ids(a) == _ids(b)
    else:
        assert np.array_equal(a.hole_lo, b.hole_lo)
        assert np.array_equal(a.hole_hi, b.hole_hi)


@pytest.mark.parametrize("model", MODELS, ids=model_label)
def test_other_stream_differs(model):
    a = realize(model, RngStream(101, 7), (-5.0, 5.0))
    b = realize(model, RngStream(101, 8), (-5.0, 5.0))
    if isinstance(model, Periodic) and model.shift is not None:
        return  # fully deterministic model, nothing stream dependent
    if a.kind == "points":
        assert not np.array_equal(a.values, b.values)
    else:
        assert not np.array_equal(a.hole_lo, b.hole_lo)


@pytest.mark.parametrize("model", MODELS, ids=model_label)
@pytest.mark.parametrize("seed", [1, 22, 333])
def test_extension_consistency(model, seed):
    """Extending a window never rewrites the part already seen.

    The content on [-2, 2] must be the same whether we realized [-2, 2]
    directly, realized a sub-window first and extended, or realized a much
    larger window and restricted our attention.
    """
    stream = RngStream(seed, 3)
    small = realize(model, stream, (-0.5, 0.5))
    grown = extend(small, (-2.0, 2.0))
    direct = realize(model, stream, (-2.0, 2.0))
    big = realize(model, stream, (-11.0, 13.0))

    if direct.kind == "points":
        m = (big.values >= -2.0) & (big.values <= 2.0)
        assert np.array_equal(grown.values, direct.values)
        assert np.array_equal(direct.values, big.values[m])
        assert _ids(grown) == _ids(direct)
    else:
        # complement kind: holes overlapping [-2, 2] agree after clipping
        def clipped(rs):
            lo = np.maximum(rs.hole_lo, -2.0)
            hi = np.minimum(rs.hole_hi, 2.0)
            keep = lo < hi
            return lo[keep], hi[keep]

        gl, gh = clipped(grown)
        dl, dh = clipped(direct)
        bl, bh = clipped(big)
        assert np.array_equal(gl, dl) and np.array_equal(gh, dh)
        assert np.array_equal(dl, bl) and np.array_equal(dh, bh)


def test_point_realizations_digest_pinned():
    """Values and point ids of fixed-seed point realizations are pinned
    (numpy 2.x Philox): Poisson on edge-only and on interior blocks, renewal
    and periodic points."""
    h = hashlib.sha256()
    for model, window in ((Poisson(2.0), (-6.3, 5.7)), (Poisson(40.0), (-3.3, 2.6)),
                          (RenewalWeibull(3), (-6.0, 6.0)),
                          (Periodic(0.7, base_points=(0.0, 0.4)), (-6.0, 6.0))):
        rs = realize(model, RngStream(5, 9), window)
        h.update(rs.values.tobytes())
        for i in range(len(rs)):
            h.update(repr(rs.point_id(i)).encode())
    assert h.hexdigest() == "e5c287a7f54d355647f711fb19ee26dfd87be67057f677032346c54810c31939"


def test_extend_rejects_shrinking():
    rs = realize(Poisson(1.0), RngStream(5), (0.0, 4.0))
    with pytest.raises(ValueError):
        extend(rs, (1.0, 3.0))


def test_point_ids_survive_extension():
    rs = realize(Poisson(3.0), RngStream(40), (0.0, 2.0))
    wanted = [(rs.point_id(i), rs.values[i]) for i in range(len(rs))]
    big = extend(rs, (-30.0, 30.0))
    for pid, v in wanted:
        assert big.contains_id(pid)
        assert big.id_value(pid) == v


def test_poisson_gap_law():
    """Consecutive gaps of a rate-lambda process are Exp(lambda)."""
    lam = 2.5
    rs = realize(Poisson(lam), RngStream(2024), (0.0, 4000.0))
    gaps = np.diff(rs.values)
    res = stats.kstest(gaps, "expon", args=(0.0, 1.0 / lam))
    assert res.pvalue > 0.01


def test_poisson_counts_match_intensity():
    lam = 4.0
    rs = realize(Poisson(lam), RngStream(77), (0.0, 3000.0))
    counts = np.histogram(rs.values, bins=np.arange(0.0, 3001.0))[0]
    assert abs(counts.mean() - lam) < 4 * math.sqrt(lam / 3000.0)
    # index of dispersion close to 1 for a Poisson count
    assert abs(counts.var() / counts.mean() - 1.0) < 0.15


@pytest.mark.parametrize("level", [-1, 0, 2, 5])
def test_renewal_interarrival_law(level):
    """Gaps away from the origin follow the stated square-exponential law."""
    c = 2.0 ** (level - 2)
    rs = realize(RenewalWeibull(level=level), RngStream(900 + level), (0.0, 4000.0 * 2 ** (-level / 2.0)))
    gaps = np.diff(rs.values)
    assert len(gaps) > 2000
    # skip the straddling gap: start from the first point right of 0
    res = stats.kstest(gaps, lambda t: 1.0 - np.exp(-c * t * t))
    assert res.pvalue > 0.01


def test_renewal_straddle_is_length_biased():
    """The gap covering the origin has density t*f(t)/mu (size biasing)."""
    level = 2
    c = 2.0 ** (level - 2)
    n = 20000
    lens = np.empty(n)
    for i in range(n):
        rs = realize(RenewalWeibull(level=level), RngStream(3, i), (-0.01, 0.01))
        lo = nearest(rs, 0.0, "down")
        hi = nearest(rs, 0.0, "up")
        lens[i] = hi.value - lo.value

    def cdf(t):
        t = np.asarray(t, dtype=float)
        from scipy.special import erf

        return erf(np.sqrt(c) * t) - 2.0 * np.sqrt(c / np.pi) * t * np.exp(-c * t * t)

    res = stats.kstest(lens, cdf)
    assert res.pvalue > 0.01


def test_renewal_mean_spacing():
    # mean interarrival is sqrt(pi)/2 / sqrt(c) = sqrt(pi) * 2^(-level/2)
    level = 4
    rs = realize(RenewalWeibull(level=level), RngStream(8), (0.0, 1500.0 * 2 ** (-level / 2.0)))
    gaps = np.diff(rs.values)
    want = math.sqrt(math.pi) * 2.0 ** (-level / 2.0)
    assert abs(gaps.mean() - want) < 5 * gaps.std() / math.sqrt(len(gaps))


def test_periodic_fixed_shift_exact():
    rs = realize(Periodic(scale=0.5, base_points=(0.0, 0.3), shift=0.2), RngStream(1), (-2.0, 2.0))
    want = []
    for k in range(-6, 6):
        for b in (0.0, 0.3):
            v = 0.5 * (b + k + 0.2)
            if -2.0 <= v <= 2.0:
                want.append(v)
    assert np.allclose(np.sort(want), rs.values, rtol=0, atol=1e-12)


def test_periodic_random_shift_uniform():
    scale = 2.0
    first = np.empty(4000)
    for i in range(4000):
        rs = realize(Periodic(scale=scale), RngStream(55, i), (0.0, 2.0))
        first[i] = rs.values[0]
    res = stats.kstest(first / scale, "uniform")
    assert res.pvalue > 0.01


def test_boolean_complement_membership():
    model = BooleanComplement(arc_length=0.5)
    rs = realize(model, RngStream(31), (0.0, 50.0))
    # hole endpoints belong to the set, interiors do not
    for lo, hi in zip(rs.hole_lo[:20], rs.hole_hi[:20]):
        if lo >= 0.0:
            assert rs.contains_value(lo)
        if hi <= 50.0:
            assert rs.contains_value(hi)
        assert not rs.contains_value((lo + hi) / 2.0)
    # holes are disjoint, ordered, and at least one arc long
    assert np.all(rs.hole_hi[:-1] < rs.hole_lo[1:])
    inner = (rs.hole_lo >= 0.0) & (rs.hole_hi <= 50.0)
    assert np.all(rs.hole_hi[inner] - rs.hole_lo[inner] >= 0.5 - 1e-12)


def test_boolean_complement_vacancy_fraction():
    # fraction of [0, T] left uncovered tends to exp(-arc_length)
    ell = 0.7
    rs = realize(BooleanComplement(arc_length=ell), RngStream(9), (0.0, 20000.0))
    covered = np.sum(np.minimum(rs.hole_hi, 20000.0) - np.maximum(rs.hole_lo, 0.0))
    frac = 1.0 - covered / 20000.0
    assert abs(frac - math.exp(-ell)) < 0.01


@pytest.mark.parametrize("model", MODELS, ids=model_label)
@pytest.mark.parametrize("direction", ["up", "down", "both"])
def test_nearest_matches_bruteforce(model, direction):
    """nearest() agrees with a scan over a realization that is wide enough."""
    stream = RngStream(606, 1)
    rs = realize(model, stream, (-1.0, 1.0))
    wide = realize(model, stream, (-64.0, 64.0)) if rs.model is not None else rs
    gen = np.random.default_rng(17)
    for z in gen.uniform(-0.9, 0.9, size=40):
        got = nearest(rs, z, direction)
        if wide.kind == "points":
            vals = wide.values
        else:
            # candidates: hole endpoints plus z itself when z is in the set
            vals = np.concatenate([wide.hole_lo, wide.hole_hi, [z] if wide.contains_value(z) else []])
        if direction == "up":
            cand = vals[vals >= z]
            best = cand.min()
        elif direction == "down":
            cand = vals[vals <= z]
            best = cand.max()
        else:
            best = vals[np.argmin(np.abs(vals - z))]
            # resolve brute-force ties upward like the library does
            if abs(z - best) == abs(vals[np.abs(vals - z) == abs(z - best)].max() - z):
                best = vals[np.abs(vals - z) == abs(z - best)].max()
        assert got.value == best
        assert got.distance == abs(best - z)
        assert rs.contains_value(got.value) or wide.contains_value(got.value)


def test_nearest_tie_breaks_upward():
    rs = from_points([-1.0, 1.0], (-2.0, 2.0))
    hit = nearest(rs, 0.0, "both")
    assert hit.value == 1.0 and hit.distance == 1.0


def test_nearest_grows_window_on_demand():
    rs = realize(Poisson(0.05), RngStream(12), (-0.1, 0.1))
    hit = nearest(rs, 0.0, "up")
    assert hit.value >= 0.0
    assert hit.distance < 200.0


def test_nearest_budget_error():
    rs = from_points([100.0], (99.0, 101.0))
    with pytest.raises(ValueError):
        nearest(rs, 0.0, "up")  # query outside a frozen window


@pytest.mark.parametrize("query", [
    lambda rs: nearest(rs, 0.0),
    lambda rs: nearest(rs, 0.0, "up"),
    lambda rs: max_void_radius(rs, (-0.25, 0.25)),
], ids=["nearest-both", "nearest-up", "void"])
def test_growth_budget_error(query):
    # an almost empty line: no answer within 2**10 times the window width
    rs = realize(Poisson(1e-6), RngStream(1), (-0.5, 0.5))
    with pytest.raises(ExtensionBudgetError, match="cap 1024, initial 1"):
        query(rs)


def test_growth_budget_follows_the_queried_window():
    rs = extend(realize(Poisson(1e-6), RngStream(1), (-0.5, 0.5)), (-4.0, 4.0))
    with pytest.raises(ExtensionBudgetError, match="cap 8192, initial 8"):
        nearest(rs, 0.0)


@pytest.mark.parametrize("model", [Poisson(1e9), RenewalWeibull(80), Periodic(1e-9)],
                         ids=["poisson", "renewal", "periodic"])
def test_realize_refuses_oversized_window(model):
    # each would need ~1e9 points or more; the guard raises before any draw
    with pytest.raises(ValueError, match=re.escape(f"{model_label(model)} on window [0, 1]")
                       + r" would hold about \S+ points or holes"):
        realize(model, RngStream(1), (0.0, 1.0))


@pytest.mark.parametrize("query", [
    lambda rs, z: nearest(rs, z, "both"),
    lambda rs, z: nearest(rs, z, "up"),
    lambda rs, z: max_void_radius(rs, (0.0, z)),
    lambda rs, z: max_void_radius(rs, (-z, 0.0)),
], ids=["nearest-both", "nearest-up", "void-hi", "void-lo"])
@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_non_finite_query_rejected_before_growth(query, z):
    for model in (Poisson(2.0), BooleanComplement(arc_length=0.4)):
        rs = realize(model, RngStream(1), (-0.5, 0.5))
        with pytest.raises(ValueError):
            query(rs, z)


def test_max_void_radius_degenerate_interval_at_point():
    rs = realize(Poisson(2.0), RngStream(1), (-4.0, 4.0))
    v = float(rs.values[3])
    assert max_void_radius(rs, (v, v)) == (0.0, v)
    # a single value inside a gap is at its distance from the set
    mid = 0.5 * (rs.values[3] + rs.values[4])
    assert max_void_radius(rs, (mid, mid)) == (nearest(rs, mid).distance, mid)


def test_max_void_radius_periodic_exact():
    # lattice 0.6*Z restricted to a long interval: radius is half the spacing
    rs = realize(Periodic(scale=0.6, shift=0.0), RngStream(2), (-4.0, 4.0))
    vr = max_void_radius(rs, (-3.0, 3.0))
    assert vr.radius == pytest.approx(0.3, abs=1e-15)
    assert min(abs((vr.center % 0.6) - 0.3), abs((vr.center % 0.6) + 0.3 - 0.6)) < 1e-12


@pytest.mark.parametrize("seed", [3, 14, 159])
def test_max_void_radius_vs_grid(seed):
    rs = realize(Poisson(1.3), RngStream(seed), (-9.0, 9.0))
    vr = max_void_radius(rs, (-5.0, 5.0))
    grid = np.linspace(-5.0, 5.0, 20001)
    d = np.abs(grid[:, None] - rs.values[None, :]).min(axis=1)
    assert vr.radius >= d.max() - 1e-12
    assert vr.radius <= d.max() + 5e-4  # grid resolution slack
    # reported center actually achieves the radius
    dc = np.abs(rs.values - vr.center).min()
    assert dc == pytest.approx(vr.radius, abs=1e-12)


def test_intersects_interval_points():
    rs = from_points([0.5, 2.5], (0.0, 3.0))
    assert intersects_interval(rs, 0.0, 1.0)
    assert not intersects_interval(rs, 1.0, 2.0)
    assert intersects_interval(rs, 2.5, 2.6)
    with pytest.raises(ValueError):
        intersects_interval(rs, -1.0, 0.5)


def test_intersects_interval_complement():
    rs = realize(BooleanComplement(arc_length=0.9), RngStream(66), (0.0, 30.0))
    gen = np.random.default_rng(5)
    for _ in range(50):
        a = gen.uniform(0.0, 29.0)
        b = a + gen.uniform(0.001, 1.0)
        grid = np.linspace(a, b - 1e-9, 500)
        want = any(rs.contains_value(g) for g in grid) or rs.contains_value(a)
        got = intersects_interval(rs, a, b)
        if want:
            assert got  # grid found a member, the exact test must too
        # (when the grid misses, the interval may still clip a set sliver)


def test_intersects_interval_empty_interval_is_false():
    pts = from_points([0.5, 2.5], (0.0, 3.0))
    comp = realize(Periodic(scale=1.0, base_interval=(0.0, 0.5), shift=0.0),
                   RngStream(1), (0.0, 3.0))
    assert comp.contains_value(0.25) and pts.contains_value(0.5)
    assert not intersects_interval(comp, 0.25, 0.25)
    assert not intersects_interval(pts, 0.5, 0.5)


def test_from_points_rejects_points_outside_window():
    with pytest.raises(ValueError):
        from_points([0.5, 5.0], (0.0, 4.0))


def test_thinning_is_subset_and_deterministic():
    rs = realize(Poisson(5.0), RngStream(87), (0.0, 40.0))
    t1 = thin(rs, 0.4, RngStream(87).child("thin-test"))
    t2 = thin(rs, 0.4, RngStream(87).child("thin-test"))
    assert np.array_equal(t1.values, t2.values)
    assert np.all(np.isin(t1.values, rs.values))
    n, k = len(rs), len(t1)
    assert abs(k / n - 0.4) < 4 * math.sqrt(0.4 * 0.6 / n)
    with pytest.raises(ValueError):
        extend(t1, (-1.0, 41.0))


def test_from_points_frozen():
    rs = from_points([1.0, 2.0, 3.0], (0.0, 4.0))
    assert rs.contains_value(2.0)
    assert not rs.contains_value(np.nextafter(2.0, 3.0))  # bit-exact membership
    with pytest.raises(ValueError):
        extend(rs, (0.0, 8.0))


def test_ensure_window_noop_when_covered():
    rs = realize(Poisson(1.0), RngStream(4), (-3.0, 3.0))
    again = ensure_window(rs, -1.0, 2.0)
    assert again is rs


def test_write_csv_format():
    rs = realize(Poisson(2.0), RngStream(123, 4), (0.0, 3.0))
    buf = io.StringIO()
    write_csv(rs, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# model=poisson(intensity=2,x=0)")
    assert "seed=123" in lines[0] and "stream=4" in lines[0]
    assert len(lines) == 1 + len(rs)
    vals = [float(row) for row in lines[1:]]
    assert np.array_equal(np.asarray(vals), rs.values)  # %.17g round-trips


def test_model_validation():
    with pytest.raises(ValueError):
        realize(Poisson(-1.0), RngStream(1), (0.0, 1.0))
    with pytest.raises(ValueError):
        realize(Periodic(scale=0.0), RngStream(1), (0.0, 1.0))
    with pytest.raises(ValueError):
        realize(BooleanComplement(arc_length=1.5), RngStream(1), (0.0, 1.0))
    with pytest.raises(ValueError):
        realize(Poisson(1.0), RngStream(1), (2.0, 1.0))


def test_rng_child_streams_are_distinct():
    s = RngStream(42)
    kids = {s.child("a").stream_id, s.child("b").stream_id, s.child("a", 1).stream_id,
            s.child("a", -1).stream_id, s.stream_id}
    assert len(kids) == 5

"""Fast invariant checks runnable anywhere via `interperc selftest`.

Each check is deterministic for a given seed and takes well under a second;
together they exercise the package's core guarantees (window consistency,
exact nearest-point geometry, interpolant certificates, lattice sandwiching,
covering identities) without the statistical machinery of the full test
suite.
"""

from __future__ import annotations

import io

import numpy as np

from .brownian import brownian_path, line_stream
from .criteria import (ArcFamily, circle_uncovered, extract_divergent_subset,
                       uncovered_measure)
from .interpolators import (Line, continuous_interpolate, greedy_trace,
                            min_total_variation, monotone_interpolate,
                            trace_signs)
from .percolation import build_lattice, directed_crossing, lipschitz_feasible
from .randomsets import (BooleanComplement, Periodic, Poisson, RenewalWeibull,
                         RngStream, extend, from_points, max_void_radius,
                         nearest, realize, write_csv)

_CHECKS = []


def _check(fn):
    _CHECKS.append((fn.__name__, fn))
    return fn


def _poisson_line(seed, tag, lam, x, window):
    rs = realize(Poisson(lam, x=x), RngStream(seed).child(tag, int(x * 1024)), window)
    return Line(x=x, realized=rs)


@_check
def window_consistency(seed):
    base = RngStream(seed, 77)
    for model in (Poisson(2.0), RenewalWeibull(3), Periodic(0.7, base_points=(0.0, 0.4)),
                  BooleanComplement(0.35)):
        small = realize(model, base, (-4.0, 4.0))
        big = extend(small, (-16.0, 16.0))
        if small.kind == "points":
            assert np.array_equal(
                small.values, big.values[(big.values >= -4.0) & (big.values <= 4.0)])
            ids_small = {small.point_id(i) for i in range(len(small))}
            ids_big = {big.point_id(i) for i in range(len(big))
                       if -4.0 <= big.values[i] <= 4.0}
            assert ids_small == ids_big
        else:
            for z in np.linspace(-4.0, 4.0, 801):
                assert small.contains_value(z) == big.contains_value(z)


@_check
def nearest_exactness(seed):
    rs = realize(Poisson(1.5), RngStream(seed, 5), (-30.0, 30.0))
    vals = rs.values
    for z in np.linspace(-9.7, 9.7, 97):
        up_ref = float(vals[int(np.searchsorted(vals, z, side="left"))])
        dn_ref = float(vals[int(np.searchsorted(vals, z, side="right")) - 1])
        up = nearest(rs, z, "up")
        dn = nearest(rs, z, "down")
        both = nearest(rs, z, "both")
        assert up.value == up_ref and up.distance == up_ref - z
        assert dn.value == dn_ref and dn.distance == z - dn_ref
        want = up_ref if up.distance <= dn.distance else dn_ref
        assert both.value == want


@_check
def void_radius_exactness(seed):
    rs = realize(Poisson(0.8), RngStream(seed, 9), (-40.0, 40.0))
    vr = max_void_radius(rs, (-5.0, 5.0))
    assert nearest(rs, vr.center, "both").distance == vr.radius
    mesh = np.linspace(-5.0, 5.0, 4001)
    i = np.searchsorted(rs.values, mesh)
    up = np.where(i < len(rs.values), rs.values[np.clip(i, 0, len(rs.values) - 1)] - mesh, np.inf)
    dn = np.where(i > 0, mesh - rs.values[np.clip(i - 1, 0, None)], np.inf)
    mesh_max = float(np.max(np.minimum(up, dn)))
    assert mesh_max <= vr.radius <= mesh_max + (mesh[1] - mesh[0])


@_check
def periodic_formula(seed):
    m = Periodic(0.5, base_points=(0.0, 0.25), shift=0.125)
    rs = realize(m, RngStream(seed), (-2.0, 2.0))
    want = sorted(0.5 * (c + 0.125 + k) for c in (0.0, 0.25) for k in range(-6, 6)
                  if -2.0 <= 0.5 * (c + 0.125 + k) <= 2.0)
    assert np.array_equal(rs.values, np.array(want))
    m2 = Periodic(1.0, base_interval=(0.0, 0.25), shift=0.0)
    rs2 = realize(m2, RngStream(seed), (-3.0, 3.0))
    assert rs2.kind == "complement"
    assert all(b - a == 0.75 for a, b in zip(rs2.hole_lo, rs2.hole_hi))
    # random shift is a pure function of the stream
    m3 = Periodic(1.0)
    a = realize(m3, RngStream(seed, 3), (0.0, 4.0))
    b = realize(m3, RngStream(seed, 3), (0.0, 4.0))
    assert np.array_equal(a.values, b.values)


@_check
def continuous_certificates(seed):
    lines = [_poisson_line(seed, "cc", lam, x, (-6.0, 6.0))
             for lam, x in zip(range(1, 11), np.linspace(0.08, 0.92, 10))]
    log = []
    f = continuous_interpolate(lines, 0.0, 1.0, 0.0, 0.0, level_log=log)
    assert log, "expected at least one refinement level"
    for rec in log:
        if rec.level > 0:
            assert rec.sup_change <= 2.0 ** -(rec.level - 1)
    for ln in lines:
        assert ln.realized.contains_value(f(ln.x))


@_check
def monotone_minimality(seed):
    lines = [_poisson_line(seed, "mi", 3.0, float(i), (-2.0, 30.0))
             for i in range(1, 9)]
    g = monotone_interpolate(lines)
    assert g.is_nondecreasing()
    y = 0.0
    for ln, (_, chosen, _) in zip(lines, g.breakpoints):
        vals = ln.realized.values
        i = int(np.searchsorted(vals, y, side="left"))
        assert chosen == vals[i], "a smaller admissible point exists"
        y = chosen
    assert g.sup_norm == g.values[-1]


@_check
def greedy_dominance(seed):
    lines = [_poisson_line(seed, "gd", 2.0, float(i), (-25.0, 25.0))
             for i in range(1, 10)]
    g = RngStream(seed, 1234).generator()
    for _ in range(20):
        f_vals = [nearest(ln.realized, 3.0 * g.standard_normal(), "both").value
                  for ln in lines]
        res = greedy_trace(lines, f_vals)   # dominance asserted inside
        assert len(res.signs) == len(lines)


@_check
def min_variation_methods_agree(seed):
    lines = [_poisson_line(seed, "mv", 3.0, float(i), (-20.0, 20.0))
             for i in range(1, 9)]
    a = min_total_variation(lines, method="reachable_states")
    b = min_total_variation(lines, method="brute_force")
    assert a.total_variation == b.total_variation
    g = RngStream(seed, 99).generator()
    for _ in range(10):
        signs = tuple(int(s) for s in g.choice((-1, 1), size=len(lines)))
        assert a.total_variation <= trace_signs(lines, signs).total_variation


@_check
def lattice_sandwich(seed):
    rows, i_lo = 8, -1
    corridor = 4.0 * (rows - 2)          # values stay within the row span
    for t in range(12):
        lines = [Line(x=float(j), realized=realize(
            Poisson(1.2, x=float(j)),
            RngStream(seed).child("ls", t, j), (-7.0, corridor + 7.0)))
            for j in range(1, 11)]
        tight = lipschitz_feasible(lines, 2.0, (0.0, corridor))
        lattice = build_lattice(lines, rows, i_lo=i_lo)
        path = directed_crossing(lattice)
        if tight is not None:
            assert path is not None, "2-feasible strip must cross the lattice"
        if path is not None:
            loose = lipschitz_feasible(
                lines, 6.0, (4.0 * i_lo - 1.0, 4.0 * (i_lo + rows) + 1.0))
            assert loose is not None, "a lattice crossing must be 6-feasible"


@_check
def covering_identities(seed):
    fam = ArcFamily(arcs=((0.30, 0.10), (0.25, 0.55), (0.30, 0.90)))
    unc = circle_uncovered(fam)
    covered = 1.0 - uncovered_measure(unc)
    # independent union measure via a sorted max-end sweep
    ivals = []
    for l, u in fam.arcs:
        if u + l > 1.0:
            ivals += [(u, 1.0), (0.0, u + l - 1.0)]
        else:
            ivals.append((u, u + l))
    ivals.sort()
    tot, ce = 0.0, 0.0
    for s, e in ivals:
        if e > max(s, ce):
            tot += e - max(s, ce)
            ce = e
    assert abs(covered - tot) < 1e-12
    # membership agreement on a grid: uncovered == outside every open arc
    g = np.linspace(0.0, 1.0, 10001)[:-1]
    in_unc = np.zeros(g.size, dtype=bool)
    for s, e in unc:
        if e <= 1.0:
            in_unc |= (g >= s) & (g <= e)
        else:
            in_unc |= (g >= s) | (g <= e - 1.0)
    in_arcs = np.zeros(g.size, dtype=bool)
    for l, u in fam.arcs:
        if u + l <= 1.0:
            in_arcs |= (g > u) & (g < u + l)
        else:
            in_arcs |= (g > u) | (g < u + l - 1.0)
    assert np.array_equal(in_unc, ~in_arcs)


@_check
def divergent_subset_certificates(seed):
    res = extract_divergent_subset(lambda n: 1.0 / (n + 1.0), 3.0,
                                   probe_budget=2000)
    assert res.total >= 3.0
    members = res.members
    assert np.all(np.diff(members) > 0)
    assert all(b >= res.eps / 2.0 for b in res.per_block_bounds[1:])


@_check
def brownian_membership(seed):
    path = brownian_path(seed, 4)
    xs, ys = path.grid()
    assert xs.size == 17 and ys[0] == 0.0
    for level, k in [(-1, 1)] + [(r, k) for r in range(1, 5)
                                 for k in range(1, 2 ** r, 2)]:
        x = 1.0 if level == -1 else k * 2.0 ** -level
        value, pid = path.values[x]
        rs = realize(RenewalWeibull(level), line_stream(seed, level, k),
                     (value - 1.0, value + 1.0))
        assert rs.contains_id(pid) and rs.id_value(pid) == value


@_check
def serialization_deterministic(seed):
    rs = realize(Poisson(2.0), RngStream(seed, 2), (-3.0, 3.0))
    a, b = io.StringIO(), io.StringIO()
    write_csv(rs, a)
    write_csv(extend(rs, (-3.0, 3.0)), b)
    assert a.getvalue() == b.getvalue() and a.getvalue().startswith("# model=")
    ex = from_points([0.5, -1.25], (-2.0, 2.0))
    c = io.StringIO()
    write_csv(ex, c)
    assert "seed=none" in c.getvalue()


def run_selftest(seed: int = 20260814) -> dict:
    """Run every registered check; returns a JSON-friendly report."""
    results = []
    for name, fn in _CHECKS:
        try:
            fn(seed)
            results.append({"name": name, "ok": True, "detail": ""})
        except Exception as exc:   # noqa: BLE001 - report, don't crash
            results.append({"name": name, "ok": False,
                            "detail": f"{type(exc).__name__}: {exc}"})
    return {"ok": all(r["ok"] for r in results), "seed": seed,
            "checks": results}

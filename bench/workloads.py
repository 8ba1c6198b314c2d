"""The four benchmark workloads.

A workload turns ``--seed`` into problems, runs them in whole rounds and
checks what the program returned.  Every round runs the same operations on
new inputs drawn from ``RngStream(seed).child("round", r)``, so a given seed
always gives the same inputs and a longer run only adds rounds.

Program functions are looked up on their modules at call time, so the
traced run's wrappers (see tracing.py) see every call.

A "line" is one abscissa x carrying its own set Y_x that a problem is taken
through to its result; ``lines_per_s`` counts them.
"""

from __future__ import annotations

import hashlib
import math
import sys

import numpy as np

from interperc import brownian, interpolators, percolation, randomsets
from interperc.interpolators import Line
from interperc.randomsets import (BooleanComplement, Periodic, Poisson,
                                  RenewalWeibull, RngStream)

import oracles

#: Rounds whose index is a multiple of this are re-checked against the
#: oracles in full; the statistical checks use every round.
CHECK_STRIDE = 4


class Workload:
    """Base class: subclasses define ops(), warmup() and check()."""

    def __init__(self, seed: int):
        self.seed = seed
        self.base = RngStream(seed)
        self.records = []   # per round, one record per op (None if it failed)

    def round_stream(self, r: int) -> RngStream:
        return self.base.child("round", r)

    def ops(self, r: int) -> list:
        """Callables for round r; each returns (lines, record)."""
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def check(self) -> list:
        raise NotImplementedError

    def complete_rounds(self):
        """(index, records) of the rounds in which no operation failed."""
        return [(r, recs) for r, recs in enumerate(self.records)
                if all(rec is not None for rec in recs)]

    def checked_rounds(self):
        return [(r, recs) for r, recs in self.complete_rounds()
                if r % CHECK_STRIDE == 0]

    def digest(self) -> str:
        """sha256 of the first round's results, for information only."""
        with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
            text = repr(self.records[0])
        return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# crossing


class Crossing(Workload):
    """crossing_probability at k=1 on the c10 strip (width and corridor 200)."""

    K = 1.0
    WIDTH = 200
    HEIGHT = 200.0
    TRIALS = 8
    #: Intensity of the oracle's extra batch, where outcomes vary.
    NEAR_LAMBDA = 1.0
    NEAR_TRIALS = 6

    def __init__(self, seed: int, lam: float):
        super().__init__(seed)
        self.lam = lam

    def _estimate(self, lam, trials, stream):
        return percolation.crossing_probability(lam, self.K, self.WIDTH,
                                                self.HEIGHT, trials, stream)

    def ops(self, r):
        stream = self.round_stream(r)

        def op():
            est = self._estimate(self.lam, self.TRIALS, stream)
            return self.TRIALS * self.WIDTH, (est.successes, est.trials)
        return [op]

    def warmup(self):
        self._estimate(self.lam, 1, self.base.child("warmup"))

    def _strip(self, lam, stream, trial):
        # Built from realize() and the documented stream layout rather than
        # strip_lines(), so the checks keep working if strip_lines changes.
        ts = stream.child("trial", trial)
        window = (-self.K, self.HEIGHT + self.K)
        return [Line(float(j), randomsets.realize(Poisson(lam, x=float(j)),
                                                  ts.child("line", j), window))
                for j in range(1, self.WIDTH + 1)]

    def check(self):
        problems = []
        corridor = (0.0, self.HEIGHT)
        points = length = 0.0
        for r, [(successes, trials)] in self.checked_rounds():
            stream = self.round_stream(r)
            flags = []
            for t in range(trials):
                sets = [ln.realized.values for ln in self._strip(self.lam, stream, t)]
                flags.append(oracles.reachable_sweep(sets, self.K, corridor))
                points += sum(s.size for s in sets)
                length += len(sets) * (self.HEIGHT + 2.0 * self.K)
            problems += oracles.check_crossing_count(f"round {r}", successes, flags)
        problems += oracles.check_intensity("checked strips", int(points),
                                            length, self.lam)
        # a batch near the threshold, where both outcomes occur
        stream = self.base.child("near")
        flags = []
        for t in range(self.NEAR_TRIALS):
            lines = self._strip(self.NEAR_LAMBDA, stream, t)
            sets = [ln.realized.values for ln in lines]
            flag = oracles.reachable_sweep(sets, self.K, corridor)
            path = percolation.lipschitz_feasible(lines, self.K, corridor)
            if (path is not None) != flag:
                problems.append(f"near batch trial {t}: program says "
                                f"{path is not None}, oracle {flag}")
            elif path is not None:
                problems += oracles.check_feasible_path(
                    f"near batch trial {t}", path, sets, self.K, corridor)
            flags.append(flag)
        est = self._estimate(self.NEAR_LAMBDA, self.NEAR_TRIALS, stream)
        problems += oracles.check_crossing_count("near batch", est.successes, flags)
        return problems


# ---------------------------------------------------------------------------
# Brownian


class Brownian(Workload):
    """brownian_path at depth 10 plus level-6 midpoint displacements."""

    DEPTH = 10
    LEVEL = 6
    COUNT = 600

    def path_seed(self, r: int) -> int:
        return self.seed * 1_000_000 + r

    def ops(self, r):
        s = self.path_seed(r)

        def path():
            p = brownian.brownian_path(s, self.DEPTH)
            ys = np.array([v for _, (v, _) in sorted(p.values.items())])
            return 2 ** self.DEPTH, ys

        def disp():
            d = brownian.midpoint_displacements(self.LEVEL, self.COUNT, s)
            return self.COUNT, d
        return [path, disp]

    def warmup(self):
        brownian.brownian_path(self.path_seed(-1), 4)
        brownian.midpoint_displacements(self.LEVEL, 8, self.path_seed(-1))

    def check(self):
        problems = []
        for r, (ys, _) in self.checked_rounds():
            problems += oracles.check_path(self.path_seed(r), self.DEPTH, ys)
        done = [recs for _, recs in self.complete_rounds()]
        incs = np.concatenate([np.diff(ys) for ys, _ in done])
        problems += oracles.check_variance("path increments", incs,
                                           2.0 ** -self.DEPTH)
        disp = np.concatenate([d for _, d in done])
        problems += oracles.check_variance("midpoint displacements", disp,
                                           brownian.displacement_variance(self.LEVEL))
        return problems


# ---------------------------------------------------------------------------
# interpolation


def _mixed_model(j: int, x: float):
    m = j % 5
    if m == 0:
        return Poisson(3.0, x=x)
    if m == 1:
        return RenewalWeibull(2, x=x)
    if m == 2:
        return Periodic(0.7, base_interval=(0.0, 0.4), x=x)
    if m == 3:
        return BooleanComplement(0.6, x=x)
    return Periodic(0.9, base_points=(0.0, 0.3), x=x)


class Interpolate(Workload):
    """continuous, monotone and bv-min interpolation in every round."""

    CONT_RUNS, CONT_LINES = 4, 40
    MONO_RUNS = 15
    MONO_LAMBDAS = [float(j * j) for j in range(1, 51)]
    BV_RUNS, BV_LINES, BV_LAMBDA = 6, 12, 1.5

    def _cont_lines(self, stream):
        n = self.CONT_LINES
        specs = []
        for j in range(n):
            x = (j + 1) / (n + 1)
            specs.append((x, _mixed_model(j, x), stream.child("line", j)))
        return specs

    def _bv_streams(self, stream):
        return [stream.child("line", j) for j in range(self.BV_LINES)]

    def ops(self, r):
        st = self.round_stream(r)

        def cont(i):
            def op():
                specs = self._cont_lines(st.child("cont", i))
                lines = [Line(x, randomsets.realize(m, s, (-3.0, 3.0)))
                         for x, m, s in specs]
                f = interpolators.continuous_interpolate(lines, 0.0, 1.0, 0.0, 0.0)
                return len(lines), ("cont", i, np.array([k[:2] for k in f.knots]))
            return op

        def mono(i):
            def op():
                stream = st.child("mono", i)
                y, lines = 0.0, []
                for j, lam in enumerate(self.MONO_LAMBDAS):
                    rs = randomsets.realize(Poisson(lam, x=float(j + 1)),
                                            stream.child("line", j),
                                            (y, y + 20.0 / lam))
                    lines.append(Line(float(j + 1), rs))
                    y = randomsets.nearest(rs, y, "up").value
                f = interpolators.monotone_interpolate(lines, start=0.0)
                return len(lines), ("mono", i, f.values, f.sup_norm)
            return op

        def bv(i):
            def op():
                streams = self._bv_streams(st.child("bv", i))
                lines = [Line(float(j), randomsets.realize(
                    Poisson(self.BV_LAMBDA, x=float(j)), s, (-25.0, 25.0)))
                    for j, s in enumerate(streams)]
                res = interpolators.min_total_variation(lines)
                return len(lines), ("bv", i, res.total_variation)
            return op

        return ([cont(i) for i in range(self.CONT_RUNS)]
                + [mono(i) for i in range(self.MONO_RUNS)]
                + [bv(i) for i in range(self.BV_RUNS)])

    def warmup(self):
        for op in self.ops(-1)[::7]:
            op()

    def _mono_specs(self, stream):
        return [(float(j + 1), Poisson(lam, x=float(j + 1)),
                 stream.child("line", j), lam)
                for j, lam in enumerate(self.MONO_LAMBDAS)]

    def check(self):
        problems = []
        for r, recs in self.checked_rounds():
            st = self.round_stream(r)
            for rec in recs:
                kind, i = rec[0], rec[1]
                label = f"round {r} {kind} {i}"
                if kind == "cont":
                    specs = self._cont_lines(st.child("cont", i))
                    problems += oracles.check_knots(label, specs, rec[2],
                                                    [(0.0, 0.0), (1.0, 0.0)])
                elif kind == "mono":
                    specs = self._mono_specs(st.child("mono", i))
                    problems += oracles.check_monotone(label, specs, rec[2], 0.0)
                else:
                    sets = [randomsets.realize(Poisson(self.BV_LAMBDA, x=float(j)),
                                               s, (-60.0, 60.0)).values
                            for j, s in enumerate(self._bv_streams(st.child("bv", i)))]
                    problems += oracles.check_min_variation(label, rec[2], sets)
        sups = np.array([rec[3] for _, recs in self.complete_rounds()
                         for rec in recs if rec[0] == "mono"])
        target = math.fsum(1.0 / lam for lam in self.MONO_LAMBDAS)
        problems += oracles.check_mean("monotone sup norm", sups, target)
        return problems


WORKLOADS = {
    "crossing_sub": lambda seed: Crossing(seed, 0.7),
    "crossing_super": lambda seed: Crossing(seed, 1.4),
    "brownian": Brownian,
    "interpolate": Interpolate,
}

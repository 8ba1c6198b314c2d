"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout of the repository:

    python3 bench/run.py --workload crossing_sub --seed 1 --seconds 20 --trace 0

The workload runs in whole rounds for about --seconds wall seconds.  The
reference kernel (refkernel.py) runs before the first round and after every
round; each round's wall time is scaled by R0 / R, with R the mean of the
kernel times on either side of it, and reported in reference seconds
(ref_s).  Between rounds the run fails if the program left a thread or a
child process alive, since background work would slow the kernel and make
the program look faster.

With --trace 0 the metrics are the end-to-end ones: setup_s, the wall
seconds from the start of this process to the end of the warm-up call;
lines_per_s, the median over rounds of lines per reference second; and
peak_rss_mb.  With --trace 1 even rounds run plain and odd rounds run
under the tracer; the metrics are the per-layer ones, per traced round, and
the spans go to bench/out/.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

LAYER_METRICS = (
    ["randomsets.child.calls", "randomsets.child.self_s"]
    + [f"randomsets.realize.{kind}.{what}"
       for kind in ("poisson", "renewal", "periodic", "boolean")
       for what in ("calls", "points", "self_s")]
    + ["randomsets.extend.calls", "randomsets.extend.self_s",
       "randomsets.nearest.calls", "randomsets.nearest.self_s",
       "randomsets.max_void_radius.calls", "randomsets.max_void_radius.self_s",
       "percolation.strip_lines.self_s", "percolation.lines_realized",
       "percolation.columns_visited", "percolation.column_use",
       "percolation.lipschitz_feasible.calls",
       "percolation.lipschitz_feasible.self_s",
       "percolation.crossing_probability.self_s",
       "interpolators.continuous_interpolate.self_s",
       "interpolators.monotone_interpolate.self_s",
       "interpolators.min_total_variation.self_s",
       "brownian.brownian_path.self_s",
       "brownian.midpoint_displacements.self_s",
       "trace.overhead"]
)


def process_age() -> float:
    """Wall seconds since this process started, from /proc/self/stat."""
    with open("/proc/self/stat") as f:
        stat = f.read()
    start_ticks = int(stat[stat.rindex(")") + 2:].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def live_helpers(base_tasks: int) -> list:
    """Threads and child processes alive beyond those at the baseline."""
    found = []
    if threading.active_count() > 1:
        found.append(f"{threading.active_count() - 1} extra Python threads")
    tasks = os.listdir("/proc/self/task")
    if len(tasks) > base_tasks:
        found.append(f"{len(tasks) - base_tasks} extra OS threads")
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children") as f:
                kids = f.read().split()
        except FileNotFoundError:      # the thread ended while we looked
            continue
        if kids:
            found.append(f"child processes {kids}")
    return found


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import interperc from this checkout's src/ and nowhere else."""
    if not (SRC / "interperc" / "__init__.py").is_file():
        raise SystemExit(f"no interperc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import interperc
    if Path(interperc.__file__).resolve().parent != SRC / "interperc":
        raise SystemExit(f"imported interperc from {interperc.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    import_program()
    import refkernel
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warmup()
    setup_s = process_age()
    base_tasks = len(os.listdir("/proc/self/task"))

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    def reference() -> float:
        helpers = live_helpers(base_tasks)
        if helpers:
            raise RuntimeError("program work still running during a reference "
                               "slice: " + "; ".join(helpers))
        return refkernel.timed_kernel()

    refs = [reference()]
    rounds = []            # (wall seconds, lines, traced, self times)
    attempted = failed = 0
    t_end = time.perf_counter() + args.seconds
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        lines = 0
        recs = []
        t0 = time.perf_counter()
        try:
            for op in wl.ops(r):
                attempted += 1
                try:
                    n, rec = op()
                except Exception as exc:  # counted, reported, run goes on
                    failed += 1
                    print(f"round {r}: operation failed: {exc!r}", file=sys.stderr)
                    recs.append(None)
                    continue
                lines += n
                recs.append(rec)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        wl.records.append(recs)
        rounds.append((wall, lines, traced,
                       tracer.take_self_times() if traced else None))
        refs.append(reference())
        r += 1
        if time.perf_counter() >= t_end:
            break

    peak_mb = peak_rss_mb()
    problems = wl.check()
    for msg in problems:
        print("check failed: " + msg, file=sys.stderr)

    scale = [refkernel.R0 / (0.5 * (refs[i] + refs[i + 1]))
             for i in range(len(rounds))]

    lines_per_s = calibrated_rate(rounds, scale, traced=False)
    plain = [rd for rd in rounds if not rd[2]]
    print(f"raw: {sum(rd[1] for rd in plain) / sum(rd[0] for rd in plain):.1f} "
          f"lines per wall second over {len(plain)} plain rounds; reference "
          f"kernel median {statistics.median(refs) * 1e3:.2f} ms", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "lines_per_s": {"value": lines_per_s, "unit": "lines/ref_s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(tracer, rounds, scale, lines_per_s)
        digest = wl.digest()
        print(f"results sha256 ({args.workload}, seed {args.seed}, round 0): {digest}")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"trace-{args.workload}-seed{args.seed}.npz",
                    digest=digest, metrics=json.dumps(metrics))

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def calibrated_rate(rounds, scale, traced: bool) -> float:
    """Median over the plain or the traced rounds of lines per ref_s.

    The median drops the few rounds that straddle a change of host speed,
    where the kernel before and after the round disagree.
    """
    return statistics.median(rd[1] / (rd[0] * scale[i])
                             for i, rd in enumerate(rounds) if rd[2] == traced)


def layer_metrics(tracer, rounds, scale, plain_rate) -> dict:
    """Per-layer metrics per traced round; times in ref_s."""
    traced = [(i, rd) for i, rd in enumerate(rounds) if rd[2]]
    n = len(traced)
    if n == 0:
        raise SystemExit("the run was too short for a traced round")
    self_s = {}
    for i, rd in traced:
        for name, secs in rd[3].items():
            self_s[name] = self_s.get(name, 0.0) + secs * scale[i]
    counts = tracer.counts
    traced_rate = calibrated_rate(rounds, scale, traced=True)
    lines = counts["percolation.lines_realized"]
    values = {
        "percolation.column_use": (
            counts["percolation.columns_visited"] / lines if lines else 0.0, "ratio"),
        "trace.overhead": (traced_rate / plain_rate, "ratio"),
    }
    out = {}
    for name in LAYER_METRICS:
        if name in values:
            v, unit = values[name]
        elif name.endswith(".self_s"):
            v, unit = self_s.get(name[:-len(".self_s")], 0.0) / n, "ref_s/round"
        else:
            v, unit = counts[name] / n, "count/round"
        out[name] = {"value": v, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())

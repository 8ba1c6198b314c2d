"""Command line interface.

Subcommands generate line-set realizations, build interpolants, run crossing
experiments, evaluate series diagnostics and coverings, and render small SVG
plots.  Every output-producing run also writes manifest.json; its bytes are
a pure function of the inputs and installed versions (wall-clock timing goes
to the manifest.log sidecar), so rerunning a command reproduces every output
byte for byte.

Config files are flat `key = value` lines using the long option names
without the leading dashes; explicit command line flags win over the file.
Exit codes: 0 success, 1 bad input or usage, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from io import StringIO

import numpy as np

from . import __version__
from .brownian import brownian_path
from .criteria import (ArcFamily, circle_uncovered, dyadic_block_reversal,
                       extract_divergent_subset, rotating_cover_scan,
                       series_partial_sums, uncovered_measure)
from .interpolators import (Line, continuous_interpolate, greedy_trace,
                            min_total_variation, monotone_interpolate,
                            polyline_geometry, step_geometry, trace_signs)
from .percolation import (crossing_probability, estimate_lambda_c,
                          lipschitz_feasible, strip_lines)
from .randomsets import (BooleanComplement, Periodic, Poisson, RenewalWeibull,
                         RngStream, model_label, realize, write_csv)
from .selftest import run_selftest
from .svg import Canvas


class CliError(Exception):
    """Bad input: wrong option values, malformed config, missing files."""


# ---------------------------------------------------------------------------
# option parsing


def _int(s: str) -> int:
    return int(s, 0)


def _floats(s: str) -> tuple:
    return tuple(float(p) for p in s.split(",") if p.strip() != "")


def _ints(s: str) -> tuple:
    return tuple(int(p) for p in s.split(",") if p.strip() != "")


def _pair(s: str) -> tuple:
    vals = _floats(s)
    if len(vals) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {s!r}")
    return vals


def _bool(s: str) -> bool:
    t = s.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _grid(s: str):
    """Either "a:b:n" (n evenly spaced values) or a comma list."""
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected lo:hi:count, got {s!r}")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1:
            raise ValueError("grid count must be positive")
        return tuple(float(v) for v in np.linspace(lo, hi, n))
    return _floats(s)


def _family(s: str):
    """Named scalar sequence: "const:C" or "power:A,B" for A * n**B."""
    kind, _, rest = s.partition(":")
    if kind == "const":
        c = float(rest)
        return lambda n: c * np.ones_like(np.asarray(n, dtype=np.float64))
    if kind == "power":
        vals = _floats(rest)
        if len(vals) != 2:
            raise ValueError(f"power family needs A,B, got {s!r}")
        a, b = vals
        return lambda n: a * np.asarray(n, dtype=np.float64) ** b
    raise ValueError(f"unknown family {s!r} (use const:C or power:A,B)")


def _signs(s: str) -> tuple:
    out = []
    for ch in s.replace(",", ""):
        if ch == "+":
            out.append(+1)
        elif ch == "-":
            out.append(-1)
        else:
            raise ValueError(f"signs must be '+' and '-' characters, got {s!r}")
    return tuple(out)


@dataclass(frozen=True)
class Opt:
    name: str
    parse: object = str
    default: object = None
    required: bool = False
    help: str = ""


_COMMON = (
    Opt("out", str, "out", help="output directory (default: out)"),
    Opt("config", str, help="flat key=value config file; flags override it"),
)


def _add_opts(sub, opts):
    # a _bool option is a flag on the command line and key = value in a config
    for o in opts:
        kw = {"action": "store_true"} if o.parse is _bool else {"metavar": "V"}
        sub.add_argument(f"--{o.name}", default=None, help=o.help, **kw)


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    cfg = {}
    for lineno, line in enumerate(raw.splitlines(), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, _, val = text.partition("=")
        cfg[key.strip()] = val.strip()
    return cfg


def _resolve(args, opts):
    """Merge CLI > config > declared default; returns (values, echo).

    values holds parsed objects for the handlers; echo holds the raw strings
    and plain values that produced them, suitable for the manifest.  String
    defaults go through the same parser as user input.
    """
    cfg = {}
    if getattr(args, "config", None):
        cfg = _load_config(args.config)
    known = {o.name for o in opts}
    for key in cfg:
        if key not in known:
            raise CliError(f"unknown config key {key!r}")
    vals, echo = {}, {}
    for o in opts:
        raw = getattr(args, o.name.replace("-", "_"))
        if raw is None:
            raw = cfg.get(o.name)
        if raw is None:
            if o.required:
                raise CliError(f"--{o.name} is required")
            raw = o.default
            if raw is None:
                vals[o.name] = echo[o.name] = None
                continue
        if isinstance(raw, str):
            try:
                vals[o.name] = o.parse(raw)
            except (ValueError, TypeError) as exc:
                raise CliError(f"bad value for --{o.name}: {raw!r} ({exc})") from exc
        else:
            vals[o.name] = raw
        echo[o.name] = raw
    return vals, echo


# ---------------------------------------------------------------------------
# output writing


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if v is None:
        return "-"
    if isinstance(v, tuple):          # a point id
        return ":".join(map(str, v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _csv(header: str, rows) -> str:
    """The header line, then one line per row.  A cell is written as is (str),
    as "-" (None), as tag:a:b (point id tuple), in plain digits (int, bool,
    numpy integer) or as a float at 17 significant digits (round-trips)."""
    return header + "\n" + "".join(",".join(map(_cell, r)) + "\n" for r in rows)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _listed_outputs(out_dir: str) -> list:
    """Plain file names (no directory part, not "." or "..") that the
    manifest.json of an earlier interperc run in out_dir lists as outputs."""
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            old = json.load(fh)
    except (OSError, ValueError):
        return []
    if not (isinstance(old, dict) and isinstance(old.get("versions"), dict)
            and "interperc" in old["versions"] and isinstance(old.get("outputs"), dict)):
        return []
    return [n for n in old["outputs"] if os.path.basename(n) == n and n not in ("", ".", "..")]


def _emit(command: str, out_dir: str, echo: dict, files: dict,
          started: float) -> None:
    """Write output files plus manifest.json and the manifest.log sidecar.

    files maps name -> full text content; nothing touches disk until all
    content exists, and a failed write removes everything written so far.
    After a successful write, the outputs an earlier manifest.json in
    out_dir listed and this run did not write are removed, so the directory
    never mixes two runs; no other file is touched.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": command,
        "config": {k: v for k, v in echo.items() if k != "config"},
        "outputs": {name: hashlib.sha256(text.encode()).hexdigest()
                    for name, text in files.items()},
        "versions": {
            "interperc": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    files = dict(files)
    files["manifest.json"] = _json_text(manifest)
    stale = [name for name in _listed_outputs(out_dir) if name not in files]
    written = []
    try:
        for name in sorted(files):
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(files[name])
            written.append(path)
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    for name in stale:
        try:
            os.remove(os.path.join(out_dir, name))
        except FileNotFoundError:
            pass
    with open(os.path.join(out_dir, "manifest.log"), "w", encoding="utf-8") as fh:
        fh.write(f"command={command}\nwall_seconds={time.time() - started:.3f}\n")


# ---------------------------------------------------------------------------
# plots


def _pad_range(lo: float, hi: float, frac: float = 0.08) -> tuple:
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = (hi - lo) * frac
    return lo - pad, hi + pad


def _plot_set(rs) -> str:
    lo, hi = rs.window
    cv = Canvas((lo, hi), (-1.0, 1.0))
    cv.axes(title=model_label(rs.model))
    cv.segment(lo, 0.0, hi, 0.0, stroke="#bbbbbb")
    if rs.values is not None:
        cv.circles(rs.values, np.zeros(len(rs)), r=2.5)
    else:
        edges = [lo] + [v for ab in zip(rs.hole_lo, rs.hole_hi) for v in ab] + [hi]
        for a, b in zip(edges[0::2], edges[1::2]):
            if b > a:
                cv.rect(max(a, lo), -0.08, min(b, hi), 0.08, fill="#1f6fb4")
    return cv.tostring()


def _plot_function(lines, geometry, title: str) -> str:
    xs = [p[0] for p in geometry]
    ys = [p[1] for p in geometry]
    y_lo, y_hi = _pad_range(min(ys), max(ys))
    x_lo, x_hi = _pad_range(min(xs), max(xs), 0.04)
    cv = Canvas((x_lo, x_hi), (y_lo, y_hi))
    cv.axes(title=title)
    for ln in lines:
        vals = ln.realized.values
        vals = vals[(vals >= y_lo) & (vals <= y_hi)]
        cv.circles(np.full(vals.size, ln.x), vals, r=1.6, fill="#9a9a9a")
    cv.polyline(xs, ys, stroke="#c23b22", width=2.0)
    return cv.tostring()


def _plot_sweep(rows) -> str:
    lams = [lam for lam, _ in rows]
    cv = Canvas(_pad_range(min(lams), max(lams), 0.04), (-0.05, 1.05))
    cv.axes(title="crossing probability vs intensity")
    cv.segment(lams[0], 0.5, lams[-1], 0.5, stroke="#bbbbbb")
    cv.polyline(lams, [est.p_hat for _, est in rows])
    for lam, est in rows:
        c_lo, c_hi = est.ci95
        cv.segment(lam, c_lo, lam, c_hi, stroke="#1f6fb4")
    return cv.tostring()


def _split_at_seam(a: float, b: float) -> list:
    """Pieces of the circle arc [a, b] (a in [0, 1), b < a + 1) within [0, 1]."""
    return [(a, min(b, 1.0))] + ([(0.0, b - 1.0)] if b > 1.0 else [])


def _plot_circle(arcs: ArcFamily, uncovered) -> str:
    cv = Canvas((-0.02, 1.02), (0.0, len(arcs.arcs) + 2.0))
    cv.axes(title="arc family and uncovered set")
    for row, (l, u) in enumerate(arcs.arcs, start=2):
        for a, b in _split_at_seam(u, u + l):
            cv.rect(a, row - 0.3, b, row + 0.3, fill="#1f6fb4", opacity=0.8)
    for s, e in uncovered:
        for a, b in _split_at_seam(s, e):
            if b > a:
                cv.rect(a, 0.7, b, 1.3, fill="#c23b22")
            else:
                cv.circles([a], [1.0], r=3.0, fill="#c23b22")
    return cv.tostring()


def _plot_path(xs, ys, title: str) -> str:
    cv = Canvas(_pad_range(float(min(xs)), float(max(xs)), 0.02),
                _pad_range(float(min(ys)), float(max(ys))))
    cv.axes(title=title)
    cv.polyline(xs, ys)
    return cv.tostring()


# ---------------------------------------------------------------------------
# commands


def _build_model(c) -> object:
    kind = c["model"]
    x = c["x"]
    if kind == "poisson":
        return Poisson(c["intensity"], x=x)
    if kind == "renewal":
        if c["level"] is None:
            raise CliError("--level is required for the renewal model")
        return RenewalWeibull(c["level"], x=x)
    if kind == "boolean":
        if c["arc-length"] is None:
            raise CliError("--arc-length is required for the boolean model")
        return BooleanComplement(c["arc-length"], x=x)
    if kind == "periodic":
        return Periodic(c["scale"], base_points=c["base"], shift=c["shift"], x=x)
    if kind == "periodic-interval":
        if c["interval"] is None:
            raise CliError("--interval is required for periodic-interval")
        return Periodic(c["scale"], base_interval=c["interval"],
                        shift=c["shift"], x=x)
    raise CliError(f"unknown model {kind!r}")


GEN_OPTS = _COMMON + (
    Opt("model", str, required=True,
        help="poisson | periodic | periodic-interval | renewal | boolean"),
    Opt("intensity", float, 1.0, help="poisson intensity (default 1)"),
    Opt("scale", float, 1.0, help="periodic scale (default 1)"),
    Opt("base", _floats, (0.0,), help="periodic base points, comma list"),
    Opt("interval", _pair, help="periodic base interval a,b"),
    Opt("shift", float, help="periodic shift (omit for a random one)"),
    Opt("level", _int, help="renewal level (integer, may be negative)"),
    Opt("arc-length", float, help="boolean arc length in (0, 1)"),
    Opt("x", float, 0.0, help="line abscissa recorded on the model"),
    Opt("seed", _int, required=True, help="top-level seed"),
    Opt("stream", _int, 0, help="stream id under the seed (default 0)"),
    Opt("window", _pair, required=True, help="window lo,hi"),
    Opt("svg", _bool, False, help="also write a plot"),
)


def cmd_gen(c) -> dict:
    model = _build_model(c)
    rs = realize(model, RngStream(c["seed"], c["stream"]), c["window"])
    buf = StringIO()
    write_csv(rs, buf)
    files = {"set.csv": buf.getvalue()}
    if c["svg"]:
        files["set.svg"] = _plot_set(rs)
    return files


INTERPOLATE_OPTS = _COMMON + (
    Opt("method", str, required=True,
        help="continuous | monotone | bv-greedy | bv-min | bv-trace"),
    Opt("count", _int, 8, help="number of lines (default 8)"),
    Opt("intensities", _family, "const:2",
        help="per-line Poisson intensity family, e.g. power:1,2 (default const:2)"),
    Opt("seed", _int, required=True, help="top-level seed"),
    Opt("stream", _int, 0, help="stream id under the seed (default 0)"),
    Opt("a0", float, 0.0, help="left endpoint abscissa (continuous)"),
    Opt("a1", float, 1.0, help="right endpoint abscissa (continuous)"),
    Opt("b0", float, 0.0, help="left endpoint value (continuous)"),
    Opt("b1", float, 0.0, help="right endpoint value (continuous)"),
    Opt("start", float, 0.0, help="starting value (monotone)"),
    Opt("signs", _signs, help="sign string like +-++- (bv-trace)"),
    Opt("svg", _bool, False, help="also write a plot"),
)


def _make_lines(c, interior: bool) -> list:
    n = c["count"]
    if n < 1:
        raise CliError("--count must be positive")
    lams = np.asarray(c["intensities"](np.arange(1, n + 1, dtype=np.float64)))
    if interior:
        xs = np.linspace(c["a0"], c["a1"], n + 2)[1:-1]
        window = (-8.0, 8.0)
    else:
        xs = np.arange(1, n + 1, dtype=np.float64)
        window = (-4.0, 4.0)
    base = RngStream(c["seed"], c["stream"])
    return [Line(x=float(x),
                 realized=realize(Poisson(float(lam), x=float(x)),
                                  base.child("line", i + 1), window))
            for i, (x, lam) in enumerate(zip(xs, lams))]


def _trace_files(lines, res, c) -> dict:
    rows = [(0, "", "", res.values[0], None)]
    rows += [(i + 1, ln.x, f"{res.signs[i]:+d}", res.values[i + 1], res.point_ids[i + 1])
             for i, ln in enumerate(lines)]
    summary = {"total_variation": res.total_variation,
               "weighted_variation": res.weighted_variation,
               "end_value": res.values[-1]}
    files = {"trace.csv": _csv("index,x,sign,value,point_id", rows),
             "summary.json": _json_text(summary)}
    if c["svg"]:
        xs = [lines[0].x - 1.0] + [ln.x for ln in lines]
        files["trace.svg"] = _plot_function(lines, list(zip(xs, res.values)),
                                            "sign-driven trace")
    return files


def cmd_interpolate(c) -> dict:
    method = c["method"]
    if method == "continuous":
        lines = _make_lines(c, interior=True)
        log: list = []
        f = continuous_interpolate(lines, c["a0"], c["a1"], c["b0"], c["b1"],
                                   level_log=log)
        files = {"function.csv": _csv("x,y,point_id", f.knots),
                 "levels.csv": _csv("level,lines_added,sup_change", log)}
        if c["svg"]:
            files["function.svg"] = _plot_function(
                lines, polyline_geometry(f), "continuous interpolant")
        return files
    if method == "monotone":
        lines = _make_lines(c, interior=False)
        g = monotone_interpolate(lines, start=c["start"])
        files = {"function.csv": _csv("x,y,point_id", g.breakpoints),
                 "summary.json": _json_text({"sup_norm": g.sup_norm,
                                             "end_value": float(g.values[-1])})}
        if c["svg"]:
            geo = step_geometry(g, lines[0].x - 1.0, lines[-1].x + 1.0)
            files["function.svg"] = _plot_function(lines, geo, "monotone interpolant")
        return files
    lines = _make_lines(c, interior=False)
    if method == "bv-greedy":
        g = monotone_interpolate(lines, start=0.0)
        res = greedy_trace(lines, [y for _, y, _ in g.breakpoints])
    elif method == "bv-min":
        res = min_total_variation(lines)
    elif method == "bv-trace":
        if c["signs"] is None:
            raise CliError("--signs is required for bv-trace")
        res = trace_signs(lines, c["signs"])
    else:
        raise CliError(f"unknown method {method!r}")
    return _trace_files(lines, res, c)


LIPSCHITZ_OPTS = _COMMON + (
    Opt("k", float, required=True, help="step bound between neighbours"),
    Opt("intensity", float, 1.0, help="Poisson intensity (default 1)"),
    Opt("width", _int, 50, help="number of lines (default 50)"),
    Opt("corridor-height", float, help="first-line corridor height (default k*width)"),
    Opt("seed", _int, required=True, help="top-level seed"),
    Opt("trial", _int, 0, help="trial index selecting the substream (default 0)"),
    Opt("svg", _bool, False, help="also write a plot"),
)


def cmd_lipschitz(c) -> dict:
    height = c["corridor-height"]
    if height is None:
        height = c["k"] * c["width"]
    lines = strip_lines(c["intensity"], c["k"], c["width"], height,
                        RngStream(c["seed"]), c["trial"])
    ys = lipschitz_feasible(lines, c["k"], (0.0, height))
    summary = {"feasible": ys is not None, "k": c["k"], "width": c["width"],
               "corridor_height": height}
    path = list(zip([ln.x for ln in lines], ys)) if ys is not None else []
    files = {"summary.json": _json_text(summary), "path.csv": _csv("x,y", path)}
    if c["svg"]:
        geo = path or [(lines[0].x, 0.0), (lines[-1].x, 0.0)]
        files["path.svg"] = _plot_function(lines, geo, "bounded-step path")
    return files


SWEEP_OPTS = _COMMON + (
    Opt("k", float, required=True, help="step bound between neighbours"),
    Opt("width", _int, 50, help="strip width (default 50)"),
    Opt("corridor-height", float, help="corridor height (default k*width)"),
    Opt("lams", _grid, required=True, help="intensities: lo:hi:count or comma list"),
    Opt("trials", _int, 200, help="Monte Carlo trials per intensity (default 200)"),
    Opt("seed", _int, required=True, help="top-level seed"),
    Opt("svg", _bool, False, help="also write a plot"),
)


def cmd_sweep(c) -> dict:
    height = c["corridor-height"]
    if height is None:
        height = c["k"] * c["width"]
    base = RngStream(c["seed"])
    rows = []
    for i, lam in enumerate(c["lams"]):
        est = crossing_probability(lam, c["k"], c["width"], height, c["trials"],
                                   base.child("lam", i))
        rows.append((float(lam), est))
    table = [(lam, est.successes, est.trials, est.p_hat, *est.ci95) for lam, est in rows]
    files = {"sweep.csv": _csv("lam,successes,trials,p_hat,ci_lo,ci_hi", table)}
    if c["svg"]:
        files["sweep.svg"] = _plot_sweep(rows)
    return files


LAMBDA_C_OPTS = _COMMON + (
    Opt("k", float, required=True, help="step bound between neighbours"),
    Opt("widths", _ints, (50, 100, 200), help="width schedule (default 50,100,200)"),
    Opt("trials", _int, 400, help="trials per probability estimate (default 400)"),
    Opt("tol", float, 0.1, help="bracket width target (default 0.1)"),
    Opt("lam-lo", float, help="lower end of the intensity range (default 0.1/k)"),
    Opt("lam-hi", float, help="upper end of the intensity range (default 6/k)"),
    Opt("corridor-height", float, help="corridor height (default width*k)"),
    Opt("seed", _int, required=True, help="top-level seed"),
)


def cmd_lambda_c(c) -> dict:
    lam_range = None
    if (c["lam-lo"] is None) != (c["lam-hi"] is None):
        raise CliError("give both --lam-lo and --lam-hi or neither")
    if c["lam-lo"] is not None:
        lam_range = (c["lam-lo"], c["lam-hi"])
    res = estimate_lambda_c(c["k"], width_schedule=c["widths"], trials=c["trials"],
                            tol=c["tol"], stream=RngStream(c["seed"]),
                            lam_range=lam_range,
                            corridor_height=c["corridor-height"])
    br = [(r.width, r.lo, r.hi, r.midpoint, r.conclusive, len(r.evaluations))
          for r in res.brackets]
    ev = [(r.width, lam, est.successes, est.trials, est.p_hat)
          for r in res.brackets for lam, est in r.evaluations]
    summary = {"k": res.k, "final_width": res.final.width,
               "bracket_lo": res.final.lo, "bracket_hi": res.final.hi,
               "midpoint": res.final.midpoint, "conclusive": res.final.conclusive}
    return {"brackets.csv": _csv("width,lo,hi,midpoint,conclusive,evaluations", br),
            "evals.csv": _csv("width,lam,successes,trials,p_hat", ev),
            "summary.json": _json_text(summary)}


CRITERIA_OPTS = _COMMON + (
    Opt("kind", str, required=True, help="wm | reciprocal | shepp"),
    Opt("family", _family, help="term family, e.g. power:1,2 (or use --terms)"),
    Opt("terms", _floats, help="explicit term values, comma list"),
    Opt("cutoffs", _ints, (10, 100, 1000, 10000), help="partial-sum cutoffs"),
    Opt("eps", float, help="height tolerance for kind wm"),
)


def cmd_criteria(c) -> dict:
    if (c["family"] is None) == (c["terms"] is None):
        raise CliError("give exactly one of --family or --terms")
    params = c["family"] if c["family"] is not None else c["terms"]
    diag = series_partial_sums(c["kind"], params, c["cutoffs"], eps=c["eps"])
    summary = {"kind": diag.kind,
               "growth_exponent_fit": diag.growth_exponent_fit,
               "looks_divergent": diag.looks_divergent}
    return {"series.csv": _csv("cutoff,partial_sum",
                               zip(diag.cutoffs, diag.partial_sums)),
            "summary.json": _json_text(summary)}


SUBSET_OPTS = _COMMON + (
    Opt("mu", _family, required=True,
        help="weight family evaluated at n+1, e.g. power:1,-1 for 1/(n+1)"),
    Opt("target", float, required=True, help="partial-sum target to certify"),
    Opt("phi", str, "identity", help="identity | dyadic-reverse"),
    Opt("probe-budget", _int, 100000, help="indices probed for eps"),
    Opt("search-budget", _int, 50000000, help="largest block end considered"),
)


def cmd_subset(c) -> dict:
    fam = c["mu"]

    def mu(n):
        return fam(np.asarray(n, dtype=np.float64) + 1.0)

    if c["phi"] == "identity":
        phi = phi_inv = None
    elif c["phi"] == "dyadic-reverse":
        phi = phi_inv = dyadic_block_reversal
    else:
        raise CliError(f"unknown permutation {c['phi']!r}")
    res = extract_divergent_subset(mu, c["target"], phi=phi, phi_inverse=phi_inv,
                                   probe_budget=c["probe-budget"],
                                   search_budget=c["search-budget"])
    rows = [(i, blk.size, blk[0], blk[-1], bound)
            for i, (blk, bound) in enumerate(zip(res.blocks, res.per_block_bounds))]
    summary = {"eps": res.eps, "total": res.total,
               "n_blocks": len(res.blocks), "n_members": int(res.members.size)}
    return {"blocks.csv": _csv("block,size,first_member,last_member,certified_bound", rows),
            "summary.json": _json_text(summary)}


def _parse_arcs(s: str) -> tuple:
    out = []
    for part in s.split(","):
        length, _, pos = part.partition("@")
        out.append((float(length), float(pos)))
    return tuple(out)


def _arc_family(c) -> ArcFamily:
    if (c["arcs"] is None) == (c["count"] is None):
        raise CliError("give exactly one of --arcs or --count")
    speeds = None
    if c["arcs"] is not None:
        pairs = c["arcs"]
        if c.get("speeds-list") is not None:
            speeds = c["speeds-list"]
    else:
        n = c["count"]
        if c["seed"] is None:
            raise CliError("--seed is required with --count")
        lengths = np.asarray(c["lengths"](np.arange(1, n + 1, dtype=np.float64)))
        pos = RngStream(c["seed"]).child("arcpos").generator().random(n)
        pairs = tuple(zip(map(float, lengths), map(float, pos)))
        if c.get("speeds") is not None:
            speeds = tuple(float(v) for v in
                           c["speeds"](np.arange(1, n + 1, dtype=np.float64)))
    return ArcFamily(arcs=pairs, speeds=speeds)


COVER_OPTS = _COMMON + (
    Opt("arcs", _parse_arcs, help="explicit arcs length@position, comma list"),
    Opt("count", _int, help="number of sampled arcs (alternative to --arcs)"),
    Opt("lengths", _family, "power:0.5,-1",
        help="arc-length family for --count (default power:0.5,-1)"),
    Opt("seed", _int, help="seed for sampled positions"),
    Opt("svg", _bool, False, help="also write a plot"),
)


def cmd_circle_cover(c) -> dict:
    fam = _arc_family(c)
    unc = circle_uncovered(fam)
    summary = {"n_arcs": len(fam.arcs), "n_uncovered_components": len(unc),
               "uncovered_measure": uncovered_measure(unc)}
    files = {"uncovered.csv": _csv("start,end", unc),
             "summary.json": _json_text(summary)}
    if c["svg"]:
        files["cover.svg"] = _plot_circle(fam, unc)
    return files


SCAN_OPTS = _COMMON + (
    Opt("arcs", _parse_arcs, help="explicit arcs length@position, comma list"),
    Opt("speeds-list", _floats, help="explicit speeds for --arcs, comma list"),
    Opt("count", _int, help="number of sampled arcs (alternative to --arcs)"),
    Opt("lengths", _family, "power:0.5,-1",
        help="arc-length family for --count (default power:0.5,-1)"),
    Opt("speeds", _family, "power:1,1",
        help="rotation speed family for --count (default power:1,1)"),
    Opt("seed", _int, help="seed for sampled positions"),
    Opt("times", _grid, required=True, help="sample times lo:hi:count or comma list"),
)


def cmd_rotate_scan(c) -> dict:
    fam = _arc_family(c)
    res = rotating_cover_scan(fam, c["times"])
    summary = {"n_arcs": len(fam.arcs), "n_windows": len(res.windows),
               "max_uncovered": max(res.measures) if res.measures else 0.0}
    return {"scan.csv": _csv("t,uncovered_measure,n_uncovered_components",
                             zip(res.times, res.measures, res.arc_counts)),
            "windows.csv": _csv("t_start,t_end", res.windows),
            "summary.json": _json_text(summary)}


BROWNIAN_OPTS = _COMMON + (
    Opt("seed", _int, required=True, help="top-level seed"),
    Opt("depth", _int, 8, help="dyadic depth, 0..20 (default 8)"),
    Opt("svg", _bool, False, help="also write a plot"),
)


def cmd_brownian(c) -> dict:
    path = brownian_path(c["seed"], c["depth"])
    xs, ys = path.grid()
    summary = {"depth": path.depth, "tie_count": path.tie_count,
               "end_value": float(ys[-1])}
    files = {"path.csv": _csv("x,value", zip(xs, ys)),
             "summary.json": _json_text(summary)}
    if c["svg"]:
        files["path.svg"] = _plot_path(xs, ys, f"dyadic path, depth {path.depth}")
    return files


SELFTEST_OPTS = (
    Opt("seed", _int, 20260814, help="seed for the checks"),
    Opt("json", _bool, False, help="print the report as JSON"),
)


def cmd_selftest(args) -> int:
    c, _ = _resolve(args, SELFTEST_OPTS)
    report = run_selftest(c["seed"])
    if c["json"]:
        print(_json_text(report), end="")
    else:
        for chk in report["checks"]:
            status = "ok " if chk["ok"] else "FAIL"
            detail = f"  {chk['detail']}" if chk["detail"] else ""
            print(f"[{status}] {chk['name']}{detail}")
        print(f"{'all checks passed' if report['ok'] else 'FAILURES'} "
              f"(seed {report['seed']})")
    return 0 if report["ok"] else 2


# ---------------------------------------------------------------------------
# wiring


_COMMANDS = {
    "gen": (GEN_OPTS, cmd_gen, "realize one line set and write it as CSV"),
    "interpolate": (INTERPOLATE_OPTS, cmd_interpolate,
                    "build an interpolant through Poisson lines"),
    "lipschitz": (LIPSCHITZ_OPTS, cmd_lipschitz,
                  "find a bounded-step point path across one strip"),
    "sweep": (SWEEP_OPTS, cmd_sweep,
              "crossing probability over a grid of intensities"),
    "lambda-c": (LAMBDA_C_OPTS, cmd_lambda_c,
                 "bracket the intensity where crossings reach 1/2"),
    "criteria": (CRITERIA_OPTS, cmd_criteria,
                 "partial sums of the series diagnostics"),
    "subset": (SUBSET_OPTS, cmd_subset,
               "certified index blocks of a permuted divergent series"),
    "circle-cover": (COVER_OPTS, cmd_circle_cover,
                     "uncovered set of an arc family on the circle"),
    "rotate-scan": (SCAN_OPTS, cmd_rotate_scan,
                    "uncovered measure of rotating arcs over time"),
    "brownian": (BROWNIAN_OPTS, cmd_brownian,
                 "dyadic path from nested renewal lines"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="interperc",
                     description="interpolation through random line sets: "
                                 "models, interpolants, thresholds")
    sub = parser.add_subparsers(dest="cmd")
    for name, (opts, _, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        _add_opts(sp, opts)
    st = sub.add_parser("selftest", help="run the built-in invariant checks")
    _add_opts(st, SELFTEST_OPTS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd is None:
            parser.print_usage(sys.stderr)
            return 1
        if args.cmd == "selftest":
            return cmd_selftest(args)
        opts, handler, _ = _COMMANDS[args.cmd]
        started = time.time()
        resolved, echo = _resolve(args, opts)
        files = handler(resolved)
        _emit(args.cmd, resolved["out"], echo, files, started)
        print(f"wrote {len(files) + 1} files to {resolved['out']}")
        return 0
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # noqa: BLE001 - map anything else to exit 2
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

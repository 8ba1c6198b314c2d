"""Series diagnostics, divergent-subset extraction, and circle coverings.

The series tools report partial sums only; divergence of an infinite series
is not decidable from finitely many terms, so the "flag" fields are labelled
heuristics.  The subset extractor turns a permuted decreasing sequence with
limsup n*mu_n > 0 into explicit index blocks whose contributions are each
certified; the circle tools do exact endpoint arithmetic on arc unions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np


class ProbeFailedError(RuntimeError):
    """The probe found no positive lower bound to work with."""


#: Indices per array call when scanning mu or phi.
_CHUNK = 65536

#: Blocks extract_divergent_subset may build before giving up.
_MAX_BLOCKS = 10_000


def _evaluate(fn, ns: np.ndarray) -> np.ndarray:
    """fn on each of ns as floats: one array call, else one scalar call per
    index (int) when fn rejects arrays or returns the wrong shape."""
    try:
        vals = np.asarray(fn(ns), dtype=np.float64)
        if vals.shape == ns.shape:
            return vals
    except TypeError:
        pass
    return np.array([float(fn(int(n))) for n in ns])


# ---------------------------------------------------------------------------
# series diagnostics


@dataclass(frozen=True)
class SeriesDiagnostic:
    kind: str
    cutoffs: tuple
    partial_sums: tuple
    growth_exponent_fit: float
    looks_divergent: bool


def _terms_array(params: Union[Sequence[float], Callable], n_max: int) -> np.ndarray:
    if callable(params):
        return _evaluate(params, np.arange(1, n_max + 1, dtype=np.float64))
    vals = np.asarray(params, dtype=np.float64)
    if len(vals) < n_max:
        raise ValueError(f"need {n_max} terms, got {len(vals)}")
    return vals[:n_max]


def series_partial_sums(kind: str, params: Union[Sequence[float], Callable],
                        cutoffs: Sequence[int],
                        eps: Optional[float] = None) -> SeriesDiagnostic:
    """Partial sums of one of three diagnostic series at the given cutoffs.

    kind "wm": sum of exp(-lam_n * eps) over the line intensities lam_n
    (eps > 0 required); "reciprocal": sum of 1/lam_n; "shepp": sum of
    n**-2 * exp(l_1 + ... + l_n) over arc lengths l_n in (0, 1).

    The growth fit is the log-log slope of partial sum against cutoff, and
    looks_divergent flags a final-decade relative increase above 1%.  Both
    are descriptive; nothing here decides divergence.
    """
    cutoffs = [int(c) for c in cutoffs]
    if not cutoffs or any(c < 1 for c in cutoffs) or \
            any(a >= b for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be increasing positive integers")
    n_max = cutoffs[-1]
    vals = _terms_array(params, n_max)
    if kind == "wm":
        if eps is None or not (eps > 0):
            raise ValueError("kind 'wm' needs eps > 0")
        if np.any(vals <= 0):
            raise ValueError("intensities must be positive")
        terms = np.exp(-vals * eps)
    elif kind == "reciprocal":
        if np.any(vals <= 0):
            raise ValueError("intensities must be positive")
        terms = 1.0 / vals
    elif kind == "shepp":
        if np.any((vals <= 0) | (vals > 1)):
            raise ValueError("arc lengths must lie in (0, 1]")
        # exp of the running length total can overflow to inf for fat arcs;
        # the partial sums then saturate, which is still a usable diagnostic
        with np.errstate(over="ignore"):
            terms = np.exp(np.cumsum(vals)) / np.square(np.arange(1, n_max + 1, dtype=np.float64))
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    csum = np.cumsum(terms)
    sums = tuple(float(csum[c - 1]) for c in cutoffs)
    if len(cutoffs) >= 2 and all(s > 0 for s in sums):
        slope = float(np.polyfit(np.log(cutoffs), np.log(sums), 1)[0])
        rel = (sums[-1] - sums[-2]) / sums[-1]
        divergent = rel > 0.01
    else:
        slope = float("nan")
        divergent = False
    return SeriesDiagnostic(kind, tuple(cutoffs), sums, slope, divergent)


# ---------------------------------------------------------------------------
# divergent subset extraction


@dataclass(frozen=True)
class DivergentSubsetResult:
    eps: float
    blocks: tuple            # tuple of sorted numpy index arrays
    total: float             # sum over members of the running prefix minimum
    per_block_bounds: tuple  # len(block) * min(mu(phi(member))) per block

    @property
    def members(self) -> np.ndarray:
        return np.concatenate(self.blocks) if self.blocks else np.empty(0, dtype=np.int64)


def _chunked_eval(fn, lo, hi):
    # evaluate fn on integers lo..hi-1, _CHUNK at a time
    for start in range(lo, hi, _CHUNK):
        ns = np.arange(start, min(start + _CHUNK, hi), dtype=np.int64)
        yield ns, _evaluate(fn, ns)


def extract_divergent_subset(mu: Callable, target: float,
                             phi: Optional[Callable] = None,
                             phi_inverse: Optional[Callable] = None,
                             probe_budget: int = 100_000,
                             search_budget: int = 50_000_000) -> DivergentSubsetResult:
    """Index blocks certifying that the permuted series keeps diverging.

    mu maps n >= 0 to a positive, nonincreasing weight; phi permutes the
    indices (identity when omitted; otherwise phi_inverse is required).
    The probe estimates eps as the largest n*mu(n) over n <= probe_budget
    and each block (m_k, n_k] is chosen so its certified contribution
    len(block) * min(mu(phi(member))) exceeds eps/2.  Blocks are added until
    the running total of prefix-minimum weights reaches the target; block
    and image-ordering relations are asserted along the way.

    mu and phi may be called with numpy integer arrays for speed.
    """
    if target <= 0 or not math.isfinite(target):
        raise ValueError("target must be positive and finite")
    if phi is None:
        phi = lambda n: n
        phi_inverse = lambda n: n
    elif phi_inverse is None:
        raise ValueError("a non-identity permutation needs phi_inverse")

    eps = 0.0
    for ns, vals in _chunked_eval(mu, 1, probe_budget + 1):
        if np.any(vals <= 0):
            raise ValueError("mu must be positive")
        eps = max(eps, float(np.max(ns * vals)))
    if eps <= 0:
        raise ProbeFailedError("no positive lower bound for n*mu(n) over the probe range")
    half = eps / 2.0

    blocks = [np.array([0], dtype=np.int64)]
    first_img = int(_evaluate(phi, blocks[0])[0])
    running_min = float(mu(first_img))
    bounds = [running_min]
    prefix_max_image = first_img     # max phi over [0, largest member so far]
    scanned_to = 1                   # phi evaluated on [0, scanned_to)
    block_sums = [running_min]       # per-block sums of prefix-minimum terms

    while math.fsum(block_sums) < target:
        if len(blocks) > _MAX_BLOCKS:
            raise ProbeFailedError("block budget exhausted before reaching the target")
        # m_k: largest phi-image over indices up to the largest member so far
        top = int(blocks[-1][-1])
        for _, vals in _chunked_eval(phi, scanned_to, top + 1):
            prefix_max_image = max(prefix_max_image, int(np.max(vals)))
        scanned_to = max(scanned_to, top + 1)
        m_k = prefix_max_image
        n_k = None
        for ns, vals in _chunked_eval(mu, m_k + 1, search_budget + 1):
            hit = np.nonzero((ns - m_k) * vals > half)[0]
            if hit.size:
                n_k = int(ns[hit[0]])
                break
        if n_k is None:
            raise ProbeFailedError(
                f"no block end with (n - {m_k}) * mu(n) > eps/2 within the search budget")
        imgs = np.arange(m_k + 1, n_k + 1, dtype=np.int64)
        members = np.sort(_evaluate(phi_inverse, imgs).astype(np.int64))
        member_imgs = _evaluate(phi, members).astype(np.int64)
        # ordering relations: members exceed all earlier members, and their
        # images exceed all earlier images
        assert members[0] > blocks[-1][-1], "block members must exceed all earlier ones"
        assert int(np.min(member_imgs)) == m_k + 1, "image range must start just past m_k"
        mu_members = _evaluate(mu, member_imgs)
        bound = members.size * float(np.min(mu_members))
        assert bound >= half, f"certificate {bound} fell below eps/2 = {half}"
        blocks.append(members)
        bounds.append(bound)
        # extend the running prefix-minimum total over the new members
        mins = np.minimum.accumulate(np.concatenate([[running_min], mu_members]))[1:]
        running_min = float(mins[-1])
        block_sums.append(math.fsum(mins))
    return DivergentSubsetResult(eps, tuple(blocks), math.fsum(block_sums),
                                 tuple(bounds))


def dyadic_block_reversal(n):
    """Self-inverse permutation reversing each block {2**j, ..., 2**(j+1)-1}.

    Maps 0 to 0 and n in [2**j, 2**(j+1)) to 3 * 2**j - 1 - n.  Accepts a
    scalar or an integer array.  A standard example of a rearrangement that
    scrambles indices locally while keeping dyadic blocks intact.
    """
    arr = np.asarray(n, dtype=np.int64)
    if np.any(arr < 0):
        raise ValueError("indices must be nonnegative")
    out = arr.copy()
    pos = arr > 0
    v = arr[pos]
    j = np.floor(np.log2(v.astype(np.float64))).astype(np.int64)
    # repair any rounding of log2 at block edges
    j = np.where(np.int64(2) ** j > v, j - 1, j)
    j = np.where(np.int64(2) ** (j + 1) <= v, j + 1, j)
    out[pos] = 3 * np.int64(2) ** j - 1 - v
    if np.ndim(n) == 0:
        return int(out)
    return out


# ---------------------------------------------------------------------------
# circle coverings


@dataclass(frozen=True)
class ArcFamily:
    """Open arcs (position, position + length) on the unit circle [0, 1).

    arcs is a tuple of (length, position) pairs with lengths in (0, 1) and
    positions in [0, 1); speeds, when present, rotate each arc's position
    linearly in time.
    """

    arcs: tuple
    speeds: Optional[tuple] = None

    def __post_init__(self):
        for l, u in self.arcs:
            if not (0.0 < l < 1.0):
                raise ValueError(f"arc length {l} outside (0, 1)")
            if not (0.0 <= u < 1.0):
                raise ValueError(f"arc position {u} outside [0, 1)")
        if self.speeds is not None and len(self.speeds) != len(self.arcs):
            raise ValueError("need one speed per arc")


def circle_uncovered(arcs: ArcFamily, n: Optional[int] = None) -> list:
    """Closed complement of the first n open arcs, as (start, end) pairs.

    Endpoint arithmetic is exact on the stored floats (zero tolerance).
    Arcs wrapping past 1 are handled so that the seam point is covered
    exactly when some arc strictly wraps.  Output arcs satisfy
    0 <= start < 1 and start <= end <= start + 1; degenerate point arcs
    (start == end) arise when two arcs touch, and (0, 1) is the full circle.
    """
    pairs = arcs.arcs if n is None else arcs.arcs[:int(n)]
    return _uncovered_from_pairs(pairs)


def _uncovered_from_pairs(pairs) -> list:
    if not pairs:
        return [(0.0, 1.0)]
    ivals = []
    wraps_zero = False
    for l, u in pairs:
        end = u + l
        if end > 1.0:
            wraps_zero = True           # the seam point 1 == 0 is interior
            ivals.append((u, 1.0))
            ivals.append((0.0, end - 1.0))
        else:
            ivals.append((u, end))
    ivals.sort()
    merged = []
    cs, ce = ivals[0]
    for s, e in ivals[1:]:
        if s < ce:                      # strict: touching arcs leave a point
            ce = max(ce, e)
        else:
            merged.append((cs, ce))
            cs, ce = s, e
    merged.append((cs, ce))
    out = []
    for (s0, e0), (s1, _) in zip(merged, merged[1:]):
        out.append((e0, s1))            # closed gap, possibly a single point
    first_s = merged[0][0]
    last_e = merged[-1][1]
    if not wraps_zero:
        start = last_e if last_e < 1.0 else 0.0
        end = start + (first_s + 1.0 - last_e)
        out.append((start, end))
    out.sort()
    return out


def uncovered_measure(uncovered: list) -> float:
    """Total length of an uncovered-arc list."""
    return math.fsum(e - s for s, e in uncovered)


@dataclass(frozen=True)
class ScanResult:
    times: tuple
    measures: tuple
    arc_counts: tuple
    windows: tuple           # (t_start, t_end) runs of uncovered sample times


def rotating_cover_scan(arcs: ArcFamily, times: Sequence[float],
                        n: Optional[int] = None) -> ScanResult:
    """Uncovered measure under rotation, exactly at each sampled time.

    Arc i sits at (position_i + speed_i * t) mod 1 at time t.  Detection is
    exact per sample; between samples nothing is claimed.  The windows are
    maximal runs of consecutive sample times with a nonempty uncovered set.
    """
    pairs = arcs.arcs if n is None else arcs.arcs[:int(n)]
    speeds = arcs.speeds if arcs.speeds is not None else (0.0,) * len(arcs.arcs)
    speeds = speeds if n is None else speeds[:int(n)]
    ts, measures, counts = [], [], []
    for t in times:
        moved = [(l, float(np.mod(u + s * t, 1.0)))
                 for (l, u), s in zip(pairs, speeds)]
        unc = _uncovered_from_pairs(moved)
        ts.append(float(t))
        measures.append(uncovered_measure(unc))
        counts.append(len(unc))
    windows = []
    start = None
    for t, cnt in zip(ts, counts):
        if cnt > 0 and start is None:
            start = t
        elif cnt == 0 and start is not None:
            windows.append((start, prev))
            start = None
        prev = t
    if start is not None:
        windows.append((start, ts[-1]))
    return ScanResult(tuple(ts), tuple(measures), tuple(counts), tuple(windows))

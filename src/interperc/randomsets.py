"""Seeded realizations of stationary random closed subsets of a vertical line.

Four models are supported: a homogeneous Poisson point process, a scaled
shifted periodic pattern, a two-sided stationary renewal process with a
Weibull(2) interarrival law, and the complement of a Boolean arc union.
Each model is one branch of realize(), which checks its fields, estimates
its size on the window and picks its realizer, plus one model_label() case.

A realization is a windowed view of a conceptually infinite set.  Content is
a pure function of (model, stream, window): re-realizing with a larger window
reproduces the original window's content bit for bit, so windows can be grown
lazily.  Point models store sorted point values plus structural point ids;
interval models store the open holes of the window ("free intervals") and the
set is everything in between.

Every query reads the set through one view, its open gaps: for points the
gaps between consecutive values (unbounded past the ends), for interval kinds
the holes.  A gap end is a set point only while it lies inside the window;
beyond it the line is not realized yet.  Two private helpers build that view
at query time: _gap_at (the gap around one value) and _gaps_meeting (the gaps
that meet an interval).

A query that needs more of the line than the window holds grows the window
on a copy, doubling it on the side it needs, up to 2**10 times the width of
the queried set's window; past that it raises ExtensionBudgetError.
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

_MASK64 = (1 << 64) - 1

#: Renewal interarrivals are drawn in fixed-size chunks so that replaying a
#: stream with a larger window reproduces the same leading draws.
_RENEWAL_CHUNK = 64

#: realize() refuses a window expected to hold more points or holes than this.
MAX_REALIZED = 2 ** 24

#: Cap on automatic window growth: nearest() and max_void_radius() may grow
#: the window to 2**DEFAULT_MAX_DOUBLINGS times the width of the queried
#: set's window before they give up.
DEFAULT_MAX_DOUBLINGS = 10


class ExtensionBudgetError(RuntimeError):
    """Raised when automatic window growth exceeds its doubling budget."""


# ---------------------------------------------------------------------------
# streams


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    The two 64-bit fields form the 128-bit key of a counter-based Philox
    generator, so distinct (seed, stream_id) pairs select independent
    sequences that are identical across runs and platforms.  Substreams are
    derived by hashing the parent id together with a tag path (blake2b,
    64-bit digest); this is the only splitting rule used in the package.
    """

    seed: int
    stream_id: int = 0

    def _key(self) -> int:
        return ((self.seed & _MASK64) << 64) | (self.stream_id & _MASK64)

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; safe for the caller to keep."""
        return np.random.Generator(np.random.Philox(key=self._key()))

    def child(self, *tags: Union[int, str]) -> "RngStream":
        """Derive a substream from a tag path of ints and short strings."""
        return self._derived(self._hasher(tags))

    def children(self, tags: tuple, last: Iterable[Union[int, str]]) -> Iterator["RngStream"]:
        """Yield child(*tags, t) for each t in last, in order, hashing the
        shared prefix once."""
        h = self._hasher(tags)
        for t in last:
            hc = h.copy()
            _hash_tag(hc, t)
            yield self._derived(hc)

    def _hasher(self, tags):
        h = hashlib.blake2b(digest_size=8)
        h.update(struct.pack("<Q", self.stream_id & _MASK64))
        for t in tags:
            _hash_tag(h, t)
        return h

    def _derived(self, h) -> "RngStream":
        return RngStream(self.seed, int.from_bytes(h.digest(), "little"))


_INT_TAG = struct.Struct("<cq")


def _hash_tag(h, t) -> None:
    # the one tag encoding: b"s" + u32 length + utf-8 bytes, or b"i" + i64
    if isinstance(t, str):
        b = t.encode()
        h.update(b"s" + struct.pack("<I", len(b)) + b)
    else:
        h.update(_INT_TAG.pack(b"i", int(t)))


_tls = threading.local()


def _borrow_generator(stream: RngStream) -> np.random.Generator:
    # Thread-local Philox re-keyed in place; bit-identical to a fresh
    # Philox(key) but ~15x cheaper to set up.  Borrow only: the generator is
    # invalidated by the next call on the same thread.  The state setter
    # copies out of the kept dict, so only its key ever changes: the counter,
    # buffer and uint32 cache stay those of a fresh Philox.
    slot = getattr(_tls, "gen", None)
    if slot is None:
        bg = np.random.Philox(key=0)
        st = {"bit_generator": "Philox",
              "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
              "buffer": [0, 0, 0, 0], "buffer_pos": 4,
              "has_uint32": 0, "uinteger": 0}
        slot = _tls.gen = (bg, np.random.Generator(bg), st)
    bg, gen, st = slot
    key = st["state"]["key"]
    key[0] = stream.stream_id & _MASK64
    key[1] = stream.seed & _MASK64
    bg.state = st
    return gen


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class Poisson:
    """Homogeneous Poisson point process with the given intensity."""

    intensity: float
    x: float = 0.0


@dataclass(frozen=True)
class Periodic:
    """scale * (base + Z + shift): a scaled, shifted periodic pattern.

    The base is either a finite tuple of points (base_points) or a closed
    interval (base_interval).  If shift is None a uniform shift in [0, 1) is
    drawn once per line from the stream; a fixed shift makes the line
    deterministic.  scale may be negative but not zero.
    """

    scale: float
    base_points: tuple = (0.0,)
    base_interval: Optional[tuple] = None
    shift: Optional[float] = None
    x: float = 0.0


@dataclass(frozen=True)
class RenewalWeibull:
    """Two-sided stationary renewal process.

    Interarrival times T satisfy P[T <= t] = 1 - exp(-2**(level-2) * t*t).
    The interval straddling the origin is drawn length-biased with a uniform
    origin position, which is what makes the process stationary.  level must
    lie in [-1072, 1025], where 2**(level-2) is a positive finite float.
    """

    level: int
    x: float = 0.0


@dataclass(frozen=True)
class BooleanComplement:
    """Complement of the union of open arcs (0, arc_length) + P for a
    unit-intensity Poisson process P.  Realizations are interval-kind:
    the stored free intervals are the arcs' merged union."""

    arc_length: float
    x: float = 0.0


LineModel = Union[Poisson, Periodic, RenewalWeibull, BooleanComplement]


# ---------------------------------------------------------------------------
# realized sets

_EMPTY_F = np.empty(0, dtype=np.float64)


@dataclass(eq=False, slots=True)
class RealizedSet:
    """One line's set materialized on a closed window [lo, hi].

    Treat instances as immutable; extend() returns a new value.  kind is
    "points" (sorted values plus structural ids) or "complement" (sorted
    disjoint open holes; the set is the window minus the holes).  Queries
    see either kind as its open gaps (see the module docstring).
    """

    model: Optional[LineModel]
    stream: Optional[RngStream]
    window: tuple
    values: Optional[np.ndarray] = None
    _ida: Optional[np.ndarray] = None
    _idb: Optional[np.ndarray] = None
    _tag: str = ""
    hole_lo: Optional[np.ndarray] = None
    hole_hi: Optional[np.ndarray] = None

    @property
    def kind(self) -> str:
        return "points" if self.values is not None else "complement"

    def __len__(self) -> int:
        return len(self.values) if self.values is not None else 0

    def point_id(self, i: int) -> tuple:
        """Structural identity of the i-th stored point; stable under extend()."""
        return (self._tag, int(self._ida[i]), int(self._idb[i]))

    def contains_value(self, v: float) -> bool:
        """Exact membership of a float value in the set (bit comparison)."""
        a, b, _, _ = _gap_at(self, v)
        return a == b

    def contains_id(self, pid: tuple) -> bool:
        """Membership by identity: the id must name a current element."""
        try:
            self.id_value(pid)
        except KeyError:
            return False
        return True

    def id_value(self, pid: tuple) -> float:
        """Float value an id refers to; raises KeyError for foreign ids."""
        tag, a, b = pid
        if tag == "val":
            v = np.uint64(a).view(np.float64).item()
            if not self.contains_value(v):
                raise KeyError(f"id {pid} not in set")
            return v
        if self.values is None or tag != self._tag:
            raise KeyError(f"id {pid} not in set")
        hit = np.nonzero((self._ida == a) & (self._idb == b))[0]
        if hit.size != 1:
            raise KeyError(f"id {pid} not in set")
        return float(self.values[hit[0]])


def _value_id(v: float) -> tuple:
    return ("val", int(np.float64(v).view(np.uint64)), 0)


class NearestPoint(NamedTuple):
    distance: float
    value: float
    point_id: tuple


class VoidRadius(NamedTuple):
    radius: float
    center: float


# ---------------------------------------------------------------------------
# realization internals


def _poisson_block_width(intensity: float) -> float:
    # Power of two targeting ~32 points per block; block boundaries are a
    # function of the model alone so windowed content is extension-stable.
    e = round(math.log2(32.0 / intensity))
    return 2.0 ** min(max(e, -40), 40)


def _realize_poisson(model, stream, lo, hi):
    bw = _poisson_block_width(model.intensity)
    ks = np.arange(math.floor(lo / bw), math.floor(hi / bw) + 1, dtype=np.int64)
    per_block = model.intensity * bw
    counts = np.empty(ks.size, dtype=np.int64)
    draws = []
    for j, block in enumerate(stream.children(("block",), ks.tolist())):
        g = _borrow_generator(block)
        counts[j] = n = g.poisson(per_block)
        u = g.random(n)
        u.sort()
        draws.append(u)
    # a draw's id is (block, rank among the block's sorted draws)
    blocks = np.repeat(ks, counts)
    ranks = np.arange(blocks.size, dtype=np.int64) - np.repeat(counts.cumsum() - counts, counts)
    vals = np.concatenate(draws) * bw + blocks * bw
    m = (vals >= lo) & (vals <= hi)
    return vals[m], blocks[m], ranks[m]


def _renewal_walk(gen, start, sign, bound, scale):
    # Points start, start + s*T1, start + s*(T1+T2), ... until passing bound.
    # Fixed-size chunks keep replays with different bounds bit-identical.
    out = [np.array([start])]
    pos = start
    while (pos <= bound) if sign > 0 else (pos >= bound):
        steps = np.sqrt(gen.standard_exponential(_RENEWAL_CHUNK)) * scale
        pts = pos + sign * np.cumsum(steps)
        out.append(pts)
        pos = pts[-1]
    return np.concatenate(out)


def _realize_renewal(model, stream, lo, hi):
    scale = 1.0 / math.sqrt(2.0 ** (model.level - 2))
    g = _borrow_generator(stream.child("main"))
    # Straddling interval: length-biased (density ~ t * f(t)), origin uniform.
    length = math.sqrt(g.gamma(1.5)) * scale
    u = g.random()
    left0 = -u * length
    right0 = left0 + length
    rights = _renewal_walk(g, right0, +1, hi, scale)
    gl = _borrow_generator(stream.child("back"))
    lefts = _renewal_walk(gl, left0, -1, lo, scale)

    r_idx = np.arange(rights.size, dtype=np.int64)
    l_idx = np.arange(lefts.size, dtype=np.int64)
    rm = (rights >= lo) & (rights <= hi)
    lm = (lefts >= lo) & (lefts <= hi)
    vals = np.concatenate([lefts[lm][::-1], rights[rm]])
    sides = np.concatenate([np.zeros(lm.sum(), dtype=np.int64),
                            np.ones(rm.sum(), dtype=np.int64)])
    idx = np.concatenate([l_idx[lm][::-1], r_idx[rm]])
    return vals, sides, idx


def _periodic_shift(model, stream):
    if model.shift is not None:
        return float(model.shift)
    return float(_borrow_generator(stream.child("shift")).random())


def _realize_periodic_points(model, stream, lo, hi):
    shift = _periodic_shift(model, stream)
    s = model.scale
    vals, base_idx, lattice = [], [], []
    for i, c in enumerate(model.base_points):
        a = lo / s - c - shift
        b = hi / s - c - shift
        if a > b:
            a, b = b, a
        ks = np.arange(math.floor(a) - 1, math.ceil(b) + 2, dtype=np.int64)
        pts = s * (c + shift + ks.astype(np.float64))
        m = (pts >= lo) & (pts <= hi)
        vals.append(pts[m])
        base_idx.append(np.full(int(m.sum()), i, dtype=np.int64))
        lattice.append(ks[m])
    v = np.concatenate(vals)
    order = np.argsort(v, kind="stable")
    return v[order], np.concatenate(base_idx)[order], np.concatenate(lattice)[order]


def _realize_periodic_interval(model, stream, lo, hi):
    shift = _periodic_shift(model, stream)
    s = model.scale
    a, b = model.base_interval
    if b - a >= 1.0:
        return _EMPTY_F, _EMPTY_F   # copies overlap: the set is the whole line
    # gap between copy k and copy k+1: scale*(b+k+shift, a+k+1+shift)
    u0 = min(lo, hi) / abs(s)
    u1 = max(lo, hi) / abs(s)
    kr = np.arange(math.floor(u0 - abs(b) - abs(a) - abs(shift)) - 3,
                   math.ceil(u1 + abs(b) + abs(a) + abs(shift)) + 4,
                   dtype=np.float64)
    e0 = s * (b + kr + shift)
    e1 = s * (a + kr + 1.0 + shift)
    hlo = np.minimum(e0, e1)
    hhi = np.maximum(e0, e1)
    m = (hhi > lo) & (hlo < hi)
    order = np.argsort(hlo[m])
    return hlo[m][order], hhi[m][order]


def _realize_boolean(model, stream, lo, hi):
    ell = model.arc_length
    # Any arc whose open interval meets the window starts in [lo - ell, hi].
    pts, _, _ = _realize_poisson(Poisson(1.0), stream, lo - ell, hi)
    ends = pts + ell
    # pts is sorted, so a run of overlapping arcs ends where an arc starts at
    # or after the previous arc's end (strict: touching arcs leave a set point)
    cut = np.ones(pts.size + 1, dtype=bool)
    cut[1:-1] = pts[1:] >= ends[:-1]
    hlo = pts[cut[:-1]]
    hhi = ends[cut[1:]]
    m = (hhi > lo) & (hlo < hi)
    return hlo[m], hhi[m]


def realize(model: LineModel, stream: RngStream, window: tuple) -> RealizedSet:
    """Materialize the model's set on the closed window [lo, hi].

    Content is a pure function of (model, stream, window) and agrees with
    any realization of the same (model, stream) on overlapping windows.
    A window expected to hold more than MAX_REALIZED points or holes raises
    ValueError before anything is drawn.
    """
    # One branch per model: check its fields, then pick its id tag (None for
    # interval kinds), its realizer, and its expected points or holes per
    # unit width (rate) over the window widened by reach.
    if isinstance(model, Poisson):
        if not (math.isfinite(model.intensity) and model.intensity > 0):
            raise ValueError(f"poisson intensity must be finite and positive, got {model.intensity}")
        tag, draw, rate, reach = "pb", _realize_poisson, model.intensity, 0.0
    elif isinstance(model, Periodic):
        if not (math.isfinite(model.scale) and model.scale != 0.0):
            raise ValueError(f"periodic scale must be finite and nonzero, got {model.scale}")
        if model.base_interval is not None:
            a, b = model.base_interval
            if not (math.isfinite(a) and math.isfinite(b) and a <= b):
                raise ValueError(f"bad base interval {model.base_interval}")
            tag, draw, copies = None, _realize_periodic_interval, 1
        else:
            if len(model.base_points) == 0:
                raise ValueError("periodic base needs at least one point")
            if not all(math.isfinite(c) for c in model.base_points):
                raise ValueError("periodic base points must be finite")
            tag, draw, copies = "pg", _realize_periodic_points, len(model.base_points)
        if model.shift is not None and not math.isfinite(model.shift):
            raise ValueError("periodic shift must be finite")
        rate, reach = copies / abs(model.scale), 0.0
    elif isinstance(model, RenewalWeibull):
        if not isinstance(model.level, int):
            raise ValueError("renewal level must be an integer")
        # the levels where 2**(level-2) is a positive finite float
        if not -1072 <= model.level <= 1025:
            raise ValueError(f"{model_label(model)}: level outside [-1072, 1025], where "
                             f"2**(level-2) or the spacing scale 1/sqrt(2**(level-2)) "
                             f"is not finite")
        # one point per mean spacing sqrt(pi) 2**(-level/2)
        tag, draw, rate, reach = ("rn", _realize_renewal,
                                  2.0 ** (model.level / 2.0) / math.sqrt(math.pi), 0.0)
    elif isinstance(model, BooleanComplement):
        if not (math.isfinite(model.arc_length) and 0.0 < model.arc_length < 1.0):
            raise ValueError(f"arc length must lie in (0, 1), got {model.arc_length}")
        # at most one hole per arc that meets the window
        tag, draw, rate, reach = None, _realize_boolean, 1.0, model.arc_length
    else:
        raise TypeError(f"not a line model: {model!r}")
    if not math.isfinite(model.x):
        raise ValueError("line abscissa must be finite")
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window must be a finite nonempty interval, got {window}")
    size = rate * (hi - lo + reach)
    if size > MAX_REALIZED:
        raise ValueError(f"realize: {model_label(model)} on window [{lo:g}, {hi:g}] "
                         f"would hold about {size:.3g} points or holes, above the "
                         f"cap of {MAX_REALIZED}")
    arrays = draw(model, stream, lo, hi)
    if tag is None:
        return RealizedSet(model, stream, (lo, hi), hole_lo=arrays[0], hole_hi=arrays[1])
    return RealizedSet(model, stream, (lo, hi), *arrays, tag)


def from_points(points, window) -> RealizedSet:
    """Explicit point set for tests and hand examples.  Not extendable."""
    vals = np.sort(np.asarray(points, dtype=np.float64))
    if vals.size and not (window[0] <= vals[0] and vals[-1] <= window[1]):
        raise ValueError(f"points must lie in the window {window}")
    idx = np.arange(vals.size, dtype=np.int64)
    return RealizedSet(None, None, (float(window[0]), float(window[1])),
                       vals, idx, np.zeros(vals.size, dtype=np.int64), "ex")


def extend(rs: RealizedSet, new_window: tuple) -> RealizedSet:
    """Re-realize on a superset window; old content is reproduced exactly."""
    lo, hi = float(new_window[0]), float(new_window[1])
    w0, w1 = rs.window
    if lo > w0 or hi < w1:
        raise ValueError(f"extend window {new_window} does not contain {rs.window}")
    if rs.model is None:
        raise ValueError("explicit point sets cannot be extended")
    if rs.stream is None:
        raise ValueError("derived sets (e.g. thinned) cannot be extended")
    return realize(rs.model, rs.stream, (lo, hi))


def ensure_window(rs: RealizedSet, lo: float, hi: float) -> RealizedSet:
    """extend() convenience: grow rs just enough to cover [lo, hi]."""
    w0, w1 = rs.window
    if lo >= w0 and hi <= w1:
        return rs
    return extend(rs, (min(lo, w0), max(hi, w1)))


def _gap_at(rs, z):
    """The gap of rs around z as (a, b, ia, ib), with a <= z <= b.

    (a, b) is the open gap that holds z, or a == b == z when z is in the set
    (a, b = -inf, inf when z is outside the window).  ia and ib index the
    stored points a and b, or are None for interval kinds.
    """
    w0, w1 = rs.window
    if not (w0 <= z <= w1):
        return -math.inf, math.inf, None, None
    if rs.values is not None:
        v = rs.values
        i = int(v.searchsorted(z))
        b = float(v[i]) if i < len(v) else math.inf
        if b == z:   # a stored point; "down" takes its last copy
            return b, b, int(v.searchsorted(z, "right")) - 1, i
        return (float(v[i - 1]) if i else -math.inf), b, i - 1, i
    j = int(rs.hole_lo.searchsorted(z, "right")) - 1
    if j >= 0 and rs.hole_lo[j] < z < rs.hole_hi[j]:
        return float(rs.hole_lo[j]), float(rs.hole_hi[j]), None, None
    return z, z, None, None


def _gaps_meeting(rs, a, b):
    """Sorted arrays (lo, hi) of the open gaps of rs that meet [a, b].

    As in _gap_at, an end outside the window is no set point; a point set's
    first and last gaps are unbounded.
    """
    if rs.values is not None:
        pad = np.empty(len(rs.values) + 2)
        pad[0], pad[1:-1], pad[-1] = -np.inf, rs.values, np.inf
        glo, ghi = pad[:-1], pad[1:]
    else:
        glo, ghi = rs.hole_lo, rs.hole_hi
    i0 = int(ghi.searchsorted(a, "right"))
    i1 = int(glo.searchsorted(b, "left"))
    return glo[i0:i1], ghi[i0:i1]


def _grow_until(rs, attempt, what):
    """attempt(cur) -> (answer, grow_lo, grow_hi), first on rs, then on
    windows grown by their own width on each named side until it answers,
    up to 2**DEFAULT_MAX_DOUBLINGS times the width of rs's window."""
    width0 = rs.window[1] - rs.window[0]
    cap = width0 * 2.0 ** DEFAULT_MAX_DOUBLINGS
    cur = rs
    while True:
        ans, grow_lo, grow_hi = attempt(cur)
        if not (grow_lo or grow_hi):
            return ans
        w0, w1 = cur.window
        width = w1 - w0
        new_lo = w0 - width if grow_lo else w0
        new_hi = w1 + width if grow_hi else w1
        if new_hi - new_lo > cap:
            raise ExtensionBudgetError(
                f"{what}: window grew to width {new_hi - new_lo:g} (cap {cap:g}, "
                f"initial {width0:g}) without an answer")
        cur = extend(cur, (new_lo, new_hi))


def nearest(rs: RealizedSet, z: float, direction: str = "both") -> NearestPoint:
    """Nearest set point to z: first at-or-above ("up"), at-or-below
    ("down"), or closest of the two ("both", ties broken upward).

    The window is grown geometrically (internally; rs itself is unchanged)
    until the query is answerable, up to 2**10 times the width of rs's
    window; past that ExtensionBudgetError is raised.
    """
    if direction not in ("up", "down", "both"):
        raise ValueError(f"bad direction {direction!r}")
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"nearest: query must be finite, got {z}")
    want_up = direction != "down"
    want_dn = direction != "up"

    def attempt(cur):
        lo, hi = cur.window
        if z < lo or z > hi:
            return None, z < lo, z > hi
        a, b, ia, ib = _gap_at(cur, z)
        # A gap end is a set point only inside the window.  For "both", a
        # side wins only if nothing unseen beyond the window could be closer.
        if want_up and b <= hi and (not want_dn or b - z <= z - max(a, lo)):
            return _hit(cur, b - z, b, ib), False, False
        if want_dn and a >= lo and (not want_up or z - a < min(b, hi) - z):
            return _hit(cur, z - a, a, ia), False, False
        return None, want_dn, want_up

    return _grow_until(rs, attempt, "nearest")


def _hit(rs, distance, value, index):
    pid = rs.point_id(index) if index is not None else _value_id(value)
    return NearestPoint(distance, value, pid)


def max_void_radius(rs: RealizedSet, interval: tuple) -> VoidRadius:
    """Largest distance-to-set over centers in the closed interval, exact.

    Computed from the gaps that meet the interval: each gap's best center is
    its midpoint clamped into the interval.  Returns (radius, center); a
    radius of 0 means the set covers the whole interval (center = left end).
    The window grows as in nearest(), up to 2**10 times the width of rs's
    window, until every gap meeting the interval is bounded inside it.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError(f"bad interval {interval}: need finite lo <= hi")

    def attempt(cur):
        lo, hi = cur.window
        if lo > a or hi < b:
            return None, lo > a, hi < b
        glo, ghi = _gaps_meeting(cur, a, b)
        if glo.size == 0:
            return VoidRadius(0.0, a), False, False
        # an end outside the window may not bound the gap: grow that side
        if glo[0] < lo or ghi[-1] > hi:
            return None, glo[0] < lo, ghi[-1] > hi
        centers = ((glo + ghi) / 2.0).clip(a, b)
        radii = np.minimum(centers - glo, ghi - centers)
        i = int(radii.argmax())
        return VoidRadius(float(radii[i]), float(centers[i])), False, False

    return _grow_until(rs, attempt, "max_void_radius")


def intersects_interval(rs: RealizedSet, lo: float, hi: float) -> bool:
    """Whether the set meets the half-open interval [lo, hi).

    The set's window must cover [lo, hi]; callers extend first.
    """
    w0, w1 = rs.window
    if lo < w0 or hi > w1:
        raise ValueError(f"interval [{lo}, {hi}) outside realized window {rs.window}")
    a, b, _, _ = _gap_at(rs, lo)
    return lo < hi and not (a < lo and b >= hi)


def thin(rs: RealizedSet, keep_probability: float, stream: RngStream) -> RealizedSet:
    """Independent thinning of a point realization.

    Keeps each point with the given probability; point ids survive, so the
    result is a subset by identity.  Thinning a Poisson(lam) realization
    yields a Poisson(lam * p) law.  The result is not extendable.
    """
    if rs.values is None:
        raise ValueError("thinning needs a point-kind set")
    if not (0.0 <= keep_probability <= 1.0):
        raise ValueError("keep probability must lie in [0, 1]")
    g = _borrow_generator(stream.child("thin"))
    keep = g.random(len(rs.values)) < keep_probability
    model = rs.model
    if isinstance(model, Poisson):
        model = Poisson(model.intensity * keep_probability, model.x)
    return RealizedSet(model, None, rs.window, rs.values[keep],
                       rs._ida[keep], rs._idb[keep], rs._tag)


# ---------------------------------------------------------------------------
# serialization


def model_label(model: Optional[LineModel]) -> str:
    if model is None:
        return "explicit"
    if isinstance(model, Poisson):
        return f"poisson(intensity={model.intensity:.17g},x={model.x:.17g})"
    if isinstance(model, Periodic):
        if model.base_interval is not None:
            base = "interval:" + ",".join(f"{v:.17g}" for v in model.base_interval)
        else:
            base = "points:" + ",".join(f"{v:.17g}" for v in model.base_points)
        sh = "random" if model.shift is None else f"{model.shift:.17g}"
        return f"periodic(scale={model.scale:.17g},base={base},shift={sh},x={model.x:.17g})"
    if isinstance(model, RenewalWeibull):
        return f"renewal_weibull(level={model.level},x={model.x:.17g})"
    return f"boolean_complement(arc_length={model.arc_length:.17g},x={model.x:.17g})"


def write_csv(rs: RealizedSet, out: IO[str]) -> None:
    """Serialize a realization.

    Header: "# model=<label>;seed=<s>;stream=<id>;window=<lo>,<hi>".
    Then one point value per line (point kind) or one "lo,hi" free-interval
    pair per line (complement kind), all at 17 significant digits.
    """
    seed = rs.stream.seed if rs.stream is not None else "none"
    sid = rs.stream.stream_id if rs.stream is not None else "none"
    lo, hi = rs.window
    out.write(f"# model={model_label(rs.model)};seed={seed};stream={sid};"
              f"window={lo:.17g},{hi:.17g}\n")
    if rs.values is not None:
        for v in rs.values:
            out.write(f"{v:.17g}\n")
    else:
        for a, b in zip(rs.hole_lo, rs.hole_hi):
            out.write(f"{a:.17g},{b:.17g}\n")

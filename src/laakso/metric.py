"""Exact distance, minimal height intervals, and geodesic synthesis.

The path metric of Laakso space reduces to one-dimensional bookkeeping:
a connecting path must visit, for every address bit where the endpoints
differ, some wormhole height of that order.  A minimal height interval is a
shortest interval [a, b] containing both endpoint heights and at least one
wormhole height of every required order; the distance is then

    d(x, y) = 2*(b - a) - |h(x) - h(y)|

because an optimal path sweeps the interval once with at most two direction
changes (down to a, up to b, down to the far endpoint, read from the lower
endpoint).  All minimal intervals have the same length; when several exist
they correspond to genuinely different geodesics, which is what the
ending-direction analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Tuple, Union

from .core import (
    Direction,
    HeightInterval,
    InternalError,
    LaaksoPoint,
    WormholeLevel,
    canonicalize,
    format_rational,
    same_point,
    wormhole_above,
    wormhole_below,
)

__all__ = [
    "GeodesicPath",
    "HeightInterval",
    "Segment",
    "distance",
    "geodesic_endings",
    "minimal_height_intervals",
    "required_levels",
    "synthesize_geodesic",
]

@dataclass(frozen=True)
class Segment:
    """A vertical run at constant address, from height `start` to `end`."""

    start: Fraction
    end: Fraction
    bits: str
    direction: Direction

    @property
    def length(self) -> Fraction:
        return abs(self.end - self.start)


PathEvent = Union[Segment, WormholeLevel]


@dataclass(frozen=True)
class GeodesicPath:
    """An alternating sequence of vertical segments and zero-length jumps.

    Jumps are `WormholeLevel` records; each one flips exactly the bit of its
    order, at a height on its grid.  Consecutive segments share a height,
    and only segments contribute length.
    """

    events: Tuple[PathEvent, ...]

    @property
    def segments(self) -> List[Segment]:
        return [e for e in self.events if isinstance(e, Segment)]

    @property
    def jumps(self) -> List[WormholeLevel]:
        return [e for e in self.events if isinstance(e, WormholeLevel)]

    @property
    def length(self) -> Fraction:
        return sum((s.length for s in self.segments), Fraction(0))

    @property
    def ending_direction(self) -> Optional[Direction]:
        for e in reversed(self.events):
            if isinstance(e, Segment):
                return e.direction
        return None

    def to_json(self) -> list:
        out = []
        for e in self.events:
            if isinstance(e, Segment):
                out.append({"seg": [format_rational(e.start), format_rational(e.end)], "bits": e.bits})
            else:
                out.append({"jump": e.order, "at": format_rational(e.height)})
        return out


def required_levels(x: LaaksoPoint, y: LaaksoPoint) -> FrozenSet[int]:
    """Orders at which any path from x to y must jump an odd number of times.

    These are the bit positions where the canonical addresses differ after
    zero-padding to a common depth; empty exactly when x and y lie on the
    same vertical line.
    """
    xb = canonicalize(x).address
    yb = canonicalize(y).address
    depth = max(xb.depth, yb.depth)
    xs = xb.padded(depth).bits
    ys = yb.padded(depth).bits
    return frozenset(i + 1 for i in range(depth) if xs[i] != ys[i])


def _grid_meets(n: int, lo: Fraction, hi: Fraction) -> bool:
    h = wormhole_above(n, lo, strict=False)
    return h is not None and h <= hi


def minimal_height_intervals(x: LaaksoPoint, y: LaaksoPoint) -> List[HeightInterval]:
    """All minimum-length intervals covering both heights and every required
    wormhole order.

    For each order whose grid misses [lo, hi] the interval must stretch
    either down to the nearest grid height below lo or up to the nearest
    above hi.  A minimum-length interval is pinned at both ends, so its left
    endpoint is lo or one of the finitely many "down" candidates; for each
    such left endpoint the best right endpoint is forced.  Enumerating the
    candidates therefore finds every optimum, and all returned intervals
    share one length.
    """
    xc, yc = canonicalize(x), canonicalize(y)
    lo = min(xc.height, yc.height)
    hi = max(xc.height, yc.height)
    unsat = [n for n in sorted(required_levels(xc, yc)) if not _grid_meets(n, lo, hi)]
    if not unsat:
        return [HeightInterval(lo, hi)]

    below = {n: wormhole_below(n, lo, strict=True) for n in unsat}
    above = {n: wormhole_above(n, hi, strict=True) for n in unsat}
    for n in unsat:
        if below[n] is None and above[n] is None:
            raise InternalError(f"order-{n} grid is empty; invalid state")

    candidates = [lo] + [b for b in below.values() if b is not None]
    results = []
    for a in candidates:
        need_up = [n for n in unsat if below[n] is None or below[n] < a]
        if any(above[n] is None for n in need_up):
            continue
        b = max([hi] + [above[n] for n in need_up])
        results.append(HeightInterval(a, b))
    if not results:
        raise InternalError("no feasible interval; invalid state")
    best = min(iv.length for iv in results)
    out = sorted({iv for iv in results if iv.length == best}, key=lambda iv: (iv.a, iv.b))
    return out


def _distance(intervals: List[HeightInterval], x: LaaksoPoint, y: LaaksoPoint) -> Fraction:
    """d(x, y) = 2*(b - a) - |h(x) - h(y)|, read off x and y's minimal intervals."""
    return 2 * intervals[0].length - abs(x.height - y.height)


def distance(x: LaaksoPoint, y: LaaksoPoint) -> Fraction:
    """Exact path distance between two points."""
    return _distance(minimal_height_intervals(x, y), x, y)


def synthesize_geodesic(x: LaaksoPoint, y: LaaksoPoint, interval: HeightInterval) -> GeodesicPath:
    """One geodesic from x to y realizing the given minimal interval.

    The height trace runs down to `interval.a`, up to `interval.b`, then
    down to the far endpoint, starting from the lower of x and y (from x on
    a height tie).  Each required order is resolved at the first grid height
    the trace encounters, which fixes one canonical geodesic per interval;
    any other valid jump schedule has the same length.
    """
    xc, yc = canonicalize(x), canonicalize(y)
    intervals = minimal_height_intervals(xc, yc)
    if interval not in intervals:
        raise ValueError(f"[{interval.a}, {interval.b}] is not a minimal height interval")
    if same_point(xc, yc):
        return GeodesicPath(())

    if yc.height < xc.height:
        start, end = yc, xc
    else:
        start, end = xc, yc
    levels = sorted(required_levels(xc, yc))
    depth = max([start.address.depth, end.address.depth] + levels) if levels else max(
        start.address.depth, end.address.depth
    )
    phases = [(start.height, interval.a), (interval.a, interval.b), (interval.b, end.height)]

    # First opportunity along the trace, per level.
    scheduled = {}  # phase index -> [(height, order)]
    for n in levels:
        placed = False
        for idx, (s, e) in enumerate(phases):
            if s == e:
                continue
            if s > e:
                cand = wormhole_below(n, s, strict=False)
                ok = cand is not None and cand >= e
            else:
                cand = wormhole_above(n, s, strict=False)
                ok = cand is not None and cand <= e
            if ok:
                scheduled.setdefault(idx, []).append((cand, n))
                placed = True
                break
        if not placed:
            raise InternalError(f"interval misses the order-{n} grid; invalid state")

    events: List[PathEvent] = []
    bits = start.address.padded(depth)
    for idx, (s, e) in enumerate(phases):
        if s == e:
            continue
        direction = Direction.DOWN if s > e else Direction.UP
        jumps = sorted(scheduled.get(idx, []), reverse=(s > e))
        pos = s
        for h, n in jumps:
            if h != pos:
                events.append(Segment(pos, h, bits.bits, direction))
                pos = h
            bits = bits.flipped(n)
            events.append(WormholeLevel(n, h))
        if pos != e:
            events.append(Segment(pos, e, bits.bits, direction))

    path = GeodesicPath(tuple(events))
    if path.length != _distance(intervals, xc, yc):
        raise InternalError("synthesized path length does not match the distance")
    if not same_point(LaaksoPoint(end.height, bits), end):
        raise InternalError("synthesized path does not arrive at the target address")
    return path


def geodesic_endings(p: LaaksoPoint, q: LaaksoPoint) -> FrozenSet[Direction]:
    """Directions of the final segment into q over all geodesics from p.

    Read from the lower endpoint a geodesic traces down-up-down.  Arriving
    at the upper point, the approach descends exactly when the interval top
    lies strictly above it; arriving at the lower point, the approach
    ascends exactly when the interval bottom lies strictly below it.  On a
    height tie both sweep orders are geodesics, so a single interval can
    contribute both endings.
    """
    pc, qc = canonicalize(p), canonicalize(q)
    if same_point(pc, qc):
        raise ValueError("geodesic endings need distinct points")
    out = set()
    for iv in minimal_height_intervals(pc, qc):
        if qc.height > pc.height:
            out.add(Direction.DOWN if iv.b > qc.height else Direction.UP)
        elif qc.height < pc.height:
            out.add(Direction.UP if iv.a < qc.height else Direction.DOWN)
        else:
            if iv.b > qc.height:
                out.add(Direction.DOWN)
            if iv.a < qc.height:
                out.add(Direction.UP)
    return frozenset(out)

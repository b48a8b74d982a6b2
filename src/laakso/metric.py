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

Each pair is worked on one integer scale.  Both points are canonicalized
once, and both heights and every grid height the pair needs are put over
one common denominator, lcm(den h(x), den h(y)) * 3**N for N the deepest
required order; an order-n grid height k / 3**n is then an integer
multiple of 3**(N - n).  The minimal-interval search, the length formula
and the geodesic jump schedule run on those integers, through the one
grid-index kernel `core._grid_index`.  `Fraction`s are built only for the
values returned: intervals, segments, jumps and the distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Tuple, Union

from .core import (
    Direction,
    HeightInterval,
    InternalError,
    LaaksoPoint,
    WormholeLevel,
    _grid_index,
    canonicalize,
    format_rational,
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


def _levels(xs: str, ys: str) -> List[int]:
    """Increasing bit positions where two addresses differ after zero-padding."""
    depth = max(len(xs), len(ys))
    pairs = zip(xs.ljust(depth, "0"), ys.ljust(depth, "0"))
    return [i for i, (a, b) in enumerate(pairs, start=1) if a != b]


def required_levels(x: LaaksoPoint, y: LaaksoPoint) -> FrozenSet[int]:
    """Orders at which any path from x to y must jump an odd number of times.

    These are the bit positions where the canonical addresses differ after
    zero-padding to a common depth; empty exactly when x and y lie on the
    same vertical line.
    """
    return frozenset(_levels(canonicalize(x).bits, canonicalize(y).bits))


def _path_length(a: int, b: int, lo: int, hi: int) -> int:
    """2*(b - a) - |h(x) - h(y)|: the length of a path sweeping [a, b] from
    heights lo <= hi, all on one integer scale."""
    return 2 * (b - a) - (hi - lo)


class _Pair:
    """Two points, canonicalized once, with every height on one integer scale.

    `den` is lcm(den h(x), den h(y)) * 3**N for N the deepest required
    order, so both heights and every wormhole height of a required order
    are integer multiples of 1 / den; `hx` and `hy` are the heights times
    `den`, `lo` and `hi` the smaller and the larger.  Intervals are integer
    pairs (a, b) on the same scale.
    """

    __slots__ = ("x", "y", "levels", "den", "hx", "hy", "lo", "hi")

    def __init__(self, x: LaaksoPoint, y: LaaksoPoint):
        self.x = xc = canonicalize(x)
        self.y = yc = canonicalize(y)
        self.levels = _levels(xc.bits, yc.bits)
        hx, hy = xc.height, yc.height
        order = self.levels[-1] if self.levels else 0
        self.den = den = math.lcm(hx.denominator, hy.denominator) * 3**order
        self.hx = hx.numerator * (den // hx.denominator)
        self.hy = hy.numerator * (den // hy.denominator)
        self.lo, self.hi = min(self.hx, self.hy), max(self.hx, self.hy)

    def search(self) -> List[Tuple[int, int]]:
        """All minimum-length intervals covering both heights and every
        required wormhole order, in increasing order.

        For each order whose grid misses [lo, hi] the interval must stretch
        either down to the nearest grid height below lo or up to the nearest
        above hi.  A minimum-length interval is pinned at both ends, so its
        left endpoint is lo or one of the finitely many "down" candidates;
        for each such left endpoint the best right endpoint is forced.
        Enumerating the candidates therefore finds every optimum, and all
        returned intervals share one length.
        """
        den, lo, hi = self.den, self.lo, self.hi
        unsat = []  # (nearest grid height below lo, nearest above hi) per unmet order
        for n in self.levels:
            step = den // 3**n
            k = _grid_index(n, lo, den, True, False)
            if k is not None and k * step <= hi:
                continue
            below = _grid_index(n, lo, den, False, True)
            above = _grid_index(n, hi, den, True, True)
            if below is None and above is None:
                raise InternalError(f"order-{n} grid is empty; invalid state")
            unsat.append((None if below is None else below * step, None if above is None else above * step))
        if not unsat:
            return [(lo, hi)]

        results = set()
        for a in [lo] + [below for below, _ in unsat if below is not None]:
            tops = [above for below, above in unsat if below is None or below < a]
            if None not in tops:
                results.add((a, max([hi] + tops)))
        if not results:
            raise InternalError("no feasible interval; invalid state")
        best = min(b - a for a, b in results)
        return sorted(iv for iv in results if iv[1] - iv[0] == best)

    def scaled(self, interval: HeightInterval) -> Optional[Tuple[int, int]]:
        """The interval on this pair's scale, None when an end is off it."""
        out = []
        for h in (interval.a, interval.b):
            q, r = divmod(self.den, h.denominator)
            if r:
                return None
            out.append(h.numerator * q)
        return out[0], out[1]

    def interval(self, a: int, b: int) -> HeightInterval:
        return HeightInterval(Fraction(a, self.den), Fraction(b, self.den))

    def distance(self, a: int, b: int) -> Fraction:
        """d(x, y) read off the minimal interval [a, b]."""
        return Fraction(_path_length(a, b, self.lo, self.hi), self.den)

    def schedule(self, a: int, b: int) -> List[Tuple[int, int, List[Tuple[int, int]]]]:
        """The geodesic's height trace over [a, b] as phases (from, to, jumps).

        The trace runs down to a, up to b, then down to the far endpoint,
        starting from the lower of x and y (from x on a height tie).  Each
        required order jumps, as (height, order), at the first grid height
        the trace meets; a phase's jumps are listed in the order it meets
        them.
        """
        den = self.den
        start, end = (self.hy, self.hx) if self.hy < self.hx else (self.hx, self.hy)
        phases = [(start, a, []), (a, b, []), (b, end, [])]
        for n in self.levels:
            step = den // 3**n
            for s, e, jumps in phases:
                if s == e:
                    continue
                k = _grid_index(n, s, den, s < e, False)
                if k is not None and min(s, e) <= k * step <= max(s, e):
                    jumps.append((k * step, n))
                    break
            else:
                raise InternalError(f"interval misses the order-{n} grid; invalid state")
        for s, e, jumps in phases:
            jumps.sort(reverse=s > e)
        return phases

    def geodesic(self, a: int, b: int) -> "GeodesicPath":
        """The canonical geodesic over the minimal interval [a, b]; see
        `synthesize_geodesic`.  The path's length, summed over the segments
        emitted, and its arrival address are checked before it is returned."""
        if not self.levels and self.hx == self.hy:
            return GeodesicPath(())
        start, end = (self.y, self.x) if self.hy < self.hx else (self.x, self.y)
        depth = max(len(self.x.bits), len(self.y.bits))
        bits = list(start.bits.ljust(depth, "0"))
        heights = {}  # scaled height -> Fraction, built once per height

        def height(v: int) -> Fraction:
            if v not in heights:
                heights[v] = Fraction(v, self.den)
            return heights[v]

        events: List[PathEvent] = []
        length = 0
        for s, e, jumps in self.schedule(a, b):
            if s == e:
                continue
            direction = Direction.DOWN if s > e else Direction.UP
            pos = s
            for h, n in jumps + [(e, None)]:
                if h != pos:
                    events.append(Segment(height(pos), height(h), "".join(bits), direction))
                    length += abs(h - pos)
                    pos = h
                if n is not None:
                    bits[n - 1] = "1" if bits[n - 1] == "0" else "0"
                    events.append(WormholeLevel(n, height(h)))

        if length != _path_length(a, b, self.lo, self.hi):
            raise InternalError("synthesized path length does not match the distance")
        if "".join(bits).rstrip("0") != end.bits.rstrip("0"):
            raise InternalError("synthesized path does not arrive at the target address")
        return GeodesicPath(tuple(events))


def minimal_height_intervals(x: LaaksoPoint, y: LaaksoPoint) -> List[HeightInterval]:
    """All minimum-length intervals covering both heights and every required
    wormhole order, in increasing order; they all have one length (see
    `_Pair.search`)."""
    pair = _Pair(x, y)
    return [pair.interval(a, b) for a, b in pair.search()]


def distance(x: LaaksoPoint, y: LaaksoPoint) -> Fraction:
    """Exact path distance between two points."""
    pair = _Pair(x, y)
    return pair.distance(*pair.search()[0])


def synthesize_geodesic(x: LaaksoPoint, y: LaaksoPoint, interval: HeightInterval) -> GeodesicPath:
    """One geodesic from x to y realizing the given minimal interval.

    The height trace runs down to `interval.a`, up to `interval.b`, then
    down to the far endpoint, starting from the lower of x and y (from x on
    a height tie).  Each required order is resolved at the first grid height
    the trace encounters, which fixes one canonical geodesic per interval;
    any other valid jump schedule has the same length.
    """
    pair = _Pair(x, y)
    scaled = pair.scaled(interval)
    if scaled not in pair.search():
        raise ValueError(f"[{interval.a}, {interval.b}] is not a minimal height interval")
    return pair.geodesic(*scaled)


def geodesic_endings(p: LaaksoPoint, q: LaaksoPoint) -> FrozenSet[Direction]:
    """Directions of the final segment into q over all geodesics from p.

    Read from the lower endpoint a geodesic traces down-up-down.  Arriving
    at the upper point, the approach descends exactly when the interval top
    lies strictly above it; arriving at the lower point, the approach
    ascends exactly when the interval bottom lies strictly below it.  On a
    height tie both sweep orders are geodesics, so a single interval can
    contribute both endings.
    """
    pair = _Pair(p, q)
    if not pair.levels and pair.hx == pair.hy:
        raise ValueError("geodesic endings need distinct points")
    ph, qh = pair.hx, pair.hy
    out = set()
    for a, b in pair.search():
        if qh > ph:
            out.add(Direction.DOWN if b > qh else Direction.UP)
        elif qh < ph:
            out.add(Direction.UP if a < qh else Direction.DOWN)
        else:
            if b > qh:
                out.add(Direction.DOWN)
            if a < qh:
                out.add(Direction.UP)
    return frozenset(out)

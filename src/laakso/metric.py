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
once, and the required orders are the set bits of the XOR of their
address masks.  Both heights and every grid height the pair needs are put
over one common denominator, lcm(den h(x), den h(y)) * 3**N for N the
deepest required order; an order-n grid height k / 3**n is then an integer
multiple of 3**(N - n).  The minimal-interval search, the length formula
and the geodesic jump schedule run on those integers, through the one
grid-index kernel `core._grid_index`; the search makes one kernel call,
one integer division, per required order, and resolves the unmet orders
in one pass over their left ends.  The geodesic is synthesized once,
by `_Pair.trace`: an integer event list (segments and jumps on the pair's
scale) that checks every jump against its order's grid, the summed length
against the distance and the arrival address against the far point's.
`synthesize_geodesic` builds its `Segment` and `WormholeLevel` objects from
that checked trace, and `Fraction`s are built only for the values the
public functions return.  `laakso distance` reads its intervals, its
distance and every geodesic straight off the pair's integers and prints
them by `core._format_ratio`: a reply builds no `Fraction`, interval or
path object.  A caller holding many pairs on one scale of its own
(`profiles` holds every height of a vertical line over one denominator)
builds each `_Pair` from its integers directly, without canonicalizing
again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Sequence, Tuple, Union

from .core import (
    Direction,
    HeightInterval,
    InternalError,
    LaaksoPoint,
    WormholeLevel,
    _bits,
    _format_ratio,
    _grid_index,
    _orders,
    canonicalize,
)

__all__ = [
    "GeodesicPath",
    "HeightInterval",
    "Segment",
    "distance",
    "geodesic_endings",
    "minimal_height_intervals",
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


class _Pair:
    """Two points with every height on one integer scale.

    `den` is a common denominator of both heights and of every wormhole
    height of a required order (an integer multiple of 3**N for N the
    deepest one), so `hx` and `hy`, the heights times `den`, and every grid
    height the pair needs are integers; `lo` and `hi` are the smaller and
    the larger.  Intervals are integer pairs (a, b) on the same scale.

    The constructor takes that data as given: `levels`, the increasing
    orders where the addresses differ, and the scaled heights.  `on_scale`
    puts two heights, given as reduced (numerator, denominator) pairs, on
    the least such scale, lcm(den hx, den hy) * 3**N, and `of` builds the
    pair of two points, canonicalized once; a caller that already holds
    canonical data on a scale of its own builds the pair directly.  `x`
    and `y` are the canonical points when built by `of` (`geodesic` needs
    their addresses), else None.  `shortest` is the one read of the
    distance every caller makes.
    """

    __slots__ = ("x", "y", "levels", "den", "hx", "hy", "lo", "hi")

    def __init__(self, levels: Sequence[int], hx: int, hy: int, den: int):
        self.x = self.y = None
        self.levels = levels
        self.den = den
        self.hx = hx
        self.hy = hy
        if hx <= hy:
            self.lo, self.hi = hx, hy
        else:
            self.lo, self.hi = hy, hx

    @classmethod
    def on_scale(cls, levels: Sequence[int], hx: Tuple[int, int], hy: Tuple[int, int]) -> "_Pair":
        (nx, dx), (ny, dy) = hx, hy
        den = math.lcm(dx, dy)
        if levels:
            den *= 3 ** levels[-1]
        return cls(levels, nx * (den // dx), ny * (den // dy), den)

    @classmethod
    def of(cls, x: LaaksoPoint, y: LaaksoPoint) -> "_Pair":
        x, y = canonicalize(x), canonicalize(y)
        levels = _orders(x.address.mask ^ y.address.mask)
        pair = cls.on_scale(levels, x.height.as_integer_ratio(), y.height.as_integer_ratio())
        pair.x, pair.y = x, y
        return pair

    def search(self) -> List[Tuple[int, int]]:
        """All minimum-length intervals covering both heights and every
        required wormhole order, in increasing order.

        One kernel call per order, at lo, gives the order's nearest grid
        heights at or below and at or above lo.  The order is met when the
        one above lies in [lo, hi].  Otherwise lo is off that grid, so the
        one below lies strictly below lo and the one above strictly above
        hi, and the interval must stretch down to the first or up to the
        second.  A minimum-length interval is pinned at both ends, so its
        left end is lo or the grid height below lo of an unmet order, and
        each left end forces its right end: hi, or the highest grid height
        above hi of the unmet orders that the left end leaves uncovered.
        One pass over the left ends from the lowest up, adding each order
        to the uncovered ones once it is passed, meets every optimum in
        increasing order; all returned intervals share one length.  Grids
        of different orders are disjoint, so no two left ends coincide.
        """
        den, lo, hi = self.den, self.lo, self.hi
        right = hi  # raised by every unmet order, which no left end covers, with no grid height below lo
        ends = []  # (grid height below lo, grid height above hi or None) per other unmet order
        for n in self.levels:
            top = 3**n
            step = den // top
            below, above = _grid_index(top, lo, step)
            if above is not None:
                above *= step
                if above <= hi:
                    continue
            if below is not None:
                ends.append((below * step, above))
            elif above is None:
                raise InternalError(f"order-{n} grid is empty; invalid state")
            elif above > right:
                right = above
        if not ends and right == hi:  # every order met
            return [(lo, hi)]

        ends.append((lo, None))
        ends.sort()
        out = []
        for a, above in ends:
            width = right - a
            if not out or width < best:
                out = [(a, right)]
                best = width
            elif width == best:
                out.append((a, right))
            if above is None:
                break
            if above > right:
                right = above
        return out

    def intervals(self) -> List[Tuple[int, int]]:
        """`search`'s intervals, each checked to lie in [0, 1]."""
        den = self.den
        ivs = self.search()
        for a, b in ivs:
            if not 0 <= a <= b <= den:
                raise InternalError(
                    f"minimal interval [{_format_ratio(a, den)}, {_format_ratio(b, den)}] "
                    "is not an interval inside [0, 1]; invalid state"
                )
        return ivs

    def interval(self, a: int, b: int) -> HeightInterval:
        return HeightInterval(Fraction(a, self.den), Fraction(b, self.den))

    def length(self, a: int, b: int) -> int:
        """2*(b - a) - |h(x) - h(y)|, on this pair's scale: the length of a
        path sweeping [a, b] from heights lo <= hi."""
        return 2 * (b - a) - (self.hi - self.lo)

    def shortest(self) -> int:
        """d(x, y) on this pair's scale: the length over the first minimal
        interval, by one search."""
        return self.length(*self.search()[0])

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
            top = 3**n
            step = den // top
            for s, e, jumps in phases:
                if s == e:
                    continue
                below, above = _grid_index(top, s, step)
                k = above if s < e else below
                if k is not None and min(s, e) <= k * step <= max(s, e):
                    jumps.append((k * step, n))
                    break
            else:
                raise InternalError(f"interval misses the order-{n} grid; invalid state")
        for s, e, jumps in phases:
            jumps.sort(reverse=s > e)
        return phases

    def trace(self, a: int, b: int) -> List[tuple]:
        """The canonical geodesic over the minimal interval [a, b] (see
        `synthesize_geodesic`) on this pair's scale, as events in path
        order: a segment as (start, end, bits), a jump as (order, height).

        Each phase of `schedule` is cut at its jumps, and each jump flips
        its order's bit of the address.  Before the trace is returned,
        every jump is checked to lie on its own order's grid, the segments'
        lengths to sum to `length(a, b)`, and the path to arrive at the far
        point's address; `geodesic` and the CLI's `distance` reply both
        read this one checked trace.
        """
        if not self.levels and self.hx == self.hy:
            return []
        den = self.den
        start, end = (self.y, self.x) if self.hy < self.hx else (self.x, self.y)
        mask = start.address.mask
        depth = max(start.address.depth, end.address.depth)
        events: List[tuple] = []
        length = 0
        for s, e, jumps in self.schedule(a, b):
            pos = s
            for h, n in jumps:
                step = den // 3**n
                if not (0 < h < den and h % step == 0 and h // step % 3):
                    raise InternalError(f"synthesized jump at {_format_ratio(h, den)} is off the order-{n} grid")
                if h != pos:
                    events.append((pos, h, _bits(mask, depth)))
                    length += abs(h - pos)
                    pos = h
                mask ^= 1 << (n - 1)
                events.append((n, h))
            if e != pos:
                events.append((pos, e, _bits(mask, depth)))
                length += abs(e - pos)

        if length != self.length(a, b):
            raise InternalError("synthesized path length does not match the distance")
        if mask != end.address.mask:
            raise InternalError("synthesized path does not arrive at the target address")
        return events

    def geodesic(self, a: int, b: int) -> "GeodesicPath":
        """`trace` over [a, b] as a `GeodesicPath`, one `Fraction` per
        distinct height."""
        heights = {}  # scaled height -> Fraction

        def height(v: int) -> Fraction:
            if v not in heights:
                heights[v] = Fraction(v, self.den)
            return heights[v]

        events: List[PathEvent] = []
        for event in self.trace(a, b):
            if len(event) == 3:
                s, e, bits = event
                events.append(Segment(height(s), height(e), bits, Direction.DOWN if s > e else Direction.UP))
            else:
                n, h = event
                events.append(WormholeLevel(n, height(h)))
        return GeodesicPath(tuple(events))


def minimal_height_intervals(x: LaaksoPoint, y: LaaksoPoint) -> List[HeightInterval]:
    """All minimum-length intervals covering both heights and every required
    wormhole order, in increasing order; they all have one length (see
    `_Pair.search`)."""
    pair = _Pair.of(x, y)
    return [pair.interval(a, b) for a, b in pair.intervals()]


def distance(x: LaaksoPoint, y: LaaksoPoint) -> Fraction:
    """Exact path distance between two points."""
    pair = _Pair.of(x, y)
    return Fraction(pair.shortest(), pair.den)


def synthesize_geodesic(x: LaaksoPoint, y: LaaksoPoint, interval: HeightInterval) -> GeodesicPath:
    """One geodesic from x to y realizing the given minimal interval.

    The height trace runs down to `interval.a`, up to `interval.b`, then
    down to the far endpoint, starting from the lower of x and y (from x on
    a height tie).  Each required order is resolved at the first grid height
    the trace encounters, which fixes one canonical geodesic per interval;
    any other valid jump schedule has the same length.
    """
    pair = _Pair.of(x, y)
    for a, b in pair.intervals():
        if pair.interval(a, b) == interval:
            return pair.geodesic(a, b)
    raise ValueError(f"[{interval.a}, {interval.b}] is not a minimal height interval")


def geodesic_endings(p: LaaksoPoint, q: LaaksoPoint) -> FrozenSet[Direction]:
    """Directions of the final segment into q over all geodesics from p.

    Read from the lower endpoint a geodesic traces down-up-down.  Arriving
    at the upper point, the approach descends exactly when the interval top
    lies strictly above it; arriving at the lower point, the approach
    ascends exactly when the interval bottom lies strictly below it.  On a
    height tie both sweep orders are geodesics, so a single interval can
    contribute both endings.
    """
    pair = _Pair.of(p, q)
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

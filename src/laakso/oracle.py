"""A level-m graph discretization serving as an independent distance oracle.

The graph snaps Laakso space to the grid of heights k / 3**m and addresses
of depth m.  Vertical edges of weight 1/3**m join consecutive heights at a
fixed address; identification edges of weight 0 join, at every interior
grid height, the pair of addresses differing exactly in the bit of that
height's wormhole order.  Shortest paths are computed with integer weights
(units of 1/3**m), so the oracle is exact and shares no code path with the
interval-based distance it cross-checks.

The same grid carries the product measure used for ball-growth checks: a
cell of height 1/3**m and address depth m has mass (1/3**m) * 2**(-m), so
the whole space has mass exactly 1 and a depth-m Cantor column has mass
2**(-m), matching (3**(-m)) ** (DIMENSION - 1).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .core import CantorAddress, LaaksoPoint, format_rational, point_key

__all__ = [
    "DIMENSION",
    "LevelGraph",
    "MeasureEstimate",
    "RegularityReport",
    "ball_measure",
    "build_level_graph",
    "graph_distance",
    "graph_distance_map",
    "regularity_scan",
    "total_cell_mass",
]

# Hausdorff dimension of the space; ball masses grow like r**DIMENSION.
DIMENSION = 1.0 + math.log(2) / math.log(3)

_MAX_RESOLUTION = 8


@dataclass(frozen=True)
class LevelGraph:
    """The level-m discretization.

    Vertices are the pairs (k, a) with 0 <= k <= 3**m and a an m-bit
    address, encoded as k * 2**m + a with address bit i (1-indexed) stored
    at integer bit i - 1.  `level_of_k[k]` caches the wormhole order of the
    interior grid height k / 3**m (every interior grid height has one).
    """

    m: int
    level_of_k: Tuple[int, ...]

    @property
    def heights(self) -> int:
        return 3**self.m + 1

    @property
    def vertex_count(self) -> int:
        return self.heights * 2**self.m

    @property
    def unit(self) -> Fraction:
        return Fraction(1, 3**self.m)

    @property
    def cell_mass(self) -> Fraction:
        return Fraction(1, 3**self.m * 2**self.m)

    def vertex(self, k: int, a: int) -> int:
        return k * 2**self.m + a

    def vertex_point(self, v: int) -> LaaksoPoint:
        k, a = divmod(v, 2**self.m)
        bits = "".join("1" if a >> i & 1 else "0" for i in range(self.m))
        return LaaksoPoint(Fraction(k, 3**self.m), CantorAddress(bits))

    def point_vertex(self, p: LaaksoPoint) -> int:
        """Encode a representable point; rejects anything off the grid."""
        k = p.height * 3**self.m
        if k.denominator != 1:
            raise ValueError(f"height {p.height} is not a multiple of 1/3^{self.m}")
        bits = p.address.bits
        if len(bits) > self.m:
            if bits[self.m :].strip("0"):
                raise ValueError(f"address depth {len(bits)} exceeds resolution {self.m}")
            bits = bits[: self.m]
        a = 0
        for i, b in enumerate(bits):
            if b == "1":
                a |= 1 << i
        return self.vertex(k.numerator, a)

    def zero_partner(self, k: int, a: int) -> Optional[int]:
        """The address glued to `a` at height k / 3**m, if k is interior."""
        if not (0 < k < 3**self.m):
            return None
        n = self.level_of_k[k]
        return a ^ (1 << (n - 1))


def build_level_graph(m: int) -> LevelGraph:
    """Construct the level-m graph; m is capped to keep memory sane."""
    if not (1 <= m <= _MAX_RESOLUTION):
        raise ValueError(f"resolution must be in 1..{_MAX_RESOLUTION}, got {m}")
    levels = [0] * (3**m + 1)
    for k in range(1, 3**m):
        j, n = k, m
        while j % 3 == 0:
            j //= 3
            n -= 1
        levels[k] = n
    return LevelGraph(m, tuple(levels))


def _dijkstra(g: LevelGraph, source: int, cutoff: Optional[int] = None) -> List[Optional[int]]:
    """Single-source shortest paths in units of 1/3**m (integer weights)."""
    two_m = 2**g.m
    top = 3**g.m
    dist: List[Optional[int]] = [None] * g.vertex_count
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] is not None:
            continue
        if cutoff is not None and d > cutoff:
            continue
        dist[v] = d
        k, a = divmod(v, two_m)
        if k > 0 and dist[v - two_m] is None:
            heapq.heappush(heap, (d + 1, v - two_m))
        if k < top and dist[v + two_m] is None:
            heapq.heappush(heap, (d + 1, v + two_m))
        if 0 < k < top:
            partner = a ^ (1 << (g.level_of_k[k] - 1))
            w = g.vertex(k, partner)
            if dist[w] is None:
                heapq.heappush(heap, (d, w))
    return dist


def graph_distance_map(g: LevelGraph, x: LaaksoPoint) -> Dict[int, Fraction]:
    """Exact distances from x to every vertex (vertex id -> Fraction)."""
    dist = _dijkstra(g, g.point_vertex(x))
    return {v: d * g.unit for v, d in enumerate(dist) if d is not None}


def graph_distance(g: LevelGraph, x: LaaksoPoint, y: LaaksoPoint) -> Fraction:
    """Exact shortest-path distance between two representable points."""
    dist = _dijkstra(g, g.point_vertex(x))
    d = dist[g.point_vertex(y)]
    if d is None:
        raise RuntimeError("graph is connected; unreachable vertex is a bug")
    return d * g.unit


@dataclass(frozen=True)
class MeasureEstimate:
    """Mass of a grid ball and its ratio to r**DIMENSION (float, reporting only)."""

    center: LaaksoPoint
    radius: Fraction
    m: int
    mass: Fraction

    @property
    def ratio(self) -> float:
        return float(self.mass) / float(self.radius) ** DIMENSION

    def csv_row(self) -> list:
        return [
            format_rational(self.center.height),
            self.center.address.bits,
            format_rational(self.radius),
            format_rational(self.mass),
            f"{self.ratio:.12g}",
            str(self.m),
        ]


def total_cell_mass(g: LevelGraph) -> Fraction:
    """Mass of the full cell decomposition (exactly 1 by construction)."""
    return 3**g.m * 2**g.m * g.cell_mass


def ball_measure(g: LevelGraph, center: LaaksoPoint, r: Fraction) -> MeasureEstimate:
    """Mass of the cells whose representative lies within distance r.

    A cell's representative is its lower-left corner (minimum height, the
    cell's own address); at resolution m the choice moves distances by at
    most 2/3**m, which the reported spread absorbs.
    """
    if not (g.unit <= r <= 1):
        raise ValueError(f"radius must lie in [1/3^{g.m}, 1], got {r}")
    cutoff_units = r * 3**g.m
    dist = _dijkstra(g, g.point_vertex(center), cutoff=math.ceil(cutoff_units))
    two_m = 2**g.m
    count = 0
    for k in range(3**g.m):  # cells are indexed by their lower height
        base = k * two_m
        for a in range(two_m):
            d = dist[base + a]
            if d is not None and d <= cutoff_units:
                count += 1
    return MeasureEstimate(center, r, g.m, count * g.cell_mass)


@dataclass(frozen=True)
class RegularityReport:
    estimates: Tuple[MeasureEstimate, ...]
    spread: Optional[float]  # max ratio / min ratio; None for an empty scan

    def csv_rows(self) -> list:
        return [e.csv_row() for e in self.estimates]


def regularity_scan(m: int, sample: int, radii, seed: int = 0) -> RegularityReport:
    """Ball-growth ratios at `sample` random grid centers and each radius.

    Radii must lie in [1/3**(m-1), 1/3], and `sample` may not exceed the
    2**(m-1) * (3**m + 3) distinct grid points (two unglued columns of 2**m
    at heights 0 and 1, 2**(m-1) glued classes at each interior height).
    Output is sorted by center and radius and is fully determined by the
    seed.
    """
    g = build_level_graph(m)
    radii = [Fraction(r) for r in radii]
    floor_r = Fraction(1, 3 ** (m - 1))
    for r in radii:
        if not (floor_r <= r <= Fraction(1, 3)):
            raise ValueError(f"radius {r} outside [1/3^{m - 1}, 1/3]")
    distinct = 2 ** (m - 1) * (3**m + 3)
    if sample > distinct:
        raise ValueError(f"sample {sample} exceeds the {distinct} distinct grid points at m={m}")
    if not radii or sample <= 0:
        return RegularityReport((), None)
    rng = random.Random(seed)
    centers = []
    seen = set()
    while len(centers) < sample:
        k = rng.randrange(3**m + 1)
        a = rng.randrange(2**m)
        c = g.vertex_point(g.vertex(k, a))
        key = point_key(c)
        if key in seen:
            continue
        seen.add(key)
        centers.append(c)
    centers.sort(key=lambda c: (c.height, c.address.bits))
    estimates = []
    for c in centers:
        for r in sorted(radii):
            estimates.append(ball_measure(g, c, r))
    ratios = [e.ratio for e in estimates]
    return RegularityReport(tuple(estimates), max(ratios) / min(ratios))

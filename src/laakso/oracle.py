"""A level-m graph discretization serving as an independent distance oracle.

The graph snaps Laakso space to the grid of heights k / 3**m and addresses
of depth m.  Vertical edges of weight 1/3**m join consecutive heights at a
fixed address; identification edges of weight 0 join, at every interior
grid height, the pair of addresses differing exactly in the bit of that
height's wormhole order.  Shortest paths are computed with integer weights
(units of 1/3**m), so the oracle is exact and shares no code path with the
interval-based distance it cross-checks.

Each row k carries exactly one flip mask, so the 0-edges pair every
interior vertex with one partner and nothing else: the one search,
`_dijkstra`, is a level-synchronous 0-1 BFS over glued pairs, run on row
bitsets.  A row's 2**m addresses are one Python int, address a at bit a,
so one level is a few integer operations per frontier row: mask it into
rows k - 1 and k + 1 against what is already reached, and glue what is
new there in one step by the XOR swap ((new & M_f) << f) | ((new >> f) &
M_f), for f the row's flip and M_f the addresses whose bit f is clear.  An
address gets its distance when first reached, together with its partner.
The search stops after the last level within a cutoff, or after the level
that reaches a target, so `graph_distance` settles only the vertices no
farther than its target.  Its result keeps the (row, bitset) pairs of each
level and reads as one distance or None per vertex.

XOR-ing every address with one mask maps the graph onto itself (flip edges
are XORs, vertical edges keep the address), so d((k1, a1), (k2, a2)) =
d((k1, 0), (k2, a1 ^ a2)): `row_distances` answers every pair from one
search per row.

The same grid carries the product measure used for ball-growth checks: a
cell of height 1/3**m and address depth m has mass (1/3**m) * 2**(-m), so
the whole space has mass exactly 1 and a depth-m Cantor column has mass
2**(-m), matching (3**(-m)) ** (DIMENSION - 1).  A ball's mass at every
radius comes from one search about its center, cut off at the largest
radius, and one pass over the search's levels that keeps a running count
of the settled cells, by popcounts of the row bitsets; each radius reads
that count at its own limit.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from .core import _BYTE_BITS, CantorAddress, InternalError, LaaksoPoint, parse_rational, point_key

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
    "row_distances",
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
    at integer bit i - 1.  `flips[k]` is the address mask the gluing at the
    grid height k / 3**m XORs in, 1 << (n - 1) for n the height's wormhole
    order (every interior grid height has one), and 0 at heights 0 and 1.
    """

    m: int
    flips: Tuple[int, ...]

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
        return LaaksoPoint(Fraction(k, 3**self.m), CantorAddress._of(a, self.m))

    def point_vertex(self, p: LaaksoPoint) -> int:
        """Encode a representable point; rejects anything off the grid."""
        k = p.height * 3**self.m
        if k.denominator != 1:
            raise ValueError(f"height {p.height} is not a multiple of 1/3^{self.m}")
        if p.address.mask >> self.m:
            raise ValueError(f"address depth {p.address.depth} exceeds resolution {self.m}")
        return self.vertex(k.numerator, p.address.mask)


def build_level_graph(m: int) -> LevelGraph:
    """Construct the level-m graph; the cap on m bounds the work before it starts."""
    if not (1 <= m <= _MAX_RESOLUTION):
        raise ValueError(f"resolution must be in 1..{_MAX_RESOLUTION}, got {m}")
    flips = [0] * (3**m + 1)
    for j in range(m):  # heights k / 3**m with 3**j | k have order at most m - j
        flips[3**j : 3**m : 3**j] = [1 << (m - 1 - j)] * (3 ** (m - j) - 1)
    return LevelGraph(m, tuple(flips))


@lru_cache(maxsize=_MAX_RESOLUTION)
def _swap_masks(m: int) -> Dict[int, int]:
    """flip -> M_flip, the row bitset of the addresses whose bit `flip` is
    clear.  A row's 2**m addresses are one integer, address a at bit a; the
    gluing XORs each address with the row's flip f, which moves the bits in
    M_f up by f and the others down by f.  Shared by every search at
    resolution m, so read only."""
    full = (1 << 2**m) - 1
    return {f: ((1 << f) - 1) * (full // ((1 << 2 * f) - 1)) for f in (1 << i for i in range(m))}


class _Distances(Sequence):
    """The distances one search settled, in units of 1/3**m, as a sequence
    over vertex ids: `result[v]` is an int, or None where the search never
    settled v.

    Stored as `levels`: `levels[d]` lists the (row k, bits) the search
    reached at distance d, bit a of `bits` set for each address a of row k
    first reached there (a row reached from both neighbours is listed
    twice, with disjoint bits).  Indexing scans the levels, latest first;
    iteration expands all of them into one dense list, a byte of addresses
    at a time, so a caller reading many entries takes `list(result)` once.
    """

    __slots__ = ("levels", "_n", "_heights")

    def __init__(self, g: LevelGraph, levels: List[List[Tuple[int, int]]]):
        self.levels = levels
        self._n = 2**g.m
        self._heights = g.heights

    def __len__(self) -> int:
        return self._heights * self._n

    def __getitem__(self, v: int) -> Optional[int]:
        if not 0 <= v < len(self):
            raise IndexError(v)
        k, a = divmod(v, self._n)
        for d in range(len(self.levels) - 1, -1, -1):
            for row, bits in self.levels[d]:
                if row == k and bits >> a & 1:
                    return d
        return None

    def __iter__(self) -> Iterator[Optional[int]]:
        dense: List[Optional[int]] = [None] * len(self)
        for d, level in enumerate(self.levels):
            for k, bits in level:
                v = k * self._n
                while bits:
                    for a in _BYTE_BITS[bits & 255]:
                        dense[v + a] = d
                    bits >>= 8
                    v += 8
        return iter(dense)

    def count(self, value) -> int:
        settled = [sum(bits.bit_count() for _, bits in level) for level in self.levels]
        if value is None:
            return len(self) - sum(settled)
        return sum(n for d, n in enumerate(settled) if d == value)


def _dijkstra(
    g: LevelGraph, source: int, cutoff: Optional[int] = None, target: Optional[int] = None
) -> _Distances:
    """Single-source shortest paths in units of 1/3**m, by a level-synchronous
    0-1 BFS on row bitsets.

    `open_[k]` is the bitset of the addresses of row k not yet reached, and
    the frontier lists (row, bits) for the addresses at distance d.  One
    level masks each frontier bitset into rows k - 1 and k + 1 (the
    vertical edges) and glues what is new there in one step: the XOR swap
    by the row's flip f adds each new address's partner, which gets the
    same distance, since its only 0-edge leads back.  So every address is
    reached once, and the reached part of a row stays closed under its
    gluing.  The search stops after the last level within `cutoff`, or
    after the level that reaches `target`, so it settles exactly the
    vertices no farther than either.
    """
    m, flips = g.m, g.flips
    top, masks = 3**m, _swap_masks(m)
    k, a = divmod(source, 2**m)
    bits = 1 << a | 1 << (a ^ flips[k])
    # The closing 0 stands for the rows -1 and top + 1 alike.
    open_ = [(1 << 2**m) - 1] * (top + 1) + [0]
    open_[k] ^= bits
    frontier = [(k, bits)]
    levels = [frontier]
    if target is not None:
        target_row, target_address = divmod(target, 2**m)
        target_bit = 1 << target_address
    while frontier and (cutoff is None or len(levels) <= cutoff) and (
        target is None or open_[target_row] & target_bit
    ):
        reached: List[Tuple[int, int]] = []
        push = reached.append
        for k, bits in frontier:  # the two vertical edges, unrolled
            new = bits & open_[k - 1]
            if new:
                f = flips[k - 1]
                if f:
                    mask = masks[f]
                    new |= (new & mask) << f | (new >> f) & mask
                open_[k - 1] ^= new
                push((k - 1, new))
            new = bits & open_[k + 1]
            if new:
                f = flips[k + 1]
                if f:
                    mask = masks[f]
                    new |= (new & mask) << f | (new >> f) & mask
                open_[k + 1] ^= new
                push((k + 1, new))
        frontier = reached
        levels.append(reached)
    return _Distances(g, levels)


def row_distances(g: LevelGraph) -> List[List[int]]:
    """Distances from (k, 0) for every row k, one full search per row.

    By the address-XOR automorphism, the distance from (k1, a1) to the
    vertex v, in units of 1/3**m, is `row_distances(g)[k1][v ^ a1]`.
    """
    return [list(_dijkstra(g, g.vertex(k, 0))) for k in range(g.heights)]


def graph_distance_map(g: LevelGraph, x: LaaksoPoint) -> Dict[int, Fraction]:
    """Exact distances from x to every vertex (vertex id -> Fraction)."""
    dist = _dijkstra(g, g.point_vertex(x))
    fractions = [d * g.unit for d in range(len(dist.levels))]  # one per distance, not per vertex
    return {v: fractions[d] for v, d in enumerate(dist) if d is not None}


def graph_distance(g: LevelGraph, x: LaaksoPoint, y: LaaksoPoint) -> Fraction:
    """Exact shortest-path distance between two representable points."""
    target = g.point_vertex(y)
    d = _dijkstra(g, g.point_vertex(x), target=target)[target]
    if d is None:
        raise InternalError("graph is connected; unreachable vertex is a bug")
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


def total_cell_mass(g: LevelGraph) -> Fraction:
    """Mass of the full cell decomposition (exactly 1 by construction)."""
    return 3**g.m * 2**g.m * g.cell_mass


def _ball_estimates(g: LevelGraph, center: LaaksoPoint, radii) -> List[MeasureEstimate]:
    """Ball masses about `center` at every radius, from one search cut off
    at the largest radius and one pass over its levels: `settled[d]` is
    the running count of the cells settled within distance d, summed from
    the popcounts of each level's bitsets in rows k < 3**m, and each radius
    reads it at its own limit (the last level, where the search ran out
    before the limit).

    A cell's representative is its lower-left corner (minimum height, the
    cell's own address), so cells are the vertices of rows k < 3**m; at
    resolution m the choice moves distances by at most 2/3**m, which the
    reported spread absorbs.
    """
    top = 3**g.m
    limits = [math.floor(r * top) for r in radii]  # integer d <= r * 3**m iff d <= limit
    settled = []
    count = 0
    for level in _dijkstra(g, g.point_vertex(center), cutoff=max(limits)).levels:
        for k, bits in level:
            if k < top:
                count += bits.bit_count()
        settled.append(count)
    last = len(settled) - 1
    return [
        MeasureEstimate(center, r, g.m, settled[min(limit, last)] * g.cell_mass)
        for r, limit in zip(radii, limits)
    ]


def ball_measure(g: LevelGraph, center: LaaksoPoint, r: Fraction) -> MeasureEstimate:
    """Mass of the cells whose representative lies within distance r (an
    exact rational; a float is a TypeError)."""
    r = parse_rational(r)
    if not (g.unit <= r <= 1):
        raise ValueError(f"radius must lie in [1/3^{g.m}, 1], got {r}")
    return _ball_estimates(g, center, [r])[0]


@dataclass(frozen=True)
class RegularityReport:
    estimates: Tuple[MeasureEstimate, ...]
    spread: Optional[float]  # max ratio / min ratio; None for an empty scan


def regularity_scan(m: int, sample: int, radii, seed: int = 0) -> RegularityReport:
    """Ball-growth ratios at `sample` random grid centers and each radius.

    Radii are exact rationals (a float is a TypeError) in [1/3**(m-1), 1/3],
    and `sample` lies in [0, N] for the N = 2**(m-1) * (3**m + 3) distinct
    grid points (two unglued columns of 2**m at heights 0 and 1, 2**(m-1)
    glued classes at each interior height).
    Output is sorted by center and radius and is fully determined by the
    seed.
    """
    g = build_level_graph(m)
    radii = [parse_rational(r) for r in radii]
    floor_r = Fraction(1, 3 ** (m - 1))
    for r in radii:
        if not (floor_r <= r <= Fraction(1, 3)):
            raise ValueError(f"radius {r} outside [1/3^{m - 1}, 1/3]")
    distinct = 2 ** (m - 1) * (3**m + 3)
    if sample < 0:
        raise ValueError(f"sample {sample} is negative")
    if sample > distinct:
        raise ValueError(f"sample {sample} exceeds the {distinct} distinct grid points at m={m}")
    if not radii or sample == 0:
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
    radii.sort()
    estimates = [e for c in centers for e in _ball_estimates(g, c, radii)]
    ratios = [e.ratio for e in estimates]
    return RegularityReport(tuple(estimates), max(ratios) / min(ratios))

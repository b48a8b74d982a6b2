"""Explicit 1-Lipschitz witness functions, porosity certificates, and the
classification of points where maximal vertical derivatives force
differentiability.

Two witness families are built here, both sampled on finite sets with every
claimed inequality checked exactly:

- a "flat" witness around a point x: zero on the vertical line through x,
  and equal to the smaller of the two order-n gaps on the point reached by
  jumping at order n and returning to x's height.  Its vertical derivative
  at x is 0, yet the linear-model error ratio at the jump points is exactly
  1/2 at every order, so it is not differentiable at x.

- a "steep" witness at a point whose gap ratios blow up on one side: an
  integral of a slope profile that is 1 on the thin-gap side and ramps to 1
  through near-1 band slopes on the wide side, again pinned to gap values
  at the jump points.  Its vertical derivative is maximal (the Lipschitz
  constant, 1) on the probed scales, and the error ratio at the jump points
  is again exactly 1/2.  Such a witness exists exactly where the gap ratios
  are unbalanced, which is what `maximality_verdict` mechanizes.  It is
  fixed by its center, thin side and orders (`BandSchedule`); its gaps and
  band slopes (the ramp bounds) are read off the height.

The builders share one tail, `_witness`, which refuses a measured pairwise
Lipschitz ratio above 1 as an `InternalError`.

Porosity of the balanced-height set is certified hole by hole: next to any
wormhole height of a deep enough order, an explicit interval is produced on
which the down gap is tiny and the up gap is large, violating any fixed
ratio bound.  The certificate works in integers on one scale per hole: the
sampled heights share one denominator D, the gap query `core._gaps` is
asked once per grid cell the heights fall in (a hole lies in one) for the
grid heights on both sides, both gaps of every height are checked against
the hole's bounds over 3**order * D, and the exact gaps are recorded as
numerators on that scale.

The pairwise Lipschitz check works the same way: each sample is
canonicalized once and its value put on one common denominator, and each
pair is one integer distance read, `metric._Pair.shortest`; the worst ratio
is kept as an integer pair, and one `Fraction` is built at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import (
    Direction,
    LaaksoPoint,
    _gaps,
    _orders,
    canonicalize,
    gap_ratio_probe,
    GapRatioVerdict,
    InternalError,
    nearest_wormhole_gap,
    parse_rational,
    point_key,
    wormhole_above,
    wormhole_below,
    wormhole_order,
)
from .calculus import PointFunction
from .metric import _Pair, distance

__all__ = [
    "BandSchedule",
    "MaximalityVerdict",
    "PorosityWitness",
    "SampledFunction",
    "Witness",
    "as_point_function",
    "build_flat_nondifferentiable",
    "build_one_sided_steep",
    "build_steep_nondifferentiable",
    "find_band_schedule",
    "maximality_verdict",
    "porosity_witness",
    "sparse_ternary_height",
]


@dataclass(frozen=True)
class SampledFunction:
    """A function known exactly on finitely many points, whose worst ratio
    `verify_lipschitz` measures pairwise against exact distances."""

    samples: Tuple[Tuple[LaaksoPoint, Fraction], ...]

    def __post_init__(self):
        table = {}
        for p, value in self.samples:
            key = point_key(p)
            if key in table and table[key] != value:
                raise ValueError(f"conflicting values at {p}")
            table[key] = value
        object.__setattr__(self, "_table", table)

    def value_at(self, p: LaaksoPoint) -> Fraction:
        key = point_key(p)
        if key not in self._table:
            raise KeyError(f"{p} is not a sample point")
        return self._table[key]

    def verify_lipschitz(self) -> Fraction:
        """Max of |f(a) - f(b)| / d(a, b) over sample pairs (exact).

        Two samples at distance 0 with different values are an
        `InternalError`.  A pair with equal values can neither raise the
        ratio nor break the equal-points rule, so it is not measured.

        Each sample is canonicalized once and its value put over the one
        common denominator V of all values.  A pair is then one integer
        distance read on its own scale D (`metric._Pair.shortest`): with
        the path length L over D, its ratio is |v_a - v_b| * D / (L * V),
        and the worst one is kept as an integer pair by cross-multiplication;
        one `Fraction` is built at the end."""
        scale = math.lcm(*(value.denominator for _, value in self.samples))
        data = []
        for p, value in self.samples:
            c, v = canonicalize(p), value.numerator * (scale // value.denominator)
            data.append((p, c.address.mask, c.height.as_integer_ratio(), v))
        worst_num, worst_den = 0, 1
        for i, (a, mask_a, h_a, va) in enumerate(data):
            for b, mask_b, h_b, vb in data[i + 1 :]:
                if va == vb:
                    continue
                pair = _Pair.on_scale(_orders(mask_a ^ mask_b), h_a, h_b)
                length = pair.shortest()
                if length == 0:
                    raise InternalError(f"equal points {a}, {b} carry different values")
                num = abs(va - vb) * pair.den
                if num * worst_den > worst_num * length:
                    worst_num, worst_den = num, length
        return Fraction(worst_num, worst_den * scale)


def as_point_function(f: SampledFunction) -> PointFunction:
    """Wrap a sampled function for the calculus module; evaluation is
    restricted to sample points (exact values only)."""
    return PointFunction(f.value_at)


def sparse_ternary_height(exponents: Sequence[int], tail: Optional[Fraction] = None) -> Fraction:
    """sum of 2 / 3**a over the exponents, plus an optional tail term.

    With rapidly growing exponents the resulting height has wildly
    one-sided gap structure near each exponent's order, which is the raw
    material for steep witnesses.  A non-triadic tail (say 1 / (2 * 3**k))
    keeps the height off every wormhole grid.
    """
    t = sum((Fraction(2, 3**a) for a in exponents), Fraction(0))
    if tail is not None:
        t += parse_rational(tail)
    if not (0 < t < 1):
        raise ValueError("height escaped (0, 1); thin the exponents")
    return t


# ---------------------------------------------------------------------------
# Witness record, shared by the flat, steep and one-sided builders.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A sampled witness around `center`: per order in `levels`, the point
    reached by jumping at that order back at the center's height, and the
    value the function carries there."""

    function: SampledFunction
    center: LaaksoPoint
    levels: Tuple[int, ...]
    jump_points: Tuple[LaaksoPoint, ...]
    jump_values: Tuple[Fraction, ...]
    sampled_ratio: Fraction

    def jump_quotients(self) -> Tuple[Fraction, ...]:
        """|f(y) - f(center)| / d(y, center) at every jump point y."""
        f = self.function.value_at
        fx = f(self.center)
        return tuple(abs(f(y) - fx) / distance(y, self.center) for y in self.jump_points)


def _witness(
    xc: LaaksoPoint, line: Dict[Fraction, Fraction], jumps: Sequence[Tuple[int, Fraction]]
) -> Witness:
    """The witness sampled on xc's vertical line, where `line` maps each
    height to its value, and at one jump point per (order, value) in
    `jumps`, which carries the value.  Verifies exactly that every jump
    point sits at distance twice |value| from xc and that the measured
    pairwise Lipschitz ratio is at most 1, or raises `InternalError`."""
    samples = [(LaaksoPoint(t, xc.address), v) for t, v in sorted(line.items())]
    jump_points = []
    for n, value in jumps:
        y = LaaksoPoint(xc.height, xc.address.flipped(n))
        if distance(xc, y) != 2 * abs(value):
            raise InternalError(f"order-{n} jump point is not at distance twice its value")
        jump_points.append(y)
        samples.append((y, value))
    fn = SampledFunction(tuple(samples))
    ratio = fn.verify_lipschitz()
    if ratio > 1:
        raise InternalError(f"sampled ratio {ratio} exceeds bound 1")
    levels, values = zip(*jumps)
    return Witness(fn, xc, levels, tuple(jump_points), values, ratio)


# ---------------------------------------------------------------------------
# Flat witness (vanishing vertical derivative, not differentiable).
# ---------------------------------------------------------------------------


def build_flat_nondifferentiable(
    x: LaaksoPoint,
    start_level: int,
    end_level: int,
    probe_offsets: Iterable[Fraction] = (),
) -> Witness:
    """The flat witness around x, sampled at orders start..end.

    Samples: the vertical line through x (value 0) at x, at both gap
    endpoints of every usable order, and at the requested probe offsets;
    plus, per order n, the point reached by jumping at order n back at x's
    height, valued at the smaller finite gap.  At heights 0 and 1 only one
    side exists and the construction is one-sided.  The build verifies,
    exactly, that the jump points sit at distance twice the smaller gap and
    that the measured pairwise Lipschitz ratio is at most 1.
    """
    xc = canonicalize(x)
    w = wormhole_order(xc.height)
    if w is not None and start_level <= w:
        raise ValueError(f"start_level must exceed the center's wormhole order {w}")
    if not (1 <= start_level <= end_level):
        raise ValueError("need 1 <= start_level <= end_level")

    line_heights = {xc.height}
    for off in probe_offsets:
        off = parse_rational(off)
        for t in (xc.height + off, xc.height - off):
            if 0 <= t <= 1:
                line_heights.add(t)

    jumps = []
    for n in range(start_level, end_level + 1):
        up, down = nearest_wormhole_gap(xc.height, n)
        if up is not None:
            line_heights.add(xc.height + up)
        if down is not None:
            line_heights.add(xc.height - down)
        jumps.append((n, min(g for g in (up, down) if g is not None)))
    return _witness(xc, dict.fromkeys(line_heights, Fraction(0)), jumps)


# ---------------------------------------------------------------------------
# Steep witness (maximal vertical derivative, not differentiable).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandSchedule:
    """Jump orders for a steep witness at the height `center`.

    `jump_side` is the thin-gap side: jumps happen there, and the slope
    profile equals 1 there.  On the opposite (wide) side the profile takes
    the band slope slopes[k] between the order n_k and order n_{k+1} gap
    heights.  Building the record reads each order's thin gap P[k] and wide
    gap Q[k] once (`thin`, `wide`) and refuses (ValueError) orders that are
    empty or not strictly increasing, and gaps not all finite with, exactly,

        2 * P[k] / Q[k] < 1 / n_k          (thin side much thinner),
        2 * Q[k+1] / Q[k] < 1 / n_k        (gaps collapse fast),
        P and Q strictly decreasing.

    Each slope is its ramp bound, the largest admissible value,

        slopes[k] = ramp_bound(k) = (Q[k] - P[k] - Q[k+1]) / (Q[k] - Q[k+1])

    with Q[K+1] = 0 for the innermost band.  The gap conditions put P[k]
    and Q[k+1] below Q[k] / 2, so each slope lies in (0, 1); it approaches
    1 as the ratios collapse, so the slopes ramp to 1.
    """

    center: Fraction
    jump_side: Direction
    levels: Tuple[int, ...]
    thin: Tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    wide: Tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    slopes: Tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.levels:
            raise ValueError("schedule lists no orders")
        if list(self.levels) != sorted(set(self.levels)):
            raise ValueError("orders must be strictly increasing")
        up_dir = self.jump_side is Direction.UP
        thin: List[Fraction] = []
        wide: List[Fraction] = []
        for n in self.levels:
            up, down = nearest_wormhole_gap(self.center, n)
            p, q = (up, down) if up_dir else (down, up)
            # The checks against the previous order come first; a missing
            # gap is refused just below.
            if thin and p is not None and q is not None:
                if not (p < thin[-1] and q < wide[-1]):
                    raise ValueError("gaps must strictly decrease along the schedule")
                n_prev = self.levels[len(thin) - 1]
                if not 2 * q * n_prev < wide[-1]:
                    raise ValueError(f"order {n_prev}: successive wide gaps collapse too slowly")
            if p is None or q is None:
                raise ValueError(f"order {n} has no wormhole on one side")
            if not 2 * p * n < q:
                raise ValueError(f"order {n}: thin/wide gap ratio too large")
            thin.append(p)
            wide.append(q)
        object.__setattr__(self, "thin", tuple(thin))
        object.__setattr__(self, "wide", tuple(wide))
        object.__setattr__(self, "slopes", tuple(map(self.ramp_bound, range(len(thin)))))

    def ramp_bound(self, k: int) -> Fraction:
        q_next = self.wide[k + 1] if k + 1 < len(self.levels) else Fraction(0)
        q = self.wide[k]
        return (1 - (self.thin[k] + q_next) / q) / (1 - q_next / q)


def find_band_schedule(
    x1: Fraction,
    jump_side,
    start_level: int = 1,
    max_level: int = 48,
) -> Optional[BandSchedule]:
    """Greedy search for a schedule at x1, thin side as given.

    Scans orders upward, keeping each order whose thin/wide ratio beats the
    1/n threshold and whose gaps are below, and whose wide gap collapses
    fast enough relative to, those of the previously kept order, up to six
    orders: exactly the conditions `BandSchedule` checks, so the schedule
    built from the kept orders is valid.  Returns None when nothing
    qualifies.
    """
    x1 = parse_rational(x1)
    jump_side = Direction(jump_side)
    up_dir = jump_side is Direction.UP
    levels: List[int] = []
    for n in range(start_level, max_level + 1):
        up, down = nearest_wormhole_gap(x1, n)
        t, q = (up, down) if up_dir else (down, up)
        if t is None or q is None or not 2 * t * n < q:
            continue
        if levels and not (t < t_prev and q < q_prev and 2 * q * levels[-1] < q_prev):
            continue
        levels.append(n)
        t_prev, q_prev = t, q
        if len(levels) == 6:
            break
    return BandSchedule(x1, jump_side, tuple(levels)) if levels else None


def _band_integral(schedule: BandSchedule, span: Fraction) -> Fraction:
    """Integral of the banded slope profile from the center out to distance
    `span` on the wide side (span <= the outermost wide gap)."""
    total = Fraction(0)
    levels = len(schedule.levels)
    for k in range(levels):
        outer = schedule.wide[k]
        inner = schedule.wide[k + 1] if k + 1 < levels else Fraction(0)
        lo, hi = inner, min(outer, span)
        if hi > lo:
            total += schedule.slopes[k] * (hi - lo)
    return total


def _steep_line_value(center: Fraction, sign: int, schedule: BandSchedule, t: Fraction) -> Fraction:
    """The steep witness on the center's vertical line: slope exactly 1 on
    the thin side, the integrated band slopes on the wide side."""
    offset = t - center
    if sign * offset >= 0:
        return offset
    return sign * -_band_integral(schedule, abs(offset))


def build_steep_nondifferentiable(
    x: LaaksoPoint,
    schedule: BandSchedule,
    probe_offsets: Iterable[Fraction] = (),
) -> Witness:
    """The steep witness at x for a band schedule computed at x's height.

    On the vertical line through x the function integrates the slope
    profile (slope 1 on the thin side, band slopes on the wide side), and
    the order n_k jump point at x's height carries the signed thin gap.
    The build verifies exactly: the jump points sit at distance twice the
    thin gap, consecutive jump points sit at distance twice the earlier
    thin gap, the line value at the thin-gap height equals the jump value,
    and the measured pairwise Lipschitz ratio is at most 1.
    """
    xc = canonicalize(x)
    if wormhole_order(xc.height) is not None:
        raise ValueError("the two-sided construction needs a non-wormhole center")
    if schedule.center != xc.height:
        raise ValueError("schedule was computed for a different height")
    sign = 1 if schedule.jump_side is Direction.UP else -1
    heights = {xc.height}
    for k, n in enumerate(schedule.levels):
        heights.add(xc.height + sign * schedule.thin[k])
        heights.add(xc.height - sign * schedule.wide[k])
    for off in probe_offsets:
        off = abs(parse_rational(off))
        if off > min(schedule.thin[0], schedule.wide[0]):
            continue
        heights.add(xc.height + off)
        heights.add(xc.height - off)

    line = {t: _steep_line_value(xc.height, sign, schedule, t) for t in heights}
    jumps = [(n, sign * thin) for n, thin in zip(schedule.levels, schedule.thin)]
    for n, value in jumps:
        if line[xc.height + value] != value:
            raise InternalError(f"order-{n} thin-gap line value does not match the jump value")
    witness = _witness(xc, line, jumps)
    points = witness.jump_points
    for k, y in enumerate(points):
        for j in range(k):
            if distance(points[j], y) != 2 * schedule.thin[j]:
                raise InternalError("jump points are not spaced by twice the earlier thin gap")
    return witness


def build_one_sided_steep(x: LaaksoPoint, levels: Sequence[int]) -> Witness:
    """Boundary variant (height 0 or 1): the construction lives on the one
    available side, the slope profile is constantly 1 there, and the jump
    value at order n is the distance to the first order-n wormhole."""
    xc = canonicalize(x)
    if xc.height not in (0, 1):
        raise ValueError("one-sided construction is for boundary heights only")
    levels = tuple(levels)
    if not levels or list(levels) != sorted(set(levels)):
        raise ValueError("levels must be strictly increasing and nonempty")

    line = {xc.height: Fraction(0)}
    jumps = []
    for n in levels:
        up, down = nearest_wormhole_gap(xc.height, n)
        value = up if xc.height == 0 else -down
        line[xc.height + value] = value
        jumps.append((n, value))
    return _witness(xc, line, jumps)


# ---------------------------------------------------------------------------
# Porosity witnesses for the balanced-height set.
# ---------------------------------------------------------------------------


# (num, down, up) at one certified height, integers on the scale D the
# heights were given on: the height is num / D and the down and up gaps are
# down / (3**n * D) and up / (3**n * D); up is None where no wormhole of the
# hole's order n lies above the height.
Certificate = Tuple[int, int, Optional[int]]


@dataclass(frozen=True)
class PorosityWitness:
    """An explicit hole in the balanced-height set near t0.

    The hole is the open interval (anchor, anchor + lam / 3**order) just
    above a wormhole height `anchor` of the given order, with lam =
    1 / (bound + 2).  Every height s in the hole has down gap at most
    lam / 3**order and up gap at least (1 - lam) / 3**order at that order,
    hence gap ratio above (1 - lam) / lam = bound + 1, which exceeds the
    probed bound.
    """

    bound: Fraction
    start_level: int
    t0: Fraction
    order: int
    anchor: Fraction

    @property
    def lam(self) -> Fraction:
        return 1 / (self.bound + 2)

    @property
    def hole_width(self) -> Fraction:
        return self.lam / 3**self.order

    def samples(self, count: int) -> Tuple[range, int]:
        """The heights anchor + hole_width * i / (count + 1), i = 1..count, as
        numerators over their common denominator D: with anchor = a / b and
        hole_width = p / q, D = b * q * (count + 1) and the i-th numerator is
        a * q * (count + 1) + p * b * i.  Requires count >= 1."""
        if count < 1:
            raise ValueError("need at least one sample")
        a, b = self.anchor.numerator, self.anchor.denominator
        width = self.hole_width
        p, q = width.numerator, width.denominator
        d = count + 1
        base, step = a * q * d, p * b
        return range(base + step, base + step * d, step), b * q * d

    def certify(self, nums: Iterable[int], den: int) -> List[Certificate]:
        """Exact per-height certificates (num, down, up) for the heights
        num / den, one per height, in the integer form of `Certificate`.

        Between two consecutive order-n wormhole heights both neighbouring
        grid heights are constant, so the gap query `core._gaps` runs once
        per such cell the heights fall in, on the scale top * den: a height
        strictly inside the open cell of the last lookup reuses both of its
        grid heights; a height outside it, or after a lookup made exactly
        on a grid height, is looked up again.  Every height still gets its
        own down and up gaps, each compared with the hole's bounds on the
        scale 3**order * den, all in integers.  Raises ValueError for a
        height outside the hole and RuntimeError if any inequality fails.
        """
        if den < 1:
            raise ValueError("the heights' denominator must be positive")
        top = 3**self.order
        a, b = self.anchor.numerator, self.anchor.denominator
        width = self.hole_width
        p, q = width.numerator, width.denominator
        # num / den lies in the open hole exactly when lo < num < hi: lo is
        # the floor of anchor * den and hi the ceiling of its upper end.
        lo = a * den // b
        hi = -(-(a * q + p * b) * den // (b * q))
        # down <= lam / top and up >= (1 - lam) / top, with lam = lp / lq,
        # over top * den.
        lp, lq = self.lam.numerator, self.lam.denominator
        down_cap, up_floor = lp * den, (lq - lp) * den
        # The grid heights below and above the last lookup (ceil None: no
        # wormhole above), over top * den, hold on the open cell
        # (floor, cell_top); it is empty until a lookup off the grid.
        floor = cell_top = 0
        ceil = None
        records = []
        for num in nums:
            if not lo < num < hi:
                raise ValueError(f"{Fraction(num, den)} is outside the hole")
            scaled = num * top
            if not floor < scaled < cell_top:
                up, down = _gaps(scaled, top * den, self.order)
                if down is None:
                    raise RuntimeError(f"hole certificate failed at {Fraction(num, den)}")
                floor = scaled - down
                ceil = None if up is None else scaled + up
                if scaled % den == 0:  # on a grid height: the lookup holds there only
                    cell_top = floor
                else:
                    cell_top = top * den if ceil is None else ceil
            down = scaled - floor
            up = None if ceil is None else ceil - scaled
            if down * lq > down_cap or (up is not None and up * lq < up_floor):
                raise RuntimeError(f"hole certificate failed at {Fraction(num, den)}")
            records.append((num, down, up))
        return records


def porosity_witness(bound, start_level: int, t0, delta) -> PorosityWitness:
    """A hole of relative width lam / 2 within distance 2/3**n of t0, for
    some order n > start_level >= 1 with 2/3**n below delta; always exists.

    The witness's lam, 1 / (bound + 2), satisfies both lam < 1/2 and the
    ratio requirement (1 - lam) / lam = bound + 1 > bound.
    """
    bound = parse_rational(bound)
    t0 = parse_rational(t0)
    delta = parse_rational(delta)
    if bound <= 1:
        raise ValueError("ratio bound must exceed 1")
    if start_level < 1:
        raise ValueError("need start_level >= 1")
    if not (0 < t0 < 1):
        raise ValueError("t0 must be interior")
    if delta <= 0:
        raise ValueError("delta must be positive")

    n = start_level + 1
    while Fraction(2, 3**n) >= delta:
        n += 1
    below = wormhole_below(n, t0, strict=False)
    above = wormhole_above(n, t0, strict=False)
    options = [h for h in (below, above) if h is not None and abs(h - t0) < Fraction(2, 3**n)]
    if not options:
        raise InternalError("a wormhole within 2/3^n of any interior height must exist")
    anchor = min(options, key=lambda h: (abs(h - t0), h))
    return PorosityWitness(bound, start_level, t0, n, anchor)


# ---------------------------------------------------------------------------
# Maximality classification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaximalityVerdict:
    """Finite-depth classification of a point against one (bound, start)
    pair.

    "in-M-consistent": the gap ratios stayed balanced at every probed
    order, consistent with maximal derivatives forcing differentiability
    here (no finite probe can promote this to a certificate).

    "not-in-M": the ratios violated the bound at `probe.violated_at`, a
    persistent certificate that this (bound, start) pair fails; when an
    admissible band schedule exists within the search budget the attached
    steep witness demonstrates the failure concretely, with error ratio
    exactly 1/2 at its jump points.
    """

    probe: GapRatioVerdict
    witness: Optional[Witness]

    @property
    def verdict(self) -> str:
        return "in-M-consistent" if self.probe.consistent else "not-in-M"


def maximality_verdict(
    x: LaaksoPoint,
    bound,
    start_level: int,
    depth: int,
) -> MaximalityVerdict:
    """Probe x's height and, on violation, build the steep witness.

    The witness orientation follows the violating side: if the up gap
    dwarfs the down gap the jumps go down, and vice versa.  For wormhole
    centers (where the two-sided construction is unavailable) or when no
    admissible schedule exists within the search budget, the verdict still
    carries the violation certificate, just no witness.
    """
    xc = canonicalize(x)
    bound = parse_rational(bound)
    probe = gap_ratio_probe(xc.height, bound, start_level, depth)
    if probe.consistent:
        return MaximalityVerdict(probe, None)

    n = probe.violated_at
    up, down = nearest_wormhole_gap(xc.height, n)
    if up is None:
        side = Direction.DOWN
    elif down is None:
        side = Direction.UP
    else:
        side = Direction.DOWN if up > down else Direction.UP

    witness = None
    if wormhole_order(xc.height) is None:
        limit = max(2 * depth, n + 16)
        schedule = find_band_schedule(xc.height, side, start_level=start_level, max_level=limit)
        if schedule is None:
            other = Direction.UP if side is Direction.DOWN else Direction.DOWN
            schedule = find_band_schedule(xc.height, other, start_level=start_level, max_level=limit)
        if schedule is not None:
            witness = build_steep_nondifferentiable(xc, schedule)
    return MaximalityVerdict(probe, witness)

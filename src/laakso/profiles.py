"""Piecewise-linear profiles of the distance function along vertical lines.

Fix a base point p and a vertical line (a fixed Cantor address z).  The map
t -> d(p, [t, z]) is 1-Lipschitz with one-sided slopes exactly +1 or -1
away from finitely many "kink" heights where the slopes disagree.  Kinks
come in two shapes: V-shaped minima, where geodesics from p split at a
wormhole, and roof-shaped maxima, which are reached by both an upward and a
downward ending geodesic.  The union of kink heights over all lines
reachable from p is the height set where the distance to p fails to be
differentiable, and lines needing three or more jumps add no new heights
(their profiles coincide with two-jump profiles, see `parallel_reduction`).

Profiling is verification based.  Candidate breakpoints come from gap
arithmetic alone: the ends 0 and 1, h(p), and for each order n the line
requires the order-n wormhole heights h(p) + u_n and h(p) - d_n nearest
above and below h(p) (one call of the gap query `core._gaps` on the
line's scale) and their tie h(p) + u_n - d_n.  That is at most 3 per
required order and 3 more, so a profile costs the same at order 30 as at
order 3.

A line is worked on one integer scale (`_LineScale`), built from h(p)
and the orders the line requires, with one gap query per order: every
height, candidate and distance value of the line is an integer over one
denominator, den h(p) * 3**N for N the deepest required order.  Each
evaluation is one `metric._Pair.shortest` on that scale, and the returned
`KinkProfile` keeps the scale, the one holder of that denominator, and
the certified runs as integers over it: its `Piece` and `Kink`
`Fraction`s are views built only when a library caller reads them.  The
closed forms (`_closed_form`) read their kink heights off a scale's gaps,
as integers over the same denominator; `expected_kinks`,
`classify_two_level` and `census_records` are their `Fraction` views, and
`_profile_level_set` checks the profiles of a level set's lines against
its closed form.  No JSON is built here: the CLI writes its replies
straight from the runs and the scale's `den`.

The profile is evaluated once at each candidate, and each gap between
consecutive candidates is then certified linear: since the profile is
1-Lipschitz, |v(t1) - v(t0)| == t1 - t0 forces it to be a slope +-1 line
on all of [t0, t1].  The certificate, not the candidate set, is what makes
the profile exact: a gap that fails it means the gap arithmetic missed a
breakpoint, and raises `ProfileLinearityError`, never a silent wrong
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import (
    CantorAddress,
    InternalError,
    LaaksoPoint,
    _gaps,
    _orders,
    canonicalize,
    format_rational,
    parse_rational,
    wormhole_order,
)
from .metric import _Pair

__all__ = [
    "KinkProfile",
    "Piece",
    "Kink",
    "ProfileLinearityError",
    "TWO_LEVEL_BRANCHES",
    "census_level_sets",
    "census_records",
    "classify_two_level",
    "expected_kinks",
    "nondiff_height_census",
    "parallel_reduction",
    "profile_distance_on_line",
    "profile_to_svg",
    "vertical_lines",
    "VerticalLine",
]

class ProfileLinearityError(InternalError):
    """A gap between consecutive candidates is not linear; this signals a
    missed breakpoint candidate (an internal error, not bad input)."""


@dataclass(frozen=True)
class VerticalLine:
    """A vertical line in the space, named by its Cantor address.

    `levels` lists the jump orders that produce the line from the base
    point (empty for the point's own line).  When the base point is a
    wormhole, each level set yields two lines, one through each
    representative; `branch` is 0 for the canonical one.
    """

    base_address: CantorAddress
    label: str
    levels: Tuple[int, ...]
    branch: int = 0

    @property
    def bits(self) -> str:
        return self.base_address.bits


def _checked_levels(height: Fraction, levels: Sequence[int]) -> Tuple[Tuple[int, ...], Optional[int]]:
    """The jump orders as a tuple, and the wormhole order of `height` (None
    off every grid); raises ValueError unless the orders are strictly
    increasing, positive and different from that wormhole order."""
    levels = tuple(levels)
    if list(levels) != sorted(set(levels)):
        raise ValueError("levels must be strictly increasing")
    if any(n < 1 for n in levels):
        raise ValueError("levels must be positive")
    w = wormhole_order(height)
    if w is not None and w in levels:
        raise ValueError(f"level {w} is the base point's own wormhole order")
    return levels, w


def _label(levels: Tuple[int, ...]) -> str:
    """The line's name: v0, v<N> for one jump order, vD:<N>,<M>,... for more."""
    if not levels:
        return "v0"
    if len(levels) == 1:
        return f"v{levels[0]}"
    return "vD:" + ",".join(str(n) for n in levels)


def vertical_lines(p: LaaksoPoint, levels: Sequence[int]) -> List[VerticalLine]:
    """The lines reached from p by jumping once at each given order.

    Orders must be distinct, increasing, and different from the wormhole
    order of p's height (those jumps are free at p and do not change the
    line).  A wormhole base point produces two lines per level set.  A
    line's address is p's canonical mask XOR the jumps, padded with zero
    bits to the deepest order flipped.
    """
    pc = canonicalize(p)
    levels, w = _checked_levels(pc.height, levels)
    label = _label(levels)
    mask = pc.address.mask ^ sum(1 << (n - 1) for n in levels)  # one jump per (distinct) order
    depth = max(p.address.depth, levels[-1] if levels else 0)
    lines = [VerticalLine(CantorAddress._of(mask, depth), label, levels, 0)]
    if w is not None:
        other = CantorAddress._of(mask ^ 1 << (w - 1), max(depth, w))
        lines.append(VerticalLine(other, label, levels, 1))
    return lines


@dataclass(frozen=True)
class Piece:
    """A maximal linear run: v(t) = slope * t + offset on [lo, hi]."""

    lo: Fraction
    hi: Fraction
    slope: int
    offset: Fraction

    def value_at(self, t: Fraction) -> Fraction:
        return self.slope * t + self.offset


def _kind(left_slope: int, right_slope: int) -> str:
    """"min" for a V (-1 then +1), "max" for a roof (+1 then -1)."""
    return "min" if left_slope < right_slope else "max"


@dataclass(frozen=True)
class Kink:
    height: Fraction
    left_slope: int
    right_slope: int

    @property
    def kind(self) -> str:
        return _kind(self.left_slope, self.right_slope)


_KINDS = ("min", "max")  # closed-form kink i is a _KINDS[i % 2]: they alternate from a V

_Run = Tuple[int, int, int, int]  # (lo, v(lo), hi, slope), heights and values times den


@dataclass(frozen=True, eq=False)
class KinkProfile:
    """The certified profile of a line: its maximal linear runs, sorted
    and contiguous, as integers over `scale.den`; consecutive runs differ
    in slope, so every inner run start is a kink.  `scale` is the line's
    `_LineScale`.

    `pieces` and `kinks` are the runs' `Fraction` views, built the first
    time they are read.  Two profiles are equal when their lines, pieces
    and kinks are, whatever their scales.
    """

    line: VerticalLine
    runs: Tuple[_Run, ...]
    scale: "_LineScale"

    @cached_property
    def pieces(self) -> Tuple[Piece, ...]:
        den = self.scale.den
        return tuple(
            Piece(Fraction(lo, den), Fraction(hi, den), slope, Fraction(vlo - slope * lo, den))
            for lo, vlo, hi, slope in self.runs
        )

    @cached_property
    def kinks(self) -> Tuple[Kink, ...]:
        pieces = self.pieces
        return tuple(Kink(b.lo, a.slope, b.slope) for a, b in zip(pieces, pieces[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KinkProfile):
            return NotImplemented
        return (self.line, self.pieces, self.kinks) == (other.line, other.pieces, other.kinks)

    def __hash__(self) -> int:
        return hash((self.line, self.pieces, self.kinks))

    def value_at(self, t: Fraction) -> Fraction:
        for piece in self.pieces:
            if piece.lo <= t <= piece.hi:
                return piece.value_at(t)
        raise ValueError(f"{t} outside [0, 1]")

    def kink_heights(self) -> List[Fraction]:
        return [k.height for k in self.kinks]


def _assemble(line: VerticalLine, scale: "_LineScale") -> KinkProfile:
    """Evaluate the line's distance once at each candidate of its scale
    (heights times `scale.den`), certify every gap between consecutive
    candidates linear, and merge runs of one slope."""
    breaks = scale.candidates()
    values = [scale.value(t) for t in breaks]
    runs: List[_Run] = []
    for t0, v0, t1, v1 in zip(breaks, values, breaks[1:], values[1:]):
        if abs(v1 - v0) != t1 - t0:
            raise ProfileLinearityError("a gap between consecutive candidates of the line is not linear")
        slope = 1 if v1 > v0 else -1
        if runs and runs[-1][3] == slope:
            runs[-1] = runs[-1][:2] + (t1, slope)
        else:
            runs.append((t0, v0, t1, slope))
    return KinkProfile(line, tuple(runs), scale)


class _LineScale:
    """The distance from a point p to a vertical line, with every height on
    one integer scale, built from h(p) and the orders the line requires.

    `levels` are those orders, increasing: the set bits of p's mask XOR the
    line's, less p's own wormhole order w (`profile_distance_on_line`), so
    p need not be canonical (its representatives differ only in bit w).
    `den` is den h(p) * 3**N, N the deepest of them (the rule of
    `metric._Pair.on_scale`): it holds 0, 1, h(p) (`hp` on the scale),
    every candidate and the distance values there.  `gaps` holds hp's
    (up, down) gaps of each order, one `core._gaps` query per order.

    Why w is left out.  Every interval the search considers holds h(p),
    which is on w's grid, so w never constrains it, required or not; left
    in, it would only deepen the scale and spend candidates.

    Why the candidates suffice.  The distance depends on the required
    orders alone, so no other order (a jump order of a hand-built line)
    adds a breakpoint.  An interval holding wormholes x1, x2 of the two
    smallest constraining orders n1 < n2 reaches |x1 - x2| >= 3**-n2 past
    x1, and x1 +- 3**-n has order n for every n > n1, so the profile is
    that of at most two orders (the parallel reduction), whose closed-form
    kinks (`classify_two_level`) are all candidates.  No closed form lists
    a pairwise tie h(p) + a - b of gaps of two orders; that the closed
    forms are complete is checked (A3-A5, A14, A15), not proved here, and
    a missed breakpoint raises `ProfileLinearityError` in `_assemble`,
    never a wrong profile.
    """

    __slots__ = ("levels", "den", "hp", "gaps")

    def __init__(self, h: Fraction, levels: Sequence[int]):
        scale = 3 ** levels[-1] if levels else 1
        self.levels = levels
        self.den = h.denominator * scale
        self.hp = h.numerator * scale
        self.gaps = [_gaps(self.hp, self.den, n) for n in levels]

    def value(self, t: int) -> int:
        """d(p, [t / den, line]) times den, by one interval search.  t is
        not canonicalized: at an order-n wormhole height t the two
        representatives differ only in whether n is required, and t itself
        meets the order-n requirement, so `_Pair.search` returns the same
        intervals for either."""
        return _Pair(self.levels, self.hp, t, self.den).shortest()

    def candidates(self) -> List[int]:
        """The sorted candidate breakpoints: 0, 1 and h(p), and for each
        required order n the order-n wormhole heights nearest above and
        below h(p) and their tie, the single-jump closed form of order n."""
        breaks = {0, self.den, self.hp}
        for gaps in self.gaps:
            breaks.update(_single(self.hp, *gaps))
        return sorted(breaks)


def profile_distance_on_line(p: LaaksoPoint, line: VerticalLine) -> KinkProfile:
    """Exact profile of t -> d(p, [t, line.bits]) over [0, 1]."""
    mask = p.address.mask ^ line.base_address.mask
    w = wormhole_order(p.height)
    if w is not None:
        mask &= ~(1 << (w - 1))
    return _assemble(line, _LineScale(p.height, _orders(mask)))


# ---------------------------------------------------------------------------
# Closed-form kink lists.
# ---------------------------------------------------------------------------


class ImpossibleGapConfiguration(InternalError):
    """Raised for gap orderings that the grid geometry rules out; reaching
    one means the closed-form case analysis disagrees with the arithmetic."""


def _single(hp: int, up: Optional[int], down: Optional[int]) -> List[int]:
    """The single-jump kinks at hp from its gaps of one order, increasing:
    the wormhole below, the tie h + up - down of the two routes and the
    wormhole above, or the one wormhole of a one-sided grid."""
    if up is None:
        return [] if down is None else [hp - down]
    if down is None:
        return [hp + up]
    return [hp - down, hp + up - down, hp + up]


TWO_LEVEL_BRANCHES = (
    "nested",
    "straddle-up",
    "straddle-down",
    "deg-low-both",
    "deg-low-far",
    "deg-low-near",
    "deg-high-both",
    "deg-high-far",
    "deg-high-near",
)


def _closed_form(scale: _LineScale) -> Tuple[Optional[str], List[int]]:
    """The closed-form kinks of a line of the scale's orders (none, one, or
    two increasing ones), read off its gaps: the two-level branch label
    (None for fewer orders) and the kink heights as increasing integers
    over `scale.den`.  See `classify_two_level` for the branches."""
    levels, hp, den = scale.levels, scale.hp, scale.den
    if not levels:
        return None, [hp] if 0 < hp < den else []
    if len(levels) == 1:
        heights = _single(hp, *scale.gaps[0])
        if not heights:
            h = Fraction(hp, den)
            raise ImpossibleGapConfiguration(f"order {levels[0]} has no wormhole on either side of {h}")
        return None, heights

    (un, dn), (um, dm) = scale.gaps
    if dm is None and dn is not None:
        raise ImpossibleGapConfiguration("order-m grid reaches lower than order-n grid")
    if um is None and un is not None:
        raise ImpossibleGapConfiguration("order-m grid reaches higher than order-n grid")

    if dn is None and dm is None:
        if not (um < un):
            raise ImpossibleGapConfiguration("below the whole grid the finer gap is smaller")
        return "deg-low-both", [hp + un]
    if dn is None:
        if un > um:
            return "deg-low-far", [hp + un]
        heights = [hp - dm, hp, hp + un, hp + um - dm, hp + um]
        if heights != sorted(heights):
            raise ImpossibleGapConfiguration("five-kink list out of order")
        return "deg-low-near", heights
    if un is None and um is None:
        if not (dm < dn):
            raise ImpossibleGapConfiguration("above the whole grid the finer gap is smaller")
        return "deg-high-both", [hp - dn]
    if un is None:
        if dn > dm:
            return "deg-high-far", [hp - dn]
        heights = sorted([hp - dm, hp + um - dm, hp - dn, hp, hp + um])
        return "deg-high-near", heights

    # All four gaps finite.
    tie_n = un - dn
    tie_m = um - dm
    if dm < dn and um < un:
        return "nested", _single(hp, un, dn)
    if dm < dn and un < um:
        heights = [hp - dn, hp + tie_n, hp - dm, hp, hp + un, hp + tie_m, hp + um]
        if heights != sorted(heights):
            raise ImpossibleGapConfiguration("seven-kink list out of order")
        return "straddle-up", heights
    if dn < dm and um < un:
        heights = [hp - dm, hp + tie_m, hp - dn, hp, hp + um, hp + tie_n, hp + un]
        if heights != sorted(heights):
            raise ImpossibleGapConfiguration("seven-kink list out of order")
        return "straddle-down", heights
    raise ImpossibleGapConfiguration(
        "both order-m neighbours strictly outside the order-n window"
    )


def _matches_closed_form(profile: KinkProfile, heights: Sequence[int]) -> bool:
    """Whether the profile has exactly the closed-form kinks `heights`,
    integers over the profile's `scale.den`: kink i (where run i + 1
    starts) at heights[i], and of kind `_KINDS[i % 2]`."""
    runs = profile.runs
    return len(runs) == len(heights) + 1 and all(
        v == b[0] and _kind(a[3], b[3]) == _KINDS[i % 2]
        for i, (v, a, b) in enumerate(zip(heights, runs, runs[1:]))
    )


def _profile_level_set(
    p: LaaksoPoint, levels: Sequence[int]
) -> Tuple[Tuple[Optional[str], List[int]], List[Tuple[KinkProfile, bool]]]:
    """The level set's closed form (branch, heights) and, for each of
    its lines from p (`vertical_lines`), (profile, whether it has exactly
    those kinks).  Every line's orders are the levels (branch 1 adds only
    p's own wormhole order, which the scale drops), so their scales share
    one `den`, and one closed form, off the first profile's scale, serves
    them all.  `profile_distance_on_line`
    is called by its module name, so a wrapper bound there sees each line."""
    profiles = [profile_distance_on_line(p, line) for line in vertical_lines(p, levels)]
    branch, heights = _closed_form(profiles[0].scale)
    return (branch, heights), [(prof, _matches_closed_form(prof, heights)) for prof in profiles]


def _closed_heights(h: Fraction, levels: Sequence[int]) -> Tuple[Optional[str], List[Fraction]]:
    """`_closed_form` of the jump orders `levels` from height h in [0, 1],
    its heights as `Fraction`s."""
    if len(levels) == 2 and not 1 <= levels[0] < levels[1]:
        raise ValueError("need two orders with n < m")
    if levels and not 0 <= h <= 1:
        raise ValueError(f"gap queries need t in [0, 1], got {h}")
    scale = _LineScale(h, levels)
    branch, heights = _closed_form(scale)
    return branch, [Fraction(v, scale.den) for v in heights]


def classify_two_level(p1: Fraction, n: int, m: int) -> Tuple[str, List[Fraction]]:
    """Branch label and closed-form kink heights for a two-jump line.

    Writing un/dn and um/dm for the order n and order m gaps above/below
    p1 (n < m), the realizable configurations are:

    - "nested": both order-m neighbours lie strictly inside the order-n
      window; the profile matches the single-jump one (3 kinks).
    - "straddle-up" / "straddle-down": one order-m neighbour inside, one
      outside (7 kinks, the two tie heights on both sides plus p1 itself).
    - "deg-low-*": no order-n wormhole below p1 (1 or 5 kinks); mirrored
      "deg-high-*" when there is none above.

    p1 is a `Fraction` or an int; any other type is a TypeError.
    """
    if not (1 <= n < m):
        raise ValueError("need two orders with n < m")
    if isinstance(p1, str):
        raise TypeError("expected a Fraction or int height, got str")
    return _closed_heights(parse_rational(p1), (n, m))


def expected_kinks(p: LaaksoPoint, line: VerticalLine) -> List[Fraction]:
    """Closed-form kink heights for the line, from gap arithmetic alone.

    Covers the point's own line (one kink, at its height, or none when the
    height is the boundary 0 or 1) and one- and two-jump lines; longer
    level sets are rejected, since their profiles reduce to two-jump ones
    (`parallel_reduction`).
    """
    if len(line.levels) > 2:
        raise ValueError("closed forms cover at most two levels; use parallel_reduction")
    return _closed_heights(p.height, line.levels)[1]


def _reduction_lengths(
    h: Tuple[int, int], levels: Tuple[int, ...], t: Tuple[int, int]
) -> Tuple[int, int, int]:
    """(full, two, den): the distances from a point at height h to height t
    on the line of the jump orders `levels` and on the line of its first two
    orders, as integers over `den`, by one interval search each.  Both
    heights come as reduced (numerator, denominator) pairs, and `den` is the
    full line's least scale, lcm(den h, den t) * 3**N for N the deepest
    order, as `_Pair.on_scale` puts them.  The arguments are taken as valid
    (`parallel_reduction` checks them)."""
    full = _Pair.on_scale(levels, h, t)
    two = _Pair(levels[:2], full.hx, full.hy, full.den)
    return full.shortest(), two.shortest(), full.den


def parallel_reduction(
    p: LaaksoPoint, levels: Sequence[int], t: Fraction
) -> Tuple[Fraction, Fraction]:
    """Distance values at height t on the full line (all listed jump orders)
    and on the line of the first two orders only; the two are equal because
    deeper jumps can be threaded through any two-order geodesic for free.

    Both are read on the full line's least scale by `_reduction_lengths`,
    from the numerators and denominators of h(p) and t.  From p's canonical
    mask the line of `levels` differs exactly in those orders
    (canonicalizing [t, line] at a wormhole t would only drop an order t
    itself meets, see `_LineScale`), so the orders are the levels
    themselves."""
    levels = tuple(levels)
    if len(levels) < 3:
        raise ValueError("need at least three levels; two-level lines stand alone")
    t = parse_rational(t)
    if not (0 <= t <= 1):
        raise ValueError("t must lie in [0, 1]")
    levels, _ = _checked_levels(p.height, levels)
    full, two, den = _reduction_lengths(p.height.as_integer_ratio(), levels, t.as_integer_ratio())
    return Fraction(full, den), Fraction(two, den)


# ---------------------------------------------------------------------------
# Census of non-differentiability heights.
# ---------------------------------------------------------------------------

_MAX_CENSUS_LEVEL = 12


def census_level_sets(p: LaaksoPoint, max_level: int) -> List[Tuple[int, ...]]:
    """Every one- and two-order jump level set with orders up to max_level,
    skipping the wormhole order of p's height (a free jump at p)."""
    w = wormhole_order(p.height)
    usable = [n for n in range(1, max_level + 1) if n != w]
    return [(n,) for n in usable] + [(n, m) for i, n in enumerate(usable) for m in usable[i + 1 :]]


def census_records(p: LaaksoPoint, max_level: int) -> List[Tuple[Fraction, str, str]]:
    """(height, source line label, kink kind) over all lines with levels up
    to max_level.  Kinds alternate min, max, ... in each closed-form list,
    as the one profile check `_matches_closed_form` requires.  The own line
    contributes h(p) unless it is a boundary height, where it has no kink."""
    if not (1 <= max_level <= _MAX_CENSUS_LEVEL):
        raise ValueError(f"max_level must be in 1..{_MAX_CENSUS_LEVEL}")
    h = p.height
    records: List[Tuple[Fraction, str, str]] = []
    for levels in [()] + census_level_sets(p, max_level):
        label = _label(levels)
        for i, height in enumerate(_closed_heights(h, levels)[1]):
            records.append((height, label, _KINDS[i % 2]))
    records.sort(key=lambda r: (r[0], r[1]))
    return records


def nondiff_height_census(p: LaaksoPoint, max_level: int) -> List[Fraction]:
    """Sorted deduplicated heights at which the distance to p fails to be
    differentiable, over all lines reachable with jumps of order
    <= max_level."""
    return sorted({h for h, _, _ in census_records(p, max_level)})


# ---------------------------------------------------------------------------
# SVG rendering (string based; no plotting dependencies).
# ---------------------------------------------------------------------------


def profile_to_svg(profile: KinkProfile) -> str:
    """A plain 640 x 360 line plot of the profile with kink markers."""
    width, height, margin = 640, 360, 40.0
    xs = [profile.pieces[0].lo] + [p.hi for p in profile.pieces]
    vmax = max(profile.value_at(t) for t in xs)
    vmax = max(vmax, Fraction(1, 100))
    span_x = width - 2 * margin
    span_y = height - 2 * margin

    def sx(t: Fraction) -> float:
        return margin + float(t) * span_x

    def sy(v: Fraction) -> float:
        return height - margin - float(v / vmax) * span_y

    pts = " ".join(f"{sx(t):.6f},{sy(profile.value_at(t)):.6f}" for t in xs)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{pts}"/>',
    ]
    for k in profile.kinks:
        cx, cy = sx(k.height), sy(profile.value_at(k.height))
        parts.append(
            f'<circle cx="{cx:.6f}" cy="{cy:.6f}" r="3" fill="crimson">'
            f"<title>{format_rational(k.height)} ({k.kind})</title></circle>"
        )
    parts.append(
        f'<text x="{margin}" y="{margin - 10:.6f}" font-size="12" font-family="monospace">'
        f"d_p along {profile.line.label} bits={profile.line.bits or '-'}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

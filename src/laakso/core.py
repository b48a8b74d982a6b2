"""Exact primitives for computing in Laakso space.

Laakso space is the quotient F = (I x K) / ~ of the unit interval I = [0, 1]
times the middle-third Cantor set K.  A point of K is addressed by the branch
bits of the nested cells containing it, so a finite bit string a1 a2 ... am
names the Cantor point sum(2 * ai / 3**i); every point handled here has such
a finite address (implicit all-zero tail).

At each height of the form k / 3**n with 3 not dividing k and 0 < k < 3**n
(a "wormhole" height of order n), points whose addresses differ exactly in
bit n are glued together.  Crossing the gluing is a zero-length "jump" that
flips bit n.  Wormhole heights of different orders never coincide, so the
order of a triadic height is well defined.

This module provides the exact rational machinery underneath everything
else: wormhole grids, the one gap query (the distances from a height to
the closest wormholes of a given order above and below it, the quantity
both the porosity and the kink results rest on), canonical representatives
of glued points, and the gap-ratio probe that classifies heights by
whether their up/down gaps stay within a fixed ratio at all probed orders
("balanced" heights; these are exactly the heights at which a maximal
directional derivative forces differentiability).

All arithmetic is exact.  Heights and gaps are `fractions.Fraction` values;
a gap is None when no wormhole of the order lies on that side (near the
boundary of I, and always on the outer side of 0 and 1), which plays the
role of an infinite gap.  Every grid lookup goes through one integer
kernel, `_grid_index`: one `divmod` gives a height's nearest grid indices
at or below it and at or above it, with no flag and no special case at 0
or 1.  Heights and grid heights are integers on every caller's scale, so a
strict lookup is the same call one unit of the scale further out.  Every
gap query goes through `_gaps`, its integer form (a height and its gaps
times a denominator holding the order's grid), of which
`nearest_wormhole_gap` is the `Fraction` view.  Outside this module only
`metric` reads the kernel.

Addresses are worked on integers too: each carries its bits as one integer
mask, and `canonicalize` clears a bit of it, building a point only when a
bit is cleared.  Two points are the same exactly when their canonical
heights and masks agree, and a path between them must jump at every order
set in the XOR of their canonical masks (`_orders`).

Rationals are written by one "p/q" writer (`_format_ratio`); the JSON
documents that carry them, points included, are built by `cli` alone.

`InternalError` is the one exception type every layer raises when one of its
own invariants fails (a bug, never bad input or a failed check).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Tuple, Union

__all__ = [
    "CantorAddress",
    "Direction",
    "GapRatioVerdict",
    "HeightInterval",
    "InternalError",
    "LaaksoPoint",
    "WormholeLevel",
    "canonicalize",
    "enumerate_wormhole_heights",
    "format_rational",
    "gap_ratio_probe",
    "nearest_wormhole_gap",
    "parse_rational",
    "point",
    "point_key",
    "same_point",
    "wormhole_above",
    "wormhole_below",
    "wormhole_order",
]

RationalLike = Union[Fraction, int, str]


class InternalError(RuntimeError):
    """An invariant of the library failed: a bug, not bad input and not a
    failed check.  The CLI reports it with exit code 3."""


_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_BITS_RE = re.compile(r"[01]*")


def parse_rational(text: RationalLike) -> Fraction:
    """Parse an exact rational written as "p/q" or "p" (no decimals); a
    Fraction or int is taken as is, any other type (a float) is a TypeError."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise TypeError(f"expected a Fraction, int or str rational, got {type(text).__name__}")
    text = text.strip()
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not an exact p/q rational: {text!r}")
    num, den = match.groups()
    # int() raises the ValueError of the integer-string digit limit
    numerator, denominator = int(num), int(den or "1")
    if not denominator:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(numerator, denominator)


def format_rational(q: RationalLike) -> str:
    """Render a rational as "p/q", or plain "p" for integers; a float is a
    TypeError, as in `parse_rational`."""
    if not isinstance(q, Fraction):
        q = parse_rational(q)
    return _format_ratio(q.numerator, q.denominator)


def _format_ratio(v: int, den: int) -> str:
    """Render v / den (den > 0) as `format_rational` does, in lowest terms
    by one gcd, without building a Fraction: the one "p/q" writer of the
    package, for callers that hold heights as integers on a scale."""
    g = math.gcd(v, den)
    if g == den:
        return str(v // den)
    return f"{v // g}/{den // g}"


class Direction(str, Enum):
    """A vertical direction in the I coordinate."""

    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class CantorAddress:
    """A finite Cantor address: bit i selects the right sub-cell at depth i.

    The named point of K is sum(2 * bits[i] / 3**(i+1)), i.e. the left
    endpoint of the depth-len(bits) cell; trailing zero bits never change
    the point, only the declared depth.

    `bits` is the validated wire form.  `mask` is the same address as one
    integer, computed once, with address bit i at integer bit i - 1 (as in
    `oracle`); flips, comparisons and level scans work on it.  Addresses
    the library derives (flips) are built from a mask and a depth and skip
    the check of the parsed form.
    """

    bits: str = ""
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _BITS_RE.fullmatch(self.bits):
            raise ValueError(f"address bits must be a 0/1 string: {self.bits!r}")
        # Base 2 is linear in the length and outside the int-string digit limit.
        object.__setattr__(self, "mask", int(self.bits[::-1], 2) if self.bits else 0)

    @classmethod
    def _of(cls, mask: int, depth: int) -> "CantorAddress":
        """The depth-`depth` address of `mask` (which has no bit at or past
        `depth`), without re-checking it."""
        address = object.__new__(cls)
        object.__setattr__(address, "bits", _bits(mask, depth))
        object.__setattr__(address, "mask", mask)
        return address

    @property
    def depth(self) -> int:
        return len(self.bits)

    def flipped(self, n: int) -> "CantorAddress":
        """Flip bit n (padding first if needed); this is the level-n jump."""
        if n < 1:
            raise ValueError("bit positions are 1-indexed")
        return CantorAddress._of(self.mask ^ 1 << (n - 1), max(n, len(self.bits)))


def _bits(mask: int, depth: int) -> str:
    """The 0/1 string of depth `depth` whose bit i is bit i - 1 of `mask`."""
    return (format(mask, "b")[::-1] if mask else "").ljust(depth, "0")


# The positions 0..7 of the set bits of each byte value.
_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def _orders(mask: int) -> List[int]:
    """The increasing orders n whose bit n - 1 is set in `mask`; for the
    XOR of two canonical masks, the orders a path between them must jump.
    One pass over the mask's bytes, linear in its length."""
    out = []
    base = 1
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        for i in _BYTE_BITS[byte]:
            out.append(base + i)
        base += 8
    return out


@dataclass(frozen=True)
class LaaksoPoint:
    """A represented point of Laakso space: a height and a Cantor address.

    Structural equality compares the stored fields; use `same_point` (or
    compare `point_key`s) to test equality of the underlying glued points.
    """

    height: Fraction
    address: CantorAddress

    def __post_init__(self):
        if not isinstance(self.height, Fraction):
            object.__setattr__(self, "height", parse_rational(self.height))
        if not (0 <= self.height <= 1):
            raise ValueError(f"height {self.height} outside [0, 1]")
        if isinstance(self.address, str):
            object.__setattr__(self, "address", CantorAddress(self.address))


def point(height: RationalLike, bits: str = "") -> LaaksoPoint:
    """Convenience constructor from "p/q" text (or Fraction) and bit string."""
    return LaaksoPoint(parse_rational(height), CantorAddress(bits))


@dataclass(frozen=True)
class WormholeLevel:
    """A single wormhole: its order n and its height k / 3**n."""

    order: int
    height: Fraction

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("wormhole order must be a positive integer")
        if wormhole_order(self.height) != self.order:
            raise ValueError(f"{self.height} is not a wormhole height of order {self.order}")


@dataclass(frozen=True)
class HeightInterval:
    """A closed height interval [a, b] inside [0, 1]."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        if not isinstance(self.a, Fraction):
            object.__setattr__(self, "a", parse_rational(self.a))
        if not isinstance(self.b, Fraction):
            object.__setattr__(self, "b", parse_rational(self.b))
        if not (0 <= self.a <= self.b <= 1):
            raise ValueError(f"invalid height interval [{self.a}, {self.b}]")

    @property
    def length(self) -> Fraction:
        return self.b - self.a


# ---------------------------------------------------------------------------
# Wormhole grids.  Order-n wormhole heights are the k / 3**n with 0 < k < 3**n
# and 3 not dividing k; consecutive ones are 1/3**n or 2/3**n apart.
# ---------------------------------------------------------------------------


def _grid_index(top: int, num: int, step: int) -> Tuple[Optional[int], Optional[int]]:
    """(below, above): the indices k of the nearest wormhole heights k / top
    of order n, for top = 3**n, at or below t and at or above t, where
    t * top = num / step; None for a side that has none.

    A caller holding t = a / b passes num = a * top and step = b.  One that
    keeps its heights on an integer scale den, a multiple of top, passes the
    scaled height as num and step = den // top, and reads a grid height
    back as k * step on its scale; no product with top is then formed, so
    deep orders cost no long division of a doubled-length dividend.  Every
    caller's heights and grid heights are integers on its scale, so the
    strict lookups are these at num - 1 (the side below) and num + 1 (the
    side above).

    Integer arithmetic only, one `divmod`: q = floor(t * top) and its
    remainder decide the first grid index on each side, which is then
    clamped to the interior 1..top - 1 and stepped off multiples of 3
    (those are grid heights of lower orders).
    """
    if top < 3:
        raise ValueError("order must be a positive integer")
    q, r = divmod(num, step)
    below = q if q < top else top - 1
    if below % 3 == 0:
        below -= 1
    above = q + 1 if r else q
    if above < 1:
        above = 1
    elif above % 3 == 0:
        above += 1
    return below if below > 0 else None, above if above < top else None


def wormhole_above(n: int, t: Fraction, strict: bool = True) -> Optional[Fraction]:
    """The least order-n wormhole height > t (or >= t), None if none exists."""
    top = 3**n
    num = t.numerator * top
    k = _grid_index(top, num + 1 if strict else num, t.denominator)[1]
    return None if k is None else Fraction(k, top)


def wormhole_below(n: int, t: Fraction, strict: bool = True) -> Optional[Fraction]:
    """The greatest order-n wormhole height < t (or <= t), None if none exists."""
    top = 3**n
    num = t.numerator * top
    k = _grid_index(top, num - 1 if strict else num, t.denominator)[0]
    return None if k is None else Fraction(k, top)


def enumerate_wormhole_heights(n: int, window: HeightInterval) -> list:
    """All order-n wormhole heights in the window, in increasing order."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    out = []
    h = wormhole_above(n, window.a, strict=False)
    while h is not None and h <= window.b:
        out.append(h)
        h = wormhole_above(n, h, strict=True)
    return out


def wormhole_order(h: Fraction) -> Optional[int]:
    """The unique order n whose wormhole grid contains h, if any.

    A height belongs to the order-n grid exactly when its lowest-terms
    denominator is 3**n (n >= 1); grids of different orders are disjoint.
    """
    h = parse_rational(h)
    q = h.denominator
    if q % 3 or not 0 < h.numerator < q:
        return None
    # 3**n has bit length floor(n * log2(3)) + 1, and 15849626 / 10**7 exceeds
    # log2(3), so this estimate never exceeds the order of a power of 3 (below
    # order 10**7 it is short by at most one); exact integer steps finish.
    n = q.bit_length() * 10**7 // 15849626
    power = 3**n
    while power < q:
        power *= 3
        n += 1
    return n if power == q else None


def _gaps(num: int, den: int, n: int) -> Tuple[Optional[int], Optional[int]]:
    """(up, down): the distances from num / den in [0, 1] to the strictly
    nearest order-n wormhole heights above and below it, times den (a
    multiple of 3**n), None for a side with none; the one gap query.  Two
    lookups of `_grid_index`, the side below at num - 1 and the side above
    at num + 1, each grid height read back on den's scale."""
    top = 3**n
    step = den // top
    below = _grid_index(top, num - 1, step)[0]
    above = _grid_index(top, num + 1, step)[1]
    return (
        None if above is None else above * step - num,
        None if below is None else num - below * step,
    )


def nearest_wormhole_gap(t: Fraction, n: int) -> Tuple[Optional[Fraction], Optional[Fraction]]:
    """Exact (up, down) distances from t in [0, 1] to the strictly nearest
    order-n wormhole heights above and below it, None (an infinite gap) for
    a side that has none; at 0 and 1 that is always the outer side.

    The infimum defining a gap is over strictly positive offsets, so a
    height sitting on the grid still gets positive gaps to its neighbours.
    This is `_gaps` on the scale 3**n * den t, one `Fraction` per gap.
    """
    t = parse_rational(t)
    a, b = t.numerator, t.denominator
    if not (0 <= a <= b):
        raise ValueError(f"gap queries need t in [0, 1], got {t}")
    top = 3**n
    den = top * b
    up, down = _gaps(a * top, den, n)
    return None if up is None else Fraction(up, den), None if down is None else Fraction(down, den)


# ---------------------------------------------------------------------------
# Canonical representatives and point identity.
# ---------------------------------------------------------------------------


def canonicalize(p: LaaksoPoint) -> LaaksoPoint:
    """The canonical representative of p's gluing class.

    At a wormhole height of order n the two representatives differ exactly
    in address bit n; the canonical one has bit n = 0 (the smaller Cantor
    coordinate).  Elsewhere this is the identity: p itself is returned, and
    a point is built only when bit n is cleared, by an XOR of the address
    mask.  Idempotent, and the result is at distance zero from the input.
    """
    mask = p.address.mask
    if not mask:  # no bit to clear
        return p
    n = wormhole_order(p.height)
    if n is None or not mask >> (n - 1) & 1:
        return p
    return LaaksoPoint(p.height, CantorAddress._of(mask ^ 1 << (n - 1), p.address.depth))


def point_key(p: LaaksoPoint):
    """A hashable key identifying p's gluing class (canonical, trimmed)."""
    c = canonicalize(p)
    mask = c.address.mask
    return (c.height, _bits(mask, mask.bit_length()))


def same_point(x: LaaksoPoint, y: LaaksoPoint) -> bool:
    """Whether two represented points name the same element of the space."""
    return point_key(x) == point_key(y)


# ---------------------------------------------------------------------------
# Gap-ratio probe.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapRatioVerdict:
    """Outcome of a finite-depth gap-ratio probe.

    `violated_at` names the first order where the bound fails (a side with
    no wormhole counts as a failure), None if it held at every probed order.
    A violation is definitive: it stays violated at every larger probing
    depth.  `consistent` (no violation) is a semi-decision, which finite
    computation can never upgrade to a certificate for all orders.
    """

    violated_at: Optional[int]

    @property
    def consistent(self) -> bool:
        return self.violated_at is None


def gap_ratio_probe(t: Fraction, bound: Fraction, start_level: int, depth: int) -> GapRatioVerdict:
    """Check, exactly, that up/down gaps at t stay within `bound` of each
    other for every order from `start_level` through `depth`.

    Requires t in (0, 1), bound >= 1 and depth >= start_level.
    """
    t = parse_rational(t)
    bound = parse_rational(bound)
    if not (0 < t < 1):
        raise ValueError(f"probe needs t in (0, 1), got {t}")
    if bound < 1:
        raise ValueError("ratio bound must be at least 1")
    if start_level < 1 or depth < start_level:
        raise ValueError("need 1 <= start_level <= depth")
    for n in range(start_level, depth + 1):
        up, down = nearest_wormhole_gap(t, n)
        if up is None or down is None or up > bound * down or down > bound * up:
            return GapRatioVerdict(n)
    return GapRatioVerdict(None)

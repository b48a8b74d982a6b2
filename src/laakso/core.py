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
else: wormhole grids, the one gap query `nearest_wormhole_gap` (the
distances from a height to the closest wormholes of a given order above and
below it, the quantity both the porosity and the kink results rest on),
canonical representatives of glued points, and the gap-ratio probe that
classifies heights by whether their up/down gaps stay within a fixed ratio
at all probed orders ("balanced" heights; these are exactly the heights at
which a maximal directional derivative forces differentiability).

All arithmetic is exact.  Heights and gaps are `fractions.Fraction` values;
a gap is None when no wormhole of the order lies on that side (near the
boundary of I, and always on the outer side of 0 and 1), which plays the
role of an infinite gap.  Every grid lookup goes through one integer
kernel, `_grid_index`, which needs no special case at 0 or 1.

`InternalError` is the one exception type every layer raises when one of its
own invariants fails (a bug, never bad input or a failed check).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple, Union

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
    "point_from_json",
    "point_key",
    "point_to_json",
    "same_point",
    "wormhole_above",
    "wormhole_below",
    "wormhole_order",
]

RationalLike = Union[Fraction, int, str]


class InternalError(RuntimeError):
    """An invariant of the library failed: a bug, not bad input and not a
    failed check.  The CLI reports it with exit code 3."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_BITS_RE = re.compile(r"^[01]*$")


def parse_rational(text: RationalLike) -> Fraction:
    """Parse an exact rational written as "p/q" or "p" (no decimals)."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact p/q rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(q: Fraction) -> str:
    """Render a rational as "p/q", or plain "p" for integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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
    """

    bits: str = ""

    def __post_init__(self):
        if not _BITS_RE.match(self.bits):
            raise ValueError(f"address bits must be a 0/1 string: {self.bits!r}")

    @property
    def depth(self) -> int:
        return len(self.bits)

    def value(self) -> Fraction:
        """The Cantor point named by this address."""
        total = Fraction(0)
        for i, b in enumerate(self.bits, start=1):
            if b == "1":
                total += Fraction(2, 3**i)
        return total

    def bit(self, n: int) -> int:
        """Bit n (1-indexed); zero beyond the stored depth."""
        if n < 1:
            raise ValueError("bit positions are 1-indexed")
        if n > len(self.bits):
            return 0
        return int(self.bits[n - 1])

    def padded(self, depth: int) -> "CantorAddress":
        """Same point, depth extended with zero bits to at least `depth`."""
        if depth <= len(self.bits):
            return self
        return CantorAddress(self.bits + "0" * (depth - len(self.bits)))

    def flipped(self, n: int) -> "CantorAddress":
        """Flip bit n (padding first if needed); this is the level-n jump."""
        padded = self.padded(n)
        b = padded.bits
        new = b[: n - 1] + ("0" if b[n - 1] == "1" else "1") + b[n:]
        return CantorAddress(new)

    def trimmed(self) -> "CantorAddress":
        """Minimal-depth address of the same point (strip trailing zeros)."""
        return CantorAddress(self.bits.rstrip("0"))


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

    @property
    def bits(self) -> str:
        return self.address.bits


def point(height: RationalLike, bits: str = "") -> LaaksoPoint:
    """Convenience constructor from "p/q" text (or Fraction) and bit string."""
    return LaaksoPoint(parse_rational(height), CantorAddress(bits))


def point_to_json(p: LaaksoPoint) -> dict:
    """Wire format shared by every module and the CLI."""
    return {"h": format_rational(p.height), "bits": p.address.bits}


def point_from_json(obj: dict) -> LaaksoPoint:
    return point(obj["h"], obj.get("bits", ""))


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

    def contains(self, t: Fraction) -> bool:
        return self.a <= t <= self.b


# ---------------------------------------------------------------------------
# Wormhole grids.  Order-n wormhole heights are the k / 3**n with 0 < k < 3**n
# and 3 not dividing k; consecutive ones are 1/3**n or 2/3**n apart.
# ---------------------------------------------------------------------------


def _grid_index(n: int, num: int, den: int, up: bool, strict: bool) -> Optional[int]:
    """The index k of the nearest order-n wormhole height k / 3**n above
    t = num / den (`up`) or below it, strictly or not; None when that side
    has none.  The fraction need not be in lowest terms, so a caller that
    keeps several heights over one common denominator passes the numerators.

    Integer arithmetic only: q = floor(t * 3**n) and its remainder decide
    the first grid index on the requested side, which is then clamped to
    the interior 1..3**n - 1 and stepped off multiples of 3 (those are
    grid heights of lower orders).
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    top = 3**n
    q, r = divmod(num * top, den)
    if up:
        k = max(q + 1 if strict or r else q, 1)
        if k % 3 == 0:
            k += 1
        return k if k < top else None
    k = min(q - 1 if strict and not r else q, top - 1)
    if k % 3 == 0:
        k -= 1
    return k if k > 0 else None


def wormhole_above(n: int, t: Fraction, strict: bool = True) -> Optional[Fraction]:
    """The least order-n wormhole height > t (or >= t), None if none exists."""
    k = _grid_index(n, t.numerator, t.denominator, True, strict)
    return None if k is None else Fraction(k, 3**n)


def wormhole_below(n: int, t: Fraction, strict: bool = True) -> Optional[Fraction]:
    """The greatest order-n wormhole height < t (or <= t), None if none exists."""
    k = _grid_index(n, t.numerator, t.denominator, False, strict)
    return None if k is None else Fraction(k, 3**n)


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


def nearest_wormhole_gap(t: Fraction, n: int) -> Tuple[Optional[Fraction], Optional[Fraction]]:
    """Exact (up, down) distances from t in [0, 1] to the strictly nearest
    order-n wormhole heights above and below it, None (an infinite gap) for
    a side that has none; at 0 and 1 that is always the outer side.

    The infimum defining a gap is over strictly positive offsets, so a
    height sitting on the grid still gets positive gaps to its neighbours.
    With t = a / b and grid index k, a gap is built as one Fraction,
    |k * b - a * 3**n| / (3**n * b).
    """
    t = parse_rational(t)
    a, b = t.numerator, t.denominator
    if not (0 <= a <= b):
        raise ValueError(f"gap queries need t in [0, 1], got {t}")
    above = _grid_index(n, a, b, True, True)
    below = _grid_index(n, a, b, False, True)
    top = 3**n
    return (
        None if above is None else Fraction(above * b - a * top, top * b),
        None if below is None else Fraction(a * top - below * b, top * b),
    )


# ---------------------------------------------------------------------------
# Canonical representatives and point identity.
# ---------------------------------------------------------------------------


def canonicalize(p: LaaksoPoint) -> LaaksoPoint:
    """The canonical representative of p's gluing class.

    At a wormhole height of order n the two representatives differ exactly
    in address bit n; the canonical one has bit n = 0 (the smaller Cantor
    coordinate).  Elsewhere this is the identity.  Idempotent, and the
    result is at distance zero from the input.
    """
    n = wormhole_order(p.height)
    if n is None or n > p.address.depth or p.address.bit(n) == 0:
        return p
    return LaaksoPoint(p.height, p.address.flipped(n))


def point_key(p: LaaksoPoint):
    """A hashable key identifying p's gluing class (canonical, trimmed)."""
    c = canonicalize(p)
    return (c.height, c.address.trimmed().bits)


def same_point(x: LaaksoPoint, y: LaaksoPoint) -> bool:
    """Whether two represented points name the same element of the space."""
    return point_key(x) == point_key(y)


# ---------------------------------------------------------------------------
# Gap-ratio probe.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapRatioVerdict:
    """Outcome of a finite-depth gap-ratio probe.

    `consistent` is a semi-decision: the ratio bound held at every probed
    order, which finite computation can never upgrade to a certificate for
    all orders.  A violation, by contrast, is definitive: `violated_at`
    names the first order where the bound fails (a side with no wormhole
    counts as a failure), and it stays violated at every larger probing depth.
    """

    consistent: bool
    violated_at: Optional[int]
    start_level: int
    depth: int

    @property
    def verdict(self) -> str:
        return "consistent" if self.consistent else f"violated-at({self.violated_at})"


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
            return GapRatioVerdict(False, n, start_level, depth)
    return GapRatioVerdict(True, None, start_level, depth)

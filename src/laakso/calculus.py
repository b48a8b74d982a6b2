"""Difference quotients, vertical derivatives, and differentiability probes.

Functions on Laakso space are differentiated along the height coordinate
only, because geodesics are vertical runs joined by zero-length jumps.  At
a wormhole the vertical line through a point splits into two branches (one
per representative); the derivative exists there only when both branch
limits exist and agree, which is what the split verdict records.

Full differentiability at x asks the error of the best height-linear model
to vanish relative to the distance, over all nearby points rather than just
the vertical line.  No finite probe can certify that limit, so the probe
below reports an exact supremum over a caller-supplied witness pool: a
supremum bounded away from zero on shrinking pools refutes
differentiability, and the explicit witness constructions elsewhere in the
package achieve the exact value 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .core import (
    LaaksoPoint,
    canonicalize,
    parse_rational,
    point_key,
    same_point,
    wormhole_order,
)
from .metric import distance

__all__ = [
    "DerivativeReport",
    "PointFunction",
    "ProbeReport",
    "difference_quotient",
    "differentiability_probe",
    "directional_derivative",
    "triadic_schedule",
]


@dataclass(frozen=True)
class PointFunction:
    """A real-valued function on the space, evaluated through canonical
    representatives so gluing is respected by construction."""

    raw: Callable[[LaaksoPoint], Fraction]

    def __call__(self, p: LaaksoPoint) -> Fraction:
        return self.raw(canonicalize(p))

    @classmethod
    def height(cls) -> "PointFunction":
        return cls(lambda p: p.height)

    @classmethod
    def distance_to(cls, p: LaaksoPoint) -> "PointFunction":
        pc = canonicalize(p)
        return cls(lambda y: distance(y, pc))


def triadic_schedule(k0: int, k1: int) -> List[Fraction]:
    """Steps 1/3**k for k0 <= k <= k1, the scale ladder aligned with the
    wormhole hierarchy (triadic steps avoid straddling grids accidentally)."""
    if not (1 <= k0 <= k1):
        raise ValueError("need 1 <= k0 <= k1")
    return [Fraction(1, 3**k) for k in range(k0, k1 + 1)]


def difference_quotient(f: PointFunction, x: LaaksoPoint, t: Fraction) -> Fraction:
    """(f[x1 + t, x2] - f[x1, x2]) / t with the address held fixed.

    At a wormhole the caller selects the branch by passing the canonical
    (bit n = 0) or flipped representative; the base value is branch
    independent, the probed endpoint is not.
    """
    t = parse_rational(t)
    if t == 0:
        raise ValueError("step must be nonzero")
    if not (0 <= x.height + t <= 1):
        raise ValueError(f"step {t} leaves the unit interval from height {x.height}")
    moved = LaaksoPoint(x.height + t, x.address)
    return (f(moved) - f(x)) / t


@dataclass(frozen=True)
class DerivativeReport:
    """Outcome of probing the vertical derivative at a point.

    verdict is one of "exists" (all probed quotients within tol of one
    value), "split" (each wormhole branch settles, but on different
    values), or "divergent".  left/right limits are the branch estimates at
    a wormhole (left = smaller Cantor coordinate); away from a wormhole
    both carry the single estimate.
    """

    verdict: str
    value: Optional[Fraction]
    left_limit: Optional[Fraction]
    right_limit: Optional[Fraction]


def _branch_quotients(f, base: LaaksoPoint, steps: Sequence[Fraction]) -> List[Fraction]:
    out = []
    for s in steps:
        for t in (s, -s):
            if 0 <= base.height + t <= 1:
                out.append(difference_quotient(f, base, t))
    return out


def _settle(quotients: List[Fraction], tol: Fraction) -> Optional[Fraction]:
    """Midpoint of the quotient range if its spread fits inside 2*tol."""
    lo, hi = min(quotients), max(quotients)
    if hi - lo <= 2 * tol:
        return (hi + lo) / 2
    return None


def directional_derivative(
    f: PointFunction, x: LaaksoPoint, schedule: Sequence[Fraction], tol=Fraction(0)
) -> DerivativeReport:
    """Probe the vertical derivative of f at x over the given step schedule.

    The schedule lists positive steps, largest first; each is probed on both
    sides (one-sided at heights 0 and 1).  At a wormhole both branch lines
    are probed and must agree for an "exists" verdict.  tol = 0 demands
    exact agreement, the right default when f has rational closed form.
    """
    steps = [parse_rational(s) for s in schedule]
    if not steps or any(s <= 0 for s in steps):
        raise ValueError("schedule must list positive steps")
    if any(b > a for a, b in zip(steps, steps[1:])):
        raise ValueError("schedule must be non-increasing")
    tol = parse_rational(tol)
    xc = canonicalize(x)
    order = wormhole_order(xc.height)

    if order is None:
        qs = _branch_quotients(f, xc, steps)
        if not qs:
            raise ValueError("no probe step stays inside the unit interval")
        est = _settle(qs, tol)
        verdict = "exists" if est is not None else "divergent"
        return DerivativeReport(verdict, est, est, est)

    left = xc  # canonical representative, smaller Cantor coordinate
    right = LaaksoPoint(xc.height, xc.address.flipped(order))
    ql = _branch_quotients(f, left, steps)
    qr = _branch_quotients(f, right, steps)
    est_all = _settle(ql + qr, tol)
    est_l = _settle(ql, tol)
    est_r = _settle(qr, tol)
    if est_all is not None:
        return DerivativeReport("exists", est_all, est_l, est_r)
    if est_l is not None and est_r is not None:
        return DerivativeReport("split", None, est_l, est_r)
    return DerivativeReport("divergent", None, est_l, est_r)


@dataclass(frozen=True)
class ProbeReport:
    """Exact supremum of the linear-model error ratio over a witness pool."""

    sup_ratio: Fraction
    worst_witness: LaaksoPoint


def differentiability_probe(
    f: PointFunction, x: LaaksoPoint, candidate_d, pool: Iterable[LaaksoPoint]
) -> ProbeReport:
    """sup over the pool of |f(y) - f(x) - D*(h(y) - h(x))| / d(y, x).

    A pool sequence with shrinking radii whose supremum stays bounded away
    from zero refutes differentiability at x with derivative D.  Ties for
    the worst witness break toward the smaller (height, bits) key.
    """
    candidate_d = parse_rational(candidate_d)
    xc = canonicalize(x)
    fx = f(xc)
    best: Optional[Tuple[Fraction, tuple, LaaksoPoint]] = None
    for y in pool:
        if same_point(y, xc):
            continue
        ratio = abs(f(y) - fx - candidate_d * (y.height - xc.height)) / distance(y, xc)
        entry = (ratio, point_key(y), y)
        if best is None or ratio > best[0] or (ratio == best[0] and entry[1] < best[1]):
            best = entry
    if best is None:
        raise ValueError("witness pool is empty (or contains only x itself)")
    return ProbeReport(best[0], best[2])

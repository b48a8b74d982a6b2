"""Summary statistics and the parent-versus-change decision rule."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

LADDER = (50, 75, 90, 99, 99.9, 99.99)


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile, interpolating linearly between order statistics."""
    s = sorted(values)
    h = (len(s) - 1) * p / 100
    lo = int(h)
    if lo + 1 >= len(s):
        return s[-1]
    return s[lo] + (h - lo) * (s[lo + 1] - s[lo])


def tail(values: Sequence[float], p: float) -> Tuple[float, int]:
    """(p-th percentile, number of samples above it)."""
    value = percentile(values, p)
    return value, sum(v > value for v in values)


def highest_percentile(n: int, beyond: int = 10) -> float:
    """The highest LADDER percentile with at least `beyond` of n samples
    above it (0 when not even the median has)."""
    return max((p for p in LADDER if n * (100 - p) / 100 >= beyond), default=0)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Dict[str, object]:
    """Judge one (workload, metric) pairing of a change against its parent.

    `parent[i]` and `change[i]` form pair i (same seed).  In order:
    - "regression": the change's median is worse than the parent's by more
      than `bound` (a share of the parent's median);
    - "gain": at least 10 pairs, the change wins at least nine tenths of
      them (ties count for neither), and the medians differ, in the better
      direction, by more than the parent's interquartile distance;
    - "unresolved": the parent's spread exceeds `bound`, unless every
      change run is better than every parent run;
    - "within-bound" otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of parent and change runs")
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    worse_by = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
    dominates = all(_better(c, p, better) for c in change for p in parent)
    if worse_by > bound:
        label = "regression"
    elif len(parent) >= 10 and wins >= 0.9 * len(parent) and _better(cm, pm, better) and abs(cm - pm) > p3 - p1:
        label = "gain"
    elif (p3 - p1) / pm > bound and not dominates:
        label = "unresolved"
    else:
        label = "within-bound"
    return {
        "verdict": label,
        "parent_median": pm,
        "change_median": cm,
        "change_vs_parent": (cm - pm) / pm,
        "parent_spread": (p3 - p1) / pm,
        "wins": wins,
        "pairs": len(parent),
    }

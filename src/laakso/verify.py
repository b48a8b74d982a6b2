"""Shared verification harness behind the CLI `verify` command and the
acceptance test suite.

Each check function runs one family of exact cross-checks at the fixed
scale the acceptance checklist names and returns `Check` rows (name,
pass/fail, expected vs actual as exact strings).  A check takes only its
`seed`, plus the grid resolution `m` where its suite lists depths;
randomized pools are fully determined by the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import constructions as cons
from . import oracle
from .calculus import (
    difference_quotient,
    differentiability_probe,
    directional_derivative,
    triadic_schedule,
)
from .core import (
    CantorAddress,
    Direction,
    InternalError,
    LaaksoPoint,
    _orders,
    canonicalize,
    format_rational,
    point,
    same_point,
    wormhole_order,
)
from .metric import (
    _Pair,
    distance,
    geodesic_endings,
    minimal_height_intervals,
    synthesize_geodesic,
)
from .profiles import (
    TWO_LEVEL_BRANCHES,
    KinkProfile,
    _profile_level_set,
    _reduction_lengths,
    census_level_sets,
    nondiff_height_census,
)

__all__ = [
    "Check",
    "SUITES",
    "Suite",
    "check_census",
    "check_constructions",
    "check_geodesic_laws",
    "check_kinks",
    "check_oracle",
    "check_parallel",
    "check_porosity",
    "check_regularity",
    "run_suite",
]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    expected: str
    actual: str

    def csv_row(self) -> list:
        return [self.name, "pass" if self.passed else "FAIL", self.expected, self.actual]


def _random_ratio(rng: random.Random) -> Tuple[int, int]:
    """A height in (0, 1) with denominator at most 81 before reduction, as a
    reduced (numerator, denominator) pair."""
    den = rng.randint(2, 81)
    num = rng.randint(1, den - 1)
    g = math.gcd(num, den)
    return num // g, den // g


def _random_height(rng: random.Random) -> Fraction:
    return Fraction(*_random_ratio(rng))


def _random_point(rng: random.Random, max_depth: int = 4) -> LaaksoPoint:
    """A point at a random address of depth 0..max_depth, one
    `rng.choice("01")` per bit from the first, and a `_random_height`."""
    depth = rng.randint(0, max_depth)
    mask = 0
    for i in range(depth):
        if rng.choice("01") == "1":
            mask |= 1 << i
    return LaaksoPoint(_random_height(rng), CantorAddress._of(mask, depth))


# ---------------------------------------------------------------------------
# Oracle equivalence.
# ---------------------------------------------------------------------------


def _grid_formula(top: int, kx: int, ky: int, xor: int) -> int:
    """The interval-formula distance, times `top` = 3**m, between the points
    at heights kx / top and ky / top whose canonical masks differ by `xor`
    (bits below m), by one `_Pair` search on the graph's scale."""
    return _Pair(_orders(xor), kx, ky, top).shortest()


def _oracle_mismatches(
    m: int, pairs: Callable[[int], Iterable[Tuple[int, int]]]
) -> Tuple[int, int, int]:
    """Interval-formula distance against the level-`m` graph on the vertex
    pairs `pairs(vertex_count)` yields: (distance mismatches, pairs whose
    zero graph distance disagrees with canonical equality, pairs).  The
    graph side is one search per row, read through the address-XOR
    automorphism (`oracle.row_distances`), and one table read per pair.
    The formula side reads each vertex's (row, canonical mask) once.  On
    the graph's scale 3**m the formula is a function of the two rows and
    the XOR of the two masks alone (`_grid_formula`), so it runs once per
    distinct (row, row, XOR) and every pair with that input reads the
    length back.  Canonical equality is equality of the per-vertex data,
    checked per pair."""
    g = oracle.build_level_graph(m)
    rows, two_m, top = oracle.row_distances(g), 2**m, 3**m
    canon = [(v // two_m, canonicalize(g.vertex_point(v)).address.mask) for v in range(g.vertex_count)]
    lengths: Dict[Tuple[int, int, int], int] = {}
    mismatches = zero_mismatches = total = 0
    for i, j in pairs(g.vertex_count):
        (ki, ci), (kj, cj) = canon[i], canon[j]
        gd = rows[ki][j ^ (i % two_m)]
        key = (ki, kj, ci ^ cj)
        length = lengths.get(key)
        if length is None:
            length = lengths[key] = _grid_formula(top, *key)
        total += 1
        mismatches += length != gd
        zero_mismatches += (gd == 0) != (canon[i] == canon[j])
    return mismatches, zero_mismatches, total


def check_oracle(m: int = 2, seed: int = 1) -> List[Check]:
    """Interval-formula distance against graph shortest paths.

    All vertex pairs at the given resolution, plus 500 seeded random pairs
    one level deeper; also checks that zero graph distance coincides exactly
    with canonical equality on all pairs.
    """
    mismatches, zero_mismatches, total = _oracle_mismatches(
        m, lambda n: ((i, j) for i in range(n) for j in range(i + 1, n))
    )
    rng = random.Random(seed)
    random_mismatches, _, random_total = _oracle_mismatches(
        m + 1, lambda n: ((rng.randrange(n), rng.randrange(n)) for _ in range(500))
    )
    return [
        Check(f"oracle-all-pairs-m{m}", mismatches == 0, "0 mismatches", f"{mismatches}/{total}"),
        Check(
            f"oracle-zero-classes-m{m}",
            zero_mismatches == 0,
            "zero distance iff same point",
            f"{zero_mismatches} mismatches",
        ),
        Check(
            f"oracle-random-pairs-m{m + 1}",
            random_mismatches == 0,
            "0 mismatches",
            f"{random_mismatches}/{random_total}",
        ),
    ]


# ---------------------------------------------------------------------------
# Minimal-interval and geodesic laws.
# ---------------------------------------------------------------------------


def check_geodesic_laws(seed: int = 2) -> List[Check]:
    """Equal interval lengths, geodesic length == distance, and the
    low-order jump bound (a short geodesic crosses at most one low wormhole:
    whenever d < 1/3**(N-1), at most one jump has order <= N-1), on 1000
    seeded pairs."""
    rng = random.Random(seed)
    bad_lengths = 0
    bad_geodesics = 0
    bad_jump_bound = 0
    checked_paths = 0
    for _ in range(1000):
        x = _random_point(rng)
        y = _random_point(rng)
        ivs = minimal_height_intervals(x, y)
        if len({iv.length for iv in ivs}) != 1:
            bad_lengths += 1
        d = distance(x, y)
        for iv in ivs:
            path = synthesize_geodesic(x, y, iv)
            checked_paths += 1
            if path.length != d:
                bad_geodesics += 1
            orders = sorted(j.order for j in path.jumps)
            for n_idx in range(1, (max(orders) + 2) if orders else 1):
                if d < Fraction(1, 3 ** (n_idx - 1)):
                    if sum(1 for o in orders if o <= n_idx - 1) > 1:
                        bad_jump_bound += 1
                        break
    return [
        Check("intervals-equal-length", bad_lengths == 0, "0 unequal", f"{bad_lengths}/1000"),
        Check(
            "geodesic-length-equals-distance",
            bad_geodesics == 0,
            "0 mismatches",
            f"{bad_geodesics}/{checked_paths}",
        ),
        Check(
            "low-order-jump-bound",
            bad_jump_bound == 0,
            "<=1 low jump on short geodesics",
            f"{bad_jump_bound} violations",
        ),
    ]


# ---------------------------------------------------------------------------
# Kink classification.
# ---------------------------------------------------------------------------


def _random_profile_point(rng: random.Random, avoid_orders: Sequence[int]) -> LaaksoPoint:
    while True:
        p = _random_point(rng, max_depth=3)
        if wormhole_order(p.height) in avoid_orders:
            continue
        return p


# Engineered two-level centers hitting every realizable branch (N=1, M=2).
_BRANCH_POOL: Tuple[Tuple[str, Fraction], ...] = (
    ("nested", Fraction(1, 2)),
    ("straddle-up", Fraction(13, 20)),
    ("straddle-down", Fraction(7, 20)),
    ("deg-low-both", Fraction(1, 10)),
    ("deg-low-far", Fraction(1, 5)),
    ("deg-low-near", Fraction(1, 4)),
    ("deg-high-both", Fraction(35, 36)),
    ("deg-high-far", Fraction(4, 5)),
    ("deg-high-near", Fraction(3, 4)),
)


def _follow_up_slopes(profile: KinkProfile) -> List[bool]:
    """For each kink of the profile, whether the distance itself has the
    kink's one-sided unit slopes, (-1, +1) at a V and (+1, -1) at a roof.

    The kink k and its neighbours, the previous kink (or 0) and the next (or
    1), are the starts of the kink's two runs and the end of the second.
    The distance is read at the half-gap points on both sides, the
    midpoints of the two runs, one `_Pair.shortest` per run (a midpoint is
    shared by the kinks at both ends of its run) on the profile's own
    scale doubled, at 2 * hp over 2 * den, where those points are
    integers, and v(k) is read off the run start.  The distance is
    1-Lipschitz, so |d(k) - d(s)| == |k - s| makes it linear on [s, k] with
    that slope: the slopes are checked on the distance, not re-read from
    the runs the profile was assembled from."""
    runs, scale = profile.runs, profile.scale
    if len(runs) < 2:
        return []
    levels, hp2, den2 = scale.levels, 2 * scale.hp, 2 * scale.den
    mids = [_Pair(levels, hp2, lo + hi, den2).shortest() for lo, _, hi, _ in runs]
    out = []
    for (prev, _, _, left), (k, vk, nxt, right), dl, dr in zip(runs, runs[1:], mids, mids[1:]):
        side = 1 if left < right else -1  # the right slope a V or a roof must have
        out.append(dl - 2 * vk == side * (k - prev) and dr - 2 * vk == side * (nxt - k))
    return out


def check_kinks(seed: int = 3) -> List[Check]:
    """Profiles against closed-form kinks (heights and kinds, checked by
    `profiles._profile_level_set`) on the three line families, with
    per-branch coverage of the two-level case analysis, and double-geodesic
    follow-ups on every kink found: each kink's one-sided unit slopes are
    read off the distance (`_follow_up_slopes`, on the profile's own
    scale), and roof kinks admit both geodesic endings.

    Kinks and kinds are read off each profile's integer runs; no `Piece`
    or `Kink` view is built.  The families are 20 seeded points on their
    own lines, 50 seeded one-jump lines, and the branch pool plus 25 seeded
    two-jump lines."""
    rng = random.Random(seed)
    cases: List[Tuple[LaaksoPoint, Tuple[int, ...]]] = [
        (_random_profile_point(rng, ()), ()) for _ in range(20)
    ]
    for _ in range(50):
        n = rng.randint(1, 4)
        cases.append((_random_profile_point(rng, (n,)), (n,)))
    cases += [(LaaksoPoint(height, CantorAddress("0")), (1, 2)) for _, height in _BRANCH_POOL]
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(n + 1, 4)
        cases.append((_random_profile_point(rng, (n, m)), (n, m)))

    hits: Dict[str, int] = {b: 0 for b in TWO_LEVEL_BRANCHES}
    profiles, bad = [0, 0, 0], [0, 0, 0]  # per family, by jump count
    roof_total = v_total = follow_bad = 0
    for p, levels in cases:
        family = len(levels)
        (branch, _), profiled = _profile_level_set(p, levels)
        if branch is not None:
            hits[branch] += 1
        for profile, match in profiled:
            profiles[family] += 1
            bad[family] += not match
            runs, line = profile.runs, profile.line
            slopes = _follow_up_slopes(profile)
            for (_, _, _, left), (k, _, _, right), unit in zip(runs, runs[1:], slopes):
                if left < right:
                    v_total += 1
                    follow_bad += not unit
                    continue
                roof_total += 1
                q = canonicalize(LaaksoPoint(Fraction(k, profile.scale.den), line.base_address))
                if same_point(q, p):
                    follow_bad += 1
                    continue
                both_ways = geodesic_endings(p, q) == frozenset({Direction.UP, Direction.DOWN})
                follow_bad += not both_ways
                follow_bad += not unit
    missed = [b for b, c in hits.items() if c == 0]
    return [
        Check("v0-single-kink", bad[0] == 0, "1 kink at h(p), slopes (-1,+1)", f"{bad[0]} bad"),
        Check(
            "single-jump-kinks", bad[1] == 0, "profile == closed form", f"{bad[1]}/{profiles[1]} bad"
        ),
        Check(
            "two-level-kinks", bad[2] == 0, "profile == closed form", f"{bad[2]}/{profiles[2]} bad"
        ),
        Check(
            "two-level-branch-coverage",
            not missed,
            "all branches hit: " + ",".join(TWO_LEVEL_BRANCHES),
            "hits " + ",".join(f"{b}={c}" for b, c in sorted(hits.items())),
        ),
        Check(
            "double-geodesic-endings",
            follow_bad == 0,
            "roof kinks end both ways, V kinks unit slopes",
            f"{follow_bad} bad over {roof_total} roofs, {v_total} Vs",
        ),
    ]


# ---------------------------------------------------------------------------
# Parallel reduction.
# ---------------------------------------------------------------------------

# The wormhole order of each reduced denominator `_random_ratio` can draw
# that is a power of 3.
_DRAWN_ORDERS = {3: 1, 9: 2, 27: 3, 81: 4}


def _parallel_line(rng: random.Random) -> Tuple[Tuple[int, int], Tuple[int, ...], Tuple[int, int]]:
    """One line of `check_parallel` as (h, levels, t), heights as reduced
    integer pairs: h and t by `_random_ratio`, and three or four increasing
    orders from 1..6 less h's own wormhole order.  No address is drawn: the
    reduction reads heights only."""
    h = _random_ratio(rng)
    w = _DRAWN_ORDERS.get(h[1])
    pool = [n for n in range(1, 7) if n != w]
    return h, tuple(sorted(rng.sample(pool, rng.randint(3, 4)))), _random_ratio(rng)


def check_parallel(seed: int = 4) -> List[Check]:
    """Full-line against two-level values on 1000 seeded lines of three or
    four jump orders up to 6 (`_parallel_line`).  The drawn levels are valid
    by construction (increasing, and none is the wormhole order of h(p)),
    and the two values are compared as integer lengths on the full line's
    scale (`profiles._reduction_lengths`, the core of `parallel_reduction`),
    from the heights' integer parts: no point or `Fraction` is built."""
    rng = random.Random(seed)
    bad = 0
    for _ in range(1000):
        full, two, _ = _reduction_lengths(*_parallel_line(rng))
        if full != two:
            bad += 1
    return [Check("parallel-values", bad == 0, "full == two-level", f"{bad}/1000 bad")]


# ---------------------------------------------------------------------------
# Witness constructions.
# ---------------------------------------------------------------------------

# A height with doubly exponential one-sided ternary structure; the tail
# keeps it off every wormhole grid.  Its mirror image has the thin gaps
# above, which is what the two-sided steep construction probes by default.
ENGINEERED_UNBALANCED = cons.sparse_ternary_height(
    (2, 4, 8, 16, 32), tail=Fraction(1, 2 * 3**34)
)
ENGINEERED_MIRROR = 1 - ENGINEERED_UNBALANCED


def check_constructions(seed: Optional[int] = None) -> List[Check]:
    """The flat witness at orders 1..6 and the steep witness, at fixed
    centers.  Nothing is drawn at random: `seed` is taken, like every
    suite's, and unused."""
    out: List[Check] = []
    schedule_steps = triadic_schedule(2, 8)

    x = point("1/2", "0")
    flat = cons.build_flat_nondifferentiable(x, 1, 6, probe_offsets=schedule_steps)
    f = cons.as_point_function(flat.function)
    report = directional_derivative(f, x, schedule_steps)
    out.append(
        Check(
            "flat-derivative-zero",
            report.verdict == "exists" and report.value == 0,
            "exists(0)",
            f"{report.verdict}({report.value})",
        )
    )
    probe = differentiability_probe(f, x, 0, flat.jump_points)
    quot_ok = all(q == Fraction(1, 2) for q in flat.jump_quotients())
    out.append(
        Check(
            "flat-jump-quotients",
            quot_ok and probe.sup_ratio == Fraction(1, 2),
            "1/2 at every jump point",
            f"sup_ratio {format_rational(probe.sup_ratio)}",
        )
    )
    out.append(
        Check(
            "flat-lipschitz",
            flat.sampled_ratio <= 1,
            "pairwise ratio <= 1",
            format_rational(flat.sampled_ratio),
        )
    )

    center = point(ENGINEERED_MIRROR, "0")
    schedule = cons.find_band_schedule(center.height, Direction.UP, max_level=20)
    if schedule is None:
        raise InternalError("no band schedule at the engineered steep center")
    steep_probes = [Fraction(1, 3**k) for k in range(3, 12)]
    steep = cons.build_steep_nondifferentiable(center, schedule, probe_offsets=steep_probes)
    g = cons.as_point_function(steep.function)
    upper = [
        difference_quotient(g, center, t)
        for t in steep_probes + list(schedule.thin)
        if t <= schedule.thin[0]
    ]
    out.append(
        Check(
            "steep-upper-quotient-one",
            all(q == 1 for q in upper),
            "all +side quotients == 1",
            f"{sorted(set(map(format_rational, upper)))}",
        )
    )
    quot_ok = all(q == Fraction(1, 2) for q in steep.jump_quotients())
    out.append(Check("steep-jump-quotients", quot_ok, "1/2 at every jump point", str(quot_ok)))
    # The band slopes the witness realizes: band k runs between the k-th
    # wide gap height below the center and the next (the center last).
    edges = [center.height - q for q in schedule.wide] + [center.height]
    values = [steep.function.value_at(LaaksoPoint(h, center.address)) for h in edges]
    slopes = [(values[k] - values[k + 1]) / (edges[k] - edges[k + 1]) for k in range(len(edges) - 1)]
    out.append(
        Check(
            "steep-ramp-bounds",
            all(s <= schedule.ramp_bound(k) for k, s in enumerate(slopes)),
            "every band slope within its ramp bound",
            ",".join(map(format_rational, slopes))[:60] + "...",
        )
    )
    out.append(
        Check(
            "steep-lipschitz",
            steep.sampled_ratio <= 1,
            "pairwise ratio <= 1",
            format_rational(steep.sampled_ratio),
        )
    )
    return out


# ---------------------------------------------------------------------------
# Porosity.
# ---------------------------------------------------------------------------


def _porosity_cases(seed: int) -> List[Tuple[cons.PorosityWitness, Fraction]]:
    """The 20 seeded (witness, delta) pairs `check_porosity` certifies."""
    rng = random.Random(seed)
    out = []
    for _ in range(20):
        bound = Fraction(rng.randint(3, 12), rng.randint(1, 2))
        start = rng.randint(1, 3)
        t0 = _random_height(rng)
        delta = Fraction(1, rng.randint(5, 400))
        out.append((cons.porosity_witness(bound, start, t0, delta), delta))
    return out


def check_porosity(seed: int = 5) -> List[Check]:
    """Each seeded hole certified at 1000 evenly spaced heights, and placed
    deeper than its start level, finer than its delta and near its t0."""
    bad = 0
    for witness, delta in _porosity_cases(seed):
        try:
            witness.certify(*witness.samples(1000))
        except InternalError:
            raise
        except RuntimeError:
            bad += 1
        if not (witness.order > witness.start_level and Fraction(2, 3**witness.order) < delta):
            bad += 1
        if abs(witness.anchor - witness.t0) >= Fraction(2, 3**witness.order):
            bad += 1
    return [
        Check(
            "porosity-hole-certificates",
            bad == 0,
            "20 holes x 1000 samples certified",
            f"{bad} failures",
        )
    ]


# ---------------------------------------------------------------------------
# Ball-growth regularity.
# ---------------------------------------------------------------------------


def check_regularity(m: int = 6, seed: int = 6) -> List[Check]:
    """Ball-growth spread over 20 seeded grid centers and radii 1/9, 1/27
    and 1/81, and the total cell mass, on the level-`m` graph."""
    radii = [Fraction(1, 9), Fraction(1, 27), Fraction(1, 81)]
    report = oracle.regularity_scan(m, 20, radii, seed=seed)
    g = oracle.build_level_graph(m)
    total = oracle.total_cell_mass(g)
    return [
        Check(
            "regularity-spread",
            report.spread is not None and report.spread <= 100,
            "max/min ratio <= 100",
            f"{report.spread:.6g}",
        ),
        Check("total-cell-mass", total == 1, "1", format_rational(total)),
    ]


# ---------------------------------------------------------------------------
# Census.
# ---------------------------------------------------------------------------


def check_census(seed: int = 7) -> List[Check]:
    """The census up to order 4 is finite, each line's profile passes the
    closed-form check (`profiles._matches_closed_form`) with no kink off the
    census, every census height is a kink of some profiled line, and
    `distance` is linear between consecutive kinks and the ends 0 and 1 of
    every probed line; at 1/2:0 and two seeded points."""
    rng = random.Random(seed)
    pts = [point("1/2", "0")]
    for _ in range(2):
        pts.append(_random_profile_point(rng, ()))
    bad_confirm = 0
    bad_smooth = 0
    total_heights = 0
    for p in pts:
        pc = canonicalize(p)
        census = nondiff_height_census(pc, 4)
        total_heights += len(census)
        census_set = set(census)
        profiled = set()
        for levels in [()] + census_level_sets(pc, 4):
            for profile, match in _profile_level_set(pc, levels)[1]:
                kinks = set(profile.kink_heights())
                profiled |= kinks
                bad_confirm += not (kinks <= census_set and match)
                # d is 1-Lipschitz along the line, so |d(b) - d(a)| = b - a
                # makes it linear on all of [a, b]: no kink between kinks.
                heights = sorted(kinks | {Fraction(0), Fraction(1)})
                d = {t: distance(pc, LaaksoPoint(t, profile.line.base_address)) for t in heights}
                for a, b in zip(heights, heights[1:]):
                    if abs(d[b] - d[a]) != b - a:
                        bad_smooth += 1
        bad_confirm += len(census_set - profiled)
    return [
        Check(
            "census-confirmed-by-profiles",
            bad_confirm == 0,
            "every census height is a profiled kink on its line",
            f"{bad_confirm} bad over {total_heights} heights",
        ),
        Check(
            "non-census-heights-smooth",
            bad_smooth == 0,
            "matching one-sided slopes off the census",
            f"{bad_smooth} bad",
        ),
    ]


# ---------------------------------------------------------------------------
# Suite registry for the CLI.
# ---------------------------------------------------------------------------


class Suite(NamedTuple):
    """A `verify` suite: its check, which takes `seed` and, when `depths` is
    not empty, the grid resolution `m`."""

    check: Callable[..., List[Check]]
    depths: range = range(0)


# Regularity's smallest radius 1/81 needs m >= 5 (`regularity_scan` takes
# radii down to 1/3^(m-1)), and its top is the level graph's resolution cap
# (`oracle._MAX_RESOLUTION`).  The upper ends bound the work before it
# starts.  On a 2-vCPU Xeon host (CPython 3.11.7), in process: `oracle
# --depth 3` takes ~0.03 s (best of 5), one interval search for each of the
# 2466 distinct (row, row, XOR) inputs of its 25k pairs plus a few table
# reads per pair; `oracle --depth 4` (860k pairs, 41k distinct inputs)
# takes ~0.6 s (best of 3), most of it the per-pair reads, and m = 5
# (31M pairs) is refused; `regularity --depth 8` takes ~0.04 s (best of 5).
SUITES: Dict[str, Suite] = {
    "oracle": Suite(check_oracle, range(1, 5)),
    "kinks": Suite(check_kinks),
    "constructions": Suite(check_constructions),
    "porosity": Suite(check_porosity),
    "regularity": Suite(check_regularity, range(5, 9)),
    "parallel": Suite(check_parallel),
}


def run_suite(name: str, depth: Optional[int] = None, seed: Optional[int] = None) -> List[Check]:
    """Run suite `name`; a `depth` or `seed` given replaces the check's
    own default, one not given leaves it."""
    kwargs = {"m": depth, "seed": seed}
    return SUITES[name].check(**{k: v for k, v in kwargs.items() if v is not None})

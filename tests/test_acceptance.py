"""Acceptance checklist (A1..A15, see README) run at its pinned scales.

Each test prints one pass/fail line; exact tolerances throughout (the only
non-exact thresholds are the documented empirical ones: the ball-growth
spread bound and the suite runtime caps).
"""

import dataclasses
import inspect
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from laakso import oracle, verify
from laakso.constructions import maximality_verdict
from laakso.core import point, wormhole_order
from laakso.metric import distance
from laakso.profiles import (
    TWO_LEVEL_BRANCHES,
    classify_two_level,
    expected_kinks,
    profile_distance_on_line,
    vertical_lines,
)


def _report(tag, rows, extra=""):
    ok = all(r.passed for r in rows)
    detail = "; ".join(f"{r.name}={r.actual}" for r in rows)
    if extra:
        detail = f"{detail}; {extra}" if detail else extra
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail
    return rows


@pytest.fixture(scope="module")
def geodesic_rows():
    return verify.check_geodesic_laws(seed=2)


@pytest.fixture(scope="module")
def kink_rows():
    return verify.check_kinks(seed=3)


@pytest.fixture(scope="module")
def construction_rows():
    return verify.check_constructions()


def _named(rows, *names):
    picked = [r for r in rows if r.name in names]
    assert len(picked) == len(names), f"missing rows among {names}"
    return picked


def test_suite_checks_take_only_seed_and_depth():
    # Every scale of a suite is fixed in its check; only the seed, and the
    # grid resolution where the suite lists depths, can be set.
    for name, suite in verify.SUITES.items():
        params = tuple(inspect.signature(suite.check).parameters)
        assert params == (("m", "seed") if suite.depths else ("seed",)), name


def test_a01_oracle_equivalence():
    """Every vertex pair of the level-3 graph and 500 seeded pairs at
    level 4."""
    start = time.monotonic()
    rows = verify.check_oracle(m=3, seed=1)
    elapsed = time.monotonic() - start
    _report("A01 oracle equivalence", rows, extra=f"{elapsed:.1f}s")
    (every,) = _named(rows, "oracle-all-pairs-m3")
    assert every.actual == "0/24976"
    (deeper,) = _named(rows, "oracle-random-pairs-m4")
    assert deeper.actual.endswith("/500")
    assert elapsed < 60


@pytest.mark.parametrize("m, seed", [(7, 71), (8, 81)], ids=["m7", "m8"])
def test_a01_oracle_random_pairs(m, seed):
    """Seeded random vertex pairs at the deepest resolution the suite uses
    for balls (m = 7) and at the oracle's deepest (m = 8, 1.68M vertices),
    each answered by an early-exit search."""
    g = oracle.build_level_graph(m)
    rng = random.Random(seed)
    start = time.monotonic()
    bad = 0
    for _ in range(10):
        x = g.vertex_point(rng.randrange(g.vertex_count))
        y = g.vertex_point(rng.randrange(g.vertex_count))
        if oracle.graph_distance(g, x, y) != distance(x, y):
            bad += 1
    elapsed = time.monotonic() - start
    row = verify.Check(f"oracle-random-pairs-m{m}", bad == 0, "0 mismatches", f"{bad}/10")
    _report(f"A01 oracle random pairs m{m}", [row], extra=f"{elapsed:.1f}s")
    assert elapsed < 60


def test_a02_minimal_interval_law(geodesic_rows):
    rows = _named(geodesic_rows, "intervals-equal-length", "geodesic-length-equals-distance")
    _report("A02 minimal-interval law", rows)
    assert _named(rows, "intervals-equal-length")[0].actual.endswith("/1000")


def test_a03_own_line_classification(kink_rows):
    _report("A03 own-line single kink", _named(kink_rows, "v0-single-kink"))


def test_a04_single_jump_classification(kink_rows):
    _report("A04 single-jump kinks", _named(kink_rows, "single-jump-kinks"))


def test_a05_two_jump_classification(kink_rows):
    rows = _named(kink_rows, "two-level-kinks", "two-level-branch-coverage")
    _report("A05 two-jump kinks and branch coverage", rows)


def test_branch_pool_labels_match_classification():
    # Branch coverage counts the seeded cases too, so a pool height that
    # drifted into another branch could pass unnoticed; each label must be
    # the branch its height hits, and the pool must name every branch once.
    for label, height in verify._BRANCH_POOL:
        assert classify_two_level(height, 1, 2)[0] == label, (label, height)
    assert tuple(label for label, _ in verify._BRANCH_POOL) == TWO_LEVEL_BRANCHES


def test_own_line_roof_kink_fails_v0_row(monkeypatch):
    # The own-line rule is exact: a kink at h(p) that is a roof, not a V,
    # must fail the row even though its height matches.
    def roofed(p, line):
        profile = profile_distance_on_line(p, line)
        if line.levels:
            return profile
        # Plant the roofs in the certified runs, which every check reads:
        # negated slopes keep every kink's height and swap its kind.
        return dataclasses.replace(profile, runs=tuple(run[:3] + (-run[3],) for run in profile.runs))

    monkeypatch.setattr("laakso.profiles.profile_distance_on_line", roofed)
    rows = {r.name: r for r in verify.check_kinks(seed=3)}
    assert not rows["v0-single-kink"].passed
    assert rows["single-jump-kinks"].passed and rows["two-level-kinks"].passed


def test_a06_parallel_values():
    rows = verify.check_parallel(seed=4)
    _report("A06 parallel values", rows)
    assert rows[0].actual.endswith("/1000 bad")


def test_a07_double_geodesics(kink_rows):
    _report("A07 double-geodesic kinks", _named(kink_rows, "double-geodesic-endings"))


def test_a08_flat_witness(construction_rows):
    rows = _named(
        construction_rows, "flat-derivative-zero", "flat-jump-quotients", "flat-lipschitz"
    )
    _report("A08 flat witness", rows)


def test_a09_steep_witness(construction_rows):
    rows = _named(
        construction_rows,
        "steep-upper-quotient-one",
        "steep-jump-quotients",
        "steep-ramp-bounds",
        "steep-lipschitz",
    )
    _report("A09 steep witness", rows)


def test_a10_porosity_holes():
    start = time.monotonic()
    rows = verify.run_suite("porosity")
    elapsed = time.monotonic() - start
    assert [r.expected for r in rows] == ["20 holes x 1000 samples certified"]
    _report("A10 porosity hole certificates", rows, extra=f"{elapsed:.2f}s")
    assert elapsed < 1


def test_a10_holes_classify_not_in_m():
    """The two halves of the headline agree: every sampled hole height fails
    the balanced-gap condition no later than the hole's order, and every
    steep witness built there has error quotient exactly 1/2."""
    heights = witnesses = 0
    for hole, _ in verify._porosity_cases(seed=5):  # A10's cases
        nums, den = hole.samples(5)
        for s in (Fraction(num, den) for num in nums):
            v = maximality_verdict(point(s, "0"), hole.bound, hole.start_level, hole.order)
            assert v.verdict == "not-in-M" and v.probe.violated_at <= hole.order, (hole, s)
            heights += 1
            if v.witness is not None:
                witnesses += 1
                assert set(v.witness.jump_quotients()) == {Fraction(1, 2)}, (hole, s)
    print(f"[A10 maximality] PASS: {heights} heights not-in-M, {witnesses} witnesses")
    assert heights == 100 and witnesses > 0


def test_a11_ball_growth_regularity():
    rows = verify.check_regularity(m=6, seed=6)
    _report("A11 ball-growth regularity", rows)


def test_a11_ball_growth_regularity_m7():
    start = time.monotonic()
    rows = verify.check_regularity(m=7, seed=6)
    elapsed = time.monotonic() - start
    _report("A11 ball-growth regularity m7", rows, extra=f"{elapsed:.1f}s")
    assert elapsed < 60


def test_a12_low_order_jump_bound(geodesic_rows):
    _report("A12 low-order jump bound", _named(geodesic_rows, "low-order-jump-bound"))


def test_a13_height_census():
    rows = verify.check_census(seed=7)
    _report("A13 height census", rows)


def _deep_order_points(rng, count):
    """Seeded base points, every other one on a wormhole grid of order <= 6."""
    pts = []
    for i in range(count):
        if i % 2:
            n = rng.randint(1, 6)
            k = rng.choice([k for k in range(1, 3**n) if k % 3])
            h = Fraction(k, 3**n)
        else:
            den = rng.randint(2, 500)
            h = Fraction(rng.randint(1, den - 1), den)
        bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
        pts.append(point(h, bits))
    return pts


def test_a14_deep_order_kinks():
    """Profiles at jump orders up to 12, and one order-30 line, equal the
    closed-form kink lists; the cost of a profile does not grow with order."""
    rng = random.Random(14)
    start = time.monotonic()
    profiles = bad = 0
    for p in _deep_order_points(rng, 8):
        w = wormhole_order(p.height)
        usable = [o for o in range(1, 13) if o != w]
        level_sets = [(o,) for o in usable]
        level_sets += [(rng.choice([n for n in usable if n < o]), o) for o in usable[1:]]
        level_sets.append((usable[0], 30))
        for levels in level_sets:
            for line in vertical_lines(p, levels):
                profiles += 1
                if profile_distance_on_line(p, line).kink_heights() != expected_kinks(p, line):
                    bad += 1
    elapsed = time.monotonic() - start
    row = verify.Check(
        "deep-order-kinks",
        bad == 0,
        "profiled kinks equal the closed form",
        f"{bad} bad over {profiles} profiles",
    )
    _report("A14 deep-order kinks", [row], extra=f"{elapsed:.1f}s")
    assert elapsed < 5


def _graph_line_cases(g, max_jumps, count=None, seed=0):
    """(vertex, base point, line) for base points at vertices of the level
    graph `g` and lines of up to `max_jumps` jump orders <= g.m, both
    branches: every vertex with every level set and branch, or `count`
    seeded draws of one each.  Every such line is a column of the graph."""
    def usable(p):
        return [n for n in range(1, g.m + 1) if n != wormhole_order(p.height)]

    if count is None:
        for v in range(g.vertex_count):
            p = g.vertex_point(v)
            for k in range(max_jumps + 1):
                for levels in combinations(usable(p), k):
                    yield from ((v, p, line) for line in vertical_lines(p, levels))
        return
    rng = random.Random(seed)
    for _ in range(count):
        v = rng.randrange(g.vertex_count)
        p = g.vertex_point(v)
        levels = sorted(rng.sample(usable(p), rng.randint(0, max_jumps)))
        yield v, p, rng.choice(vertical_lines(p, levels))


def _profile_disagrees_with_graph(profile, column):
    """Whether the profile disagrees with `column`, the graph distances to
    its line at the heights j / top, j = 0..top, in units of 1 / top.

    Every piece is read on that scale, walked in order with the column.
    Where the graph steps by +-1 on both sides of j, j / top is a kink
    exactly when the steps differ, with them as its slopes; a cell where
    the graph steps by 0 must hold a kink strictly inside it."""
    top = len(column) - 1
    values = [None] * (top + 1)
    for piece in profile.pieces:
        offset, den = (piece.offset * top).as_integer_ratio()
        for j in range(math.ceil(piece.lo * top), math.floor(piece.hi * top) + 1):
            values[j] = piece.slope * j + offset if den == 1 else Fraction(offset, den)
    if values != column:
        return True
    at_grid, inside = {}, set()
    for kink in profile.kinks:
        j, r = divmod(kink.height.numerator * top, kink.height.denominator)
        if r:
            inside.add(j)
        else:
            at_grid[j] = (kink.left_slope, kink.right_slope)
    steps = [b - a for a, b in zip(column, column[1:])]
    for j, (left, right) in enumerate(zip(steps, steps[1:]), 1):
        if left and right and at_grid.get(j) != ((left, right) if left != right else None):
            return True
    return any(not step and j not in inside for j, step in enumerate(steps))


def test_a15_graph_side_profiles():
    """Profiles against the level graph, which shares no code with the
    interval formula, the gap kernel or `profiles`: every vertex of the
    level-3 graph with every line of at most two jumps (both branches), and
    200 seeded vertex and line cases of up to three jumps at level 4."""
    start = time.monotonic()
    rows = []
    for m, cases in ((3, dict(max_jumps=2)), (4, dict(max_jumps=3, count=200, seed=15))):
        g = oracle.build_level_graph(m)
        table = oracle.row_distances(g)
        top, width = 3**m, 2**m
        profiles = bad = 0
        for v, p, line in _graph_line_cases(g, **cases):
            k, a = divmod(v, width)
            dist, z = table[k], line.base_address.mask ^ a
            column = [dist[j * width + z] for j in range(top + 1)]
            profiles += 1
            bad += _profile_disagrees_with_graph(profile_distance_on_line(p, line), column)
        rows.append(verify.Check(f"graph-profiles-m{m}", bad == 0, "0 mismatches", f"{bad}/{profiles}"))
    elapsed = time.monotonic() - start
    _report("A15 graph-side profiles", rows, extra=f"{elapsed:.2f}s")
    assert rows[1].actual.endswith("/200")
    assert elapsed < 10

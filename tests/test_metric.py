import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laakso.core import (
    CantorAddress,
    Direction,
    HeightInterval,
    LaaksoPoint,
    WormholeLevel,
    canonicalize,
    point,
    same_point,
    wormhole_above,
    wormhole_below,
    wormhole_order,
)
from laakso.metric import (
    GeodesicPath,
    Segment,
    distance,
    geodesic_endings,
    minimal_height_intervals,
    required_levels,
    synthesize_geodesic,
)


def _pool(n, seed, max_depth=4):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        den = rng.randint(2, 81)
        h = F(rng.randint(0, den), den)
        bits = "".join(rng.choice("01") for _ in range(rng.randint(0, max_depth)))
        out.append(LaaksoPoint(min(h, F(1)), CantorAddress(bits)))
    return out


def test_required_levels_examples():
    assert required_levels(point("1/2", "0"), point("1/2", "1")) == {1}
    assert required_levels(point("1/4", "00"), point("1/4", "11")) == {1, 2}
    assert required_levels(point("1/2", "10"), point("1/2", "1")) == frozenset()
    # canonicalization at a wormhole height removes the glued bit
    assert required_levels(point("1/3", "1"), point("1/2", "0")) == frozenset()


def test_minimal_intervals_examples():
    ivs = minimal_height_intervals(point("1/2", "0"), point("1/2", "1"))
    assert ivs == [HeightInterval(F(1, 3), F(1, 2)), HeightInterval(F(1, 2), F(2, 3))]
    ivs = minimal_height_intervals(point("1/2", "0"), point("2/3", "1"))
    assert ivs == [HeightInterval(F(1, 2), F(2, 3))]
    p = point("2/5", "01")
    assert minimal_height_intervals(p, p) == [HeightInterval(F(2, 5), F(2, 5))]


def test_distance_examples():
    assert distance(point("1/2", "0"), point("1/2", "1")) == F(1, 3)
    assert distance(point("1/2", "0"), point("2/3", "1")) == F(1, 6)
    p = point("4/9", "01")
    assert distance(p, p) == 0
    assert distance(point("4/9", "00"), point("4/9", "11")) == F(2, 9)


def test_distance_symmetry_zero_and_height_bound():
    pool = _pool(80, 21)
    for x, y in combinations(pool, 2):
        d = distance(x, y)
        assert d == distance(y, x)
        assert (d == 0) == same_point(x, y)
        assert d >= abs(x.height - y.height)
        # equality iff every required order is met inside the height span
        lo, hi = min(x.height, y.height), max(x.height, y.height)
        iv = minimal_height_intervals(x, y)[0]
        assert (d == abs(x.height - y.height)) == (iv == HeightInterval(lo, hi))


def test_triangle_inequality_pool_200():
    pool = _pool(200, 22)
    n = len(pool)
    mat = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = distance(pool[i], pool[j])
    # integer-scaled exact comparison keeps the all-triples loop fast
    scale = math.lcm(*{mat[i][j].denominator for i in range(n) for j in range(i + 1, n)})
    im = [[int(mat[i][j] * scale) for j in range(n)] for i in range(n)]
    for i, j, k in combinations(range(n), 3):
        dij, djk, dik = im[i][j], im[j][k], im[i][k]
        assert dik <= dij + djk
        assert dij <= dik + djk
        assert djk <= dij + dik


def test_interval_lengths_all_equal():
    pool = _pool(120, 23)
    rng = random.Random(24)
    for _ in range(300):
        x, y = rng.choice(pool), rng.choice(pool)
        ivs = minimal_height_intervals(x, y)
        assert len({iv.length for iv in ivs}) == 1
        for iv in ivs:
            assert iv.contains(x.height) and iv.contains(y.height)


def test_synthesize_geodesic_examples():
    x, y = point("1/2", "0"), point("1/2", "1")
    up = synthesize_geodesic(x, y, HeightInterval(F(1, 2), F(2, 3)))
    assert up.length == F(1, 3)
    assert [j.order for j in up.jumps] == [1]
    assert up.jumps[0].height == F(2, 3)
    assert up.ending_direction == Direction.DOWN
    down = synthesize_geodesic(x, y, HeightInterval(F(1, 3), F(1, 2)))
    assert down.length == F(1, 3)
    assert down.jumps[0].height == F(1, 3)
    assert down.ending_direction == Direction.UP
    assert synthesize_geodesic(x, x, HeightInterval(F(1, 2), F(1, 2))).events == ()
    with pytest.raises(ValueError):
        synthesize_geodesic(x, y, HeightInterval(F(0), F(1)))
    with pytest.raises(ValueError):  # an end off the pair's common scale
        synthesize_geodesic(x, y, HeightInterval(F(1, 5), F(2, 3)))


def test_geodesic_structure_random():
    rng = random.Random(25)
    pool = _pool(60, 26)
    for _ in range(200):
        x, y = rng.choice(pool), rng.choice(pool)
        d = distance(x, y)
        for iv in minimal_height_intervals(x, y):
            path = synthesize_geodesic(x, y, iv)
            assert path.length == d
            # segments chain continuously and jumps sit on their grids
            pos = None
            for e in path.events:
                if hasattr(e, "start"):
                    if pos is not None:
                        assert e.start == pos
                    assert (e.direction is Direction.UP) == (e.end > e.start)
                    pos = e.end
                else:
                    assert e.height * 3**e.order % 1 == 0
            # at most two direction changes (down, up, down shape)
            dirs = [s.direction for s in path.segments]
            changes = sum(1 for a, b in zip(dirs, dirs[1:]) if a != b)
            assert changes <= 2
            # each required order jumped exactly once
            orders = sorted(j.order for j in path.jumps)
            assert orders == sorted(required_levels(x, y))


def test_geodesic_endings_examples():
    both = geodesic_endings(point("1/2", "0"), point("1/2", "1"))
    assert both == frozenset({Direction.UP, Direction.DOWN})
    assert geodesic_endings(point("1/2", "0"), point("2/3", "1")) == frozenset({Direction.UP})
    assert geodesic_endings(point("1/2", "0"), point("1/3", "1")) == frozenset({Direction.DOWN})
    with pytest.raises(ValueError):
        geodesic_endings(point("1/2", "0"), point("1/2", "00"))


def test_noncanonical_inputs_are_tolerated():
    # ops canonicalize internally, so glued representatives agree
    a = point("1/3", "1")
    b = point("1/3", "0")
    c = point("2/3", "11")
    assert distance(a, c) == distance(b, c)
    assert minimal_height_intervals(a, c) == minimal_height_intervals(b, c)


# ---------------------------------------------------------------------------
# Reference implementation: the Fraction-based kernel the integer one
# replaced, kept as a differential oracle.
# ---------------------------------------------------------------------------


def _reference_levels(x, y):
    xb, yb = canonicalize(x).address, canonicalize(y).address
    depth = max(xb.depth, yb.depth)
    xs, ys = xb.padded(depth).bits, yb.padded(depth).bits
    return frozenset(i + 1 for i in range(depth) if xs[i] != ys[i])


def _reference_intervals(x, y):
    xc, yc = canonicalize(x), canonicalize(y)
    lo, hi = min(xc.height, yc.height), max(xc.height, yc.height)

    def meets(n):
        h = wormhole_above(n, lo, strict=False)
        return h is not None and h <= hi

    unsat = [n for n in sorted(_reference_levels(xc, yc)) if not meets(n)]
    if not unsat:
        return [HeightInterval(lo, hi)]
    below = {n: wormhole_below(n, lo, strict=True) for n in unsat}
    above = {n: wormhole_above(n, hi, strict=True) for n in unsat}
    results = []
    for a in [lo] + [b for b in below.values() if b is not None]:
        need_up = [n for n in unsat if below[n] is None or below[n] < a]
        if any(above[n] is None for n in need_up):
            continue
        results.append(HeightInterval(a, max([hi] + [above[n] for n in need_up])))
    best = min(iv.length for iv in results)
    return sorted({iv for iv in results if iv.length == best}, key=lambda iv: (iv.a, iv.b))


def _reference_distance(x, y):
    return 2 * _reference_intervals(x, y)[0].length - abs(x.height - y.height)


def _reference_geodesic(x, y, interval):
    xc, yc = canonicalize(x), canonicalize(y)
    if same_point(xc, yc):
        return GeodesicPath(())
    start, end = (yc, xc) if yc.height < xc.height else (xc, yc)
    levels = sorted(_reference_levels(xc, yc))
    depth = max(start.address.depth, end.address.depth)
    phases = [(start.height, interval.a), (interval.a, interval.b), (interval.b, end.height)]
    scheduled = {}
    for n in levels:
        for idx, (s, e) in enumerate(phases):
            if s == e:
                continue
            if s > e:
                cand = wormhole_below(n, s, strict=False)
                ok = cand is not None and cand >= e
            else:
                cand = wormhole_above(n, s, strict=False)
                ok = cand is not None and cand <= e
            if ok:
                scheduled.setdefault(idx, []).append((cand, n))
                break
    events = []
    bits = start.address.padded(depth)
    for idx, (s, e) in enumerate(phases):
        if s == e:
            continue
        direction = Direction.DOWN if s > e else Direction.UP
        pos = s
        for h, n in sorted(scheduled.get(idx, []), reverse=(s > e)):
            if h != pos:
                events.append(Segment(pos, h, bits.bits, direction))
                pos = h
            bits = bits.flipped(n)
            events.append(WormholeLevel(n, h))
        if pos != e:
            events.append(Segment(pos, e, bits.bits, direction))
    return GeodesicPath(tuple(events))


def _reference_endings(p, q):
    pc, qc = canonicalize(p), canonicalize(q)
    out = set()
    for iv in _reference_intervals(pc, qc):
        if qc.height > pc.height:
            out.add(Direction.DOWN if iv.b > qc.height else Direction.UP)
        elif qc.height < pc.height:
            out.add(Direction.UP if iv.a < qc.height else Direction.DOWN)
        else:
            if iv.b > qc.height:
                out.add(Direction.DOWN)
            if iv.a < qc.height:
                out.add(Direction.UP)
    return frozenset(out)


_triadic_heights = st.integers(1, 9).flatmap(lambda n: st.integers(0, 3**n).map(lambda k: F(k, 3**n)))
_heights = st.one_of(
    st.sampled_from([F(0), F(1)]),
    _triadic_heights,
    st.fractions(min_value=0, max_value=1, max_denominator=200),
)


@st.composite
def _points(draw):
    """Heights 0 and 1, triadic heights up to order 9, other rationals;
    addresses up to depth 12, at a wormhole height sometimes the glued
    (non-canonical) representative."""
    h = draw(_heights)
    bits = draw(st.text("01", max_size=12))
    n = wormhole_order(h)
    if n is not None and draw(st.booleans()):
        bits = bits.ljust(n, "0")
        bits = bits[: n - 1] + "1" + bits[n:]
    return LaaksoPoint(h, CantorAddress(bits))


@settings(max_examples=400, deadline=None)
@given(_points(), _points())
def test_integer_kernel_matches_fraction_reference(x, y):
    ivs = minimal_height_intervals(x, y)
    assert ivs == _reference_intervals(x, y)
    assert required_levels(x, y) == _reference_levels(x, y)
    assert distance(x, y) == _reference_distance(x, y)
    for iv in ivs:
        assert synthesize_geodesic(x, y, iv).events == _reference_geodesic(x, y, iv).events
    if not same_point(x, y):
        assert geodesic_endings(x, y) == _reference_endings(x, y)


def _xor(p, mask):
    depth = max(p.address.depth, len(mask))
    bits = zip(p.bits.ljust(depth, "0"), mask.ljust(depth, "0"))
    return LaaksoPoint(p.height, CantorAddress("".join("1" if a != b else "0" for a, b in bits)))


@settings(max_examples=300, deadline=None)
@given(_points(), _points(), st.text("01", min_size=1, max_size=12))
def test_distance_invariant_under_address_xor(x, y, mask):
    # Flipping one fixed set of address bits on every point is an isometry:
    # it maps each gluing (addresses differing in bit n) onto another.
    assert distance(_xor(x, mask), _xor(y, mask)) == distance(x, y)


@settings(max_examples=300, deadline=None)
@given(_points(), _points())
def test_distance_invariant_under_height_reflection(x, y):
    # h -> 1 - h maps every order-n wormhole grid onto itself.
    def flip(p):
        return LaaksoPoint(1 - p.height, p.address)

    assert distance(flip(x), flip(y)) == distance(x, y)

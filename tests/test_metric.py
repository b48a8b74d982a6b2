import math
import random
from bisect import bisect_left
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laakso.core import (
    CantorAddress,
    Direction,
    HeightInterval,
    LaaksoPoint,
    WormholeLevel,
    _orders,
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
    _Pair,
    distance,
    geodesic_endings,
    minimal_height_intervals,
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
            assert iv.a <= min(x.height, y.height) and max(x.height, y.height) <= iv.b


def test_synthesize_geodesic_examples():
    x, y = point("1/2", "0"), point("1/2", "1")
    up = synthesize_geodesic(x, y, HeightInterval(F(1, 2), F(2, 3)))
    assert up.length == F(1, 3)
    assert [j.order for j in up.jumps] == [1]
    assert up.jumps[0].height == F(2, 3)
    assert up.segments[-1].direction == Direction.DOWN
    down = synthesize_geodesic(x, y, HeightInterval(F(1, 3), F(1, 2)))
    assert down.length == F(1, 3)
    assert down.jumps[0].height == F(1, 3)
    assert down.segments[-1].direction == Direction.UP
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
            assert orders == sorted(_reference_levels(x, y))


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
    xs, ys = xb.bits.ljust(depth, "0"), yb.bits.ljust(depth, "0")
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
    bits = CantorAddress(start.address.bits.ljust(depth, "0"))
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
    assert _Pair.of(x, y).levels == sorted(_reference_levels(x, y))
    assert distance(x, y) == _reference_distance(x, y)
    for iv in ivs:
        assert synthesize_geodesic(x, y, iv).events == _reference_geodesic(x, y, iv).events
    if not same_point(x, y):
        assert geodesic_endings(x, y) == _reference_endings(x, y)


def _xor(p, mask):
    depth = max(p.address.depth, len(mask))
    bits = zip(p.address.bits.ljust(depth, "0"), mask.ljust(depth, "0"))
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


@st.composite
def _grid_vertex_pairs(draw):
    """Two vertices (row k, address a) of the level-m graph, m <= 4; the
    second is sometimes the first's glued partner (same row, the address
    bit of the row's wormhole order flipped)."""
    m = draw(st.integers(1, 4))
    top, two_m = 3**m, 2**m
    k1, a1 = draw(st.integers(0, top)), draw(st.integers(0, two_m - 1))
    if 0 < k1 < top and draw(st.booleans()):
        k2, a2 = k1, a1 ^ 1 << (wormhole_order(F(k1, top)) - 1)
    else:
        k2, a2 = draw(st.integers(0, top)), draw(st.integers(0, two_m - 1))
    return m, (k1, a1), (k2, a2)


@settings(max_examples=400, deadline=None)
@given(_grid_vertex_pairs())
def test_pair_from_vertex_data_equals_distance(case):
    # The formula side of the oracle check: one (row, canonical mask) per
    # vertex, one `_Pair` on the graph's scale 3**m per pair.
    m, (k1, a1), (k2, a2) = case
    top = 3**m
    x, y = (LaaksoPoint(F(k, top), CantorAddress(format(a, f"0{m}b")[::-1])) for k, a in ((k1, a1), (k2, a2)))
    cx, cy = canonicalize(x).address.mask, canonicalize(y).address.mask
    pair = _Pair(_orders(cx ^ cy), k1, k2, top)
    assert F(pair.length(*pair.search()[0]), top) == distance(x, y)
    assert ((k1, cx) == (k2, cy)) == same_point(x, y)


def _brute_intervals(levels, hx, hy, den):
    """The minimal intervals of a pair on its integer scale, from every
    order-n grid height listed on that scale: a minimal interval's left end
    is lo or a grid height below lo, and for each left end the least right
    end is hi or the first grid height of some order at or past it."""
    lo, hi = min(hx, hy), max(hx, hy)
    grids = [[k * (den // 3**n) for k in range(1, 3**n) if k % 3] for n in levels]
    ivs = []
    for a in [lo] + [h for grid in grids for h in grid if h < lo]:
        firsts = [grid[i] for grid in grids for i in [bisect_left(grid, a)] if i < len(grid)]
        if len(firsts) == len(grids):
            ivs.append((a, max([hi] + firsts)))
    best = min(b - a for a, b in ivs)
    return sorted({iv for iv in ivs if iv[1] - iv[0] == best})


@st.composite
def _scaled_pairs(draw):
    """Raw `_Pair` data: required orders up to 6, a scale den = c * 3**N for
    N the deepest, and heights 0, den, on an order-j grid (j <= 6; on the
    pair's scale when j <= N) or one unit off it, or anywhere."""
    levels = sorted(draw(st.sets(st.integers(1, 6), max_size=6)))
    den = 3 ** (levels[-1] if levels else 0) * draw(st.integers(1, 12))

    def height():
        kind = draw(st.sampled_from(["end", "grid", "any"]))
        if kind == "end":
            return draw(st.sampled_from([0, den]))
        if kind == "any":
            return draw(st.integers(0, den))
        j = draw(st.integers(1, 6))
        h = draw(st.integers(0, 3**j)) * den // 3**j + draw(st.sampled_from([-1, 0, 1]))
        return min(max(h, 0), den)

    hx = height()
    return levels, hx, hx if draw(st.booleans()) else height(), den


@settings(max_examples=400, deadline=None)
@given(_scaled_pairs())
@example(([1], 3, 3, 6))  # 1/2:0 against 1/2:1, one unmet order, a tie at lo
@example(([1, 2], 9, 9, 18))  # two unmet orders tie: [1/3, 1/2] and [1/2, 2/3]
@example(([2, 3], 9, 9, 27))  # the same at 1/3, off both grids
@example(([1, 2, 3], 27, 27, 54))  # three unmet orders tie
@example(([1, 2, 3, 4, 5], 162, 162, 243))  # five unmet orders tie
@example(([1, 2, 3, 4, 5, 6], 243, 243, 729))
@example(([1], 0, 0, 3))  # at 0: no grid height below
@example(([1], 3, 3, 3))  # at 1: no grid height above
@example(([1, 2, 3, 4, 5, 6], 0, 0, 729))
@example(([1, 2, 3, 4, 5, 6], 729, 729, 729))
@example(([1, 2], 1, 17, 18))  # every order met
@example(([], 4, 2, 7))  # no required order
def test_search_matches_brute_force_on_raw_scales(case):
    levels, hx, hy, den = case
    want = _brute_intervals(levels, hx, hy, den)
    assert _Pair(levels, hx, hy, den).search() == want
    assert _Pair(levels, hy, hx, den).search() == want


def test_search_tie_at_one_half():
    pair = _Pair.of(point("1/2", "0"), point("1/2", "1"))
    assert pair.den == 6
    assert pair.search() == [(2, 3), (3, 4)]  # [1/3, 1/2] and [1/2, 2/3]

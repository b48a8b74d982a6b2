"""The inputs and the shared computations of the `verify` suites.

Each suite draws its inputs from its seed and computes each distinct
quantity once; these tests pin the draws to their string-built reference
and each shared computation to the public function it stands for.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laakso import oracle, profiles, verify
from laakso.core import CantorAddress, LaaksoPoint, _orders, canonicalize, wormhole_order
from laakso.metric import _Pair, distance, minimal_height_intervals
from laakso.profiles import parallel_reduction, profile_distance_on_line, vertical_lines


def _random_point_from_bits(rng, max_depth=4):
    """The draw as first written: the bits joined into a string and parsed."""
    depth = rng.randint(0, max_depth)
    bits = "".join(rng.choice("01") for _ in range(depth))
    return LaaksoPoint(verify._random_height(rng), CantorAddress(bits))


def test_random_point_draws_like_the_string_reference():
    for seed in range(200):
        for max_depth in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(10):
                p, q = verify._random_point(rng, max_depth), _random_point_from_bits(ref, max_depth)
                assert p == q and p.address.mask == q.address.mask, (seed, max_depth)
            assert rng.getstate() == ref.getstate(), (seed, max_depth)


def test_parallel_lines_are_valid_and_are_the_lines_checked(monkeypatch):
    # Each drawn line has three or four strictly increasing orders in 1..6,
    # none of them its height's wormhole order, and the suite checks
    # exactly the lines `_parallel_line` draws from its seed.
    for seed in range(16):
        rng = random.Random(seed)
        lines = [verify._parallel_line(rng) for _ in range(1000)]
        for h, levels, t in lines:
            assert 3 <= len(levels) <= 4 and list(levels) == sorted(set(levels)), (seed, levels)
            assert set(levels) <= set(range(1, 7)), (seed, levels)
            assert wormhole_order(Fraction(*h)) not in levels, (seed, h, levels)
            assert all(0 < num < den and math.gcd(num, den) == 1 for num, den in (h, t)), (seed, h, t)
        drawn = []
        monkeypatch.setattr(verify, "_reduction_lengths", lambda *line: drawn.append(line) or (0, 0, 1))
        verify.check_parallel(seed)
        monkeypatch.undo()
        assert drawn == lines, seed


def test_parallel_reduction_equals_its_integer_core(monkeypatch):
    # Over the lines `check_parallel` draws, the public reduction is the
    # suite's integer lengths over their common scale, and those are read
    # on the full line and on the line of its first two orders.
    drawn = []
    core = verify._reduction_lengths
    searched = []
    search = _Pair.search

    def counted(pair):
        searched.append(tuple(pair.levels))
        return search(pair)

    def recorded(h, levels, t):
        searched.clear()
        out = core(h, levels, t)
        assert searched == [levels, levels[:2]]
        drawn.append((h, levels, t, out))
        return out

    monkeypatch.setattr(_Pair, "search", counted)
    monkeypatch.setattr(verify, "_reduction_lengths", recorded)
    assert verify.check_parallel(seed=4)[0].passed
    monkeypatch.undo()
    assert len(drawn) == 1000
    for h, levels, t, (full, two, den) in drawn:
        p = LaaksoPoint(Fraction(*h), CantorAddress(""))
        assert parallel_reduction(p, levels, Fraction(*t)) == (Fraction(full, den), Fraction(two, den))


def _refuse(*args, **kwargs):
    raise AssertionError("an object was built for a verify line")


def test_parallel_builds_no_point_or_fraction(monkeypatch):
    # With the point and `Fraction` types made to raise in `verify`, the
    # suite returns the same rows: heights stay integer pairs.
    rows = {seed: verify.check_parallel(seed) for seed in range(4)}
    for name in ("LaaksoPoint", "CantorAddress", "Fraction", "_random_point"):
        monkeypatch.setattr(verify, name, _refuse)
    for seed, expected in rows.items():
        assert verify.check_parallel(seed) == expected, seed


def test_kinks_build_no_piece_or_kink(monkeypatch):
    # With the profile views made to raise, the suite returns the same rows:
    # kinks, kinds and slopes are read off the integer runs and the distance.
    rows = {seed: verify.check_kinks(seed) for seed in range(4)}
    for name in ("Piece", "Kink"):
        monkeypatch.setattr(profiles, name, _refuse)
    p = LaaksoPoint(Fraction(1, 2), CantorAddress("0"))
    with pytest.raises(AssertionError):
        profile_distance_on_line(p, vertical_lines(p, (1,))[0]).pieces
    for seed, expected in rows.items():
        assert verify.check_kinks(seed) == expected, seed


def _grid_point(data, m):
    """A vertex of the level-`m` graph; at a wormhole height of order <= m,
    half the time the representative with the order's bit set."""
    k = data.draw(st.integers(0, 3**m))
    mask = data.draw(st.integers(0, 2**m - 1))
    w = wormhole_order(Fraction(k, 3**m))
    if w is not None and w <= m and data.draw(st.booleans()):
        mask |= 1 << (w - 1)
    return LaaksoPoint(Fraction(k, 3**m), CantorAddress._of(mask, m))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grid_formula_equals_distance(data):
    m = data.draw(st.integers(1, 6))
    x = _grid_point(data, m)
    # The other point is drawn, or is x's glued twin, or x itself.
    y = data.draw(st.sampled_from(["drawn", "twin", "same"]))
    if y == "drawn":
        y = _grid_point(data, m)
    else:
        w = wormhole_order(x.height)
        flip = 1 << (w - 1) if y == "twin" and w is not None and w <= m else 0
        y = LaaksoPoint(x.height, CantorAddress._of(x.address.mask ^ flip, m))
    top = 3**m
    cx, cy = canonicalize(x).address.mask, canonicalize(y).address.mask
    length = verify._grid_formula(top, int(x.height * top), int(y.height * top), cx ^ cy)
    assert Fraction(length, top) == distance(x, y)


def test_one_formula_search_per_distinct_input(monkeypatch):
    # A1's formula side searches once per distinct (row, row, XOR) of the
    # pairs it checks, not once per pair.
    searched = []
    search = _Pair.search

    def counted(pair):
        searched.append((tuple(pair.levels), pair.hx, pair.hy, pair.den))
        return search(pair)

    drawn = []
    mismatches = verify._oracle_mismatches

    def recorded(m, pairs):
        listed = list(pairs(oracle.build_level_graph(m).vertex_count))
        drawn.append((m, listed))
        return mismatches(m, lambda _: listed)

    monkeypatch.setattr(_Pair, "search", counted)
    monkeypatch.setattr(verify, "_oracle_mismatches", recorded)
    assert all(row.passed for row in verify.check_oracle(m=2))
    expected = Counter()
    for m, listed in drawn:
        g = oracle.build_level_graph(m)
        canon = [(v >> m, canonicalize(g.vertex_point(v)).address.mask) for v in range(g.vertex_count)]
        keys = {(canon[i][0], canon[j][0], canon[i][1] ^ canon[j][1]) for i, j in listed}
        expected.update((tuple(_orders(xor)), ki, kj, 3**m) for ki, kj, xor in keys)
    assert [m for m, _ in drawn] == [2, 3]
    assert Counter(searched) == expected and max(expected.values()) == 1
    assert len(searched) < sum(len(listed) for _, listed in drawn)


def test_vertex_classes_are_the_canonical_masks():
    # One canonicalize per row gives every vertex's class: (k, a & keep)
    # is (k, canonical mask of (k, a)) for every vertex up to m = 6.
    for m in range(1, 7):
        g = oracle.build_level_graph(m)
        classes = verify._vertex_classes(g)
        want = [(v >> m, canonicalize(g.vertex_point(v)).address.mask) for v in range(g.vertex_count)]
        assert classes == want, m


def test_a_glued_bit_kept_in_one_row_fails_the_zero_classes_row(monkeypatch):
    # The keep-mask of the row at height 1/3 (order 1, row 3 at m = 2)
    # planted with its glued bit: its glued twins get two classes at graph
    # distance 0, and only the zero-classes row turns to FAIL.
    real = verify.canonicalize
    monkeypatch.setattr(verify, "canonicalize", lambda p: p if p.height == Fraction(1, 3) else real(p))
    g = oracle.build_level_graph(2)
    classes = verify._vertex_classes(g)
    assert classes[g.vertex(3, 1)] == (3, 1) and classes[g.vertex(4, 2)] == (4, 0)
    rows = {row.name: row.passed for row in verify.check_oracle(m=2)}
    assert rows == {"oracle-all-pairs-m2": True, "oracle-zero-classes-m2": False, "oracle-random-pairs-m3": True}


def test_tie_pairs_have_two_minimal_intervals():
    # A2's equal-length row compares lengths only where a pair has two
    # minimal intervals; none of its 1000 seeded pairs has, so it reads the
    # tie pool, one pair per order 1..4 at the midpoint of two wormholes.
    intervals = [[(iv.a, iv.b) for iv in minimal_height_intervals(x, y)] for x, y in verify._TIE_PAIRS]
    F = Fraction
    assert intervals[0] == [(F(1, 3), F(1, 2)), (F(1, 2), F(2, 3))]
    assert intervals[2] == [(F(1, 27), F(1, 18)), (F(1, 18), F(2, 27))]
    for n, ((x, y), pair) in enumerate(zip(verify._TIE_PAIRS, intervals), 1):
        h = F(1, 2 * 3 ** (n - 1))
        assert (x.height, y.height) == (h, h) and x.address.mask ^ y.address.mask == 1 << (n - 1)
        assert pair == [(h - F(1, 2 * 3**n), h), (h, h + F(1, 2 * 3**n))], n
    rng = random.Random(2)
    seeded = [(verify._random_point(rng), verify._random_point(rng)) for _ in range(1000)]
    assert max(len(minimal_height_intervals(x, y)) for x, y in seeded) == 1

import collections
import dataclasses
import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laakso import oracle, profiles, verify
from laakso.core import (
    CantorAddress,
    InternalError,
    LaaksoPoint,
    _grid_index,
    _orders,
    canonicalize,
    nearest_wormhole_gap,
    point,
    wormhole_order,
)
from laakso.metric import _Pair, distance
from laakso.profiles import (
    TWO_LEVEL_BRANCHES,
    ImpossibleGapConfiguration,
    Kink,
    KinkProfile,
    Piece,
    ProfileLinearityError,
    VerticalLine,
    _assemble,
    _LineScale,
    census_level_sets,
    census_records,
    classify_two_level,
    expected_kinks,
    nondiff_height_census,
    parallel_reduction,
    profile_distance_on_line,
    profile_to_svg,
    vertical_lines,
)
from test_acceptance import _graph_line_cases


def _profile(p, levels, branch=0):
    line = vertical_lines(p, levels)[branch]
    return line, profile_distance_on_line(p, line)


def test_v0_profile():
    p = point("1/2", "0")
    line, prof = _profile(p, ())
    assert [k.height for k in prof.kinks] == [F(1, 2)]
    assert (prof.kinks[0].left_slope, prof.kinks[0].right_slope) == (-1, 1)
    assert prof.kinks[0].kind == "min"
    assert prof.value_at(F(1, 2)) == 0 and prof.value_at(F(1, 4)) == F(1, 4)


def test_single_jump_profile_frozen():
    p = point("1/2", "0")
    line, prof = _profile(p, (1,))
    assert prof.kink_heights() == [F(1, 3), F(1, 2), F(2, 3)]
    assert [k.kind for k in prof.kinks] == ["min", "max", "min"]
    assert prof.kink_heights() == expected_kinks(p, line)
    # value at the roof kink: both routes cost gap-down + gap-up
    assert prof.value_at(F(1, 2)) == F(1, 3)


def test_two_level_frozen_cases():
    branch, heights = classify_two_level(F(13, 20), 1, 2)
    assert branch == "straddle-up"
    assert heights == [F(1, 3), F(7, 20), F(5, 9), F(13, 20), F(2, 3), F(41, 60), F(7, 9)]
    branch, heights = classify_two_level(F(7, 20), 1, 2)
    assert branch == "straddle-down"
    branch, heights = classify_two_level(F(1, 2), 1, 2)
    assert branch == "nested"
    assert heights == [F(1, 3), F(1, 2), F(2, 3)]
    branch, heights = classify_two_level(F(1, 4), 1, 2)
    assert branch == "deg-low-near"
    assert heights == [F(2, 9), F(1, 4), F(1, 3), F(5, 12), F(4, 9)]
    assert classify_two_level(F(1, 10), 1, 2) == ("deg-low-both", [F(1, 3)])
    assert classify_two_level(F(1, 5), 1, 2) == ("deg-low-far", [F(1, 3)])
    assert classify_two_level(F(35, 36), 1, 2) == ("deg-high-both", [F(2, 3)])
    assert classify_two_level(F(4, 5), 1, 2) == ("deg-high-far", [F(2, 3)])
    branch, heights = classify_two_level(F(3, 4), 1, 2)
    assert branch == "deg-high-near"
    assert heights == [F(5, 9), F(7, 12), F(2, 3), F(3, 4), F(7, 9)]
    assert set(b for b, _ in [classify_two_level(h, 1, 2) for _, h in []]) <= set(TWO_LEVEL_BRANCHES)


def test_single_jump_one_sided_gap():
    # below every order-1 wormhole the profile has a single kink, at the
    # height of the first one above
    p = point("1/10", "0")
    line, prof = _profile(p, (1,))
    assert prof.kink_heights() == expected_kinks(p, line) == [F(1, 3)]
    assert prof.kinks[0].kind == "min"
    # mirrored near the top
    p = point("9/10", "0")
    line, prof = _profile(p, (1,))
    assert prof.kink_heights() == [F(2, 3)]


def test_two_level_profiles_match_each_frozen_case():
    for height in (F(13, 20), F(7, 20), F(1, 2), F(1, 4), F(1, 10), F(3, 4)):
        p = point(height, "00")
        line, prof = _profile(p, (1, 2))
        assert prof.kink_heights() == expected_kinks(p, line), height


def test_profile_slopes_and_tiling():
    p = point("13/20", "0")
    _, prof = _profile(p, (1, 2))
    assert prof.pieces[0].lo == 0 and prof.pieces[-1].hi == 1
    for a, b in zip(prof.pieces, prof.pieces[1:]):
        assert a.hi == b.lo
        assert a.value_at(a.hi) == b.value_at(b.lo)  # continuous at the joint
    assert all(p_.slope in (-1, 1) for p_ in prof.pieces)
    # kink kinds alternate, starting and ending with a minimum
    kinds = [k.kind for k in prof.kinks]
    assert kinds == ["min" if i % 2 == 0 else "max" for i in range(len(kinds))]


def test_wormhole_base_point_two_lines():
    p = point("1/3", "0")
    lines = vertical_lines(p, (2,))
    assert len(lines) == 2 and {l.branch for l in lines} == {0, 1}
    expected = expected_kinks(p, lines[0])
    for line in lines:
        prof = profile_distance_on_line(p, line)
        assert prof.kink_heights() == expected
    with pytest.raises(ValueError):
        vertical_lines(p, (1,))  # the base point's own wormhole order


def test_vertical_lines_depend_only_on_the_glued_point():
    # Both representatives of a glued point give the same lines, branch by
    # branch: each line is read off the canonical address.
    for h, bits, levels in (("1/3", "1", (2,)), ("2/9", "01", (1, 3)), ("5/27", "0011", (2, 4, 5))):
        p = point(h, bits)
        assert canonicalize(p) != p
        assert vertical_lines(p, levels) == vertical_lines(canonicalize(p), levels)


def test_vertical_lines_validation():
    p = point("1/2", "0")
    assert vertical_lines(p, ())[0].label == "v0"
    assert vertical_lines(p, (3,))[0].label == "v3"
    assert vertical_lines(p, (1, 4))[0].label == "vD:1,4"
    with pytest.raises(ValueError):
        vertical_lines(p, (2, 1))
    with pytest.raises(ValueError):
        vertical_lines(p, (1, 1))


def test_expected_kinks_rejects_deep_lines():
    p = point("1/2", "0")
    line = vertical_lines(p, (1, 2, 3))[0]
    with pytest.raises(ValueError):
        expected_kinks(p, line)


def test_deep_order_profile_within_time():
    # Every height of this line sits on a scale with a 3**300000 factor; a
    # grid lookup that formed the doubled-length product num * 3**n before
    # dividing took about 8 s here.
    p = point("1/2", "0")
    (line,) = vertical_lines(p, (1, 300000))
    start = time.monotonic()
    assert profile_distance_on_line(p, line).kink_heights() == expected_kinks(p, line)
    assert time.monotonic() - start < 3


def test_parallel_reduction():
    p = point("2/5", "0")
    full, two = parallel_reduction(p, (1, 2, 3), F(2, 5))
    assert full == two
    rng = random.Random(51)
    for _ in range(50):
        t = F(rng.randint(0, 81), 81)
        full, two = parallel_reduction(p, (1, 2, 3, 4), t)
        assert full == two
    with pytest.raises(ValueError):
        parallel_reduction(p, (1, 2), F(1, 2))
    bad = [
        ("2/5", (2, 1, 3), F(1, 2)),  # not increasing
        ("2/5", (1, 2, 2, 3), F(1, 2)),  # repeated
        ("2/5", (0, 1, 2), F(1, 2)),  # not positive
        ("2/5", (-1, 1, 2), F(1, 2)),
        ("1/3", (1, 2, 3), F(1, 2)),  # the base point's own wormhole order
        ("4/9", (1, 2, 3), F(1, 2)),
        ("2/5", (1, 2, 3), F(-1, 2)),  # t outside [0, 1]
        ("2/5", (1, 2, 3), F(3, 2)),
    ]
    for h, levels, t in bad:
        with pytest.raises(ValueError):
            parallel_reduction(point(h, "01"), levels, t)
    # t is read as an exact rational: "p/q" text is taken, a float refused.
    assert parallel_reduction(p, (1, 2, 3), "2/5") == parallel_reduction(p, (1, 2, 3), F(2, 5))
    for t in (0.5, 0.1):
        with pytest.raises(TypeError, match="float"):
            parallel_reduction(p, (1, 2, 3), t)


_reduction_heights = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.integers(1, 6).flatmap(lambda n: st.integers(0, 3**n).map(lambda k: F(k, 3**n))),
    st.fractions(min_value=0, max_value=1, max_denominator=100),
)


@st.composite
def _reduction_cases(draw):
    """A base point (wormhole heights and glued representatives included),
    three or four jump orders up to 7 avoiding its own, and a height t."""
    h = draw(_reduction_heights)
    p = LaaksoPoint(h, CantorAddress(draw(st.text("01", max_size=5))))
    w = wormhole_order(h)
    pool = [n for n in range(1, 8) if n != w]
    levels = tuple(sorted(draw(st.lists(st.sampled_from(pool), min_size=3, max_size=4, unique=True))))
    return p, levels, draw(_reduction_heights)


@settings(max_examples=300, deadline=None)
@given(_reduction_cases())
@example((point("1/3", "1"), (2, 3, 4), F(1, 9)))  # wormhole base, glued input
@example((point("1/2", "0"), (1, 2, 3), F(1, 3)))  # t on the grid of a jump order
@example((point("4/9", "01"), (1, 3, 5), F(5, 9)))
@example((point("0", "1"), (1, 2, 3), F(1)))
def test_parallel_reduction_equals_public_distance(case):
    p, levels, t = case
    pc = canonicalize(p)
    full, two = parallel_reduction(p, levels, t)
    assert full == distance(pc, LaaksoPoint(t, vertical_lines(pc, levels)[0].base_address))
    assert two == distance(pc, LaaksoPoint(t, vertical_lines(pc, levels[:2])[0].base_address))
    assert full == two


def test_profile_on_three_level_line_matches_two_level():
    # the verification-based profiler handles deep lines even though the
    # closed forms stop at two levels
    p = point("2/5", "0")
    deep = vertical_lines(p, (1, 2, 3))[0]
    shallow = vertical_lines(p, (1, 2))[0]
    prof_deep = profile_distance_on_line(p, deep)
    prof_shallow = profile_distance_on_line(p, shallow)
    assert prof_deep.kink_heights() == prof_shallow.kink_heights()


def test_census_frozen_and_bounds():
    p = point("1/2", "0")
    assert nondiff_height_census(p, 1) == [F(1, 3), F(1, 2), F(2, 3)]
    census = nondiff_height_census(p, 4)
    levels = 4
    pairs = levels * (levels - 1) // 2
    assert len(census) <= 7 * pairs + 3 * levels + 1
    records = census_records(p, 2)
    assert ("v0" in {r[1] for r in records}) and all(r[2] in ("min", "max") for r in records)
    rows = {(r[0], r[1]) for r in records}
    assert (F(1, 2), "v0") in rows
    with pytest.raises(ValueError):
        census_records(p, 0)


def test_census_heights_confirmed_by_profiles():
    p = point("2/5", "01")
    census = set(nondiff_height_census(p, 2))
    confirmed = set()
    for levels in [(), (1,), (2,), (1, 2)]:
        for line in vertical_lines(p, levels):
            prof = profile_distance_on_line(p, line)
            kinks = set(prof.kink_heights())
            assert kinks <= census
            confirmed |= kinks
    assert confirmed == census


def _reference_single(p1, n, gaps=nearest_wormhole_gap):
    """The single-jump closed form in `Fraction`s, from the public gap
    query; kept as the reference for the integer core."""
    up, down = gaps(p1, n)
    if up is not None and down is not None:
        return sorted([p1 - down, p1 + (up - down), p1 + up])
    if up is not None:
        return [p1 + up]
    if down is not None:
        return [p1 - down]
    raise ImpossibleGapConfiguration(f"order {n} has no wormhole on either side of {p1}")


def _reference_two_level(p1, n, m, gaps=nearest_wormhole_gap):
    """`classify_two_level` in `Fraction`s, from the public gap query; kept
    as the reference for the integer core."""
    if not (1 <= n < m):
        raise ValueError("need two orders with n < m")
    un, dn = gaps(p1, n)
    um, dm = gaps(p1, m)
    if dm is None and dn is not None:
        raise ImpossibleGapConfiguration("order-m grid reaches lower than order-n grid")
    if um is None and un is not None:
        raise ImpossibleGapConfiguration("order-m grid reaches higher than order-n grid")
    if dn is None and dm is None:
        if not (um < un):
            raise ImpossibleGapConfiguration("below the whole grid the finer gap is smaller")
        return "deg-low-both", [p1 + un]
    if dn is None:
        if un > um:
            return "deg-low-far", [p1 + un]
        heights = [p1 - dm, p1, p1 + un, p1 + um - dm, p1 + um]
        if heights != sorted(heights):
            raise ImpossibleGapConfiguration("five-kink list out of order")
        return "deg-low-near", heights
    if un is None and um is None:
        if not (dm < dn):
            raise ImpossibleGapConfiguration("above the whole grid the finer gap is smaller")
        return "deg-high-both", [p1 - dn]
    if un is None:
        if dn > dm:
            return "deg-high-far", [p1 - dn]
        return "deg-high-near", sorted([p1 - dm, p1 + um - dm, p1 - dn, p1, p1 + um])
    if dm < dn and um < un:
        return "nested", _reference_single(p1, n, gaps)
    if dm < dn and un < um:
        heights = [p1 - dn, p1 + un - dn, p1 - dm, p1, p1 + un, p1 + um - dm, p1 + um]
        if heights != sorted(heights):
            raise ImpossibleGapConfiguration("seven-kink list out of order")
        return "straddle-up", heights
    if dn < dm and um < un:
        heights = [p1 - dm, p1 + um - dm, p1 - dn, p1, p1 + um, p1 + un - dn, p1 + un]
        if heights != sorted(heights):
            raise ImpossibleGapConfiguration("seven-kink list out of order")
        return "straddle-down", heights
    raise ImpossibleGapConfiguration("both order-m neighbours strictly outside the order-n window")


def _reference_census(p, max_level):
    """`census_records` over the reference closed forms and the lines'
    labels."""
    h = p.height
    records = [(h, "v0", "min")] if 0 < h < 1 else []
    for levels in census_level_sets(p, max_level):
        label = vertical_lines(p, levels)[0].label
        heights = _reference_single(h, *levels) if len(levels) == 1 else _reference_two_level(h, *levels)[1]
        records += [(x, label, "min" if i % 2 == 0 else "max") for i, x in enumerate(heights)]
    return sorted(records, key=lambda r: (r[0], r[1]))


def _closed_form_heights(rng):
    """0, 1, a wormhole of every order up to 15 (its least and greatest and
    one drawn), and `_deep_height`s and small-denominator heights."""
    heights = [F(0), F(1)]
    for n in range(1, 16):
        k = rng.randrange(1, 3**n)
        heights += [F(1, 3**n), F(3**n - 1, 3**n), F(k + (k % 3 == 0), 3**n)]
    heights += [_deep_height(rng) for _ in range(60)]
    heights += [F(rng.randint(0, d), d) for d in rng.choices([2, 4, 5, 7, 10, 20, 36, 54], k=30)]
    return heights


def test_closed_forms_equal_fraction_reference():
    # One- and two-order lines of every order up to 15 at every height of
    # `_closed_form_heights`; every branch is reached.
    hits = set()
    for h in _closed_form_heights(random.Random(16)):
        p = point(h, "0")
        w = wormhole_order(h)
        assert expected_kinks(p, vertical_lines(p, ())[0]) == ([h] if 0 < h < 1 else [])
        orders = [n for n in range(1, 16) if n != w]
        for n in orders:
            assert expected_kinks(p, vertical_lines(p, (n,))[0]) == _reference_single(h, n), (h, n)
        for n, m in combinations(orders, 2):
            branch, heights = classify_two_level(h, n, m)
            assert (branch, heights) == _reference_two_level(h, n, m), (h, n, m)
            assert expected_kinks(p, vertical_lines(p, (n, m))[0]) == heights
            hits.add(branch)
    assert hits == set(TWO_LEVEL_BRANCHES)


def test_closed_form_arguments_as_before():
    # An int height is taken, a float or a str refused, orders checked first.
    for p1, n, m in ((0, 1, 2), (1, 1, 3), (True, 2, 5)):
        assert classify_two_level(p1, n, m) == _reference_two_level(p1, n, m)
    for p1 in (0.5, "1/2", "0", None):
        for f in (classify_two_level, _reference_two_level):
            with pytest.raises(TypeError):
                f(p1, 1, 2)
    for p1, n, m in ((F(1, 2), 2, 1), (F(1, 2), 0, 2), (0.5, 2, 2), (F(3, 2), 1, 2), (F(-1, 2), 1, 2)):
        with pytest.raises(ValueError) as new:
            classify_two_level(p1, n, m)
        with pytest.raises(ValueError) as old:
            _reference_two_level(p1, n, m)
        assert str(new.value) == str(old.value)
    line = VerticalLine(CantorAddress("1"), "v0?", (0,))
    with pytest.raises(ValueError, match="order must be a positive integer"):
        expected_kinks(point("1/2", ""), line)


# Planted gap configurations the grid rules out, as integers (up_n, down_n,
# up_m, down_m) over the two-level scale of h = 1/2 at orders (1, 2): 18.
_IMPOSSIBLE_GAPS = (
    (3, None, 4, None),  # below the whole grid, the finer gap not smaller
    (4, 2, 3, None),  # the order-m grid reaches lower
    (2, 1, None, 1),  # the order-m grid reaches higher
    (None, 1, None, 2),  # above the whole grid, the finer gap not smaller
    (2, None, 3, 2),  # five kinks out of order
    (5, 3, 6, 1),  # seven kinks out of order (straddle-up)
    (6, 1, 5, 3),  # seven kinks out of order (straddle-down)
    (2, 1, 3, 4),  # both order-m neighbours outside
    (4, None, 3, None),  # realizable: deg-low-both
)


def test_impossible_configurations_raise_as_before(monkeypatch):
    # The integer core meets each planted configuration with the same
    # exception and message as the `Fraction` reference.
    h, den = F(1, 2), 18
    for planted in _IMPOSSIBLE_GAPS:
        un, dn, um, dm = planted
        gaps = {1: (un, dn), 2: (um, dm)}
        monkeypatch.setattr(profiles, "_gaps", lambda hp, den_, n: gaps[n])

        def fractions(p1, n):
            return tuple(None if g is None else F(g, den) for g in gaps[n])

        results = []
        for f in (classify_two_level, lambda p1, n, m: _reference_two_level(p1, n, m, fractions)):
            try:
                results.append(f(h, 1, 2))
            except ImpossibleGapConfiguration as exc:
                results.append(str(exc))
        assert results[0] == results[1], planted
    monkeypatch.setattr(profiles, "_gaps", lambda hp, den_, n: (None, None))
    with pytest.raises(ImpossibleGapConfiguration) as new:
        expected_kinks(point("1/2", "0"), vertical_lines(point("1/2", "0"), (3,))[0])
    with pytest.raises(ImpossibleGapConfiguration) as old:
        _reference_single(h, 3, lambda p1, n: (None, None))
    assert str(new.value) == str(old.value) == "order 3 has no wormhole on either side of 1/2"


def test_census_records_equal_fraction_reference():
    rng = random.Random(17)
    for h in [F(0), F(1), F(1, 2), F(1, 3), F(4, 9), F(2, 5)] + [_deep_height(rng) for _ in range(6)]:
        p = point(h, "01")
        for max_level in (1, 4, 7):
            assert census_records(p, max_level) == _reference_census(p, max_level), (h, max_level)
    p = point("13/20", "0")
    assert census_records(p, 12) == _reference_census(p, 12)


def test_linearity_failure_signals_internal_error():
    # A gap whose end values are not one slope +-1 line apart cannot be
    # certified; the assembler reports it instead of emitting a wrong
    # profile.  On the scale 8: a V at 3 given as one gap (a missed
    # breakpoint), and an evaluator that is not piecewise slope +-1.
    line = vertical_lines(point("1/2", "0"), ())[0]
    prof = _assemble(line, lambda t: abs(t - 3), [0, 3, 8], 8)
    assert prof.kinks == (Kink(F(3, 8), -1, 1),)
    with pytest.raises(ProfileLinearityError):
        _assemble(line, lambda t: abs(t - 3), [0, 8], 8)
    with pytest.raises(ProfileLinearityError):
        _assemble(line, lambda t: t * t, [0, 1, 2, 8], 8)
    assert issubclass(ProfileLinearityError, InternalError)


def test_profile_views_are_lazy_and_equal_across_scales():
    # A profile keeps its runs as integers; its `Fraction` views are built
    # on first read, and profiles on different scales are equal when their
    # lines, pieces and kinks are.
    line = vertical_lines(point("1/2", "0"), ())[0]
    a = _assemble(line, lambda t: abs(t - 3), [0, 3, 8], 8)
    b = _assemble(line, lambda t: abs(t - 6), [0, 6, 16], 16)
    assert (a.den, a.runs) == (8, ((0, 3, 3, -1), (3, 0, 8, 1)))
    assert "pieces" not in vars(a) and "kinks" not in vars(a)
    assert a.to_json() == b.to_json()
    assert "pieces" not in vars(a) and "kinks" not in vars(a)
    assert a == b and hash(a) == hash(b) and a.runs != b.runs
    assert a.pieces == (Piece(F(0), F(3, 8), -1, F(3, 8)), Piece(F(3, 8), F(1), 1, F(-3, 8)))
    assert a.kinks == (Kink(F(3, 8), -1, 1),)
    assert a != _assemble(line, lambda t: abs(t - 4), [0, 4, 8], 8)
    assert a != KinkProfile(vertical_lines(point("1/2", "0"), (1,))[0], 8, a.runs)


@st.composite
def _point_and_line(draw):
    den = draw(st.sampled_from([1, 2, 3, 5, 9, 10, 20, 27, 54, 81]))
    h = F(draw(st.integers(min_value=0, max_value=den)), den)
    p = point(h, draw(st.text(alphabet="01", max_size=5)))
    w = wormhole_order(h)
    usable = [n for n in range(1, 5) if n != w]
    levels = tuple(sorted(draw(st.sets(st.sampled_from(usable), max_size=2))))
    lines = vertical_lines(p, levels)
    return p, lines[draw(st.integers(min_value=0, max_value=len(lines) - 1))]


@settings(max_examples=60, deadline=None)
@given(_point_and_line(), st.data())
@example((point("1/2", "11"), vertical_lines(point("1/2", "11"), (2,))[0]), None)
@example((point("1/3", "01"), vertical_lines(point("1/3", "01"), (2,))[1]), None)
@example((point("0", "1"), vertical_lines(point("0", "1"), (1,))[0]), None)
@example((point("1", "0"), vertical_lines(point("1", "0"), (2,))[0]), None)
def test_line_values_equal_public_distance(case, data):
    # The line evaluator never canonicalizes a height on the line; at an
    # order-n wormhole height where the line's bit n is 1 its levels differ
    # from the canonical pair's, and the value must not.
    p, line = case
    scale = _LineScale(canonicalize(p), line)
    den = scale.den
    heights = {0, den, scale.hp}
    breaks = scale.candidates()
    for t0, t1 in zip(breaks, breaks[1:]):
        dv = scale.value(t1) - scale.value(t0)
        heights |= {(t0 + t1) // 2, (t0 + t1 + dv) // 2, (t0 + t1 - dv) // 2}
    bits = line.bits
    for n in scale.levels:
        if n <= len(bits) and bits[n - 1] == "1":
            step = den // 3**n
            heights |= {k * step for k in range(1, 3**n) if k % 3}
    if data is not None:
        heights |= set(data.draw(st.lists(st.integers(min_value=0, max_value=den), max_size=6)))
    for t in sorted(h for h in heights if 0 <= h <= den):
        assert F(scale.value(t), den) == distance(p, LaaksoPoint(F(t, den), line.base_address)), t


def _reference_profile(p, line):
    """The profile rebuilt in `Fraction`s on public `distance`: candidates
    from `nearest_wormhole_gap`, then the same certificate and merge; its
    (line, pieces, kinks)."""
    pc = canonicalize(p)
    values = {}  # keyed by (numerator, denominator): hashing a Fraction is slow

    def v(t):
        key = (t.numerator, t.denominator)
        if key not in values:
            values[key] = distance(pc, LaaksoPoint(t, line.base_address))
        return values[key]

    orders = set(line.levels) | set(_orders(pc.address.mask ^ line.base_address.mask))
    if wormhole_order(pc.height) is not None:
        orders.add(wormhole_order(pc.height))
    reach = {}
    heights = {F(0), F(1), pc.height}
    for n in orders:
        up, down = nearest_wormhole_gap(pc.height, n)
        reach[n] = [g for g in (up, None if down is None else -down) if g is not None]
        heights |= {pc.height + g for g in reach[n]}
        if len(reach[n]) == 2:
            heights.add(pc.height + sum(reach[n]))
    for n, m in combinations(sorted(orders), 2):
        heights |= {pc.height + a - b for a in reach[n] for b in reach[m]}
    breaks = sorted(t for t in heights if 0 <= t <= 1)

    def certify(t0, v0, t1, v1, depth, out):
        dv, dt = v1 - v0, t1 - t0
        if abs(dv) == dt:
            out.append((t0, t1, 1 if dv == dt else -1))
            return
        assert depth < 8, (t0, t1)
        for s in (1, -1):
            tau = (t0 + t1 + s * dv) / 2
            if t0 < tau < t1 and v(tau) == v0 + s * (tau - t0):
                certify(t0, v0, tau, v(tau), depth + 1, out)
                certify(tau, v(tau), t1, v1, depth + 1, out)
                return
        mid = (t0 + t1) / 2
        certify(t0, v0, mid, v(mid), depth + 1, out)
        certify(mid, v(mid), t1, v1, depth + 1, out)

    raw = []
    for t0, t1 in zip(breaks, breaks[1:]):
        certify(t0, v(t0), t1, v(t1), 0, raw)
    pieces = []
    for lo, hi, slope in raw:
        if pieces and pieces[-1].slope == slope:
            pieces[-1] = Piece(pieces[-1].lo, hi, slope, pieces[-1].offset)
        else:
            pieces.append(Piece(lo, hi, slope, v(lo) - slope * lo))
    kinks = [Kink(b.lo, a.slope, b.slope) for a, b in zip(pieces, pieces[1:]) if a.slope != b.slope]
    return line, tuple(pieces), tuple(kinks)


def _deep_height(rng):
    """A base height the shallow draws miss: within j / (2 * 3**m) of a grid
    point k / 3**n, sparse ternary (a few nonzero digits down to 3**-15),
    or a wormhole of order up to 15."""
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(1, 12)
        m = rng.randint(n, 15)
        h = F(rng.randint(0, 3**n), 3**n) + F(rng.choice([-1, 1]) * rng.randint(1, 2), 2 * 3**m)
        return min(max(h, F(0)), F(1))
    if kind == 1:
        return sum(F(rng.randint(1, 2), 3**e) for e in rng.sample(range(1, 16), rng.randint(1, 3)))
    n = rng.randint(1, 15)
    k = rng.randrange(1, 3**n)
    return F(k + (k % 3 == 0), 3**n)


def _deep_cases(rng, count):
    """Base points at `_deep_height`s with addresses of up to 16 bits, each
    with a line built straight from an arbitrary address of up to 16 bits
    (many required orders, no jump orders named) or with the lines of up
    to three jump orders up to 15."""
    cases = []
    while len(cases) < count:
        h = _deep_height(rng)
        p = point(h, "".join(rng.choice("01") for _ in range(rng.randint(0, 16))))
        if rng.random() < 0.5:
            bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 16)))
            cases.append((p, VerticalLine(CantorAddress(bits), "addr", ())))
        else:
            usable = [n for n in range(1, 16) if n != wormhole_order(h)]
            levels = tuple(sorted(rng.sample(usable, rng.randint(0, 3))))
            cases += [(p, line) for line in vertical_lines(p, levels)]
    return cases


def test_profiles_equal_fraction_reference():
    rng = random.Random(12)
    cases = []
    while len(cases) < 1000:
        kind = rng.random()
        if kind < 0.1:
            h = F(rng.randint(0, 1))
        elif kind < 0.4:
            order = rng.randint(1, 6)
            h = F(rng.randrange(1, 3**order), 3**order)
        else:
            den = rng.choice([2, 4, 5, 7, 10, 11, 20, 36, 45, 54, 60])
            h = F(rng.randint(0, den), den)
        p = point(h, "".join(rng.choice("01") for _ in range(rng.randint(0, 7))))
        usable = [n for n in range(1, 10) if n != wormhole_order(h)]
        levels = tuple(sorted(rng.sample(usable, rng.choice([0, 1, 1, 2, 2, 3]))))
        cases += [(p, line) for line in vertical_lines(p, levels)]
    assert {line.branch for _, line in cases} == {0, 1}
    cases += _deep_cases(random.Random(13), 400)
    for p, line in cases:
        profile = profile_distance_on_line(p, line)
        assert (profile.line, profile.pieces, profile.kinks) == _reference_profile(p, line), (p, line)


def _old_rule_profile(p, line):
    """The profile on the earlier candidate rule, kept as the reference for
    the rule of required orders alone: every order that is required, a jump
    order of the line or p's wormhole order gives its up, down and tie
    candidates, and every pair of them the ties h(p) + a - b of their gaps;
    evaluated and certified by the same `_assemble`."""
    pc = canonicalize(p)
    levels = _orders(pc.address.mask ^ line.base_address.mask)
    w = wormhole_order(pc.height)
    involved = sorted(set(line.levels) | set(levels) | ({w} if w is not None else set()))
    den = pc.height.denominator * 3 ** (involved[-1] if involved else 0)
    hp = pc.height.numerator * (den // pc.height.denominator)
    reach = {}
    for n in involved:
        step = den // 3**n
        nearest = (_grid_index(3**n, hp, step, up, True) for up in (True, False))
        reach[n] = [k * step - hp for k in nearest if k is not None]
    offsets = [g for gaps in reach.values() for g in gaps]
    offsets += [sum(gaps) for gaps in reach.values() if len(gaps) == 2]
    offsets += [a - b for n, m in combinations(involved, 2) for a in reach[n] for b in reach[m]]
    breaks = sorted({0, den, hp} | {hp + off for off in offsets if 0 <= hp + off <= den})

    def value(t):
        pair = _Pair(levels, hp, t, den)
        return pair.length(*pair.search()[0])

    return _assemble(line, value, breaks, den)


def test_required_order_candidates_equal_old_rule():
    # Every case of the graph-side acceptance check (A15), then deep cases
    # of seeds 1000..1019 for as long as the budget lasts, at least 1000.
    cases = [(p, line) for _, p, line in _graph_line_cases(oracle.build_level_graph(3), 2)]
    cases += [(p, line) for _, p, line in _graph_line_cases(oracle.build_level_graph(4), 3, 200, 15)]
    for p, line in cases:
        assert profile_distance_on_line(p, line) == _old_rule_profile(p, line), (p, line)
    drawn, deadline = 0, time.monotonic() + 1.5
    for p, line in (case for seed in range(1000, 1020) for case in _deep_cases(random.Random(seed), 2000)):
        if drawn >= 1000 and time.monotonic() > deadline:
            break
        assert profile_distance_on_line(p, line) == _old_rule_profile(p, line), (p, line)
        drawn += 1


def _own_order_rule_profile(p, line):
    """The profile on the rule that also spends candidates on p's own
    wormhole order w when the line requires it (branch 1 of a wormhole base
    point), kept as the reference for the rule without w: every required
    order, w included, sets the scale and gives its up, down and tie
    candidates; evaluated and certified by the same `_assemble`."""
    pc = canonicalize(p)
    levels = _orders(pc.address.mask ^ line.base_address.mask)
    den = pc.height.denominator * 3 ** (levels[-1] if levels else 0)
    hp = pc.height.numerator * (den // pc.height.denominator)
    breaks = {0, den, hp}
    for n in levels:
        step = den // 3**n
        near = [k * step for k in (_grid_index(3**n, hp, step, up, True) for up in (True, False)) if k is not None]
        breaks.update(near)
        if len(near) == 2:
            breaks.add(near[0] + near[1] - hp)

    def value(t):
        pair = _Pair(levels, hp, t, den)
        return pair.length(*pair.search()[0])

    return _assemble(line, value, sorted(breaks), den)


def test_candidates_without_own_order_equal_old_rule():
    # Every case of the graph-side acceptance check (A15), then deep cases
    # of seeds 1000..1019 for as long as the budget lasts, at least 1000.
    cases = [(p, line) for _, p, line in _graph_line_cases(oracle.build_level_graph(3), 2)]
    cases += [(p, line) for _, p, line in _graph_line_cases(oracle.build_level_graph(4), 3, 200, 15)]
    own = 0
    for p, line in cases:
        assert profile_distance_on_line(p, line) == _own_order_rule_profile(p, line), (p, line)
        pc = canonicalize(p)
        w = wormhole_order(pc.height)
        if w in _orders(pc.address.mask ^ line.base_address.mask):
            assert w not in _LineScale(pc, line).levels, (p, line)
            own += 1
    assert own
    drawn, deadline = 0, time.monotonic() + 1.5
    for p, line in (case for seed in range(1000, 1020) for case in _deep_cases(random.Random(seed), 2000)):
        if drawn >= 1000 and time.monotonic() > deadline:
            break
        assert profile_distance_on_line(p, line) == _own_order_rule_profile(p, line), (p, line)
        drawn += 1


def _alternating(kinds):
    """Whether the kinds read min, max, min, ...: closed-form kinks alternate from a V."""
    return all(kind == ("min", "max")[i % 2] for i, kind in enumerate(kinds))


def test_closed_form_check_equals_fraction_comparison():
    # The one closed-form check against the `Fraction` views: heights by
    # `kink_heights() == expected_kinks(...)`, kinds read off `kinks`.  Each
    # line of A15's enumeration and of 100 deep cases per seed 1000..1019 is
    # held, as profiled and with its slopes negated (kinds swapped), against
    # the closed form of its first two required orders (its profile is
    # theirs, the parallel reduction), that form with kink 0 moved one unit
    # of its scale up, and that form with its last kink dropped.
    cases = [(p, line) for _, p, line in _graph_line_cases(oracle.build_level_graph(3), 2)]
    cases += [(p, line) for _, p, line in _graph_line_cases(oracle.build_level_graph(4), 3, 200, 15)]
    cases += [case for seed in range(1000, 1020) for case in _deep_cases(random.Random(seed), 100)]
    verdicts, kinked = collections.Counter(), 0
    for p, line in cases:
        levels = _LineScale(canonicalize(p), line).levels[:2]
        profile = profile_distance_on_line(p, line)
        negated = dataclasses.replace(profile, runs=tuple(run[:3] + (-run[3],) for run in profile.runs))
        _, den, closed = profiles._closed_form(p.height, levels)
        expected = expected_kinks(p, dataclasses.replace(line, levels=levels))
        forms = {"closed": (closed, expected)}
        if closed:
            forms["moved"] = ([closed[0] + 1] + closed[1:], [expected[0] + F(1, den)] + expected[1:])
            forms["dropped"] = (closed[:-1], expected[:-1])
            kinked += 1
        for side, prof in (("profiled", profile), ("negated", negated)):
            for form, (heights, fractions) in forms.items():
                by_views = prof.kink_heights() == fractions and _alternating(k.kind for k in prof.kinks)
                assert profiles._matches_closed_form(prof, den, heights) == by_views, (p, line, side, form)
                verdicts[side, form, by_views] += 1
    # Every line matches its closed form as profiled, and fails it wherever
    # it has a kink once either side is planted.
    assert kinked > len(cases) // 2
    assert verdicts == {
        ("profiled", "closed", True): len(cases),
        ("negated", "closed", True): len(cases) - kinked,
        ("negated", "closed", False): kinked,
        **{(side, form, False): kinked for side in ("profiled", "negated") for form in ("moved", "dropped")},
    }


def test_one_search_per_candidate(monkeypatch):
    # The profile evaluates the distance once at each candidate and at no
    # other height: no value is read twice and no gap is subdivided.
    calls = []
    search = _Pair.search

    def counted(pair):
        calls.append(pair.hy)
        return search(pair)

    monkeypatch.setattr(_Pair, "search", counted)
    rng = random.Random(14)
    cases = _deep_cases(rng, 150)
    for h in ("1/2", "13/20", "1/3", "0", "1", "4/9"):
        p = point(h, "01")
        usable = [n for n in range(1, 6) if n != wormhole_order(p.height)]
        for k in range(3):
            cases += [(p, line) for levels in combinations(usable, k) for line in vertical_lines(p, levels)]
    for p, line in cases:
        calls.clear()
        profile_distance_on_line(p, line)
        scale = _LineScale(canonicalize(p), line)
        assert sorted(calls) == scale.candidates(), (p, line)
        assert len(calls) <= 3 * len(scale.levels) + 3, (p, line)


def _slopes_by_scan(profile, t):
    """The one-sided slopes at t by a scan of every piece."""
    left = right = None
    for piece in profile.pieces:
        if piece.lo < t <= piece.hi:
            left = piece.slope
        if piece.lo <= t < piece.hi:
            right = piece.slope
    return left, right


def test_slopes_at_equals_linear_scan(monkeypatch):
    # The profiles of the kinks suite's cases and of arbitrary deep lines,
    # read at every piece end, every piece midpoint, the domain ends and
    # outside the domain.
    profiles = []

    def recorded(p, line):
        profiles.append(profile_distance_on_line(p, line))
        return profiles[-1]

    monkeypatch.setattr(verify, "profile_distance_on_line", recorded)
    verify.check_kinks(seed=3)
    profiles += [profile_distance_on_line(p, line) for p, line in _deep_cases(random.Random(15), 200)]
    assert len(profiles) >= 300
    for profile in profiles:
        heights = {F(0), F(1), F(-1, 3), F(4, 3), F(-1), F(2)}
        for piece in profile.pieces:
            heights |= {piece.lo, piece.hi, (piece.lo + piece.hi) / 2}
        for t in heights:
            assert profile.slopes_at(t) == _slopes_by_scan(profile, t), (profile.line, t)


def test_svg_output():
    p = point("1/2", "0")
    line, prof = _profile(p, (1,))
    svg = profile_to_svg(prof)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == len(prof.kinks)
    assert "polyline" in svg and "1/3" in svg

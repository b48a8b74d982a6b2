import random
import sys
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laakso.core import (
    CantorAddress,
    HeightInterval,
    LaaksoPoint,
    WormholeLevel,
    _gaps,
    _grid_index,
    _orders,
    canonicalize,
    enumerate_wormhole_heights,
    format_rational,
    gap_ratio_probe,
    nearest_wormhole_gap,
    parse_rational,
    point,
    point_key,
    same_point,
    wormhole_above,
    wormhole_below,
    wormhole_order,
)
from laakso.constructions import sparse_ternary_height

UNIT = HeightInterval(F(0), F(1))

heights = st.fractions(min_value=F(1, 729), max_value=F(728, 729), max_denominator=3**6)
addresses = st.text(alphabet="01", max_size=6)
points = st.builds(lambda h, b: LaaksoPoint(h, CantorAddress(b)), heights, addresses)


def test_rational_parse_format():
    assert parse_rational("3/9") == F(1, 3)
    assert parse_rational("-2") == F(-2)
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(1, 3)) == "1/3"
    # int and str inputs are coerced, and read as the same rational
    assert format_rational(-2) == "-2"
    assert format_rational("6/4") == format_rational(F(6, 4)) == "3/2"
    with pytest.raises(ValueError):
        parse_rational("0.5")
    with pytest.raises(ValueError):
        parse_rational("1e-3")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    # Only Fraction, int and str are read; a float is refused, not rounded.
    for bad in (0.5, 0.1, None, b"1/2", [1]):
        with pytest.raises(TypeError, match=type(bad).__name__):
            parse_rational(bad)
        with pytest.raises(TypeError, match=type(bad).__name__):
            format_rational(bad)
    with pytest.raises(TypeError, match="float"):
        wormhole_order(0.5)


def test_enumerate_wormhole_heights():
    assert enumerate_wormhole_heights(1, UNIT) == [F(1, 3), F(2, 3)]
    assert enumerate_wormhole_heights(2, UNIT) == [
        F(1, 9),
        F(2, 9),
        F(4, 9),
        F(5, 9),
        F(7, 9),
        F(8, 9),
    ]
    assert enumerate_wormhole_heights(2, HeightInterval(F(1, 3), F(2, 3))) == [F(4, 9), F(5, 9)]
    with pytest.raises(ValueError):
        HeightInterval(F(2, 3), F(1, 3))


@pytest.mark.parametrize("n", range(1, 7))
def test_grid_count(n):
    assert len(enumerate_wormhole_heights(n, UNIT)) == 2 * 3 ** (n - 1)


def test_wormhole_order():
    assert wormhole_order(F(1, 3)) == 1
    assert wormhole_order(F(5, 9)) == 2
    assert wormhole_order(F(1, 2)) is None
    assert wormhole_order(F(6, 9)) == 1  # reduces to 2/3
    assert wormhole_order(F(0)) is None
    assert wormhole_order(F(1)) is None


def _wormhole_order_by_division(h):
    """Reference: strip factors of 3 from the denominator one at a time."""
    if not (0 < h < 1):
        return None
    q, n = h.denominator, 0
    while q % 3 == 0:
        q //= 3
        n += 1
    return n if q == 1 and n > 0 else None


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=0, max_value=300),
    st.sampled_from([1, 2, 4, 5, 7, 10, 3**5 + 1, 2**40]),
    st.integers(min_value=1, max_value=10**6),
)
def test_wormhole_order_matches_division(n, cofactor, k):
    q = 3**n * cofactor
    h = F(k % q, q) if q > 1 else F(0)
    assert wormhole_order(h) == _wormhole_order_by_division(h)


def test_wormhole_order_deep():
    for n in range(1, 2001):
        assert wormhole_order(F(1, 3**n)) == n
        assert wormhole_order(F(3**n - 1, 3**n)) == n
        assert wormhole_order(F(1, 2 * 3**n)) is None


def test_grids_of_distinct_orders_disjoint():
    seen = {}
    for n in range(1, 6):
        for h in enumerate_wormhole_heights(n, UNIT):
            assert h not in seen, (h, n, seen.get(h))
            seen[h] = n


def test_nearest_wormhole_gap_examples():
    assert nearest_wormhole_gap(F(1, 2), 1) == (F(1, 6), F(1, 6))
    assert nearest_wormhole_gap(F(1, 2), 2) == (F(1, 18), F(1, 18))
    assert nearest_wormhole_gap(F(1, 4), 1) == (F(1, 12), None)
    assert nearest_wormhole_gap(F(1, 3), 1) == (F(1, 3), None)  # strict neighbours only
    # At the ends of [0, 1] the outer side never has a wormhole.
    assert nearest_wormhole_gap(F(0), 2) == (F(1, 9), None)
    assert nearest_wormhole_gap(F(1), 2) == (None, F(1, 9))
    assert nearest_wormhole_gap("0", 1) == (F(1, 3), None)
    for t in (F(3, 2), F(-1, 3)):
        with pytest.raises(ValueError):
            nearest_wormhole_gap(t, 1)


@settings(max_examples=200, deadline=None)
@given(heights, st.integers(min_value=1, max_value=6))
def test_gap_sum_property(t, n):
    # Two distinct grid heights straddle t, and consecutive grid heights of
    # one order are at least 1/3**n apart.
    up, down = nearest_wormhole_gap(t, n)
    if up is not None and down is not None:
        assert up + down >= F(1, 3**n)


def test_gap_sum_property_seeded_pool():
    rng = random.Random(11)
    for _ in range(1000):
        den = rng.randint(2, 3**7)
        t = F(rng.randint(1, den - 1), den)
        n = rng.randint(1, 7)
        up, down = nearest_wormhole_gap(t, n)
        if up is not None and down is not None:
            assert up + down >= F(1, 3**n)


def test_gap_upper_bound_when_room():
    rng = random.Random(12)
    for _ in range(500):
        den = rng.randint(2, 729)
        t = F(rng.randint(1, den - 1), den)
        n = rng.randint(1, 6)
        room = F(2, 3**n)
        up, down = nearest_wormhole_gap(t, n)
        if t >= room:
            assert down is not None and down <= room
        if 1 - t >= room:
            assert up is not None and up <= room



# Heights in [0, 1], drawn both off and on the order-n grids (n <= 6).
grid_or_not = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**4),
    st.integers(min_value=0, max_value=3**6).map(lambda k: F(k, 3**6)),
)


@settings(max_examples=400, deadline=None)
@given(grid_or_not, st.integers(min_value=1, max_value=6))
def test_grid_kernel_matches_brute_force(t, n):
    grid = [F(k, 3**n) for k in range(1, 3**n) if k % 3]
    above = min((h for h in grid if h > t), default=None)
    below = max((h for h in grid if h < t), default=None)
    above_eq = min((h for h in grid if h >= t), default=None)
    below_eq = max((h for h in grid if h <= t), default=None)
    assert wormhole_above(n, t) == above
    assert wormhole_above(n, t, strict=False) == above_eq
    assert wormhole_below(n, t) == below
    assert wormhole_below(n, t, strict=False) == below_eq
    assert nearest_wormhole_gap(t, n) == (
        None if above is None else above - t,
        None if below is None else t - below,
    )
    # The kernel in both caller forms: t = a / b as a * 3**n over step b,
    # and t on a scale D = 3 * b * 3**n as t * D over step D // 3**n.  A
    # strict side is the lookup one unit of the scale past t: heights and
    # grid heights are integers on both scales.
    top, a, b = 3**n, t.numerator, t.denominator
    for side, offset, h in ((1, 1, above), (1, 0, above_eq), (0, -1, below), (0, 0, below_eq)):
        k = None if h is None else h * top
        assert _grid_index(top, a * top + offset, b)[side] == k
        assert _grid_index(top, 3 * a * top + offset, 3 * b)[side] == k
    assert _grid_index(top, a * top, b) == (
        None if below_eq is None else below_eq * top,
        None if above_eq is None else above_eq * top,
    )


def _reference_gaps(a, b, n):
    """(up, down) at t = a / b times 3**n * b: the gap formula before
    `_gaps`, two kernel lookups with t * 3**n as a * 3**n over step b."""
    top = 3**n
    above = _grid_index(top, a * top + 1, b)[1]
    below = _grid_index(top, a * top - 1, b)[0]
    return (
        None if above is None else above * b - a * top,
        None if below is None else a * top - below * b,
    )


def test_gaps_equal_the_reference_on_deep_scales():
    # `nearest_wormhole_gap` is a view of `_gaps`, so `_gaps` is checked here
    # against the formula it replaced: at 0, 1, every wormhole height of
    # order <= 6 and 200 seeded off-grid heights, for orders 1..12, on the
    # scales 3**N * den t with N = n..n + 4.
    rng = random.Random(30)
    ts = [F(0), F(1)] + [h for m in range(1, 7) for h in enumerate_wormhole_heights(m, UNIT)]
    off_grid = []
    while len(off_grid) < 200:
        den = rng.randint(2, 10**6)
        t = F(rng.randint(1, den - 1), den)
        if wormhole_order(t) is None:
            off_grid.append(t)
    assert len(ts) == 2 + sum(2 * 3 ** (m - 1) for m in range(1, 7))
    for t in ts + off_grid:
        a, b = t.numerator, t.denominator
        for n in range(1, 13):
            want = _reference_gaps(a, b, n)
            for big in range(n, n + 5):
                scale = 3 ** (big - n)
                got = _gaps(a * 3**big, b * 3**big, n)
                assert got == tuple(None if g is None else g * scale for g in want), (t, n, big)


# Heights on the order-m grids (m <= 8, so on and off the queried order's
# grid, and next to 0 and 1 where a side has no wormhole), off every grid,
# and the ends 0 and 1.
unit_heights = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**5),
    st.integers(min_value=1, max_value=8).flatmap(
        lambda m: st.integers(min_value=0, max_value=3**m).map(lambda k: F(k, 3**m))
    ),
)


@settings(max_examples=500, deadline=None)
@given(unit_heights, st.integers(min_value=1, max_value=8))
@example(F(1, 3**8), 1)  # no order-1 wormhole below
@example(F(3**8 - 1, 3**8), 2)  # no order-2 wormhole above
@example(F(1, 3), 1)  # on the grid: strict neighbours only
@example(F(0), 3)
@example(F(1), 3)
def test_gap_kernel_matches_wormhole_differences(t, n):
    above = wormhole_above(n, t)
    below = wormhole_below(n, t)
    up, down = nearest_wormhole_gap(t, n)
    assert up == (None if above is None else above - t)
    assert down == (None if below is None else t - below)
    for gap in (up, down):
        assert gap is None or (type(gap) is F and gap > 0)


def test_canonicalize_examples():
    assert canonicalize(point("1/3", "1")) == point("1/3", "0")
    assert canonicalize(point("1/2", "10")) == point("1/2", "10")
    assert canonicalize(point("5/9", "01")) == point("5/9", "00")
    # shallow addresses are untouched even at wormhole heights
    assert canonicalize(point("5/9", "0")) == point("5/9", "0")


@settings(max_examples=300, deadline=None)
@given(points)
def test_canonicalize_idempotent_preserves_height(p):
    c = canonicalize(p)
    assert canonicalize(c) == c
    assert c.height == p.height
    assert same_point(c, p)


def test_same_point_padding():
    assert same_point(point("1/2", "10"), point("1/2", "1"))
    assert not same_point(point("1/2", "10"), point("1/2", "01"))
    assert same_point(point("1/3", "1"), point("1/3", "0"))


def test_point_and_address_validation():
    with pytest.raises(ValueError):
        point("3/2", "0")
    # Only 0/1 strings parse: int()'s prefixes, separators and whitespace
    # never reach the mask.
    for bits in ("012", "01\n", " 01", "0b1", "1_0", "1 0", "\uff11"):
        with pytest.raises(ValueError):
            CantorAddress(bits)
    assert CantorAddress("01").flipped(1).bits == "11"
    assert CantorAddress("01").flipped(3).bits == "011"
    assert CantorAddress("1").flipped(3).bits == "101"
    assert CantorAddress("").flipped(1).bits == "1"
    with pytest.raises(ValueError):
        CantorAddress("01").flipped(0)


def test_wormhole_level_validation():
    WormholeLevel(2, F(4, 9))
    with pytest.raises(ValueError):
        WormholeLevel(2, F(3, 9))  # reduces to order 1
    with pytest.raises(ValueError):
        WormholeLevel(1, F(1, 2))


def test_gap_ratio_probe_examples():
    for t, bound, start, depth in ((F(1, 3), F(2), 2, 12), (F(1, 2), F(1), 1, 8)):
        verdict = gap_ratio_probe(t, bound, start, depth)  # 1/2: exact up/down symmetry
        assert verdict.consistent and verdict.violated_at is None
    t = sparse_ternary_height((2, 4, 8, 16, 32))
    verdict = gap_ratio_probe(t, F(3), 2, 32)
    n = verdict.violated_at
    assert not verdict.consistent and 2 <= n <= 32

    def balanced(k):
        up, down = nearest_wormhole_gap(t, k)
        return up is not None and down is not None and up <= 3 * down and down <= 3 * up

    # violated_at is the first probed order whose gaps break the bound
    assert all(balanced(k) for k in range(2, n)) and not balanced(n)


def test_gap_ratio_probe_violation_persists():
    t = sparse_ternary_height((2, 4, 8, 16, 32))
    first = gap_ratio_probe(t, F(3), 2, 8)
    assert not first.consistent
    for depth in (12, 20, 32):
        again = gap_ratio_probe(t, F(3), 2, depth)
        assert not again.consistent
        assert again.violated_at == first.violated_at


def test_gap_ratio_probe_validation():
    with pytest.raises(ValueError):
        gap_ratio_probe(F(0), F(2), 1, 4)
    with pytest.raises(ValueError):
        gap_ratio_probe(F(1, 2), F(1, 2), 1, 4)
    with pytest.raises(ValueError):
        gap_ratio_probe(F(1, 2), F(2), 3, 2)


# ---------------------------------------------------------------------------
# The integer canonical form.
# ---------------------------------------------------------------------------


def _reference_canonical(p):
    """Canonical height and trimmed bits, on strings alone: clear bit n at
    an order-n wormhole height, then strip trailing zeros."""
    bits = p.address.bits
    n = wormhole_order(p.height)
    if n is not None and n <= len(bits) and bits[n - 1] == "1":
        bits = bits[: n - 1] + "0" + bits[n:]
    return p.height, bits.rstrip("0")


def _trimmed(mask):
    return format(mask, "b")[::-1] if mask else ""


def _assert_canonical_form(p):
    c = canonicalize(p)
    assert (c.height, _trimmed(c.address.mask)) == _reference_canonical(p)
    assert (c.height, c.address.bits.rstrip("0")) == _reference_canonical(p)
    assert c.address.depth == p.address.depth
    assert (c is p) == (c.address.mask == p.address.mask)
    assert point_key(p) == _reference_canonical(p)


def test_canonical_form_on_every_vertex():
    # Every grid point k / 3**m with an m-bit address, m <= 4.
    for m in range(1, 5):
        for k in range(3**m + 1):
            for a in range(2**m):
                _assert_canonical_form(LaaksoPoint(F(k, 3**m), CantorAddress(format(a, f"0{m}b"))))


@st.composite
def _wormhole_points(draw):
    """A point at an order-n wormhole height whose address has bit n set,
    bit n clear, no bit n (shallower than n), or no bits at all."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 3**n - 1).filter(lambda k: k % 3))
    bits = draw(st.text("01", max_size=10))
    case = draw(st.sampled_from(["set", "clear", "shallow", "empty"]))
    if case in ("set", "clear"):
        bits = bits.ljust(n, "0")
        bits = bits[: n - 1] + ("1" if case == "set" else "0") + bits[n:]
    elif case == "shallow":
        bits = bits[: n - 1]
    else:
        bits = ""
    return LaaksoPoint(F(k, 3**n), CantorAddress(bits))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_wormhole_points(), points))
@example(point("1/3", "1"))
@example(point("1/3", ""))
@example(point("2/9", "0"))
@example(point("2/9", "01"))
@example(point("0", "1"))
@example(point("1", "11"))
def test_canonical_form_matches_string_reference(p):
    _assert_canonical_form(p)


@contextmanager
def _decimal_digit_limit(digits):
    """Lower the int-string digit limit (where the interpreter has one), so
    a decimal conversion of a long integer raises."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def test_long_address_round_trips_in_base_2():
    rng = random.Random(16)
    bits = "".join(rng.choice("01") for _ in range(100_000))
    other = "".join(rng.choice("01") for _ in range(99_990))
    with _decimal_digit_limit(640):
        a, b = CantorAddress(bits), CantorAddress(other)
        assert a.mask.bit_length() == len(bits.rstrip("0"))
        assert a.bits == bits
        assert CantorAddress._of(a.mask, a.depth) == a
        assert a.flipped(100_003).bits == bits + "001"
        assert a.flipped(1).bits == ("0" if bits[0] == "1" else "1") + bits[1:]
        padded = other.ljust(len(bits), "0")
        assert _orders(a.mask ^ b.mask) == [i for i, (x, y) in enumerate(zip(bits, padded), 1) if x != y]
        assert point_key(LaaksoPoint(F(1, 3), a)) == (F(1, 3), ("0" + bits[1:]).rstrip("0"))


def test_orders_scan_short_and_long_masks():
    rng = random.Random(4)
    for width in (0, 1, 5, 7, 8, 9, 16, 63, 64, 65, 200):
        mask = rng.getrandbits(width) if width else 0
        bits = _trimmed(mask)
        assert _orders(mask) == [i for i, b in enumerate(bits, 1) if b == "1"]


_rational_texts = st.builds(
    lambda pad, sign, num, den, tail: pad + sign + num + den + tail,
    st.sampled_from(["", " ", "\t", "\n "]),
    st.sampled_from(["", "+", "-"]),
    st.one_of(st.from_regex(r"[0-9]{1,8}", fullmatch=True), st.sampled_from(["0", "00", "007"])),
    st.one_of(
        st.just(""),
        st.from_regex(r"/[0-9]{1,8}", fullmatch=True),
        st.sampled_from(["/0", "/000", "/1", "/010"]),
    ),
    st.sampled_from(["", " ", "\n", " \t"]),
)


@given(_rational_texts)
@example("1/" + "3" * 5000)
@example("3" * 5000 + "/0")
@example("-0/5")
def test_parse_rational_matches_fraction(text):
    """One match of the grammar reads what `Fraction(text)` reads, and fails
    as it does: a zero denominator and the integer-string digit limit."""
    try:
        want = F(text)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="^zero denominator in "):
            parse_rational(text)
        return
    except ValueError as exc:  # past the digit limit
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == str(exc)
        return
    got = parse_rational(text)
    assert type(got) is F and (got.numerator, got.denominator) == (want.numerator, want.denominator)

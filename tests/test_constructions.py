import random
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laakso.constructions as cons
from laakso.calculus import difference_quotient, directional_derivative, triadic_schedule
from laakso.constructions import (
    BandSchedule,
    PorosityWitness,
    SampledFunction,
    as_point_function,
    build_flat_nondifferentiable,
    build_one_sided_steep,
    build_steep_nondifferentiable,
    find_band_schedule,
    maximality_verdict,
    porosity_witness,
    sparse_ternary_height,
)
from laakso.core import (
    CantorAddress,
    Direction,
    InternalError,
    LaaksoPoint,
    _grid_index,
    nearest_wormhole_gap,
    point,
    point_key,
    wormhole_order,
)
from laakso.metric import _Pair, distance
from laakso.verify import ENGINEERED_MIRROR, _porosity_cases, check_porosity

UNBALANCED = sparse_ternary_height((2, 4, 8, 16, 32), tail=F(1, 2 * 3**34))
MIRROR = 1 - UNBALANCED


def test_sparse_ternary_height():
    t = sparse_ternary_height((2, 4, 8, 16, 32))
    assert t == sum(F(2, 3**a) for a in (2, 4, 8, 16, 32))
    assert wormhole_order(t) == 32  # purely triadic, lands on a grid
    assert wormhole_order(UNBALANCED) is None  # the tail keeps it off every grid
    with pytest.raises(ValueError):
        sparse_ternary_height((1, 1, 1, 1))  # sums past 1


def test_sampled_function_basics():
    a, b = point("1/4", "0"), point("3/4", "0")
    fn = SampledFunction(((a, F(0)), (b, F(1, 4))))
    assert fn.value_at(point("1/4", "00")) == 0  # padded address, same point
    with pytest.raises(KeyError):
        fn.value_at(point("1/2", "0"))
    assert fn.verify_lipschitz() == F(1, 2)
    # The check measures, whatever the ratio: 3/4 over the distance 1/2.
    assert SampledFunction(((a, F(0)), (b, F(3, 4)))).verify_lipschitz() == F(3, 2)
    with pytest.raises(ValueError):
        SampledFunction(((a, F(0)), (a, F(1))))


def _lipschitz_per_pair(fn):
    """The reference for `verify_lipschitz`: every pair with different
    values measured by `metric.distance`, the ratios kept as Fractions."""
    pts = fn.samples
    worst = F(0)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, fa = pts[i]
            b, fb = pts[j]
            if fa == fb:
                continue
            d = distance(a, b)
            if d == 0:
                raise InternalError(f"equal points {a}, {b} carry different values")
            worst = max(worst, abs(fa - fb) / d)
    return worst


def _outcome(check, *args):
    """What `check(*args)` returns, or the type and message it raises."""
    try:
        return check(*args)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)


def _construction_witnesses():
    """The flat and steep witnesses `verify constructions` builds."""
    flat = build_flat_nondifferentiable(point("1/2", "0"), 1, 6, probe_offsets=triadic_schedule(2, 8))
    center = point(ENGINEERED_MIRROR, "0")
    schedule = find_band_schedule(center.height, Direction.UP, max_level=20)
    steep = build_steep_nondifferentiable(center, schedule, probe_offsets=[F(1, 3**k) for k in range(3, 12)])
    return flat, steep


def _seeded_function(seed):
    """About 20 samples on small heights and short addresses, values drawn
    from six (so many pairs carry equal values), and at wormhole heights
    the glued point written through both of its addresses, one value."""
    rng = random.Random(seed)
    values = [F(0), F(1, 7), F(1, 3), F(2, 5), F(-1, 2), F(1)]
    table = {}
    samples = []
    for _ in range(12):
        bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        value = rng.choice(values)
        if rng.random() < 0.5:
            n = rng.randint(1, 4)
            height = F(rng.choice([k for k in range(1, 3**n) if k % 3]), 3**n)
            bits = bits.ljust(n, "0")
            points = [point(height, bits[: n - 1] + b + bits[n:]) for b in "01"]
        else:
            den = rng.randint(1, 12)
            points = [point(F(rng.randint(0, den), den), bits)]
        for p in points:
            samples.append((p, table.setdefault(point_key(p), value)))
    return SampledFunction(tuple(samples))


def test_verify_lipschitz_matches_pairwise_distances():
    # Differential check of the per-sample integer pairs against the
    # Fraction ratios of metric.distance: equal results or the same error.
    flat, steep = _construction_witnesses()
    seeded = [_seeded_function(seed) for seed in range(8)]
    outcomes = []
    for fn in [flat.function, steep.function] + seeded:
        outcomes.append(_outcome(fn.verify_lipschitz))
        assert outcomes[-1] == _outcome(_lipschitz_per_pair, fn)
    assert outcomes[:2] == [1, 1]
    # The seeded samples are not built to respect a bound: every ratio is
    # above 1, and measured, not refused.
    ratios = outcomes[2:]
    assert {type(o) for o in ratios} == {F} and min(ratios) > 1
    # The seeded samples hold glued points written through both addresses.
    for fn in seeded:
        samples = [p for p, _ in fn.samples]
        assert any(a != b and point_key(a) == point_key(b) for a, b in zip(samples, samples[1:]))


@st.composite
def _drawn_function(draw):
    """Samples on one to three vertical lines (addresses of up to 4 bits),
    at heights 0 and 1, at wormhole heights of orders 1..4, where the glued
    point may also be written through its other address, and at free
    heights; plus jump points at a sample's height with one address bit
    flipped.  Values come from a pool of at most four, so many pairs carry
    equal values; a point written twice keeps its first value."""
    pool = draw(st.lists(st.fractions(-2, 2, max_denominator=12), min_size=1, max_size=4))
    table, samples = {}, []

    def add(p):
        samples.append((p, table.setdefault(point_key(p), draw(st.sampled_from(pool)))))

    for mask in draw(st.lists(st.integers(0, 15), min_size=1, max_size=3)):
        for _ in range(draw(st.integers(0, 10))):
            kind = draw(st.sampled_from(["end", "wormhole", "free"]))
            if kind == "end":
                h = F(draw(st.integers(0, 1)))
            elif kind == "wormhole":
                n = draw(st.integers(1, 4))
                h = F(draw(st.integers(1, 3**n - 1).filter(lambda k: k % 3)), 3**n)
            else:
                den = draw(st.integers(1, 40))
                h = F(draw(st.integers(0, den)), den)
            add(LaaksoPoint(h, CantorAddress._of(mask, 4)))
            n = wormhole_order(h)
            if n is not None and n <= 4 and draw(st.booleans()):
                add(LaaksoPoint(h, CantorAddress._of(mask ^ 1 << (n - 1), 4)))
    for _ in range(draw(st.integers(0, 3)) if samples else 0):
        p, _ = draw(st.sampled_from(samples))
        add(LaaksoPoint(p.height, p.address.flipped(draw(st.integers(1, 6)))))
    return SampledFunction(tuple(samples))


@settings(max_examples=150, deadline=None)
@given(_drawn_function())
def test_verify_lipschitz_matches_all_pairs_on_drawn_samples(fn):
    # Adjacent pairs on each line plus every pair across lines against the
    # all-pairs reference: equal ratios or the same error.
    assert _outcome(fn.verify_lipschitz) == _outcome(_lipschitz_per_pair, fn)


def _long_line_function(n, jumps=5, seed=0):
    """n samples on the line through 1/2:0, at heights i / (n - 1), whose
    values change by slopes drawn from -9/10..9/10 between neighbours, plus
    the jump points at orders 1..jumps at the height of sample n // 2."""
    rng = random.Random(seed)
    value, samples = F(0), []
    for i in range(n):
        samples.append((point(F(i, n - 1), "0"), value))
        value += F(rng.randint(-9, 9), 10 * (n - 1))
    center, center_value = samples[n // 2]
    for order in range(1, jumps + 1):
        jump = LaaksoPoint(center.height, center.address.flipped(order))
        samples.append((jump, center_value + F(rng.randint(-9, 9), 10 * 3**order)))
    return SampledFunction(tuple(samples))


def test_verify_lipschitz_reads_each_line_once(monkeypatch):
    # About 1000 samples on one line plus 5 jump points: the line is read
    # pair by adjacent pair without a search, and only the pairs with a
    # jump point are searched, at most 5 * n + 10 of them (all pairs would
    # be about n**2 / 2).
    n = 1000
    fn = _long_line_function(n)
    searches = []
    search = _Pair.search
    monkeypatch.setattr(_Pair, "search", lambda pair: searches.append(pair) or search(pair))
    assert fn.verify_lipschitz() > 0
    assert 0 < len(searches) <= 5 * n + 10
    monkeypatch.undo()
    # The same construction at 60 line samples, against the reference.
    small = _long_line_function(60)
    assert small.verify_lipschitz() == _lipschitz_per_pair(small)


def test_verify_lipschitz_canonicalizes_each_sample_once(monkeypatch):
    seen = []
    canonicalize = cons.canonicalize
    monkeypatch.setattr("laakso.constructions.canonicalize", lambda p: seen.append(p) or canonicalize(p))
    for fn in [w.function for w in _construction_witnesses()] + [_seeded_function(0)]:
        seen.clear()
        _outcome(fn.verify_lipschitz)
        assert seen == [p for p, _ in fn.samples]


def test_one_sided_jump_check_is_an_internal_error(monkeypatch):
    monkeypatch.setattr("laakso.constructions.distance", lambda a, b: F(0))
    with pytest.raises(InternalError, match="twice its value"):
        build_one_sided_steep(point("0", "0"), (1, 2))


def test_flat_witness_frozen():
    x = point("1/2", "0")
    steps = triadic_schedule(1, 6)
    flat = build_flat_nondifferentiable(x, 1, 5, probe_offsets=steps)
    assert flat.levels == (1, 2, 3, 4, 5)
    f = as_point_function(flat.function)
    # gap symmetry at 1/2 pins the jump values
    for n, y in zip(flat.levels, flat.jump_points):
        gap, down = nearest_wormhole_gap(F(1, 2), n)
        assert down == gap
        assert distance(x, y) == 2 * gap
        assert flat.function.value_at(y) == gap
        assert abs(f(y) - f(x)) / distance(y, x) == F(1, 2)
    report = directional_derivative(f, x, steps)
    assert report.verdict == "exists" and report.value == 0
    assert flat.sampled_ratio <= 1


def test_flat_witness_at_wormhole_center():
    x = point("1/3", "0")
    with pytest.raises(ValueError):
        build_flat_nondifferentiable(x, 1, 4)
    flat = build_flat_nondifferentiable(x, 2, 5, probe_offsets=triadic_schedule(2, 6))
    assert flat.levels == (2, 3, 4, 5)
    assert flat.sampled_ratio <= 1


def test_flat_witness_one_sided_gaps():
    # near the bottom the low orders only reach upward; the min-gap rule
    # still applies and the quotient stays exactly 1/2
    x = point("1/10", "0")
    flat = build_flat_nondifferentiable(x, 1, 5)
    f = as_point_function(flat.function)
    for y in flat.jump_points:
        assert abs(f(y) - f(x)) / distance(y, x) == F(1, 2)


def test_flat_witness_at_boundary():
    # heights 0 and 1 get the fully one-sided variant
    for h in ("0", "1"):
        x = point(h, "0")
        flat = build_flat_nondifferentiable(x, 1, 4)
        f = as_point_function(flat.function)
        assert flat.sampled_ratio <= 1
        for n, y in zip(flat.levels, flat.jump_points):
            assert distance(y, x) == F(2, 3**n)
            assert abs(f(y) - f(x)) / distance(y, x) == F(1, 2)


def test_band_schedule_search_and_validation():
    sched = find_band_schedule(MIRROR, Direction.UP, max_level=20)
    assert sched is not None and sched.levels == (2, 4, 8, 16)
    # The record is its center, side and orders; gaps and slopes follow.
    assert sched == BandSchedule(MIRROR, Direction.UP, (2, 4, 8, 16))
    assert sched.slopes == tuple(sched.ramp_bound(k) for k in range(4))
    assert all(0 < s < 1 for s in sched.slopes)
    for levels, message in (
        ((), "schedule lists no orders"),
        ((4, 2), "orders must be strictly increasing"),
        ((2, 2, 4), "orders must be strictly increasing"),
        ((3,), "order 3: thin/wide gap ratio too large"),
        ((2, 3), "gaps must strictly decrease along the schedule"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BandSchedule(MIRROR, Direction.UP, levels)
    with pytest.raises(ValueError, match="^order 2 has no wormhole on one side$"):
        BandSchedule(F(1, 27), Direction.DOWN, (2,))  # no order-2 wormhole below 1/9
    assert find_band_schedule(F(1, 2), Direction.UP, max_level=10) is None  # balanced height


def _find_band_schedule_reference(x1, jump_side, start_level=1, max_level=48):
    """The search as first written, on a schedule that stores its gaps: the
    kept (levels, thin, wide, slopes), each slope its ramp bound, or None."""
    up_dir = jump_side is Direction.UP
    levels, thin, wide = [], [], []
    for n in range(start_level, max_level + 1):
        up, down = nearest_wormhole_gap(x1, n)
        t, q = (up, down) if up_dir else (down, up)
        if t is None or q is None or not 2 * t * n < q:
            continue
        if levels:
            n_prev = levels[-1]
            if not (t < thin[-1] and q < wide[-1]):
                continue
            if not 2 * q * n_prev < wide[-1]:
                continue
        levels.append(n)
        thin.append(t)
        wide.append(q)
        if len(levels) == 6:
            break
    if not levels:
        return None
    slopes = []
    for k in range(len(levels)):
        q_next = wide[k + 1] if k + 1 < len(levels) else F(0)
        slopes.append((1 - (thin[k] + q_next) / wide[k]) / (1 - q_next / wide[k]))
    return tuple(levels), tuple(thin), tuple(wide), tuple(slopes)


def _seeded_heights(seed, count):
    """`count` heights in (0, 1): sparse-ternary ones (increasing exponents
    from 1..30, a non-triadic tail on some) and random rationals."""
    rng = random.Random(seed)
    heights = []
    while len(heights) < count:
        if rng.random() < 0.5:
            exponents = sorted(rng.sample(range(1, 31), rng.randint(1, 5)))
            tail = F(1, 2 * 3 ** rng.randint(1, 34)) if rng.random() < 0.5 else None
            try:
                heights.append(sparse_ternary_height(exponents, tail))
            except ValueError:  # escaped (0, 1)
                pass
        else:
            den = rng.randint(2, 3**rng.randint(2, 12))
            heights.append(F(rng.randint(1, den - 1), den))
    return heights


def test_band_schedule_search_matches_the_stored_gap_reference():
    # Differential check of the search against the search as first written:
    # equal orders, gaps and slopes, or None on both sides.
    found = 0
    for t in _seeded_heights(11, 200) + [MIRROR, UNBALANCED]:
        for side in Direction:
            for start, stop in ((1, 48), (2, 20), (5, 30)):
                got = find_band_schedule(t, side, start_level=start, max_level=stop)
                expected = _find_band_schedule_reference(t, side, start, stop)
                if got is None:
                    assert expected is None, (t, side, start, stop)
                    continue
                assert (got.center, got.jump_side) == (t, side)
                assert (got.levels, got.thin, got.wide, got.slopes) == expected, (t, side, start, stop)
                found += 1
    assert found  # the check compares schedules, not only None


def _validate_reference(center, jump_side, levels):
    """`BandSchedule.validate()` as first written, on the schedule that
    stores the height's own gaps and slopes equal to the ramp bounds.  The
    checks those fields pass by construction (alignment, stored gaps, a
    slope above its bound) are left out; the slope range is kept, since
    the gap conditions imply it.  Raises what the original raised."""
    if not levels:
        raise ValueError("schedule lists no orders")
    if list(levels) != sorted(set(levels)):
        raise ValueError("orders must be strictly increasing")
    up_dir = jump_side is Direction.UP
    gaps = [nearest_wormhole_gap(center, n) for n in levels]
    thin, wide = zip(*((up, down) if up_dir else (down, up) for up, down in gaps))
    for k, n in enumerate(levels):
        if thin[k] is None or wide[k] is None:
            raise ValueError(f"order {n} has no wormhole on one side")
        if not 2 * thin[k] * n < wide[k]:
            raise ValueError(f"order {n}: thin/wide gap ratio too large")
        q_next = F(0)
        if k + 1 < len(levels):
            if not (thin[k + 1] < thin[k] and wide[k + 1] < wide[k]):  # TypeError on None
                raise ValueError("gaps must strictly decrease along the schedule")
            if not 2 * wide[k + 1] * n < wide[k]:
                raise ValueError(f"order {n}: successive wide gaps collapse too slowly")
            q_next = wide[k + 1]
        slope = (1 - (thin[k] + q_next) / wide[k]) / (1 - q_next / wide[k])
        if not 0 < slope < 1:
            raise ValueError("band slopes must lie in (0, 1)")


def test_band_schedule_refuses_what_validate_refused():
    # Every (center, side, levels) the original validation refused with a
    # ValueError is refused with the same text when the record is built,
    # and every one it accepted builds.  Where the original compared a
    # missing gap with a number (a TypeError, no refusal), the record
    # refuses the missing gap.
    rng = random.Random(12)
    messages = set()
    for t in _seeded_heights(13, 200) + [MIRROR, UNBALANCED, F(1, 27)]:
        for side in Direction:
            # Orders whose own gaps pass, so that pairs of them reach the
            # checks between consecutive orders.
            passing = [n for n in range(1, 25) if _outcome(BandSchedule, t, side, (n,)) != (
                ValueError, f"order {n}: thin/wide gap ratio too large")]
            for _ in range(4):
                pool = passing if passing and rng.random() < 0.5 else range(1, 13)
                levels = tuple(rng.sample(pool, rng.randint(0, min(4, len(pool)))))
                if rng.random() < 0.7:
                    levels = tuple(sorted(levels))
                try:
                    expected = _outcome(_validate_reference, t, side, levels)
                except TypeError:
                    expected = TypeError
                got = _outcome(BandSchedule, t, side, levels)
                if expected is TypeError:
                    assert got[0] is ValueError and got[1].endswith("has no wormhole on one side")
                elif expected is None:  # accepted
                    assert isinstance(got, BandSchedule), (t, side, levels)
                else:
                    assert got == expected, (t, side, levels)
                    messages.add(re.sub(r"^order \d+:? ", "", expected[1]))
    # No drawn schedule passes the ratio and decrease checks and then fails
    # the collapse check, which they imply (`BandSchedule`'s docstring
    # proves it); every other refusal is met.
    assert messages == {
        "schedule lists no orders",
        "orders must be strictly increasing",
        "has no wormhole on one side",
        "thin/wide gap ratio too large",
        "gaps must strictly decrease along the schedule",
    }


def test_thin_gap_decrease_bounds_the_next_wide_gap():
    # The lemma behind the collapse condition: whenever the thin gap drops
    # from order a to a later order b, the wide gap at b is at most the
    # thin gap at a.  Every height k / (2 * 3**6), both sides, orders 1..7.
    met = 0
    for k in range(2 * 3**6 + 1):
        gaps = [nearest_wormhole_gap(F(k, 2 * 3**6), n) for n in range(1, 8)]
        for side in (gaps, [(down, up) for up, down in gaps]):
            for a, (thin_a, wide_a) in enumerate(side):
                for thin_b, wide_b in side[a + 1 :]:
                    if None not in (thin_a, wide_a, thin_b, wide_b) and thin_b < thin_a:
                        assert wide_b <= thin_a, (k, a)
                        met += 1
    assert met > 10000


def test_steep_witness_identities():
    x = point(MIRROR, "0")
    sched = find_band_schedule(MIRROR, Direction.UP, max_level=20)
    probes = [F(1, 3**k) for k in range(3, 12)]
    steep = build_steep_nondifferentiable(x, sched, probe_offsets=probes)
    f = as_point_function(steep.function)
    # thin-side quotients are exactly 1 at every probed scale
    for t in probes:
        if t <= sched.thin[0]:
            assert difference_quotient(f, x, t) == 1
    # jump-point quotients are exactly 1/2
    for y in steep.jump_points:
        assert abs(f(y) - f(x)) / distance(y, x) == F(1, 2)
    # jump points at successive orders are 2 * earlier thin gap apart
    for i in range(len(steep.jump_points)):
        for j in range(i + 1, len(steep.jump_points)):
            assert distance(steep.jump_points[i], steep.jump_points[j]) == 2 * sched.thin[i]
    # wide-side quotients approach 1 from below within the band-slope bound
    for k in range(len(sched.levels)):
        q = abs(difference_quotient(f, x, -sched.wide[k]))
        assert min(sched.slopes[k:]) <= q <= 1
    assert steep.sampled_ratio <= 1
    # the linear-model error at the jump points is 1/2 whatever slope is tried
    from laakso.calculus import differentiability_probe

    for candidate in (F(1), F(0), F(-2, 3)):
        probe = differentiability_probe(f, x, candidate, steep.jump_points)
        assert probe.sup_ratio == F(1, 2)


def test_steep_witness_derivative_verdict():
    # inside the innermost band the slope profile has ramped next to 1, so
    # the probed derivative settles on 1 within the band-slope tolerance
    x = point(MIRROR, "0")
    sched = find_band_schedule(MIRROR, Direction.UP, max_level=20)
    inner = sched.wide[-1]
    steps = [inner, inner / 3, inner / 9]
    steep = build_steep_nondifferentiable(x, sched, probe_offsets=steps)
    f = as_point_function(steep.function)
    tol = (1 - min(sched.slopes)) / 2
    report = directional_derivative(f, x, steps, tol=tol)
    assert report.verdict == "exists"
    assert abs(report.value - 1) <= tol


def test_steep_witness_inverted_orientation():
    x = point(UNBALANCED, "0")
    sched = find_band_schedule(UNBALANCED, Direction.DOWN, max_level=20)
    assert sched is not None and sched.jump_side is Direction.DOWN
    steep = build_steep_nondifferentiable(x, sched)
    f = as_point_function(steep.function)
    for t in sched.thin:
        assert difference_quotient(f, x, -t) == 1  # thin side is below
    for y in steep.jump_points:
        assert abs(f(y) - f(x)) / distance(y, x) == F(1, 2)


def test_steep_witness_rejects_mismatched_center():
    sched = find_band_schedule(MIRROR, Direction.UP, max_level=20)
    with pytest.raises(ValueError):
        build_steep_nondifferentiable(point("1/2", "0"), sched)
    with pytest.raises(ValueError):
        build_steep_nondifferentiable(point(sparse_ternary_height((2, 4)), "0"), sched)


def test_one_sided_steep_at_boundary():
    w = build_one_sided_steep(point("0", "0"), (1, 2, 3))
    f = as_point_function(w.function)
    for y, v in zip(w.jump_points, w.jump_values):
        assert v == F(1, 3 ** len(w.jump_values)) or v > 0  # upward reach values
        assert abs(f(y) - f(w.center)) / distance(y, w.center) == F(1, 2)
    top = build_one_sided_steep(point("1", "0"), (1, 2))
    for y in top.jump_points:
        assert abs(top.function.value_at(y)) > 0
    with pytest.raises(ValueError):
        build_one_sided_steep(point("1/2", "0"), (1, 2))


def _read_record(w, den, record):
    """A certificate record read back as Fractions: (s, down gap, up gap)."""
    num, down, up = record
    scale = 3**w.order * den
    return F(num, den), F(down, scale), None if up is None else F(up, scale)


def test_porosity_witness_frozen():
    w = porosity_witness(F(2), 1, F(1, 3), F(1, 10))
    assert w.lam == F(1, 4)  # default 1 / (bound + 2)
    assert (1 - w.lam) / w.lam > w.bound
    assert w.order == 3 and F(2, 3**w.order) < F(1, 10)
    assert abs(w.anchor - F(1, 3)) < F(2, 3**w.order)
    unit = F(1, 3**w.order)
    assert (w.lam * unit, (1 - w.lam) * unit) == (F(1, 108), F(1, 36))
    samples = [w.anchor + w.hole_width * F(i, 11) for i in range(1, 11)]
    nums, den = w.samples(10)
    assert [F(num, den) for num in nums] == samples
    records = w.certify(nums, den)
    assert len(records) == 10
    for s, record in zip(samples, records):
        rs, down, up = _read_record(w, den, record)
        assert rs == s
        assert (up, down) == nearest_wormhole_gap(s, w.order)
        assert down <= w.lam * unit
        assert up >= (1 - w.lam) * unit
        assert up / down > w.bound  # hence outside the balanced set
    # The integer records themselves: each height's numerator and its gaps
    # on the scale 3**order * den.
    scale = 3**w.order * den
    assert records == [
        (num, down * scale, up * scale)
        for num, (up, down) in zip(nums, (nearest_wormhole_gap(s, w.order) for s in samples))
    ]


def test_porosity_certificate_without_upper_wormhole():
    # 26/27 is the topmost order-3 wormhole, so the hole above it has no
    # order-3 wormhole on its upper side: the up gap is None
    w = porosity_witness(F(2), 1, F(26, 27), F(1, 10))
    assert w.order == 3 and w.anchor == F(26, 27)
    s = w.anchor + w.hole_width / 2
    records = w.certify([s.numerator], s.denominator)
    ((_, down, up),) = [_read_record(w, s.denominator, r) for r in records]
    assert up is None
    assert down == F(1, 216)
    # s = 209/216, and the down gap is 27 over 3**3 * 216
    assert records == [(209, 27, None)]


@pytest.mark.parametrize("seed", [0, 3, 5, 7])
def test_porosity_certificate_matches_gap_query(seed):
    # Differential check of the integer certificate against the Fraction gap
    # query, on the seeded holes check_porosity certifies and on the hole
    # above 26/27, which has no upper wormhole.  Every Fraction gap also
    # meets the hole's bounds lam / 3**order and (1 - lam) / 3**order.
    holes = [w for w, _ in _porosity_cases(seed)]
    holes.append(porosity_witness(F(2), 1, F(26, 27), F(1, 10)))
    for w in holes:
        nums, den = w.samples(100)
        records = w.certify(nums, den)
        assert len(records) == len(nums)
        down_bound, up_bound = w.lam / 3**w.order, (1 - w.lam) / 3**w.order
        for num, record in zip(nums, records):
            s = F(num, den)
            up, down = nearest_wormhole_gap(s, w.order)
            assert _read_record(w, den, record) == (s, down, up)
            assert down <= down_bound and (up is None or up >= up_bound)


def test_porosity_certificate_rejects_off_grid_anchor():
    # Half a grid step above the order-3 anchor the down gap is at least
    # 1/54 > lam / 27, so every height of the moved hole fails its certificate.
    w = porosity_witness(F(2), 1, F(1, 3), F(1, 10))
    moved = replace(w, anchor=w.anchor + F(1, 2 * 3**w.order))
    assert wormhole_order(moved.anchor) != moved.order
    for s in (moved.anchor + moved.hole_width / 2, moved.anchor + moved.hole_width / 1000):
        with pytest.raises(RuntimeError, match="hole certificate failed") as info:
            moved.certify([s.numerator], s.denominator)
        assert not isinstance(info.value, InternalError)


def test_porosity_certificate_checks_both_bounds(monkeypatch):
    # On the true grid a passing down gap implies a passing up gap, so a gap
    # query that misreports one side is what shows each check is made.  The
    # misreported gap is the given one on the query's scale, so it need not
    # be an integer.
    w = porosity_witness(F(2), 1, F(1, 3), F(1, 10))
    top = 3**w.order
    down_bound, up_bound = w.lam / top, (1 - w.lam) / top
    s = w.anchor + w.hole_width / 2
    num, den = s.numerator, s.denominator
    for down, up in ((down_bound, up_bound), (down_bound + F(1, 10**9), up_bound),
                     (down_bound, up_bound - F(1, 10**9)), (None, up_bound)):
        def gaps(t_num, t_den, n, down=down, up=up):
            return tuple(None if gap is None else gap * t_den for gap in (up, down))

        monkeypatch.setattr("laakso.constructions._gaps", gaps)
        if (down, up) == (down_bound, up_bound):
            assert w.certify([num], den) == [(num, down * top * den, up * top * den)]
        else:
            with pytest.raises(RuntimeError, match="hole certificate failed"):
                w.certify([num], den)


def _certify_per_height(w, nums, den):
    """The reference for `PorosityWitness.certify`: both grid indices of
    every height looked up in the grid kernel."""
    if den < 1:
        raise ValueError("the heights' denominator must be positive")
    top = 3**w.order
    a, b = w.anchor.numerator, w.anchor.denominator
    p, q = w.hole_width.numerator, w.hole_width.denominator
    lo = a * den // b
    hi = -(-(a * q + p * b) * den // (b * q))
    lp, lq = w.lam.numerator, w.lam.denominator
    down_cap, up_floor = lp * den, (lq - lp) * den
    records = []
    for num in nums:
        if not lo < num < hi:
            raise ValueError(f"{F(num, den)} is outside the hole")
        scaled = num * top
        below = _grid_index(top, scaled - 1, den)[0]
        above = _grid_index(top, scaled + 1, den)[1]
        down = None if below is None else scaled - below * den
        up = None if above is None else above * den - scaled
        if down is None or down * lq > down_cap or (up is not None and up * lq < up_floor):
            raise RuntimeError(f"hole certificate failed at {F(num, den)}")
        records.append((num, down, up))
    return records


@pytest.mark.parametrize("seed", range(8))
def test_porosity_certificate_per_cell_matches_per_height(seed):
    # Differential check of the one-lookup-per-cell loop against the
    # per-height loop: the seeded holes of check_porosity and the hole above
    # 26/27 (no upper wormhole), each with its heights in order and
    # shuffled; widened to lam = 5/2 (the bound -8/5, as lam is
    # 1 / (bound + 2)), so the heights cross grid heights and land on some
    # (of 199 samples, the 80th and 160th; the 40th and 120th once moved);
    # and moved half a grid step off its anchor, alone and widened.
    rng = random.Random(seed)
    holes = [w for w, _ in _porosity_cases(seed)]
    holes.append(porosity_witness(F(2), 1, F(26, 27), F(1, 10)))
    on_wormhole = 0
    for w in holes:
        moved = replace(w, anchor=w.anchor + F(1, 2 * 3**w.order))
        for hole, count in ((w, 1000), (replace(w, bound=F(-8, 5)), 199), (moved, 199),
                            (replace(moved, bound=F(-8, 5)), 199)):
            assert hole.lam in (w.lam, F(5, 2))
            nums, den = hole.samples(count)
            shuffled = list(nums)
            rng.shuffle(shuffled)
            for heights in (nums, shuffled):
                expected = _outcome(_certify_per_height, hole, heights, den)
                assert _outcome(hole.certify, heights, den) == expected
            top = 3**hole.order
            on_wormhole += sum(num * top % den == 0 and wormhole_order(F(num, den)) == hole.order
                               for num in nums)
    assert on_wormhole


def test_certify_looks_up_once_per_grid_cell(monkeypatch):
    # Every hole check_porosity certifies lies inside one grid cell, so its
    # 1000 heights cost one gap query (one kernel lookup on each side).
    calls = []
    query = cons._gaps
    monkeypatch.setattr("laakso.constructions._gaps", lambda *args: calls.append(args) or query(*args))
    for seed in range(8):
        calls.clear()
        assert all(r.passed for r in check_porosity(seed=seed))
        assert len(calls) == 20


def test_check_porosity_sample_heights(monkeypatch):
    # The heights check_porosity certifies are exactly
    # anchor + hole_width * i / (N + 1), i = 1..N, in order: with anchor =
    # a / b and hole_width = p / q, the i-th is (a*q*1001 + p*b*i) / (b*q*1001)
    # on the hole's scale, compared with num / den by cross-multiplying.
    seen = []
    monkeypatch.setattr(PorosityWitness, "certify", lambda w, nums, den: seen.append((w, list(nums), den)))
    for seed in range(8):
        seen.clear()
        rows = check_porosity(seed=seed)
        assert all(r.passed for r in rows)
        assert len(seen) == 20
        for w, nums, den in seen:
            a, b = w.anchor.numerator, w.anchor.denominator
            p, q = w.hole_width.numerator, w.hole_width.denominator
            scale = b * q * 1001
            assert [n * scale for n in nums] == [(a * q * 1001 + p * b * i) * den for i in range(1, 1001)]


def test_porosity_witness_validation():
    with pytest.raises(ValueError):
        porosity_witness(F(1), 1, F(1, 3), F(1, 10))
    with pytest.raises(ValueError):
        porosity_witness(F(2), 1, F(0), F(1, 10))
    for start in (0, -3):  # orders start at 1, as in gap_ratio_probe
        with pytest.raises(ValueError, match="start_level"):
            porosity_witness(F(3), start, F(1, 3), F(1, 10))
    w = porosity_witness(F(2), 1, F(1, 3), F(1, 10))
    with pytest.raises(ValueError):
        w.certify([w.anchor.numerator], w.anchor.denominator)  # boundary is not inside the open hole
    for count in (0, -1):  # -1 would give the denominator 0
        with pytest.raises(ValueError, match="at least one sample"):
            w.samples(count)


def test_maximality_verdict_frozen():
    mv = maximality_verdict(point(UNBALANCED, "0"), F(3), 2, 32)
    assert mv.verdict == "not-in-M"
    assert mv.witness is not None
    assert set(mv.witness.jump_quotients()) == {F(1, 2)}
    ok = maximality_verdict(point("1/3", "0"), F(2), 2, 12)
    assert ok.verdict == "in-M-consistent" and ok.witness is None


def test_maximality_verdict_monotone():
    x = point(UNBALANCED, "0")
    first = maximality_verdict(x, F(3), 2, 8)
    assert first.verdict == "not-in-M"
    for depth in (16, 32):
        again = maximality_verdict(x, F(3), 2, depth)
        assert again.verdict == "not-in-M"
        assert again.probe.violated_at == first.probe.violated_at

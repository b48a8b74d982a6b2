import random
from fractions import Fraction as F

import pytest

from laakso.calculus import (
    PointFunction,
    difference_quotient,
    differentiability_probe,
    directional_derivative,
    triadic_schedule,
)
from laakso.core import CantorAddress, LaaksoPoint, canonicalize, point

SCHEDULE = triadic_schedule(1, 6)


def test_triadic_schedule():
    assert triadic_schedule(1, 3) == [F(1, 3), F(1, 9), F(1, 27)]
    with pytest.raises(ValueError):
        triadic_schedule(3, 2)


def test_difference_quotient_height_and_constant():
    h = PointFunction.height()
    c = PointFunction(lambda p: F(7, 3))
    x = point("2/5", "01")
    for t in (F(1, 9), -F(1, 9), F(1, 100)):
        assert difference_quotient(h, x, t) == 1
        assert difference_quotient(c, x, t) == 0
    with pytest.raises(ValueError):
        difference_quotient(h, x, F(0))
    with pytest.raises(ValueError):
        difference_quotient(h, x, F(2, 3))  # leaves [0, 1]
    with pytest.raises(TypeError, match="float"):
        difference_quotient(h, x, 0.5)


def test_difference_quotient_distance_to_self():
    x = point("2/5", "01")
    f = PointFunction.distance_to(x)
    for t in (F(1, 27), F(1, 9)):
        assert difference_quotient(f, x, t) == 1
        assert difference_quotient(f, x, -t) == -1  # moving away below


def test_difference_quotient_linearity():
    f = PointFunction.height()
    g = PointFunction.distance_to(point("1/2", "0"))
    combo = PointFunction(lambda p: F(2, 3) * f(p) + F(-5, 7) * g(p))
    x = point("1/4", "10")
    rng = random.Random(41)
    for _ in range(40):
        t = F(rng.randint(1, 20), 81) * rng.choice((1, -1))
        if not (0 <= x.height + t <= 1):
            continue
        lhs = difference_quotient(combo, x, t)
        rhs = F(2, 3) * difference_quotient(f, x, t) + F(-5, 7) * difference_quotient(g, x, t)
        assert lhs == rhs


def test_distance_quotients_unit_bounded():
    rng = random.Random(42)
    p = point("4/9", "01")
    f = PointFunction.distance_to(p)
    for _ in range(200):
        den = rng.randint(2, 81)
        x = LaaksoPoint(F(rng.randint(1, den - 1), den), CantorAddress("".join(rng.choice("01") for _ in range(3))))
        t = F(rng.choice((1, -1)), rng.randint(3, 81))
        if not (0 <= x.height + t <= 1):
            continue
        q = difference_quotient(f, x, t)
        assert -1 <= q <= 1


def test_directional_derivative_height():
    report = directional_derivative(PointFunction.height(), point("1/2", "0"), SCHEDULE)
    assert report.verdict == "exists" and report.value == 1
    # at a wormhole both branches are probed and agree
    report = directional_derivative(PointFunction.height(), point("1/3", "0"), SCHEDULE)
    assert report.verdict == "exists" and report.value == 1
    assert report.left_limit == report.right_limit == 1


def test_directional_derivative_one_sided_at_boundary():
    report = directional_derivative(PointFunction.height(), point("0", "01"), SCHEDULE)
    assert report.verdict == "exists" and report.value == 1
    report = directional_derivative(PointFunction.height(), point("1", "01"), SCHEDULE)
    assert report.verdict == "exists" and report.value == 1


def test_directional_derivative_split_at_wormhole():
    # slope +1 along the canonical branch, -1 along the glued branch,
    # pinned to 0 at the wormhole so each branch limit exists on its own
    def raw(p):
        sign = -1 if p.address.mask & 1 else 1
        return sign * (p.height - F(1, 3))

    f = PointFunction(raw)
    report = directional_derivative(f, point("1/3", "0"), triadic_schedule(2, 6))
    assert report.verdict == "split"
    assert report.left_limit == 1 and report.right_limit == -1


def test_directional_derivative_divergent():
    # d_p on the far branch of the wormhole below p bends at the wormhole
    p = point("1/2", "00")
    f = PointFunction.distance_to(p)
    report = directional_derivative(f, point("1/3", "1"), SCHEDULE)
    assert report.verdict == "divergent"


def test_differentiability_probe_height_linear():
    f = PointFunction.height()
    x = point("1/2", "0")
    rng = random.Random(43)
    pool = []
    for _ in range(60):
        den = rng.randint(2, 81)
        pool.append(
            LaaksoPoint(
                F(rng.randint(1, den - 1), den),
                CantorAddress("".join(rng.choice("01") for _ in range(2))),
            )
        )
    report = differentiability_probe(f, x, 1, pool)
    assert report.sup_ratio == 0
    with pytest.raises(ValueError):
        differentiability_probe(f, x, 1, [x])


def test_differentiability_probe_tie_break_deterministic():
    f = PointFunction.height()
    x = point("1/2", "0")
    pool = [point("1/2", "1"), point("1/2", "01")]
    r1 = differentiability_probe(f, x, 0, pool)
    r2 = differentiability_probe(f, x, 0, list(reversed(pool)))
    assert r1.worst_witness == r2.worst_witness


def test_point_function_respects_gluing():
    rng = random.Random(44)
    f = PointFunction(lambda p: F(p.address.mask))  # raw map is gluing sensitive
    for _ in range(1000):
        n = rng.randint(1, 5)
        grid = rng.randrange(1, 3**n)
        if grid % 3 == 0:
            continue
        h = F(grid, 3**n)
        bits = "".join(rng.choice("01") for _ in range(n))
        p = LaaksoPoint(h, CantorAddress(bits))
        q = LaaksoPoint(h, p.address.flipped(n))
        assert f(p) == f(q)  # canonical evaluation makes it well defined
        assert f(p) == f(canonicalize(p))

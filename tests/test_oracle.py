import random
from fractions import Fraction as F

import pytest

from laakso.core import point, point_key, same_point
from laakso.metric import distance
from laakso.oracle import (
    DIMENSION,
    ball_measure,
    build_level_graph,
    graph_distance,
    graph_distance_map,
    regularity_scan,
    total_cell_mass,
)


def test_vertex_counts():
    assert build_level_graph(1).vertex_count == 8
    assert build_level_graph(2).vertex_count == 40
    assert build_level_graph(3).vertex_count == 224
    with pytest.raises(ValueError):
        build_level_graph(0)
    with pytest.raises(ValueError):
        build_level_graph(9)


def test_zero_edges_m1():
    g = build_level_graph(1)
    glued = {F(k, 3) for k in range(1, 3) if g.zero_partner(k, 0) is not None}
    assert glued == {F(1, 3), F(2, 3)}
    # every interior height carries a gluing at m=2 (orders 1 and 2 combined)
    g2 = build_level_graph(2)
    assert all(g2.zero_partner(k, 0) is not None for k in range(1, 9))
    assert g2.level_of_k[3] == 1 and g2.level_of_k[4] == 2


def test_representability():
    g = build_level_graph(3)
    with pytest.raises(ValueError):
        g.point_vertex(point("1/2", "0"))
    with pytest.raises(ValueError):
        g.point_vertex(point("1/3", "0111"))
    # deeper all-zero tails name the same grid point
    assert g.point_vertex(point("1/3", "0110000")) == g.point_vertex(point("1/3", "011"))


def test_graph_distance_examples():
    g1 = build_level_graph(1)
    assert graph_distance(g1, point("1/3", "0"), point("1/3", "1")) == 0
    g2 = build_level_graph(2)
    x, y = point("4/9", "00"), point("4/9", "11")
    assert graph_distance(g2, x, y) == distance(x, y) == F(2, 9)


def test_oracle_matches_metric_random():
    g = build_level_graph(3)
    rng = random.Random(31)
    for _ in range(150):
        x = g.vertex_point(rng.randrange(g.vertex_count))
        y = g.vertex_point(rng.randrange(g.vertex_count))
        assert graph_distance(g, x, y) == distance(x, y)


def test_zero_classes_match_canonical_equality():
    g = build_level_graph(2)
    pts = [g.vertex_point(v) for v in range(g.vertex_count)]
    for i, x in enumerate(pts):
        dmap = graph_distance_map(g, x)
        for j in range(i + 1, len(pts)):
            y = pts[j]
            assert (dmap[g.point_vertex(y)] == 0) == same_point(x, y)


def test_total_and_cell_mass():
    for m in (1, 2, 3, 4):
        g = build_level_graph(m)
        assert total_cell_mass(g) == 1
        # one address column has mass 2**-m, matching (3**-m) ** (DIMENSION-1)
        assert 3**m * g.cell_mass == F(1, 2**m)
        assert abs((3.0**-m) ** (DIMENSION - 1) - 2.0**-m) < 1e-12


def test_ball_measure_bounds_and_monotonicity():
    g = build_level_graph(5)
    center = point("1/3", "00000")
    est = ball_measure(g, center, F(1, 9))
    assert 0 < est.mass < 1
    assert 0.1 < est.ratio < 10
    masses = [ball_measure(g, center, r).mass for r in (F(1, 27), F(1, 9), F(1, 3))]
    assert masses == sorted(masses)
    assert ball_measure(g, center, F(1)).mass == 1  # whole space
    with pytest.raises(ValueError):
        ball_measure(g, center, F(1, 3**6))


def test_regularity_scan_shape_and_determinism():
    empty = regularity_scan(4, 5, [])
    assert empty.estimates == () and empty.spread is None
    r1 = regularity_scan(4, 6, [F(1, 9), F(1, 27)], seed=9)
    r2 = regularity_scan(4, 6, [F(1, 9), F(1, 27)], seed=9)
    assert [e.csv_row() for e in r1.estimates] == [e.csv_row() for e in r2.estimates]
    assert r1.spread >= 1
    keys = [(e.center.height, e.center.address.bits, e.radius) for e in r1.estimates]
    assert keys == sorted(keys)
    with pytest.raises(ValueError):
        regularity_scan(4, 3, [F(1, 2)])


def test_regularity_scan_sample_limit():
    # 2**(m-1) * (3**m + 3) distinct grid points: 24 at m = 2
    assert len(regularity_scan(2, 24, [F(1, 3)]).estimates) == 24
    with pytest.raises(ValueError):
        regularity_scan(2, 25, [F(1, 3)])


def test_distinct_grid_point_count():
    for m in range(1, 6):
        g = build_level_graph(m)
        keys = {point_key(g.vertex_point(v)) for v in range(g.vertex_count)}
        assert len(keys) == 2 ** (m - 1) * (3**m + 3)

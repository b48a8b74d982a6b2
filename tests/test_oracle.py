import heapq
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laakso import oracle
from laakso.core import InternalError, point, point_key, same_point
from laakso.metric import distance
from laakso.oracle import (
    DIMENSION,
    _dijkstra,
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
    glued = {F(k, 3) for k in range(0, 4) if g.flips[k]}
    assert glued == {F(1, 3), F(2, 3)}
    # every interior height carries a gluing at m=2 (orders 1 and 2 combined)
    g2 = build_level_graph(2)
    assert all(g2.flips[k] for k in range(1, 9)) and g2.flips[0] == g2.flips[9] == 0
    # 3/9 has wormhole order 1 and 4/9 order 2: their gluings flip bits 1 and 2
    assert g2.flips[3] == 1 << 0 and g2.flips[4] == 1 << 1


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


_GRAPHS = {m: build_level_graph(m) for m in range(1, 5)}


def _grid_points(m):
    """Points of the level-m graph: heights k/3**m, addresses of <= m bits."""
    return st.builds(
        lambda k, bits: point(F(k, 3**m), bits), st.integers(0, 3**m), st.text("01", max_size=m)
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), _grid_points(m), _grid_points(m))))
def test_distance_matches_graph_distance_on_drawn_points(case):
    # The interval formula against the graph search, with shrinking, on
    # grid points at every resolution up to 4.
    m, x, y = case
    assert distance(x, y) == graph_distance(_GRAPHS[m], x, y)


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
    # A radius is an exact rational; a float is refused, not rounded.
    assert ball_measure(g, center, "1/9") == est
    with pytest.raises(TypeError, match="float"):
        ball_measure(g, center, 0.1)


def test_regularity_scan_shape_and_determinism():
    empty = regularity_scan(4, 5, [])
    assert empty.estimates == () and empty.spread is None
    r1 = regularity_scan(4, 6, [F(1, 9), F(1, 27)], seed=9)
    r2 = regularity_scan(4, 6, [F(1, 9), F(1, 27)], seed=9)
    assert r1.estimates == r2.estimates and r1.spread == r2.spread
    assert r1.spread >= 1
    keys = [(e.center.height, e.center.address.bits, e.radius) for e in r1.estimates]
    assert keys == sorted(keys)
    with pytest.raises(ValueError):
        regularity_scan(4, 3, [F(1, 2)])
    with pytest.raises(TypeError, match="float"):
        regularity_scan(5, 2, [0.1])


def test_regularity_scan_sample_limit():
    # 2**(m-1) * (3**m + 3) distinct grid points: 24 at m = 2
    assert len(regularity_scan(2, 24, [F(1, 3)]).estimates) == 24
    with pytest.raises(ValueError):
        regularity_scan(2, 25, [F(1, 3)])
    assert regularity_scan(2, 0, [F(1, 3)]).estimates == ()
    for radii in ([F(1, 9), F(1, 27)], []):
        with pytest.raises(ValueError, match="negative"):
            regularity_scan(5, -1, radii)


def test_distinct_grid_point_count():
    for m in range(1, 6):
        g = build_level_graph(m)
        keys = {point_key(g.vertex_point(v)) for v in range(g.vertex_count)}
        assert len(keys) == 2 ** (m - 1) * (3**m + 3)


def _heap_dijkstra(g, source, cutoff=None):
    """Reference search: a binary-heap Dijkstra over the same edges, the
    0-edge of each interior row read from `flips`, settling every vertex
    (every vertex within `cutoff`, if one is given)."""
    two_m, top = 2**g.m, 3**g.m
    dist = [None] * g.vertex_count
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if cutoff is not None and d > cutoff:
            break
        if dist[v] is not None:
            continue
        dist[v] = d
        k, a = divmod(v, two_m)
        edges = [(k - 1, a, 1), (k + 1, a, 1)]
        if 0 < k < top:
            edges.append((k, a ^ g.flips[k], 0))
        for kw, aw, weight in edges:
            if 0 <= kw <= top and dist[kw * two_m + aw] is None:
                heapq.heappush(heap, (d + weight, kw * two_m + aw))
    return dist


def test_search_matches_heap_dijkstra_at_every_cutoff():
    for m in (1, 2, 3):
        g = build_level_graph(m)
        for source in range(g.vertex_count):
            ref = _heap_dijkstra(g, source)
            assert list(_dijkstra(g, source)) == ref
            for cutoff in range(3**m + 1):
                want = [d if d <= cutoff else None for d in ref]
                assert list(_dijkstra(g, source, cutoff=cutoff)) == want


def test_search_matches_heap_dijkstra_at_workload_resolutions():
    # The ball scans run at m = 6 and 7 and the distance pairs at m = 5
    # and 6: seeded sources, cutoffs at the scan radii, seeded targets.
    rng = random.Random(46)
    for m, sources in ((4, 3), (5, 3), (6, 2)):
        g = build_level_graph(m)
        top = 3**m
        for _ in range(sources):
            source = rng.randrange(g.vertex_count)
            ref = _heap_dijkstra(g, source)
            for cutoff in (0, 1, top // 81, top // 27, top // 9, None):
                want = [d if cutoff is None or d <= cutoff else None for d in ref]
                assert list(_dijkstra(g, source, cutoff=cutoff)) == want, (m, source, cutoff)
            for _ in range(4):
                target = rng.randrange(g.vertex_count)
                want = [d if d <= ref[target] else None for d in ref]
                assert list(_dijkstra(g, source, target=target)) == want, (m, source, target)


def test_search_result_reads_as_one_entry_per_vertex():
    # Indexing, iteration and `count` of the per-level row bitsets agree
    # with the dense reference, entry by entry.
    g = build_level_graph(4)
    source = g.vertex(40, 5)
    cutoff = 9
    want = [d if d <= cutoff else None for d in _heap_dijkstra(g, source)]
    result = _dijkstra(g, source, cutoff=cutoff)
    assert len(result) == g.vertex_count
    assert [result[v] for v in range(g.vertex_count)] == list(result) == want
    for value in (None, 0, 3, cutoff, cutoff + 1):
        assert result.count(value) == want.count(value)
    with pytest.raises(IndexError):
        result[g.vertex_count]


def test_graph_automorphisms_and_row_table():
    # XOR of both addresses with one mask, and the height reflection
    # k -> 3**m - k, map the level graph onto itself; `row_distances`
    # reads every pair off one search per row through the first.
    for m in (1, 2, 3):
        g = build_level_graph(m)
        two_m, top = 2**m, 3**m
        vertices = range(g.vertex_count)
        full = [list(_dijkstra(g, v)) for v in vertices]
        for mask in range(two_m):
            assert all(full[u ^ mask][v ^ mask] == full[u][v] for u in vertices for v in vertices)
        mirror = [(top - k) * two_m + a for k in range(top + 1) for a in range(two_m)]
        assert all(full[mirror[u]][mirror[v]] == full[u][v] for u in vertices for v in vertices)
        rows = oracle.row_distances(g)
        assert len(rows) == top + 1
        for u in vertices:
            k, a = divmod(u, two_m)
            assert [rows[k][v ^ a] for v in vertices] == full[u]


def test_search_with_target_settles_only_what_it_needs():
    g = build_level_graph(3)
    for source in range(0, g.vertex_count, 5):
        ref = _heap_dijkstra(g, source)
        for target in range(0, g.vertex_count, 3):
            dist = _dijkstra(g, source, target=target)
            assert dist[target] == ref[target]
            # Only vertices no farther than the target are settled, exactly.
            assert all(d is None or (d == ref[v] and d <= ref[target]) for v, d in enumerate(dist))


def test_graph_distance_early_exit_matches_distance_map():
    g = build_level_graph(2)
    pts = [g.vertex_point(v) for v in range(g.vertex_count)]
    for x in pts:
        dmap = graph_distance_map(g, x)
        for v, y in enumerate(pts):
            assert graph_distance(g, x, y) == dmap[v]


def test_graph_distance_unreachable_is_internal_error(monkeypatch):
    g = build_level_graph(2)
    monkeypatch.setattr(oracle, "_dijkstra", lambda g, source, **kw: [None] * g.vertex_count)
    with pytest.raises(InternalError, match="unreachable"):
        graph_distance(g, point("1/3", "0"), point("2/3", "1"))


def test_ball_measure_matches_scan_rows():
    for m, seed in ((3, 1), (4, 2), (5, 3)):
        radii = [F(1, 3 ** (m - 1)), F(1, 9), F(5, 27), F(1, 3)]
        g = build_level_graph(m)
        report = regularity_scan(m, 8, radii, seed=seed)
        assert len(report.estimates) == 8 * len(radii)
        for e in report.estimates:
            assert ball_measure(g, e.center, e.radius) == e


def test_ball_measure_matches_heap_dijkstra_count():
    g = build_level_graph(3)
    cells = 3**g.m * 2**g.m
    for source in range(0, g.vertex_count, 3):
        ref = _heap_dijkstra(g, source)
        center = g.vertex_point(source)
        for r in (F(1, 27), F(2, 27), F(1, 9), F(4, 27), F(1, 3), F(1)):
            count = sum(1 for d in ref[:cells] if d <= r * 27)
            assert ball_measure(g, center, r).mass == count * g.cell_mass


def test_ball_measure_matches_heap_dijkstra_at_scan_resolutions():
    # The popcount histogram against per-vertex counts of the heap
    # reference, at the resolutions and radii of the ball scans.
    rng = random.Random(15)
    for m, centers in ((5, 4), (6, 2)):
        g = build_level_graph(m)
        cells = 3**m * 2**m
        for _ in range(centers):
            source = rng.randrange(g.vertex_count)
            ref = _heap_dijkstra(g, source, cutoff=3**m // 9)
            center = g.vertex_point(source)
            for r in (F(1, 9), F(1, 27), F(1, 81)):
                count = sum(1 for d in ref[:cells] if d is not None and d <= r * 3**m)
                assert ball_measure(g, center, r).mass == count * g.cell_mass, (m, source, r)


def test_ball_masses_match_settled_counts_at_every_radius():
    # Every radius d / 3**m, d = 0..3**m, and one between each two, from one
    # scan of the search's levels, against a count over the dense result
    # of the full search on rows < 3**m.  Centers in rows 0, 1, 3**m - 1
    # and 3**m (their balls reach the top row, whose vertices are not
    # cells) and seeded ones; radii past the farthest vertex read the
    # whole ball.
    rng = random.Random(36)
    for m in range(2, 8):
        g = build_level_graph(m)
        two_m, top = 2**m, 3**m
        rows = [0, 1, top - 1, top] + [rng.randrange(top + 1) for _ in range(2 if m < 7 else 1)]
        radii = sorted({F(d, top) for d in range(top + 1)} | {F(2 * d + 1, 2 * top) for d in range(top)})
        for k in rows:
            source = g.vertex(k, rng.randrange(two_m))
            dense = list(_dijkstra(g, source))
            settled = [0] * (top + 1)
            for d in dense[: top * two_m]:
                settled[d] += 1
            for d in range(1, top + 1):
                settled[d] += settled[d - 1]
            estimates = oracle._ball_estimates(g, g.vertex_point(source), radii)
            assert [e.radius for e in estimates] == radii
            want = [settled[int(r * top)] * g.cell_mass for r in radii]
            assert [e.mass for e in estimates] == want, (m, source)
            if k >= top - 1:  # the smallest balls already hold top-row vertices
                assert any(d <= 1 for d in dense[top * two_m :])

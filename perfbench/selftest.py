"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from compare import values  # noqa: E402
from stats import highest_percentile, quartiles, tail, verdict  # noqa: E402
from tracing import LAYERS, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, digest, universe_hash  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_universe_is_fixed_and_matches_golden(name):
    w = WORKLOADS[name]
    universe = w.universe()
    assert universe == w.universe()
    header = (HERE / "golden" / f"{name}.txt").read_text().splitlines()[0]
    assert header == f"# universe {universe_hash(universe)} {len(universe)}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_is_determined_by_seed(name):
    w = WORKLOADS[name]
    universe = w.universe()

    def first(seed, n=5):
        return list(itertools.islice(w.rounds(seed, universe), n))

    assert first(7) == first(7)
    assert first(7) != first(8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rounds_have_fixed_composition(name):
    w = WORKLOADS[name]
    universe = w.universe()
    shapes = set()
    for batch in itertools.islice(w.rounds(3, universe), 6):
        shapes.add(tuple(sorted(Counter(universe[i].kind.split(".")[0] for i in batch).items())))
    assert len(shapes) == 1


def test_digest_covers_exit_code_and_output():
    assert digest(0, "a") != digest(1, "a")
    assert digest(0, "a") != digest(0, "b")


# -- percentile and tail ------------------------------------------------------


def test_tail_percentile_interpolates_and_counts_samples_beyond():
    values = list(range(1, 101))
    assert tail(values, 90) == (pytest.approx(90.1), 10)
    assert tail(values[::-1], 50) == (50.5, 50)
    assert tail([5.0], 99) == (5.0, 0)


def test_highest_percentile_keeps_ten_samples_beyond():
    assert highest_percentile(100) == 90
    assert highest_percentile(99) == 75
    assert highest_percentile(1000) == 99
    assert highest_percentile(19) == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tail_percentile_had_ten_samples_beyond_at_baseline(name):
    runs = [json.loads(line) for line in (HERE / "baseline" / "results.jsonl").read_text().splitlines()[1:]]
    counts = [r["detail"]["latency_samples_beyond_tail"] for r in runs if r["workload"] == name]
    assert counts and min(counts) >= 10
    assert all(r["detail"]["latency_tail_percentile"] == WORKLOADS[name].tail_percentile
               for r in runs if r["workload"] == name)


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert list(quartiles(values)) == statistics.quantiles(values, n=4)


# -- compare rule -------------------------------------------------------------


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread():
    faster = [v * 0.9 for v in PARENT]
    assert verdict(PARENT, faster, "lower", 0.1)["verdict"] == "gain"
    # 8 of 10 wins is not enough.
    mixed = faster[:8] + [PARENT[8] + 1, PARENT[9] + 1]
    r = verdict(PARENT, mixed, "lower", 0.1)
    assert r["wins"] == 8 and r["verdict"] == "within-bound"
    # Ties count for neither side.
    tied = PARENT[:2] + faster[2:]
    assert verdict(PARENT, tied, "lower", 0.1)["wins"] == 8


def test_gain_needs_ten_pairs():
    assert verdict(PARENT[:9], [v * 0.9 for v in PARENT[:9]], "lower", 0.1)["verdict"] == "within-bound"


def test_gain_needs_medians_apart_by_more_than_parent_spread():
    tiny = [v - 0.1 for v in PARENT]
    assert verdict(PARENT, tiny, "lower", 0.1)["verdict"] == "within-bound"


def test_higher_is_better_metrics():
    assert verdict(PARENT, [v * 1.2 for v in PARENT], "higher", 0.1)["verdict"] == "gain"
    assert verdict(PARENT, [v * 0.8 for v in PARENT], "higher", 0.1)["verdict"] == "regression"


def test_regression_beyond_bound():
    assert verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.1)["verdict"] == "regression"
    assert verdict(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1)["verdict"] == "within-bound"


def test_unresolved_when_parent_spread_exceeds_bound():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    same = list(noisy)
    assert verdict(noisy, same, "lower", 0.1)["verdict"] == "unresolved"
    # Unless every change run beats every parent run.
    assert verdict(noisy, [v / 3 for v in [50.0] * 10], "lower", 0.1)["verdict"] == "gain"


def test_compare_reads_raw_figures_from_the_detail_line():
    rec = {"result": {"metrics": {"ops_per_s": {"value": 10.0}, "peak_rss_mb": {"value": 30.0}}},
           "detail": {"raw": {"ops_per_s": 7.0}}}
    runs = {("w", 1): rec}
    assert values(runs, "w", "ops_per_s", [1]) == [10.0]
    assert values(runs, "w", "ops_per_s", [1], raw=True) == [7.0]
    assert values(runs, "w", "peak_rss_mb", [1], raw=True) == [30.0]


# -- the contract ---------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_runs_print():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (n, u, b) for n, (u, b) in PER_LAYER.items()
    ]
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert names == ["setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == SPEC["end_to_end"][0]["bound"]
    assert {m["name"].split(".")[0] for m in SPEC["per_layer"]} == set(LAYERS)


# -- tracer -------------------------------------------------------------------


def _library():
    sys.path.insert(0, str(ROOT / "src"))
    import laakso.cli  # noqa: F401  (imports every layer)

    return sys.modules


def test_tracer_counts_layer_calls_and_restores_originals():
    _library()
    from laakso import cli, core, metric

    original = metric.distance
    x, y = core.point("1/2", "0"), core.point("1/2", "1")
    t = Tracer()
    t.install()
    try:
        assert metric.distance is not original and cli.distance is metric.distance
        t.begin_op(0, "op.test")
        metric.distance(x, y)
        t.end_op()
    finally:
        t.uninstall()
    assert metric.distance is original and cli.distance is original
    assert t.calls["metric.distance"] == 1 and t.calls["core.canonicalize"] > 0
    m = t.metrics(1, 0)
    assert list(m) == list(PER_LAYER)
    assert m["metric.distance_calls"] == 1 and m["metric.distance_us"] > 0
    assert m["core.self_s"] > 0 and m["oracle.self_s"] == 0
    # A function never called is missing, not 0.
    assert m["oracle.search_ms"] is None and m["profiles.profile_ms"] is None
    # Spans: the op, then metric under it, then core under metric.
    names = [t.names[i] for i in t.span_name]
    assert names[0] == "op.test" and t.span_parent[1] == 0
    assert names[1] == "metric.distance"
    assert all(p == 1 for p in t.span_parent[2:])
    assert t.span_count == len(names) and all(e >= s for s, e in zip(t.span_start, t.span_end))


def test_tracer_counts_vertices_the_search_settles():
    _library()
    from fractions import Fraction

    from laakso import oracle

    g = oracle.build_level_graph(3)
    x, y = g.vertex_point(0), g.vertex_point(g.vertex_count - 1)
    t = Tracer()
    t.install()
    try:
        t.begin_op(0, "op.full")
        oracle.graph_distance(g, x, y)  # no cutoff: settles every vertex
        t.end_op()
        full = t.metrics(1, 0)["oracle.vertices_per_search"]
        t.begin_op(1, "op.ball")
        oracle.ball_measure(g, x, Fraction(1, 9))  # stops at the radius
        t.end_op()
    finally:
        t.uninstall()
    assert full == g.vertex_count
    assert t.counts["search_runs"] == 2 and t.counts["search_vertices"] < 2 * g.vertex_count


def test_tracer_refuses_to_install_when_a_counted_function_is_gone(monkeypatch):
    modules = _library()
    monkeypatch.delattr(modules["laakso.oracle"], "_dijkstra")
    with pytest.raises(RuntimeError, match="oracle._dijkstra"):
        Tracer().install()


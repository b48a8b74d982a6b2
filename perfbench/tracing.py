"""Layer tracing of the laakso package, installed from outside it.

`Tracer.install` wraps every public function of each layer (the functions a
module lists in `__all__`, plus the public methods in `METHODS` and the
private helpers in `HELPERS`) and rebinds the wrapper under every name that
refers to the function in any `laakso.*` namespace, since modules import
each other's functions by name.  `Tracer.uninstall` puts the originals back.

Every wrapped call is counted and timed.  A call that crosses from one layer
into another (or from the benchmark into a layer) opens a *span*: name,
start, end, parent span and the id of the op that caused it.  Every span is
kept in memory, in compact columns, and written out by `write_spans`.  A
layer's self time is the time its spans cover minus the time covered by
their child spans in other layers; calls inside one layer open no span, so
their time stays with the layer's own span.

Work counts are read off the calls that do the work (see `HOOKS`).  Every
function named in `GROUPS`, `HOOKS` and `HELPERS` must exist: when the
library renames one, `install` fails instead of letting its metrics read 0.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

PACKAGE = "laakso"
LAYERS = ("core", "metric", "oracle", "profiles", "constructions", "calculus", "verify", "cli")
BENCH = len(LAYERS)  # layer index of the benchmark's own op spans

METHODS = (
    ("constructions", "SampledFunction", "verify_lipschitz"),
    ("constructions", "PorosityWitness", "certify"),
)

# Private helpers wrapped for their work counts: the oracle's single-source
# search, behind graph_distance, graph_distance_map and ball_measure.
HELPERS = (("oracle", "_dijkstra"),)

# A call nested inside another call of the same group is counted and timed
# only once, as part of the outer call.
GROUPS = {
    "core.nearest_wormhole_gap": "gap",
    "core.wormhole_above": "gap",
    "core.wormhole_below": "gap",
    "metric.distance": "distance",
    "metric.synthesize_geodesic": "geodesic",
    "profiles.profile_distance_on_line": "profile",
    "oracle.graph_distance": "search",
    "oracle.graph_distance_map": "search",
    "oracle.ball_measure": "search",
    "constructions.build_flat_nondifferentiable": "witness",
    "constructions.build_steep_nondifferentiable": "witness",
    "constructions.build_one_sided_steep": "witness",
    "constructions.porosity_witness": "witness",
}


# Hooks read work counts off a call's arguments and result.
def _enumerated(t, args, result, dur):
    t.counts["enumerated_heights"] += len(result)


def _intervals(t, args, result, dur):
    t.counts["intervals"] += len(result)


def _distance(t, args, result, dur):
    if t.depth["profile"]:
        t.counts["profile_evals"] += 1


def _profile(t, args, result, dur):
    order = max(args[1].levels, default=0)
    t.counts["profile_kinks"] += len(result.kinks)
    t.counts[f"profile_ns.{order}"] += dur
    t.counts[f"profile_calls.{order}"] += 1


def _settled(t, args, result, dur):
    # The search returns one entry per vertex, None where it never settled.
    t.counts["search_runs"] += 1
    t.counts["search_vertices"] += len(result) - result.count(None)


def _scan(t, args, result, dur):
    m = args[0]
    t.counts[f"scan_ns.{m}"] += dur
    t.counts[f"scan_balls.{m}"] += len(result.estimates)


def _lipschitz(t, args, result, dur):
    n = len(args[0].samples)
    t.counts["lipschitz_pairs"] += n * (n - 1) // 2


def _certify(t, args, result, dur):
    t.counts["certified_heights"] += len(result)


def _suite(t, args, result, dur):
    t.counts[f"suite_ns.{args[0]}"] += dur
    t.counts[f"suite_calls.{args[0]}"] += 1
    t.counts["checks"] += len(result)


HOOKS: Dict[str, Callable] = {
    "core.enumerate_wormhole_heights": _enumerated,
    "metric.minimal_height_intervals": _intervals,
    "metric.distance": _distance,
    "profiles.profile_distance_on_line": _profile,
    "oracle._dijkstra": _settled,
    "oracle.regularity_scan": _scan,
    "constructions.SampledFunction.verify_lipschitz": _lipschitz,
    "constructions.PorosityWitness.certify": _certify,
    "verify.run_suite": _suite,
}

# Every function the metrics read; `install` checks that each still exists.
REQUIRED = frozenset(GROUPS) | frozenset(HOOKS) | {
    "core.canonicalize", "metric.minimal_height_intervals", "oracle.build_level_graph",
    "calculus.difference_quotient", "cli.main",
}


def _targets() -> Dict[str, tuple]:
    """Qualified name -> (layer index, owner, attribute) of every function
    the tracer wraps; the owner is the module, or the class of a method."""
    targets = {}
    for li, layer in enumerate(LAYERS):
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                targets[f"{layer}.{name}"] = (li, mod, name)
        for owner, name in HELPERS:
            if owner == layer and inspect.isfunction(getattr(mod, name, None)):
                targets[f"{layer}.{name}"] = (li, mod, name)
        for owner, cls_name, meth in METHODS:
            cls = getattr(mod, cls_name, None)
            if owner == layer and meth in getattr(cls, "__dict__", {}):
                targets[f"{layer}.{cls_name}.{meth}"] = (li, cls, meth)
    return targets


# Per-layer metric -> (unit, better direction).  Work counts are per op, so
# they compare across runs that complete different numbers of ops.
PER_LAYER = {
    "core.gap_calls": ("calls/op", "lower"),
    "core.gap_us": ("us", "lower"),
    "core.enumerated_heights": ("heights/op", "lower"),
    "core.canonicalize_calls": ("calls/op", "lower"),
    "core.self_s": ("s/op", "lower"),
    "metric.distance_calls": ("calls/op", "lower"),
    "metric.distance_us": ("us", "lower"),
    "metric.intervals_per_pair": ("intervals/call", "lower"),
    "metric.geodesic_calls": ("calls/op", "lower"),
    "metric.geodesic_us": ("us", "lower"),
    "metric.self_s": ("s/op", "lower"),
    "profiles.profile_calls": ("calls/op", "lower"),
    "profiles.profile_ms": ("ms", "lower"),
    **{f"profiles.profile_ms.order{o}": ("ms", "lower") for o in range(4, 10)},
    "profiles.evals_per_profile": ("evals/profile", "lower"),
    "profiles.kinks_per_eval": ("kinks/eval", "higher"),
    "profiles.self_s": ("s/op", "lower"),
    "oracle.graph_builds": ("calls/op", "lower"),
    "oracle.searches": ("calls/op", "lower"),
    "oracle.search_ms": ("ms", "lower"),
    "oracle.ball_ms.m6": ("ms", "lower"),
    "oracle.ball_ms.m7": ("ms", "lower"),
    "oracle.vertices_per_search": ("vertices", "lower"),
    "oracle.self_s": ("s/op", "lower"),
    "constructions.lipschitz_pairs": ("pairs/op", "lower"),
    "constructions.certified_heights": ("heights/op", "lower"),
    "constructions.witness_builds": ("calls/op", "lower"),
    "constructions.self_s": ("s/op", "lower"),
    "calculus.quotient_calls": ("calls/op", "lower"),
    "calculus.self_s": ("s/op", "lower"),
    **{f"verify.suite_s.{s}": ("s", "lower")
       for s in ("oracle", "kinks", "constructions", "porosity", "regularity", "parallel")},
    "verify.checks": ("checks/op", "lower"),
    "cli.requests": ("count", "higher"),
    "cli.output_bytes": ("bytes/request", "lower"),
    "cli.self_s": ("s/op", "lower"),
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()  # qualified name -> calls
        self.counts: Counter = Counter()  # hook counters
        self.depth: Counter = Counter()  # group -> active calls
        self.group_calls: Counter = Counter()
        self.group_ns: Counter = Counter()
        self.self_ns = [0] * (BENCH + 1)
        # One column per span field; names are indices into `names`.
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.span_name = array("l")
        self.span_layer = array("b")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        # frames: [layer, span id, child time ns]
        self.stack: List[list] = [[BENCH, -1, 0]]
        self.op_id = -1
        self._restore: List[tuple] = []
        self.t0 = time.perf_counter_ns()

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int, layer: int, parent: int, start: int) -> int:
        self.span_name.append(name_id)
        self.span_layer.append(layer)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)
        self.span_start.append(start)
        self.span_end.append(start)
        return len(self.span_name) - 1

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def begin_op(self, op_id: int, name: str) -> None:
        self.op_id = op_id
        start = time.perf_counter_ns()
        self.stack.append([BENCH, self._open(self._name_id(name), BENCH, -1, start), 0, start])

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        _, span, child, start = self.stack.pop()
        self.self_ns[BENCH] += end - start - child
        self.span_end[span] = end

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, qname: str, layer: int):
        tracer = self
        stack = self.stack
        calls = self.calls
        depth = self.depth
        self_ns = self.self_ns
        span_end = self.span_end
        name_id = self._name_id(qname)
        group = GROUPS.get(qname)
        hook = HOOKS.get(qname)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[qname] += 1
            top = stack[-1]
            boundary = top[0] != layer
            if group is not None:
                outer = depth[group] == 0
                depth[group] += 1
            start = clock()
            if boundary:
                frame = [layer, tracer._open(name_id, layer, top[1], start), 0]
                stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                if boundary:
                    stack.pop()
                    self_ns[layer] += dur - frame[2]
                    top[2] += dur
                    span_end[frame[1]] = end
                if group is not None:
                    depth[group] -= 1
                    if outer:
                        tracer.group_calls[group] += 1
                        tracer.group_ns[group] += dur
            if hook is not None:
                hook(tracer, args, result, dur)
            return result

        return traced

    def install(self) -> None:
        targets = _targets()
        missing = sorted(REQUIRED - set(targets))
        if missing:
            raise RuntimeError(f"tracing.py reads functions the library no longer has: {missing}")
        wrappers = {}
        for qname, (li, owner, name) in targets.items():
            fn = vars(owner)[name]
            if inspect.isclass(owner):
                self._restore.append((owner, name, fn))
                setattr(owner, name, self._wrap(fn, qname, li))
            else:
                wrappers[fn] = self._wrap(fn, qname, li)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, wrappers[value])

    def uninstall(self) -> None:
        for target, name, value in reversed(self._restore):
            setattr(target, name, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Every span as a row of a gzip-compressed CSV file."""
        layer_names = LAYERS + ("bench",)
        t0 = self.t0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "parent", "op", "layer", "name", "start_ns", "end_ns"])
            w.writerows(
                (i, parent, op, layer_names[layer], self.names[name], start - t0, end - t0)
                for i, (parent, op, layer, name, start, end) in enumerate(zip(
                    self.span_parent, self.span_op, self.span_layer, self.span_name,
                    self.span_start, self.span_end))
            )

    def layer_table(self, ops: int) -> Dict[str, dict]:
        """Per layer: wrapped calls per op and self time per op."""
        table = {}
        for li, layer in enumerate(LAYERS + ("bench",)):
            prefix = layer + "."
            n = sum(c for q, c in self.calls.items() if q.startswith(prefix))
            table[layer] = {"calls_per_op": n / ops, "self_s_per_op": self.self_ns[li] / 1e9 / ops}
        return table

    def metrics(self, ops: int, cli_output_bytes: int) -> Dict[str, Optional[float]]:
        """The `PER_LAYER` metrics.  Counts and self times are per op (0 when
        the workload does not reach the layer); durations and other ratios
        are means per call, and None when the function was never called."""
        c, g, gn, k = self.calls, self.group_calls, self.group_ns, self.counts

        def ratio(a, b, scale=1.0):
            return a / b / scale if b else None

        def self_s(layer):
            return self.self_ns[LAYERS.index(layer)] / 1e9 / ops

        m = {
            "core.gap_calls": g["gap"] / ops,
            "core.gap_us": ratio(gn["gap"], g["gap"], 1e3),
            "core.enumerated_heights": k["enumerated_heights"] / ops,
            "core.canonicalize_calls": c["core.canonicalize"] / ops,
            "core.self_s": self_s("core"),
            "metric.distance_calls": g["distance"] / ops,
            "metric.distance_us": ratio(gn["distance"], g["distance"], 1e3),
            "metric.intervals_per_pair": ratio(k["intervals"], c["metric.minimal_height_intervals"]),
            "metric.geodesic_calls": g["geodesic"] / ops,
            "metric.geodesic_us": ratio(gn["geodesic"], g["geodesic"], 1e3),
            "metric.self_s": self_s("metric"),
            "profiles.profile_calls": g["profile"] / ops,
            "profiles.profile_ms": ratio(gn["profile"], g["profile"], 1e6),
        }
        for order in range(4, 10):
            m[f"profiles.profile_ms.order{order}"] = ratio(
                k[f"profile_ns.{order}"], k[f"profile_calls.{order}"], 1e6
            )
        m.update({
            "profiles.evals_per_profile": ratio(k["profile_evals"], g["profile"]),
            "profiles.kinks_per_eval": ratio(k["profile_kinks"], k["profile_evals"]),
            "profiles.self_s": self_s("profiles"),
            "oracle.graph_builds": c["oracle.build_level_graph"] / ops,
            "oracle.searches": g["search"] / ops,
            "oracle.search_ms": ratio(gn["search"], g["search"], 1e6),
            "oracle.ball_ms.m6": ratio(k["scan_ns.6"], k["scan_balls.6"], 1e6),
            "oracle.ball_ms.m7": ratio(k["scan_ns.7"], k["scan_balls.7"], 1e6),
            "oracle.vertices_per_search": ratio(k["search_vertices"], k["search_runs"]),
            "oracle.self_s": self_s("oracle"),
            "constructions.lipschitz_pairs": k["lipschitz_pairs"] / ops,
            "constructions.certified_heights": k["certified_heights"] / ops,
            "constructions.witness_builds": g["witness"] / ops,
            "constructions.self_s": self_s("constructions"),
            "calculus.quotient_calls": c["calculus.difference_quotient"] / ops,
            "calculus.self_s": self_s("calculus"),
        })
        for suite in ("oracle", "kinks", "constructions", "porosity", "regularity", "parallel"):
            m[f"verify.suite_s.{suite}"] = ratio(k[f"suite_ns.{suite}"], k[f"suite_calls.{suite}"], 1e9)
        m.update({
            "verify.checks": k["checks"] / ops,
            "cli.requests": float(c["cli.main"]),
            "cli.output_bytes": ratio(cli_output_bytes, c["cli.main"]),
            "cli.self_s": self_s("cli"),
        })
        return m

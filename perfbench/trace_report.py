#!/usr/bin/env python3
"""Per-layer report: one untraced and one traced run per workload.

    python3 perfbench/trace_report.py --seed 1 --seconds 20

For each workload it prints the per-layer table of the traced run (wrapped
calls per op, self time per op and its share of op time, both as measured),
the per-layer metrics that are non-zero, the ones that were not reached,
and the tracing overhead: how much longer an op takes traced than
untraced, from the two runs' host-corrected ops per second.  The spans
and the layer tables stay in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from collect import run_once  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    for workload in args.workloads.split(","):
        plain = run_once(HERE.parent, workload, args.seed, args.seconds, 0)
        traced = run_once(HERE.parent, workload, args.seed, args.seconds, 1)
        d = traced["detail"]
        overhead = plain["detail"]["ops_per_s"] / d["ops_per_s"] - 1
        op_s = 1 / d["raw"]["ops_per_s"]  # layer times are as measured, not corrected
        print(f"== {workload} (seed {args.seed}): {d['ops']} traced ops, {d['spans']} spans "
              f"in {d['spans_file']}")
        print(f"   tracing overhead {overhead:+.1%} per op "
              f"({plain['detail']['ops_per_s']:.4g} ops/s untraced, {d['ops_per_s']:.4g} traced)")
        print(f"   {'layer':14s} {'calls/op':>12s} {'self s/op':>12s} {'share':>7s}")
        for layer, row in d["layers"].items():
            print(f"   {layer:14s} {row['calls_per_op']:12.6g} {row['self_s_per_op']:12.6g} "
                  f"{row['self_s_per_op'] / op_s:7.1%}")
        for name, m in traced["result"]["metrics"].items():
            if m["value"]:
                print(f"   {name:36s} {m['value']:14.6g} {m['unit']}")
        print(f"   not reached: {', '.join(d['not_reached']) or '-'}")
        failed = plain["result"]["failed"] + traced["result"]["failed"]
        if failed:
            print(f"   {failed} failed ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Summarise one result set, or judge a change against its parent.

    python3 perfbench/compare.py perfbench/out/base.jsonl
    python3 perfbench/compare.py perfbench/out/parent.jsonl perfbench/out/change.jsonl

With one result set: per workload and end-to-end metric, the median,
quartiles and spread (interquartile distance over median) against the
metric's bound in BENCHMARK.json, and the spread of the raw figures.

With two: one row per workload and metric, runs paired by seed, with the
verdict of `stats.verdict` (regression / gain / unresolved / within-bound)
on the reported figures, which run.py corrects for host speed, and the
verdict on the raw figures of the `# detail` line beside it.  A row where
the two verdicts differ is flagged `DIFFERS`: there the correction, not
the code, decides the outcome, and the row needs more runs.  Exits 1 when
any row is a regression on the reported figures or a run failed an op.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from stats import quartiles, verdict  # noqa: E402


def load(path: str) -> dict:
    """{(workload, seed): result record} of the untraced runs."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "workload" in rec and rec["trace"] == 0:
                runs[(rec["workload"], rec["seed"])] = rec
    return runs


def values(runs: dict, workload: str, metric: str, seeds: list, raw: bool = False) -> list:
    """The metric's values over the seeds; with `raw`, as measured, before
    the host-speed correction (peak_rss_mb has none)."""
    out = []
    for s in seeds:
        rec = runs[(workload, s)]
        reported = rec["result"]["metrics"][metric]["value"]
        out.append(rec["detail"]["raw"].get(metric, reported) if raw else reported)
    return out


def failures(runs: dict) -> list:
    return [k for k, rec in runs.items() if rec["result"]["failed"] or not rec["result"]["correct"]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sets = [load(p) for p in argv]
    status = 0
    for runs, path in zip(sets, argv):
        for workload, seed in failures(runs):
            print(f"{path}: {workload} seed {seed} failed ops")
            status = 1
    workloads = [w["name"] for w in spec["workloads"]]
    if len(sets) == 1:
        runs = sets[0]
        print(f"{'workload':14s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'raw':>8s} {'bound':>6s} n")
        for w in workloads:
            seeds = sorted(s for (wl, s) in runs if wl == w)
            for m in spec["end_to_end"]:
                if not seeds:
                    continue
                v = values(runs, w, m["name"], seeds)
                q1, med, q3 = quartiles(v)
                sp = (q3 - q1) / med
                r1, rm, r3 = quartiles(values(runs, w, m["name"], seeds, raw=True))
                flag = "" if sp <= m["bound"] / 3 else (" over bound/3" if sp <= m["bound"] else " OVER BOUND")
                print(f"{w:14s} {m['name']:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.2%} "
                      f"{(r3 - r1) / rm:8.2%} {m['bound']:6.2f} {len(v)}{flag}")
        return status

    parent, change = sets
    print(f"{'workload':14s} {'metric':16s} {'parent':>12s} {'change':>12s} {'delta':>8s} "
          f"{'p-spread':>8s} {'bound':>6s} {'wins':>6s}  {'verdict':12s}  "
          f"{'raw delta':>9s} {'raw spread':>10s} {'raw wins':>8s}  raw verdict")
    for w in workloads:
        seeds = sorted(s for (wl, s) in parent if wl == w and (wl, s) in change)
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            r, raw = (
                verdict(values(parent, w, m["name"], seeds, as_measured),
                        values(change, w, m["name"], seeds, as_measured), m["better"], m["bound"])
                for as_measured in (False, True)
            )
            if r["verdict"] == "regression":
                status = 1
            flag = "  DIFFERS" if r["verdict"] != raw["verdict"] else ""
            print(f"{w:14s} {m['name']:16s} {r['parent_median']:12.6g} {r['change_median']:12.6g} "
                  f"{r['change_vs_parent']:+8.2%} {r['parent_spread']:8.2%} {m['bound']:6.2f} "
                  f"{r['wins']:>3d}/{r['pairs']:<2d}  {r['verdict']:12s}  "
                  f"{raw['change_vs_parent']:+9.2%} {raw['parent_spread']:10.2%} "
                  f"{raw['wins']:>5d}/{raw['pairs']:<2d}  {raw['verdict']}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over several seeds and save the results as a result set.

    python3 perfbench/collect.py --out perfbench/out/base.jsonl --seeds 1-10
    python3 perfbench/collect.py --out perfbench/out/parent.jsonl --seeds 1-10 \\
        --checkout ../parent --change-checkout . --change-out perfbench/out/change.jsonl

Each run is `python3 perfbench/run.py` in a checkout, one process per run.
With --change-checkout the two checkouts run in pairs on the same seed,
alternating which side runs first.  A result set is JSON lines: a header
with the machine facts, then one line per run with the final result and the
`# detail` line.  `compare.py` reads result sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail = next((json.loads(l[len("# detail "):]) for l in lines if l.startswith("# detail ")), {})
    return {"workload": workload, "seed": seed, "trace": trace, "checkout": checkout.name,
            "result": json.loads(lines[-1]), "detail": detail}


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="result set to write (JSON lines)")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--checkout", default=str(ROOT), help="checkout to run (default: this one)")
    parser.add_argument("--change-checkout", help="second checkout, run in alternating pairs")
    parser.add_argument("--change-out", help="result set of the second checkout")
    args = parser.parse_args(argv)
    if bool(args.change_checkout) != bool(args.change_out):
        parser.error("--change-checkout and --change-out go together")

    sides = [(Path(args.checkout).resolve(), Path(args.out))]
    if args.change_checkout:
        sides.append((Path(args.change_checkout).resolve(), Path(args.change_out)))
    header = json.dumps({"machine": machine_facts(), "run_seconds": args.seconds})
    files = []
    for _, out in sides:
        out.parent.mkdir(parents=True, exist_ok=True)
        fh = out.open("w")
        fh.write(header + "\n")
        files.append(fh)
    try:
        pair = 0
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                order = list(range(len(sides)))
                if pair % 2:
                    order.reverse()
                pair += 1
                for k in order:
                    rec = run_once(sides[k][0], workload, seed, args.seconds, 0)
                    files[k].write(json.dumps(rec) + "\n")
                    files[k].flush()
                    metrics = " ".join(f"{n}={m['value']:.6g}" for n, m in rec["result"]["metrics"].items())
                    print(f"{sides[k][0].name or '/'} {workload} seed={seed} failed={rec['result']['failed']}"
                          f"/{rec['result']['attempted']} {metrics}", flush=True)
    finally:
        for fh in files:
            fh.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

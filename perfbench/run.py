#!/usr/bin/env python3
"""Benchmark of the laakso engine: one workload per process.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0

Run from the repository root (the library is imported from ./src).  The
workload's ops are generated from --seed, sent closed loop by one client for
--seconds of measured op time, and every output is checked: exit code and
output against the digests recorded in perfbench/golden/, plus the
workload's own checks (oracle cross-checks, `pass` rows).  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the library's public functions are wrapped (see tracing.py), the
metrics are the per-layer ones, and the spans and a per-layer table are
written to perfbench/out/.  The line before the result, `# detail {...}`,
holds what the metrics do not: the tail percentile and its sample count,
failed_frac, failure messages and, for traced runs, the layer table.

    python3 perfbench/run.py --workload queries --record

recomputes every op of the workload's universe and rewrites its golden
digests; it refuses when any op fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"

# Set-up (import, input generation, warm-up) is repeated in the process and
# its median reported.
SETUP_REPEATS = 5

# Host-speed correction.  On a shared host the same code runs up to ~1.8x
# faster or slower from one second to the next, with the load of other
# tenants on the same cores.  Between ops, outside the timed region, the
# benchmark times a fixed reference kernel (stdlib exact arithmetic, no
# laakso code, run with the garbage collector off so that the size of the
# library's live heap does not reach it) at least every PROBE_EVERY_S of op
# time, and scales each op's time by REFERENCE_S over the kernel's time
# around it (mean of the probes before and after).  The reported times are
# thus what the ops take when the kernel takes REFERENCE_S, its median on
# the host the baseline was recorded on.  This assumes the library's code
# slows down with the host in proportion to the kernel; the raw,
# uncorrected figures are in the `# detail` line, and compare.py judges
# them too and flags where the two verdicts differ.
REFERENCE_S = 0.0033
PROBE_EVERY_S = 0.25

sys.path.insert(0, str(HERE))
from stats import highest_percentile, tail  # noqa: E402
from tracing import LAYERS, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, digest, universe_hash  # noqa: E402


def reference_kernel() -> Fraction:
    total = Fraction(0)
    seen = {}
    for i in range(1, 800):
        total += Fraction(i % 7 + 1, 3 ** (i % 9 + 1))
        seen[i % 64] = total.numerator % 1000
    return total


def probe() -> float:
    """The reference kernel's time now: median of three runs."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_library() -> SimpleNamespace:
    """A fresh import of every laakso module from ./src."""
    for name in [n for n in sys.modules if n == "laakso" or n.startswith("laakso.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"laakso.{m}") for m in LAYERS})
    if Path(lib.core.__file__).resolve().parent != SRC / "laakso":
        fail(f"imported laakso from {lib.core.__file__}, not from {SRC}")
    return lib


def golden_file(workload) -> Path:
    return GOLDEN / f"{workload.name}.txt"


def load_golden(workload, universe) -> list:
    lines = golden_file(workload).read_text().splitlines()
    want = f"# universe {universe_hash(universe)} {len(universe)}"
    if lines[0] != want:
        fail(f"{golden_file(workload)} was recorded for another universe ({lines[0]!r}, want {want!r})")
    return lines[1:]


def setup(workload, seed: int):
    lib = load_library()
    universe = workload.universe()
    golden = load_golden(workload, universe)
    state = workload.prepare(lib, universe)
    rounds = workload.rounds(seed, universe)
    for i in workload.warmup(universe):
        workload.execute(lib, state, i, universe[i])
    return SimpleNamespace(lib=lib, universe=universe, golden=golden, state=state, rounds=rounds)


class Run:
    """Outcome of the measured loop."""

    def __init__(self):
        self.raw = []  # op times as measured
        self.latencies = []  # op times corrected for host speed
        self.kinds = []
        self.busy = 0.0
        self.failed = Counter()  # universe index -> failed executions
        self.executed = Counter()  # universe index -> executions
        self.messages = {}
        self.answers = {}
        self.output_bytes = 0

    def fail(self, i: int, message: str) -> None:
        self.failed[i] += 1
        self.messages.setdefault(i, message)


def check_op(workload, ctx, run: Run, i: int, rc, raw) -> None:
    op = ctx.universe[i]
    if rc is None:
        run.fail(i, f"raised {raw}")
        return
    text = workload.render(op, raw)
    run.output_bytes += len(text)
    if ctx.golden is not None and digest(rc, text) != ctx.golden[i]:
        run.fail(i, f"output digest {digest(rc, text)} != recorded {ctx.golden[i]}")
        return
    message = workload.check(op, rc, text)
    if message:
        run.fail(i, message)
        return
    if i not in run.answers:
        value = workload.answer(op, text)
        if value is not None:
            run.answers[i] = value


def execute(workload, ctx, i: int):
    try:
        return workload.execute(ctx.lib, ctx.state, i, ctx.universe[i])
    except Exception:
        return None, traceback.format_exc(limit=3).strip().splitlines()[-1]


def measure(workload, ctx, seconds: float, tracer=None) -> Run:
    """Closed loop: whole rounds until `seconds` of op time have passed.
    Only the library call is timed; checking and host-speed probes happen
    between ops."""
    run = Run()
    clock = time.perf_counter
    segment = []  # indices of the ops since the last probe
    segment_busy = 0.0
    last_probe = probe()

    def close_segment():
        nonlocal last_probe, segment, segment_busy
        now = probe()
        scale = REFERENCE_S / ((last_probe + now) / 2)
        run.latencies.extend(run.raw[j] * scale for j in segment)
        last_probe, segment, segment_busy = now, [], 0.0

    if tracer:
        tracer.install()
    try:
        while run.busy < seconds:
            for i in next(ctx.rounds):
                if tracer:
                    tracer.begin_op(len(run.raw), "op." + ctx.universe[i].kind)
                t0 = clock()
                rc, raw = execute(workload, ctx, i)
                dt = clock() - t0
                if tracer:
                    tracer.end_op()
                run.busy += dt
                segment.append(len(run.raw))
                segment_busy += dt
                run.raw.append(dt)
                run.kinds.append(ctx.universe[i].kind)
                run.executed[i] += 1
                check_op(workload, ctx, run, i, rc, raw)
                if segment_busy >= PROBE_EVERY_S:
                    close_segment()
        if segment:
            close_segment()
    finally:
        if tracer:
            tracer.uninstall()
    for i, message in workload.cross_check(ctx.lib, ctx.state, ctx.universe, run.answers).items():
        run.failed[i] += run.executed[i] - run.failed[i]
        run.messages.setdefault(i, message)
    return run


def record(workload) -> int:
    """Rewrite the golden digests of the whole universe."""
    lib = load_library()
    universe = workload.universe()
    ctx = SimpleNamespace(lib=lib, universe=universe, golden=None, state=workload.prepare(lib, universe))
    run = Run()
    lines = [f"# universe {universe_hash(universe)} {len(universe)}"]
    for i, op in enumerate(universe):
        rc, raw = execute(workload, ctx, i)
        check_op(workload, ctx, run, i, rc, raw)
        lines.append(digest(rc, workload.render(op, raw)) if rc is not None else "raised")
    for i, message in workload.cross_check(lib, ctx.state, universe, run.answers).items():
        run.fail(i, message)
    if run.failed:
        for i in sorted(run.messages)[:20]:
            print(f"op {i} {universe[i].args}: {run.messages[i]}", file=sys.stderr)
        print(f"{len(run.failed)} of {len(universe)} universe ops fail; nothing written", file=sys.stderr)
        return 1
    GOLDEN.mkdir(exist_ok=True)
    golden_file(workload).write_text("\n".join(lines) + "\n")
    print(f"wrote {golden_file(workload)}: {len(universe)} ops, {len(run.answers)} cross-checked")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the golden digests")
    args = parser.parse_args(argv)
    if not (SRC / "laakso" / "__init__.py").is_file():
        fail(f"no laakso sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.record:
        return record(workload)

    setups, raw_setups = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = setup(workload, args.seed)
        raw_setups.append(time.perf_counter() - t0)
        after = probe()
        setups.append(raw_setups[-1] * REFERENCE_S / ((before + after) / 2))
        before = after
    tracer = Tracer() if args.trace else None
    run = measure(workload, ctx, args.seconds, tracer)

    n = len(run.latencies)
    failed = sum(run.failed.values())
    tail_pct = workload.tail_percentile
    tail_value, beyond = tail(run.latencies, tail_pct)
    ops_per_s = n / sum(run.latencies)
    by_kind = {}
    for kind, latency in zip(run.kinds, run.latencies):
        by_kind.setdefault(kind, []).append(latency)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": n,
        "distinct_ops": len(run.executed),
        "busy_s": run.busy,
        "ops_per_s": ops_per_s,
        "latency_p50_ms": statistics.median(run.latencies) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "latency_tail_percentile": tail_pct,
        "latency_samples": n,
        "latency_samples_beyond_tail": beyond,
        "highest_percentile_with_10_beyond": highest_percentile(n),
        "kind_p50_ms": {kind: statistics.median(v) * 1e3 for kind, v in sorted(by_kind.items())},
        "raw": {
            "setup_s": statistics.median(raw_setups),
            "ops_per_s": n / run.busy,
            "latency_p50_ms": statistics.median(run.raw) * 1e3,
            "latency_tail_ms": tail(run.raw, tail_pct)[0] * 1e3,
        },
        "host_speed": sum(run.latencies) / run.busy,
        "failed_frac": failed / n,
        "cross_checked_ops": len(run.answers),
        "setup_runs_s": setups,
        "failures": {str(ctx.universe[i].args): m for i, m in list(run.messages.items())[:10]},
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        stem = f"{workload.name}-seed{args.seed}"
        spans_path = OUT / f"spans-{stem}.csv.gz"
        tracer.write_spans(str(spans_path))
        values = tracer.metrics(n, run.output_bytes)
        # The result must carry every per-layer metric as a number; one
        # whose function this workload never called reads 0 there and is
        # named in `not_reached`.  Read it as missing, not as 0.
        metrics = {
            name: {"value": 0.0 if value is None else value, "unit": PER_LAYER[name][0]}
            for name, value in values.items()
        }
        detail.update({
            "layers": tracer.layer_table(n),
            "not_reached": [name for name, value in values.items() if value is None],
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans": tracer.span_count,
        })
        (OUT / f"layers-{stem}.json").write_text(json.dumps({"detail": detail, "metrics": metrics}, indent=1))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": detail["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": detail["latency_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {n} ops in {run.busy:.3f} s busy, "
          f"failed {failed}/{n} (failed_frac {failed / n:g})")
    for name, m in metrics.items():
        value = "not reached" if name in detail.get("not_reached", ()) else f"{m['value']:.6g}"
        print(f"  {name:40s} {value:>14s} {m['unit']}")
    print(f"  tail is p{tail_pct:g} of {n} samples, {beyond} beyond it")
    if beyond < 10:
        print(f"warning: fewer than ten samples beyond p{tail_pct:g}", file=sys.stderr)
    for i in list(run.messages)[:10]:
        print(f"  FAILED {ctx.universe[i].args}: {run.messages[i]}", file=sys.stderr)
    print("# detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

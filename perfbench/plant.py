#!/usr/bin/env python3
"""Copy the repository with a planted, known cost, to test the host-speed
correction of run.py against an effect whose size is known.

    python3 perfbench/plant.py --out ../planted
    python3 perfbench/collect.py --workloads queries,oracle-balls --seeds 11-20 \\
        --out perfbench/out/parent.jsonl \\
        --change-checkout ../planted --change-out perfbench/out/planted.jsonl
    python3 perfbench/compare.py perfbench/out/parent.jsonl perfbench/out/planted.jsonl

The copy differs from this checkout only in src/laakso/cli.py:

- every `cli.main` call first runs a fixed loop of integer arithmetic
  (LOOP iterations, about 0.5 ms on a 2.1 GHz Xeon core);
- importing the module builds HEAP_LISTS small lists and keeps them alive,
  which makes the process's live heap about 30 MB larger.

`queries` goes through `cli.main` on every op, so its op times must grow by
the loop's cost, by the same share in the corrected and the raw figures.
`oracle-balls` never calls `cli.main`, so its op times must not move, raw
or corrected, although every garbage collection now walks the larger heap
(the reference kernel runs with the collector off for that reason).
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LOOP = 10_000
HEAP_LISTS = 300_000

ANCHOR = "def main(argv: Optional[List[str]] = None) -> int:\n"
PLANTED = f'''_PLANTED_HEAP = [[i] for i in range({HEAP_LISTS})]


def _planted_cost() -> int:
    return sum(i * i for i in range({LOOP}))


{ANCHOR}    _planted_cost()
'''


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory to create")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    if out.exists():
        parser.error(f"{out} exists")
    out.mkdir(parents=True)
    skip = shutil.ignore_patterns("__pycache__", "out", ".bench_build")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, out / name, ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", out / "BENCHMARK.json")
    cli = out / "src" / "laakso" / "cli.py"
    text = cli.read_text()
    if text.count(ANCHOR) != 1:
        print(f"error: cli.py has no single {ANCHOR.strip()!r} line to plant the cost at", file=sys.stderr)
        return 2
    cli.write_text(text.replace(ANCHOR, PLANTED))
    print(f"wrote {out}: cli.main runs a {LOOP}-step loop, the import keeps {HEAP_LISTS} lists alive")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: op universes, seeded schedules and checks.

Every workload draws its ops from a fixed, finite *universe* generated from
`UNIVERSE_SEED`.  The golden digest of each universe op (exit code plus a
hash of its output) was recorded once with `run.py --record`, so every op a
run executes can be compared byte for byte with the recorded output.  The
run's `--seed` only decides which universe ops are sent and in which order.

All workloads are closed loop with one client: the next op is sent only
after the previous one returned.  Ops are sent in *rounds*; a round has a
fixed composition per workload (so the latency distribution has the same
shape on every seed) and the run always finishes the round it is in.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

UNIVERSE_SEED = 20220807

# Oracle cross-checks of `distance` answers run at the smallest grid
# resolution that represents both points, up to this one.
ORACLE_CHECK_MAX_M = 5


@dataclass(frozen=True)
class Op:
    """One request.  `kind` names its slot in a round; `args` are CLI argv
    for CLI workloads and a parameter tuple for library calls."""

    kind: str
    args: Tuple


def digest(rc: Optional[int], out: str) -> str:
    return f"{rc} {hashlib.sha256(out.encode()).hexdigest()[:16]}"


def universe_hash(universe: List[Op]) -> str:
    h = hashlib.sha256()
    for op in universe:
        h.update(repr((op.kind, op.args)).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Input generation helpers.  Heights are exact rationals written "p/q".
# ---------------------------------------------------------------------------


def _three_adic(q: int) -> Optional[int]:
    """n when q == 3**n, else None."""
    n = 0
    while q % 3 == 0:
        q //= 3
        n += 1
    return n if q == 1 else None


def wormhole_order(h: Fraction) -> Optional[int]:
    if not 0 < h < 1:
        return None
    n = _three_adic(h.denominator)
    return n if n else None


def fmt(h: Fraction) -> str:
    return str(h.numerator) if h.denominator == 1 else f"{h.numerator}/{h.denominator}"


def point_text(h: Fraction, bits: str) -> str:
    return f"{fmt(h)}:{bits}"


def _bits(rng: random.Random, depth: int) -> str:
    return "".join(rng.choice("01") for _ in range(depth))


def _triadic(rng: random.Random, max_order: int) -> Fraction:
    n = rng.randint(1, max_order)
    return Fraction(rng.randrange(1, 3**n), 3**n)


def _non_triadic(rng: random.Random) -> Fraction:
    while True:
        q = rng.randint(2, 100)
        h = Fraction(rng.randint(1, q - 1), q)
        if _three_adic(h.denominator) is None:
            return h


def _interior(rng: random.Random) -> Fraction:
    return _triadic(rng, 8) if rng.random() < 0.5 else _non_triadic(rng)


def grid_resolution(x: Tuple[Fraction, str], y: Tuple[Fraction, str]) -> Optional[int]:
    """Smallest level-m grid holding both points, None if none does."""
    m = 1
    for h, bits in (x, y):
        n = _three_adic(h.denominator)
        if n is None:
            return None
        m = max(m, n, len(bits.rstrip("0")))
    return m


def parse_point_text(text: str) -> Tuple[Fraction, str]:
    h, bits = text.split(":", 1)
    return Fraction(h), bits


def run_cli(main, argv) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# Workload base.
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    # kind -> number of ops of that kind in one round
    round_mix: Dict[str, int] = {}
    rounds_per_pass = 1
    # Percentile reported as latency_tail_ms: the highest of 50, 75, 90,
    # 99, ... with at least ten samples beyond it in a run of this workload
    # at the parent commit, fixed so that runs of different speed compare
    # the same percentile.
    tail_percentile = 50
    # ops run once, untimed, at the end of every set-up
    warmup_kinds: Tuple[str, ...] = ()

    def universe(self) -> List[Op]:
        raise NotImplementedError

    def prepare(self, lib, universe: List[Op]) -> dict:
        """Per-process state built during set-up (graphs, parsed points)."""
        return {}

    def execute(self, lib, state: dict, i: int, op: Op) -> Tuple[int, object]:
        """The timed call.  Returns (exit code, raw result)."""
        return run_cli(lib.cli.main, op.args)

    def render(self, op: Op, raw) -> str:
        """The text the golden digest covers: CLI stdout as is.  Calls no
        library function, so it adds nothing to a traced run."""
        return raw

    def check(self, op: Op, rc: int, text: str) -> Optional[str]:
        """Workload-specific check of one output; None when it passes."""
        return None if rc == 0 else f"exit code {rc}"

    def answer(self, op: Op, text: str) -> Optional[Fraction]:
        """The value `cross_check` compares, for ops it covers."""
        return None

    def cross_check(self, lib, state: dict, universe: List[Op], answers: Dict[int, Fraction]) -> Dict[int, str]:
        """Independent checks of `answer` values ({universe index: value});
        returns {index: failure message}.  Runs outside the timed region."""
        return {}

    def rounds(self, seed: int, universe: List[Op]) -> Iterator[List[int]]:
        """Rounds of `round_mix` ops, each kind dealt from a seeded deck of
        its universe ops: without replacement, reshuffled when empty.  The
        universe holds `rounds_per_pass` rounds' worth of every kind, about
        what one run at the parent commit sends, so every run sends nearly
        the same mix whatever the seed."""
        pools: Dict[str, List[int]] = {}
        for i, op in enumerate(universe):
            pools.setdefault(op.kind, []).append(i)
        rng = random.Random(seed)
        decks: Dict[str, List[int]] = {kind: [] for kind in self.round_mix}
        while True:
            batch = []
            for kind, count in self.round_mix.items():
                for _ in range(count):
                    if not decks[kind]:
                        decks[kind] = list(pools[kind])
                        rng.shuffle(decks[kind])
                    batch.append(decks[kind].pop())
            rng.shuffle(batch)
            yield batch

    def pool_size(self, kind: str) -> int:
        return self.round_mix[kind] * self.rounds_per_pass

    def warmup(self, universe: List[Op]) -> List[int]:
        return [next(i for i, op in enumerate(universe) if op.kind == k) for k in self.warmup_kinds]


# ---------------------------------------------------------------------------
# queries: interactive CLI use.
# ---------------------------------------------------------------------------


class Queries(Workload):
    """Mostly `distance`, some `reduce`, low-order `profile` and `census`."""

    name = "queries"
    # Op costs span 1 ms (distance) to 60 ms (two-jump profiles at a
    # wormhole base point), and the 99th percentile sits among the few
    # costliest ops; a run walks about one seeded permutation of the whole
    # universe, so that every run sees the same mix.
    round_mix = {"any": 512}
    rounds_per_pass = 16
    tail_percentile = 99
    warmup_kinds = ("any",)

    def universe(self) -> List[Op]:
        rng = random.Random(UNIVERSE_SEED)
        anchors = {
            m: [(Fraction(rng.randint(0, 3**m), 3**m), _bits(rng, rng.randint(0, m))) for _ in range(8)]
            for m in range(2, ORACLE_CHECK_MAX_M + 1)
        }
        ops = []
        for _ in range(self.pool_size("any")):
            r = rng.random()
            if r < 0.25:
                m = rng.randint(2, ORACLE_CHECK_MAX_M)
                x = rng.choice(anchors[m])
                y = (Fraction(rng.randint(0, 3**m), 3**m), _bits(rng, rng.randint(0, m)))
                # The anchor stays --x: the oracle check searches from it.
                argv = ("distance", "--x", point_text(*x), "--y", point_text(*y))
            elif r < 0.65:
                if rng.random() < 0.05:
                    hx = Fraction(rng.randint(0, 1))
                else:
                    hx = _interior(rng)
                x = (hx, _bits(rng, rng.randint(0, 8)))
                y = (_non_triadic(rng), _bits(rng, rng.randint(0, 8)))
                argv = self._distance(rng, x, y)
            elif r < 0.75:
                argv = self._reduce(rng)
            elif r < 0.92:
                argv = self._profile(rng)
            else:
                h = _interior(rng)
                argv = ("census", "--p", point_text(h, _bits(rng, rng.randint(0, 4))),
                        "--max-level", str(rng.randint(1, 4)))
            ops.append(Op("any", argv))
        return ops

    @staticmethod
    def _distance(rng, x, y):
        if rng.random() < 0.5:
            x, y = y, x
        return ("distance", "--x", point_text(*x), "--y", point_text(*y))

    @staticmethod
    def _reduce(rng):
        h = _interior(rng)
        w = wormhole_order(h)
        pool = [n for n in range(1, 7) if n != w]
        levels = sorted(rng.sample(pool, rng.randint(3, 4)))
        t = Fraction(rng.randint(0, 1)) if rng.random() < 0.05 else _interior(rng)
        return ("reduce", "--p", point_text(h, _bits(rng, rng.randint(0, 4))),
                "--levels", ",".join(map(str, levels)), "--t", fmt(t))

    @staticmethod
    def _profile(rng):
        # A wormhole base point adds its own order to the profile's orders,
        # so triadic base heights stay at order <= 4 here.
        h = _triadic(rng, 4) if rng.random() < 0.5 else _non_triadic(rng)
        w = wormhole_order(h)
        r = rng.random()
        if r < 0.2:
            spec = "v0"
        elif r < 0.6:
            spec = f"vN:{rng.choice([n for n in range(1, 5) if n != w])}"
        else:
            pool = [n for n in range(1, 6) if n != w]
            n, m = sorted(rng.sample(pool, 2))
            spec = f"vD:{n},{m}"
        return ("profile", "--p", point_text(h, _bits(rng, rng.randint(0, 4))), "--line", spec)

    def answer(self, op, text):
        args = op.args
        if args[0] != "distance":
            return None
        m = grid_resolution(parse_point_text(args[2]), parse_point_text(args[4]))
        if m is None or m > ORACLE_CHECK_MAX_M:
            return None
        return Fraction(json.loads(text)["distance"])

    def cross_check(self, lib, state, universe, answers):
        """Interval-formula distances against the level-graph oracle, one
        single-source search per (resolution, source point)."""
        by_source: Dict[Tuple[int, str], List[int]] = {}
        for i in answers:
            args = universe[i].args
            m = grid_resolution(parse_point_text(args[2]), parse_point_text(args[4]))
            by_source.setdefault((m, args[2]), []).append(i)
        failures = {}
        graphs = {}
        for (m, xt), indices in sorted(by_source.items()):
            g = graphs.setdefault(m, lib.oracle.build_level_graph(m))
            dist = lib.oracle.graph_distance_map(g, lib.core.point(*xt.split(":", 1)))
            for i in indices:
                yv = g.point_vertex(lib.core.point(*universe[i].args[4].split(":", 1)))
                if dist[yv] != answers[i]:
                    failures[i] = f"distance {answers[i]} but the level-{m} oracle gives {dist[yv]}"
        return failures


# ---------------------------------------------------------------------------
# deep-profiles: kink profiles at growing jump order.
# ---------------------------------------------------------------------------


class DeepProfiles(Workload):
    """`profile` on one-jump lines vN:o, o = 4..9, and two-jump lines
    vD:n,o, o = 4..8."""

    name = "deep-profiles"
    # Each order costs ~3x the one below, and a two-jump line ~1.3x the
    # one-jump line of its order, so every kind is its own latency block.
    # Fewer ops at higher order; the counts put the median in the middle of
    # the o5.two block and the 90th percentile in the middle of o8.two.
    round_mix = {
        "o4.one": 3, "o4.two": 3, "o5.one": 2, "o5.two": 4, "o6.one": 1, "o6.two": 1,
        "o7.one": 1, "o7.two": 1, "o8.one": 1, "o8.two": 2, "o9.one": 1,
    }
    rounds_per_pass = 10
    tail_percentile = 90
    warmup_kinds = ("o4.one",)

    def universe(self) -> List[Op]:
        rng = random.Random(UNIVERSE_SEED + 1)
        ops = []
        for kind in self.round_mix:
            o = int(kind[1])
            for _ in range(self.pool_size(kind)):
                # Off-grid base points: one line per level set, and the
                # cost is set by the jump orders alone.
                p = point_text(_non_triadic(rng), _bits(rng, rng.randint(0, 4)))
                spec = f"vN:{o}" if kind.endswith("one") else f"vD:{rng.randint(1, o - 1)},{o}"
                ops.append(Op(kind, ("profile", "--p", p, "--line", spec)))
        return ops


# ---------------------------------------------------------------------------
# oracle-balls: the level-graph search.
# ---------------------------------------------------------------------------

_RADII = (Fraction(1, 9), Fraction(1, 27), Fraction(1, 81))


class OracleBalls(Workload):
    """`regularity_scan` at m = 6, 7 and `graph_distance` pairs at m = 5, 6."""

    name = "oracle-balls"
    # Latency blocks: pair5 (~15 ms), pair6 and scan6 (~90 ms), scan7
    # (~230 ms); the median falls inside the middle block, the 90th
    # percentile inside scan7.
    round_mix = {"pair5": 4, "pair6": 3, "scan6": 1, "scan7": 2}
    rounds_per_pass = 24
    tail_percentile = 90
    warmup_kinds = ("pair5",)
    centers = {6: 4, 7: 2}

    def universe(self) -> List[Op]:
        rng = random.Random(UNIVERSE_SEED + 2)
        ops = []
        for m in (6, 7):
            ops.extend(Op(f"scan{m}", (m, self.centers[m], s)) for s in range(self.pool_size(f"scan{m}")))
        for m in (5, 6):
            vertices = (3**m + 1) * 2**m
            ops.extend(
                Op(f"pair{m}", (m, rng.randrange(vertices), rng.randrange(vertices)))
                for _ in range(self.pool_size(f"pair{m}"))
            )
        return ops

    def prepare(self, lib, universe):
        graphs = {m: lib.oracle.build_level_graph(m) for m in (5, 6)}
        points = {}
        for i, op in enumerate(universe):
            if op.kind.startswith("pair"):
                g = graphs[op.args[0]]
                points[i] = (g.vertex_point(op.args[1]), g.vertex_point(op.args[2]))
        return {"graphs": graphs, "points": points}

    def execute(self, lib, state, i, op):
        if op.kind.startswith("scan"):
            m, sample, seed = op.args
            return 0, lib.oracle.regularity_scan(m, sample, _RADII, seed=seed)
        x, y = state["points"][i]
        return 0, lib.oracle.graph_distance(state["graphs"][op.args[0]], x, y)

    def render(self, op, raw):
        if op.kind.startswith("scan"):
            rows = "".join(
                f"{fmt(e.center.height)},{e.center.address.bits},{fmt(e.radius)},{fmt(e.mass)},{e.ratio!r},{e.m}\n"
                for e in raw.estimates
            )
            return f"{rows}spread={raw.spread!r}\n"
        return fmt(raw) + "\n"

    def answer(self, op, text):
        return Fraction(text.strip()) if op.kind.startswith("pair") else None

    def cross_check(self, lib, state, universe, answers):
        """Graph distances against the interval formula."""
        failures = {}
        for i, got in answers.items():
            x, y = state["points"][i]
            want = lib.metric.distance(x, y)
            if got != want:
                failures[i] = f"graph distance {got} but the interval formula gives {want}"
        return failures


# ---------------------------------------------------------------------------
# verify-suites: the acceptance gate.
# ---------------------------------------------------------------------------

SUITES = ("oracle", "kinks", "constructions", "porosity", "regularity", "parallel")


class VerifySuites(Workload):
    """The six `laakso verify <suite> --seed s` runs."""

    name = "verify-suites"
    # kinks and regularity run twice, so the median falls inside the kinks
    # latency block and the 75th percentile inside regularity, instead of
    # on the edge between two suites.
    round_mix = {"oracle": 1, "kinks": 2, "constructions": 1, "porosity": 1, "regularity": 2, "parallel": 1}
    rounds_per_pass = 8
    tail_percentile = 75
    warmup_kinds = ("constructions",)

    def universe(self) -> List[Op]:
        return [Op(s, ("verify", s, "--seed", str(k))) for s in SUITES for k in range(self.pool_size(s))]

    def check(self, op, rc, text):
        if rc != 0:
            return f"exit code {rc}"
        rows = list(csv.reader(io.StringIO(text)))[1:]
        bad = [r[0] for r in rows if r[1] != "pass"]
        if not rows or bad:
            return f"rows not pass: {bad}"
        return None


WORKLOADS = {w.name: w for w in (Queries(), DeepProfiles(), OracleBalls(), VerifySuites())}

"""Batch command-line front end.

Subcommands: distance, profile, reduce, census, verify.  Points are written
h:bits with h an exact "p/q" rational and bits a 0/1 string (possibly
empty), e.g. 1/2:0 or 4/9:01.  Every numeric field in JSON/CSV output is an
exact "p/q" string except fields explicitly named "ratio"/"spread", which
are floating point for reporting only.  Identical invocations produce
byte-identical output; randomized suites are pinned by --seed.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error, 3
internal error (an invariant of the library failed, `core.InternalError`).
Every argument that sets a scale (verify --depth, census --max-level, the
jump orders of profile --line and reduce --levels) is bounded before any
work, so an input gets either an answer or one `error:` line.

A --line spec is one of v0 (the base point's own line), v<N>, vN:<N> or
v<N>:<N> (one jump at order N), or vD:<N>,<M>[,...] (one jump at each of
the increasing orders listed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from typing import List, Optional

from . import verify as verify_mod
from .core import (
    InternalError,
    LaaksoPoint,
    canonicalize,
    format_rational,
    nearest_wormhole_gap,
    parse_rational,
    point,
    point_to_json,
)
from .metric import distance, minimal_height_intervals, synthesize_geodesic
from .profiles import (
    census_records,
    expected_kinks,
    parallel_reduction,
    profile_distance_on_line,
    profile_to_svg,
    vertical_lines,
)

__all__ = ["main", "entrypoint"]


class UsageError(ValueError):
    pass


def _parse_point(text: str) -> LaaksoPoint:
    if ":" in text:
        h, bits = text.split(":", 1)
    else:
        h, bits = text, ""
    try:
        return point(parse_rational(h), bits)
    except ValueError as exc:
        raise UsageError(f"bad point {text!r}: {exc}") from exc


# A line at jump order n carries an n-bit address and grid arithmetic on
# 3**n, so the work grows faster than n: a `vD:1,n` profile takes ~0.8 s at
# n = 100000 and ~19 s at n = 1000000 on a 2-vCPU host.
_MAX_ORDER = 100_000


def _check_orders(levels, flag: str, text: str) -> None:
    if any(n < 1 for n in levels) or list(levels) != sorted(set(levels)):
        raise UsageError(f"{flag} {text!r}: jump orders must be increasing positive integers")
    if levels and max(levels) > _MAX_ORDER:
        raise UsageError(f"{flag} {text!r}: jump orders above {_MAX_ORDER} are not accepted")


_LINE_SPEC = re.compile(
    r"v(?:(?P<one>\d+)|(?P<tag>n|\d+):(?P<order>\d+)|d:(?P<orders>\d+(?:,\d+)+))", re.ASCII
)


def _parse_line_spec(spec: str):
    """v0 | v<N> | vN:<N> | v<N>:<N> (equal numbers) | vD:<N>,<M>[,...]."""
    match = _LINE_SPEC.fullmatch(spec.strip().lower())
    if match is None:
        raise UsageError(f"bad line spec {spec!r}")
    one, tag, order, orders = match.groups()
    try:  # int() refuses numbers past the integer-string digit limit
        if orders is not None:
            levels = tuple(int(x) for x in orders.split(","))
        elif one is not None:
            levels = () if int(one) == 0 else (int(one),)
        elif tag == "n" or int(tag) == int(order):
            levels = (int(order),)
        else:
            raise ValueError("unequal orders")
    except ValueError as exc:
        raise UsageError(f"bad line spec {spec!r}") from exc
    _check_orders(levels, "--line", spec)
    return levels


def _check_printable(p: LaaksoPoint, levels, den: int, flag: str, text: str) -> None:
    """Refuse a request whose answer could not be printed, before computing it.

    Every height and value printed lies in [-3, 3] with a denominator
    dividing den * 3**n, for den the lcm of the denominators of the heights
    asked about and n the deepest order of `levels` that can bind.  Every
    minimal interval covers h(p) and an order-`levels[0]` wormhole, so it
    is at least as long as the smaller order-`levels[0]` gap g at h(p); a
    deeper order M binds only if g < 2/3**M, since its grid (spacing at
    most 2/3**M) meets every longer interval.  Python refuses to print an
    integer of more than `sys.get_int_max_str_digits()` digits.
    """
    limit = sys.get_int_max_str_digits()
    if not levels or not limit:
        return
    g = min(gap for gap in nearest_wormhole_gap(p.height, levels[0]) if gap is not None)
    order = levels[0]
    for m in levels[1:]:
        # g < 2/3**m is impossible once 3**m > 2**m >= 2 * den(g).
        if m < (2 * g.denominator).bit_length() and 3**m * g.numerator < 2 * g.denominator:
            order = m
    # Printed integers stay below den * 3**(order + 1) < 2**(bits + 2*(order + 1)),
    # and 2**(3 * limit) < 10**limit.
    if den.bit_length() + 2 * (order + 1) <= 3 * limit:
        return
    cap = (10**limit - 1) // den
    if order < 4 * limit and 3 ** (order + 1) <= cap:  # 3**(4 * limit) > 10**limit
        return
    top, power = -1, 3  # the largest order with 3**(top + 1) <= cap
    while power <= cap:
        top, power = top + 1, power * 3
    raise UsageError(
        f"{flag} {text!r} reaches jump order {order}; at height denominator {den} "
        f"orders up to {top} can be printed ({limit}-digit integer limit)"
    )


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_distance(args) -> int:
    x = _parse_point(args.x)
    y = _parse_point(args.y)
    ivs = minimal_height_intervals(x, y)
    geodesics = [synthesize_geodesic(x, y, iv).to_json() for iv in ivs]
    payload = {
        "x": point_to_json(canonicalize(x)),
        "y": point_to_json(canonicalize(y)),
        "distance": format_rational(distance(x, y)),
        "intervals": [[format_rational(iv.a), format_rational(iv.b)] for iv in ivs],
        "geodesics": geodesics,
    }
    _emit(_json_dumps(payload), args.out)
    return 0


def cmd_profile(args) -> int:
    p = _parse_point(args.p)
    levels = _parse_line_spec(args.line)
    if len(levels) >= 3:
        raise UsageError(
            "profiles cover at most two jump levels; use the `reduce` subcommand "
            "to compare deeper lines against their two-level reduction"
        )
    _check_printable(p, levels, p.height.denominator, "--line", args.line)
    lines = vertical_lines(p, levels)
    results = []
    ok = True
    for line in lines:
        profile = profile_distance_on_line(p, line)
        expected = expected_kinks(p, line)
        match = profile.kink_heights() == expected
        ok = ok and match
        results.append(
            {
                "profile": profile.to_json(),
                "expected_kinks": [format_rational(h) for h in expected],
                "pass": match,
            }
        )
        if args.svg:
            suffix = f".{line.branch}" if len(lines) > 1 else ""
            path = args.svg if not suffix else _suffixed(args.svg, suffix)
            _emit(profile_to_svg(profile), path)
    payload = {"p": point_to_json(canonicalize(p)), "lines": results}
    _emit(_json_dumps(payload), args.out)
    return 0 if ok else 1


def _suffixed(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}{suffix}{ext}"


def cmd_reduce(args) -> int:
    p = _parse_point(args.p)
    try:
        levels = tuple(int(x) for x in args.levels.split(","))
    except ValueError as exc:
        raise UsageError(f"bad level list {args.levels!r}") from exc
    _check_orders(levels, "--levels", args.levels)
    t = parse_rational(args.t)
    den = math.lcm(p.height.denominator, t.denominator)
    _check_printable(p, levels[:2], den, "--levels", args.levels)
    full, two = parallel_reduction(p, levels, t)
    payload = {
        "p": point_to_json(canonicalize(p)),
        "levels": list(levels),
        "t": format_rational(t),
        "value_full": format_rational(full),
        "value_two_level": format_rational(two),
        "equal": full == two,
    }
    _emit(_json_dumps(payload), args.out)
    return 0 if full == two else 1


def cmd_census(args) -> int:
    p = _parse_point(args.p)
    records = census_records(p, args.max_level)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["height", "source_line", "kink_type"])
    for h, label, kind in records:
        writer.writerow([format_rational(h), label, kind])
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.suite not in verify_mod.SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {', '.join(verify_mod.SUITES)}")
    if args.depth is not None:
        if args.suite not in verify_mod.DEPTH_SUITES:
            raise UsageError(
                f"--depth sets the grid resolution of the {' and '.join(verify_mod.DEPTH_SUITES)} "
                f"suites; suite {args.suite!r} has none"
            )
        lo, hi = verify_mod.DEPTH_SUITES[args.suite]
        if not lo <= args.depth <= hi:
            raise UsageError(f"--depth of suite {args.suite!r} must be in {lo}..{hi}, got {args.depth}")
    checks = verify_mod.run_suite(args.suite, depth=args.depth, seed=args.seed)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "status", "expected", "actual"])
    for c in checks:
        writer.writerow(c.csv_row())
    _emit(buf.getvalue(), args.out)
    return 0 if all(c.passed for c in checks) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laakso",
        description="Exact computation on Laakso space: distances, geodesics, "
        "kink profiles of distance functions, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("distance", help="exact distance, minimal intervals, geodesics")
    d.add_argument("--x", required=True, help="point as h:bits, e.g. 1/2:0")
    d.add_argument("--y", required=True, help="point as h:bits")
    d.add_argument("--out", default=None, help="output path (default stdout)")
    d.set_defaults(func=cmd_distance)

    pr = sub.add_parser("profile", help="kink profile of d_p along a vertical line")
    pr.add_argument("--p", required=True, help="base point as h:bits")
    pr.add_argument("--line", required=True, help="v0 | vN:<N> | vD:<N>,<M>")
    pr.add_argument("--svg", default=None, help="write an SVG plot here")
    pr.add_argument("--out", default=None, help="JSON output path (default stdout)")
    pr.set_defaults(func=cmd_profile)

    rd = sub.add_parser("reduce", help="compare a deep line with its two-level reduction")
    rd.add_argument("--p", required=True, help="base point as h:bits")
    rd.add_argument("--levels", required=True, help="comma list of >=3 jump levels")
    rd.add_argument("--t", required=True, help="height as p/q")
    rd.add_argument("--out", default=None)
    rd.set_defaults(func=cmd_reduce)

    ce = sub.add_parser(
        "census",
        help="CSV census of non-differentiability heights",
        epilog="CSV columns: height, source_line, kink_type.",
    )
    ce.add_argument("--p", required=True, help="base point as h:bits")
    ce.add_argument("--max-level", type=int, default=4)
    ce.add_argument("--out", default=None)
    ce.set_defaults(func=cmd_census)

    ve = sub.add_parser(
        "verify",
        help="run a verification suite, CSV per check",
        epilog="CSV columns: check, status, expected, actual "
        "(exact p/q values except fields named ratio/spread).",
    )
    ve.add_argument("suite", help="|".join(verify_mod.SUITES))
    ve.add_argument(
        "--depth",
        type=int,
        default=None,
        help="grid resolution m (oracle and regularity suites only)",
    )
    ve.add_argument("--seed", type=int, default=None, help="pin randomized pools")
    ve.add_argument("--out", default=None)
    ve.set_defaults(func=cmd_verify)

    return parser


_PARSER = _build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Batch command-line front end.

Subcommands: distance, profile, reduce, census, verify.  Points are written
h:bits with h an exact "p/q" rational and bits a 0/1 string (possibly
empty), e.g. 1/2:0 or 4/9:01.  Every number in argv is written in ASCII
digits 0-9: integers with an optional leading "-", rationals with an
optional sign; "_" and other scripts' digits are usage errors.

`distance`, `profile` and `reduce` print JSON, indented by 2 spaces, keys
sorted, non-ASCII characters as \\uXXXX escapes, one trailing newline; its
values are exact "p/q" strings, ints, booleans and null, never floats
(`_json_dumps`, the one JSON writer, refuses any other value, subclasses
of these included).  `census` and `verify` print CSV, whose numeric fields
are exact "p/q" strings except the `verify` fields named "ratio"/"spread",
which are floating point for reporting only.  Identical invocations produce
byte-identical output; randomized suites are pinned by --seed.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error, 3
internal error (an invariant of the library failed, `core.InternalError`;
in `verify`, whose inputs are all checked first, any `ValueError` too).
argparse is the only parser, declared once in `_build_parser`: `main` hands
an argv that starts with a subcommand name straight to that subcommand's
parser (one argparse pass), and the top-level parser reads only an argv
that does not (none, --help, an unknown name, a flag first).  Every flag
is read by a `type=` converter or `choices=`, and every usage error,
argparse's own included, is one `error:` line naming the flag at fault.
Every argument that sets a scale is bounded before any work: the jump
orders of profile --line and reduce --levels by their converters, verify
--depth by the depths `verify.SUITES` lists, census --max-level by its
converter, and the size of every printed answer by `_check_printable`.

A --line spec is one of v0 (the base point's own line), v<N>, vN:<N> or
v<N>:<N> (one jump at order N), or vD:<N>,<M>[,...] (one jump at each of
the increasing orders listed).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Tuple

from . import verify as verify_mod
from .core import (
    InternalError,
    LaaksoPoint,
    _format_ratio,
    canonicalize,
    format_rational,
    parse_rational,
    point,
    point_to_json,
    wormhole_order,
)
# `distance` stays bound here: perfbench/selftest.py checks that its tracer
# rebinds `laakso.cli.distance` along with `laakso.metric.distance`.
from .metric import _Pair, distance  # noqa: F401
from .profiles import (
    _MAX_CENSUS_LEVEL,
    _closed_form,
    _gaps,
    _matches_closed_form,
    census_records,
    parallel_reduction,
    profile_distance_on_line,
    profile_to_svg,
    vertical_lines,
)

__all__ = ["main", "entrypoint"]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a parse error, argparse's own included, as one `error:` line."""

    def error(self, message: str):
        raise UsageError(message)


def _point(text: str) -> LaaksoPoint:
    h, _, bits = text.partition(":")
    try:
        return point(parse_rational(h), bits)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: {exc}") from exc


def _height(text: str) -> Fraction:
    try:
        t = parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not 0 <= t <= 1:
        raise argparse.ArgumentTypeError(f"height {text!r} outside [0, 1]")
    return t


# A line at jump order n carries an n-bit address and grid arithmetic on
# 3**n, so the work grows faster than n: a `vD:1,n` profile at p = 1/2:0
# takes ~0.07 s at n = 100000 and ~2.4 s at n = 1000000 on a 2-vCPU host
# (CPython 3.11).
_MAX_ORDER = 100_000


def _checked_orders(levels: Tuple[int, ...], text: str) -> Tuple[int, ...]:
    if any(n < 1 for n in levels) or list(levels) != sorted(set(levels)):
        raise argparse.ArgumentTypeError(f"{text!r}: jump orders must be increasing positive integers")
    if levels and max(levels) > _MAX_ORDER:
        raise argparse.ArgumentTypeError(f"{text!r}: jump orders above {_MAX_ORDER} are not accepted")
    return levels


# The one integer grammar of argv: `int` alone also takes spaces, "+", "_"
# and every Unicode decimal digit.
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    try:
        if _INTEGER.fullmatch(text):
            return int(text)
    except ValueError:  # past the integer-string digit limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _census_level(text: str) -> int:
    level = _integer(text)
    if not 1 <= level <= _MAX_CENSUS_LEVEL:
        raise argparse.ArgumentTypeError(f"must be in 1..{_MAX_CENSUS_LEVEL}, got {level}")
    return level


def _levels(text: str) -> Tuple[int, ...]:
    try:
        levels = tuple(_integer(x) for x in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}") from None
    return _checked_orders(levels, text)


_LINE_SPEC = re.compile(
    r"v(?:(?P<one>\d+)|(?P<tag>n|\d+):(?P<order>\d+)|d:(?P<orders>\d+(?:,\d+)+))", re.ASCII
)


def _line(spec: str) -> Tuple[int, ...]:
    """v0 | v<N> | vN:<N> | v<N>:<N> (equal numbers) | vD:<N>,<M>[,...]."""
    match = _LINE_SPEC.fullmatch(spec.strip().lower())
    if match is None:
        raise argparse.ArgumentTypeError(f"bad line spec {spec!r}")
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
        raise argparse.ArgumentTypeError(f"bad line spec {spec!r}") from exc
    return _checked_orders(levels, spec)


def _check_free_orders(flag: str, p: LaaksoPoint, levels: Tuple[int, ...]) -> None:
    """Refuse a jump at the wormhole order of p's height, free at p, naming
    the flag; the library refuses it too, for its own callers."""
    w = wormhole_order(p.height)
    if w in levels:
        raise UsageError(f"argument {flag}: level {w} is the base point's own wormhole order")


def _binding_order(p: LaaksoPoint, levels: Tuple[int, ...]) -> int:
    """The deepest order of `levels` that can bind a minimal interval on a
    line through p.  Every minimal interval covers h(p) and an
    order-`levels[0]` wormhole, so it is at least as long as the smaller
    order-`levels[0]` gap g at h(p); a deeper order M binds only if
    g < 2/3**M, since its grid (spacing at most 2/3**M) meets every longer
    interval.  The gaps are read as integers over den h(p) * 3**levels[0]."""
    n = levels[0]
    den = p.height.denominator * 3**n
    g = min(gap for gap in _gaps(p.height.numerator * 3**n, den, n) if gap is not None)
    order = n
    for m in levels[1:]:
        # g / den < 2/3**m is impossible once 3**m > 2**m >= 2 * den.
        if m < (2 * den).bit_length() and 3**m * g < 2 * den:
            order = m
    return order


def _check_printable(flag: str, den: int, order: int) -> None:
    """Refuse, before any work, a request whose answer could not be printed.

    Every height and value printed lies in [-3, 3] with a denominator
    dividing den * 3**order, and Python refuses to print an integer of
    more than `sys.get_int_max_str_digits()` digits, so the answer prints
    when every integer below den * 3**(order + 1) does.  The refusal names
    the largest order that would print; it never prints den, which may be
    past the limit itself.
    """
    limit = sys.get_int_max_str_digits()
    # 2**(3 * limit) < 10**limit and den * 3**(order + 1) < 2**(bits + 2*(order + 1)).
    if not limit or den.bit_length() + 2 * (order + 1) <= 3 * limit:
        return
    cap = (10**limit - 1) // den
    if order < 4 * limit and 3 ** (order + 1) <= cap:  # 3**(4 * limit) > 10**limit
        return
    top, power = -1, 3  # the largest order with 3**(top + 1) <= cap
    while power <= cap:
        top, power = top + 1, power * 3
    reach = f"orders up to {top} can be printed" if top >= 0 else "no order can be printed"
    raise UsageError(
        f"{flag} reaches jump order {order}; at these heights {reach} ({limit}-digit integer limit)"
    )


def _emit(*outputs: Tuple[str, Optional[str]]) -> None:
    """Writes all of a command's output, given as (text, path) pairs built in
    full beforehand; a path of None or "-" is stdout.

    Each file is first written under a temporary name in the directory of
    the file it replaces (symlinks resolved), and only once every file is
    written are they moved into place with `os.replace`, so a failed write
    leaves none of the command's files, final or temporary, behind.  A path
    that exists but is no regular file (a device such as /dev/null, a pipe)
    cannot be replaced: it is opened with the files and written after them,
    as is the empty path, which names no file.  Stdout is written last.
    """
    files = [(text, path) for text, path in outputs if path not in (None, "-")]
    pending, in_place = [], []
    try:
        for i, (text, path) in enumerate(files):
            if not path or (os.path.exists(path) and not os.path.isfile(path)):
                in_place.append((text, path, open(path, "w")))
                continue
            real = os.path.realpath(path)
            head, tail = os.path.split(real)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.{i}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            pending.append((tmp, real, path))
            with open(fd, "w") as fh:
                fh.write(text)
        while pending:
            tmp, real, path = pending[0]
            os.replace(tmp, real)
            pending.pop(0)
        for text, path, fh in in_place:
            fh.write(text)
            fh.flush()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        for tmp, _, _ in pending:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        for _, _, fh in in_place:
            with contextlib.suppress(OSError):
                fh.close()
    for text, path in outputs:
        if path in (None, "-"):
            sys.stdout.write(text)


def _json_dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, byte for byte, on
    the CLI's closed output schema: str, int, bool, None, and lists and
    str-keyed dicts of these.  Anything else, a float, a tuple, a non-str
    key or a subclass of str, int, list or dict as a value included, raises
    TypeError.  (CPython's `json` writes indented text in pure Python.)"""
    return _text(obj, "\n") + "\n"


_LITERALS = {None: "null", True: "true", False: "false"}


def _text(o, indent: str) -> str:
    """The JSON text of o; its inner lines start with indent + 2 spaces."""
    kind = type(o)
    if kind is str:
        return encode_basestring_ascii(o)
    if kind is int:
        return int.__repr__(o)
    if kind is list:
        if not o:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_text(v, inner) for v in o]) + indent + "]"
    if kind is dict:
        if not o:
            return "{}"
        inner = indent + "  "
        # encode_basestring_ascii raises TypeError on a key that is no str
        items = [encode_basestring_ascii(k) + ": " + _text(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if o is None or o is True or o is False:
        return _LITERALS[o]
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def cmd_distance(args) -> int:
    x, y = args.x, args.y
    # The deepest address bit where x and y differ is the deepest order a
    # printed height or value can carry.
    pair = _Pair.of(x, y)
    den = math.lcm(x.height.denominator, y.height.denominator)
    _check_printable("--x/--y", den, pair.levels[-1] if pair.levels else 0)
    # Every height and the distance are printed off the pair's scale.
    den = pair.den
    ivs = pair.intervals()
    geodesics = []
    for iv in ivs:
        events = []
        for event in pair.trace(*iv):
            if len(event) == 3:
                s, e, bits = event
                events.append({"seg": [_format_ratio(s, den), _format_ratio(e, den)], "bits": bits})
            else:
                n, h = event
                events.append({"jump": n, "at": _format_ratio(h, den)})
        geodesics.append(events)
    payload = {
        "x": point_to_json(pair.x),
        "y": point_to_json(pair.y),
        "distance": _format_ratio(pair.length(*ivs[0]), den),
        "intervals": [[_format_ratio(a, den), _format_ratio(b, den)] for a, b in ivs],
        "geodesics": geodesics,
    }
    _emit((_json_dumps(payload), args.out))
    return 0


def cmd_profile(args) -> int:
    p, levels = args.p, args.line
    if len(levels) >= 3:
        raise UsageError(
            "argument --line: profiles cover at most two jump levels; use the `reduce` subcommand "
            "to compare deeper lines against their two-level reduction"
        )
    _check_free_orders("--line", p, levels)
    if levels:
        _check_printable("--line", p.height.denominator, _binding_order(p, levels))
    lines = vertical_lines(p, levels)
    profiles = [profile_distance_on_line(p, line) for line in lines]
    # One closed form serves every line: it depends on h(p) and the levels.
    _, den, closed = _closed_form(p.height, levels)
    expected = [_format_ratio(v, den) for v in closed]
    results = []
    svgs = []
    ok = True
    for line, profile in zip(lines, profiles):
        match = _matches_closed_form(profile, den, closed)
        ok = ok and match
        results.append({"profile": profile.to_json(), "expected_kinks": expected, "pass": match})
        if args.svg:
            suffix = f".{line.branch}" if len(lines) > 1 else ""
            path = args.svg if not suffix else _suffixed(args.svg, suffix)
            svgs.append((profile_to_svg(profile), path))
    payload = {"p": point_to_json(canonicalize(p)), "lines": results}
    _emit(*svgs, (_json_dumps(payload), args.out))
    return 0 if ok else 1


def _suffixed(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}{suffix}{ext}"


def cmd_reduce(args) -> int:
    p, levels, t = args.p, args.levels, args.t
    if len(levels) < 3:
        raise UsageError("argument --levels: need at least three levels; two-level lines stand alone")
    _check_free_orders("--levels", p, levels)
    # Deeper jumps thread through a geodesic of the first two orders for
    # free, so both printed values are those of the first-two-order line.
    den = math.lcm(p.height.denominator, t.denominator)
    _check_printable("--levels", den, _binding_order(p, levels[:2]))
    full, two = parallel_reduction(p, levels, t)
    payload = {
        "p": point_to_json(canonicalize(p)),
        "levels": list(levels),
        "t": format_rational(t),
        "value_full": format_rational(full),
        "value_two_level": format_rational(two),
        "equal": full == two,
    }
    _emit((_json_dumps(payload), args.out))
    return 0 if full == two else 1


def cmd_census(args) -> int:
    records = census_records(args.p, args.max_level)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["height", "source_line", "kink_type"])
    for h, label, kind in records:
        writer.writerow([format_rational(h), label, kind])
    _emit((buf.getvalue(), args.out))
    return 0


def cmd_verify(args) -> int:
    depths = verify_mod.SUITES[args.suite].depths
    if args.depth is not None and args.depth not in depths:
        if not depths:
            raise UsageError(f"suite {args.suite!r} has no grid resolution to set with --depth")
        raise UsageError(f"--depth of suite {args.suite!r} must be in {depths[0]}..{depths[-1]}, got {args.depth}")
    try:
        checks = verify_mod.run_suite(args.suite, depth=args.depth, seed=args.seed)
    except ValueError as exc:  # every input was checked above: the library is at fault
        raise InternalError(str(exc)) from exc
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "status", "expected", "actual"])
    for c in checks:
        writer.writerow(c.csv_row())
    _emit((buf.getvalue(), args.out))
    return 0 if all(c.passed for c in checks) else 1


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and its subcommands' parsers by name."""
    parser = _Parser(
        prog="laakso",
        description="Exact computation on Laakso space: distances, geodesics, "
        "kink profiles of distance functions, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("distance", help="exact distance, minimal intervals, geodesics")
    d.add_argument("--x", required=True, type=_point, help="point as h:bits, e.g. 1/2:0")
    d.add_argument("--y", required=True, type=_point, help="point as h:bits")
    d.add_argument("--out", default=None, help="output path (default stdout)")
    d.set_defaults(func=cmd_distance)

    pr = sub.add_parser("profile", help="kink profile of d_p along a vertical line")
    pr.add_argument("--p", required=True, type=_point, help="base point as h:bits")
    pr.add_argument("--line", required=True, type=_line, help="v0 | vN:<N> | vD:<N>,<M>")
    pr.add_argument("--svg", default=None, help="write an SVG plot here")
    pr.add_argument("--out", default=None, help="JSON output path (default stdout)")
    pr.set_defaults(func=cmd_profile)

    rd = sub.add_parser("reduce", help="compare a deep line with its two-level reduction")
    rd.add_argument("--p", required=True, type=_point, help="base point as h:bits")
    rd.add_argument("--levels", required=True, type=_levels, help="comma list of >=3 jump levels")
    rd.add_argument("--t", required=True, type=_height, help="height as p/q")
    rd.add_argument("--out", default=None)
    rd.set_defaults(func=cmd_reduce)

    ce = sub.add_parser(
        "census",
        help="CSV census of non-differentiability heights",
        epilog="CSV columns: height, source_line, kink_type.",
    )
    ce.add_argument("--p", required=True, type=_point, help="base point as h:bits")
    ce.add_argument("--max-level", type=_census_level, default=4)
    ce.add_argument("--out", default=None)
    ce.set_defaults(func=cmd_census)

    ve = sub.add_parser(
        "verify",
        help="run a verification suite, CSV per check",
        epilog="CSV columns: check, status, expected, actual "
        "(exact p/q values except fields named ratio/spread).",
    )
    ve.add_argument("suite", choices=verify_mod.SUITES, metavar="suite", help="|".join(verify_mod.SUITES))
    ve.add_argument(
        "--depth",
        type=_integer,
        default=None,
        help="grid resolution m (oracle and regularity suites only)",
    )
    ve.add_argument("--seed", type=_integer, default=None, help="pin randomized pools")
    ve.add_argument("--out", default=None)
    ve.set_defaults(func=cmd_verify)

    return parser, sub.choices


# The top-level parser has no option but -h, and its subcommand action hands
# every string after the name to the subcommand's parser, so that parser
# alone reads such an argv to the same namespace (less `command`, which
# nothing reads) and the same errors, in one pass instead of two.
_PARSER, _COMMANDS = _build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command = _COMMANDS.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else _PARSER.parse_args(argv)
        return args.func(args)
    except SystemExit:  # only --help exits: the parser raises UsageError
        return 0
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

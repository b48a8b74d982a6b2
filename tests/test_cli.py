import argparse
import collections
import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import threading
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import laakso
from laakso import calculus, cli, metric, oracle, profiles, verify
from laakso import constructions as cons
from laakso.cli import main
from laakso.core import (
    Direction,
    HeightInterval,
    InternalError,
    canonicalize,
    format_rational,
    nearest_wormhole_gap,
    point,
    wormhole_order,
)
from laakso.profiles import expected_kinks, profile_distance_on_line, vertical_lines

SRC = Path(laakso.__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_distance_command(capsys):
    code, out, err = run(capsys, "distance", "--x", "1/2:0", "--y", "1/2:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] == "1/3"
    assert payload["intervals"] == [["1/3", "1/2"], ["1/2", "2/3"]]
    assert len(payload["geodesics"]) == 2
    assert {"jump": 1, "at": "1/3"} in payload["geodesics"][0]


def test_distance_identity_and_malformed(capsys):
    code, out, _ = run(capsys, "distance", "--x", "1/2:0", "--y", "1/2:0")
    assert code == 0 and json.loads(out)["distance"] == "0"
    code, _, err = run(capsys, "distance", "--x", "0.5:0", "--y", "1/2:1")
    assert code == 2 and "bad point" in err
    code, _, err = run(capsys, "distance", "--x", "1/2:02", "--y", "1/2:1")
    assert code == 2
    for bits in ("01\n", "1_0", "0b1", " 1"):
        code, out, err = run(capsys, "distance", "--x", f"1/2:{bits}", "--y", "1/2:1")
        assert code == 2 and not out and "bad point" in err, bits


def test_profile_command(capsys):
    code, out, _ = run(capsys, "profile", "--p", "1/2:0", "--line", "v1:1")
    assert code == 0
    payload = json.loads(out)
    (entry,) = payload["lines"]
    assert entry["pass"] is True
    assert [k["h"] for k in entry["profile"]["kinks"]] == ["1/3", "1/2", "2/3"]

    code, out, _ = run(capsys, "profile", "--p", "1/2:0", "--line", "v0")
    payload = json.loads(out)
    (entry,) = payload["lines"]
    assert [k["h"] for k in entry["profile"]["kinks"]] == ["1/2"]
    assert entry["profile"]["kinks"][0]["left"] == -1
    assert entry["profile"]["kinks"][0]["right"] == 1

    # v0, v<N>, vN:<N>, v<N>:<N> with equal numbers and vD:<N>,<M>[,...]
    # name a line; any other spec is one usage error, not a guess.
    _, v4, _ = run(capsys, "profile", "--p", "1/2:0", "--line", "v4")
    for spec in ("vN:4", "v4:4", "V4", "vn:4"):
        code, out, _ = run(capsys, "profile", "--p", "1/2:0", "--line", spec)
        assert code == 0 and out == v4, spec
    for spec in ("v0", "vD:1,2"):
        code, _, _ = run(capsys, "profile", "--p", "1/2:0", "--line", spec)
        assert code == 0, spec
    for spec in ("v7:4", "vx:4", "v:4", "vN:", "vD:4", "vD:1,", "vD:1,,2", "v+4", "v 4",
                 "v4.0", "v4:4:4", "vN:1,2", "w4", "v", "4", "v\u0664", "v" + "9" * 5000):
        code, out, err = run(capsys, "profile", "--p", "1/2:0", "--line", spec)
        assert code == 2 and out == "", spec
        assert err == f"error: argument --line: bad line spec {spec!r}\n"
    for spec in ("vD:2,1", "vD:2,2", "vN:0", "v0:0"):
        code, out, err = run(capsys, "profile", "--p", "1/2:0", "--line", spec)
        assert code == 2 and out == "", spec
        assert err == f"error: argument --line: {spec!r}: jump orders must be increasing positive integers\n"


def test_profile_wormhole_base_point_two_lines(capsys):
    code, out, _ = run(capsys, "profile", "--p", "1/3:0", "--line", "v2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["lines"]) == 2
    assert all(entry["pass"] for entry in payload["lines"])


def test_profile_rejects_deep_lines(capsys):
    code, _, err = run(capsys, "profile", "--p", "1/2:0", "--line", "vD:1,2,3")
    assert code == 2
    assert "reduce" in err


def test_profile_svg_output(tmp_path, capsys):
    svg_path = tmp_path / "plot.svg"
    code, out, _ = run(
        capsys, "profile", "--p", "1/2:0", "--line", "v1", "--svg", str(svg_path)
    )
    assert code == 0
    text = svg_path.read_text()
    assert text.startswith("<svg") and "circle" in text


def test_reduce_command(capsys):
    code, out, _ = run(
        capsys, "reduce", "--p", "2/5:0", "--levels", "1,2,3", "--t", "1/2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["value_full"] == payload["value_two_level"]
    code, _, err = run(capsys, "reduce", "--p", "2/5:0", "--levels", "1,2", "--t", "1/2")
    assert code == 2


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "--p", "1/2:0", "--max-level", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "height,source_line,kink_type"
    assert any(row.startswith("1/2,v0,min") for row in lines[1:])
    assert any(row.startswith("1/3,v1,") for row in lines[1:])


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "oracle", "--depth", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,status,expected,actual"
    assert all(",pass," in row for row in lines[1:])
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2 and err == (
        "error: argument suite: invalid choice: 'nonsense' (choose from 'oracle', 'kinks', "
        "'constructions', 'porosity', 'regularity', 'parallel')\n"
    )


def test_verify_determinism(capsys):
    code1, out1, _ = run(capsys, "verify", "porosity", "--seed", "5")
    code2, out2, _ = run(capsys, "verify", "porosity", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_distance_determinism(capsys):
    _, out1, _ = run(capsys, "distance", "--x", "4/9:00", "--y", "4/9:11")
    _, out2, _ = run(capsys, "distance", "--x", "4/9:00", "--y", "4/9:11")
    assert out1 == out2


# sha256 of stdout, recorded before `cli._json_dumps` stopped calling `json`:
# JSON layout is part of the output contract, and `json.loads` ignores it.
_PINNED_STDOUT = {
    "distance --x 1/2:01 --y 1/2:10": "56ddbe816cf1041dd93a9ab4b7be575d7dd4222e77665d11a24196e162cf0b5e",
    "distance --x 1/3:1 --y 2/3:01": "2406ed95e55d5c4325ceb3a3d042bed9be8797ed88d5f3e99803d06190550bf6",
    "distance --x 1/2:0 --y 1/2:0": "fb5564946cf915771a301e8b637c60c2c384ff076d11ef41d5931e9a4dc6e8bf",
    "distance --x 1/3:0 --y 1/3:1": "8f95ca401666cb35f3b1fd50fba6be1550cbe0751bca73835d04fbb19d56a70c",
    "distance --x 0: --y 1:1": "d9b373467cc243bd1ce8e8f2b11ff2c1143718a180afef6c60c55699c3fe827f",
    "distance --x 1/2: --y 1/2:0000000001": "98bb0f44f0125b77e50285a1f43cda8aa8364b3c7f6083cc68aaa81eb4d35520",
    "distance --x 1/3:01 --y 1/3:1": "7b10c767495f2a3de8c662645eec9805012d64e9b27ae2a962932ec8b358e0ee",
    "distance --x 1/3:0 --y 1/2:1": "9f4ce1c740c52bc74c2c4ec4c700507fc355fdfca19446955646c832af09bf21",
    "distance --x 1/3:01 --y 4/9:0": "4fb5667f62138c21063f121d640352cd9bd673fe1c5b1c6cd8d5d4f2953049ff",
    "profile --p 1/2:0 --line v0": "daa36ea715221bf2b7e42ecb3345e28d9eb297c897e1453da4fc0942d0cdfa2f",
    "profile --p 2/5:0 --line vN:2": "07450fbf10d73c4af6e26690ad546b1cc93f3474cc0fdb73440e9109834a42c8",
    "profile --p 2/5:01 --line vD:1,3": "f97fe66884bf0d97787334a2fb014ca27bae86b953b77cded823d1a2951cb19e",
    "profile --p 0:0 --line v0": "e8a135cc23aea11049aaaf6e20349a426693c2c662386e90cc9f8a15c2bf771b",
    "profile --p 0:0 --line v1": "32383d1fd04b27834441e85794374c77b703d9e93317e0e9997cd91ce36b27b4",
    "profile --p 1/3:0 --line v2": "67198f2fb82a16e4bb6660034f5b26165fff5ef1d5a51c83c448f3ac1281cf3f",
    "profile --p 1/3:01 --line vD:2,3": "d23bb98044e40e6f0d415d3a015e56698c76482af758f03a6f0b3911c89d3314",
    "profile --p 1:1 --line vD:1,2": "6c3bc98c65413d4609dbf6e4c5181abbdf6c2a5d80cba04767e230d0556952dd",
    "profile --p 4/9:1 --line vD:1,3": "eea141cbe4a2be3173cad1781b8dfbedb1f8062018a99b050ca8925f25fe28c6",
    "profile --p 2/5:0 --line vD:1,40": "aa15f480ff9fdb206820ae910351039c8fb9cc30e5ccf76d394df148d9d1a863",
    "reduce --p 2/5:0 --levels 1,2,3 --t 1/2": "0d4c26a7b748fa3772b7074f03c9701407837acefa3c83f620d4a11c61586f98",
    "verify constructions": "1728debbe977e83d00d0f454357bff3b4ff512ab3e004dd04b0d5160903d971e",
    "verify porosity --seed 0": "1b5ff368baeaaa06a3daff27e25f7e8ef573d1d7fd032c21c5998085b5d1776d",
    "verify parallel": "0188ad187eceea25b566cd529d727f35ac5c69429befdfd08e5063c07a7e0ef2",
    "verify kinks": "f72f2eea19dac3a52b07b98c0fc0d5fd702f9e31357f05eb54785130303d7ce9",
    "verify oracle": "88f497da464d6e91464744f10e7c27acb126db8c60ed75620f7317f2ad8ac4ad",
    "verify oracle --depth 3": "b8f6b134710241db514bc814119a8fb1d6b3ac59b8428b190cdf12a98736fb97",
    "census --p 1/2:0 --max-level 4": "e9e4410fabe1c27eac770879d5e377f26cfe65fdd9ff68260bc92559f3bd5a0e",
    "census --p 1:0 --max-level 2": "4b58dfeccd3ed0e5cc6a07444758a5914d48c8ddbc2a9bba266f724558b0c57b",
    "census --p 1/3:1 --max-level 3": "14dc17216c019b07f73c4c81fd2f45090016cbfd4b9d05610ae9128a44d00d5c",
}


def test_stdout_bytes_are_pinned(capsys):
    # Two geodesics; a glued point; equal points (one empty geodesic); both
    # representatives of one glued point (distance 0); the boundary heights
    # 0 and 1; an order-10 jump; a glued point against an address deeper
    # than its wormhole order; a geodesic that starts with a jump at x's
    # height (1/3:0 to 1/2:1) and one that ends with a jump at y's (1/3:01
    # to 4/9:0); the base point's own line, one- and two-order lines, a
    # line with no kink (p = 0:0 on v0), the two branches at a wormhole
    # (one of them requiring the base point's own wormhole order), a
    # boundary base point, a two-order line at an order-2 wormhole and an
    # order-40 line; a reduction; the sampled Lipschitz ratios of both
    # witnesses and a porosity round; the parallel and kinks suites, the
    # oracle suite at depths 2 and 3; censuses at 1/2, at the boundary
    # height 1 and at a wormhole that skips its own order.
    for command, sha in _PINNED_STDOUT.items():
        code, out, _ = run(capsys, *command.split())
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == sha, command
    payload = json.loads(run(capsys, *"distance --x 1/2:0 --y 1/2:0".split())[1])
    assert payload["geodesics"] == [[]]
    payload = json.loads(run(capsys, *"profile --p 0:0 --line v0".split())[1])
    assert payload["lines"][0]["profile"]["kinks"] == []


# sha256 of the stdout of `verify <suite> --seed 0` to `--seed 7`, joined in
# seed order, recorded before `verify parallel` and `verify kinks` moved onto
# integer scales: the whole acceptance gate at eight seeds per suite.
_VERIFY_SEEDS_STDOUT = {
    "oracle": "8d3df70143e8ec480b6fd72fa9ced4ee04c8b95533d6eab2256705ca14dafec9",
    "kinks": "c05c060bbc700d71a191d02d3ead3cae69461a4077c1941ef33ef71ae34ed9e7",
    "constructions": "4092c952aef943609b08a3e2aa47bcf5bc4d1944c7a02ec2cf334c2dbd1e59a7",
    "porosity": "5e3a486c2fe038fbe54fd541e790f50be69504d5b3e48cddc9b9262b76b4b171",
    "regularity": "a6480575838d62cb2e0b0088c305e00efe76dc0c5c08824d4ab247fc1418ad45",
    "parallel": "9a7db0975e90788a896f45de8c66ac38a85646bd28e9232262c31d7882928fff",
}


def test_verify_suites_at_eight_seeds_are_pinned(capsys):
    assert set(_VERIFY_SEEDS_STDOUT) == set(verify.SUITES)
    for suite, sha in _VERIFY_SEEDS_STDOUT.items():
        digest = hashlib.sha256()
        for seed in range(8):
            code, out, err = run(capsys, "verify", suite, "--seed", str(seed))
            assert (code, err) == (0, ""), (suite, seed)
            digest.update(out.encode())
        assert digest.hexdigest() == sha, suite


def _reference_point(p):
    """A point's wire form, at its canonical representative."""
    p = canonicalize(p)
    return {"h": format_rational(p.height), "bits": p.address.bits}


def _reference_reply(x, y):
    """The `distance` reply built from the library's objects: intervals,
    geodesics and distance as `Fraction`s, each printed by
    `format_rational`, the whole by the standard `json` module."""
    intervals = metric.minimal_height_intervals(x, y)
    geodesics = []
    for iv in intervals:
        events = []
        for e in metric.synthesize_geodesic(x, y, iv).events:
            if isinstance(e, metric.Segment):
                events.append({"seg": [format_rational(e.start), format_rational(e.end)], "bits": e.bits})
            else:
                events.append({"jump": e.order, "at": format_rational(e.height)})
        geodesics.append(events)
    payload = {
        "x": _reference_point(x),
        "y": _reference_point(y),
        "distance": format_rational(metric.distance(x, y)),
        "intervals": [[format_rational(iv.a), format_rational(iv.b)] for iv in intervals],
        "geodesics": geodesics,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_reply_heights = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
    st.integers(1, 6).flatmap(lambda n: st.integers(0, 3**n).map(lambda k: Fraction(k, 3**n))),
    st.fractions(min_value=0, max_value=1, max_denominator=60),
)


# k / 3**n with 3 not dividing k: wormhole heights of orders 1..6.
_wormhole_heights = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.integers(0, 3 ** (n - 1) - 1), st.sampled_from([1, 2])).map(
        lambda jr: Fraction(3 * jr[0] + jr[1], 3**n)
    )
)


@st.composite
def _reply_pairs(draw):
    """Two points: unrelated; equal; the two representatives of a glued
    point; or one height with addresses differing in one bit (two minimal
    intervals at 1/2).  Addresses run up to depth 10, past the order of a
    triadic height."""
    kind = draw(st.sampled_from(["free", "equal", "glued", "flip"]))
    if kind == "glued":
        h = draw(_wormhole_heights)
    elif kind == "flip":
        h = draw(st.one_of(st.just(Fraction(1, 2)), _reply_heights))
    else:
        h = draw(_reply_heights)
    bits = draw(st.text("01", max_size=10))
    n = wormhole_order(h)
    if kind == "free":
        other = (draw(_reply_heights), draw(st.text("01", max_size=10)))
    elif kind == "equal":
        other = (h, bits)
    else:
        m = n if kind == "glued" else draw(st.integers(1, 10))
        padded = bits.ljust(m, "0")
        other = (h, padded[: m - 1] + "10"[int(padded[m - 1])] + padded[m:])
    event(kind)
    return (h, bits), other


@settings(max_examples=300, deadline=None)
@example(((Fraction(1, 2), "0"), (Fraction(1, 2), "1")))
@example(((Fraction(1, 3), "0"), (Fraction(1, 3), "1")))
@example(((Fraction(0), ""), (Fraction(1), "1")))
@example(((Fraction(1, 3), "01"), (Fraction(1, 3), "1")))
@example(((Fraction(1, 3), "0"), (Fraction(1, 2), "1")))
@example(((Fraction(1, 3), "01"), (Fraction(4, 9), "0")))
@given(_reply_pairs())
def test_distance_reply_matches_the_object_path(pair):
    # The reply is printed off the pair's integer scale; the library's
    # objects, printed by `format_rational` and `json`, must read the same.
    (hx, bx), (hy, by) = pair
    x, y = point(hx, bx), point(hy, by)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["distance", "--x", f"{format_rational(hx)}:{bx}", "--y", f"{format_rational(hy)}:{by}"])
    assert code == 0
    assert out.getvalue() == _reference_reply(x, y)
    event(f"{len(metric.minimal_height_intervals(x, y))} interval(s)")


def test_distance_reply_builds_no_fraction_interval_or_path(monkeypatch, capsys):
    # With the object types `metric` builds and the JSON writer made to
    # raise, every pinned `distance` reply still prints the same bytes: the
    # reply is written off the pair's integers alone, in its own layout.  A
    # `profile` reply, which goes through the writer, fails.
    commands = [command for command in _PINNED_STDOUT if command.startswith("distance ")]
    replies = {command: run(capsys, *command.split()) for command in commands}

    def refuse(*args, **kwargs):
        raise AssertionError("an object was built for a distance reply")

    for name in ("Fraction", "HeightInterval", "Segment", "WormholeLevel", "GeodesicPath"):
        monkeypatch.setattr(metric, name, refuse)
    monkeypatch.setattr(cli, "_json_dumps", refuse)
    with pytest.raises(AssertionError):
        metric.minimal_height_intervals(point("1/2", "0"), point("1/2", "1"))
    with pytest.raises(AssertionError):
        run(capsys, *"profile --p 1/2:0 --line v0".split())
    for command in commands:
        assert run(capsys, *command.split()) == replies[command], command


def _reference_profile_reply(p, levels):
    """The `profile` reply built from the library's objects: each line's
    pieces and kinks and `expected_kinks` as `Fraction`s, each printed by
    `format_rational`, the whole by the standard `json` module; a line
    passes when its kink heights are `expected_kinks` and its kinds
    alternate from "min"."""
    results = []
    ok = True
    for line in vertical_lines(p, levels):
        profile = profile_distance_on_line(p, line)
        expected = expected_kinks(p, line)
        kinds = [k.kind for k in profile.kinks]
        match = profile.kink_heights() == expected and kinds == [("min", "max")[i % 2] for i in range(len(kinds))]
        ok = ok and match
        pieces = [
            {"lo": format_rational(x.lo), "hi": format_rational(x.hi), "slope": x.slope, "offset": format_rational(x.offset)}
            for x in profile.pieces
        ]
        kinks = [
            {"h": format_rational(k.height), "left": k.left_slope, "right": k.right_slope, "kind": k.kind}
            for k in profile.kinks
        ]
        results.append(
            {
                "profile": {
                    "line": {"label": line.label, "bits": line.bits, "branch": line.branch},
                    "pieces": pieces,
                    "kinks": kinks,
                },
                "expected_kinks": [format_rational(h) for h in expected],
                "pass": match,
            }
        )
    payload = {"p": _reference_point(p), "lines": results}
    return (0 if ok else 1), json.dumps(payload, indent=2, sort_keys=True) + "\n"


@st.composite
def _profile_requests(draw):
    """A base point, at a wormhole height (two lines, one per branch) or
    not, boundary heights included, with up to two jump orders up to 8
    that avoid its own wormhole order."""
    h = draw(st.one_of(_wormhole_heights, _reply_heights))
    bits = draw(st.text("01", max_size=8))
    w = wormhole_order(h)
    orders = [n for n in range(1, 9) if n != w]
    levels = tuple(sorted(draw(st.lists(st.sampled_from(orders), max_size=2, unique=True))))
    event("wormhole base point" if w else "no wormhole at h(p)")
    return point(h, bits), levels


@settings(max_examples=200, deadline=None)
@example((point("1/3", "1"), (2,)))
@example((point("0", ""), (1, 2)))
@example((point("1", "1"), ()))
@example((point("13/20", "0"), (1, 2)))
@given(_profile_requests())
def test_profile_reply_matches_the_object_path(request):
    # The reply is printed off the line's integer scale; the library's
    # `Fraction` views, printed by `format_rational` and `json`, must read
    # the same.
    p, levels = request
    spec = "vD:" + ",".join(map(str, levels)) if len(levels) == 2 else f"v{levels[0] if levels else 0}"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["profile", "--p", f"{format_rational(p.height)}:{p.address.bits}", "--line", spec])
    assert (code, out.getvalue()) == _reference_profile_reply(p, levels)


def test_profile_reply_builds_no_fraction_piece_or_kink(monkeypatch, capsys):
    # With the object types `profiles` builds made to raise, every pinned
    # `profile` reply still prints the same bytes: pieces, kinks and the
    # closed-form kinks are read off integers alone.
    commands = [command for command in _PINNED_STDOUT if command.startswith("profile ")]
    replies = {command: run(capsys, *command.split()) for command in commands}

    def refuse(*args, **kwargs):
        raise AssertionError("an object was built for a profile reply")

    for name in ("Fraction", "Piece", "Kink"):
        monkeypatch.setattr(profiles, name, refuse)
    p = point("1/2", "0")
    with pytest.raises(AssertionError):
        profile_distance_on_line(p, vertical_lines(p, (1,))[0]).pieces
    for command in commands:
        assert run(capsys, *command.split()) == replies[command], command


def test_closed_form_off_the_profile_scale_is_a_mismatch(monkeypatch, capsys):
    # The profile of v1 at 1/2 lives on the scale 6, with kinks at 2, 3
    # and 4 over it.  A closed form planted on that scale that lists too few
    # kinks, or moves one, fails the line (exit 1), and nothing is raised;
    # the true list passes.
    argv = ("profile", "--p", "1/2:0", "--line", "v1")
    for planted, code, passed, expected in (
        ((None, [1]), 1, False, ["1/6"]),
        ((None, [2, 3, 5]), 1, False, ["1/3", "1/2", "5/6"]),
        ((None, [2, 3, 4]), 0, True, ["1/3", "1/2", "2/3"]),
    ):
        monkeypatch.setattr(profiles, "_closed_form", lambda scale, planted=planted: planted)
        got, out, err = run(capsys, *argv)
        (entry,) = json.loads(out)["lines"]
        assert (got, err, entry["pass"], entry["expected_kinks"]) == (code, "", passed, expected)
        assert [k["h"] for k in entry["profile"]["kinks"]] == ["1/3", "1/2", "2/3"]


_json_strings = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(["\x00", "\x1f", "\x7f", '"', "\\", "/", "\u00e9", "\u2028", "\U0001f600", "\ud800", "\udfff"]),
    ),
    max_size=6,
)
_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(max_value=-1),
        st.integers(min_value=2**64, max_value=2**200),
        _json_strings,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.just(""), _json_strings), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@example({"": [], "a": {}, "b": [None, True, False, 2**64 + 1, -5, "\x00\"\\\u00e9\U0001f600\ud800"]})
@given(_json_values)
def test_json_emitter_writes_what_json_writes(obj):
    assert cli._json_dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_json_emitter_refuses_what_the_schema_lacks():
    # A value of a str, int, list or dict subclass is refused too, nested
    # or not: no payload holds one.
    class Text(str):
        pass

    class Number(int):
        pass

    class Items(list):
        pass

    for obj in (1.5, Fraction(1, 2), {1}, {1: "a"}, {"a": [0.0]}, [float("nan")], (1, 2),
                Text("k\u00e9y"), Number(-3), enum.IntEnum("E", "A")(1), Direction.UP,
                Items([9]), Items(), collections.OrderedDict([("b", [0])]),
                {"a": [True, Number(0)]}, [{"b": Items()}]):
        with pytest.raises(TypeError):
            cli._json_dumps(obj)


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "d.json"
    code, out, _ = run(
        capsys, "distance", "--x", "1/2:0", "--y", "2/3:1", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["distance"] == "1/6"


def test_unwritable_output_is_one_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    for argv, path in (
        (("distance", "--x", "1/2:0", "--y", "1/2:1", "--out"), missing / "d.json"),
        (("profile", "--p", "1/2:0", "--line", "v1", "--svg"), missing / "plot.svg"),
    ):
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and out == "", argv
        assert err == f"error: cannot write {path}: No such file or directory\n", argv
    assert not missing.exists()


def test_svg_to_stdout_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    # Stdout carries the JSON reply, so `--svg -` is refused: one line, exit
    # 2, before any line is profiled.  Taken as a path, it would put the SVG
    # before the JSON on stdout for one line, and name the two plots of a
    # wormhole base point "-.0" and "-.1" in the working directory.
    monkeypatch.chdir(tmp_path)

    def refuse(*args):
        raise AssertionError("a line was profiled")

    monkeypatch.setattr(profiles, "profile_distance_on_line", refuse)
    for p, line in (("1/2:0", "v1"), ("1/3:0", "v2")):
        code, out, err = run(capsys, "profile", "--p", p, "--line", line, "--svg", "-")
        assert (code, out) == (2, ""), p
        assert err == "error: argument --svg: '-' is stdout, which carries the JSON reply; give a file path\n"
        assert os.listdir(tmp_path) == [], p


def test_failed_write_leaves_no_output_file(tmp_path, capsys):
    # Every file of a command is moved into place only once all of them are
    # written, so one unwritable path leaves neither the other file nor a
    # temporary one behind, whichever of the two fails.
    missing = tmp_path / "missing"
    for svg, out, bad in (
        (tmp_path / "p.svg", missing / "d.json", missing / "d.json"),
        (missing / "p.svg", tmp_path / "d.json", missing / "p.svg"),
    ):
        code, stdout, err = run(
            capsys, "profile", "--p", "1/2:0", "--line", "v1", "--svg", str(svg), "--out", str(out)
        )
        assert code == 2 and stdout == ""
        assert err == f"error: cannot write {bad}: No such file or directory\n"
        assert sorted(os.listdir(tmp_path)) == []
    code, _, _ = run(
        capsys, "profile", "--p", "1/2:0", "--line", "v1",
        "--svg", str(tmp_path / "p.svg"), "--out", str(tmp_path / "d.json"),
    )
    assert code == 0 and sorted(os.listdir(tmp_path)) == ["d.json", "p.svg"]


def test_output_to_pipe_or_symlink_writes_through_it(tmp_path, capsys):
    # A path that is no regular file (here a named pipe; /dev/null alike) is
    # written in place, never replaced by a file, and a symlink stays a
    # symlink with the output in the file it names.
    argv = ("distance", "--x", "1/2:0", "--y", "2/3:1", "--out")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
    reader.start()
    code, out, _ = run(capsys, *argv, str(pipe))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == 0 and out == "" and stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert json.loads(received[0])["distance"] == "1/6"
    os.unlink(pipe)
    target, link = tmp_path / "d.json", tmp_path / "link.json"
    target.write_text("old")
    link.symlink_to(target)
    code, out, _ = run(capsys, *argv, str(link))
    assert code == 0 and out == "" and link.is_symlink()
    assert json.loads(target.read_text())["distance"] == "1/6"
    assert sorted(os.listdir(tmp_path)) == ["d.json", "link.json"]


def test_zero_denominator_is_usage_error(capsys):
    for argv in (
        ("distance", "--x", "1/0:0", "--y", "0:0"),
        ("reduce", "--p", "2/5:0", "--levels", "1,2,3", "--t", "1/0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


def test_verify_rejects_nonpositive_depth(capsys):
    for suite, depth in (("oracle", "0"), ("regularity", "-1"), ("kinks", "0")):
        code, out, err = run(capsys, "verify", suite, "--depth", depth)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--depth" in err


def test_verify_depth_only_on_resolution_suites(capsys):
    for suite in ("parallel", "kinks", "constructions", "porosity"):
        code, out, err = run(capsys, "verify", suite, "--depth", "9")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--depth" in err and suite in err
    code, out, _ = run(capsys, "verify", "regularity", "--depth", "5")
    assert code == 0 and out.count(",pass,") == 2


def _kinks(entry):
    return [k["h"] for k in entry["profile"]["kinks"]]


def test_profile_boundary_base_points(capsys):
    code, out, err = run(capsys, "profile", "--p", "0:0", "--line", "v1")
    assert code == 0 and err == ""
    (entry,) = json.loads(out)["lines"]
    assert entry["pass"] is True and _kinks(entry) == ["1/3"]

    code, out, _ = run(capsys, "profile", "--p", "0:0", "--line", "v0")
    assert code == 0
    (entry,) = json.loads(out)["lines"]
    assert entry["pass"] is True
    assert _kinks(entry) == [] and entry["expected_kinks"] == []


def test_census_boundary_base_point(capsys):
    code, out, err = run(capsys, "census", "--p", "1:0", "--max-level", "2")
    assert code == 0 and err == ""
    rows = out.strip().splitlines()[1:]
    assert rows and not any(
        row.split(",")[0] in ("0", "1") and row.split(",")[1] == "v0" for row in rows
    )


def test_profile_deep_order_line(capsys):
    code, out, _ = run(capsys, "profile", "--p", "1/2:0", "--line", "vD:1,30")
    assert code == 0
    (entry,) = json.loads(out)["lines"]
    assert entry["pass"] is True


def test_internal_invariant_failures_exit_3(monkeypatch, capsys):
    from laakso.profiles import ImpossibleGapConfiguration, ProfileLinearityError

    for name, exc in (
        ("profile_distance_on_line", ProfileLinearityError("no linear certificate")),
        ("_closed_form", ImpossibleGapConfiguration("five-kink list out of order")),
    ):

        def boom(*args, exc=exc):
            raise exc

        monkeypatch.setattr(f"laakso.profiles.{name}", boom)
        code, out, err = run(capsys, "profile", "--p", "1/2:0", "--line", "v1")
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        monkeypatch.undo()


def test_porosity_internal_errors_exit_3(monkeypatch, capsys):
    # An invariant failure inside the suite is not a failed hole certificate.
    def boom(self, nums, den):
        raise InternalError("certificate kernel broke")

    monkeypatch.setattr("laakso.constructions.PorosityWitness.certify", boom)
    code, out, err = run(capsys, "verify", "porosity")
    assert code == 3 and out == ""
    assert err == "internal error: certificate kernel broke\n"
    monkeypatch.undo()

    # With both grid lookups failing, porosity_witness's own guard fires.
    monkeypatch.setattr("laakso.constructions.wormhole_below", lambda *args, **kw: None)
    monkeypatch.setattr("laakso.constructions.wormhole_above", lambda *args, **kw: None)
    code, out, err = run(capsys, "verify", "porosity")
    assert code == 3 and out == ""
    assert err.startswith("internal error: a wormhole within") and err.count("\n") == 1


def test_porosity_certificate_failure_is_a_check_failure(monkeypatch, capsys):
    def fail(self, nums, den):
        raise RuntimeError("hole certificate failed at 1/2")

    monkeypatch.setattr("laakso.constructions.PorosityWitness.certify", fail)
    code, out, err = run(capsys, "verify", "porosity")
    assert code == 1 and err == ""
    assert out.splitlines()[1].endswith(",FAIL,20 holes x 1000 samples certified,20 failures")


def test_construction_self_checks_exit_3(monkeypatch, capsys):
    # Each self-check of the witness builds is an invariant, not a check
    # result: `verify constructions` reports it as one internal error line.
    from laakso.core import point
    from laakso.metric import distance
    from laakso.verify import ENGINEERED_MIRROR

    steep_center = point(ENGINEERED_MIRROR, "0").height

    class LevelPair(metric._Pair):
        # Every pair at two different heights reads as length 0.
        def length(self, a, b):
            return super().length(a, b) if self.hx == self.hy else 0

    cases = (
        # verify_lipschitz: samples at distance 0 with different values
        ("laakso.constructions._Pair", LevelPair, "equal points "),
        # _witness, building the flat witness: jump point distance
        (
            "laakso.constructions.distance",
            lambda a, b: Fraction(0),
            "order-1 jump point is not at distance twice its value",
        ),
        # _witness, building the steep witness: jump point distance
        (
            "laakso.constructions.distance",
            lambda a, b: distance(a, b) + (1 if a.height == steep_center else 0),
            "order-2 jump point is not at distance twice its value",
        ),
        # build_steep_nondifferentiable: spacing of consecutive jump points
        (
            "laakso.constructions.distance",
            lambda a, b: distance(a, b) + (1 if min(a.address.depth, b.address.depth) > 1 else 0),
            "jump points are not spaced by twice the earlier thin gap",
        ),
        # build_steep_nondifferentiable: line value at the thin-gap height
        (
            "laakso.constructions._steep_line_value",
            lambda center, sign, schedule, t: t - center + 1,
            "order-2 thin-gap line value does not match the jump value",
        ),
        # check_constructions: the engineered steep center has a band schedule
        (
            "laakso.constructions.find_band_schedule",
            lambda *args, **kwargs: None,
            "no band schedule at the engineered steep center",
        ),
    )
    for target, fake, message in cases:
        monkeypatch.setattr(target, fake)
        code, out, err = run(capsys, "verify", "constructions")
        assert code == 3 and out == "", message
        assert err.startswith("internal error: " + message) and err.count("\n") == 1
        monkeypatch.undo()


def test_planted_kink_faults_fail_their_rows_with_exit_1(monkeypatch, capsys):
    # One closed-form check serves `profile`'s `pass`, the kink rows of
    # `verify kinks` and A13's census row.  Kink 0 of every closed form
    # moved one unit of its scale up, or every profile's slopes negated
    # (each kink's height kept, its kind swapped), fails each of them as a
    # failed check (exit 1), never as an internal error.
    closed_form = profiles._closed_form

    def moved(scale):
        branch, heights = closed_form(scale)
        return branch, [v + (i == 0) for i, v in enumerate(heights)]

    def negated(p, line):
        profile = profile_distance_on_line(p, line)
        return dataclasses.replace(profile, runs=tuple(run[:3] + (-run[3],) for run in profile.runs))

    for name, fake in (("_closed_form", moved), ("profile_distance_on_line", negated)):
        monkeypatch.setattr(profiles, name, fake)
        for spec in ("v0", "v1", "vD:1,3"):
            code, out, err = run(capsys, "profile", "--p", "2/5:0", "--line", spec)
            assert (code, err) == (1, "") and not json.loads(out)["lines"][0]["pass"], (name, spec)
        code, out, err = run(capsys, "verify", "kinks")
        status = dict(line.split(",")[:2] for line in out.splitlines()[1:])
        assert (code, err) == (1, ""), name
        assert [status[row] for row in ("v0-single-kink", "single-jump-kinks", "two-level-kinks")] == ["FAIL"] * 3, name
        census = {row.name: row.passed for row in verify.check_census(seed=7)}
        assert not census["census-confirmed-by-profiles"], name
        monkeypatch.undo()


def test_planted_faults_fail_porosity_and_construction_rows_with_exit_1(monkeypatch, capsys):
    # One fault per row of `verify porosity` and `verify constructions`, each
    # in the code the row checks, turns that row (and only the rows listed)
    # to FAIL as a failed check, exit 1, never an internal error.
    real_gaps, real_distance, real_quotient = cons._gaps, calculus.distance, calculus.difference_quotient

    def strict_settle(quotients, tol):  # `<` for `<=`: equal quotients never settle
        lo, hi = min(quotients), max(quotients)
        return (hi + lo) / 2 if hi - lo < 2 * tol else None

    def negated_quotient(f, x, t):  # (f(x) - f(x + t)) / t
        return -real_quotient(f, x, t)

    def by_height(self, p):  # a lookup that ignores the address
        return next(value for q, value in self.samples if q.height == p.height)

    band_integral = cons._band_integral

    # Band 0 read 10**-9 (relative) steeper: within its Lipschitz slack, so
    # the witness still builds and only its realized slope is off.
    def steeper_band_0(schedule, span):
        total = band_integral(schedule, span)
        if span > schedule.wide[1]:
            total += (min(span, schedule.wide[0]) - schedule.wide[1]) * schedule.slopes[0] / 10**9
        return total

    plants = [
        ("porosity", "porosity-hole-certificates",
         [(cons, "_gaps", lambda num, den, n: real_gaps(num, den, n)[::-1])]),  # up and down swapped
        ("constructions", "flat-derivative-zero", [(calculus, "_settle", strict_settle)]),
        ("constructions", "flat-jump-quotients",
         [(calculus, "distance", lambda x, y: 2 * real_distance(x, y))]),  # the probe's distances doubled
        ("constructions", "steep-upper-quotient-one",
         [(calculus, "difference_quotient", negated_quotient), (verify, "difference_quotient", negated_quotient)]),
        ("constructions", "flat-jump-quotients,steep-jump-quotients",
         [(cons.SampledFunction, "value_at", by_height)]),
        ("constructions", "steep-ramp-bounds", [(cons, "_band_integral", steeper_band_0)]),
    ]
    for suite, rows, patches in plants:
        for target, name, fake in patches:
            monkeypatch.setattr(target, name, fake)
        code, out, err = run(capsys, "verify", suite)
        status = dict(line.split(",")[:2] for line in out.splitlines()[1:])
        assert (code, err) == (1, ""), rows
        assert sorted(row for row, s in status.items() if s == "FAIL") == rows.split(","), rows
        monkeypatch.undo()

    # The two Lipschitz rows cannot fail: `_witness` checks the measured
    # ratio of every witness against the bound 1 they compare with, and
    # refuses a ratio above it as an internal error (exit 3) before any row
    # is made.
    class HalfPair(cons._Pair):  # the Lipschitz check's distances halved
        __slots__ = ()

        def shortest(self):
            return super().shortest() // 2

    monkeypatch.setattr(cons, "_Pair", HalfPair)
    code, out, err = run(capsys, "verify", "constructions")
    assert (code, out) == (3, "") and err.startswith("internal error: sampled ratio ") and "exceeds bound 1" in err


def test_planted_faults_fail_kink_parallel_oracle_and_regularity_rows_with_exit_1(monkeypatch, capsys):
    # One fault per row of `verify kinks`, `parallel`, `oracle` and
    # `regularity` that the other planted-fault tests leave out, each in the
    # code the row checks, turns that row (and only that row) to FAIL as a
    # failed check, exit 1, never an internal error.
    closed_form, reduction, formula = profiles._closed_form, verify._reduction_lengths, verify._grid_formula
    ball_estimates, centers = oracle._ball_estimates, []

    def never_nested(scale):  # the nested branch reported as straddle-up
        branch, heights = closed_form(scale)
        return ("straddle-up" if branch == "nested" else branch), heights

    def long_two_level(*args):  # the two-level length one unit of its scale long
        full, two, den = reduction(*args)
        return full, two + 1, den

    def heavy_first(g, center, radii):  # the first center's balls 1000 times too heavy
        centers.append(center)
        estimates = ball_estimates(g, center, radii)
        heavy = len(centers) == 1
        return [dataclasses.replace(e, mass=1000 * e.mass) for e in estimates] if heavy else estimates

    plants = [
        ("kinks", "two-level-branch-coverage", profiles, "_closed_form", never_nested),
        ("parallel", "parallel-values", verify, "_reduction_lengths", long_two_level),
        ("oracle", "oracle-all-pairs-m2", verify, "_grid_formula",
         lambda top, *args: formula(top, *args) + (top == 9)),  # one unit long at m = 2
        ("oracle", "oracle-random-pairs-m3", verify, "_grid_formula",
         lambda top, *args: formula(top, *args) + (top == 27)),  # one unit long at m = 3
        ("oracle", "oracle-zero-classes-m2", verify, "canonicalize", lambda p: p),  # glued twins kept apart
        ("regularity", "regularity-spread", oracle, "_ball_estimates", heavy_first),
        ("regularity", "total-cell-mass", oracle.LevelGraph, "cell_mass",
         property(lambda g: Fraction(2, 6**g.m))),  # each cell twice its mass
    ]
    for suite, row, target, name, fake in plants:
        monkeypatch.setattr(target, name, fake)
        code, out, err = run(capsys, "verify", suite)
        status = dict(line.split(",")[:2] for line in out.splitlines()[1:])
        assert (code, err) == (1, ""), row
        assert [r for r, s in status.items() if s == "FAIL"] == [row], row
        monkeypatch.undo()

    # A13 runs in tier-1 only, so its rows are read off `check_census`: the
    # distance one millionth long at the base point's own height makes the
    # lines' distance non-linear between kinks, and leaves the profiles,
    # which the confirmation row reads, as they were.
    real_distance = verify.distance
    monkeypatch.setattr(
        verify, "distance", lambda x, y: real_distance(x, y) + Fraction(x.height == y.height, 10**6)
    )
    rows = {row.name: row.passed for row in verify.check_census(seed=7)}
    assert rows == {"census-confirmed-by-profiles": True, "non-census-heights-smooth": False}


def test_planted_faults_fail_each_geodesic_law_row(monkeypatch):
    # A2 and A12 run in tier-1 only, so their rows are read off
    # `check_geodesic_laws`.  One fault per row, each in a name the check
    # calls, turns that row (and only that row) to FAIL: the last minimal
    # interval dropped (every seeded pair has one, so none is left), the
    # distance one millionth long, and every jump of a geodesic taken twice
    # (a zero-length detour that crosses each low wormhole twice).
    def rows():
        return {row.name: row.passed for row in verify.check_geodesic_laws(seed=2)}

    assert set(rows().values()) == {True}
    intervals, distance, geodesic = verify.minimal_height_intervals, verify.distance, verify.synthesize_geodesic

    def jumps_twice(x, y, interval):
        path = geodesic(x, y, interval)
        events = [e for event in path.events for e in (event,) * (1 + isinstance(event, metric.WormholeLevel))]
        return dataclasses.replace(path, events=tuple(events))

    plants = [
        ("intervals-equal-length", "minimal_height_intervals", lambda x, y: intervals(x, y)[:-1]),
        ("geodesic-length-equals-distance", "distance", lambda x, y: distance(x, y) + Fraction(1, 10**6)),
        ("low-order-jump-bound", "synthesize_geodesic", jumps_twice),
    ]
    for row, name, fake in plants:
        monkeypatch.setattr(verify, name, fake)
        assert [r for r, passed in rows().items() if not passed] == [row], row
        monkeypatch.undo()


def test_v_kinks_off_the_distance_fail_a7(monkeypatch, capsys):
    # Every profile rewritten over 2 * den, on a stand-in scale with den, hp
    # and gaps doubled, with each V kink moved one unit of that scale up and
    # the run values re-derived along the slopes; the roofs stay at their
    # heights.  The runs still turn (-1, +1) at each moved V, so when A7
    # read the slopes off the runs (`KinkProfile.slopes_at`) this row read
    # `pass` under this plant ("0 bad over 81 roofs, 191 Vs").  Read off the
    # distance, the slopes at the moved kinks are wrong.
    real = profiles.profile_distance_on_line

    def moved_vs(p, line):
        profile = real(p, line)
        runs, scale = profile.runs, profile.scale
        doubled = types.SimpleNamespace(
            levels=scale.levels,
            den=2 * scale.den,
            hp=2 * scale.hp,
            gaps=[tuple(g if g is None else 2 * g for g in gaps) for gaps in scale.gaps],
        )
        starts = [2 * run[0] + (i > 0 and runs[i - 1][3] < run[3]) for i, run in enumerate(runs)]
        value, planted = 2 * runs[0][1], []
        for lo, hi, run in zip(starts, starts[1:] + [doubled.den], runs):
            planted.append((lo, value, hi, run[3]))
            value += run[3] * (hi - lo)
        return dataclasses.replace(profile, runs=tuple(planted), scale=doubled)

    monkeypatch.setattr(profiles, "profile_distance_on_line", moved_vs)
    code, out, err = run(capsys, "verify", "kinks")
    rows = {line.split(",")[0]: line for line in out.splitlines()[1:]}
    assert (code, err) == (1, "")
    assert rows["double-geodesic-endings"].split(",")[1] == "FAIL"
    assert rows["double-geodesic-endings"].endswith(' bad over 81 roofs, 191 Vs"')


def test_census_height_missing_from_every_profile_fails_its_row(monkeypatch):
    # A census height that no profiled line has as a kink fails A13's
    # confirmation row, as a kink off the census does.
    census = verify.nondiff_height_census
    monkeypatch.setattr(verify, "nondiff_height_census", lambda p, n: sorted(census(p, n) + [Fraction(1, 1000)]))
    rows = {row.name: row for row in verify.check_census(seed=7)}
    row = rows["census-confirmed-by-profiles"]
    assert row.csv_row()[1] == "FAIL" and row.actual.startswith("3 bad over "), row
    assert rows["non-census-heights-smooth"].passed


def test_other_runtime_errors_are_not_internal_errors(monkeypatch):
    def boom(*args):
        raise RuntimeError("unrelated")

    monkeypatch.setattr("laakso.profiles.profile_distance_on_line", boom)
    with pytest.raises(RuntimeError, match="unrelated"):
        main(["profile", "--p", "1/2:0", "--line", "v1"])


def test_metric_invariant_failure_exits_3(monkeypatch, capsys):
    # With every grid lookup of the integer kernel finding neither side,
    # the real "invalid state" guard fires.
    monkeypatch.setattr("laakso.metric._grid_index", lambda *args, **kw: (None, None))
    code, out, err = run(capsys, "distance", "--x", "1/2:0", "--y", "1/2:1")
    assert code == 3 and out == ""
    assert err == "internal error: order-1 grid is empty; invalid state\n"


def test_geodesic_length_check_exits_3(monkeypatch, capsys):
    # Each jump moved to its mirror height is still on its grid and still
    # flips the right bit, so only the length of the emitted segments
    # (1/2 -> 1/3 -> 2/3 -> 1/2 instead of 1/2 -> 2/3 -> 1/2) gives it away.
    schedule = metric._Pair.schedule

    def mirrored(self, a, b):
        return [(s, e, [(self.den - h, n) for h, n in jumps]) for s, e, jumps in schedule(self, a, b)]

    monkeypatch.setattr(metric._Pair, "schedule", mirrored)
    code, out, err = run(capsys, "distance", "--x", "1/2:0", "--y", "1/2:1")
    assert code == 3 and out == ""
    assert err == "internal error: synthesized path length does not match the distance\n"
    with pytest.raises(InternalError, match="length does not match"):
        metric.synthesize_geodesic(point("1/2", "0"), point("1/2", "1"), HeightInterval(Fraction(1, 2), Fraction(2, 3)))


def test_off_grid_jump_exits_3(monkeypatch, capsys):
    # Each jump moved one unit up the pair's scale: 1/3 becomes 1/2 and
    # 2/3 becomes 5/6, heights on no order-1 grid.  Over the first interval
    # the length and the arrival address still check out, so only the grid
    # test catches it.
    schedule = metric._Pair.schedule

    def shifted(self, a, b):
        return [(s, e, [(h + 1, n) for h, n in jumps]) for s, e, jumps in schedule(self, a, b)]

    monkeypatch.setattr(metric._Pair, "schedule", shifted)
    code, out, err = run(capsys, "distance", "--x", "1/2:0", "--y", "1/2:1")
    assert code == 3 and out == ""
    assert err == "internal error: synthesized jump at 1/2 is off the order-1 grid\n"
    with pytest.raises(InternalError, match="5/6 is off the order-1 grid"):
        metric.synthesize_geodesic(point("1/2", "0"), point("1/2", "1"), HeightInterval(Fraction(1, 2), Fraction(2, 3)))


def test_interval_outside_unit_range_exits_3(monkeypatch, capsys):
    # The top of every searched interval raised by 1 (by den on the pair's
    # scale), past the top of [0, 1].
    search = metric._Pair.search

    def stretched(self):
        return [(a, b + self.den) for a, b in search(self)]

    monkeypatch.setattr(metric._Pair, "search", stretched)
    code, out, err = run(capsys, "distance", "--x", "1/2:0", "--y", "1/2:1")
    assert code == 3 and out == ""
    assert err == "internal error: minimal interval [1/3, 3/2] is not an interval inside [0, 1]; invalid state\n"
    with pytest.raises(InternalError, match="is not an interval inside"):
        metric.synthesize_geodesic(point("1/2", "0"), point("1/2", "1"), HeightInterval(Fraction(1, 3), Fraction(1, 2)))
    with pytest.raises(InternalError, match="is not an interval inside"):
        metric.minimal_height_intervals(point("1/2", "0"), point("1/2", "1"))


def test_distance_unprintable_order_is_usage_error(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the interval search started")

    monkeypatch.setattr(metric._Pair, "search", refuse)
    deep = "1/2:" + "0" * 19999 + "1"
    start = time.monotonic()
    code, out, err = run(capsys, "distance", "--x", deep, "--y", "1/2:0")
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err == (
        "error: --x/--y reaches jump order 20000; at these heights orders up to 9010 "
        "can be printed (4300-digit integer limit)\n"
    )

    # At a lowered digit limit the bound is exact: the largest order N with
    # den * 3**(N + 1) printable prints, and the next one is refused.
    def pair(den, order):
        return f"1/{den}:" + "0" * (order - 1) + "1", f"1/{den}:0"

    tops = {den: max(n for n in range(2000) if den * 3 ** (n + 1) < 10**640) for den in (2, 35)}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for den, top in tops.items():
            for order in (top + 1, top + 10):
                x, y = pair(den, order)
                code, out, err = run(capsys, "distance", "--x", x, "--y", y)
                assert code == 2 and out == ""
                assert err == (
                    f"error: --x/--y reaches jump order {order}; at these heights orders up to "
                    f"{top} can be printed (640-digit integer limit)\n"
                )
        monkeypatch.undo()
        for den, top in tops.items():
            x, y = pair(den, top)
            code, out, err = run(capsys, "distance", "--x", x, "--y", y)
            assert code == 0, err
            geodesics = json.loads(out)["geodesics"]
            assert [[e["jump"] for e in g if "jump" in e] for g in geodesics] == [[top]] * len(geodesics)
    finally:
        sys.set_int_max_str_digits(limit)


def test_unprintable_height_denominator_is_one_usage_error(monkeypatch, capsys):
    # The lcm of two 3001-digit denominators is past the digit limit itself:
    # the refusal names the flag and never tries to print it.
    def refuse(*args, **kwargs):
        raise AssertionError("distance or reduce work started")

    monkeypatch.setattr(metric._Pair, "search", refuse)
    monkeypatch.setattr("laakso.profiles.vertical_lines", refuse)
    a, b = f"1/{10**3000 + 1}", f"1/{10**3000 + 3}"
    for argv, flag in (
        (("reduce", "--p", f"{a}:0", "--levels", "1,2,3", "--t", b), "--levels"),
        (("distance", "--x", f"{a}:0", "--y", f"{b}:1"), "--x/--y"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (
            f"error: {flag} reaches jump order 1; at these heights no order can be printed "
            "(4300-digit integer limit)\n"
        )


_ARGPARSE_ERRORS = (
    (("distance", "--x", "1/2:0"), "the following arguments are required: --y"),
    (("verify", "oracle", "--depth", "x"), "argument --depth: invalid int value: 'x'"),
    (("verify", "oracle", "--seed", "x"), "argument --seed: invalid int value: 'x'"),
    (("nonsense",), "argument command: invalid choice: 'nonsense' (choose from "
     "'distance', 'profile', 'reduce', 'census', 'verify')"),
    (("verify", "x"), "argument suite: invalid choice: 'x' (choose from 'oracle', 'kinks', "
     "'constructions', 'porosity', 'regularity', 'parallel')"),
    ((), "the following arguments are required: command"),
    (("distance", "--x", "1/2:0", "--y", "1/2:1", "--z", "1"), "unrecognized arguments: --z 1"),
    (("reduce", "--p", "1/2:0", "--levels", "1,2,3", "--t", "1/0"), "argument --t: zero denominator in '1/0'"),
    (("census", "--p", "0.5:0"), "argument --p: bad point '0.5:0': not an exact p/q rational: '0.5'"),
)


def test_argparse_errors_are_one_line(capsys):
    for argv, message in _ARGPARSE_ERRORS:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: {message}\n", argv


def test_argv_numbers_are_ascii_digits(capsys):
    # `int` and `Fraction` also take "_" and every Unicode decimal digit;
    # argv takes ASCII digits only, as --line always did.
    for argv, message in (
        (("reduce", "--p", "1/2:0", "--levels", "1,2,1_0", "--t", "1/2"),
         "argument --levels: bad level list '1,2,1_0'"),
        (("reduce", "--p", "1/2:0", "--levels", "1,2,\u0663", "--t", "1/2"),
         "argument --levels: bad level list '1,2,\u0663'"),
        (("census", "--p", "1/2:0", "--max-level", "1_2"), "argument --max-level: invalid int value: '1_2'"),
        (("verify", "regularity", "--depth", "\u0665"), "argument --depth: invalid int value: '\u0665'"),
        (("verify", "kinks", "--seed", "\uff11"), "argument --seed: invalid int value: '\uff11'"),
        (("verify", "kinks", "--seed", " 1"), "argument --seed: invalid int value: ' 1'"),
        (("distance", "--x", "\u0661/2:0", "--y", "1/2:0"),
         "argument --x: bad point '\u0661/2:0': not an exact p/q rational: '\u0661/2'"),
        (("reduce", "--p", "1/2:0", "--levels", "1,2,3", "--t", "1/\u0662"),
         "argument --t: not an exact p/q rational: '1/\u0662'"),
        (("profile", "--p", "1/2:0", "--line", "vD:1,\u0663"), "argument --line: bad line spec 'vD:1,\u0663'"),
        (("verify", "kinks", "--seed", "9" * 5000), f"argument --seed: invalid int value: '{'9' * 5000}'"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: {message}\n", argv
    # A leading minus still reads where it did.
    code, _, err = run(capsys, "verify", "regularity", "--depth", "-1")
    assert code == 2 and err == "error: --depth of suite 'regularity' must be in 5..8, got -1\n"
    assert run(capsys, "verify", "kinks", "--seed", "-1")[0] == 0
    assert run(capsys, "census", "--p", "1/2:0", "--max-level", "2")[0] == 0
    assert run(capsys, "reduce", "--p", "1/2:0", "--levels", "1,2,10", "--t", "1/2")[0] == 0


def test_library_refusals_name_the_flag(capsys):
    # Bounds the library checks for its own callers are checked by the CLI
    # first, so the one error line names the flag at fault.
    for argv, message in (
        (("census", "--p", "1/2:0", "--max-level", "13"), "argument --max-level: must be in 1..12, got 13"),
        (("census", "--p", "1/2:0", "--max-level", "0"), "argument --max-level: must be in 1..12, got 0"),
        (("profile", "--p", "1/3:0", "--line", "v1"),
         "argument --line: level 1 is the base point's own wormhole order"),
        (("reduce", "--p", "1/3:0", "--levels", "1,2,3", "--t", "1/2"),
         "argument --levels: level 1 is the base point's own wormhole order"),
        (("profile", "--p", "1/2:0", "--line", "vD:1,2,3"),
         "argument --line: profiles cover at most two jump levels; use the `reduce` subcommand "
         "to compare deeper lines against their two-level reduction"),
        (("reduce", "--p", "1/2:0", "--levels", "1,2", "--t", "1/2"),
         "argument --levels: need at least three levels; two-level lines stand alone"),
        (("reduce", "--p", "1/2:0", "--levels", "1,2,3", "--t", "3/2"), "argument --t: height '3/2' outside [0, 1]"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: {message}\n", argv
    assert run(capsys, "census", "--p", "1/2:0", "--max-level", "12")[0] == 0
    assert run(capsys, "reduce", "--p", "1/3:0", "--levels", "2,3,4", "--t", "1")[0] == 0


def test_profile_very_deep_order_line(capsys):
    start = time.monotonic()
    code, out, _ = run(capsys, "profile", "--p", "1/2:0", "--line", "vD:1,30000")
    elapsed = time.monotonic() - start
    assert code == 0
    (entry,) = json.loads(out)["lines"]
    assert entry["pass"] is True
    assert elapsed < 2


def _call(argv, entry=main):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(list(argv))
    return code, out.getvalue(), err.getvalue()


def _alone(argv, cwd):
    """Exit code and stdout of argv in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "laakso.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    return proc.returncode, proc.stdout


def test_main_is_reentrant(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out_path = tmp_path / "d.json"
    to_file = ("distance", "--x", "1/2:0", "--y", "2/3:1", "--out", str(out_path))
    to_stdout = to_file[:5]
    profile = ("profile", "--p", "1/2:0", "--line", "v1")
    seq = [
        to_file,
        to_stdout,
        ("distance", "--x", "0.5:0", "--y", "1/2:1"),
        ("--help",),
        ("profile", "--help"),
        ("distance", "--x", "1/2:0"),
        profile,
        ("census", "--p", "1/2:0", "--max-level", "2"),
        ("reduce", "--p", "2/5:0", "--levels", "1,2,3", "--t", "1/2"),
        ("verify", "oracle", "--depth", "5"),
        ("verify", "regularity", "--depth", "5", "--seed", "3"),
        to_stdout,
        profile,
        to_file,
    ]
    in_process = []
    for argv in seq:
        in_process.append(_call(argv))
        if argv == to_file:
            in_process[-1] += (out_path.read_text(),)
            out_path.unlink()
    alone = {}
    for argv in set(seq):
        alone[argv] = _alone(argv, tmp_path)
        if argv == to_file:
            alone[argv] += (out_path.read_text(),)
    for argv, got in zip(seq, in_process):
        want = alone[argv]
        assert got[:2] == want[:2], argv
        if argv == to_file:
            assert got[1] == "" and got[3] == want[2]
    # --out is not carried into the next call on stdout.
    assert in_process[1][1] == in_process[0][3] != ""
    assert in_process[3][0] == 0 and in_process[3][1].startswith("usage: laakso")
    assert [got[0] for got in in_process[2:6]] == [2, 0, 0, 2]


def test_main_builds_no_parser(monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    code, out, _ = run(capsys, "distance", "--x", "1/2:0", "--y", "2/3:1")
    assert code == 0 and json.loads(out)["distance"] == "1/6"
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0 and out.startswith("usage: laakso verify")
    code, _, err = run(capsys, "distance", "--x", "1/2:0")
    assert code == 2 and "--y" in err


def test_verify_depth_bounds_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a level graph was built")

    monkeypatch.setattr("laakso.oracle.build_level_graph", refuse)
    for suite, depth, accepted in (
        ("oracle", "5", "1..4"),
        ("oracle", "0", "1..4"),
        ("regularity", "9", "5..8"),
        ("regularity", "2", "5..8"),
        ("regularity", "4", "5..8"),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, "verify", suite, "--depth", depth)
        assert time.monotonic() - start < 1
        assert code == 2 and out == ""
        assert err == f"error: --depth of suite {suite!r} must be in {accepted}, got {depth}\n"


def test_profile_unprintable_order_is_usage_error(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("profile or reduce work started")

    monkeypatch.setattr("laakso.profiles.vertical_lines", refuse)
    for line, order in (("vN:20000", 20000), ("vN:100000", 100000), ("vD:9011,9012", 9012)):
        start = time.monotonic()
        code, out, err = run(capsys, "profile", "--p", "1/2:0", "--line", line)
        assert time.monotonic() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err == (
            f"error: --line reaches jump order {order}; at these heights orders up to 9010 "
            "can be printed (4300-digit integer limit)\n"
        )
    for p, levels, t, order, den, top in (
        ("1/2:0", "20000,20001,20002", "1/2", 20001, 2, 9010),
        ("1/2:0", "9011,9012,9013", "1/2", 9012, 2, 9010),
        ("0:0", "9010,9011,9012", "1/5", 9010, 5, 9009),
        ("1/5:0", "9008,9009,100000", "1/7", 9009, 35, 9008),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, "reduce", "--p", p, "--levels", levels, "--t", t)
        assert time.monotonic() - start < 1
        assert code == 2 and out == ""
        assert err == (
            f"error: --levels reaches jump order {order}; at these heights orders up to {top} "
            "can be printed (4300-digit integer limit)\n"
        ), (den, err)
    for levels in ("3,2,4", "0,1,2"):
        code, out, err = run(capsys, "reduce", "--p", "1/2:0", "--levels", levels, "--t", "1/2")
        assert code == 2 and out == ""
        assert err == f"error: argument --levels: {levels!r}: jump orders must be increasing positive integers\n"
    for argv in (
        ("profile", "--p", "1/2:0", "--line", "vN:3000000"),
        ("profile", "--p", "1/2:0", "--line", "vD:1,100001"),
        ("reduce", "--p", "1/2:0", "--levels", "1,2,100001", "--t", "1/2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: argument {argv[3]}: {argv[4]!r}: jump orders above 100000 are not accepted\n"
    monkeypatch.undo()

    # The largest accepted order prints.
    code, out, _ = run(capsys, "profile", "--p", "1/2:0", "--line", "vN:9010")
    assert code == 0 and json.loads(out)["lines"][0]["pass"] is True

    # Deeper orders that cannot bind leave the printed values short.
    code, out, _ = run(capsys, "reduce", "--p", "1/2:0", "--levels", "9010,20000,30000", "--t", "1/2")
    assert code == 0 and json.loads(out)["equal"] is True


_near_grid = st.builds(
    lambda n, k, sign, c, j: Fraction((3 * k + 1) % 3**n, 3**n) + Fraction(sign, c * 3 ** (n + j)),
    st.integers(1, 4),
    st.integers(0, 40),
    st.sampled_from([1, -1]),
    st.integers(1, 30),
    st.integers(0, 6),
).filter(lambda h: 0 < h < 1)
_profile_heights = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=500),
    _near_grid,
)




def test_printable_bound_counts_only_binding_orders():
    # At these heights the order-N gap is wide enough that the order-M grid
    # meets every minimal interval, so the line prints as an order-N line.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for height, line in (("14/17", "vD:1337,1340"), ("2/33", "vD:1337,1339"),
                             ("11/42", "vD:1336,1338")):
            code, out, err = _call(("profile", "--p", f"{height}:0", "--line", line))
            assert code == 0, (line, err)
            assert json.loads(out)["lines"][0]["pass"] is True
    finally:
        sys.set_int_max_str_digits(limit)


def _binding_order_in_fractions(p, levels):
    """`cli._binding_order` on the public gap query, in `Fraction`s; kept
    as the reference for the integer gaps."""
    g = min(gap for gap in nearest_wormhole_gap(p.height, levels[0]) if gap is not None)
    order = levels[0]
    for m in levels[1:]:
        if m < (2 * g.denominator).bit_length() and 3**m * g.numerator < 2 * g.denominator:
            order = m
    return order


@settings(max_examples=100, deadline=None)
@example(Fraction(27, 329), (1335, 1337))
@example(Fraction(14, 17), (1337, 1340))
@example(Fraction(0), (1, 2, 3))
@given(
    st.one_of(_profile_heights, _wormhole_heights),
    st.lists(st.one_of(st.integers(1, 12), st.integers(1300, 1345)), min_size=1, max_size=3, unique=True),
)
def test_binding_order_equals_fraction_rule(height, levels):
    p, levels = point(height, "0"), tuple(sorted(levels))
    assert cli._binding_order(p, levels) == _binding_order_in_fractions(p, levels)


@settings(max_examples=120, deadline=None)
@example(Fraction(27, 329), "0", 1335, 2)  # the order-1337 grid binds
@given(
    _profile_heights,
    st.text("01", max_size=4),
    st.one_of(st.integers(1, 20), st.integers(1310, 1345)),
    st.one_of(st.none(), st.integers(1, 6), st.integers(7, 2000)),
)
def test_printable_order_bound_holds_at_a_low_digit_limit(height, bits, first, step):
    # At the smallest digit limit CPython allows, the bound `profile` checks
    # before any work must still cover every integer the profile prints.
    line = f"vN:{first}" if step is None else f"vD:{first},{first + step}"
    argv = ("profile", "--p", f"{height.numerator}/{height.denominator}:{bits}", "--line", line)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = _call(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    event(f"exit {code}")
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert err.startswith(("error: --line reaches", "error: argument --line:")), (argv, err)
    else:
        assert json.loads(out)["lines"][0]["pass"] is True


def _respelled(n: int, zero: str) -> str:
    """n with an underscore (zero "_") or in the digits counted from `zero`:
    text `int` reads as a number and argv must refuse."""
    if zero == "_":
        return f"{n}_0"
    return str(n).translate({ord("0") + i: ord(zero) + i for i in range(10)})


def _spelled(ints):
    """Integers as argv text, now and then respelled past the ASCII grammar."""
    respelled = st.builds(_respelled, ints, st.sampled_from(["_", "\u0660", "\u0966", "\uff10"]))
    return st.one_of(ints.map(str), ints.map(str), ints.map(str), ints.map(str), respelled)


_valid_heights = st.fractions(min_value=0, max_value=1, max_denominator=30).map(
    lambda h: f"{h.numerator}/{h.denominator}"
)
_fuzz_heights = st.one_of(
    _valid_heights,
    _valid_heights,
    st.builds(lambda p, q: f"{p}/{q}", _spelled(st.integers(-2, 30)), _spelled(st.integers(0, 30))),
    st.sampled_from(["0", "1", "1/3", "2/9", "0.5", "x", "", "1/" + "3" * 5000]),
)
_fuzz_points = st.builds(
    lambda h, sep, bits: h + sep + bits,
    _fuzz_heights,
    st.sampled_from([":", ""]),
    st.one_of(st.text("01", max_size=10), st.text("01", max_size=10), st.sampled_from(["2", "0a"])),
)
_fuzz_orders = st.one_of(
    st.integers(1, 14), st.integers(-1, 14), st.integers(9005, 9015), st.integers(10**5 - 2, 10**12)
)
_fuzz_order_text = _spelled(_fuzz_orders)
_fuzz_lines = st.one_of(
    st.just("v0"),
    st.builds("vN:{}".format, _fuzz_order_text),
    st.builds("v{}".format, _fuzz_order_text),
    st.builds("vD:{},{}".format, _fuzz_order_text, _fuzz_order_text),
    st.builds(lambda n, k: f"vD:{n},{n + k}", _fuzz_orders, _fuzz_orders),
    st.builds("vD:{},{},{}".format, _fuzz_order_text, _fuzz_order_text, _fuzz_order_text),
    st.text("vND:0123456789,", max_size=8),
)
_fuzz_argv = st.one_of(
    st.tuples(st.just("distance"), st.just("--x"), _fuzz_points, st.just("--y"), _fuzz_points),
    st.tuples(st.just("profile"), st.just("--p"), _fuzz_points, st.just("--line"), _fuzz_lines),
    st.tuples(
        st.just("reduce"),
        st.just("--p"),
        _fuzz_points,
        st.just("--levels"),
        st.one_of(
            st.lists(_fuzz_order_text, max_size=4),
            st.lists(st.integers(1, 14), min_size=3, max_size=4, unique=True).map(sorted),
        ).map(lambda ns: ",".join(map(str, ns))),
        st.just("--t"),
        _fuzz_heights,
    ),
    st.tuples(
        st.just("census"), st.just("--p"), _fuzz_points, st.just("--max-level"),
        _spelled(st.integers(-1, 14)),
    ),
    st.builds(
        lambda suite, depth, seed: ("verify", suite) + depth + seed,
        st.sampled_from(["oracle", "kinks", "constructions", "porosity", "regularity", "parallel", "x"]),
        st.one_of(st.just(()), _spelled(st.integers(-1, 10)).map(lambda d: ("--depth", d))),
        st.one_of(st.just(()), _spelled(st.integers(0, 40)).map(lambda s: ("--seed", s))),
    ),
    st.lists(
        st.sampled_from(["distance", "profile", "verify", "--x", "--p", "--line", "1/2:0", "v1", "--depth", "-h"]),
        max_size=5,
    ).map(tuple),
)


@settings(max_examples=100, deadline=None)
@given(_fuzz_argv)
def test_cli_fuzz_total_input_contract(argv):
    start = time.monotonic()
    code, _, err = _call(argv)
    elapsed = time.monotonic() - start
    event(f"{argv[0] if argv else '(none)'} exit {code}")
    assert code in (0, 1, 2), (argv, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    if any("_" in arg or not arg.isascii() for arg in argv):  # only respelled numbers have them
        assert code == 2, (argv, err)
    assert "Traceback" not in err
    assert elapsed < 5, (argv, elapsed)


def _two_pass_main(argv):
    """`main` as it read argv before the dispatch: the top-level parser reads
    every argv, and its subcommand action hands the rest to the
    subcommand's parser, a second pass."""
    try:
        args = cli._PARSER.parse_args(argv)
        return args.func(args)
    except SystemExit:
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


_DISPATCH_CORPUS = (
    (),
    ("-h",),
    ("--help",),
    ("nonsense",),
    ("--x", "1/2:0"),
    ("distance", "-h"),
    ("verify", "--help"),
    ("distance", "--x", "1/2:0", "--y", "-h"),
    ("distance", "--", "--x"),
    ("",),
    ("dist", "--x", "1/2:0", "--y", "2/3:1"),
    ("verif", "porosity"),
) + tuple(argv for argv, _ in _ARGPARSE_ERRORS)


def test_dispatch_matches_two_pass_parse_on_corpus():
    for argv in _DISPATCH_CORPUS:
        assert _call(argv) == _call(argv, _two_pass_main), argv


@settings(max_examples=100, deadline=None)
@given(_fuzz_argv)
def test_dispatch_matches_two_pass_parse(argv):
    assert _call(argv) == _call(argv, _two_pass_main), argv


def test_one_argparse_pass_per_subcommand(monkeypatch):
    passes = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        passes.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv, want in (
        (("distance", "--x", "1/2:0", "--y", "2/3:1"), ["laakso distance"]),
        (("profile", "--p", "1/2:0", "--line", "v1"), ["laakso profile"]),
        (("reduce", "--p", "2/5:0", "--levels", "1,2,3", "--t", "1/2"), ["laakso reduce"]),
        (("census", "--p", "1/2:0", "--max-level", "2"), ["laakso census"]),
        (("verify", "porosity"), ["laakso verify"]),
        ((), ["laakso"]),
        (("--help",), ["laakso"]),
    ):
        passes.clear()
        code, _, _ = _call(argv)
        assert code == (0 if argv else 2) and passes == want, argv
    # The reference reads a subcommand's argv twice.
    passes.clear()
    _call(("verify", "porosity"), _two_pass_main)
    assert passes == ["laakso", "laakso verify"]

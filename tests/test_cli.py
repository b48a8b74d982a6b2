import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import laakso
from laakso import metric
from laakso.cli import main
from laakso.core import HeightInterval, InternalError, point

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
        assert err == f"error: bad line spec {spec!r}\n"
    for spec in ("vD:2,1", "vD:2,2", "vN:0", "v0:0"):
        code, out, err = run(capsys, "profile", "--p", "1/2:0", "--line", spec)
        assert code == 2 and out == "", spec
        assert err == f"error: --line {spec!r}: jump orders must be increasing positive integers\n"


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
    assert code == 2 and "unknown suite" in err


def test_verify_determinism(capsys):
    code1, out1, _ = run(capsys, "verify", "porosity", "--seed", "5")
    code2, out2, _ = run(capsys, "verify", "porosity", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_distance_determinism(capsys):
    _, out1, _ = run(capsys, "distance", "--x", "4/9:00", "--y", "4/9:11")
    _, out2, _ = run(capsys, "distance", "--x", "4/9:00", "--y", "4/9:11")
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "d.json"
    code, out, _ = run(
        capsys, "distance", "--x", "1/2:0", "--y", "2/3:1", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["distance"] == "1/6"


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
        ("expected_kinks", ImpossibleGapConfiguration("five-kink list out of order")),
    ):

        def boom(*args, exc=exc):
            raise exc

        monkeypatch.setattr(f"laakso.cli.{name}", boom)
        code, out, err = run(capsys, "profile", "--p", "1/2:0", "--line", "v1")
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        monkeypatch.undo()


def test_porosity_internal_errors_exit_3(monkeypatch, capsys):
    # An invariant failure inside the suite is not a failed hole certificate.
    def boom(self, heights):
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
    def fail(self, heights):
        raise RuntimeError("hole certificate failed at 1/2")

    monkeypatch.setattr("laakso.constructions.PorosityWitness.certify", fail)
    code, out, err = run(capsys, "verify", "porosity")
    assert code == 1 and err == ""
    assert out.splitlines()[1].endswith(",FAIL,20 holes x 1000 samples certified,20 failures")


def test_construction_self_checks_exit_3(monkeypatch, capsys):
    # Each self-check of the witness builds is an invariant, not a check
    # result: `verify constructions` reports it as one internal error line.
    from laakso.constructions import SampledFunction
    from laakso.core import point
    from laakso.metric import distance
    from laakso.verify import ENGINEERED_MIRROR

    steep_center = point(ENGINEERED_MIRROR, "0").height
    post_init = SampledFunction.__post_init__

    def bound_zero(self):
        post_init(self)
        object.__setattr__(self, "lip_bound", Fraction(0))

    cases = (
        # verify_lipschitz: samples at distance 0 with different values
        (
            "laakso.constructions.distance",
            lambda a, b: distance(a, b) if a.height == b.height else Fraction(0),
            "equal points ",
        ),
        # verify_lipschitz: a sampled ratio above the declared bound
        ("laakso.constructions.SampledFunction.__post_init__", bound_zero, "sampled ratio 1 exceeds bound 0"),
        # build_flat_nondifferentiable: jump point distance
        (
            "laakso.constructions.distance",
            lambda a, b: Fraction(0),
            "jump point at order 1 is not at distance 2*min-gap",
        ),
        # build_steep_nondifferentiable: jump point distance
        (
            "laakso.constructions.distance",
            lambda a, b: distance(a, b) + (1 if a.height == steep_center else 0),
            "order-2 jump point is not at distance twice the thin gap",
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
    )
    for target, fake, message in cases:
        monkeypatch.setattr(target, fake)
        code, out, err = run(capsys, "verify", "constructions")
        assert code == 3 and out == "", message
        assert err.startswith("internal error: " + message) and err.count("\n") == 1
        monkeypatch.undo()


def test_other_runtime_errors_are_not_internal_errors(monkeypatch):
    def boom(*args):
        raise RuntimeError("unrelated")

    monkeypatch.setattr("laakso.cli.profile_distance_on_line", boom)
    with pytest.raises(RuntimeError, match="unrelated"):
        main(["profile", "--p", "1/2:0", "--line", "v1"])


def test_metric_invariant_failure_exits_3(monkeypatch, capsys):
    # With every grid lookup of the integer kernel failing, the real
    # "invalid state" guard fires.
    monkeypatch.setattr("laakso.metric._grid_index", lambda *args, **kw: None)
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
        "error: --x/--y reach jump order 20000; at these heights orders up to 9010 "
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
                    f"error: --x/--y reach jump order {order}; at these heights orders up to "
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


def test_profile_very_deep_order_line(capsys):
    start = time.monotonic()
    code, out, _ = run(capsys, "profile", "--p", "1/2:0", "--line", "vD:1,30000")
    elapsed = time.monotonic() - start
    assert code == 0
    (entry,) = json.loads(out)["lines"]
    assert entry["pass"] is True
    assert elapsed < 2


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
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
        ("verify", "oracle", "--depth", "4"),
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
        ("oracle", "4", "1..3"),
        ("oracle", "0", "1..3"),
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

    monkeypatch.setattr("laakso.cli.vertical_lines", refuse)
    monkeypatch.setattr("laakso.profiles.vertical_lines", refuse)
    for line, order in (("vN:20000", 20000), ("vN:100000", 100000), ("vD:9011,9012", 9012)):
        start = time.monotonic()
        code, out, err = run(capsys, "profile", "--p", "1/2:0", "--line", line)
        assert time.monotonic() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: --line {line!r} reaches jump order {order};")
        assert "orders up to 9010 can be printed" in err
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
            f"error: --levels {levels!r} reaches jump order {order}; at height denominator "
            f"{den} orders up to {top} can be printed (4300-digit integer limit)\n"
        ), err
    for levels in ("3,2,4", "0,1,2"):
        code, out, err = run(capsys, "reduce", "--p", "1/2:0", "--levels", levels, "--t", "1/2")
        assert code == 2 and out == ""
        assert err == f"error: --levels {levels!r}: jump orders must be increasing positive integers\n"
    for argv in (
        ("profile", "--p", "1/2:0", "--line", "vN:3000000"),
        ("profile", "--p", "1/2:0", "--line", "vD:1,100001"),
        ("reduce", "--p", "1/2:0", "--levels", "1,2,100001", "--t", "1/2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {argv[3]} {argv[4]!r}: jump orders above 100000 are not accepted\n"
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
        assert err.startswith(("error: --line", "error: level")), (argv, err)
    else:
        assert json.loads(out)["lines"][0]["pass"] is True


_valid_heights = st.fractions(min_value=0, max_value=1, max_denominator=30).map(
    lambda h: f"{h.numerator}/{h.denominator}"
)
_fuzz_heights = st.one_of(
    _valid_heights,
    _valid_heights,
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-2, 30), st.integers(0, 30)),
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
_fuzz_lines = st.one_of(
    st.just("v0"),
    st.builds("vN:{}".format, _fuzz_orders),
    st.builds("v{}".format, _fuzz_orders),
    st.builds("vD:{},{}".format, _fuzz_orders, _fuzz_orders),
    st.builds(lambda n, k: f"vD:{n},{n + k}", _fuzz_orders, _fuzz_orders),
    st.builds("vD:{},{},{}".format, _fuzz_orders, _fuzz_orders, _fuzz_orders),
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
            st.lists(_fuzz_orders, max_size=4),
            st.lists(st.integers(1, 14), min_size=3, max_size=4, unique=True).map(sorted),
        ).map(lambda ns: ",".join(map(str, ns))),
        st.just("--t"),
        _fuzz_heights,
    ),
    st.tuples(
        st.just("census"), st.just("--p"), _fuzz_points, st.just("--max-level"),
        st.integers(-1, 14).map(str),
    ),
    st.builds(
        lambda suite, depth, seed: ("verify", suite) + depth + seed,
        st.sampled_from(["oracle", "kinks", "constructions", "porosity", "regularity", "parallel", "x"]),
        st.one_of(st.just(()), st.integers(-1, 10).map(lambda d: ("--depth", str(d)))),
        st.one_of(st.just(()), st.integers(0, 40).map(lambda s: ("--seed", str(s)))),
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
    assert "Traceback" not in err
    assert elapsed < 5, (argv, elapsed)

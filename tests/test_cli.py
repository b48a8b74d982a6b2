import json
import time

import pytest

from laakso.cli import main
from laakso.core import InternalError


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


def test_depth_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("LAAKSO_MAX_DEPTH", "3")
    code, _, err = run(capsys, "census", "--p", "1/2:0", "--max-level", "5")
    assert code == 2 and "LAAKSO_MAX_DEPTH" in err
    code, _, _ = run(capsys, "census", "--p", "1/2:0", "--max-level", "2")
    assert code == 0


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


def test_other_runtime_errors_are_not_internal_errors(monkeypatch):
    def boom(*args):
        raise RuntimeError("unrelated")

    monkeypatch.setattr("laakso.cli.profile_distance_on_line", boom)
    with pytest.raises(RuntimeError, match="unrelated"):
        main(["profile", "--p", "1/2:0", "--line", "v1"])


def test_metric_invariant_failure_exits_3(monkeypatch, capsys):
    # With every grid lookup failing, the real "invalid state" guard fires.
    monkeypatch.setattr("laakso.metric.wormhole_below", lambda *args, **kw: None)
    monkeypatch.setattr("laakso.metric.wormhole_above", lambda *args, **kw: None)
    code, out, err = run(capsys, "distance", "--x", "1/2:0", "--y", "1/2:1")
    assert code == 3 and out == ""
    assert err == "internal error: order-1 grid is empty; invalid state\n"


def test_profile_very_deep_order_line(capsys):
    start = time.monotonic()
    code, out, _ = run(capsys, "profile", "--p", "1/2:0", "--line", "vD:1,30000")
    elapsed = time.monotonic() - start
    assert code == 0
    (entry,) = json.loads(out)["lines"]
    assert entry["pass"] is True
    assert elapsed < 2

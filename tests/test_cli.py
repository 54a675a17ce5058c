import json
import math

import numpy as np
import pytest

from hardyscope.cli import main


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_spaces_list_catalog(capsys):
    assert main(["spaces", "list"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "space,kind,n,p,q,h,lambda0"
    assert len(lines) == 12  # header + 11 catalog spaces
    assert lines[1].startswith("euclidean:3,euclidean,3")
    assert any(line.startswith("dr:8,7") for line in lines)


def test_spaces_list_file_output_is_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["spaces", "list", "--out", str(out1)]) == 0
    assert main(["spaces", "list", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert not list(tmp_path.glob(".hardyscope-*"))  # no temp litter


def test_calculus_eval_grid(capsys):
    rc = main(
        ["calculus", "eval", "--space", "hyperbolic:3", "--op", "excess", "--grid", "1:2:0.25"]
    )
    assert rc == 0
    lines = _lines(capsys)
    assert lines[0] == "r,value"
    assert len(lines) == 6
    r0, v0 = (float(x) for x in lines[1].split(","))
    assert r0 == 1.0
    assert v0 == pytest.approx(2.0 / math.tanh(1.0) - 2.0, rel=1e-13)


def test_weights_eval_table(capsys):
    rc = main(["weights", "eval", "--space", "dr:2,1", "--theorem", "A", "--grid", "1:2:0.5"])
    assert rc == 0
    lines = _lines(capsys)
    assert lines[0] == "r,V,W,term_1,term_2,term_3"
    assert len(lines) == 4
    row = [float(x) for x in lines[2].split(",")]
    assert row[0] == 1.5
    assert row[1] == -1.0  # V = -lambda0
    assert row[2] == np.float64(sum(row[3:]))  # terms add up to W


def test_weights_eval_usage_errors(capsys):
    assert main(["weights", "eval", "--space", "dr:2,1"]) == 2
    assert main(["weights", "eval", "--space", "euclidean:4", "--theorem", "p"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_green_eval_values(capsys):
    rc = main(["green", "eval", "--space", "hyperbolic:3", "--grid", "0.5:1.5:0.5"])
    assert rc == 0
    lines = _lines(capsys)
    assert lines[0] == "r,G,G_err,dlogG,W,Wtilde"
    row = dict(zip(lines[0].split(","), (float(x) for x in lines[2].split(","))))
    assert row["r"] == 1.0
    assert row["G"] == np.float64(2.0 / math.expm1(2.0) / (4.0 * math.pi)) or abs(
        row["G"] - 2.0 / math.expm1(2.0) / (4.0 * math.pi)
    ) < 1e-11
    assert row["G_err"] <= 1e-10


def test_green_eval_uncertifiable_tolerance(capsys):
    rc = main(
        ["green", "eval", "--space", "dr:2,1", "--tol", "1e-18", "--grid", "1:2:0.5"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "certified" in err
    assert "r=1.0 " in err  # the first radius of the grid that fails


def test_green_eval_refuses_underflowed_value(capsys):
    # G is 9.5e-305 at r=32, subnormal at r=33 and an exact 0 from r=35 on,
    # where a zero bound would make the row look certified
    rc = main(["green", "eval", "--space", "dr:8,7", "--P", "1.5", "--grid", "31:40:1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "underflows" in captured.err
    assert "r=33.0 " in captured.err  # the first radius below the normal range


def test_green_asymptotics_json(capsys):
    rc = main(["green", "asymptotics", "--space", "dr:2,1", "--P", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "space",
        "P",
        "regime",
        "fitted_exponent",
        "predicted_exponent",
        "ratio_at_rmin",
    }
    assert doc["regime"] == "P<n"
    assert abs(doc["fitted_exponent"] - doc["predicted_exponent"]) < 0.02


def test_spectral_bottom_json(capsys):
    rc = main(["spectral", "bottom", "--space", "hyperbolic:3", "--R", "5", "--mesh", "0.05"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["target_lambda0"] == 1.0
    assert abs(doc["extrapolated"] - (1.0 + math.pi**2 / 25.0)) < 1e-4
    assert doc["gap"] == doc["extrapolated"] - doc["target_lambda0"]


def test_verify_family_summary_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "criticality", "--space", "hyperbolic:3", "--out", str(out)])
    assert rc == 0
    lines = _lines(capsys)
    assert lines[-1] == "4 checks: 4 passed, 0 failed, 0 skipped"
    doc = json.loads(out.read_text())
    assert doc["summary"] == {"total": 4, "failed": 0, "skipped": 0}
    assert len(doc["reports"]) == 4
    assert doc["spaces"] == ["hyperbolic:3"]
    assert all(rep["verdict"] == "pass" for rep in doc["reports"])


def test_exit_code_two_on_unusable_input(capsys):
    assert main(["calculus", "eval", "--space", "dr:3,1", "--op", "f"]) == 2
    assert main(["calculus", "eval", "--space", "hyperbolic:3", "--op", "f", "--grid", "1:2"]) == 2
    assert main(["--config", "/nonexistent/hardyscope.ini", "spaces", "list"]) == 2
    assert main(["green", "eval", "--space", "euclidean:3", "--P", "5"]) == 2
    assert main(["calculus", "eval", "--no-such-flag"]) == 2  # argparse usage error
    capsys.readouterr()


def test_config_file_supplies_and_flags_override(tmp_path, capsys):
    ini = tmp_path / "conf.ini"
    ini.write_text(
        "[calculus.eval]\nspace = hyperbolic:3\nop = excess\ngrid = 1:2:0.5\n"
    )
    assert main(["--config", str(ini), "calculus", "eval"]) == 0
    from_config = _lines(capsys)
    assert len(from_config) == 4  # header + r in {1.0, 1.5, 2.0}

    assert main(["--config", str(ini), "calculus", "eval", "--op", "f"]) == 0
    overridden = _lines(capsys)
    r0, v0 = (float(x) for x in overridden[1].split(","))
    assert v0 == np.float64(np.sinh(1.0) ** 2)  # f on H^3, not excess


def test_config_file_with_retired_threads_key_still_loads(tmp_path, capsys):
    ini = tmp_path / "old.ini"
    ini.write_text("[verify]\nthreads = 4\nspaces = hyperbolic:3\n")
    assert main(["--config", str(ini), "verify", "criticality"]) == 0
    assert _lines(capsys)[-1] == "4 checks: 4 passed, 0 failed, 0 skipped"
    assert main(["verify", "criticality", "--threads", "2"]) == 2  # the flag is gone
    capsys.readouterr()


def test_weights_eval_runs_identically_twice(capsys):
    args = ["weights", "eval", "--space", "dr:4,3", "--theorem", "gamma_dr", "--gamma", "0.4"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second

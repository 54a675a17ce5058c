import argparse
import dataclasses
import errno
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hardyscope
from hardyscope import cli
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


def test_out_to_a_missing_directory_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["spaces", "list", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: cannot write {out}: No such file or directory"]
    assert list(tmp_path.iterdir()) == []


def test_out_to_a_directory_exits_two_and_leaves_no_temp_file(tmp_path, capsys):
    # refused before anything is written next to the directory
    out = tmp_path / "report"
    out.mkdir()
    assert main(["verify", "ode", "--space", "hyperbolic:3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: cannot write {out}: Is a directory"]
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_out_file_mode_follows_the_umask(umask, mode, tmp_path):
    out = tmp_path / "catalog.csv"
    old = os.umask(umask)
    try:
        assert main(["spaces", "list", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode
    assert [p.name for p in tmp_path.iterdir()] == ["catalog.csv"]


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


@pytest.mark.parametrize(
    "space, argv, label",
    [
        ("dr:4,3", ["--theorem", "B"], "B"),
        ("dr:4,3", ["--theorem", "A"], "A"),
        ("dr:4,3", ["--theorem", "gamma"], "gamma"),
        ("dr:4,3", ["--theorem", "gamma_dr", "--gamma", "0.25"], "gamma_dr"),
        ("dr:4,3", ["--theorem", "weighted", "--alpha", "0.5"], "weighted[0.5]"),
        ("dr:4,3", ["--theorem", "p", "--P", "3"], "p_dr[3]"),
        ("hyperbolic:5", ["--theorem", "weighted", "--alpha", "1"], "weighted[1]"),
        ("euclidean:3", ["--theorem", "weighted"], "weighted[0]"),
    ],
)
def test_weights_eval_and_the_report_build_the_same_pair(space, argv, label, capsys):
    # the command's table and the report's pair of the same value agree bit for bit
    rc, out, err = _run(["weights", "eval", "--space", space, *argv, "--grid", "0.25:30:0.25"], capsys)
    assert (rc, err) == (0, "")
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
    r, V, W = np.array(rows)[:, :3].T
    pair = next(pair for lab, _, pair, _ in cli.verify._pairs_for(cli.build_density(space)) if lab == label)
    np.testing.assert_array_equal(V, np.broadcast_to(pair.V.value(r), r.shape))
    np.testing.assert_array_equal(W, pair.W.value(r))


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


def test_green_eval_refuses_nan_value(capsys):
    # near P = 1 the normalisation underflows to 0 while f^(-1/(P-1))
    # overflows, and G comes out NaN
    rc = main(["green", "eval", "--space", "dr:2,1", "--P", "1.001", "--grid", "0.001:0.005:0.001"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "r=0.001 is not finite" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["green", "eval", "--space", "hyperbolic:3", "--tol", "inf", "--grid", "1e9:2e9:1e9"], "2e+09 panels"),
        (["green", "eval", "--space", "hyperbolic:3", "--tol", "inf", "--grid", "1e20:2e20:1e20"], "2e+20 panels"),
        (["green", "asymptotics", "--space", "hyperbolic:3", "--rmin", "1e-300", "--rmax", "1e300"], "2e+300 panels"),
    ],
    ids=["eval-1e9", "eval-1e20", "asymptotics-1e300"],
)
def test_green_refuses_a_chain_too_long_before_allocating(argv, message, capsys):
    # the engine laid one panel per half unit between the radii: 1e9 ended in
    # numpy's ArrayMemoryError for 14.9 GiB, 1e20 in "negative dimensions"
    # and the asymptotics in "repeats may not contain negative values"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: green integral needs {message} of width 0.5, more than 4,000,000"]


@pytest.mark.parametrize("P", ["1e200", "1e308"])
def test_green_eval_weights_stay_finite_at_huge_P(P, capsys):
    # Lambda_P = (h/P)^P underflows to 0 while expm1 of the surplus exponent
    # overflows, so Wtilde read 0 * inf = nan (and -W error raised)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["green", "eval", "--space", "hyperbolic:3", "--P", P, "--tol", "inf", "--grid", "0.5:2:0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nan" not in out and "inf" not in out
    table = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)
    assert np.all(table[:, 4:] == 0.0)  # W and Wtilde underflow, as Lambda_P does


@pytest.mark.parametrize(
    "space, P, grid",
    [("euclidean:310", "300", "0.1:0.3:0.1"), ("hyperbolic:30", "340", "0.001:0.0011:0.0001")],
)
def test_green_eval_power_laws_survive_an_underflowing_factor(space, P, grid, capsys):
    # ((n-P)/P)^P on euclidean:310 and Lambda_P on hyperbolic:30 underflow to
    # 0, so W and Wtilde printed 0 where they are normal doubles (down to
    # 5.3e-287); each must match its law taken in logs, to 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["green", "eval", "--space", space, "--P", P, "--tol", "inf", "--grid", grid])
    assert rc == 0
    table = np.loadtxt(capsys.readouterr().out.splitlines(), delimiter=",", skiprows=1)
    model, P = hardyscope.build_density(space), float(P)
    batch = cli.green_mod.green_weight_batch(model, P, table[:, 0])
    with mpmath.workdps(50):
        for (r, *_, w, wtilde), rho, delta in zip(table, batch["rho"], batch["delta"]):
            if model.kind == "euclidean":
                exact_w = exact_wtilde = ((mpmath.mpf(model.n) - P) / P) ** P * mpmath.mpf(r) ** -P
            else:
                lam = (mpmath.mpf(model.h) / P) ** P
                exact_w = lam * mpmath.mpf(float(rho)) ** -P
                exact_wtilde = lam * mpmath.expm1(-P * mpmath.log1p(-mpmath.mpf(float(delta))))
            assert w > 0.0 and wtilde > 0.0
            assert float(abs(w - exact_w) / exact_w) < 1e-12, r
            assert float(abs(wtilde - exact_wtilde) / exact_wtilde) < 1e-12, r


def test_green_asymptotics_below_P_equal_n_with_an_underflowing_coefficient(capsys):
    # ((n-P)/P)^P underflows to 0 and r^(-P) overflows: the predicted law read
    # 0 * inf = nan, and the surplus 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["green", "asymptotics", "--space", "euclidean:310", "--P", "300", "--rmin", "0.0032", "--rmax", "0.32"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "P<n" and doc["ratio_at_rmin"] == 1.0


def test_green_eval_refuses_a_column_that_is_not_finite(monkeypatch, capsys):
    real = cli.green_mod.green_weight_batch

    def with_inf(model, P, radii):
        batch = real(model, P, radii)
        batch["Wtilde"][1] = math.inf
        return batch

    monkeypatch.setattr(cli.green_mod, "green_weight_batch", with_inf)
    assert main(["green", "eval", "--space", "hyperbolic:3", "--grid", "1:3:1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Wtilde at r=2.0 is not finite: inf\n"


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


@pytest.mark.parametrize(
    "space, P",
    [("dr:2,1", "4.01"), ("hyperbolic:30", "31"), ("dr:32,8", "42")],
)
def test_green_asymptotics_finite_just_above_P_equal_n(capsys, space, P):
    # G(0) near P = n was NaN (dr:2,1) or raised OverflowError (the others)
    rc = main(["green", "asymptotics", "--space", space, "--P", P])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "P>n"
    for key in ("P", "fitted_exponent", "predicted_exponent", "ratio_at_rmin"):
        assert isinstance(doc[key], float) and math.isfinite(doc[key]), key


@pytest.mark.parametrize(
    "space, P",
    [("dr:8,7", "240"), ("dr:8,7", "260"), ("dr:8,7", "280"), ("dr:32,8", "300")],
)
def test_green_asymptotics_above_P_equal_n_with_an_underflowing_coefficient(capsys, space, P):
    # C = ((P-1)/P)^P (integral of f^(-1/(P-1)))^(-P) underflows to 0 (log C
    # is -745.6 on dr:8,7 at P = 240) where the law at r = 1e-7 is about
    # e^-503, so ratio_at_rmin read inf and the call exited 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["green", "asymptotics", "--space", space, "--P", P])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "P>n" and abs(doc["ratio_at_rmin"] - 1.0) < 1e-4


def test_green_asymptotics_refuses_non_finite_field(capsys):
    # at P = n the surplus and the prediction both overflow at r = 1e-300
    argv = ["green", "asymptotics", "--space", "hyperbolic:3", "--P", "3", "--rmin", "1e-300", "--rmax", "1e-290"]
    with np.errstate(all="ignore"):
        rc = main(argv)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not finite" in captured.err


@pytest.mark.parametrize("P", ["200", "300", "1e6"])
def test_green_asymptotics_refuses_an_underflowing_surplus(P, capsys):
    # log Wtilde at r = 1e-7 is about -1472 at P = 300 on hyperbolic:3, so 0
    # is its correctly rounded double: a value that cannot be computed (exit
    # 1), not the bad input (exit 2) of the log-log fit's precondition
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["green", "asymptotics", "--space", "hyperbolic:3", "--P", P])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: Wtilde at r=1e-07 underflows to 0"]


def test_green_asymptotics_at_P_equal_n_refuses_r_one_without_warnings(capsys):
    # |r ln r|^(-P) divides by zero at r = 1: the prediction is inf there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["green", "asymptotics", "--space", "hyperbolic:3", "--P", "3", "--rmin", "0.01", "--rmax", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: predicted Wtilde at r=1.0 is not finite: inf"]


def test_readme_green_eval_example(capsys):
    # the example as README prints it: header and r exactly, G within the
    # printed G_err, the other columns to 1e-14 relative
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    command = "$ hardyscope green eval --space hyperbolic:3 --P 2 --grid 1:2:1\n"
    printed = readme.split(command, 1)[1].split("\n```", 1)[0].splitlines()
    assert main(command.split()[2:]) == 0
    lines = _lines(capsys)
    assert lines[0] == printed[0] == "r,G,G_err,dlogG,W,Wtilde"
    assert len(lines) == len(printed) == 3
    for line, shown in zip(lines[1:], printed[1:]):
        row, want = dict(zip(lines[0].split(","), line.split(","))), dict(zip(lines[0].split(","), shown.split(",")))
        assert row["r"] == want["r"]
        assert abs(float(row["G"]) - float(want["G"])) <= float(want["G_err"])
        for key in ("G_err", "dlogG", "W", "Wtilde"):
            assert float(row[key]) == pytest.approx(float(want[key]), rel=1e-14, abs=0.0), key


def test_green_asymptotics_at_the_P_floor(capsys):
    rc = main(["green", "asymptotics", "--space", "dr:2,1", "--P", "1.001"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["P"] == 1.001 and math.isfinite(doc["ratio_at_rmin"])


def test_green_asymptotics_refuses_P_below_the_floor(capsys):
    # the cost grows like 1/(P-1): 1.8 s at P = 1.00001 and 23 s at 1.000001
    rc = main(["green", "asymptotics", "--space", "dr:2,1", "--P", "1.0009"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "P >= 1.001" in captured.err


@pytest.mark.parametrize("samples", ["-3", "0", "4"])
def test_green_asymptotics_refuses_fewer_than_five_samples(samples, capsys):
    # 0 used to end in an IndexError and -3 in a numpy ValueError, both exit 1
    rc = main(["green", "asymptotics", "--space", "dr:2,1", "--samples", samples])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least five (radius, value) samples\n"


@pytest.mark.parametrize("samples", [1_000_001, 10**12])
def test_green_asymptotics_refuses_too_many_samples_from_the_config_file(samples, tmp_path, capsys):
    ini = tmp_path / "conf.ini"
    ini.write_text(f"[green.asymptotics]\nsamples = {samples}\n")
    assert main(["--config", str(ini), "green", "asymptotics", "--space", "hyperbolic:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples {samples:,} is more than 1,000,000\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["calculus", "eval", "--space", "euclidean:3", "--op", "f", "--grid", "0.001:1000:1e-12"], "1e+15 points"),
        (["calculus", "eval", "--space", "euclidean:3", "--op", "f", "--grid", "0.001:1e300:1e-300"], "inf points"),
        (["green", "eval", "--space", "hyperbolic:3", "--grid", "1:1000001:1"], "more than 1,000,000"),
        (["spectral", "bottom", "--space", "hyperbolic:3", "--R", "5", "--mesh", "1e-9"], "5e+09 cells"),
        (["green", "asymptotics", "--space", "hyperbolic:3", "--samples", "1000001"], "more than 1,000,000"),
        (["green", "asymptotics", "--space", "hyperbolic:3", "--samples", str(10**12)], "more than 1,000,000"),
    ],
    ids=["grid-7-PiB", "grid-max-size", "grid-one-past-the-limit", "spectral-37-GiB",
         "samples-one-past-the-limit", "samples-7-TiB"],
)
def test_oversized_inputs_exit_two_before_allocating(argv, message, capsys):
    # the first, second and fourth ended in numpy's ArrayMemoryError or
    # "Maximum allowed size exceeded" with exit 1, and --samples 100000000
    # was allocated until the process was killed
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_grid_at_the_point_limit_is_accepted():
    assert cli._parse_grid("1:1000000:1").size == cli._MAX_GRID_POINTS


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, hardyscope.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(hardyscope.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


_REPEATED_SOLVES = """
import contextlib, io, json, resource
from hardyscope import cli

argv = ["spectral", "bottom", "--space", "hyperbolic:3", "--R", "20", "--mesh", "0.0004"]
faults, outs = [], []
for _ in range(3):
    out = io.StringIO()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    outs.append(out.getvalue())
    assert rc == 0, rc
print(json.dumps({"faults": faults, "outs": outs}))
"""


def _has_mallopt() -> bool:
    import ctypes

    return sys.platform.startswith("linux") and hasattr(ctypes.pythonapi, "mallopt")


@pytest.mark.skipif(not _has_mallopt(), reason="the malloc policy is set through glibc's mallopt")
def test_repeated_solves_reuse_freed_memory_without_page_faults():
    # main pins glibc's mmap and trim thresholds, so the 50k- and 100k-cell
    # arrays freed by one solve serve the next; by default each solve faulted
    # about 2,480 pages in again
    env = {**os.environ, "PYTHONPATH": str(Path(hardyscope.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", _REPEATED_SOLVES], env=env, capture_output=True, text=True, timeout=120, check=True)
    doc = json.loads(out.stdout)
    assert max(doc["faults"][1:]) <= 100, doc["faults"]
    assert doc["outs"][0] == doc["outs"][1] == doc["outs"][2]


def test_spectral_bottom_json(capsys):
    rc = main(["spectral", "bottom", "--space", "hyperbolic:3", "--R", "5", "--mesh", "0.05"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["target_lambda0"] == 1.0
    assert abs(doc["extrapolated"] - (1.0 + math.pi**2 / 25.0)) < 1e-4
    assert doc["gap"] == doc["extrapolated"] - doc["target_lambda0"]


def test_spectral_bottom_refuses_a_non_finite_field(monkeypatch, capsys):
    real = cli.spectral.bottom_eigenvalue
    monkeypatch.setattr(cli.spectral, "bottom_eigenvalue", lambda problem: dataclasses.replace(real(problem), extrapolated=math.inf))
    assert main(["spectral", "bottom", "--space", "hyperbolic:3", "--R", "5", "--mesh", "0.05"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spectral bottom: extrapolated is not finite (inf)\n"


def test_spectral_bottom_refuses_overflowing_density_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["spectral", "bottom", "--space", "dr:8,7", "--R", "70", "--mesh", "0.07"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: density f is not finite")


@pytest.mark.parametrize(
    "argv, message",
    [
        # f leaves the double range at r = 65
        (["calculus", "eval", "--space", "dr:8,7", "--op", "f", "--grid", "1:900:100"],
         "error: f at r=101.0 is not finite: inf"),
        (["weights", "eval", "--space", "hyperbolic:3", "--theorem", "B", "--grid", "1e-300:1e-299:1e-300"],
         "error: W at r=1e-300 is not finite: inf"),
        # Lambda_P = (h/P)^P or ((n-P)/P)^P passes the double range: one
        # error line, no OverflowError traceback
        (["green", "eval", "--space", "hyperbolic:2000", "--P", "700", "--tol", "inf", "--grid", "1:2:1"],
         "error: W at r=1.0 is not finite: inf"),
        (["green", "asymptotics", "--space", "hyperbolic:3000", "--P", "900"],
         "error: Wtilde at r=1e-07 is not finite: inf"),
        (["green", "eval", "--space", "euclidean:1000000", "--P", "100", "--tol", "inf", "--grid", "1:2:1"],
         "error: green value at r=1.0 is not finite: G=inf"),
        (["green", "asymptotics", "--space", "euclidean:1000000", "--P", "100"],
         "error: Wtilde at r=1e-07 is not finite: inf"),
    ],
)
def test_tables_refuse_values_that_are_not_finite(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_verify_uncertainty_on_space_with_overflowing_norm_square(capsys):
    # the squared suite norms pass the double range on dr:24,1
    assert main(["verify", "uncertainty", "--space", "dr:24,1"]) == 0
    assert _lines(capsys)[-1] == "20 checks: 20 passed, 0 failed, 0 skipped"


def _indented(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _row(report) -> dict:
    """A report's fields as a JSON row: a non-finite side or gap (a skip) is None."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in vars(report).items()}


@pytest.mark.parametrize("family, space, total", [("criticality", "hyperbolic:3", 4), ("asymptotics", "euclidean:3", 0)])
def test_verify_family_summary_and_report(family, space, total, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", family, "--space", space, "--out", str(out)])
    assert rc == 0
    lines = _lines(capsys)
    assert lines[-1] == f"{total} checks: {total} passed, 0 failed, 0 skipped"
    text = out.read_text()
    doc = json.loads(text)
    assert text == _indented(doc)
    assert doc["summary"] == {"total": total, "failed": 0, "skipped": 0}
    assert len(doc["reports"]) == total
    assert doc["spaces"] == [space]
    assert all(rep["verdict"] == "pass" for rep in doc["reports"])


def test_verify_report_writes_a_skip_as_null(monkeypatch, tmp_path, capsys):
    skip = cli.verify.VerificationReport("uncertainty.bump_00", "dr:8,7", {"member": "bump_00"}, verdict="skip")
    monkeypatch.setattr(cli.verify, "run_verification", lambda **_: [skip])
    out = tmp_path / "report.json"
    assert main(["verify", "uncertainty", "--space", "dr:8,7", "--out", str(out)]) == 0
    assert _lines(capsys) == [
        "SKIP  dr:8,7 uncertainty.bump_00 lhs=nan rhs=nan gap=nan tol=0.0e+00",
        "1 checks: 0 passed, 0 failed, 1 skipped",
    ]
    text = out.read_text()
    assert "NaN" not in text and "Infinity" not in text
    (row,) = json.loads(text)["reports"]
    assert row["lhs"] is None and row["rhs"] is None and row["gap"] is None
    assert row["verdict"] == "skip" and row["params"] == {"member": "bump_00"}
    with pytest.raises(ValueError):
        cli._json_text({"x": math.nan})


def test_verify_runner_reports_a_zero_norm_member_as_a_skip(monkeypatch, tmp_path, capsys):
    real = cli.verify.uncertainty_gap

    def zero_norm_first(density):
        energy, moment, (norm, errors) = real(density)
        return energy, moment, (np.concatenate(([0.0], norm[1:])), errors)

    monkeypatch.setattr(cli.verify, "uncertainty_gap", zero_norm_first)
    out = tmp_path / "r.json"
    assert main(["verify", "uncertainty", "--space", "dr:8,7", "--out", str(out)]) == 0
    assert _lines(capsys) == [
        "SKIP  dr:8,7 uncertainty.bump_00 lhs=nan rhs=1.000000e+00 gap=nan tol=1.0e-08",
        "20 checks: 19 passed, 0 failed, 1 skipped",
    ]
    row = json.loads(out.read_text())["reports"][0]
    assert (row["check_id"], row["verdict"]) == ("uncertainty.bump_00", "skip")
    assert row["lhs"] is None and row["gap"] is None and row["rhs"] == 1.0


def test_verify_refuses_a_bad_space_before_any_check(monkeypatch, tmp_path, capsys):
    calls = []
    for name in ("rayleigh_gap", "p_rayleigh_gap"):
        real = getattr(cli.verify, name)
        monkeypatch.setattr(cli.verify, name, lambda *args, real=real: calls.append(1) or real(*args))
    out = tmp_path / "r.json"
    assert main(["verify", "rayleigh", "--space", "hyperbolic:3", "--space", "nope:1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert calls == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "exc", [OSError(errno.EXDEV, "Invalid cross-device link"), KeyboardInterrupt()], ids=["exdev", "interrupt"]
)
def test_atomic_write_cleans_up_after_a_failed_replace(exc, monkeypatch, tmp_path):
    target = tmp_path / "r.json"
    target.write_text("old")

    def failing_replace(src, dst):
        raise exc

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    if isinstance(exc, OSError):
        with pytest.raises(cli.PreconditionError) as info:
            cli._atomic_write(str(target), "new")
        assert str(info.value) == f"cannot write {target}: Invalid cross-device link"
    else:
        with pytest.raises(KeyboardInterrupt):
            cli._atomic_write(str(target), "new")
    assert target.read_text() == "old"
    assert list(tmp_path.iterdir()) == [target]


def test_verify_prints_the_numbers_of_a_failed_check(monkeypatch, tmp_path, capsys):
    fail = cli.verify.VerificationReport(
        "rayleigh.B.bump_03", "dr:4,2", {"member": "bump_03"}, lhs=1.25, rhs=1.5, gap=-0.25, tolerance=2.75e-8
    )
    monkeypatch.setattr(cli.verify, "run_verification", lambda **_: [fail])
    out = tmp_path / "report.json"
    assert main(["verify", "rayleigh", "--space", "dr:4,2", "--out", str(out)]) == 1
    assert _lines(capsys) == [
        "FAIL  dr:4,2 rayleigh.B.bump_03 lhs=1.250000e+00 rhs=1.500000e+00 gap=-2.500000e-01 tol=2.8e-08",
        "1 checks: 0 passed, 1 failed, 0 skipped",
    ]
    assert json.loads(out.read_text())["reports"] == [_row(fail)]


def _report_head(reports, spaces, families):
    return {
        "generated_at": "2026-01-01T00:00:00+00:00",
        "spaces": spaces,
        "families": families,
        "summary": {"total": len(reports), "failed": 1, "skipped": 2},
    }


def _assert_report_text_is_indented_json(reports, spaces=("dr:4,2",), families=("rayleigh",)):
    head = _report_head(reports, list(spaces), list(families))
    text = cli._report_text(head, reports)
    assert text == _indented({**head, "reports": [_row(rep) for rep in reports]})
    return text


@pytest.fixture(scope="module")
def catalog_reports():
    return cli.verify.run_verification(spaces=list(cli.DEFAULT_CATALOG), families=list(cli.verify.FAMILIES))


def test_report_writer_matches_the_indented_encoder_on_every_catalog_document(catalog_reports):
    # the rows of each ``verify <family> --space <s>`` call, and ``verify all``
    for family in cli.verify.FAMILIES:
        for space in cli.DEFAULT_CATALOG:
            rows = [rep for rep in catalog_reports if rep.space == space and rep.check_id.split(".")[0] == family]
            _assert_report_text_is_indented_json(rows, [space], [family])
    assert any(rep.params == {} for rep in catalog_reports)  # criticality
    _assert_report_text_is_indented_json(catalog_reports, cli.DEFAULT_CATALOG, cli.verify.FAMILIES)


def test_report_writer_matches_the_indented_encoder_on_scaled_members():
    reports = cli.verify.run_verification(spaces=["hyperbolic:30"], families=list(cli.verify.FAMILIES))
    assert any("log_scale" in rep.params for rep in reports)
    _assert_report_text_is_indented_json(reports, ["hyperbolic:30"], cli.verify.FAMILIES)


def test_report_writer_matches_the_indented_encoder_on_odd_rows():
    Report = cli.verify.VerificationReport
    odd = 'q"b\\n\nu\u00e9\u2202\U0001d4d7\x00\t/'
    reports = [
        Report("uncertainty.bump_00", "dr:8,7", {"member": "bump_00"}, verdict="skip"),
        Report("rellich.bump_01", "dr:8,7", {}, lhs=math.inf, rhs=-math.inf, gap=math.nan, verdict="skip"),
        Report(odd, odd, {odd: odd, "a": -0.0, "z": 1e308, "P": 2, "b": True, "n": None}, 1e-320, -5e-324, 0.5, 0.0, odd, 1.5),
        Report("ode.B", "euclidean:3", {"gamma": 0.25}, 1, 2, -1, 3e-8, "fail", 0),
    ]
    text = _assert_report_text_is_indented_json(reports)
    assert "\\u00e9" in text and "\u00e9" not in text
    # no reports: the list is empty, as for ``verify asymptotics --space euclidean:3``
    assert _assert_report_text_is_indented_json([]).count('"reports": []') == 1
    # the params column is one encoder call split between its dicts: empty
    # dicts first, last and side by side, a single row, and keys and values
    # that hold braces, commas, quotes, newlines, the split text itself and
    # non-ASCII characters
    tricky = ["}", "{", ",", '"', "\n", "},\n        {", "{},\n        {}", "\u00e9\u2202", "\U0001d4d7}"]
    rows = [{}, {}, {"a": 1}, {}, {k: v for k, v in zip(tricky, reversed(tricky))}, {t: 0.5 for t in tricky}, {}, {}]
    for params in (rows, rows[2:-2], rows[:1], rows[4:5], [{"\u00e9": "}"}], [{}, {"x": "{"}, {}]):
        reports = [Report(f"rayleigh.m{k}", "dr:4,2", p, 1.0, 0.5, 0.5, 1e-8, "pass") for k, p in enumerate(params)]
        _assert_report_text_is_indented_json(reports)


@pytest.mark.parametrize("field", ["seconds", "tolerance", "params"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_report_writer_refuses_a_non_finite_number_but_a_side_or_gap(field, value):
    report = cli.verify.VerificationReport("ode.B", "euclidean:3", {}, 1.0, 2.0, -1.0)
    report = dataclasses.replace(report, **{field: {"gamma": value} if field == "params" else value})
    with pytest.raises(ValueError):
        cli._report_text(_report_head([report], [], []), [report])


def test_report_writer_keys_are_the_report_fields_in_sorted_order():
    # a new field of VerificationReport cannot be left out of the report
    assert list(cli._REPORT_KEYS) == sorted(f.name for f in dataclasses.fields(cli.verify.VerificationReport))


def test_exit_code_two_on_unusable_input(tmp_path, capsys):
    assert main(["calculus", "eval", "--space", "dr:3,1", "--op", "f"]) == 2
    assert main(["calculus", "eval", "--space", "hyperbolic:3", "--op", "f", "--grid", "1:2"]) == 2
    assert main(["calculus", "eval", "--space", "hyperbolic:3", "--op", "f", "--grid", "1:x:2"]) == 2
    assert main(["--config", "/nonexistent/hardyscope.ini", "spaces", "list"]) == 2
    headless = tmp_path / "headless.ini"
    headless.write_text("space = hyperbolic:3\n")  # no [section] header
    capsys.readouterr()
    assert main(["--config", str(headless), "spaces", "list"]) == 2
    # one error line, which still names the file, the line number and the line
    assert capsys.readouterr().err == (
        f"error: malformed config file: File contains no section headers. file: {str(headless)!r}, line: 1 "
        "'space = hyperbolic:3\\n'\n"
    )
    assert main(["green", "eval", "--space", "euclidean:3", "--P", "5"]) == 2
    assert main(["calculus", "eval", "--no-such-flag"]) == 2  # argparse usage error
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectral", "bottom", "--space", "hyperbolic:3", "--R", "5", "--mesh", "nan"], "mesh must satisfy"),
        (["spectral", "bottom", "--space", "hyperbolic:3", "--R", "nan", "--mesh", "0.01"], "ball radius"),
        (["spectral", "bottom", "--space", "hyperbolic:3", "--R", "inf", "--mesh", "0.01"], "ball radius"),
        (["weights", "eval", "--space", "hyperbolic:5", "--theorem", "weighted", "--alpha", "nan"], "alpha"),
        (["weights", "eval", "--space", "dr:8,7", "--theorem", "p", "--P", "nan"], "needs P >= 2"),
        (["green", "eval", "--space", "hyperbolic:3", "--P", "nan"], "P > 1"),
        (["green", "eval", "--space", "hyperbolic:3", "--P", "inf"], "P > 1"),
        (["calculus", "eval", "--space", "hyperbolic:3", "--op", "f", "--grid", "1:2:nan"], "grid needs"),
        (["calculus", "eval", "--space", "hyperbolic:3", "--op", "f", "--grid", "1:inf:1"], "grid needs"),
    ],
    ids=[
        "mesh-nan", "R-nan", "R-inf", "alpha-nan", "p-P-nan",
        "green-P-nan", "green-P-inf", "grid-step-nan", "grid-hi-inf",
    ],
)
def test_non_finite_numbers_exit_two(argv, message, capsys):
    # the range checks are written so that NaN fails them, and inf is out of range
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_python_dash_m_runs_the_cli_and_exits_with_its_code(monkeypatch, capsys):
    for argv, code in ((["spaces", "list"], 0), (["calculus", "eval", "--space", "dr:3,1", "--op", "f"], 2)):
        monkeypatch.setattr(sys, "argv", ["hardyscope", *argv])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("hardyscope", run_name="__main__")
        assert exc.value.code == code
    lines = _lines(capsys)
    assert lines[0] == "space,kind,n,p,q,h,lambda0"
    assert len(lines) == 12


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


def _reference_csv(header, columns):
    """The per-value writer the column writer replaced."""
    rows = zip(*(list(col) for col in columns))
    lines = [",".join(header)]
    lines += [",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_csv_writer_matches_per_value_formatting_on_special_values():
    floats = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e300])
    header = ["x", "name", "n", "p", "reversed"]
    columns = [floats, [f"s{i}" for i in range(7)], list(range(-3, 4)), ["", "", 2, 4, "", 7, 8], floats[::-1]]
    text = cli._csv_text(header, columns)
    assert text == _reference_csv(header, columns)
    assert text.splitlines() == [
        "x,name,n,p,reversed",
        "nan,s0,-3,,1.0000000000000001e+300",
        "inf,s1,-2,,0.10000000000000001",
        "-inf,s2,-1,2,4.9406564584124654e-324",
        "-0,s3,0,4,-0",
        "4.9406564584124654e-324,s4,1,,-inf",
        "0.10000000000000001,s5,2,7,inf",
        "1.0000000000000001e+300,s6,3,8,nan",
    ]
    assert cli._csv_text(["r"], [np.array([])]) == "r\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["spaces", "list"],
        ["calculus", "eval", "--space", "dr:8,7", "--op", "f", "--grid", "1:64:0.5"],  # f up to about 1e283
        ["calculus", "eval", "--space", "euclidean:3", "--op", "excess", "--grid", "1e-300:2:0.5"],
        ["weights", "eval", "--space", "dr:2,1", "--theorem", "A", "--grid", "1:2:0.25"],  # V is one scalar
        ["weights", "eval", "--space", "hyperbolic:5", "--theorem", "weighted", "--alpha", "1.5"],
        ["green", "eval", "--space", "hyperbolic:3", "--grid", "0.5:60:0.5"],
        ["green", "eval", "--space", "dr:4,2", "--P", "4", "--tol", "inf"],
    ],
    ids=lambda argv: "-".join(argv[:2] + argv[3:4]),
)
def test_every_table_matches_per_value_formatting(argv, monkeypatch, capsys):
    with np.errstate(all="ignore"):
        assert main(argv) == 0
        columnar = capsys.readouterr().out
        monkeypatch.setattr(cli, "_csv_text", _reference_csv)
        assert main(argv) == 0
    assert columnar == capsys.readouterr().out


def _run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


_GREEN_EVAL = ["green", "eval", "--space", "hyperbolic:3", "--grid", "0.5:1.5:0.5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["spaces", "list"],
        ["calculus", "eval", "--space", "hyperbolic:3", "--op", "excess", "--grid", "1:2:0.25"],
        ["weights", "eval", "--space", "dr:2,1", "--theorem", "A", "--grid", "1:2:0.5"],
        _GREEN_EVAL,
        ["green", "asymptotics", "--space", "dr:2,1", "--P", "2"],
        ["spectral", "bottom", "--space", "hyperbolic:3", "--R", "5", "--mesh", "0.05"],
        ["verify", "criticality", "--space", "hyperbolic:3"],
        ["-h"],
        ["--help", "green", "eval"],
        ["green", "-h"],
        ["verify", "-h"],
        ["green", "eval", "-h"],
        ["green", "asymptotics", "--help"],
        ["spectral", "bottom", "-h", "--bogus"],
        ["--config", "CONFIG", "green", "eval"],
        ["--config=CONFIG", *_GREEN_EVAL],
        ["--conf", "CONFIG", *_GREEN_EVAL],
        ["--config", *_GREEN_EVAL],
        [*_GREEN_EVAL, "--bogus"],
        [*_GREEN_EVAL, "--P"],
        [*_GREEN_EVAL, "--P", "two"],
        ["spaces", "list", "extra"],
        ["calculus", "eval", "--space", "hyperbolic:3", "--op", "nope"],
        ["weights", "eval", "--space", "dr:2,1", "--theorem", "Q"],
        ["verify", "nope"],
        ["verify"],
        ["green"],
        ["green", "bogus"],
        ["green", "ev"],
        ["bogus"],
        ["gr", "eval"],
        [],
        ["verify", "criticality", "--space", "hyperbolic:3", "--space", "dr:2,1"],
        ["green", "eval", "--space", "dr:2,1", "--space", "hyperbolic:3", "--grid", "0.5:1.5:0.5"],
        [*_GREEN_EVAL, "--P", "-1"],
        [*_GREEN_EVAL, "--P", ""],
        ["green", "asymptotics", "--space", "dr:2,1", "--samples", "1_0"],
        [*_GREEN_EVAL, "--P=2"],
        ["verify", "--space", "hyperbolic:3", "rayleigh"],
        ["verify", "--space", "hyperbolic:3", "--", "criticality"],
        [*_GREEN_EVAL, "--", "--P", "2"],
        ["spaces", "list", "--out", "OUT"],
        [*_GREEN_EVAL, "--out", "OUT"],
        ["--config", "CONFIG", "green", "eval", "--out", "OUT"],
    ],
    ids=lambda argv: " ".join(argv) or "empty",
)
def test_pruned_parser_behaves_like_the_whole_tree(argv, tmp_path, monkeypatch, capsys):
    # the table path, which reads only the named leaf, against argparse over
    # the whole tree: the same exit code, output and written file
    ini = tmp_path / "conf.ini"
    ini.write_text("[green.eval]\nspace = hyperbolic:3\ngrid = 1:2:0.5\n")
    out = tmp_path / "out.txt"
    argv = [a.replace("CONFIG", str(ini)).replace("OUT", str(out)) for a in argv]

    def run():
        result = _run(argv, capsys)
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return result, written

    table = run()
    monkeypatch.setattr(cli, "_table_args", lambda argv: None)
    assert run() == table


def test_main_builds_no_parser_for_a_well_formed_call(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(_GREEN_EVAL) == 0
    assert main(["verify", "criticality", "--space", "hyperbolic:3"]) == 0
    assert built == []
    assert main(["green", "eval", "-h"]) == 0
    assert len(built) == 13  # the whole tree
    capsys.readouterr()


_ROWS = [([g, s] if s else [g], options) for g, s, _, handler, options in cli._COMMANDS if handler is not None]
_NAMES = sorted({name for g, s, *_ in cli._COMMANDS for name in (g, s) if name})
_FLAGS = sorted({flag for *_, options in cli._COMMANDS for flag, _ in options if flag.startswith("-")})
_VALUES = [
    "hyperbolic:3", "dr:2,1", "2", "1.5", "1e-3", "-1", "-0.5e-10", "-1E3", "", "1_0", "nan", "two", "0.5:1.5:0.5",
    "f", "excess", "A", "Q", *cli.verify.FAMILIES, "all", "nope", "CONFIG", "-", "-h", "--out",
]
_ODD = ["-h", "--help", "--P=2", "--", "--sp", "--conf", "--config", "--config=CONFIG"]


@st.composite
def _argv(draw):
    """An argv from a grammar of the command table: a leaf's names (or any
    names), its own flags with values, positionals, and tokens of every kind."""
    names, options = draw(st.sampled_from(_ROWS))
    head = draw(st.sampled_from([[], ["--config", "CONFIG"], ["--config"]]))
    names = draw(st.one_of(st.just(names), st.just(names), st.lists(st.sampled_from(_NAMES), max_size=2)))
    own = st.tuples(st.sampled_from([flag for flag, _ in options if flag.startswith("-")]), st.sampled_from(_VALUES))
    single = st.sampled_from(_FLAGS + _VALUES + _ODD).map(lambda token: [token])
    items = draw(st.lists(st.one_of(own.map(list), own.map(list), single), max_size=5))
    return head + names + [token for item in items for token in item]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_argv())
@example(["--config", "CONFIG", *_GREEN_EVAL, "--P", "3", "--out", "x.csv"])
@example(["verify", "--space", "hyperbolic:3", "rayleigh", "--space", "dr:2,1"])
@example(["green", "asymptotics", "--samples", "1_0", "--P", "2", "--P", "4"])
def test_table_path_returns_none_or_what_argparse_returns(argv):
    table = cli._table_args(argv)
    if table is not None:
        parsed = cli.build_parser().parse_args(argv)
        # the sorted attributes by repr, so that NaN equals NaN
        assert repr(sorted(vars(table).items())) == repr(sorted(vars(parsed).items()))


# a working call per case, and the option of it that the config file then sets;
# each value differs from the option's default and changes the result
_CONFIG_CASES = [
    (["calculus", "eval", "--space", "hyperbolic:3", "--op", "excess", "--grid", "1:2:0.5"], "--space"),
    (["calculus", "eval", "--space", "hyperbolic:3", "--op", "excess", "--grid", "1:2:0.5"], "--op"),
    (["calculus", "eval", "--space", "hyperbolic:3", "--op", "excess", "--grid", "1:2:0.5"], "--grid"),
    (["weights", "eval", "--space", "dr:4,2", "--theorem", "gamma_dr", "--gamma", "0.4", "--grid", "1:2:0.5"], "--space"),
    (["weights", "eval", "--space", "dr:4,2", "--theorem", "gamma_dr", "--gamma", "0.4", "--grid", "1:2:0.5"], "--theorem"),
    (["weights", "eval", "--space", "dr:4,2", "--theorem", "gamma_dr", "--gamma", "0.4", "--grid", "1:2:0.5"], "--gamma"),
    (["weights", "eval", "--space", "dr:4,2", "--theorem", "gamma_dr", "--gamma", "0.4", "--grid", "1:2:0.5"], "--grid"),
    (["weights", "eval", "--space", "hyperbolic:5", "--theorem", "weighted", "--alpha", "1.5"], "--alpha"),
    (["weights", "eval", "--space", "dr:4,2", "--theorem", "p", "--P", "3", "--grid", "1:2:0.5"], "--P"),
    (["green", "eval", "--space", "dr:2,1", "--P", "3", "--grid", "0.5:1.5:0.5"], "--space"),
    (["green", "eval", "--space", "dr:2,1", "--P", "3", "--grid", "0.5:1.5:0.5"], "--P"),
    (["green", "eval", "--space", "dr:2,1", "--P", "3", "--grid", "0.5:1.5:0.5"], "--grid"),
    (["green", "eval", "--space", "dr:2,1", "--tol", "1e-18", "--grid", "1:2:0.5"], "--tol"),
    (["green", "asymptotics", "--space", "dr:2,1", "--P", "3", "--rmin", "1e-6", "--rmax", "1e-4", "--samples", "9"], "--space"),
    (["green", "asymptotics", "--space", "dr:2,1", "--P", "3", "--rmin", "1e-6", "--rmax", "1e-4", "--samples", "9"], "--P"),
    (["green", "asymptotics", "--space", "dr:2,1", "--P", "3", "--rmin", "1e-6", "--rmax", "1e-4", "--samples", "9"], "--rmin"),
    (["green", "asymptotics", "--space", "dr:2,1", "--P", "3", "--rmin", "1e-6", "--rmax", "1e-4", "--samples", "9"], "--rmax"),
    (["green", "asymptotics", "--space", "dr:2,1", "--P", "3", "--rmin", "1e-6", "--rmax", "1e-4", "--samples", "9"], "--samples"),
    (["spectral", "bottom", "--space", "hyperbolic:3", "--R", "5", "--mesh", "0.05"], "--space"),
    (["spectral", "bottom", "--space", "hyperbolic:3", "--R", "5", "--mesh", "0.05"], "--R"),
    (["spectral", "bottom", "--space", "hyperbolic:3", "--R", "5", "--mesh", "0.05"], "--mesh"),
    (["verify", "criticality", "--space", "hyperbolic:3", "--space", "dr:2,1"], "--space"),
]


def _leaf(argv):
    """The section and the option table of the leaf argv names."""
    for g, s, _, handler, options in cli._COMMANDS:
        names = [g, s] if s else [g]
        if handler is not None and argv[: len(names)] == names:
            return ".".join(names), dict(options)
    raise AssertionError(argv)


def test_config_cases_cover_every_option_of_every_leaf():
    covered = {(_leaf(argv)[0], flag) for argv, flag in _CONFIG_CASES}
    table = {
        (section, flag)
        for section, options in (_leaf([g, s] if s else [g]) for g, s, _, h, _ in cli._COMMANDS if h is not None)
        for flag in options
        if flag.startswith("--") and flag != "--out"
    }
    assert covered == table


@pytest.mark.parametrize("argv, flag", _CONFIG_CASES, ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_config_file_gives_what_the_flag_gives(argv, flag, tmp_path, capsys):
    section, options = _leaf(argv)
    rest, values = [], []
    tokens = iter(argv)
    for token in tokens:
        if token == flag:
            values.append(next(tokens))
        else:
            rest.append(token)
    key = flag[2:] + "s" if options[flag].get("action") == "append" else flag[2:]
    ini = tmp_path / "conf.ini"
    ini.write_text(f"[{section}]\n{key} = {' '.join(values)}\n")

    by_flag = _run(argv, capsys)
    by_config = _run(["--config", str(ini), *rest], capsys)
    assert by_config[:2] == by_flag[:2]
    assert _run(rest, capsys)[:2] != by_flag[:2]  # the option is used


@pytest.mark.parametrize(
    "section, key, value, argv",
    [
        ("green.eval", "P", "two", ["green", "eval", "--space", "hyperbolic:3"]),
        ("green.eval", "tol", "small", ["green", "eval", "--space", "hyperbolic:3"]),
        ("weights.eval", "gamma", "0.4.1", ["weights", "eval", "--space", "hyperbolic:3", "--theorem", "gamma"]),
        ("weights.eval", "alpha", "", ["weights", "eval", "--space", "hyperbolic:3", "--theorem", "weighted"]),
        ("green.asymptotics", "samples", "1.5", ["green", "asymptotics", "--space", "hyperbolic:3"]),
        ("green.asymptotics", "rmax", "1e-5e", ["green", "asymptotics", "--space", "hyperbolic:3"]),
        ("spectral.bottom", "R", "five", ["spectral", "bottom", "--space", "hyperbolic:3", "--mesh", "0.05"]),
        ("spectral.bottom", "mesh", "?", ["spectral", "bottom", "--space", "hyperbolic:3", "--R", "5"]),
        ("calculus.eval", "op", "nope", ["calculus", "eval", "--space", "hyperbolic:3"]),
        ("weights.eval", "theorem", "Q", ["weights", "eval", "--space", "hyperbolic:3"]),
        ("calculus.eval", "grid", "1:2", ["calculus", "eval", "--space", "hyperbolic:3", "--op", "f"]),
    ],
)
def test_a_bad_config_value_exits_two_naming_section_and_key(section, key, value, argv, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(cli.green_mod, "green_weight_batch", no_work)
    monkeypatch.setattr(cli.spectral, "bottom_eigenvalue", no_work)
    ini = tmp_path / "conf.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    rc, out, err = _run(["--config", str(ini), *argv], capsys)
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: config [{section}] {key} = {value!r}: ")


@pytest.mark.parametrize(
    "theorem, what",
    [("A", "theorem A"), ("gamma_dr", "the closed-form gamma decomposition"), ("p", "the p-Laplacian pair")],
)
@pytest.mark.parametrize("space", ["hyperbolic:3", "euclidean:3"])
def test_a_damek_ricci_theorem_on_another_space_exits_two(theorem, what, space, capsys):
    rc, out, err = _run(["weights", "eval", "--space", space, "--theorem", theorem], capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: {what} needs a Damek-Ricci space, got {space}\n"


def test_defaults_table_holds_the_documented_values():
    assert cli._DEFAULTS == {"P": 2.0, "tol": 1e-10, "gamma": 0.25, "alpha": 0.0, "rmin": 1e-7, "rmax": 1e-5, "samples": 15}


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["green", "eval", "--space", "dr:2,1", "--grid", "0.5:1.5:0.5"], ["--P", "2", "--tol", "1e-10"]),
        (["green", "asymptotics", "--space", "dr:2,1"], ["--P", "2", "--rmin", "1e-7", "--rmax", "1e-5", "--samples", "15"]),
        (["weights", "eval", "--space", "hyperbolic:5", "--theorem", "gamma", "--grid", "1:2:0.5"], ["--gamma", "0.25"]),
        (["weights", "eval", "--space", "hyperbolic:5", "--theorem", "weighted", "--grid", "1:2:0.5"], ["--alpha", "0"]),
        (["weights", "eval", "--space", "dr:4,2", "--theorem", "p", "--grid", "1:2:0.5"], ["--P", "2"]),
    ],
)
def test_an_omitted_option_takes_its_default(argv, defaults, capsys):
    assert _run(argv, capsys) == _run(argv + defaults, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--out", "MISSING/r.json"],
        ["verify", "ode", "--space", "hyperbolic:3", "--out", "DIR"],
        ["green", "eval", "--space", "hyperbolic:3", "--out", "DIR"],
        ["green", "asymptotics", "--space", "hyperbolic:3", "--out", "MISSING/a.json"],
        ["--config", "CONFIG", "green", "eval", "--space", "hyperbolic:3"],
    ],
    ids=["verify-missing", "verify-dir", "green-dir", "asymptotics-missing", "green-config-dir"],
)
def test_out_is_refused_before_the_work(argv, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(cli.verify, "run_verification", no_work)
    monkeypatch.setattr(cli.green_mod, "green_weight_batch", no_work)
    (tmp_path / "DIR").mkdir()
    ini = tmp_path / "conf.ini"
    ini.write_text(f"[green.eval]\nout = {tmp_path / 'DIR'}\n")
    argv = [a.replace("MISSING", str(tmp_path / "missing")).replace("DIR", str(tmp_path / "DIR")) for a in argv]
    argv = [a.replace("CONFIG", str(ini)) for a in argv]
    rc, out, err = _run(argv, capsys)
    assert (rc, out) == (2, "")
    reason = "No such file or directory" if "missing" in " ".join(argv) else "Is a directory"
    assert err.startswith("error: cannot write ") and err.endswith(f": {reason}\n") and len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["DIR", "conf.ini"]
    assert list((tmp_path / "DIR").iterdir()) == []


@pytest.mark.parametrize("tol", ["-1", "nan", "-0.5", "-0.5e-10", "-1E3"])
@pytest.mark.parametrize("source", ["flag", "config", "parser"])
def test_green_eval_refuses_a_negative_or_nan_tol_before_the_batch(tol, source, tmp_path, monkeypatch, capsys):
    # these ran the batch and then exited 1 with "certified only to ... > tol";
    # argparse took -0.5e-10 and -1E3 for flags ("expected one argument")
    def no_work(*args, **kwargs):
        raise AssertionError("the batch ran")

    monkeypatch.setattr(cli.green_mod, "green_weight_batch", no_work)
    ini = tmp_path / "conf.ini"
    ini.write_text(f"[green.eval]\ntol = {tol}\n")
    argv = ["green", "eval", "--space", "hyperbolic:3", "--grid", "1:2:1"]
    if source == "config":
        argv = ["--config", str(ini), *argv]
    else:  # an abbreviated flag leaves the table path for argparse
        argv = argv + ["--tol" if source == "flag" else "--to", tol]
        assert (cli._table_args(argv) is None) == (source == "parser")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _run(argv, capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: --tol must be >= 0, got {float(tol)}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["green", "eval", "--space", "hyperbolic:3", "--tol", "inf", "--grid", "1e-310:3e-310:1e-310"],
         "radius must be finite and at least 2.2250738585072014e-308"),
        (["green", "eval", "--space", "dr:8,7", "--P", "1.001", "--tol", "inf", "--grid", "5e-324:1e-323:5e-324"],
         "radius must be finite and at least 2.2250738585072014e-308"),
        (["green", "asymptotics", "--space", "euclidean:5", "--rmin", "5e-324"],
         "radius must be finite and at least 2.2250738585072014e-308"),
        (["green", "asymptotics", "--space", "hyperbolic:3", "--rmax", "inf"], "need 0 < rmin < rmax < inf"),
        (["calculus", "eval", "--space", "hyperbolic:3", "--op", "log_f", "--grid", "1e-310:3e-310:1e-310"],
         "radius must be finite and at least 2.2250738585072014e-308"),
        (["weights", "eval", "--space", "hyperbolic:3", "--theorem", "B", "--grid", "1e-310:3e-310:1e-310"],
         "radius must be finite and at least 2.2250738585072014e-308"),
    ],
    ids=["eval-h3-subnormal", "eval-dr-subnormal", "asymptotics-subnormal-rmin", "asymptotics-rmax-inf",
         "calculus-subnormal", "weights-subnormal"],
)
def test_subnormal_radii_and_an_infinite_rmax_exit_two(argv, message, capsys):
    # overflow in divide, divide by zero in log, and nan from np.geomspace
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _run(argv, capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: {message}\n"


class _DivergingPlan(cli.verify.PanelPlan):
    def reduce(self, values):
        return np.array([math.inf, 0.25]), np.zeros(2)


def _nan_ground_state(monkeypatch):
    from hardyscope.calculus import RadialScalar

    real = cli.verify.weight_theorem_b
    nan = RadialScalar(lambda r: np.full(np.shape(r), math.nan) if np.ndim(r) else math.nan)
    monkeypatch.setattr(cli.verify, "weight_theorem_b", lambda model: dataclasses.replace(real(model), log_ground_state=nan))


def _negative_half_coefficient(monkeypatch):
    # a negative sinh(r/2) coefficient takes the comparison ratio past 1
    real = cli.verify.weights.hilfe_coefficients
    monkeypatch.setattr(cli.verify.weights, "hilfe_coefficients", lambda *args: (*real(*args)[:2], -1.0))


@pytest.mark.parametrize(
    "argv, force, message",
    [
        (["verify", "criticality", "--space", "hyperbolic:3"],
         lambda monkeypatch: monkeypatch.setattr(cli.verify, "PanelPlan", _DivergingPlan),
         "error: null mass quadrature diverged"),
        (["verify", "criticality", "--space", "hyperbolic:3"], _nan_ground_state,
         "error: ground state log-value not finite at r=0.001"),
        (["verify", "uncertainty", "--space", "dr:4,3"], _negative_half_coefficient,
         "error: comparison ratio left (0, 1); weight evaluation is suspect"),
    ],
)
def test_numeric_failures_exit_1_with_one_line(monkeypatch, capsys, argv, force, message):
    # a number that cannot be certified is exit 1, never 2 ("unusable input")
    force(monkeypatch)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_spectral_bottom_refuses_an_extrapolation_below_lambda0(capsys):
    # 100 cells on a ball of radius 70 are far too coarse: both mesh values
    # lie above lambda0 = 20.25 but (4 lambda_half - lambda)/3 near 18.52
    # does not, and a Dirichlet bottom below lambda0 is impossible
    assert main(["spectral", "bottom", "--space", "hyperbolic:10", "--R", "70", "--mesh", "0.7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: extrapolated value 18.52")
    assert captured.err.endswith(" is not above lambda0 = 20.25; the mesh is too coarse\n")
    assert captured.err.count("\n") == 1


def test_quasilinear_pair_past_the_double_range_of_its_powers(capsys):
    # h^(P-2) passes the double range: V at r = 1 is a double near -7e232;
    # at P = 144 it is not one, and the call ends in one error line
    argv = ["weights", "eval", "--space", "dr:20000,1", "--theorem", "p", "--P", "100", "--grid", "1:2:1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
        rows = _lines(capsys)
        assert main(["weights", "eval", "--space", "dr:20592,1", "--theorem", "p", "--P", "144", "--grid", "1:2:1"]) == 1
    assert rows[0] == "r,V,W,term_1,term_2,term_3" and len(rows) == 3
    values = np.array([row.split(",") for row in rows[1:]], dtype=float)
    assert np.isfinite(values).all() and -7.2e232 < values[0, 1] < -7.1e232
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: V at r=1.0 is not finite: -inf\n"

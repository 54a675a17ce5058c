"""Workload definitions: the CLI argv lists, the items each task delivers, and
the output checks.

A task is one CLI invocation, written exactly as a user would type it after
``hardyscope``.  Checks rest on closed forms and invariants, never on bytes
recorded from an earlier version, so a bug fix cannot make them fail.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

CATALOG = (
    "euclidean:3", "euclidean:4", "euclidean:5", "euclidean:6",
    "hyperbolic:3", "hyperbolic:4", "hyperbolic:5",
    "dr:2,1", "dr:4,2", "dr:4,3", "dr:8,7",
)
NON_EUCLIDEAN = tuple(s for s in CATALOG if not s.startswith("euclidean"))
FAMILIES = ("rayleigh", "ode", "criticality", "uncertainty", "rellich", "asymptotics")

GREEN_EVAL_ORDERS = ("2", "4")
GREEN_ASYMPTOTIC_ORDERS = ("1.5", "2", "4", "6")
DEFAULT_GRID = np.geomspace(1e-3, 60.0, 400)
ASYMPTOTIC_SAMPLES = 15

SPECTRAL_SPACES = ("euclidean:3", "hyperbolic:3", "hyperbolic:5", "dr:2,1", "dr:4,2", "dr:8,7")
SPECTRAL_RADII = (5, 20, 70)
SPECTRAL_CELLS = (1_000, 10_000, 50_000)

SPECTRAL_RTOL = 1e-5

VERIFY_OUT = "bench/out/verify-report.json"


@dataclass
class Task:
    """One CLI call plus what it should deliver.

    ``check(stdout, report)`` returns (items delivered, problem or None).
    ``refusable`` marks tasks whose documented exit code 1 with an
    ``error: ...`` message ("result cannot be certified") is the program's
    declared answer rather than a broken run.  ``uncovered(stdout)``, where
    set, counts the radii whose error against a closed form exceeds the
    certified ``G_err``.
    """

    argv: tuple
    check: Callable
    refusable: bool = True
    out_file: str | None = None
    info: dict = field(default_factory=dict)
    uncovered: Callable | None = None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _parse_space(desc: str):
    kind, _, rest = desc.partition(":")
    if kind == "dr":
        p, q = (int(x) for x in rest.split(","))
        return kind, p + q + 1, p, q
    return kind, int(rest), None, None


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _coth_minus_one(r: np.ndarray) -> np.ndarray:
    return 2.0 * np.exp(-2.0 * r) / (-np.expm1(-2.0 * r))


EPS = float(np.finfo(float).eps)

#: Rounding of the oracle itself, relative; at most 1 ulp on the default grid
#: against a 50-digit evaluation.
ORACLE_ULPS = 2

#: Rounding budget of a double-precision Green value, in ulps of log G.  G is
#: built as exp(-log f / (P-1)) times an integral of the same exponential, so
#: an error of a few ulps in log f becomes a relative error in G of that many
#: ulps of |log G| (about 120 at r = 60).  `G_err` bounds the quadrature error
#: only (README), not this rounding.  The seed's worst radius is at 4 ulps.
ROUNDING_ULPS = 16


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


SUITE = tuple(f"bump_{k:02d}" for k in range(18)) + ("gauss_lo", "gauss_hi")


def expected_check_ids(family: str, space: str) -> list:
    """Check ids a report must contain, from the applicability rules of each
    weight pair (dimension and (p, q) conditions), independent of the code."""
    kind, n, p, q = _parse_space(space)
    dr = kind == "dr"
    pairs = ["B"] + (["A"] if dr else []) + ["gamma"] + (["gamma_dr"] if dr else [])
    pairs += [f"weighted[{a:g}]" for a in (0.0, 0.5, 1.0) if n >= 2.0 * (1.0 + a)]
    if dr:
        pairs += [f"p_dr[{P:g}]" for P in (2.0, 3.0, 4.0) if p + q >= P * (P - 1.0)]
    if kind != "euclidean":
        pairs.append("green[2]")
    with_ground_state = [x for x in pairs if not x.startswith(("weighted", "green"))]
    heisenberg = dr and q not in (0, 2)
    if family == "rayleigh":
        return [f"rayleigh.{x}.{m}" for x in pairs for m in SUITE]
    if family == "ode":
        return [f"ode.{x}" for x in with_ground_state]
    if family == "criticality":
        return [f"criticality.{x}" for x in ("probe_origin", "probe_infinity", "null_mass", "null_mass_slope")]
    if family in ("uncertainty", "rellich"):
        return [f"{family}.{m}" for m in SUITE] if heisenberg else []
    if family == "asymptotics":
        return ["asymptotics.green[2]"] if kind != "euclidean" else []
    raise ValueError(family)


def _check_verify(expected: list):
    def check(stdout: str, report: bytes | None):
        if report is None:
            return 0, "no report file written"
        reports = json.loads(report)["reports"]
        ids = [rep["check_id"] for rep in reports]
        not_passed = [f"{rep['check_id']}: {rep['verdict']}" for rep in reports if rep["verdict"] != "pass"]
        if not_passed:  # "fail", or "skip" when a check's ratio came out NaN
            return 0, f"verdicts other than pass: {not_passed[:3]}"
        if sorted(ids) != sorted(expected):
            missing = sorted(set(expected) - set(ids))
            extra = sorted(set(ids) - set(expected))
            return 0, f"check ids differ: missing {missing[:3]}, unexpected {extra[:3]}"
        return len(reports), None

    return check


def verify_tasks() -> list:
    tasks = []
    for family in FAMILIES:
        for space in CATALOG:
            expected = expected_check_ids(family, space)
            tasks.append(Task(
                argv=("verify", family, "--space", space, "--out", VERIFY_OUT),
                check=_check_verify(expected),
                refusable=False,  # exit 1 means a check failed
                out_file=VERIFY_OUT,
                info={"family": family, "space": space},
            ))
    return tasks


# ---------------------------------------------------------------------------
# green
# ---------------------------------------------------------------------------


def _green_table(stdout: str) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["r", "G", "G_err", "dlogG", "W", "Wtilde"]:
        raise ValueError(f"bad header {rows[:1]}")
    return np.array([[float(x) for x in row] for row in rows[1:]])


def _h3_miss(table: np.ndarray) -> tuple:
    """r, G, G_err and |G - exact| of an H^3, P=2 table, against the closed
    form (coth r - 1)/(4 pi)."""
    r, G, G_err = table[:, :3].T
    exact = _coth_minus_one(r) / (4.0 * math.pi)
    return r, G, G_err, np.abs(G - exact), exact


def uncovered_h3(stdout: str) -> int:
    """Radii of an H^3, P=2 table where G misses the closed form by more than
    its certified G_err (beyond the oracle's own rounding).  A diagnostic:
    it counts what G_err leaves out, and reads 0 once G_err covers rounding."""
    _, _, G_err, miss, exact = _h3_miss(_green_table(stdout))
    return int(np.count_nonzero(miss > G_err + ORACLE_ULPS * EPS * exact))


def _check_green_eval(space: str, P: float):
    closed_form = space == "hyperbolic:3" and P == 2.0

    def check(stdout: str, report):
        data = _green_table(stdout)
        if data.shape != (DEFAULT_GRID.size, 6):
            return 0, f"table shape {data.shape}"
        if not np.all(np.isfinite(data)):
            return 0, "non-finite field"
        r, G, G_err, _, _, wtilde = data.T
        if np.max(np.abs(r / DEFAULT_GRID - 1.0)) > 1e-12:
            return 0, "radii differ from the default grid"
        if np.any(wtilde < 0.0):
            return 0, "Wtilde < 0"
        if closed_form:
            _, _, _, miss, exact = _h3_miss(data)
            rounding = ROUNDING_ULPS * EPS * np.abs(np.log(exact)) * exact + ORACLE_ULPS * EPS * exact
            bad = miss > G_err + rounding
            if np.any(bad):
                i = int(np.argmax(bad))
                return 0, (f"{np.count_nonzero(bad)} radii outside G_err + rounding, first G(r={r[i]:.6g}) = "
                           f"{G[i]:.17g} vs closed form {exact[i]:.17g}, G_err {G_err[i]:.3g}")
        return int(r.size), None

    return check


def _check_green_asymptotics(space: str, P: float):
    _, n, _, _ = _parse_space(space)

    def check(stdout: str, report):
        doc = json.loads(stdout)
        keys = ("P", "fitted_exponent", "predicted_exponent", "ratio_at_rmin")
        if not _finite([doc.get(k) for k in keys]):
            return 0, f"non-finite field in {doc}"
        if abs(P - n) < 1e-9:
            regime, expo = "P=n", -P
        elif P < n:
            regime, expo = "P<n", -P
        else:
            regime, expo = "P>n", -P * (n - 1.0) / (P - 1.0)
        if doc.get("regime") != regime or abs(doc["predicted_exponent"] - expo) > 1e-12 * abs(expo):
            return 0, f"regime {doc.get('regime')} exponent {doc['predicted_exponent']} vs {regime} {expo}"
        if doc["ratio_at_rmin"] <= 0.0:
            return 0, "ratio_at_rmin <= 0"
        return ASYMPTOTIC_SAMPLES, None

    return check


def green_tasks() -> list:
    tasks = []
    for space in NON_EUCLIDEAN:
        for P in GREEN_EVAL_ORDERS:
            tasks.append(Task(
                argv=("green", "eval", "--space", space, "--P", P),
                check=_check_green_eval(space, float(P)),
                info={"space": space, "P": P},
                uncovered=uncovered_h3 if (space, P) == ("hyperbolic:3", "2") else None,
            ))
        for P in GREEN_ASYMPTOTIC_ORDERS:
            tasks.append(Task(
                argv=("green", "asymptotics", "--space", space, "--P", P),
                check=_check_green_asymptotics(space, float(P)),
                info={"space": space, "P": P},
            ))
    return tasks


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def _spectral_oracle(space: str, R: float):
    if space == "euclidean:3":
        return math.pi**2 / R**2
    if space == "hyperbolic:3":
        return 1.0 + math.pi**2 / R**2
    return None


def spectral_cells(R: float, mesh: float) -> int:
    """Cells solved at the requested mesh and at half of it."""
    return int(round(R / mesh)) + int(round(R / (mesh / 2.0)))


def _check_spectral(space: str, R: float, mesh: float):
    exact = _spectral_oracle(space, R)

    def check(stdout: str, report):
        doc = json.loads(stdout)
        keys = ("R", "mesh", "lambda", "lambda_half_mesh", "extrapolated", "target_lambda0", "gap")
        if not _finite([doc.get(k) for k in keys]):
            return 0, f"non-finite field in {doc}"
        if not doc["gap"] > 0.0:
            return 0, f"gap {doc['gap']!r} <= 0"
        if exact is not None and abs(doc["extrapolated"] - exact) > SPECTRAL_RTOL * exact:
            return 0, f"extrapolated {doc['extrapolated']!r} vs closed form {exact!r}"
        return spectral_cells(R, mesh), None

    return check


def spectral_tasks() -> list:
    tasks = []
    for space in SPECTRAL_SPACES:
        for R in SPECTRAL_RADII:
            for cells in SPECTRAL_CELLS:
                mesh = R / cells
                tasks.append(Task(
                    argv=("spectral", "bottom", "--space", space, "--R", str(R), "--mesh", repr(mesh)),
                    check=_check_spectral(space, float(R), mesh),
                    info={"space": space, "R": R, "cells": cells},
                ))
    return tasks


WORKLOADS = {"verify": verify_tasks, "green": green_tasks, "spectral": spectral_tasks}

#: cheap calls that touch every code path of a workload once before timing
WARMUP = {
    "verify": [("verify", f, "--space", "euclidean:3", "--out", VERIFY_OUT) for f in FAMILIES]
    + [("verify", "asymptotics", "--space", "hyperbolic:3", "--out", VERIFY_OUT)],
    "green": [
        ("green", "asymptotics", "--space", "hyperbolic:3", "--P", "6"),
        ("green", "eval", "--space", "hyperbolic:3", "--P", "2", "--grid", "1:2:0.5"),
    ],
    "spectral": [("spectral", "bottom", "--space", "hyperbolic:3", "--R", "5", "--mesh", "0.005")],
}


def refine_drift(outcomes) -> dict:
    """Relative change of `extrapolated` from 10k to 50k cells per (space, R).

    ``outcomes`` holds (task, parsed stdout document or None) pairs.
    """
    by_key = {}
    for task, doc in outcomes:
        if doc is not None and task.info.get("cells") in (10_000, 50_000):
            by_key.setdefault((task.info["space"], task.info["R"]), {})[task.info["cells"]] = doc["extrapolated"]
    drift = {}
    for (space, R), vals in sorted(by_key.items()):
        if len(vals) == 2:
            drift[f"{space}@R={R}"] = abs(vals[50_000] - vals[10_000]) / abs(vals[50_000])
    return drift

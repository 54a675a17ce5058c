"""Command line front end.

Subcommands mirror the library layout: ``spaces``, ``calculus``, ``weights``,
``green``, ``spectral``, ``verify``.  Tables go out as CSV, single results and
verification reports as JSON.  Every option can also be supplied through an
INI-style config file (section named after the subcommand, e.g.
``[green.eval]``); explicit flags win over file values.

Exit codes: 0 on success, 1 when a verification check fails or a numeric
result cannot be certified, 2 for unusable input (bad space descriptor,
malformed grid or config).
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import green as green_mod
from . import spectral, verify, weights
from .errors import (
    DomainError,
    HardyscopeError,
    PreconditionError,
    QuadratureError,
    SpaceValidationError,
)
from .spaces import DEFAULT_CATALOG, build_density, default_grid

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise PreconditionError(f"grid must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise PreconditionError(f"grid must be three numbers lo:hi:step, got {text!r}") from None
    if not (0.0 < lo < hi < math.inf and 0.0 < step < math.inf):
        raise PreconditionError("grid needs 0 < lo < hi and step > 0, all finite")
    return np.arange(lo, hi + 0.5 * step, step)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _json_text(doc) -> str:
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hardyscope-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None):
    if path is None:
        return None
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise PreconditionError(f"malformed config file: {exc}") from exc
    return parser


def _resolve(arg, cfg, section: str, key: str, conv=str, default=None):
    """Flag value if given, else config-file value, else default."""
    if arg is not None:
        return arg
    if cfg is not None and cfg.has_section(section) and key in cfg[section]:
        raw = cfg[section][key]
        try:
            return conv(raw)
        except (ValueError, HardyscopeError) as exc:
            raise PreconditionError(f"config [{section}] {key} = {raw!r}: {exc}") from None
    return default


def _resolve_grid(args, cfg, section: str) -> np.ndarray:
    spec = _resolve(args.grid, cfg, section, "grid")
    if spec is None:
        return default_grid()
    return _parse_grid(spec)


def _resolve_space(args, cfg, section: str) -> str:
    space = _resolve(args.space, cfg, section, "space")
    if space is None:
        raise PreconditionError("a space descriptor is required (--space or config)")
    return space


def _require_dr(model, what: str):
    if model.kind != "dr":
        raise PreconditionError(f"{what} needs a Damek-Ricci space, got {model.spec.descriptor()}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_spaces_list(args, cfg) -> int:
    header = ["space", "kind", "n", "p", "q", "h", "lambda0"]
    rows = []
    for desc in DEFAULT_CATALOG:
        model = build_density(desc)
        p = model.p if model.kind == "dr" else ""
        q = model.q if model.kind == "dr" else ""
        rows.append([desc, model.kind, model.n, p, q, model.h, model.lambda0])
    _emit(_csv_text(header, rows), _resolve(args.out, cfg, "spaces.list", "out"))
    return 0


_CALC_OPS = ("f", "log_f", "log_df", "dlog_df", "d2f_over_f", "excess")


def _cmd_calculus_eval(args, cfg) -> int:
    section = "calculus.eval"
    model = build_density(_resolve_space(args, cfg, section))
    op = _resolve(args.op, cfg, section, "op")
    if op not in _CALC_OPS:
        raise PreconditionError(f"op must be one of {', '.join(_CALC_OPS)}")
    grid = _resolve_grid(args, cfg, section)
    values = np.asarray(getattr(model, op)(grid), dtype=float)
    rows = zip(grid.tolist(), values.tolist())
    _emit(_csv_text(["r", "value"], rows), _resolve(args.out, cfg, section, "out"))
    return 0


_THEOREMS = ("A", "B", "gamma", "gamma_dr", "weighted", "p")


def _build_pair(model, theorem: str, gamma: float, alpha: float, P: float):
    if theorem == "B":
        return weights.weight_theorem_b(model)
    if theorem == "A":
        _require_dr(model, "theorem A")
        return weights.weight_dr_poincare(model.p, model.q)
    if theorem == "gamma":
        return weights.weight_gamma_family(model, gamma)
    if theorem == "gamma_dr":
        _require_dr(model, "the closed-form gamma decomposition")
        return weights.weight_gamma_dr(model.p, model.q, gamma)
    if theorem == "weighted":
        return weights.weight_weighted(model, alpha)
    if theorem == "p":
        _require_dr(model, "the p-Laplacian pair")
        return weights.weight_p_dr(model.p, model.q, P)
    raise PreconditionError(f"theorem must be one of {', '.join(_THEOREMS)}")


def _cmd_weights_eval(args, cfg) -> int:
    section = "weights.eval"
    model = build_density(_resolve_space(args, cfg, section))
    theorem = _resolve(args.theorem, cfg, section, "theorem")
    if theorem is None:
        raise PreconditionError("--theorem is required")
    gamma = _resolve(args.gamma, cfg, section, "gamma", float, 0.25)
    alpha = _resolve(args.alpha, cfg, section, "alpha", float, 0.0)
    P = _resolve(args.P, cfg, section, "P", float, 2.0)
    pair = _build_pair(model, theorem, gamma, alpha, P)
    grid = _resolve_grid(args, cfg, section)

    v = np.asarray(pair.V.value(grid), dtype=float)
    w = np.asarray(pair.W.value(grid), dtype=float)
    term_cols = [np.broadcast_to(np.asarray(scalar.value(grid), dtype=float), grid.shape) for _, scalar in pair.terms]
    header = ["r", "V", "W"] + [f"term_{i + 1}" for i in range(len(term_cols))]
    rows = (
        [grid[i], v[i] if v.ndim else float(v), w[i]] + [col[i] for col in term_cols]
        for i in range(grid.size)
    )
    _emit(_csv_text(header, rows), _resolve(args.out, cfg, section, "out"))
    return 0


def _cmd_green_eval(args, cfg) -> int:
    section = "green.eval"
    model = build_density(_resolve_space(args, cfg, section))
    P = _resolve(args.P, cfg, section, "P", float, 2.0)
    tol = _resolve(args.tol, cfg, section, "tol", float, 1e-10)
    grid = _resolve_grid(args, cfg, section)

    batch = green_mod.green_weight_batch(model, P, grid)
    green_mod.certify(grid, batch, tol)
    columns = ("G", "G_err", "dlogG", "W", "Wtilde")
    rows = zip(grid.tolist(), *(batch[c] for c in columns))
    _emit(_csv_text(["r", *columns], rows), _resolve(args.out, cfg, section, "out"))
    return 0


def _cmd_green_asymptotics(args, cfg) -> int:
    section = "green.asymptotics"
    model = build_density(_resolve_space(args, cfg, section))
    P = _resolve(args.P, cfg, section, "P", float, 2.0)
    rmin = _resolve(args.rmin, cfg, section, "rmin", float, 1e-7)
    rmax = _resolve(args.rmax, cfg, section, "rmax", float, 1e-5)
    samples = _resolve(args.samples, cfg, section, "samples", int, 15)
    if not (0.0 < rmin < rmax):
        raise PreconditionError("need 0 < rmin < rmax")

    radii = np.geomspace(rmin, rmax, samples)
    surplus = green_mod.green_weight_batch(model, P, radii)["Wtilde"]
    fit = verify.asymptotics_fit(radii, surplus)
    pred = green_mod.asymptotic_prediction(model, P, radii)
    doc = {
        "space": model.spec.descriptor(),
        "P": P,
        "regime": pred.regime,
        "fitted_exponent": fit.slope,
        "predicted_exponent": pred.exponent,
        "ratio_at_rmin": float(surplus[0] / np.asarray(pred.value)[0]),
    }
    for key, value in doc.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise QuadratureError(f"green asymptotics: {key} is not finite ({value})")
    _emit(_json_text(doc), _resolve(args.out, cfg, section, "out"))
    return 0


def _cmd_spectral_bottom(args, cfg) -> int:
    section = "spectral.bottom"
    model = build_density(_resolve_space(args, cfg, section))
    R = _resolve(args.R, cfg, section, "R", float)
    mesh = _resolve(args.mesh, cfg, section, "mesh", float)
    if R is None or mesh is None:
        raise PreconditionError("--R and --mesh are required")
    result = spectral.bottom_eigenvalue(spectral.EigenProblem(model=model, R=R, mesh=mesh))
    doc = {
        "space": model.spec.descriptor(),
        "R": R,
        "mesh": mesh,
        "lambda": result.eigenvalue,
        "lambda_half_mesh": result.eigenvalue_half_mesh,
        "extrapolated": result.extrapolated,
        "target_lambda0": result.target_lambda0,
        "gap": result.gap,
    }
    _emit(_json_text(doc), _resolve(args.out, cfg, section, "out"))
    return 0


def _cmd_verify(args, cfg) -> int:
    section = "verify"
    families = list(verify.FAMILIES) if args.family == "all" else [args.family]
    spaces = args.space
    if not spaces:
        raw = _resolve(None, cfg, section, "spaces")
        spaces = raw.split() if raw else list(DEFAULT_CATALOG)
    for desc in spaces:
        build_density(desc)  # fail fast with exit 2 on a bad descriptor

    reports = verify.run_verification(spaces=spaces, families=families)
    n_fail = sum(1 for rep in reports if rep.verdict == "fail")
    n_skip = sum(1 for rep in reports if rep.verdict == "skip")
    for rep in reports:
        if rep.verdict != "pass":
            print(f"{rep.verdict.upper():5s} {rep.space} {rep.check_id} gap={rep.gap:.6e} tol={rep.tolerance:.1e}")
    print(f"{len(reports)} checks: {len(reports) - n_fail - n_skip} passed, {n_fail} failed, {n_skip} skipped")

    out = _resolve(args.out, cfg, section, "out")
    if out:
        doc = {
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "spaces": list(spaces),
            "families": families,
            "reports": [rep.as_dict() for rep in reports],
            "summary": {"total": len(reports), "failed": n_fail, "skipped": n_skip},
        }
        _atomic_write(out, _json_text(doc))
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyscope",
        description="Numerical checks for Hardy-type weights on rank-one spaces.",
    )
    parser.add_argument("--config", help="INI-style config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spaces = sub.add_parser("spaces", help="space catalog")
    spaces_sub = p_spaces.add_subparsers(dest="subcommand", required=True)
    p_list = spaces_sub.add_parser("list", help="print the default catalog as CSV")
    p_list.add_argument("--out")
    p_list.set_defaults(func=_cmd_spaces_list)

    p_calc = sub.add_parser("calculus", help="density-model scalars")
    calc_sub = p_calc.add_subparsers(dest="subcommand", required=True)
    p_ceval = calc_sub.add_parser("eval", help="evaluate a model scalar on a grid")
    p_ceval.add_argument("--space")
    p_ceval.add_argument("--op", choices=_CALC_OPS)
    p_ceval.add_argument("--grid", help="lo:hi:step")
    p_ceval.add_argument("--out")
    p_ceval.set_defaults(func=_cmd_calculus_eval)

    p_weights = sub.add_parser("weights", help="Hardy weight pairs")
    weights_sub = p_weights.add_subparsers(dest="subcommand", required=True)
    p_weval = weights_sub.add_parser("eval", help="tabulate V, W and the term split")
    p_weval.add_argument("--space")
    p_weval.add_argument("--theorem", choices=_THEOREMS)
    p_weval.add_argument("--gamma", type=float)
    p_weval.add_argument("--alpha", type=float)
    p_weval.add_argument("--P", type=float)
    p_weval.add_argument("--grid", help="lo:hi:step")
    p_weval.add_argument("--out")
    p_weval.set_defaults(func=_cmd_weights_eval)

    p_green = sub.add_parser("green", help="P-Green function and its weight")
    green_sub = p_green.add_subparsers(dest="subcommand", required=True)
    p_geval = green_sub.add_parser("eval", help="tabulate G and the Green weight")
    p_geval.add_argument("--space")
    p_geval.add_argument("--P", type=float)
    p_geval.add_argument("--tol", type=float)
    p_geval.add_argument("--grid", help="lo:hi:step")
    p_geval.add_argument("--out")
    p_geval.set_defaults(func=_cmd_green_eval)
    p_gasy = green_sub.add_parser("asymptotics", help="fit the small-radius power law")
    p_gasy.add_argument("--space")
    p_gasy.add_argument("--P", type=float)
    p_gasy.add_argument("--rmin", type=float)
    p_gasy.add_argument("--rmax", type=float)
    p_gasy.add_argument("--samples", type=int)
    p_gasy.add_argument("--out")
    p_gasy.set_defaults(func=_cmd_green_asymptotics)

    p_spec = sub.add_parser("spectral", help="bottom eigenvalue on balls")
    spec_sub = p_spec.add_subparsers(dest="subcommand", required=True)
    p_bottom = spec_sub.add_parser("bottom", help="Dirichlet bottom eigenvalue with extrapolation")
    p_bottom.add_argument("--space")
    p_bottom.add_argument("--R", type=float)
    p_bottom.add_argument("--mesh", type=float)
    p_bottom.add_argument("--out")
    p_bottom.set_defaults(func=_cmd_spectral_bottom)

    p_verify = sub.add_parser("verify", help="run numerical check families")
    p_verify.add_argument("family", choices=list(verify.FAMILIES) + ["all"])
    p_verify.add_argument("--space", action="append", help="repeatable; defaults to the catalog")
    p_verify.add_argument("--out", help="write the full JSON report here")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors (and --help); fold that into the
        # normal return path so callers of main() never see the exception
        return int(exc.code or 0)
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except (SpaceValidationError, PreconditionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

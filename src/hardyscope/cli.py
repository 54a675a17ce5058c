"""Command line front end.

Subcommands mirror the library layout: ``spaces``, ``calculus``, ``weights``,
``green``, ``spectral``, ``verify``.  Tables go out as CSV, single results and
verification reports as JSON.  Each option takes its flag's value, else its
value in an INI-style config file (section named after the command, e.g.
``[green.eval]``), else its default; ``_settle`` fills them all in one pass.

The commands are one table, ``_COMMANDS``: a row per group and per leaf
with its help, handler and options.  ``main`` reads a well-formed argv
straight off that table (``_table_args``) into the Namespace argparse would
give, and builds no parser.  Anything else, such as help, an abbreviated
flag or a bad value, goes to argparse over the whole tree
(``build_parser``), which prints every help and error message.  Before
either it pins glibc's malloc thresholds (``_pin_malloc_thresholds``);
importing the module sets nothing and builds no parser.

Exit codes: 0 on success, 1 when a verification check fails or a numeric
result cannot be certified, 2 for unusable input (bad space descriptor,
malformed grid or config, an ``--out`` path that cannot be written).
``--out`` files are replaced at once and created with mode 0o666 less the
umask.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import datetime
import json
import math
import os
import sys

import numpy as np

from . import green as green_mod
from . import spectral, verify, weights
from .calculus import check_radius
from .errors import (
    DomainError,
    PreconditionError,
    QuadratureError,
    SpaceValidationError,
)
from .spaces import DEFAULT_CATALOG, build_density, default_grid

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------


# The most points a ``--grid`` or ``--samples`` may ask for, refused before any
# allocation: 2,500 times the default 400 radii (``green eval`` on a million
# takes 12 s, 0.5 GB).
_MAX_GRID_POINTS = 1_000_000


def _parse_grid(text: str) -> np.ndarray:
    """The radii of ``lo:hi:step``, each a finite normal double (``check_radius``)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise PreconditionError(f"grid must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise PreconditionError(f"grid must be three numbers lo:hi:step, got {text!r}") from None
    if not (0.0 < lo < hi < math.inf and 0.0 < step < math.inf):
        raise PreconditionError("grid needs 0 < lo < hi and step > 0, all finite")
    points = (hi - lo) / step + 0.5  # np.arange below makes ceil(points) of them
    if not points <= _MAX_GRID_POINTS:
        raise PreconditionError(f"grid {text!r} has {points:.3g} points, more than {_MAX_GRID_POINTS:,}")
    return check_radius(np.arange(lo, hi + 0.5 * step, step))


def _csv_text(header, columns) -> str:
    """CSV table of equal-length columns, written by one %-format call.

    A float column goes out as ``%.17g``, which reads back to the same
    double; any other column as ``str`` of its values.
    """
    columns = [np.asarray(col) for col in columns]
    line = ",".join("%.17g" if col.dtype.kind == "f" else "%s" for col in columns) + "\n"
    values = [None] * (len(columns) * len(columns[0]))
    for j, col in enumerate(columns):
        values[j :: len(columns)] = col.tolist()
    return ",".join(header) + "\n" + (line * len(columns[0])) % tuple(values)


def _finite_columns(grid: np.ndarray, named) -> list[np.ndarray]:
    """fn(grid) per (name, fn), numpy warnings off; QuadratureError at the
    first value that is not finite, naming its column and radius."""
    with np.errstate(all="ignore"):
        columns = [np.broadcast_to(np.asarray(fn(grid), dtype=float), grid.shape) for _, fn in named]
    for (name, _), col in zip(named, columns):
        bad = ~np.isfinite(col)
        if bad.any():
            i = int(np.argmax(bad))
            raise QuadratureError(f"{name} at r={grid[i]} is not finite: {col[i]}")
    return columns


def _finite(doc: dict, what: str) -> dict:
    """The document, once every float in it is finite; QuadratureError otherwise."""
    for key, value in doc.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise QuadratureError(f"{what}: {key} is not finite ({value})")
    return doc


def _json_text(doc) -> str:
    # documents are built JSON-ready; a NaN or infinity is an error, never a token
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _atomic_write(path: str, text: str) -> None:
    """Replace ``path`` by ``text`` at once, through a new file next to it.

    The new file is created with mode 0o666, so the umask applies as to a
    plain open() (mkstemp would make it 0600).  A path that cannot be
    written, a directory among them, is a PreconditionError (exit 2), and
    no temporary file is left behind.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".hardyscope-{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError):
            raise PreconditionError(f"cannot write {path}: {exc.strerror}") from None
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None, section: str):
    """The ``[section]`` of the config file at ``path``; {} without either."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise PreconditionError(f"malformed config file: {exc}") from exc
    return parser[section] if parser.has_section(section) else {}


# the value of an option that neither a flag nor the config file sets
_DEFAULTS = {"P": 2.0, "tol": 1e-10, "gamma": 0.25, "alpha": 0.0, "rmin": 1e-7, "rmax": 1e-5, "samples": 15}


def _settle(args) -> None:
    """Give each option of the command that no flag set its value from the
    config file (section ``group.sub``, or ``group`` for a group that is a
    leaf) through the option's own type and choices, and a grid through
    ``_parse_grid``, else from ``_DEFAULTS``; a repeatable option reads its
    plural key as a whitespace-separated list.  Then refuse an ``--out`` that
    is a directory or lies in none."""
    group, sub, _, _, options = next(row for row in _COMMANDS if row[3] is args.func)
    section = f"{group}.{sub}" if sub else group
    values = _load_config(args.config, section)
    for flag, kwargs in options:
        dest, many = flag.lstrip("-"), kwargs.get("action") == "append"
        key, conv = dest + "s" if many else dest, kwargs.get("type", str)
        if getattr(args, dest) is None and key in values:
            try:
                value = [conv(v) for v in values[key].split()] if many else conv(values[key])
                if "choices" in kwargs and value not in kwargs["choices"]:
                    raise ValueError(f"must be one of {', '.join(kwargs['choices'])}")
                if dest == "grid":
                    _parse_grid(value)
            except (ValueError, PreconditionError, DomainError) as exc:
                raise PreconditionError(f"config [{section}] {key} = {values[key]!r}: {exc}") from None
            setattr(args, dest, value)
        elif getattr(args, dest) is None:
            setattr(args, dest, _DEFAULTS.get(dest))
    if args.out and os.path.isdir(args.out):
        raise PreconditionError(f"cannot write {args.out}: Is a directory")
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise PreconditionError(f"cannot write {args.out}: No such file or directory")


def _grid(args) -> np.ndarray:
    return default_grid() if args.grid is None else _parse_grid(args.grid)


def _model(args):
    if args.space is None:
        raise PreconditionError("a space descriptor is required (--space or config)")
    return build_density(args.space)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_spaces_list(args) -> int:
    header = ["space", "kind", "n", "p", "q", "h", "lambda0"]
    rows = []
    for desc in DEFAULT_CATALOG:
        model = build_density(desc)
        p = model.p if model.kind == "dr" else ""
        q = model.q if model.kind == "dr" else ""
        rows.append([desc, model.kind, model.n, p, q, model.h, model.lambda0])
    _emit(_csv_text(header, zip(*rows)), args.out)
    return 0


_CALC_OPS = ("f", "log_f", "log_df", "dlog_df", "d2f_over_f", "excess")


def _cmd_calculus_eval(args) -> int:
    model = _model(args)
    if args.op not in _CALC_OPS:
        raise PreconditionError(f"op must be one of {', '.join(_CALC_OPS)}")
    grid = _grid(args)
    values = _finite_columns(grid, [(args.op, getattr(model, args.op))])
    _emit(_csv_text(["r", "value"], [grid, *values]), args.out)
    return 0


_THEOREMS = ("A", "B", "gamma", "gamma_dr", "weighted", "p")


def _build_pair(model, theorem: str, gamma: float, alpha: float, P: float):
    if theorem == "B":
        return weights.weight_theorem_b(model)
    if theorem == "A":
        return weights.weight_dr_poincare(model)
    if theorem == "gamma":
        return weights.weight_gamma_family(model, gamma)
    if theorem == "gamma_dr":
        return weights.weight_gamma_dr(model, gamma)
    if theorem == "weighted":
        return weights.weight_weighted(model, alpha)
    if theorem == "p":
        return weights.weight_p_dr(model, P)


def _cmd_weights_eval(args) -> int:
    model = _model(args)
    if args.theorem is None:
        raise PreconditionError("--theorem is required")
    pair = _build_pair(model, args.theorem, args.gamma, args.alpha, args.P)
    grid = _grid(args)

    header = ["V", "W"] + [f"term_{i + 1}" for i in range(len(pair.terms))]
    scalars = [pair.V, pair.W] + [scalar for _, scalar in pair.terms]
    columns = _finite_columns(grid, [(name, s.value) for name, s in zip(header, scalars)])
    _emit(_csv_text(["r", *header], [grid, *columns]), args.out)
    return 0


def _cmd_green_eval(args) -> int:
    model = _model(args)
    if not args.tol >= 0.0:  # NaN too; inf certifies every row
        raise PreconditionError(f"--tol must be >= 0, got {args.tol}")
    grid = _grid(args)

    batch = green_mod.green_value(model, args.P, grid, args.tol)
    columns = ("G", "G_err", "dlogG", "W", "Wtilde")
    table = _finite_columns(grid, [(c, lambda _, v=batch[c]: v) for c in columns])
    _emit(_csv_text(["r", *columns], [grid, *table]), args.out)
    return 0


def _cmd_green_asymptotics(args) -> int:
    model = _model(args)
    if not (0.0 < args.rmin < args.rmax < math.inf):
        raise PreconditionError("need 0 < rmin < rmax < inf")
    if args.samples < 5:
        raise PreconditionError("need at least five (radius, value) samples")
    if args.samples > _MAX_GRID_POINTS:
        raise PreconditionError(f"--samples {args.samples:,} is more than {_MAX_GRID_POINTS:,}")

    radii = np.geomspace(args.rmin, args.rmax, args.samples)
    surplus = green_mod.green_weight_batch(model, args.P, radii)["Wtilde"]
    _finite_columns(radii, [("Wtilde", lambda _: surplus)])
    fit = verify.asymptotics_fit(radii, surplus)
    pred = green_mod.asymptotic_prediction(model, args.P, radii)
    (predicted,) = _finite_columns(radii, [("predicted Wtilde", lambda _: pred.value)])
    with np.errstate(divide="ignore"):
        ratio = float(surplus[0] / predicted[0])  # inf where the prediction underflows, refused below
    doc = {
        "space": model.descriptor(),
        "P": args.P,
        "regime": pred.regime,
        "fitted_exponent": fit.slope,
        "predicted_exponent": pred.exponent,
        "ratio_at_rmin": ratio,
    }
    _emit(_json_text(_finite(doc, "green asymptotics")), args.out)
    return 0


def _cmd_spectral_bottom(args) -> int:
    model = _model(args)
    if args.R is None or args.mesh is None:
        raise PreconditionError("--R and --mesh are required")
    result = spectral.bottom_eigenvalue(spectral.EigenProblem(model=model, R=args.R, mesh=args.mesh))
    doc = {
        "space": model.descriptor(),
        "R": args.R,
        "mesh": args.mesh,
        "lambda": result.eigenvalue,
        "lambda_half_mesh": result.eigenvalue_half_mesh,
        "extrapolated": result.extrapolated,
        "target_lambda0": result.target_lambda0,
        "gap": result.gap,
    }
    _emit(_json_text(_finite(doc, "spectral bottom")), args.out)
    return 0


def _cmd_verify(args) -> int:
    families = list(verify.FAMILIES) if args.family == "all" else [args.family]
    spaces = args.space or list(DEFAULT_CATALOG)
    for desc in spaces:
        build_density(desc)  # fail fast with exit 2 on a bad descriptor

    reports = verify.run_verification(spaces=spaces, families=families)
    n_fail = sum(1 for rep in reports if rep.verdict == "fail")
    n_skip = sum(1 for rep in reports if rep.verdict == "skip")
    for rep in reports:
        if rep.verdict != "pass":
            print(f"{rep.verdict.upper():5s} {rep.space} {rep.check_id} gap={rep.gap:.6e} tol={rep.tolerance:.1e}")
    print(f"{len(reports)} checks: {len(reports) - n_fail - n_skip} passed, {n_fail} failed, {n_skip} skipped")

    if args.out:
        doc = {
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "spaces": list(spaces),
            "families": families,
            "reports": [rep.as_dict() for rep in reports],
            "summary": {"total": len(reports), "failed": n_fail, "skipped": n_skip},
        }
        _atomic_write(args.out, _json_text(doc))
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

_FLOAT = {"type": float}
_SPACE, _P, _GRID, _OUT = ("--space", {}), ("--P", _FLOAT), ("--grid", {"help": "lo:hi:step"}), ("--out", {})

# group, subcommand (None on the group's own row), help, handler, options;
# a group row with a handler is a leaf itself
_COMMANDS = (
    ("spaces", None, "space catalog", None, ()),
    ("spaces", "list", "print the default catalog as CSV", _cmd_spaces_list, (_OUT,)),
    ("calculus", None, "density-model scalars", None, ()),
    ("calculus", "eval", "evaluate a model scalar on a grid", _cmd_calculus_eval,
     (_SPACE, ("--op", {"choices": _CALC_OPS}), _GRID, _OUT)),
    ("weights", None, "Hardy weight pairs", None, ()),
    ("weights", "eval", "tabulate V, W and the term split", _cmd_weights_eval,
     (_SPACE, ("--theorem", {"choices": _THEOREMS}), ("--gamma", _FLOAT), ("--alpha", _FLOAT), _P, _GRID, _OUT)),
    ("green", None, "P-Green function and its weight", None, ()),
    ("green", "eval", "tabulate G and the Green weight", _cmd_green_eval, (_SPACE, _P, ("--tol", _FLOAT), _GRID, _OUT)),
    ("green", "asymptotics", "fit the small-radius power law", _cmd_green_asymptotics,
     (_SPACE, _P, ("--rmin", _FLOAT), ("--rmax", _FLOAT), ("--samples", {"type": int}), _OUT)),
    ("spectral", None, "bottom eigenvalue on balls", None, ()),
    ("spectral", "bottom", "Dirichlet bottom eigenvalue with extrapolation", _cmd_spectral_bottom,
     (_SPACE, ("--R", _FLOAT), ("--mesh", _FLOAT), _OUT)),
    ("verify", None, "run numerical check families", _cmd_verify,
     (("family", {"choices": list(verify.FAMILIES) + ["all"]}),
      ("--space", {"action": "append", "help": "repeatable; defaults to the catalog"}),
      ("--out", {"help": "write the full JSON report here"}))),
)


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, a parser per row of ``_COMMANDS``."""
    parser = argparse.ArgumentParser(prog="hardyscope", description="Numerical checks for Hardy-type weights on rank-one spaces.")
    parser.add_argument("--config", help="INI-style config file; flags override its values")
    levels = {None: parser.add_subparsers(dest="command", required=True)}
    for g, s, help_, handler, options in _COMMANDS:
        p = levels[s and g].add_parser(s or g, help=help_)
        if handler is None:
            levels[g] = p.add_subparsers(dest="subcommand", required=True)
            continue
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def _table_args(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse gives a well-formed argv, read off ``_COMMANDS``:
    an optional leading ``--config X``, the command's names, then the leaf's
    positionals and exact flags, each flag with a value not starting with
    ``-``.  None for anything else (help, an abbreviation, ``--flag=value``,
    ``--``, a failed type or choices check, too few or too many positionals).
    """
    config = None
    if argv[:1] == ["--config"] and len(argv) > 1 and not argv[1].startswith("-"):
        config, argv = argv[1], argv[2:]
    for group, sub, _, handler, options in _COMMANDS:
        names = [group, sub] if sub else [group]
        if handler is not None and argv[: len(names)] == names:
            break
    else:
        return None
    flags = {flag: kwargs for flag, kwargs in options if flag.startswith("-")}
    positionals = [(flag, kwargs) for flag, kwargs in options if flag not in flags]
    args = argparse.Namespace(config=config, command=group, **dict.fromkeys(flag[2:] for flag in flags))
    if sub:
        args.subcommand = sub
    tokens = iter(argv[len(names) :])
    for token in tokens:
        if token in flags:
            dest, kwargs, raw = token[2:], flags[token], next(tokens, "-")
        elif positionals:
            (dest, kwargs), raw = positionals.pop(0), token
        else:
            return None
        try:
            value = kwargs.get("type", str)(raw)
        except ValueError:
            return None
        if raw.startswith("-") or ("choices" in kwargs and value not in kwargs["choices"]):
            return None
        setattr(args, dest, (getattr(args, dest) or []) + [value] if kwargs.get("action") == "append" else value)
    args.func = handler
    return None if positionals else args


# glibc's mallopt parameters (malloc.h) and the values pinned for them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 64 << 20, 32 << 20


def _pin_malloc_thresholds() -> None:
    """Keep freed numpy arrays of up to 32 MiB in the process for the next task.

    By default glibc serves every block of 128 KiB or more with mmap and
    returns the heap top to the kernel on free, so each new density array,
    tridiagonal matrix and iterate is faulted in again page by page.  32 MiB
    is glibc's own ceiling for its dynamic mmap threshold, whose rule sets
    the trim threshold to twice that; larger arrays are still mapped and
    unmapped.  Setting one value alone turns off the dynamic rule for both,
    so the mmap threshold goes first and the trim threshold only once it
    took.  Linux only; a libc without ``mallopt`` is left as it is.
    """
    if not sys.platform.startswith("linux"):
        return
    # ctypes.pythonapi is a handle on the running program, whose symbols
    # include libc's; a new CDLL(None) would cost about 20 us per call
    mallopt = getattr(ctypes.pythonapi, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _table_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits on usage errors (and --help); fold that into the
            # normal return path so callers of main() never see the exception
            return int(exc.code or 0)
    try:
        _settle(args)
        return args.func(args)
    except (SpaceValidationError, PreconditionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

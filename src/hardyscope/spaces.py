"""Radial volume densities for three families of rank-one harmonic spaces.

Each space is reduced to the weight f(r) in the radial volume element
dV = f(r) dr d(angle):

* flat space of dimension n:        f(r) = r^(n-1)
* constant curvature -1, dim n:     f(r) = sinh(r)^(n-1)
* two-parameter solvable family:    f(r) = 2^p sinh(r/2)^p sinh(r)^q

The third family is indexed by an even integer p >= 2 and an integer q >= 1
(dimension n = p + q + 1) subject to a divisibility condition on p coming
from the algebra that builds the space; see validate_heisenberg_params.

DensityModel evaluates one curved formula for the last two families: the
hyperbolic density is the two-parameter one at p = 0, q = n - 1, and the
terms of the sinh(r/2)^p factor drop out.  The kind of a space still decides
which theorems apply to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

import numpy as np

from .calculus import Jet2, RadialScalar
from .errors import SpaceValidationError

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"
DAMEK_RICCI = "dr"

_LN2 = float(np.log(2.0))

#: spaces exercised by the command line tool and the verification suite
DEFAULT_CATALOG = (
    "euclidean:3",
    "euclidean:4",
    "euclidean:5",
    "euclidean:6",
    "hyperbolic:3",
    "hyperbolic:4",
    "hyperbolic:5",
    "dr:2,1",
    "dr:4,2",
    "dr:4,3",
    "dr:8,7",
)


# ---------------------------------------------------------------------------
# descriptors and admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceSpec:
    """Parsed space descriptor."""

    kind: str
    n: int
    p: int | None = None
    q: int | None = None

    def descriptor(self) -> str:
        if self.kind == DAMEK_RICCI:
            return f"dr:{self.p},{self.q}"
        return f"{self.kind}:{self.n}"


def heisenberg_exponent(q: int) -> int:
    """Exponent e such that 2^e must divide p for the pair (p, q) to exist.

    Writing q = 8a + m with 1 <= m <= 8, the exponent is 4a plus a step
    function of m (1 for m=1, 2 for m in {2,3}, 3 for m in 4..7, 4 for m=8).
    """
    if q < 1:
        raise SpaceValidationError("q must be a positive integer")
    a, m = divmod(q - 1, 8)
    m += 1
    if m == 1:
        step = 1
    elif m <= 3:
        step = 2
    elif m <= 7:
        step = 3
    else:
        step = 4
    return 4 * a + step


def validate_heisenberg_params(p: int, q: int) -> None:
    """Check that (p, q) indexes an actual space; raise otherwise."""
    if p < 2 or p % 2 != 0:
        raise SpaceValidationError(f"p must be an even integer >= 2, got {p}")
    if q < 1:
        raise SpaceValidationError(f"q must be an integer >= 1, got {q}")
    e = heisenberg_exponent(q)
    if p % (1 << e) != 0:
        raise SpaceValidationError(
            f"pair (p={p}, q={q}) is not admissible: q={q} forces p to be a multiple of {1 << e}"
        )


def parse_space(text: str) -> SpaceSpec:
    """Parse a descriptor like ``euclidean:4``, ``hyperbolic:3`` or ``dr:2,1``."""
    body = text.strip().lower()
    kind, sep, rest = body.partition(":")
    if not sep:
        raise SpaceValidationError(f"bad space descriptor {text!r}: expected kind:params")
    if kind in (EUCLIDEAN, HYPERBOLIC):
        try:
            n = int(rest)
        except ValueError:
            raise SpaceValidationError(f"bad dimension {rest!r} in {text!r}") from None
        if n < 2:
            raise SpaceValidationError(f"dimension must be >= 2, got {n}")
        return SpaceSpec(kind=kind, n=n)
    if kind == DAMEK_RICCI:
        parts = rest.split(",")
        if len(parts) != 2:
            raise SpaceValidationError(f"bad parameter pair {rest!r} in {text!r}: expected p,q")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError:
            raise SpaceValidationError(f"bad parameter pair {rest!r} in {text!r}") from None
        validate_heisenberg_params(p, q)
        return SpaceSpec(kind=DAMEK_RICCI, n=p + q + 1, p=p, q=q)
    raise SpaceValidationError(f"unknown space kind {kind!r} in {text!r}")


# ---------------------------------------------------------------------------
# stable scalar helpers
# ---------------------------------------------------------------------------


def _scalar_ok(fn):
    """Accept scalars or arrays; return a float when given a scalar."""

    @wraps(fn)
    def wrapped(self, r):
        arr = np.asarray(r, dtype=float)
        out = fn(self, arr)
        if arr.ndim == 0:
            return float(out)
        return out

    return wrapped


def _logsinh(x: np.ndarray) -> np.ndarray:
    """log(sinh(x)) without overflow for large x."""
    big = x > 20.0
    safe = np.where(big, 1.0, x)
    grown = np.where(big, x, 1.0)
    return np.where(big, grown - _LN2 + np.log1p(-np.exp(-2.0 * grown)), np.log(np.sinh(safe)))


def _cothm1(x: np.ndarray) -> np.ndarray:
    """coth(x) - 1, computed without cancellation for large x.

    Written in terms of e^(-2x) so huge arguments underflow to an exact 0
    instead of overflowing an intermediate expm1.
    """
    return 2.0 * np.exp(-2.0 * x) / (-np.expm1(-2.0 * x))


# ---------------------------------------------------------------------------
# density model
# ---------------------------------------------------------------------------


class DensityModel:
    """Closed-form evaluators for one space's density f and its logarithmic data.

    All radial methods accept positive floats or numpy arrays.  The model also
    carries the constants that the weight constructions keep reusing: the
    volume growth rate h = lim f'/f, the spectral floor lambda0 = h^2/4, and
    the scalar curvature at the pole.
    """

    def __init__(self, spec: SpaceSpec):
        self.spec = spec
        self.kind = spec.kind
        self.n = spec.n
        if spec.kind == EUCLIDEAN:
            self.h = 0.0
            self.scalar_curvature = 0.0
        elif spec.kind in (HYPERBOLIC, DAMEK_RICCI):
            # the curved density 2^p sinh(r/2)^p sinh(r)^q with n = p + q + 1;
            # hyperbolic space is its p = 0 member
            self.p = spec.p or 0
            self.q = spec.n - 1 - self.p
            self.h = (self.p + 2.0 * self.q) / 2.0
            self.scalar_curvature = -spec.n * (self.p + 4.0 * self.q) / 4.0
        else:
            raise SpaceValidationError(f"unknown space kind {spec.kind!r}")
        self.lambda0 = self.h**2 / 4.0
        # quadratic coefficient of f(r)/r^(n-1) near the pole
        self.series_coefficient = -self.scalar_curvature / (6.0 * self.n)

    def __repr__(self) -> str:
        return f"DensityModel({self.spec.descriptor()})"

    # -- density and derivatives ------------------------------------------
    #
    # Each curved formula takes the sinh(r)^q factor's term and, unless p = 0,
    # combines the 2^p sinh(r/2)^p factor's term in front of it.

    @_scalar_ok
    def f(self, r):
        """Density f(r) of the radial volume element."""
        if self.kind == EUCLIDEAN:
            return r ** (self.n - 1)
        out = np.sinh(r) ** self.q
        return 2.0**self.p * np.sinh(r / 2.0) ** self.p * out if self.p else out

    @_scalar_ok
    def log_f(self, r):
        """log f(r), safe for radii far beyond the overflow range of f."""
        if self.kind == EUCLIDEAN:
            return (self.n - 1) * np.log(r)
        out = self.q * _logsinh(r)
        return self.p * _LN2 + self.p * _logsinh(r / 2.0) + out if self.p else out

    @_scalar_ok
    def log_df(self, r):
        """Logarithmic derivative f'(r)/f(r)."""
        if self.kind == EUCLIDEAN:
            return (self.n - 1) / r
        out = self.q / np.tanh(r)
        return self.p / (2.0 * np.tanh(r / 2.0)) + out if self.p else out

    @_scalar_ok
    def dlog_df(self, r):
        """Derivative of f'/f."""
        if self.kind == EUCLIDEAN:
            return -(self.n - 1) / r**2
        out = self.q / np.sinh(r) ** 2
        return -self.p / (4.0 * np.sinh(r / 2.0) ** 2) - out if self.p else -out

    @_scalar_ok
    def d2log_df(self, r):
        """Second derivative of log f, i.e. (f'/f)''."""
        if self.kind == EUCLIDEAN:
            return 2.0 * (self.n - 1) / r**3
        out = 2.0 * self.q * np.cosh(r) / np.sinh(r) ** 3
        return (self.p / 4.0) * np.cosh(r / 2.0) / np.sinh(r / 2.0) ** 3 + out if self.p else out

    @_scalar_ok
    def d2f_over_f(self, r):
        """Second derivative ratio f''(r)/f(r)."""
        arr_log_df = np.asarray(self.log_df(r))
        return np.asarray(self.dlog_df(r)) + arr_log_df**2

    @_scalar_ok
    def df(self, r):
        return np.asarray(self.f(r)) * np.asarray(self.log_df(r))

    @_scalar_ok
    def ddf(self, r):
        return np.asarray(self.f(r)) * np.asarray(self.d2f_over_f(r))

    @_scalar_ok
    def excess(self, r):
        """f'/f minus its limit h, computed without cancellation at large r."""
        if self.kind == EUCLIDEAN:
            return (self.n - 1) / r
        out = self.q * _cothm1(r)
        return (self.p / 2.0) * _cothm1(r / 2.0) + out if self.p else out

    # -- jet access ---------------------------------------------------------

    def f_jet(self, x: Jet2) -> Jet2:
        """Evaluate f on a jet, propagating two derivatives."""
        if self.kind == EUCLIDEAN:
            return x ** (self.n - 1)
        out = x.sinh() ** self.q
        return 2.0**self.p * (x * 0.5).sinh() ** self.p * out if self.p else out

    def log_f_scalar(self) -> RadialScalar:
        """log f as a composable radial scalar, with f'/f and (f'/f)' as its derivatives."""
        return RadialScalar.from_values(self.log_f, self.log_df, self.dlog_df)

    def f_scalar(self) -> RadialScalar:
        """The density as a composable radial scalar."""
        return RadialScalar(self.f_jet)


def build_density(spec: SpaceSpec | str) -> DensityModel:
    """Construct the density model for a parsed or textual descriptor."""
    if isinstance(spec, str):
        spec = parse_space(spec)
    return DensityModel(spec)


def default_models() -> list[DensityModel]:
    """Models for every space in the default catalog, in catalog order."""
    return [build_density(text) for text in DEFAULT_CATALOG]


def default_grid() -> np.ndarray:
    """Logarithmic radius grid used by checks that need a generic grid."""
    return np.geomspace(1e-3, 60.0, 400)

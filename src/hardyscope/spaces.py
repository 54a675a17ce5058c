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

The library computes with log f, f'/f and (f'/f)', finite where f leaves the
double range (log f > 709: r = 65 on dr:8,7, r = 25 on hyperbolic:30).  f
keeps its direct formula, cheaper than exp(log f), for ``calculus eval --op
f`` and the spectral assembly alone.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

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


def heisenberg_exponent(q: int) -> int:
    """Exponent e such that 2^e must divide p for the pair (p, q) to exist.

    Writing q = 8a + m with 1 <= m <= 8, the exponent is 4a plus a step
    function of m (1 for m=1, 2 for m in {2,3}, 3 for m in 4..7, 4 for m=8).
    """
    if q < 1:
        raise PreconditionError(f"q must be an integer >= 1, got {q}")
    a, m = divmod(q - 1, 8)
    return 4 * a + (1, 2, 2, 3, 3, 3, 3, 4)[m]


def validate_heisenberg_params(p: int, q: int) -> None:
    """Check that (p, q) indexes an actual space; raise otherwise."""
    if p < 2 or p % 2 != 0:
        raise PreconditionError(f"p must be an even integer >= 2, got {p}")
    e = heisenberg_exponent(q)
    if p % (1 << e) != 0:
        raise PreconditionError(
            f"pair (p={p}, q={q}) is not admissible: q={q} forces p to be a multiple of {1 << e}"
        )


# ---------------------------------------------------------------------------
# stable scalar helpers
# ---------------------------------------------------------------------------


def _logsinh(x: np.ndarray) -> np.ndarray:
    """log(sinh(x)) as x - log 2 + log(1 - e^(-2x)): no branch, no overflow, and
    within 1 ulp on [1e-8, 1e3] (absolute where |log sinh x| < 1)."""
    return x - _LN2 + np.log(-np.expm1(-2.0 * x))


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

    A model is a kind, a dimension n and, on curved spaces, p (0 on hyperbolic
    space), as ``build_density`` parses them from a descriptor.  Radial methods
    take a positive float or an array and return what numpy does for it (an
    ``np.float64`` for a float), equal bit for bit: powers are ufuncs, as
    numpy's scalar ``**`` rounds otherwise, and so is the flat (n-1)/r.
    The model also carries the constants that the weight constructions keep
    reusing: the volume growth rate h = lim f'/f and the spectral floor
    lambda0 = h^2/4.
    """

    def __init__(self, kind: str, n: int, p: int = 0):
        self.kind, self.n = kind, n
        if kind == EUCLIDEAN:
            self.h = 0.0
        elif kind in (HYPERBOLIC, DAMEK_RICCI):
            # the curved density 2^p sinh(r/2)^p sinh(r)^q with n = p + q + 1;
            # hyperbolic space is its p = 0 member
            self.p = p
            self.q = n - 1 - p
            self.h = (p + 2.0 * self.q) / 2.0
        else:
            raise PreconditionError(f"unknown space kind {kind!r}")
        self.lambda0 = self.h**2 / 4.0

    def descriptor(self) -> str:
        """The descriptor that ``build_density`` reads back into this model."""
        if self.kind == DAMEK_RICCI:
            return f"dr:{self.p},{self.q}"
        return f"{self.kind}:{self.n}"

    # -- density and derivatives ------------------------------------------
    #
    # Each curved formula takes the sinh(r)^q factor's term and, unless p = 0,
    # combines the 2^p sinh(r/2)^p factor's term in front of it.

    def f(self, r):
        """Density f(r) of the radial volume element."""
        if self.kind == EUCLIDEAN:
            # a float power: an integer array would overflow silently
            return np.power(r, self.n - 1.0)
        out = np.power(np.sinh(r), self.q)
        return 2.0**self.p * np.power(np.sinh(r / 2.0), self.p) * out if self.p else out

    def log_f(self, r):
        """log f(r), safe for radii far beyond the overflow range of f."""
        if self.kind == EUCLIDEAN:
            return (self.n - 1) * np.log(r)
        out = self.q * _logsinh(r)
        return self.p * _LN2 + self.p * _logsinh(r / 2.0) + out if self.p else out

    def log_df(self, r):
        """Logarithmic derivative f'(r)/f(r)."""
        if self.kind == EUCLIDEAN:
            return np.divide(self.n - 1, r)
        out = self.q / np.tanh(r)
        return self.p / (2.0 * np.tanh(r / 2.0)) + out if self.p else out

    def dlog_df(self, r):
        """Derivative of f'/f.  Past r = 355 sinh(r)^2 overflows and its term
        reads 0, which is right: the true term is below the normal doubles."""
        if self.kind == EUCLIDEAN:
            return -(self.n - 1) / np.square(r)
        with np.errstate(over="ignore"):
            out = self.q / np.square(np.sinh(r))
            return -self.p / (4.0 * np.square(np.sinh(r / 2.0))) - out if self.p else -out

    def d2f_over_f(self, r):
        """Second derivative ratio f''(r)/f(r)."""
        return self.dlog_df(r) + np.square(self.log_df(r))

    def excess(self, r):
        """f'/f minus its limit h, computed without cancellation at large r."""
        if self.kind == EUCLIDEAN:
            return np.divide(self.n - 1, r)
        out = self.q * _cothm1(r)
        return (self.p / 2.0) * _cothm1(r / 2.0) + out if self.p else out


def build_density(text: str) -> DensityModel:
    """The density model of a descriptor like ``euclidean:4``, ``hyperbolic:3`` or ``dr:2,1``."""
    body = text.strip().lower()
    kind, sep, rest = body.partition(":")
    if not sep:
        raise PreconditionError(f"bad space descriptor {text!r}: expected kind:params")
    if kind in (EUCLIDEAN, HYPERBOLIC):
        try:
            n = int(rest)
        except ValueError:
            raise PreconditionError(f"bad dimension {rest!r} in {text!r}") from None
        if n < 2:
            raise PreconditionError(f"dimension must be >= 2, got {n}")
        return DensityModel(kind, n)
    if kind == DAMEK_RICCI:
        parts = rest.split(",")
        if len(parts) != 2:
            raise PreconditionError(f"bad parameter pair {rest!r} in {text!r}: expected p,q")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError:
            raise PreconditionError(f"bad parameter pair {rest!r} in {text!r}") from None
        validate_heisenberg_params(p, q)
        return DensityModel(DAMEK_RICCI, p + q + 1, p)
    raise PreconditionError(f"unknown space kind {kind!r} in {text!r}")


def default_grid() -> np.ndarray:
    """Logarithmic radius grid used by checks that need a generic grid."""
    return np.geomspace(1e-3, 60.0, 400)

"""Bottom Dirichlet eigenvalue of the radial operator on a ball.

The weak form of -u'' - (f'/f) u' (+ V u) on (0, R) is
integral f u' v' (+ integral f V u v) = lambda * integral f u v
over functions vanishing at R.  A vertex-centered flux scheme on the
self-adjoint form (f u')' keeps the matrices symmetric tridiagonal, never
evaluates the singular drift f'/f, and gets the natural (Neumann-type)
condition at r = 0 for free by treating node 0 as a half cell.  The lumped
mass is diagonal, so the pencil scales to one symmetric tridiagonal T.

The solver is shifted inverse iteration, certified at both ends.

* Shift.  T - sigma I is factored once (LAPACK ``dpttrf``, L D L^T) at
  sigma = lambda0 = h^2/4, the bottom of the whole space's spectrum, which
  lies below the Dirichlet bottom of every ball.  Only a potential can push
  the bottom below lambda0; then further factorization tests lower sigma
  until one succeeds.
* Iteration.  ``dpttrs`` solves with those factors from a flat start vector
  until the Rayleigh quotient moves by no more than its rounding level.
  Each step costs O(cells); 5 to 14 steps suffice on the benchmark's balls.
  On big balls lambda_k - lambda0 approaches k^2 pi^2 / R^2, so the error
  contracts by about (1/4)^2 per step.
* Certificate.  The quotient bounds the eigenvalue from above (min-max).
  One more factorization test just below it shows that no eigenvalue lies
  below that point.  A failed test, an iteration that does not settle or a
  non-finite matrix raises QuadratureError; no other solver stands behind
  this one.

Bisection (LAPACK ``stebz``) is only accurate to eps times the 1-norm of T,
which grows like cells^2 and, through the half cell at the pole, like 2^n;
Richardson extrapolation amplifies that error.  On dr:8,7 at R = 5 it moved
the extrapolated value by 8e-5 relative from 10k to 50k cells.

The solve keeps the name and ``d``-first signature of scipy's
``eigh_tridiagonal``, whose bisection it replaces, and every solve goes
through that one module-level function: the benchmark's traced pass wraps
it by name and counts its calls and the size of ``d``.
``scipy.linalg.lapack`` is imported at the first solve, so importing the
package loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import RadialScalar
from .errors import PreconditionError, QuadratureError
from .spaces import DensityModel

__all__ = ["EigenProblem", "SpectralResult", "bottom_eigenvalue", "eigh_tridiagonal"]

_EPS = float(np.finfo(float).eps)
#: inverse iteration steps before the solve is refused
_MAX_ITERATIONS = 100
#: doublings of the step in the search for a positive definite shift
_MAX_SHIFTS = 64
#: the most cells R/mesh a ball may have, refused before any allocation: 200
#: times the 50k-cell balls of the benchmark; 5M cells (10M at half mesh) take
#: 3.4 s and 0.76 GB, so this limit needs about twice that
_MAX_CELLS = 10_000_000


@dataclass
class EigenProblem:
    """Discretized radial eigenproblem on [0, R] with Dirichlet data at R."""

    model: DensityModel
    R: float
    mesh: float
    potential: RadialScalar | None = None


@dataclass
class SpectralResult:
    """Smallest eigenvalue with mesh-refinement diagnostics."""

    eigenvalue: float
    eigenvalue_half_mesh: float
    extrapolated: float
    target_lambda0: float
    gap: float
    R: float
    mesh: float


def eigh_tridiagonal(d, e, shift: float) -> tuple[float, float]:
    """Smallest eigenvalue of the symmetric tridiagonal (d, e), with a certified lower end.

    Returns (value, lower): ``value`` is a Rayleigh quotient, so no less than
    the eigenvalue, and T - lower I factors, so no eigenvalue lies below
    ``lower``.  ``shift`` is the first shift tried (``_shift_below``).

    Each step solves (T - shift I) y = x for the normalised iterate x and
    takes the quotient shift + <x, y>/<y, y>, which never forms T y and so
    loses nothing to cancellation against ||T||.  Its rounding level is
    eps (|shift| + x^T |T - shift I| x), bounded through the absolute row
    sums of T - shift I: how far a relative error of one ulp in every entry
    moves it.  For a smooth x that is about eps ||T||, far below eps times
    the 1-norm of T, which the pole's half cell dominates in high dimension.
    The quotients decrease monotonically in exact arithmetic, so the
    iteration stops once a step is within that level, and the lower end is
    tested 4 max(last step, rounding level) below the quotient.

    The name and the ``d``-first signature are those of scipy's bisection,
    which this replaces: the benchmark's traced pass wraps this function by
    name, so every solve must go through it.
    """
    from scipy.linalg.lapack import dpttrs

    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise QuadratureError("tridiagonal matrix is not finite")
    shift, (fd, fe) = _shift_below(d, e, float(shift))
    # absolute row sums of T - shift I: x^T |T - shift I| x <= rows @ x^2
    rows = np.abs(d - shift)
    rows[1:] += np.abs(e)
    rows[:-1] += np.abs(e)
    x = np.full(d.size, d.size**-0.5)
    value = step = math.inf
    for _ in range(_MAX_ITERATIONS):
        y = dpttrs(fd, fe, x)[0]
        yy = float(y @ y)
        quotient = shift + float(x @ y) / yy
        step, value = value - quotient, quotient
        x = y * (1.0 / math.sqrt(yy))
        rounding = _EPS * (abs(shift) + float(rows @ (x * x)))
        if abs(step) <= rounding:
            break
    else:
        raise QuadratureError(f"inverse iteration did not settle in {_MAX_ITERATIONS} steps (last step {step:.3e})")
    lower = value - 4.0 * max(abs(step), rounding)
    if _factors(d, e, lower) is None:
        raise QuadratureError(f"eigenvalue {value!r} not certified: T - {lower!r} I is not positive definite")
    return value, lower


def _factors(d, e, shift: float):
    """L D L^T factors of T - shift I (LAPACK ``dpttrf``), or None where it is not positive definite."""
    from scipy.linalg.lapack import dpttrf

    fd, fe, info = dpttrf(d - shift, e, overwrite_d=True)
    return None if info else (fd, fe)


def _shift_below(d, e, shift: float):
    """A shift at or below ``shift`` where T - shift I is positive definite, and its factors.

    If ``shift`` fails, the search steps down by doubling steps from
    2^-10 (1 + |shift|) until a shift succeeds, then bisects the last step
    back to the first step's width, so the shift ends that close below the
    bottom eigenvalue and the iteration stays fast.
    """
    factors = _factors(d, e, shift)
    if factors is not None:
        return shift, factors
    first = step = 2.0**-10 * (1.0 + abs(shift))
    hi = shift
    for _ in range(_MAX_SHIFTS):
        lo = hi - step
        factors = _factors(d, e, lo)
        if factors is not None:
            break
        hi, step = lo, 2.0 * step
    else:
        raise QuadratureError(f"no positive definite shift of the tridiagonal matrix down to {lo!r}")
    while hi - lo > first:
        mid = 0.5 * (lo + hi)
        at_mid = _factors(d, e, mid)
        if at_mid is None:
            hi = mid
        else:
            lo, factors = mid, at_mid
    return lo, factors


def _assemble(model: DensityModel, potential: RadialScalar | None, R: float, h: float):
    """Scaled symmetric tridiagonal (d, e) of the flux scheme with ``R/h`` cells."""
    cells = int(round(R / h))
    h = R / cells
    # unknowns at nodes 0..cells-1; node `cells` is the Dirichlet boundary
    mids = (np.arange(cells) + 0.5) * h
    nodes = np.arange(cells) * h
    # f overflows on big balls in high dimension; that is refused below,
    # not warned about on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_mid = np.asarray(model.f(mids))
        m_diag = np.empty(cells)
        m_diag[0] = 0.5 * h * float(model.f(0.25 * h))
        m_diag[1:] = h * np.asarray(model.f(nodes[1:]))
        # f grows with r and the last midpoint lies beyond every node
        finite = np.isfinite(f_mid)
        if not finite.all():
            r_bad = mids[np.argmin(finite)]
            raise QuadratureError(f"density f is not finite from r={r_bad:.6g} on the ball of radius {R:g}")

        k_diag = np.empty(cells)
        k_diag[0] = f_mid[0] / h
        k_diag[1:] = (f_mid[:-1] + f_mid[1:]) / h
        k_off = -f_mid[: cells - 1] / h
        if potential is not None:
            r_eval = nodes.copy()
            r_eval[0] = 0.25 * h
            k_diag = k_diag + np.asarray(potential.value(r_eval)) * m_diag

        # the lumped mass is strictly positive, so the generalized pencil
        # reduces to a standard symmetric tridiagonal problem by diagonal
        # scaling; the two square roots are applied one at a time because the
        # mass product overflows on big balls in high dimension even when the
        # quotient is tame
        d = k_diag / m_diag
        e = k_off / np.sqrt(m_diag[:-1]) / np.sqrt(m_diag[1:])
    return d, e


def _solve_once(model: DensityModel, potential: RadialScalar | None, R: float, h: float) -> float:
    d, e = _assemble(model, potential, R, h)
    return eigh_tridiagonal(d, e, model.lambda0)[0]


def bottom_eigenvalue(problem: EigenProblem) -> SpectralResult:
    """Smallest generalized eigenvalue with Richardson extrapolation.

    Solves at the requested mesh and at half the mesh; the scheme is second
    order, so (4 lambda_{h/2} - lambda_h)/3 cancels the leading error term.
    The Dirichlet value is an upper bound for the spectral bottom and
    decreases as R grows.
    """
    if not 0.0 < problem.R < np.inf:
        raise PreconditionError("ball radius must be positive and finite")
    if not 0.0 < problem.mesh <= problem.R / 100.0:
        raise PreconditionError("mesh must satisfy 0 < mesh <= R/100 (at least 100 cells)")
    if not problem.R / problem.mesh <= _MAX_CELLS:
        raise PreconditionError(f"R/mesh is {problem.R / problem.mesh:.3g} cells, more than {_MAX_CELLS:,}")
    lam = _solve_once(problem.model, problem.potential, problem.R, problem.mesh)
    lam_half = _solve_once(problem.model, problem.potential, problem.R, problem.mesh / 2.0)
    extrapolated = (4.0 * lam_half - lam) / 3.0
    return SpectralResult(
        eigenvalue=lam,
        eigenvalue_half_mesh=lam_half,
        extrapolated=extrapolated,
        target_lambda0=problem.model.lambda0,
        gap=extrapolated - problem.model.lambda0,
        R=problem.R,
        mesh=problem.mesh,
    )

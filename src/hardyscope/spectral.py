"""Bottom Dirichlet eigenvalue of the radial operator on a ball.

The weak form of -u'' - (f'/f) u' on (0, R) is
integral f u' v' = lambda * integral f u v
over functions vanishing at R.  A vertex-centered flux scheme on the
self-adjoint form (f u')' keeps the matrices symmetric tridiagonal, never
evaluates the singular drift f'/f, and gets the natural (Neumann-type)
condition at r = 0 for free by treating node 0 as a half cell.  The lumped
mass is diagonal, so the pencil scales to one symmetric tridiagonal T.

Each ball is solved at the requested mesh h = R/N and at exactly h/2.  f is
evaluated once, on the half mesh's grid, which holds every coarse node and
midpoint bit for bit.  The solver is shifted inverse iteration, certified at
both ends.

* Shift.  T - sigma I is factored once (LAPACK ``dpttrf``, L D L^T) at
  sigma = lambda0 = h^2/4, the bottom of the whole space's spectrum.  The
  growth bound f'/f >= h makes that factorization succeed on every mesh
  delta with h delta <= 4.  With a = h delta/2 and phi_i = exp(-h r_i/2),
  f(r - delta/2) <= f(r) exp(-a) and f(r + delta/2) >= f(r) exp(a) put
  every interior row of (K - lambda0 M) phi at or above
  f(r_i) phi_i (4 sinh^2(a/2) - a^2)/delta >= 0, the pole row is
  nonnegative for a <= 2 and the Dirichlet row is strict, so
  K - lambda0 M is a nonsingular M-matrix.  A shift at which T does not
  factor raises QuadratureError (hyperbolic:2 at R = 700 on 100 cells,
  h delta = 7).
* Iteration.  ``dpttrs`` solves with those factors until the Rayleigh
  quotient moves by no more than its rounding level, O(cells) a step.  The
  first step is measured from the start vector's own quotient, so a start
  that has already converged costs one solve.  On big balls
  lambda_k - lambda0 approaches k^2 pi^2 / R^2, so the error contracts by
  about (1/4)^2 per step.  Each mesh starts from a rougher one's
  eigenvector: the coarse mesh takes 1 step at 50k cells and 1 to 3 at 10k
  (5 to 14 flat), the half mesh 1 from 10k on, 4 at most at 1k.  Where lambda_1
  and lambda_2 lie close together far above lambda0 (hyperbolic:10 at R = 70
  on 1k cells), a step gains a factor of only 0.85; after 30 steps the shift
  moves up once, to just below lambda_1, and such balls settle in 33 to 71.
* Certificate.  The quotient bounds the eigenvalue from above (min-max).
  One more factorization test just below it shows that no eigenvalue lies
  below that point.  A failed test, an iteration that does not settle or a
  non-finite matrix raises QuadratureError; no other solver stands behind
  this one.  So does an extrapolated value at or below lambda0, which no
  ball's Dirichlet bottom reaches (100 cells on hyperbolic:10 at R = 70 give
  18.52 against lambda0 = 20.25: the mesh is far too coarse).

Bisection (LAPACK ``stebz``) is only accurate to eps times the 1-norm of T,
which grows like cells^2 and, through the half cell at the pole, like 2^n;
Richardson extrapolation amplifies that error.  On dr:8,7 at R = 5 it moved
the extrapolated value by 8e-5 relative from 10k to 50k cells.
``scipy.linalg.lapack`` is imported at the first solve, so importing the
package loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import _EPS
from .errors import PreconditionError, QuadratureError
from .spaces import DensityModel

__all__ = ["EigenProblem", "SpectralResult", "bottom_eigenvalue", "eigh_tridiagonal"]

#: inverse iteration steps before the solve is refused
_MAX_ITERATIONS = 100
#: steps after which an unsettled iteration moves its shift up, once
_SLOW_STEPS = 30
#: the most cells R/mesh a ball may have, refused before any allocation: 200
#: times the 50k-cell balls of the benchmark; 2M cells (4M at half mesh) take
#: 0.45 s and 0.33-0.34 GB on dr:4,2, so this limit needs about 2 GB
_MAX_CELLS = 10_000_000


@dataclass
class EigenProblem:
    """Discretized radial eigenproblem on [0, R] with Dirichlet data at R."""

    model: DensityModel
    R: float
    mesh: float


@dataclass
class SpectralResult:
    """Smallest eigenvalue with mesh-refinement diagnostics."""

    eigenvalue: float
    eigenvalue_half_mesh: float
    extrapolated: float


def eigh_tridiagonal(d, e, shift: float, x=None) -> tuple[float, float, np.ndarray]:
    """Smallest eigenvalue of the symmetric tridiagonal (d, e), with a certified lower end.

    Returns (value, lower, x): ``value`` is a Rayleigh quotient, so no less
    than the eigenvalue, T - lower I factors, so no eigenvalue lies below
    ``lower``, and x is the last unit iterate.  T - shift I must factor, so
    ``shift`` must lie below the spectrum (lambda0 does, see the module
    docstring); where it does not, QuadratureError is raised.  The start
    vector ``x`` (any scale) is flat by default.  A diagonal of fewer than
    2 entries, an off-diagonal whose size is not one less, or a shift that
    is not finite raises PreconditionError before any factorization.

    Each step solves (T - shift I) y = x for the iterate x and takes the
    quotient shift + <x, y>/<y, y>, which never forms T y and so loses
    nothing to cancellation against ||T||.  Its rounding level is
    eps (|shift| + x^T |T - shift I| x), bounded through the absolute row
    sums of T - shift I: how far a relative error of one ulp in every entry
    moves it.  For a smooth x that is about eps ||T||, far below eps times
    the 1-norm of T, which the pole's half cell dominates in high dimension.
    The quotient is the Rayleigh quotient of y whatever the shift, so the
    quotients decrease monotonically in exact arithmetic, also across the
    one move of the shift after ``_SLOW_STEPS`` steps; the iteration stops
    once a step is within that level, and the lower end is tested 4 max(last
    step, rounding level, the steps' geometric series ``_tail``) below the
    quotient (a step shrinks by 0.83 on hyperbolic:11 at R = 70).

    The first step is measured from the start's own quotient
    shift + <x, x>/<x, y>, which the first solve gives without T x too.
    With A = T - shift I, the Rayleigh quotient of A^(-s) x does not
    increase with s >= 0 (Cauchy-Schwarz, A positive definite); the k-th
    quotient is the one at s = k and the start's the one at s = 1/2, between
    x's own Rayleigh quotient and the first.  So a converged start stops
    after one ``dpttrs`` step, while a flat start, whose first step is
    large, keeps its steps and its values bit for bit.  <x, y> > 0 needs
    x != 0: a start of the wrong size, or whose <x, x> is 0 or not finite
    (a NaN or infinite entry, or entries so small or large that their
    squares leave the double range), raises PreconditionError before any
    factorization.

    The iteration works in two arrays allocated before the factors, so the
    heap after a solve does not depend on its number of steps: each step
    copies x into y, solves there in place (``overwrite_b``) and normalises
    y back into x.  A caller's start vector is copied once, never written.
    The factors, y and the row sums are freed before the certificate's
    factorization, which is the solve's peak.

    The name and the ``d``-first signature are those of scipy's bisection,
    which this replaces: the benchmark's traced pass wraps this function by
    name and counts its calls and the size of ``d``, so every solve must go
    through it.
    """
    from scipy.linalg.lapack import dpttrs

    d, e, shift = np.asarray(d, dtype=float), np.asarray(e, dtype=float), float(shift)
    if not (d.ndim == 1 and d.size >= 2 and e.shape == (d.size - 1,)):
        raise PreconditionError(f"need a diagonal of at least 2 entries and an off-diagonal of one fewer, got {d.size} and {e.size}")
    if not math.isfinite(shift):
        raise PreconditionError(f"shift must be finite, got {shift!r}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise QuadratureError("tridiagonal matrix is not finite")
    x = np.full(d.size, d.size**-0.5) if x is None else np.array(x, dtype=float)
    with np.errstate(over="ignore"):
        xx = float(x @ x) if x.shape == d.shape else math.nan
    if not 0.0 < xx < math.inf:
        raise PreconditionError(f"start vector must have {d.size} entries and a finite nonzero squared norm")
    y = np.empty(d.size)
    factors = _factors(d, e, shift)
    if factors is None:
        raise QuadratureError(f"T - {shift!r} I is not positive definite: the shift must lie below the spectrum")
    fd, fe = factors
    rows = _rounding_rows(d, e, shift)
    step = math.inf
    for k in range(1, _MAX_ITERATIONS + 1):
        np.copyto(y, x)
        y = dpttrs(fd, fe, y, overwrite_b=True)[0]
        yy, xy = float(y @ y), float(x @ y)
        if k == 1:
            value = shift + xx / xy  # the start's own quotient, no less than the first
        quotient = shift + xy / yy
        last, step, value = step, value - quotient, quotient
        np.multiply(y, 1.0 / math.sqrt(yy), out=x)
        rounding = _EPS * (abs(shift) + float(rows @ (x * x)))
        if abs(step) <= rounding:
            break
        if k == _SLOW_STEPS and (tail := _tail(10.0, step, last)):
            # a shift where T still factors is below the eigenvalue
            target = value - tail
            factors = _factors(d, e, target) if target > shift else None
            if factors is not None:
                shift, (fd, fe) = target, factors
                rows = _rounding_rows(d, e, shift)
    else:
        raise QuadratureError(f"inverse iteration did not settle in {_MAX_ITERATIONS} steps (last step {step:.3e})")
    lower = value - max(4.0 * abs(step), 4.0 * rounding, _tail(4.0, step, last))
    fd = fe = factors = rows = y = None  # the certificate's factors take their place
    if _factors(d, e, lower) is None:
        raise QuadratureError(f"eigenvalue {value!r} not certified: T - {lower!r} I is not positive definite")
    return value, lower, x


def _tail(factor: float, step: float, last: float) -> float:
    """factor step / (1 - r), r = step / last, where the steps shrink (0 < step < last), else 0:
    the steps to come sum to about step r / (1 - r), so the eigenvalue lies about that far below."""
    return factor * step / (1.0 - step / last) if 0.0 < step < last else 0.0


def _rounding_rows(d, e, shift: float):
    """The absolute row sums of T - shift I, so x^T |T - shift I| x <= rows @ x^2."""
    rows = np.abs(d - shift)
    abs_e = np.abs(e)
    rows[1:] += abs_e
    rows[:-1] += abs_e
    return rows


def _factors(d, e, shift: float):
    """L D L^T factors of T - shift I (LAPACK ``dpttrf``), or None where it is not positive definite."""
    from scipy.linalg.lapack import dpttrf

    fd, fe, info = dpttrf(d - shift, e, overwrite_d=True)
    return None if info else (fd, fe)


def _density(model: DensityModel, h: float, cells: int) -> np.ndarray:
    """f on a mesh of width h: f(h/4), then f(k h/2) for k = 1 .. 2 cells - 1.

    Odd k are the midpoints, even k the nodes.  k h/2 equals (i + 1/2) h and
    i h bit for bit, so the grid of the mesh h/2 holds that of the mesh h at
    its entry 1 and its entries 2k.
    """
    # a float range: scaling an integer one converts every entry first, 8x
    # slower.  Scaled in place: numpy checks an elided temporary's caller with
    # glibc's backtrace, whose first call keeps 45 KB for good; made between
    # the first solve's arrays, that block pushed the next solve's past them
    r = np.arange(2 * cells, dtype=float)
    r *= 0.5 * h
    r[0] = 0.25 * h
    # f overflows on big balls in high dimension; `_assemble` refuses that
    with np.errstate(over="ignore", invalid="ignore"):
        return model.f(r)


def _assemble(f_pole: float, f_mid, f_node, h: float, R: float):
    """Scaled symmetric tridiagonal (d, e) of the flux scheme from f at h/4, the midpoints and the nodes i >= 1."""
    cells = f_mid.size
    # unknowns at nodes 0..cells-1; node `cells` is the Dirichlet boundary.
    # f grows with r and the last midpoint lies beyond every node
    finite = np.isfinite(f_mid)
    if not finite.all():
        r_bad = (np.argmin(finite) + 0.5) * h
        raise QuadratureError(f"density f is not finite from r={r_bad:.6g} on the ball of radius {R:g}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m_diag = np.empty(cells)
        m_diag[0] = 0.5 * h * f_pole
        np.multiply(f_node, h, out=m_diag[1:])
        d = np.empty(cells)  # the stiffness diagonal until scaled
        d[0] = f_mid[0] / h
        np.add(f_mid[:-1], f_mid[1:], out=d[1:])
        d[1:] /= h
        # the lumped mass is strictly positive, so the generalized pencil
        # reduces to a standard symmetric tridiagonal problem by diagonal
        # scaling; the two square roots are applied one at a time because the
        # mass product overflows on big balls in high dimension even when the
        # quotient is tame
        d /= m_diag
        root_m = np.sqrt(m_diag, out=m_diag)
        e = np.divide(f_mid[:-1], -h)
        e /= root_m[:-1]
        e /= root_m[1:]
    return d, e


def _rough_start(model: DensityModel, R: float, cells: int) -> np.ndarray | None:
    """A rough mesh's eigenvector with 0 appended at R, or None (flat) below 1,600 cells or where refused."""
    rough = min(cells // 16, 1_000)
    if rough < 100:
        return None
    try:
        f = _density(model, R / rough, rough)
        return np.append(eigh_tridiagonal(*_assemble(f[0], f[1::2], f[2::2], R / rough, R), model.lambda0)[2], 0.0)
    except QuadratureError:
        return None


def _interpolate(x: np.ndarray, cells: int) -> np.ndarray:
    """x at equal steps over [0, R] interpolated linearly onto the nodes of ``cells`` cells, in blocks of 16k."""
    nodes, out = np.arange(x.size, dtype=float), np.arange(cells, dtype=float)
    for i in range(0, cells, 1 << 14):
        out[i : i + (1 << 14)] = np.interp(out[i : i + (1 << 14)] * ((x.size - 1) / cells), nodes, x)
    return out


def bottom_eigenvalue(problem: EigenProblem) -> SpectralResult:
    """Smallest generalized eigenvalue with Richardson extrapolation.

    Solves at h = R/round(R/mesh) and at exactly h/2; the scheme is second
    order, so (4 lambda_{h/2} - lambda_h)/3 cancels the leading error term.
    The coarse mesh starts from ``_rough_start``, the half mesh from the
    coarse eigenvector x interpolated linearly (0 at R).  Away from the pole
    x = sqrt(m) u is sqrt(h) times the Liouville variable sqrt(f) u, smooth
    where u decays like f^(-1/2).  The Dirichlet value is an upper bound for
    the spectral bottom and decreases as R grows.
    """
    R, mesh, model = problem.R, problem.mesh, problem.model
    if not 0.0 < R < np.inf:
        raise PreconditionError("ball radius must be positive and finite")
    if not 0.0 < mesh <= R / 100.0:
        raise PreconditionError("mesh must satisfy 0 < mesh <= R/100 (at least 100 cells)")
    if not R / mesh <= _MAX_CELLS:
        raise PreconditionError(f"R/mesh is {R / mesh:.3g} cells, more than {_MAX_CELLS:,}")
    cells = int(round(R / mesh))
    h = R / cells
    # the rough mesh before f, the start after d, e and not held here: else a 1M-cell peak RSS rose 4%
    rough = _rough_start(model, R, cells)
    f = _density(model, 0.5 * h, 2 * cells)
    d, e = _assemble(f[1], f[2::4], f[4::4], h, R)
    lam, _, x = eigh_tridiagonal(d, e, model.lambda0, None if rough is None else _interpolate(rough, cells))
    del d, e
    d, e = _assemble(f[0], f[1::2], f[2::2], 0.5 * h, R)
    del f
    x = np.repeat(x, 2)
    x[1:-1:2] += x[2::2]
    x[1::2] *= 0.5
    lam_half = eigh_tridiagonal(d, e, model.lambda0, x)[0]
    extrapolated = (4.0 * lam_half - lam) / 3.0
    if not extrapolated > model.lambda0:
        raise QuadratureError(
            f"extrapolated value {extrapolated!r} is not above lambda0 = {model.lambda0!r}; the mesh is too coarse"
        )
    return SpectralResult(lam, lam_half, extrapolated)

"""Bottom Dirichlet eigenvalue of the radial operator on a ball.

The weak form of -u'' - (f'/f) u' (+ V u) on (0, R) is
integral f u' v' (+ integral f V u v) = lambda * integral f u v
over functions vanishing at R.  A vertex-centered flux scheme on the
self-adjoint form (f u')' keeps the matrices symmetric tridiagonal, never
evaluates the singular drift f'/f, and gets the natural (Neumann-type)
condition at r = 0 for free by treating node 0 as a half cell.

The tridiagonal eigensolve is scipy's; ``scipy.linalg`` is imported at the
first solve, so importing the package loads no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import RadialScalar
from .errors import PreconditionError, QuadratureError
from .spaces import DensityModel

__all__ = ["EigenProblem", "SpectralResult", "bottom_eigenvalue"]


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


def eigh_tridiagonal(d, e, **kwargs):
    """``scipy.linalg.eigh_tridiagonal``, imported on the first call."""
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e, **kwargs)


def _solve_once(model: DensityModel, potential: RadialScalar | None, R: float, h: float) -> float:
    cells = int(round(R / h))
    h = R / cells
    # unknowns at nodes 0..cells-1; node `cells` is the Dirichlet boundary
    mids = (np.arange(cells) + 0.5) * h
    f_mid = np.asarray(model.f(mids))
    nodes = np.arange(cells) * h

    k_diag = np.empty(cells)
    k_diag[0] = f_mid[0] / h
    k_diag[1:] = (f_mid[:-1] + f_mid[1:]) / h
    k_off = -f_mid[: cells - 1] / h

    m_diag = np.empty(cells)
    m_diag[0] = 0.5 * h * float(model.f(0.25 * h))
    m_diag[1:] = h * np.asarray(model.f(nodes[1:]))

    if potential is not None:
        r_eval = nodes.copy()
        r_eval[0] = 0.25 * h
        k_diag = k_diag + np.asarray(potential.value(r_eval)) * m_diag

    # the lumped mass is strictly positive, so the generalized pencil reduces
    # to a standard symmetric tridiagonal problem by diagonal scaling; the
    # two square roots are applied one at a time because the mass product
    # overflows on big balls in high dimension even when the quotient is tame
    d = k_diag / m_diag
    e = k_off / np.sqrt(m_diag[:-1]) / np.sqrt(m_diag[1:])
    try:
        vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 0), eigvals_only=True)
    except Exception as exc:  # pragma: no cover - LAPACK failures are exotic
        raise QuadratureError(f"tridiagonal eigensolve failed: {exc}") from exc
    return float(vals[0])


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

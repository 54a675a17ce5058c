"""Reference radial operators that the tests compare the library against.

The library computes with log f and closed-form jets and needs neither of
these; the tests use them as independent references.
"""

import numpy as np

from hardyscope.calculus import check_radius, hilfe_coefficients
from hardyscope.errors import PreconditionError


def p_laplacian_radial(u, model, P: float, r):
    """P-Laplacian of a radial function.

    Computed as |u'|^(P-2) * ((P-1) u'' + (f'/f) u'), valid wherever u' is
    nonzero (and everywhere for P >= 2).
    """
    P = float(P)
    if P <= 1.0:
        raise PreconditionError("p_laplacian_radial requires P > 1")
    r = check_radius(r)
    j = u.jet(r)
    du = j.d1
    core = (P - 1.0) * j.d2 + model.log_df(r) * du
    if P == 2.0:
        return core
    return np.abs(du) ** (P - 2.0) * core


def hilfe_rhs(a: float, b: float, p: int, q: int, r):
    """a (f'/f)^2 - b f''/f for the two-parameter density: ``hilfe_coefficients`` at c = a - b."""
    r = check_radius(r)
    const, coef_r, coef_half = hilfe_coefficients(a - b, b, p, q)
    return const + coef_r / np.sinh(r) ** 2 + coef_half / np.sinh(r / 2.0) ** 2

"""Desk-scale numerical verification of Hardy-type inequalities on
Euclidean, real hyperbolic and Damek-Ricci spaces.

The package is organized around a radial density model f(r) per space:
``spaces`` builds models, ``calculus`` holds radial scalars with closed-form
jets and the Gauss-Legendre quadrature, ``weights`` produces (V, W) Hardy
pairs with their ground states, ``green`` evaluates P-Green functions and the
weights they induce, ``spectral`` approximates bottom eigenvalues on balls,
and ``verify`` turns the claimed inequalities into signed numerical gaps.
Every name is imported from its own module.
"""

# the benchmark's set-up probe imports these two names from the package itself
from .spaces import build_density
from .verify import default_suite

__version__ = "0.1.0"

__all__ = ["__version__", "build_density", "default_suite"]

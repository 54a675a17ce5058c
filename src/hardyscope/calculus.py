"""Radial scalars with closed-form jets, radii, the curvature identity, quadrature.

A ``RadialScalar`` is a function of the radius: a value callable and, where
derivatives are needed, a jet callable giving the value and the first two
derivatives as one ``Jet2``.  Weights are values only, and reading their jet
raises.  Ground states and test functions carry jets written in closed form;
the one rule that combines two jets is the product rule.  A radius is a
float or a numpy array, and values are what numpy gives for it, so
evaluation over a whole radius grid is a single vectorised pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import legendre

from .errors import PreconditionError

ArrayLike = float | np.ndarray

_TINY = float(np.finfo(float).tiny)  # the smallest normal double


# ---------------------------------------------------------------------------
# jets and radial scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Value and first two derivatives (f, f', f'') of a radial function."""

    val: ArrayLike
    d1: ArrayLike
    d2: ArrayLike

    def __mul__(self, other: "Jet2") -> "Jet2":
        """The jet of the product, by the product rule to second order."""
        return Jet2(
            self.val * other.val,
            self.d1 * other.val + self.val * other.d1,
            self.d2 * other.val + 2.0 * self.d1 * other.d1 + self.val * other.d2,
        )


class RadialScalar:
    """A function of the radius: a value callable and an optional jet callable.

    Both callables take a float or an array of radii, which ``value`` and
    ``jet`` pass on as given, and return what numpy does: an array for an
    array, a numpy scalar for a scalar.  ``jet`` raises PreconditionError
    when the scalar carries no derivative data.
    """

    __slots__ = ("_value", "_jet")

    def __init__(
        self,
        value: Callable[[ArrayLike], ArrayLike],
        jet: Callable[[ArrayLike], Jet2] | None = None,
    ):
        self._value, self._jet = value, jet

    @staticmethod
    def constant(c: float) -> "RadialScalar":
        c = float(c)
        return RadialScalar(lambda r: np.full(np.shape(r), c) if np.ndim(r) else c)

    @staticmethod
    def from_jet(jet: Callable[[ArrayLike], Jet2]) -> "RadialScalar":
        """The scalar of a jet callable; its value evaluation computes the whole jet."""
        return RadialScalar(lambda r: jet(r).val, jet)

    def value(self, r: ArrayLike) -> ArrayLike:
        return self._value(r)

    def jet(self, r: ArrayLike) -> Jet2:
        if self._jet is None:
            raise PreconditionError("this radial scalar carries no derivative data")
        return self._jet(r)

    def __call__(self, r: ArrayLike) -> ArrayLike:
        return self.value(r)


# ---------------------------------------------------------------------------
# radii and the curvature identity
# ---------------------------------------------------------------------------


def check_radius(r: ArrayLike) -> ArrayLike:
    """The radii as a float array, 0-d for a scalar.

    Raises PreconditionError unless every radius is finite and at least the
    smallest normal double, so NaN, infinity and subnormal radii, whose
    reciprocals overflow, are refused too.
    """
    arr = np.asarray(r, dtype=float)
    if not np.all((arr >= _TINY) & np.isfinite(arr)):
        raise PreconditionError(f"radius must be finite and at least {_TINY:.17g}")
    return arr


def hilfe_coefficients(c: float, b: float, p: int, q: int) -> tuple[float, float, float]:
    """Coefficients of c (f'/f)^2 - b (f'/f)' for f = 2^p sinh(r/2)^p sinh(r)^q.

    The form collapses to 4 c lambda0 + q (q c + b) / sinh(r)^2
    + p (c (p+2q) + b) / (4 sinh(r/2)^2) with lambda0 = (p+2q)^2 / 16 (p = 0
    is hyperbolic space); returns the coefficients of 1, 1/sinh(r)^2 and
    1/sinh(r/2)^2.
    """
    lam0 = (p + 2.0 * q) ** 2 / 16.0
    return 4.0 * c * lam0, q * (q * c + b), p * (c * (p + 2.0 * q) + b) / 4.0


# ---------------------------------------------------------------------------
# composite Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

#: nodes per panel of every composite rule in the package
_GL_ORDER = 20
_GL_X, _GL_W = legendre.leggauss(_GL_ORDER)
# columns: the Gauss-Legendre weights, then the two null rules mapping node
# values to the highest discrete Legendre coefficients of the interpolant,
# (2k+1)/2 * sum_i w_i P_k(x_i) f(x_i) for k = _GL_ORDER-2, _GL_ORDER-1
_GL_NULL = legendre.legvander(_GL_X, _GL_ORDER - 1)[:, -2:] * (np.arange(_GL_ORDER - 2, _GL_ORDER) + 0.5)
_GL_RULES = np.column_stack([_GL_W, _GL_NULL * _GL_W[:, None]])
# node values -> Legendre coefficients of the antiderivative B of the panel's
# interpolant with B(1) = 0, negated: sum_j c_j P_j(y) is its integral from y
# to 1.  einsum, not @: a BLAS product at import would set up BLAS buffers
# (about 0.35 MB of resident memory) in processes that never use them
_GL_TAIL = np.einsum(
    "ij,jk->ik",
    -legendre.legint(np.eye(_GL_ORDER), lbnd=1, axis=0),
    (legendre.legvander(_GL_X, _GL_ORDER - 1) * _GL_W[:, None]).T * (np.arange(_GL_ORDER) + 0.5)[:, None],
)
_EPS = float(np.finfo(float).eps)
#: antiderivative coefficients below this share of their panel's sum are rounding
_CHOP = 8.0 * _EPS


#: panels per integrand call; bounds the node arrays of a many-segment rule
_GL_BLOCK = 4096


class PanelPlan:
    """Composite Gauss-Legendre panels over the segments [a_k, b_k].

    ``a`` and ``b`` are floats or matching arrays of segments.  Each segment
    is cut into equal panels no wider than ``width`` (at least ``min_panels``
    of them, a number or one per segment), each carrying the 20 nodes of the
    Gauss-Legendre rule.  The plan is built once; ``nodes`` gives the nodes
    and ``reduce`` turns values of any number of integrands on them into
    per-segment integrals, so integrands that share a domain share the nodes
    too.  ``join`` regroups runs of segments into single segments on the same
    panels, so several domains can share one grid.

    Alongside each integral ``reduce`` returns an error estimate from a null
    rule on the same nodes (Berntsen and Espelid): half the panel width times
    the size of the two highest discrete Legendre coefficients of each
    panel's interpolant, summed over panels.  It costs no extra evaluation,
    overestimates the error wherever those coefficients decay, and sits at
    the rounding level of the node values once the integrand is resolved.
    """

    def __init__(self, a: ArrayLike, b: ArrayLike, width: float, min_panels: int = 1):
        lo = np.atleast_1d(np.asarray(a, dtype=float))
        hi = np.atleast_1d(np.asarray(b, dtype=float))
        if not np.all(hi > lo):
            raise PreconditionError("integration interval is empty")
        counts = np.maximum(min_panels, np.ceil((hi - lo) / width)).astype(np.int64)
        starts = np.cumsum(counts) - counts
        seg = np.repeat(np.arange(lo.size), counts)
        k = np.arange(seg.size) - starts[seg]
        # edges k*step + a, bit for bit np.linspace(a, b, panels + 1) of each
        # segment, with the last edge at exactly b
        step = ((hi - lo) / counts)[seg]
        left = k * step + lo[seg]
        right = (k + 1) * step + lo[seg]
        right[starts + counts - 1] = hi
        self._set_panels(left, right, counts)

    def _set_panels(self, left: np.ndarray, right: np.ndarray, counts: np.ndarray) -> None:
        # panels by their edges, in order, counts[k] of them in segment k
        self._left, self._right = left, right
        self._starts = np.cumsum(counts) - counts
        self._seg = np.repeat(np.arange(counts.size), counts)
        self._halfs = 0.5 * (right - left)
        self._centers = 0.5 * (left + right)

    def join(self, first, stop) -> tuple["PanelPlan", np.ndarray]:
        """The plan whose segment k is this plan's segments first[k] to stop[k] - 1.

        Segments are picked by index, so the joined segment k spans exactly
        from the left end of segment first[k] to the right end of segment
        stop[k] - 1.  The panels, and so the nodes, are this plan's bit for
        bit; the second array gives each node's index among ``nodes()``.
        """
        bounds = np.append(self._starts, self._seg.size)
        begin = bounds[np.asarray(first)]
        counts = bounds[np.asarray(stop)] - begin
        if not np.all(counts > 0):
            raise PreconditionError("integration interval is empty")
        panels = np.arange(counts.sum()) + np.repeat(begin - (np.cumsum(counts) - counts), counts)
        plan = PanelPlan.__new__(PanelPlan)
        plan._set_panels(self._left[panels], self._right[panels], counts)
        return plan, (panels[:, None] * _GL_ORDER + np.arange(_GL_ORDER)).ravel()

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each segment's first left and last right panel edge."""
        last = np.append(self._starts[1:], self._seg.size) - 1
        return self._left[self._starts], self._right[last]

    def nodes(self, panels: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Nodes of the given panels, flat and in order, and each node's segment index."""
        nodes = self._centers[panels, None] + self._halfs[panels, None] * _GL_X[None, :]
        return nodes.ravel(), np.repeat(self._seg[panels], _GL_ORDER)

    def reduce(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment integrals and error estimates from the values at all nodes."""
        return self._reduce(_panel_rules(values))

    def integrate(self, fn: Callable) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment integrals and error estimates of fn(nodes, segment index).

        fn is called in blocks of whole panels, which bounds the size of the
        node arrays however many segments the plan holds.
        """
        return self._reduce(self._evaluate(fn)[0])

    def integrate_from(self, fn: Callable, x: np.ndarray, k: np.ndarray):
        """``integrate``, plus the integrals of fn from each x_i to the end of segment k_i.

        Each x_i must lie in the first panel of its segment k_i, and k must
        not decrease.  Past that panel the integral is the sum of the
        segment's later panels; inside it, it is read off the Legendre
        antiderivative of the panel's 20-node interpolant, a fixed 21 x 20
        matrix applied to the node values and evaluated at x_i by Clenshaw's
        recurrence, so fn is called on the same nodes as by ``integrate``.
        The error estimate of that part is the panel's null-rule estimate
        plus the rounding of the evaluation, 20 eps times the half-width
        times the sum of the coefficients' sizes, plus the sizes of the
        rounding-level degrees the recurrence skips.

        Returns the per-segment integrals and error estimates, then the
        integrals from the points and their error estimates.
        """
        # the segments holding points (k is nondecreasing), and each point's
        # row among them
        new = np.empty(k.size, dtype=bool)
        new[:1] = True
        np.not_equal(k[1:], k[:-1], out=new[1:])
        panels = self._starts[k[new]]
        row = np.cumsum(new) - 1
        sums, first = self._evaluate(fn, panels)
        value, error = self._reduce(sums)
        coef = _GL_TAIL @ first.T
        size = np.abs(coef)
        total = size.sum(axis=0)
        # the recurrence stops at the last degree some panel needs above the
        # rounding of its coefficients; the dropped ones join the estimate
        needed = np.flatnonzero((size > _CHOP * total).any(axis=1))
        top = max(needed[-1] + 1 if needed.size else 0, 2)
        half = self._halfs[panels]
        own = half * (np.abs(sums[panels, 1:]).sum(axis=1) + 20.0 * _EPS * total + size[top:].sum(axis=0))
        # the segments' later panels
        sums[self._starts] = 0.0
        later_value, later_error = self._reduce(sums)
        y = (x - self._centers[panels][row]) / half[row]
        part = later_value[k] + half[row] * _legendre_sum(coef[:top], row, y)
        return value, error, part, later_error[k] + own[row]

    def _evaluate(self, fn: Callable, keep: np.ndarray | None = None):
        # per panel the rule sums; with ``keep`` (increasing panel indices)
        # also the node values of those panels, one row each
        sums = np.empty((self._seg.size, _GL_RULES.shape[1]))
        kept = None if keep is None else np.empty((keep.size, _GL_ORDER))
        for start in range(0, self._seg.size, _GL_BLOCK):
            block = slice(start, start + _GL_BLOCK)
            values = np.asarray(fn(*self.nodes(block)), dtype=float).reshape(-1, _GL_ORDER)
            sums[block] = _panel_rules(values)
            if keep is not None:
                i, j = np.searchsorted(keep, (start, start + _GL_BLOCK))
                kept[i:j] = values[keep[i:j] - start]
        return sums, kept

    def _reduce(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        value = np.add.reduceat(sums[:, 0] * self._halfs, self._starts)
        error = np.add.reduceat(np.abs(sums[:, 1:]).sum(axis=1) * self._halfs, self._starts)
        return value, error


def _legendre_sum(coef: np.ndarray, k: np.ndarray, y: np.ndarray) -> np.ndarray:
    # sum_j coef[j, k_i] P_j(y_i) by Clenshaw's recurrence for
    # P_(j+1) = ((2j+1) y P_j - j P_(j-1)) / (j+1), one point-sized array per degree
    b1, b2 = coef[-1][k], 0.0
    for j in range(coef.shape[0] - 2, 0, -1):
        b1, b2 = coef[j][k] + (2 * j + 1) / (j + 1) * y * b1 - (j + 1) / (j + 2) * b2, b1
    return coef[0][k] + y * b1 - 0.5 * b2


def _panel_rules(values) -> np.ndarray:
    # per panel: the Gauss-Legendre sum and both null rules, on [-1, 1]
    return np.asarray(values, dtype=float).reshape(-1, _GL_ORDER) @ _GL_RULES


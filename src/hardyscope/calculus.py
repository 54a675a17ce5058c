"""Forward-mode second-order jets, radial differential operators, quadrature.

Every radial quantity in this package enters computations through its value
and first two derivatives.  Instead of symbolic trees we push (value, d1, d2)
triples through arithmetic with the chain rule, so derivatives of composite
expressions stay exact to rounding.  Jet components may be floats or numpy
arrays of matching shape; all primitives are numpy ufuncs, so evaluation over
a whole radius grid is a single vectorised pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import legendre

from .errors import DomainError

ArrayLike = float | np.ndarray


# ---------------------------------------------------------------------------
# second-order jets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Truncated Taylor data (f, f', f'') of a scalar function at a point."""

    val: ArrayLike
    d1: ArrayLike
    d2: ArrayLike

    @staticmethod
    def variable(r: ArrayLike) -> "Jet2":
        """Jet of the identity map at ``r``: value r, slope one, no curvature."""
        r = np.asarray(r, dtype=float)
        if r.ndim == 0:
            return Jet2(float(r), 1.0, 0.0)
        return Jet2(r, np.ones_like(r), np.zeros_like(r))

    @staticmethod
    def constant(c: ArrayLike) -> "Jet2":
        c = np.asarray(c, dtype=float)
        if c.ndim == 0:
            return Jet2(float(c), 0.0, 0.0)
        return Jet2(c, np.zeros_like(c), np.zeros_like(c))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _as_jet(other)
        return Jet2(self.val + other.val, self.d1 + other.d1, self.d2 + other.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.d1, -self.d2)

    def __sub__(self, other):
        other = _as_jet(other)
        return Jet2(self.val - other.val, self.d1 - other.d1, self.d2 - other.d2)

    def __rsub__(self, other):
        return _as_jet(other).__sub__(self)

    def __mul__(self, other):
        other = _as_jet(other)
        return Jet2(
            self.val * other.val,
            self.d1 * other.val + self.val * other.d1,
            self.d2 * other.val + 2.0 * self.d1 * other.d1 + self.val * other.d2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_jet(other)
        q = self.val / other.val
        q1 = (self.d1 - q * other.d1) / other.val
        q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / other.val
        return Jet2(q, q1, q2)

    def __rtruediv__(self, other):
        return _as_jet(other).__truediv__(self)

    def __pow__(self, c: float):
        """Real power with constant exponent; the base must stay positive.

        Derivatives are assembled from the logarithmic ratios d1/val and
        d2/val rather than v**(c-1) and v**(c-2): when v is astronomically
        large or small those intermediate powers over/underflow even though
        the jet of v**c itself is perfectly representable.
        """
        c = float(c)
        v, d1, d2 = self.val, self.d1, self.d2
        val = v**c
        t = d1 / v
        return Jet2(val, val * (c * t), val * (c * d2 / v + c * (c - 1.0) * t * t))

    # -- elementary functions -------------------------------------------------

    def exp(self):
        e = np.exp(self.val)
        return Jet2(e, e * self.d1, e * (self.d2 + self.d1 * self.d1))

    def log(self):
        u = self.d1 / self.val
        return Jet2(np.log(self.val), u, self.d2 / self.val - u * u)

    def sqrt(self):
        s = np.sqrt(self.val)
        return Jet2(s, self.d1 / (2.0 * s), self.d2 / (2.0 * s) - self.d1 * self.d1 / (4.0 * s * self.val))

    def sinh(self):
        sh, ch = np.sinh(self.val), np.cosh(self.val)
        return Jet2(sh, ch * self.d1, ch * self.d2 + sh * self.d1 * self.d1)

    def cosh(self):
        sh, ch = np.sinh(self.val), np.cosh(self.val)
        return Jet2(ch, sh * self.d1, sh * self.d2 + ch * self.d1 * self.d1)


def _as_jet(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    return Jet2.constant(x)


def jet_where(mask: np.ndarray, a: Jet2, b: Jet2) -> Jet2:
    """Elementwise selection between two jets.

    Both branches are evaluated in full before selection, so callers should
    silence spurious overflow warnings from the discarded branch themselves.
    """
    return Jet2(np.where(mask, a.val, b.val), _where(mask, a.d1, b.d1), _where(mask, a.d2, b.d2))


def _where(mask, a, b):
    if a is _MISSING or b is _MISSING:
        return _MISSING
    return np.where(mask, a, b)


# ---------------------------------------------------------------------------
# radial scalars
# ---------------------------------------------------------------------------


class RadialScalar:
    """A function of the radius carrying exact first and second derivatives.

    Internally this is just a map from jets to jets, which makes the objects
    closed under arithmetic: sums, products, quotients, and powers of radial
    scalars are again radial scalars with correct derivatives.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[Jet2], Jet2]):
        self._fn = fn

    @staticmethod
    def from_values(
        value: Callable[[ArrayLike], ArrayLike],
        d1: Callable[[ArrayLike], ArrayLike],
        d2: Callable[[ArrayLike], ArrayLike],
    ) -> "RadialScalar":
        """Build from closed-form value and derivative callables.

        The chain rule is applied when the result is evaluated on a non-trivial
        jet, so scalars built this way compose like any other.
        """

        def fn(x: Jet2) -> Jet2:
            v = value(x.val)
            if x.d1 is _MISSING:
                return Jet2(v, _MISSING, _MISSING)
            g1 = d1(x.val)
            g2 = d2(x.val)
            return Jet2(v, g1 * x.d1, g2 * x.d1 * x.d1 + g1 * x.d2)

        return RadialScalar(fn)

    @staticmethod
    def from_value_only(value: Callable[[ArrayLike], ArrayLike]) -> "RadialScalar":
        """Build from a value callable with no derivative information.

        Arithmetic on the result still works for value evaluation; asking for
        d1 or d2 raises a DomainError.
        """

        def fn(x: Jet2) -> Jet2:
            return Jet2(value(x.val), _MISSING, _MISSING)

        return RadialScalar(fn)

    @staticmethod
    def constant(c: float) -> "RadialScalar":
        return _as_radial(c)

    def jet(self, r: ArrayLike) -> Jet2:
        return self._fn(Jet2.variable(r))

    def apply(self, x: Jet2) -> Jet2:
        """Evaluate on an arbitrary jet (for composing scalars by hand)."""
        return self._fn(x)

    def value(self, r: ArrayLike) -> ArrayLike:
        # no derivative slot feeds a value slot, so the placeholders give the
        # value of the full jet without computing any derivative
        r = np.asarray(r, dtype=float)
        return self._fn(Jet2(float(r) if r.ndim == 0 else r, _MISSING, _MISSING)).val

    def d1(self, r: ArrayLike) -> ArrayLike:
        out = self._fn(Jet2.variable(r)).d1
        if isinstance(out, _Missing):
            raise DomainError("this radial scalar carries no derivative data")
        return out

    def d2(self, r: ArrayLike) -> ArrayLike:
        out = self._fn(Jet2.variable(r)).d2
        if isinstance(out, _Missing):
            raise DomainError("this radial scalar carries no derivative data")
        return out

    def __call__(self, r: ArrayLike) -> ArrayLike:
        return self.value(r)

    # arithmetic between radial scalars (or with plain numbers)

    def __add__(self, other):
        other = _as_radial(other)
        return RadialScalar(lambda x: self._fn(x) + other._fn(x))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_radial(other)
        return RadialScalar(lambda x: self._fn(x) - other._fn(x))

    def __rsub__(self, other):
        other = _as_radial(other)
        return RadialScalar(lambda x: other._fn(x) - self._fn(x))

    def __mul__(self, other):
        other = _as_radial(other)
        return RadialScalar(lambda x: self._fn(x) * other._fn(x))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_radial(other)
        return RadialScalar(lambda x: self._fn(x) / other._fn(x))

    def __rtruediv__(self, other):
        other = _as_radial(other)
        return RadialScalar(lambda x: other._fn(x) / self._fn(x))

    def __pow__(self, c: float):
        return RadialScalar(lambda x: self._fn(x) ** c)

    def __neg__(self):
        return RadialScalar(lambda x: -self._fn(x))

    def exp(self):
        return RadialScalar(lambda x: self._fn(x).exp())

    def log(self):
        return RadialScalar(lambda x: self._fn(x).log())

    def sqrt(self):
        return RadialScalar(lambda x: self._fn(x).sqrt())

    def sinh(self):
        return RadialScalar(lambda x: self._fn(x).sinh())

    def cosh(self):
        return RadialScalar(lambda x: self._fn(x).cosh())


class _Missing:
    """Absorbing placeholder for derivative slots that are unavailable or unwanted.

    Any arithmetic involving the placeholder yields the placeholder again, so
    value-only scalars survive composition; only an actual d1/d2 read fails.
    """

    __slots__ = ()

    # keep numpy from broadcasting over the placeholder; binary ops then fall
    # back to the reflected dunder below
    __array_ufunc__ = None

    def _absorb(self, *_a, **_k):
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = _absorb
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _absorb
    __pow__ = __rpow__ = __neg__ = _absorb


_MISSING = _Missing()


def _as_radial(x) -> RadialScalar:
    if isinstance(x, RadialScalar):
        return x
    c = float(x)
    return RadialScalar(lambda jet: Jet2.constant(np.broadcast_to(c, np.shape(jet.val)) if np.ndim(jet.val) else c))


def radius() -> RadialScalar:
    """The coordinate function r itself."""
    return RadialScalar(lambda x: x)


# ---------------------------------------------------------------------------
# radial differential operators
# ---------------------------------------------------------------------------


def check_radius(r: ArrayLike) -> ArrayLike:
    """The radii as a float (given a scalar) or an array.

    Raises DomainError unless every radius is positive and finite, so NaN and
    infinity are refused too.
    """
    arr = np.asarray(r, dtype=float)
    if not np.all((arr > 0.0) & np.isfinite(arr)):
        raise DomainError("radius must be positive and finite")
    return float(arr) if arr.ndim == 0 else arr


def laplacian_radial(u: RadialScalar, model, r: ArrayLike) -> ArrayLike:
    """Laplace-Beltrami operator on a radial function: u'' + (f'/f) u'."""
    r = check_radius(r)
    j = u.jet(r)
    return j.d2 + model.log_df(r) * j.d1


def p_laplacian_radial(u: RadialScalar, model, P: float, r: ArrayLike) -> ArrayLike:
    """P-Laplacian of a radial function.

    Computed as |u'|^(P-2) * ((P-1) u'' + (f'/f) u'), valid wherever u' is
    nonzero (and everywhere for P >= 2).
    """
    P = float(P)
    if P <= 1.0:
        raise DomainError("p_laplacian_radial requires P > 1")
    r = check_radius(r)
    j = u.jet(r)
    du = j.d1
    core = (P - 1.0) * j.d2 + model.log_df(r) * du
    if P == 2.0:
        return core
    return np.abs(du) ** (P - 2.0) * core


def power_product_coefficient(alpha: float, beta: float, model, r: ArrayLike) -> ArrayLike:
    """Coefficient c(r) with Delta(r^alpha f^beta) = c(r) * r^alpha f^beta.

    Expanding the product rule gives four groups:
    alpha(alpha-1)/r^2 + alpha(2 beta + 1)(f'/f)/r + beta f''/f + beta^2 (f'/f)^2.
    """
    r = check_radius(r)
    L = model.log_df(r)
    return (
        alpha * (alpha - 1.0) / r**2
        + alpha * (2.0 * beta + 1.0) * L / r
        + beta * model.d2f_over_f(r)
        + beta**2 * L**2
    )


def hilfe_rhs(a: float, b: float, p: int, q: int, r: ArrayLike) -> ArrayLike:
    """Collapsed closed form of a (f'/f)^2 - b f''/f for the two-parameter density.

    For f(r) = 2^(p+q) sinh(r/2)^(p+q) cosh(r/2)^q the combination collapses to
    a constant plus two inverse-sinh-square terms:

        4 (a-b) lambda0 + q (q (a-b) + b) / sinh(r)^2
                        + p ((a-b)(p+2q) + b) / (4 sinh(r/2)^2)

    with lambda0 = (p+2q)^2 / 16.
    """
    r = check_radius(r)
    lam0 = (p + 2.0 * q) ** 2 / 16.0
    ab = a - b
    return (
        4.0 * ab * lam0
        + q * (q * ab + b) / np.sinh(r) ** 2
        + p * (ab * (p + 2.0 * q) + b) / (4.0 * np.sinh(r / 2.0) ** 2)
    )


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
    of them), each carrying the 20 nodes of the Gauss-Legendre rule.  The
    plan is built once; ``nodes`` gives the nodes and ``reduce`` turns values
    of any number of integrands on them into per-segment integrals, so
    integrands that share a domain share the nodes too.

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
            raise DomainError("integration interval is empty")
        counts = np.maximum(min_panels, np.ceil((hi - lo) / width).astype(np.int64))
        self._starts = np.cumsum(counts) - counts
        self._seg = np.repeat(np.arange(lo.size), counts)
        k = np.arange(self._seg.size) - self._starts[self._seg]
        # edges k*step + a, bit for bit np.linspace(a, b, panels + 1) of each
        # segment, with the last edge at exactly b
        step = ((hi - lo) / counts)[self._seg]
        left = k * step + lo[self._seg]
        right = (k + 1) * step + lo[self._seg]
        right[self._starts + counts - 1] = hi
        self._halfs = 0.5 * (right - left)
        self._centers = 0.5 * (left + right)

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


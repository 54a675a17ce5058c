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


def _require_positive_radius(r: ArrayLike) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):
        raise DomainError("radius values must be strictly positive")
    return r


def laplacian_radial(u: RadialScalar, model, r: ArrayLike) -> ArrayLike:
    """Laplace-Beltrami operator on a radial function: u'' + (f'/f) u'."""
    r = _require_positive_radius(r)
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
    r = _require_positive_radius(r)
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
    r = _require_positive_radius(r)
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
    r = _require_positive_radius(r)
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
        sums = np.empty((self._seg.size, _GL_RULES.shape[1]))
        for first in range(0, self._seg.size, _GL_BLOCK):
            block = slice(first, first + _GL_BLOCK)
            sums[block] = _panel_rules(fn(*self.nodes(block)))
        return self._reduce(sums)

    def _reduce(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        value = np.add.reduceat(sums[:, 0] * self._halfs, self._starts)
        error = np.add.reduceat(np.abs(sums[:, 1:]).sum(axis=1) * self._halfs, self._starts)
        return value, error


def _panel_rules(values) -> np.ndarray:
    # per panel: the Gauss-Legendre sum and both null rules, on [-1, 1]
    return np.asarray(values, dtype=float).reshape(-1, _GL_ORDER) @ _GL_RULES


def composite_gl(fn: Callable, a: ArrayLike, b: ArrayLike, width: float, min_panels: int = 1):
    """Integrals of fn over the segments [a_k, b_k] and estimates of their errors.

    ``a`` and ``b`` are floats, giving floats, or matching arrays of
    segments, giving arrays.  fn must accept arrays: it is called on the
    nodes of every segment at once, in blocks of whole panels.  Panels and
    error estimate are those of ``PanelPlan``.
    """
    value, error = PanelPlan(a, b, width, min_panels).integrate(lambda t, _segment: fn(t))
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(value[0]), float(error[0])
    return value, error

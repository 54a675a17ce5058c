"""Numerical checks that the shipped weight pairs do what they claim.

Every check reduces an inequality or identity to quadrature against a suite
of compactly supported test functions, or to a pointwise residual on a grid.
Checks return signed gaps (nonnegative means the inequality holds) together
with the raw sides, so a failure report shows the actual numbers instead of
a bare boolean.

Quadrature: the suite lays one grid of 20-point Gauss-Legendre panels over
all its members (``SuitePlan``).  Its breakpoints are the members' distinct
support ends, each interval between two is cut into equal panels no wider
than 0.25 (narrower where f grows fast, see ``SuiteDensity``), and every
member spans at least 8 of them; on the default suite that is 2,860 nodes.
Functions of the space and of a pair are evaluated once on those shared
nodes: the density once per space (``SuiteDensity``), and per pair the
measure and the weights in one call each (the Green weight in one engine
batch).  Each member's value and first two derivatives live on its own
panels of the grid only (32,720 entries on the default suite), computed
there alone: the bumps of all 20 members in one call, the two Gaussians'
factors multiplied in after; one reduction per side then gives that side
for every member, with its null-rule estimate.  The parts of a form that
do not depend on the pair are computed once per space and order P.
``rayleigh_gap``, ``p_rayleigh_gap``, ``uncertainty_gap`` and
``rellich_gap`` take a ``SuiteDensity`` and return their sides as
``PanelPlan.reduce`` gives them, (integrals, null-rule estimates) array
pairs with one entry per member; the report runner's check families
(generators of finished check groups) call them by these names and build
each family's rows from those arrays in one pass.  The null-criticality
mass is taken on the same rule, in log r (0.25-wide panels), and is
certified by its null-rule estimate: above 1e-10 relative, plus the
rounding of its exponent where |log f| is large, it raises
QuadratureError instead of returning a number (certified on hyperbolic
and flat spaces through n = 5000).

The density shift: member m's share of f is exp(log f - c_m), with c_m =
max(0, log f(b_m) - 600) at its right support end b_m (f increases), so
e^100 is left to the other factors where f overflows (hyperbolic:30 past
r = 25).  Both sides of m's checks carry exp(-c_m); no verdict depends on
it, as gaps are judged against 1e-8 (|lhs| + |rhs|) and the uncertainty
ratio cancels it.  A scaled member's reports name c_m as ``log_scale`` in
their params (none on the catalog).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache, cached_property
from types import ModuleType

import numpy as np

from . import green as green_mod
from . import weights
from .calculus import _TINY, Jet2, PanelPlan, RadialScalar, check_radius, exp_rounding
from .errors import PreconditionError, QuadratureError
from .spaces import DEFAULT_CATALOG, DensityModel, build_density, default_grid
from .weights import WeightPair, _require_dr, hpw_g, weight_theorem_b

__all__ = [
    "SuiteMember",
    "SuitePlan",
    "TestFunctionSuite",
    "SuiteDensity",
    "default_suite",
    "rayleigh_gap",
    "p_rayleigh_gap",
    "ode_residual",
    "null_criticality_mass",
    "uncertainty_gap",
    "rellich_gap",
    "asymptotics_fit",
    "VerificationReport",
    "FAMILIES",
    "PairRow",
    "PAIRS",
    "run_verification",
]


# ---------------------------------------------------------------------------
# test function suite
# ---------------------------------------------------------------------------

#: panel width and minimum panel count of the integral checks
_PANEL_WIDTH = 0.25
_MIN_PANELS = 8
#: largest rise of log f across one panel of a density's plan (see ``SuiteDensity``)
_LOG_F_RISE = 50.0


@dataclass(frozen=True)
class SuiteMember:
    """Compactly supported radial test function with exact derivatives."""

    name: str
    scalar: RadialScalar
    support: tuple[float, float]


@dataclass(frozen=True)
class SuitePlan:
    """The suite's quadrature: one panel grid shared by every member.

    The grid's breakpoints are the members' sorted distinct support ends; each
    interval between two is cut into equal panels no wider than the plan's
    width (0.25 on the suite's own plan), with more where a member would
    otherwise span fewer than 8.  ``nodes`` are the grid's nodes, where
    functions of the space and of a pair are evaluated once.  ``panels`` holds
    each member's panels of the grid as one segment, in member order, chosen
    by breakpoint index so each member's panels tile its support exactly; its
    ``reduce`` gives every member's integral and null-rule estimate.  On the
    nodes of ``panels``, ``index`` gives each node's place in ``nodes`` and
    ``segment`` its member, and ``val``, ``d1`` and ``d2`` the member's value
    and first two derivatives.
    """

    nodes: np.ndarray
    panels: PanelPlan
    index: np.ndarray
    segment: np.ndarray
    val: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


@dataclass(frozen=True)
class TestFunctionSuite:
    members: tuple[SuiteMember, ...]

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def plan(self) -> SuitePlan:
        """The plan on panels no wider than 0.25, built on first use and kept
        with the suite."""
        return _suite_plan(self.members, _PANEL_WIDTH)


def _suite_plan(members, width: float) -> SuitePlan:
    ends, where = np.unique([m.support for m in members], return_inverse=True)
    first, stop = where.reshape(-1, 2).T
    # a member spanning fewer than _MIN_PANELS panels gets them spread
    # over its intervals in proportion to their lengths
    length = np.diff(ends)
    spanned = np.append(0.0, np.cumsum(np.ceil(length / width)))
    mins = np.ones(length.size)
    for i, j in zip(first, stop):
        if spanned[j] - spanned[i] < _MIN_PANELS:
            mins[i:j] = np.maximum(mins[i:j], np.ceil(_MIN_PANELS * length[i:j] / (ends[j] - ends[i])))
    grid = PanelPlan(ends[:-1], ends[1:], width, mins)
    panels, index = grid.join(first, stop)
    r, segment = panels.nodes()
    return SuitePlan(grid.nodes()[0], panels, index, segment, *_member_jets(members, r, segment))


def _member_jets(members, r: np.ndarray, segment: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # value, d1 and d2 of each member on its own slice of r (segment is
    # nondecreasing): one bump call, mid and k1 repeated over each member's
    # nodes (0 if no bump), then Gaussian factors and other members' own jets
    bounds = np.searchsorted(segment, np.arange(len(members) + 1))
    bumps = [(m.scalar.mid, m.scalar.k1) if isinstance(m.scalar, _Bump) else (0.0, 0.0) for m in members]
    mid, k1 = (np.repeat(x, np.diff(bounds)) for x in np.array(bumps).T)
    jet = _bump_jet(r, mid, k1)
    val, d1, d2 = jet.val, jet.d1, jet.d2
    for k, m in enumerate(members):
        own = slice(bounds[k], bounds[k + 1])
        if not isinstance(m.scalar, _Bump):
            jet = m.scalar.jet(r[own])
        elif m.scalar.center is not None:
            jet = m.scalar.factor(r[own]) * Jet2(val[own], d1[own], d2[own])
        else:
            continue
        val[own], d1[own], d2[own] = jet.val, jet.d1, jet.d2
    return val, d1, d2


def _bump_jet(r, mid, k1) -> Jet2:
    """Jet of the smooth bump exp(-1/(1-t^2)), t = (r - mid) k1, zero where
    |t| >= 1; ``mid`` and ``k1`` are floats or arrays matching r, so one call
    covers bumps on any number of supports.  Computed in place, masked only
    where some |t| >= 1."""
    shape = np.shape(r)
    t = np.atleast_1d((np.asarray(r, dtype=float) - mid) * k1)
    outside = ~(np.abs(t) < 1.0)
    masked = outside.any()
    if masked:
        t[outside] = 0.0
    sq = t * t
    inv = 1.0 - sq
    np.divide(1.0, inv, out=inv)
    # the exponent's t-derivatives are du = -2 t inv^2 (in t) and
    # -(6 t^2 + 2) inv^3 (in sq)
    for a in (-2.0, inv, inv):
        t *= a
    sq *= 6.0
    sq += 2.0
    for _ in range(3):
        sq *= inv
    val = np.exp(np.negative(inv, out=inv), out=inv)
    d2 = t * t
    d2 -= sq
    for a in (val, k1, k1):
        d2 *= a
    d1 = np.multiply(t, val, out=t)
    d1 *= k1
    if masked:
        for a in (val, d1, d2):
            a[outside] = 0.0
    return Jet2(val.reshape(shape)[()], d1.reshape(shape)[()], d2.reshape(shape)[()])


class _Bump(RadialScalar):
    """Smooth bump on (lo, hi), zero outside, times exp(-((r - center)/width)^2)
    when a center is given; the suite plan evaluates all its bumps together
    from ``mid`` and ``k1`` and multiplies each Gaussian ``factor`` in after."""

    __slots__ = ("mid", "k1", "center", "width")

    def __init__(self, lo: float, hi: float, center: float | None = None, width: float | None = None):
        self.mid, self.k1, self.center, self.width = 0.5 * (lo + hi), 2.0 / (hi - lo), center, width

        def jet(r):
            bump = _bump_jet(r, self.mid, self.k1)
            return bump if center is None else self.factor(r) * bump

        super().__init__(lambda r: jet(r).val, jet)

    def factor(self, r) -> Jet2:
        """The jet of the Gaussian factor alone."""
        s = (r - self.center) / self.width
        val = np.exp(-(s**2))
        return Jet2(val, val * (-2.0 * (r - self.center) / self.width**2), val * (4.0 * s * s - 2.0) / self.width**2)


@cache
def default_suite() -> TestFunctionSuite:
    """Bumps sliding across the support (0.2, 30) plus two truncated Gaussians.

    The 18 bumps share a common width and move from the left edge to the
    right edge of the support, so the suite probes both the origin side and
    the far side of each weight.  The Gaussians are multiplied by the
    full-width bump so every member is compactly supported.  Built once per
    process, and its plan with it on first use.
    """
    a, b, count = 0.2, 30.0, 18
    members = []
    shift = (b - a) / (2.0 * count)
    for k in range(count):
        lo = a + k * shift
        hi = b - (count - 1 - k) * shift
        members.append(SuiteMember(f"bump_{k:02d}", _Bump(lo, hi), (lo, hi)))
    members.append(SuiteMember("gauss_lo", _Bump(a, b, a + 0.3 * (b - a), 0.2 * (b - a)), (a, b)))
    members.append(SuiteMember("gauss_hi", _Bump(a, b, a + 0.7 * (b - a), 0.15 * (b - a)), (a, b)))
    return TestFunctionSuite(tuple(members))


class SuiteDensity:
    """f of one space on a suite's nodes with the density shift, computed on
    first use: ``plan`` is the suite's grid on panels no wider than
    min(0.25, 50/h), so log f, which rises like h r, rises by at most about
    50 across one (the suite's own plan up to h = 200, the whole catalog);
    ``log_scale`` holds c_m per member, ``values`` the shifted f on the
    members' nodes.  ``form`` keeps the pair-independent parts of the
    energy forms, one set per order P.  Without a suite it reads
    ``default_suite()``, built on first use."""

    def __init__(self, model: DensityModel, suite: TestFunctionSuite | None = None):
        self.model, self._suite = model, suite
        self._forms: dict[float, tuple] = {}

    @property
    def suite(self) -> TestFunctionSuite:
        return default_suite() if self._suite is None else self._suite

    @cached_property
    def log_scale(self) -> np.ndarray:
        ends = np.array([m.support[1] for m in self.suite])
        return np.maximum(0.0, self.model.log_f(ends) - 600.0)

    @cached_property
    def plan(self) -> SuitePlan:
        if self.model.h <= _LOG_F_RISE / _PANEL_WIDTH:
            return self.suite.plan
        return _suite_plan(self.suite.members, _LOG_F_RISE / self.model.h)

    @cached_property
    def values(self) -> np.ndarray:
        plan = self.plan
        # log f once on the shared nodes; each member's shift stays in the
        # exponent, so an f that overflows never meets a factor 0
        return np.exp(self.model.log_f(plan.nodes)[plan.index] - self.log_scale[plan.segment])

    def form(self, P: float) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """|phi'|^P f and |phi|^P f on the members' nodes, and the integrals of
        the first (the energy side of every pair without a measure)."""
        if P not in self._forms:
            plan, f = self.plan, self.values
            energy = np.abs(plan.d1) ** P * f
            self._forms[P] = energy, np.abs(plan.val) ** P * f, plan.panels.reduce(energy)
        return self._forms[P]


# ---------------------------------------------------------------------------
# energy-form gaps
# ---------------------------------------------------------------------------


def _form_sides(density: SuiteDensity, pair: WeightPair, P: float):
    plan = density.plan
    r = plan.nodes
    energy, mass, energy_sides = density.form(P)
    net = (pair.W.value(r) - pair.V.value(r))[plan.index]
    if pair.measure is None:
        return energy_sides, plan.panels.reduce(net * mass)
    mu = pair.measure.value(r)[plan.index]
    return plan.panels.reduce(energy * mu), plan.panels.reduce(net * mass * mu)


def rayleigh_gap(density: SuiteDensity, pair: WeightPair):
    """Energy minus potential mass for the quadratic form of a pair.

    Returns the two sides of
    integral |phi'|^2 f mu  >=  integral (W - V) phi^2 f mu,
    where mu is the pair's reference measure (1 when absent), each as
    (integrals, null-rule estimates), one entry per suite member phi.  A
    nonnegative gap confirms the inequality on that test function.
    """
    return _form_sides(density, pair, 2.0)


def p_rayleigh_gap(density: SuiteDensity, pair: WeightPair):
    """Same as rayleigh_gap but with |phi'|^P against (W - V)|phi|^P, P the pair's order."""
    return _form_sides(density, pair, pair.P)


def _ode_terms(model: DensityModel, pair: WeightPair, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ground state equation's residual divided by Phi^(P-1), and its scale.

    With l = log Phi, the pair's ``log_ground_state``, Phi'/Phi = l' and
    Phi''/Phi = l'' + l'^2, so Phi itself, which leaves the doubles near the
    pole on high dimensions (about r^(-(n-2)/2) on flat space), never forms.
    """
    j = pair.log_ground_state.jet(grid)
    d1, d2 = j.d1, j.d2 + j.d1 * j.d1
    net = pair.V.value(grid) - pair.W.value(grid)
    drift = model.log_df(grid) * d1
    if pair.P == 2.0:
        return -(d2 + drift) + net, np.abs(d2) + np.abs(drift) + np.abs(net) + 1.0 / grid**2 + _TINY
    plap = np.abs(d1) ** (pair.P - 2.0) * ((pair.P - 1.0) * d2 + drift)
    return -plap + net, np.abs(plap) + np.abs(net) + _TINY


def ode_residual(model: DensityModel, pair: WeightPair, grid=None) -> float:
    """Pointwise residual of the ground state equation on a grid.

    For P = 2 the ground state solves -Phi'' - L Phi' + (V - W) Phi = 0
    exactly, so the return value is the maximum relative residual and should
    sit at rounding level.  Its scale includes |Phi|/r^2, the size of the
    terms that cancel inside Phi'' (on euclidean:2 Phi is constant, and its
    d2 is their rounding alone).  For P != 2 the ground state is a supersolution:
    the return value is the signed minimum of the normalized residual
    -Delta_P Phi + (V - W) Phi^(P-1), which must not dip below rounding.
    Residual and scale are both divided through by Phi^(P-1) (``_ode_terms``).
    """
    if pair.log_ground_state is None:
        raise PreconditionError("the pair has no ground state")
    grid = default_grid() if grid is None else np.atleast_1d(check_radius(grid))
    if grid.size == 0:
        raise PreconditionError("residual grid is empty")
    resid, scale = _ode_terms(model, pair, grid)
    if pair.P == 2.0:
        return float(np.max(np.abs(resid) / scale))
    return float(np.min(resid / scale))


# ---------------------------------------------------------------------------
# criticality of the quadratic pair
# ---------------------------------------------------------------------------


#: relative null-rule estimate above which the null mass is not certified
_MASS_RTOL = 1e-10


def _log_rounding(log_f) -> float:
    """8 eps (1 + max |log f|), the relative rounding of the null mass: its
    integrand is exp(2 log Phi + log f), whose two terms cancel."""
    return float(np.max(exp_rounding(log_f)))


def null_criticality_mass(model: DensityModel, eps: float, R: float) -> tuple[float, float]:
    """Integral of Phi^2 W f over [eps, R] for the quadratic pair, and its log R slope.

    Criticality shows up as logarithmic divergence at both ends: the mass
    grows like (1/4) log(R/eps), so the slope against log R is 1/4.  The
    mass over [eps, R] and the slope, the mass over [R, eR], are the two
    segments of one ``PanelPlan`` in u = log r, where the integrand is
    smooth.  Raises QuadratureError when a null-rule estimate exceeds its
    integral times 1e-10 plus the rounding of the exponent 2 log Phi + log f
    (``_log_rounding``); |log f| reaches about 1.4e7 on hyperbolic:5000.
    """
    if not (0.0 < eps < R):
        raise PreconditionError("need 0 < eps < R")
    pair = weight_theorem_b(model)
    u = np.log([eps, R, R * np.e])
    plan = PanelPlan(u[:-1], u[1:], _PANEL_WIDTH, _MIN_PANELS)
    nodes, _ = plan.nodes()
    t = np.exp(nodes)
    # compose in logs: Phi^2 f underflows long before the product Phi^2 W f
    # does, so the exponent must be assembled first
    log_f = model.log_f(t)
    log_mass = 2.0 * pair.log_ground_state.value(t) + log_f + nodes
    integrand = np.exp(log_mass) * pair.W.value(t)
    if not np.isfinite(integrand).all():
        raise QuadratureError("null mass quadrature diverged")
    (mass, slope), (mass_err, slope_err) = plan.reduce(integrand)
    if not (np.isfinite(mass) and np.isfinite(slope)):
        raise QuadratureError("null mass quadrature diverged")
    rtol = _MASS_RTOL + _log_rounding(log_f)
    if mass_err > rtol * abs(mass) or slope_err > rtol * abs(slope):
        raise QuadratureError(f"null mass certified only to {mass_err:.3e} and its slope to {slope_err:.3e}")
    return float(mass), float(slope)


# ---------------------------------------------------------------------------
# uncertainty and second-order forms
# ---------------------------------------------------------------------------


def _moment_weight(density: SuiteDensity) -> np.ndarray:
    # g r^2 on the members' nodes, g the uncertainty weight
    model, r = density.model, density.plan.nodes
    _require_dr(model, "the uncertainty weight")
    return (hpw_g(model.p, model.q, r) * r**2)[density.plan.index]


def uncertainty_gap(density: SuiteDensity):
    """Shifted-energy uncertainty product on a Heisenberg-type space.

    Returns three sides, each as (integrals, null-rule estimates), one entry
    per suite member phi: the energy E = integral phi'^2 f - lambda0
    integral phi^2 f, the weighted moment integral g r^2 phi^2 f, and the
    norm integral phi^2 f.  The product E * moment must dominate
    (1/4) norm^2 (a zero norm is reported as a skip).
    """
    d1_sq, v_sq, _ = density.form(2.0)
    reduce = density.plan.panels.reduce
    return reduce(d1_sq - density.model.lambda0 * v_sq), reduce(_moment_weight(density) * v_sq), reduce(v_sq)


def rellich_gap(density: SuiteDensity):
    """Second-order form against the inverse moment weight.

    Returns the two sides of
    integral g r^2 (Delta phi + lambda0 phi)^2 f
      >= (1/16) integral phi^2 / (g r^2) f
    on a Heisenberg-type space, with g the uncertainty weight, each as
    (integrals, null-rule estimates), one entry per suite member phi.
    """
    model, plan = density.model, density.plan
    weight = _moment_weight(density)
    lap = plan.d2 + model.log_df(plan.nodes)[plan.index] * plan.d1
    lhs = plan.panels.reduce(weight * (lap + model.lambda0 * plan.val) ** 2 * density.values)
    return lhs, plan.panels.reduce(density.form(2.0)[1] / (16.0 * weight))


# ---------------------------------------------------------------------------
# asymptotic slope fits
# ---------------------------------------------------------------------------


def asymptotics_fit(radii, values) -> float:
    """Slope of the least-squares power law through positive, finite samples on a log-log scale.

    Requires at least five samples spanning two decades in radius so a local
    wiggle cannot masquerade as a power law.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.shape != values.shape or radii.size < 5:
        raise PreconditionError("need at least five (radius, value) samples")
    samples = np.concatenate((radii, values))
    if not np.all((samples > 0.0) & (samples < np.inf)):
        raise PreconditionError("samples must be strictly positive and finite for a log-log fit")
    if np.max(radii) / np.min(radii) < 100.0:
        raise PreconditionError("samples must span at least two decades in radius")
    return float(np.polyfit(np.log(radii), np.log(values), 1)[0])


# ---------------------------------------------------------------------------
# report runner
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """One check's outcome.

    Checks that share their work run as one group: the rayleigh checks of a
    pair, the uncertainty and the rellich checks of a space (one per suite
    member) and the four criticality checks of a space.  ``seconds`` is the
    group's time divided by its number of checks; it covers building pairs
    too, all of a space's in its first rayleigh or ode group.
    """

    check_id: str
    space: str
    params: dict = field(default_factory=dict)
    lhs: float = float("nan")
    rhs: float = float("nan")
    gap: float = float("nan")
    tolerance: float = 0.0
    verdict: str = "fail"
    seconds: float = 0.0


@dataclass(frozen=True)
class PairRow:
    """A row of ``PAIRS``: the ``weights eval --theorem`` name (None where the
    command has none), the report label (``{:g}`` takes the value), the
    builder's module and name, looked up at each build so that a wrapper
    installed there is called, its parameter (the command's option and the
    report's params key; None for a builder of the space alone), the values
    the report checks and the tolerance of the pair's ode check."""

    theorem: str | None
    label: str
    module: ModuleType
    builder: str
    param: str | None = None
    values: tuple = (None,)
    ode_tol: float = 1e-10

    def build(self, model: DensityModel, value=None) -> WeightPair:
        build = getattr(self.module, self.builder)
        return build(model) if self.param is None else build(model, value)


#: every weight pair, in report order; the builders decide where a pair applies
PAIRS = (
    PairRow("B", "B", weights, "weight_theorem_b"),
    PairRow("A", "A", weights, "weight_dr_poincare"),
    PairRow("gamma", "gamma", weights, "weight_gamma_family", "gamma", (0.25,), 1e-8),
    PairRow("gamma_dr", "gamma_dr", weights, "weight_gamma_dr", "gamma", (0.25,), 1e-8),
    PairRow("weighted", "weighted[{:g}]", weights, "weight_weighted", "alpha", (0.0, 0.5, 1.0)),
    PairRow("p", "p_dr[{:g}]", weights, "weight_p_dr", "P", (2.0, 3.0, 4.0)),
    PairRow(None, "green[{:g}]", green_mod, "green_weight", "P", (2.0,)),
)


def _pairs_for(model: DensityModel) -> list[tuple[str, dict, WeightPair, PairRow]]:
    """(label, params, pair, row) for each row of ``PAIRS`` and value, in order,
    but a pair whose builder refuses the space (PreconditionError)."""
    out = []
    for row in PAIRS:
        for value in row.values:
            try:
                pair = row.build(model, value)
            except PreconditionError:
                continue
            out.append((row.label.format(value), {} if row.param is None else {row.param: value}, pair, row))
    return out


# Each family is a generator over a space's density that yields one group of
# checks at a time, finished, as (checks, rows): the (check_id, params) of each
# check and its (lhs, rhs, gap, tolerance, verdict) row, in the same order.


def _gap_rows(sides):
    # tol is 1e-8 (|lhs| + |rhs|) per member; a NaN gap fails
    (lhs, _), (rhs, _) = sides
    with np.errstate(invalid="ignore"):
        gap = lhs - rhs
        tol = 1e-8 * (np.abs(lhs) + np.abs(rhs))
        verdicts = np.where(gap >= -tol, "pass", "fail")
    return list(zip(lhs.tolist(), rhs.tolist(), gap.tolist(), tol.tolist(), verdicts.tolist()))


def _member_checks(prefix: str, params: dict, density: SuiteDensity) -> list[tuple[str, dict]]:
    return [
        (f"{prefix}.{m.name}", {**params, "member": m.name, **({"log_scale": c} if c else {})})
        for m, c in zip(density.suite, density.log_scale.tolist())
    ]


def _rayleigh_groups(density: SuiteDensity):
    for label, params, pair, _ in _pairs_for(density.model):
        gaps = rayleigh_gap if pair.P == 2.0 else p_rayleigh_gap
        yield _member_checks(f"rayleigh.{label}", params, density), _gap_rows(gaps(density, pair))


def _ode_groups(density: SuiteDensity):
    model, grid = density.model, default_grid()
    for label, params, pair, row in _pairs_for(model):
        if pair.log_ground_state is None:
            continue
        # the P = 2 residual is a size; the supersolution residual is signed
        resid = ode_residual(model, pair, grid)
        gap = -resid if pair.P == 2.0 else resid
        tol = row.ode_tol
        yield [(f"ode.{label}", dict(params))], [(resid, 0.0, gap, tol, "pass" if gap >= -tol else "fail")]


def _criticality_groups(density: SuiteDensity):
    # the probes: Phi / (Phi |log r|) near 0 and infinity, where the standard
    # candidate for a slower-growing supersolution multiplies Phi by |log r|.
    # Phi cancels, so the ratio is 1/|log r| on every space (within 3e-10 on
    # the catalog, the rounding of log Phi) and these rows cannot fail: they
    # show only that log Phi is finite at the probe radii.  The evidence for
    # criticality is the null mass, which grows like (1/4) log(R/eps).
    model = density.model
    log_gs = weight_theorem_b(model).log_ground_state

    def ratio(r: float) -> float:
        lu = float(log_gs.value(r))
        if not np.isfinite(lu):
            raise QuadratureError(f"ground state log-value not finite at r={r}")
        return float(np.exp(lu - (lu + np.log(abs(np.log(r))))))

    rows = []
    for r1, r2 in ((1e-3, 1e-6), (1e3, 1e6)):
        v1, v2 = ratio(r1), ratio(r2)
        rows.append((v2, v1, v1 - v2, 0.0, "pass" if v2 < v1 < 1.0 else "fail"))
    eps, R = 1e-4, 1e3
    mass, slope = null_criticality_mass(model, eps, R)
    closed_form = float(0.25 * np.log(R / eps))
    # the mass's own rounding, from log f at the ends of [eps, eR] (log f
    # increases), passes 1e-10 from h = 21 on (hyperbolic:22, dr:32,8)
    tol = abs(closed_form) * max(_MASS_RTOL, _log_rounding(model.log_f(np.array([eps, R * np.e]))))
    gap = mass - closed_form
    rows.append((mass, closed_form, gap, tol, "pass" if abs(gap) <= tol else "fail"))
    gap = slope - 0.25
    rows.append((slope, 0.25, gap, 1e-6, "pass" if abs(gap) <= 1e-6 else "fail"))
    names = ("probe_origin", "probe_infinity", "null_mass", "null_mass_slope")
    yield [(f"criticality.{name}", {}) for name in names], rows


def _uncertainty_rows(sides):
    # a zero norm or a ratio that is not finite is a skip, with NaN lhs and gap
    (e, _), (m, _), (n, _) = sides
    with np.errstate(all="ignore"):
        # the norm squared can overflow where each quotient is finite
        ratio = 4.0 * (e / n) * (m / n)
    ratio[~np.isfinite(ratio)] = np.nan
    verdicts = np.select([np.isnan(ratio), ratio >= 1.0 - 1e-8], ["skip", "pass"], "fail")
    return [(x, 1.0, gap, 1e-8, v) for x, gap, v in zip(ratio.tolist(), (ratio - 1.0).tolist(), verdicts.tolist())]


def _heisenberg_type(model: DensityModel) -> bool:
    # the spaces of the uncertainty and rellich families: dr with q not 0 or 2
    return model.kind == "dr" and model.q not in (0, 2)


def _uncertainty_groups(density: SuiteDensity):
    if _heisenberg_type(density.model):
        yield _member_checks("uncertainty", {}, density), _uncertainty_rows(uncertainty_gap(density))


def _rellich_groups(density: SuiteDensity):
    if _heisenberg_type(density.model):
        yield _member_checks("rellich", {}, density), _gap_rows(rellich_gap(density))


def _asymptotics_groups(density: SuiteDensity):
    model = density.model
    if model.kind == "euclidean":
        return
    radii = np.geomspace(1e-4, 1e-2, 15)
    pred = green_mod.asymptotic_prediction(model, 2.0, radii)
    if pred.regime == "P=n":
        # P = n: W approaches |r ln r|^(-P) only like 1/ln^2 r; on
        # hyperbolic:2 the two fitted slopes differ by 0.028 on
        # [1e-4, 1e-2] and by 0.005 on [1e-8, 1e-6]
        radii = np.geomspace(1e-8, 1e-6, 15)
        slope = asymptotics_fit(radii, green_mod.asymptotic_prediction(model, 2.0, radii).value)
    else:
        slope = pred.exponent
    fitted = asymptotics_fit(radii, green_mod.green_weight_batch(model, 2.0, radii)["W"])
    gap = fitted - slope
    verdict = "pass" if abs(gap) <= 0.02 else "fail"
    yield [("asymptotics.green[2]", {"P": 2.0})], [(fitted, slope, gap, 0.02, verdict)]


_FAMILY_GROUPS = {
    "rayleigh": _rayleigh_groups,
    "ode": _ode_groups,
    "criticality": _criticality_groups,
    "uncertainty": _uncertainty_groups,
    "rellich": _rellich_groups,
    "asymptotics": _asymptotics_groups,
}
FAMILIES = tuple(_FAMILY_GROUPS)


def run_verification(
    spaces=None,
    families=None,
    suite: TestFunctionSuite | None = None,
) -> list[VerificationReport]:
    """Run the requested check families and return reports in a fixed order.

    The report order depends only on (spaces, families, suite), so repeated
    runs diff cleanly.  An unknown family or a bad space descriptor is
    refused before any check runs.  Checks that share their work run as one
    group (see ``VerificationReport``).  Without a suite the checks read
    ``default_suite()``, built only if a family reads it.
    """
    spaces = DEFAULT_CATALOG if spaces is None else spaces
    families = list(FAMILIES if families is None else families)
    for family in families:
        if family not in _FAMILY_GROUPS:
            raise PreconditionError(f"unknown verification family: {family!r}")
    # one density per space, shared by its families; all read before any check
    densities = [(space, SuiteDensity(build_density(space), suite)) for space in spaces]
    reports = []
    for space, density in densities:
        for family in families:
            # each group is timed from resuming its generator to its yield
            start = time.perf_counter()
            for checks, rows in _FAMILY_GROUPS[family](density):
                seconds = (time.perf_counter() - start) / len(checks)
                reports += [
                    VerificationReport(check_id, space, params, *row, seconds)
                    for (check_id, params), row in zip(checks, rows, strict=True)
                ]
                start = time.perf_counter()
    return reports

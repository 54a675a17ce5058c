"""Numerical checks that the shipped weight pairs do what they claim.

Every check reduces an inequality or identity to quadrature against a suite
of compactly supported test functions, or to a pointwise residual on a grid.
Checks return signed gaps (nonnegative means the inequality holds) together
with the raw sides, so a failure report shows the actual numbers instead of
a bare boolean.

Quadrature: the suite lays one grid of 20-point Gauss-Legendre panels over
all its members (``SuitePlan``).  Its breakpoints are the members' distinct
support ends, each interval between two is cut into equal panels no wider
than 0.25, and every member spans at least 8 of them; on the default suite
that is 2,860 nodes.  Functions of the space and of a pair are evaluated
once on those shared nodes: the density once per space (``SuiteDensity``),
and per pair the measure and the weights in one call each (the Green weight
in one engine batch).  Each member's value and first two derivatives live on
its own panels of the grid only (32,720 entries on the default suite, the
bumps computed in one pass); one reduction per side then gives that side
for every member, with its null-rule estimate.  The parts of a form that do
not depend on the pair are computed once per space and order P.
``rayleigh_gap``, ``p_rayleigh_gap``, ``uncertainty_gap`` and
``rellich_gap`` take a ``SuiteDensity`` and return one result per member;
the report runner calls them by these names.  The null-criticality
mass is taken on the same rule, in log r, and is certified by its null-rule
estimate: above 1e-10 relative it raises QuadratureError instead of
returning a number.

The density shift: member m's share of f is exp(log f - c_m), with c_m =
max(0, log f(b_m) - 600) at its right support end b_m (f increases), so
e^100 is left to the other factors where f overflows (hyperbolic:30 past
r = 25).  Both sides of m's checks carry exp(-c_m); no verdict depends on
it, as gaps are judged against 1e-8 (|lhs| + |rhs|) and the uncertainty
ratio cancels it.  A scaled member's reports name c_m as ``log_scale`` in
their params (none on the catalog).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import green as green_mod
from .calculus import Jet2, PanelPlan, RadialScalar, check_radius
from .errors import DomainError, PreconditionError, QuadratureError
from .spaces import DEFAULT_CATALOG, DensityModel, build_density, default_grid
from .weights import (
    WeightPair,
    hpw_g,
    weight_dr_poincare,
    weight_gamma_dr,
    weight_gamma_family,
    weight_p_dr,
    weight_theorem_b,
    weight_weighted,
)

__all__ = [
    "SuiteMember",
    "SuitePlan",
    "TestFunctionSuite",
    "SuiteDensity",
    "default_suite",
    "GapResult",
    "rayleigh_gap",
    "p_rayleigh_gap",
    "ode_residual",
    "CriticalityProbe",
    "criticality_probe",
    "NullCriticalityMass",
    "null_criticality_mass",
    "UncertaintyResult",
    "uncertainty_gap",
    "rellich_gap",
    "AsymptoticsFit",
    "asymptotics_fit",
    "VerificationReport",
    "FAMILIES",
    "run_verification",
]


# ---------------------------------------------------------------------------
# test function suite
# ---------------------------------------------------------------------------

#: panel width and minimum panel count of the integral checks
_PANEL_WIDTH = 0.25
_MIN_PANELS = 8


@dataclass(frozen=True)
class SuiteMember:
    """Compactly supported radial test function with exact derivatives."""

    name: str
    scalar: RadialScalar
    support: tuple[float, float]


@dataclass(frozen=True)
class SuitePlan:
    """The suite's quadrature: one panel grid shared by every member.

    The grid's breakpoints are the members' sorted distinct support ends;
    each interval between two is cut into equal panels no wider than 0.25,
    with more where a member would otherwise span fewer than 8.  ``nodes``
    are the grid's nodes, where functions of the space and of a pair are
    evaluated once.  ``panels`` holds each member's panels of the grid as one
    segment, in member order, chosen by breakpoint index so each member's
    panels tile its support exactly; its ``reduce`` gives every member's
    integral and null-rule estimate.  On the nodes of ``panels``, ``index``
    gives each node's place in ``nodes`` and ``segment`` its member, and
    ``val``, ``d1`` and ``d2`` the member's value and first two derivatives.
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

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def plan(self) -> SuitePlan:
        """Built on first use and kept with the suite."""
        ends, where = np.unique([m.support for m in self.members], return_inverse=True)
        first, stop = where.reshape(-1, 2).T
        # a member spanning fewer than _MIN_PANELS panels gets them spread
        # over its intervals in proportion to their lengths
        length = np.diff(ends)
        spanned = np.append(0.0, np.cumsum(np.ceil(length / _PANEL_WIDTH)))
        mins = np.ones(length.size)
        for i, j in zip(first, stop):
            if spanned[j] - spanned[i] < _MIN_PANELS:
                mins[i:j] = np.maximum(mins[i:j], np.ceil(_MIN_PANELS * length[i:j] / (ends[j] - ends[i])))
        grid = PanelPlan(ends[:-1], ends[1:], _PANEL_WIDTH, mins)
        panels, index = grid.join(first, stop)
        r, segment = panels.nodes()
        return SuitePlan(grid.nodes()[0], panels, index, segment, *_member_jets(self.members, r, segment))


def _member_jets(members, r: np.ndarray, segment: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # value, d1 and d2 of each member on its nodes (segment is nondecreasing):
    # one bump pass over all nodes, then every other member overwrites its own
    mid, k1 = np.array([(m.scalar.mid, m.scalar.k1) if isinstance(m.scalar, _Bump) else (0.0, 0.0) for m in members]).T
    j = _bump_jet(r, mid[segment], k1[segment])
    bounds = np.searchsorted(segment, np.arange(len(members) + 1))
    for k, m in enumerate(members):
        if not isinstance(m.scalar, _Bump):
            own = slice(bounds[k], bounds[k + 1])
            mj = m.scalar.jet(r[own])
            j.val[own], j.d1[own], j.d2[own] = mj.val, mj.d1, mj.d2
    return j.val, j.d1, j.d2


def _bump_jet(r, mid, k1) -> Jet2:
    """Jet of the smooth bump exp(-1/(1-t^2)), t = (r - mid) k1, zero where
    |t| >= 1; ``mid`` and ``k1`` are floats or arrays matching r, so one call
    covers bumps on any number of supports."""
    shape = np.shape(r)
    t = np.atleast_1d((np.asarray(r, dtype=float) - mid) * k1)
    outside = ~(np.abs(t) < 1.0)
    t[outside] = 0.0
    sq = t * t
    inv = 1.0 / (1.0 - sq)
    val = np.exp(-inv)
    # the exponent's t-derivatives are du and -(6 t^2 + 2) inv^3
    du = -2.0 * t * inv * inv
    d2 = (du * du - (6.0 * sq + 2.0) * inv * inv * inv) * val * k1 * k1
    d1 = du * val * k1
    for a in (val, d1, d2):
        a[outside] = 0.0
    return Jet2(val.reshape(shape), d1.reshape(shape), d2.reshape(shape))


class _Bump(RadialScalar):
    """Smooth bump on (lo, hi), zero outside; the suite plan evaluates all
    its bumps together from ``mid`` and ``k1``."""

    __slots__ = ("mid", "k1")

    def __init__(self, lo: float, hi: float):
        self.mid, self.k1 = 0.5 * (lo + hi), 2.0 / (hi - lo)

        def jet(r):
            return _bump_jet(r, self.mid, self.k1)

        super().__init__(lambda r: jet(r).val, jet)


def _gaussian_times(center: float, width: float, envelope: _Bump) -> RadialScalar:
    """exp(-((r - center)/width)^2) times the envelope bump."""

    def jet(r):
        s = (r - center) / width
        val = np.exp(-(s**2))
        gauss = Jet2(val, val * (-2.0 * (r - center) / width**2), val * (4.0 * s * s - 2.0) / width**2)
        return gauss * envelope.jet(r)

    return RadialScalar.from_jet(jet)


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
    envelope = _Bump(a, b)
    g1 = _gaussian_times(a + 0.3 * (b - a), 0.2 * (b - a), envelope)
    g2 = _gaussian_times(a + 0.7 * (b - a), 0.15 * (b - a), envelope)
    members.append(SuiteMember("gauss_lo", g1, (a, b)))
    members.append(SuiteMember("gauss_hi", g2, (a, b)))
    return TestFunctionSuite(tuple(members))


class SuiteDensity:
    """f of one space on a suite's nodes with the density shift, computed on
    first use: ``log_scale`` holds c_m per member, ``values`` the shifted f
    on the members' nodes.  ``form`` keeps the pair-independent parts of the
    energy forms, one set per order P."""

    def __init__(self, model: DensityModel, suite: TestFunctionSuite):
        self.model, self.suite = model, suite
        self._forms: dict[float, tuple] = {}

    @cached_property
    def log_scale(self) -> np.ndarray:
        ends = np.array([m.support[1] for m in self.suite])
        return np.maximum(0.0, self.model.log_f(ends) - 600.0)

    @cached_property
    def values(self) -> np.ndarray:
        plan = self.suite.plan
        # log f once on the shared nodes; each member's shift stays in the
        # exponent, so an f that overflows never meets a factor 0
        return np.exp(self.model.log_f(plan.nodes)[plan.index] - self.log_scale[plan.segment])

    def form(self, P: float) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """|phi'|^P f and |phi|^P f on the members' nodes, and the integrals of
        the first (the energy side of every pair without a measure)."""
        if P not in self._forms:
            plan, f = self.suite.plan, self.values
            energy = np.abs(plan.d1) ** P * f
            self._forms[P] = energy, np.abs(plan.val) ** P * f, plan.panels.reduce(energy)
        return self._forms[P]


# ---------------------------------------------------------------------------
# energy-form gaps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapResult:
    """Both sides of an inequality, and the null-rule estimates of the two
    integrals (zero where not computed)."""

    lhs: float
    rhs: float
    errors: tuple[float, float] = (0.0, 0.0)

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs

    @property
    def scale(self) -> float:
        return abs(self.lhs) + abs(self.rhs)


def _gap_results(lhs, rhs) -> list[GapResult]:
    # each side as (integrals, null-rule estimates), one entry per member
    (a, a_err), (b, b_err) = lhs, rhs
    return [GapResult(*sides) for sides in zip(a.tolist(), b.tolist(), zip(a_err.tolist(), b_err.tolist()))]


def _form_gaps(density: SuiteDensity, pair: WeightPair, P: float) -> list[GapResult]:
    plan = density.suite.plan
    r = plan.nodes
    energy, mass, energy_sides = density.form(P)
    net = (np.asarray(pair.W.value(r)) - np.asarray(pair.V.value(r)))[plan.index]
    if pair.measure is None:
        return _gap_results(energy_sides, plan.panels.reduce(net * mass))
    mu = np.asarray(pair.measure.value(r))[plan.index]
    return _gap_results(plan.panels.reduce(energy * mu), plan.panels.reduce(net * mass * mu))


def rayleigh_gap(density: SuiteDensity, pair: WeightPair) -> list[GapResult]:
    """Energy minus potential mass for the quadratic form of a pair.

    Returns, per suite member phi, the two sides of
    integral |phi'|^2 f mu  >=  integral (W - V) phi^2 f mu,
    where mu is the pair's reference measure (1 when absent).  A nonnegative
    gap confirms the inequality on that test function.
    """
    return _form_gaps(density, pair, 2.0)


def p_rayleigh_gap(density: SuiteDensity, pair: WeightPair) -> list[GapResult]:
    """Same as rayleigh_gap but with |phi'|^P against (W - V)|phi|^P, P the pair's order."""
    return _form_gaps(density, pair, pair.P)


def _ode_terms(model: DensityModel, pair: WeightPair, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ground state equation's residual divided by Phi^(P-1), and its scale.

    With l = log Phi, the pair's ``log_ground_state``, Phi'/Phi = l' and
    Phi''/Phi = l'' + l'^2, so Phi itself, which leaves the doubles near the
    pole on high dimensions (about r^(-(n-2)/2) on flat space), never forms.
    """
    j = pair.log_ground_state.jet(grid)
    d1, d2 = j.d1, j.d2 + j.d1 * j.d1
    net = np.asarray(pair.V.value(grid)) - np.asarray(pair.W.value(grid))
    drift = np.asarray(model.log_df(grid)) * d1
    tiny = np.finfo(float).tiny
    if pair.P == 2.0:
        return -(d2 + drift) + net, np.abs(d2) + np.abs(drift) + np.abs(net) + 1.0 / grid**2 + tiny
    plap = np.abs(d1) ** (pair.P - 2.0) * ((pair.P - 1.0) * d2 + drift)
    return -plap + net, np.abs(plap) + np.abs(net) + tiny


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
        raise PreconditionError(f"pair {pair.theorem_id} has no ground state")
    grid = default_grid() if grid is None else np.atleast_1d(check_radius(grid))
    if grid.size == 0:
        raise DomainError("residual grid is empty")
    resid, scale = _ode_terms(model, pair, grid)
    if pair.P == 2.0:
        return float(np.max(np.abs(resid) / scale))
    return float(np.min(resid / scale))


# ---------------------------------------------------------------------------
# criticality of the quadratic pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalityProbe:
    """Ratios Phi / (Phi |log r|) at probe radii near 0 and infinity.

    The ground state ceases to be optimal iff some positive supersolution
    grows strictly slower; the standard candidate multiplies Phi by |log r|.
    Phi cancels in the ratio, which is 1/|log r| on every space (within 3e-10
    on the catalog, the rounding of log Phi), so the ``criticality.probe_*``
    checks cannot fail: they show only that log Phi is finite at the probe
    radii.  The evidence for criticality is the null mass
    (``null_criticality_mass``), which grows like (1/4) log R.
    """

    at_origin: tuple[tuple[float, float], ...]
    at_infinity: tuple[tuple[float, float], ...]


def criticality_probe(model: DensityModel) -> CriticalityProbe:
    pair = weight_theorem_b(model)
    log_gs = pair.log_ground_state

    def ratio(r: float) -> float:
        lu = float(log_gs(r))
        if not np.isfinite(lu):
            raise DomainError(f"ground state log-value not finite at r={r}")
        lv = lu + np.log(abs(np.log(r)))
        return float(np.exp(lu - lv))

    origin = tuple((r, ratio(r)) for r in (1e-3, 1e-6))
    infinity = tuple((r, ratio(r)) for r in (1e3, 1e6))
    return CriticalityProbe(at_origin=origin, at_infinity=infinity)


@dataclass(frozen=True)
class NullCriticalityMass:
    """W-mass of the ground state over [eps, R] plus its log R slope."""

    mass: float
    log_slope: float
    closed_form: float


#: relative null-rule estimate above which the null mass is not certified
_MASS_RTOL = 1e-10


def null_criticality_mass(model: DensityModel, eps: float, R: float) -> NullCriticalityMass:
    """Integral of Phi^2 W f over [eps, R] for the quadratic pair.

    Criticality shows up as logarithmic divergence at both ends: the mass
    grows like (1/4) log(R/eps), so the slope against log R is 1/4.  The
    mass over [eps, R] and the slope, the mass over [R, eR], are the two
    segments of one ``PanelPlan`` in u = log r, where the integrand is
    smooth.  Raises QuadratureError when a null-rule estimate exceeds 1e-10
    of its integral.
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
    log_mass = 2.0 * pair.log_ground_state(t) + model.log_f(t) + nodes
    (mass, slope), (mass_err, slope_err) = plan.reduce(np.exp(log_mass) * pair.W.value(t))
    if not (np.isfinite(mass) and np.isfinite(slope)):
        raise DomainError("null mass quadrature diverged")
    if mass_err > _MASS_RTOL * abs(mass) or slope_err > _MASS_RTOL * abs(slope):
        raise QuadratureError(f"null mass certified only to {mass_err:.3e} and its slope to {slope_err:.3e}")
    return NullCriticalityMass(
        mass=float(mass),
        log_slope=float(slope),
        closed_form=float(0.25 * np.log(R / eps)),
    )


# ---------------------------------------------------------------------------
# uncertainty and second-order forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UncertaintyResult:
    """The three integrals of the uncertainty product and their null-rule
    estimates (zero where not computed)."""

    energy: float
    weighted_moment: float
    norm: float
    errors: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def ratio(self) -> float:
        if self.norm == 0.0:
            return float("nan")
        # the norm squared can overflow where each quotient is finite
        return 4.0 * (self.energy / self.norm) * (self.weighted_moment / self.norm)


def _moment_weight(density: SuiteDensity) -> np.ndarray:
    # g r^2 on the members' nodes, g the uncertainty weight
    model, r = density.model, density.suite.plan.nodes
    if model.kind != "dr":
        raise PreconditionError(f"the uncertainty weight needs a Damek-Ricci space, got {model.descriptor()}")
    return (hpw_g(model.p, model.q, r) * r**2)[density.suite.plan.index]


def uncertainty_gap(density: SuiteDensity) -> list[UncertaintyResult]:
    """Shifted-energy uncertainty product on a Heisenberg-type space, per suite member.

    Computes E = integral phi'^2 f - lambda0 integral phi^2 f, the weighted
    moment integral g r^2 phi^2 f, and the norm integral phi^2 f.  The
    product E * moment must dominate (1/4) norm^2; the ratio is returned
    (NaN when phi vanishes identically, reported as a skip upstream).
    """
    plan = density.suite.plan
    d1_sq, v_sq, _ = density.form(2.0)
    (e, e_err), (m, m_err), (n, n_err) = (
        plan.panels.reduce(d1_sq - density.model.lambda0 * v_sq),
        plan.panels.reduce(_moment_weight(density) * v_sq),
        plan.panels.reduce(v_sq),
    )
    errors = zip(e_err.tolist(), m_err.tolist(), n_err.tolist())
    return [UncertaintyResult(*sides) for sides in zip(e.tolist(), m.tolist(), n.tolist(), errors)]


def rellich_gap(density: SuiteDensity) -> list[GapResult]:
    """Second-order form against the inverse moment weight, per suite member.

    Returns the two sides of
    integral g r^2 (Delta phi + lambda0 phi)^2 f
      >= (1/16) integral phi^2 / (g r^2) f
    on a Heisenberg-type space, with g the uncertainty weight.
    """
    model, plan = density.model, density.suite.plan
    weight = _moment_weight(density)
    lap = plan.d2 + np.asarray(model.log_df(plan.nodes))[plan.index] * plan.d1
    lhs = plan.panels.reduce(weight * (lap + model.lambda0 * plan.val) ** 2 * density.values)
    rhs = plan.panels.reduce(density.form(2.0)[1] / (16.0 * weight))
    return _gap_results(lhs, rhs)


# ---------------------------------------------------------------------------
# asymptotic slope fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticsFit:
    slope: float
    intercept: float
    max_residual: float


def asymptotics_fit(radii, values) -> AsymptoticsFit:
    """Least-squares power law through positive samples on a log-log scale.

    Requires at least five samples spanning two decades in radius so a local
    wiggle cannot masquerade as a power law.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.shape != values.shape or radii.size < 5:
        raise PreconditionError("need at least five (radius, value) samples")
    if np.min(radii) <= 0.0 or np.min(values) <= 0.0:
        raise PreconditionError("samples must be strictly positive for a log-log fit")
    if np.max(radii) / np.min(radii) < 100.0:
        raise PreconditionError("samples must span at least two decades in radius")
    lx = np.log(radii)
    ly = np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return AsymptoticsFit(slope=float(slope), intercept=float(intercept), max_residual=float(np.max(np.abs(resid))))


# ---------------------------------------------------------------------------
# report runner
# ---------------------------------------------------------------------------


FAMILIES = ("rayleigh", "ode", "criticality", "uncertainty", "rellich", "asymptotics")

_GAMMA_DEFAULT = 0.25
_WEIGHTED_ALPHAS = (0.0, 0.5, 1.0)
_PDR_ORDERS = (2.0, 3.0, 4.0)


@dataclass
class VerificationReport:
    """One check's outcome.

    Checks that share their work run as one job: the rayleigh checks of a
    pair, the uncertainty and the rellich checks of a space (one per suite
    member) and the four criticality checks of a space.  ``seconds`` is then
    the job's time divided by its number of checks.
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

    def as_dict(self) -> dict:
        """The fields in their declared order, ready for JSON: a non-finite
        side or gap (a skip) is None."""
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in vars(self).items()}


def _pairs_for(model: DensityModel) -> list[tuple[str, dict, WeightPair]]:
    """Deterministic list of (label, params, pair) applicable to a space."""
    out: list[tuple[str, dict, WeightPair]] = [("B", {}, weight_theorem_b(model))]
    if model.kind == "dr":
        out.append(("A", {}, weight_dr_poincare(model)))
    out.append(("gamma", {"gamma": _GAMMA_DEFAULT}, weight_gamma_family(model, _GAMMA_DEFAULT)))
    if model.kind == "dr":
        out.append(("gamma_dr", {"gamma": _GAMMA_DEFAULT}, weight_gamma_dr(model, _GAMMA_DEFAULT)))
    for alpha in _WEIGHTED_ALPHAS:
        if model.n >= 2.0 * (1.0 + alpha):
            out.append((f"weighted[{alpha:g}]", {"alpha": alpha}, weight_weighted(model, alpha)))
    if model.kind == "dr":
        for P in _PDR_ORDERS:
            if model.p + model.q >= P * (P - 1.0):
                out.append((f"p_dr[{P:g}]", {"P": P}, weight_p_dr(model, P)))
    if model.kind != "euclidean":
        out.append(("green[2]", {"P": 2.0}, green_mod.green_weight(model, 2.0)))
    return out


# Each generator yields groups (reports, job): job() returns one
# (lhs, rhs, gap, tolerance, verdict) row per report, in the same order.


def _gap_row(res: GapResult):
    tol = 1e-8 * res.scale
    verdict = "pass" if res.gap >= -tol else "fail"
    return res.lhs, res.rhs, res.gap, tol, verdict


def _member_reports(prefix: str, space: str, params: dict, density: SuiteDensity):
    return [
        VerificationReport(f"{prefix}.{m.name}", space, {**params, "member": m.name, **({"log_scale": c} if c else {})})
        for m, c in zip(density.suite, density.log_scale.tolist())
    ]


def _rayleigh_jobs(space: str, density: SuiteDensity):
    for label, params, pair in _pairs_for(density.model):
        def job(pair=pair):
            gaps = rayleigh_gap if pair.P == 2.0 else p_rayleigh_gap
            return [_gap_row(res) for res in gaps(density, pair)]

        yield _member_reports(f"rayleigh.{label}", space, params, density), job


def _ode_jobs(space: str, density: SuiteDensity):
    model = density.model
    for label, params, pair in _pairs_for(model):
        if pair.log_ground_state is None:
            continue
        tol = 1e-8 if label.startswith("gamma") else 1e-10

        def job(pair=pair, tol=tol):
            # the P = 2 residual is a size; the supersolution residual is signed
            resid = ode_residual(model, pair)
            gap = -resid if pair.P == 2.0 else resid
            return [(resid, 0.0, gap, tol, "pass" if gap >= -tol else "fail")]

        yield [VerificationReport(check_id=f"ode.{label}", space=space, params=dict(params))], job


def _criticality_jobs(space: str, density: SuiteDensity):
    model = density.model

    def job():
        probe = criticality_probe(model)
        rows = []
        for (r1, v1), (r2, v2) in (probe.at_origin, probe.at_infinity):
            verdict = "pass" if v2 < v1 < 1.0 else "fail"
            rows.append((v2, v1, v1 - v2, 0.0, verdict))
        res = null_criticality_mass(model, 1e-4, 1e3)
        tol = 1e-10 * abs(res.closed_form)
        gap = res.mass - res.closed_form
        rows.append((res.mass, res.closed_form, gap, tol, "pass" if abs(gap) <= tol else "fail"))
        gap = res.log_slope - 0.25
        rows.append((res.log_slope, 0.25, gap, 1e-6, "pass" if abs(gap) <= 1e-6 else "fail"))
        return rows

    names = ("probe_origin", "probe_infinity", "null_mass", "null_mass_slope")
    yield [VerificationReport(check_id=f"criticality.{name}", space=space) for name in names], job


def _uncertainty_row(res: UncertaintyResult):
    ratio = res.ratio
    if not np.isfinite(ratio):
        return float("nan"), 1.0, float("nan"), 1e-8, "skip"
    verdict = "pass" if ratio >= 1.0 - 1e-8 else "fail"
    return ratio, 1.0, ratio - 1.0, 1e-8, verdict


# one uncertainty and one rellich job per Heisenberg-type space (dr with q not 0 or 2)


def _uncertainty_jobs(space: str, density: SuiteDensity):
    if density.model.kind == "dr" and density.model.q not in (0, 2):
        yield _member_reports("uncertainty", space, {}, density), lambda: [_uncertainty_row(res) for res in uncertainty_gap(density)]


def _rellich_jobs(space: str, density: SuiteDensity):
    if density.model.kind == "dr" and density.model.q not in (0, 2):
        yield _member_reports("rellich", space, {}, density), lambda: [_gap_row(res) for res in rellich_gap(density)]


def _asymptotics_jobs(space: str, density: SuiteDensity):
    model = density.model
    if model.kind == "euclidean":
        return

    def job():
        radii = np.geomspace(1e-4, 1e-2, 15)
        pred = green_mod.asymptotic_prediction(model, 2.0, radii)
        if pred.log_corrected:
            # P = n: W approaches |r ln r|^(-P) only like 1/ln^2 r; on
            # hyperbolic:2 the two fitted slopes differ by 0.028 on
            # [1e-4, 1e-2] and by 0.005 on [1e-8, 1e-6]
            radii = np.geomspace(1e-8, 1e-6, 15)
            slope = asymptotics_fit(radii, green_mod.asymptotic_prediction(model, 2.0, radii).value).slope
        else:
            slope = pred.exponent
        w = green_mod.green_weight_batch(model, 2.0, radii)["W"]
        fit = asymptotics_fit(radii, w)
        gap = fit.slope - slope
        verdict = "pass" if abs(gap) <= 0.02 else "fail"
        return [(fit.slope, slope, gap, 0.02, verdict)]

    yield [VerificationReport(check_id="asymptotics.green[2]", space=space, params={"P": 2.0})], job


_FAMILY_JOBS = {
    "rayleigh": _rayleigh_jobs,
    "ode": _ode_jobs,
    "criticality": _criticality_jobs,
    "uncertainty": _uncertainty_jobs,
    "rellich": _rellich_jobs,
    "asymptotics": _asymptotics_jobs,
}


def _collect_jobs(spaces, families, suite):
    jobs = []
    for space in spaces:
        # one density per space, shared by its integral families
        density = SuiteDensity(build_density(space), suite)
        for family in families:
            if family not in _FAMILY_JOBS:
                raise PreconditionError(f"unknown verification family: {family!r}")
            jobs.extend(_FAMILY_JOBS[family](space, density))
    return jobs


def run_verification(
    spaces=None,
    families=None,
    suite: TestFunctionSuite | None = None,
) -> list[VerificationReport]:
    """Run the requested check families and return reports in a fixed order.

    The report order depends only on (spaces, families, suite), so repeated
    runs diff cleanly.  Checks that share their work run as one job (see
    ``VerificationReport``).
    """
    if spaces is None:
        spaces = DEFAULT_CATALOG
    if families is None:
        families = FAMILIES
    if suite is None:
        suite = default_suite()
    groups = [(reports, job) for reports, job in _collect_jobs(list(spaces), list(families), suite) if reports]

    for reports, job in groups:
        start = time.perf_counter()
        rows = job()
        seconds = (time.perf_counter() - start) / len(reports)
        for report, row in zip(reports, rows, strict=True):
            report.lhs, report.rhs, report.gap, report.tolerance, report.verdict = row
            report.seconds = seconds
    return [report for reports, _ in groups for report in reports]

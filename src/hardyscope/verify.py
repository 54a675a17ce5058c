"""Numerical checks that the shipped weight pairs do what they claim.

Every check reduces an inequality or identity to quadrature against a suite
of compactly supported test functions, or to a pointwise residual on a grid.
Checks return signed gaps (nonnegative means the inequality holds) together
with the raw sides, so a failure report shows the actual numbers instead of
a bare boolean.

Quadrature: each member's support is cut into panels no wider than 0.25 (at
least 8), each integrated by the 20-point Gauss-Legendre rule.  The suite
builds these nodes once, for all members together, and evaluates every
member's value and first two derivatives on them.  A form is then assembled
once per space and pair: f, the measure and the weights are evaluated on the
suite's nodes in one call each (the Green weight in one engine batch), and
one reduction per side gives that side for every member.  The single-member
functions (``rayleigh_gap`` and friends) run the same code on a one-member
suite.  The null-criticality mass is taken on the same rule, in log r, and
is certified by its null-rule estimate: above 1e-10 relative it raises
QuadratureError instead of returning a number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import green as green_mod
from .calculus import PanelPlan, RadialScalar, check_radius, p_laplacian_radial
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
    """Quadrature nodes of every member's support, concatenated in member
    order, with each member's value and first two derivatives on its nodes."""

    panels: PanelPlan
    nodes: np.ndarray
    val: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def integrals(self, values) -> list[float]:
        """Per-member integrals from the integrand's values at all nodes."""
        return self.panels.reduce(values)[0].tolist()


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
        lo, hi = np.array([m.support for m in self.members], dtype=float).T
        panels = PanelPlan(lo, hi, _PANEL_WIDTH, _MIN_PANELS)
        nodes, segment = panels.nodes()
        jets = [m.scalar.jet(nodes[segment == k]) for k, m in enumerate(self.members)]
        return SuitePlan(panels, nodes, *(np.concatenate([getattr(j, s) for j in jets]) for s in ("val", "d1", "d2")))


def _bump_scalar(lo: float, hi: float) -> RadialScalar:
    """Smooth bump exp(-1/(1-t^2)) on (lo, hi), zero outside."""
    mid = 0.5 * (lo + hi)
    k1 = 2.0 / (hi - lo)

    def _pieces(r):
        t = (np.asarray(r, dtype=float) - mid) * k1
        inside = np.abs(t) < 1.0
        tt = np.where(inside, t, 0.0)
        om = 1.0 - tt * tt
        e = np.exp(-1.0 / om)
        return inside, tt, om, e

    def value(r):
        inside, _, _, e = _pieces(r)
        return np.where(inside, e, 0.0)

    def d1(r):
        inside, tt, om, e = _pieces(r)
        du = -2.0 * tt / om**2
        return np.where(inside, e * du * k1, 0.0)

    def d2(r):
        inside, tt, om, e = _pieces(r)
        du = -2.0 * tt / om**2
        ddu = -(2.0 + 6.0 * tt * tt) / om**3
        return np.where(inside, e * (ddu + du * du) * k1 * k1, 0.0)

    return RadialScalar.from_values(value, d1, d2)


def _gaussian_scalar(center: float, width: float) -> RadialScalar:
    def value(r):
        return np.exp(-(((np.asarray(r, dtype=float) - center) / width) ** 2))

    def d1(r):
        rr = np.asarray(r, dtype=float)
        return value(rr) * (-2.0 * (rr - center) / width**2)

    def d2(r):
        rr = np.asarray(r, dtype=float)
        s = (rr - center) / width
        return value(rr) * (4.0 * s * s - 2.0) / width**2

    return RadialScalar.from_values(value, d1, d2)


def default_suite(support: tuple[float, float] = (0.2, 30.0), count: int = 18) -> TestFunctionSuite:
    """Bumps sliding across the support plus two truncated Gaussians.

    The bumps share a common width and move from the left edge to the right
    edge of the support, so the suite probes both the origin side and the
    far side of each weight.  The Gaussians are multiplied by the full-width
    bump so every member is compactly supported.
    """
    a, b = support
    if not (0.0 < a < b):
        raise PreconditionError("suite support must satisfy 0 < a < b")
    if count < 1:
        raise PreconditionError("need at least one bump")
    members = []
    shift = (b - a) / (2.0 * count)
    for k in range(count):
        lo = a + k * shift
        hi = b - (count - 1 - k) * shift
        members.append(SuiteMember(f"bump_{k:02d}", _bump_scalar(lo, hi), (lo, hi)))
    envelope = _bump_scalar(a, b)
    g1 = _gaussian_scalar(a + 0.3 * (b - a), 0.2 * (b - a)) * envelope
    g2 = _gaussian_scalar(a + 0.7 * (b - a), 0.15 * (b - a)) * envelope
    members.append(SuiteMember("gauss_lo", g1, (a, b)))
    members.append(SuiteMember("gauss_hi", g2, (a, b)))
    return TestFunctionSuite(tuple(members))


# ---------------------------------------------------------------------------
# energy-form gaps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapResult:
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs

    @property
    def scale(self) -> float:
        return abs(self.lhs) + abs(self.rhs)


def _form_gaps(model: DensityModel, pair: WeightPair, suite: TestFunctionSuite, P: float) -> list[GapResult]:
    plan = suite.plan
    r = plan.nodes
    weight = np.asarray(model.f(r))
    if pair.measure is not None:
        weight = weight * np.asarray(pair.measure.value(r))
    net = np.asarray(pair.W.value(r)) - np.asarray(pair.V.value(r))
    lhs = plan.integrals(np.abs(plan.d1) ** P * weight)
    rhs = plan.integrals(net * np.abs(plan.val) ** P * weight)
    return [GapResult(a, b) for a, b in zip(lhs, rhs)]


def rayleigh_gap(model: DensityModel, pair: WeightPair, member: SuiteMember) -> GapResult:
    """Energy minus potential mass for the quadratic form of a pair.

    Returns the two sides of
    integral |phi'|^2 f mu  >=  integral (W - V) phi^2 f mu,
    where mu is the pair's reference measure (1 when absent).  A nonnegative
    gap confirms the inequality on this test function.
    """
    return _form_gaps(model, pair, TestFunctionSuite((member,)), 2.0)[0]


def p_rayleigh_gap(model: DensityModel, pair: WeightPair, member: SuiteMember) -> GapResult:
    """Same as rayleigh_gap but with |phi'|^P against (W - V)|phi|^P."""
    return _form_gaps(model, pair, TestFunctionSuite((member,)), pair.P)[0]


def ode_residual(model: DensityModel, pair: WeightPair, grid=None) -> float:
    """Pointwise residual of the ground state equation on a grid.

    For P = 2 the ground state solves -Phi'' - L Phi' + (V - W) Phi = 0
    exactly, so the return value is the maximum relative residual and should
    sit at rounding level.  For P != 2 the ground state is a supersolution:
    the return value is the signed minimum of the normalized residual
    -Delta_P Phi + (V - W) Phi^(P-1), which must not dip below rounding.
    """
    if pair.ground_state is None:
        raise PreconditionError(f"pair {pair.theorem_id} has no ground state")
    grid = default_grid() if grid is None else np.atleast_1d(check_radius(grid))
    if grid.size == 0:
        raise DomainError("residual grid is empty")

    phi = pair.ground_state
    j = phi.jet(grid)
    net = np.asarray(pair.V.value(grid)) - np.asarray(pair.W.value(grid))
    tiny = np.finfo(float).tiny
    if pair.P == 2.0:
        drift = np.asarray(model.log_df(grid)) * j.d1
        resid = -(j.d2 + drift) + net * j.val
        scale = np.abs(j.d2) + np.abs(drift) + np.abs(net * j.val) + tiny
        return float(np.max(np.abs(resid) / scale))
    plap = p_laplacian_radial(phi, model, pair.P, grid)
    mass = net * j.val ** (pair.P - 1.0)
    resid = -plap + mass
    scale = np.abs(plap) + np.abs(mass) + tiny
    return float(np.min(resid / scale))


# ---------------------------------------------------------------------------
# criticality of the quadratic pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalityProbe:
    """Ratios Phi / (Phi |log r|) at probe radii near 0 and infinity.

    The ground state ceases to be optimal iff some positive supersolution
    grows strictly slower; the standard candidate multiplies Phi by |log r|.
    The ratio must decay to zero on both ends for the pair to be critical.
    """

    at_origin: tuple[tuple[float, float], ...]
    at_infinity: tuple[tuple[float, float], ...]


def criticality_probe(model: DensityModel) -> CriticalityProbe:
    pair = weight_theorem_b(model)
    log_gs = pair.extras["log_ground_state"]

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
    log_mass = 2.0 * pair.extras["log_ground_state"](t) + model.log_f(t) + nodes
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
    energy: float
    weighted_moment: float
    norm: float

    @property
    def ratio(self) -> float:
        if self.norm == 0.0:
            return float("nan")
        return self.energy * self.weighted_moment / (0.25 * self.norm**2)


def _uncertainty_results(model: DensityModel, suite: TestFunctionSuite) -> list[UncertaintyResult]:
    plan = suite.plan
    r, v = plan.nodes, plan.val
    f = np.asarray(model.f(r))
    energy = plan.integrals((plan.d1**2 - model.lambda0 * v**2) * f)
    moment = plan.integrals(hpw_g(model.p, model.q, r) * r**2 * v**2 * f)
    norm = plan.integrals(v**2 * f)
    return [UncertaintyResult(*sides) for sides in zip(energy, moment, norm)]


def uncertainty_gap(p: int, q: int, member: SuiteMember) -> UncertaintyResult:
    """Shifted-energy uncertainty product on a Heisenberg-type space.

    Computes E = integral phi'^2 f - lambda0 integral phi^2 f, the weighted
    moment integral g r^2 phi^2 f, and the norm integral phi^2 f.  The
    product E * moment must dominate (1/4) norm^2; the ratio is returned
    (NaN when phi vanishes identically, reported as a skip upstream).
    """
    return _uncertainty_results(build_density(f"dr:{p},{q}"), TestFunctionSuite((member,)))[0]


def _rellich_results(model: DensityModel, suite: TestFunctionSuite) -> list[GapResult]:
    plan = suite.plan
    r, v = plan.nodes, plan.val
    f = np.asarray(model.f(r))
    g = hpw_g(model.p, model.q, r)
    lap = plan.d2 + np.asarray(model.log_df(r)) * plan.d1
    lhs = plan.integrals(g * r**2 * (lap + model.lambda0 * v) ** 2 * f)
    rhs = plan.integrals(v**2 / (16.0 * g * r**2) * f)
    return [GapResult(a, b) for a, b in zip(lhs, rhs)]


def rellich_gap(p: int, q: int, member: SuiteMember) -> GapResult:
    """Second-order form against the inverse moment weight.

    Returns the two sides of
    integral g r^2 (Delta phi + lambda0 phi)^2 f
      >= (1/16) integral phi^2 / (g r^2) f
    on a Heisenberg-type space, with g the uncertainty weight.
    """
    return _rellich_results(build_density(f"dr:{p},{q}"), TestFunctionSuite((member,)))[0]


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
        return {
            "check_id": self.check_id,
            "space": self.space,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "seconds": self.seconds,
        }


def _pairs_for(model: DensityModel) -> list[tuple[str, dict, WeightPair]]:
    """Deterministic list of (label, params, pair) applicable to a space."""
    out: list[tuple[str, dict, WeightPair]] = [("B", {}, weight_theorem_b(model))]
    if model.kind == "dr":
        out.append(("A", {}, weight_dr_poincare(model.p, model.q)))
    out.append(("gamma", {"gamma": _GAMMA_DEFAULT}, weight_gamma_family(model, _GAMMA_DEFAULT)))
    if model.kind == "dr":
        out.append(("gamma_dr", {"gamma": _GAMMA_DEFAULT}, weight_gamma_dr(model.p, model.q, _GAMMA_DEFAULT)))
    for alpha in _WEIGHTED_ALPHAS:
        if model.n >= 2.0 * (1.0 + alpha):
            out.append((f"weighted[{alpha:g}]", {"alpha": alpha}, weight_weighted(model, alpha)))
    if model.kind == "dr":
        for P in _PDR_ORDERS:
            if model.p + model.q >= P * (P - 1.0):
                out.append((f"p_dr[{P:g}]", {"P": P}, weight_p_dr(model.p, model.q, P)))
    if model.kind != "euclidean":
        out.append(("green[2]", {"P": 2.0}, green_mod.green_weight(model, 2.0)))
    return out


# Each generator yields groups (reports, job): job() returns one
# (lhs, rhs, gap, tolerance, verdict) row per report, in the same order.


def _gap_row(res: GapResult):
    tol = 1e-8 * res.scale
    verdict = "pass" if res.gap >= -tol else "fail"
    return res.lhs, res.rhs, res.gap, tol, verdict


def _member_reports(prefix: str, space: str, params: dict, suite: TestFunctionSuite):
    return [
        VerificationReport(check_id=f"{prefix}.{m.name}", space=space, params=dict(params, member=m.name))
        for m in suite
    ]


def _rayleigh_jobs(space: str, model: DensityModel, suite: TestFunctionSuite):
    for label, params, pair in _pairs_for(model):
        def job(pair=pair):
            return [_gap_row(res) for res in _form_gaps(model, pair, suite, pair.P)]

        yield _member_reports(f"rayleigh.{label}", space, params, suite), job


def _ode_jobs(space: str, model: DensityModel):
    for label, params, pair in _pairs_for(model):
        if pair.ground_state is None:
            continue
        tol = 1e-8 if label.startswith("gamma") else 1e-10
        if pair.P == 2.0:
            def job(pair=pair, tol=tol):
                resid = ode_residual(model, pair)
                verdict = "pass" if resid <= tol else "fail"
                return [(resid, 0.0, -resid, tol, verdict)]
        else:
            def job(pair=pair, tol=tol):
                resid = ode_residual(model, pair)
                verdict = "pass" if resid >= -tol else "fail"
                return [(resid, 0.0, resid, tol, verdict)]

        yield [VerificationReport(check_id=f"ode.{label}", space=space, params=dict(params))], job


def _criticality_jobs(space: str, model: DensityModel):
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


def _heisenberg_ok(model: DensityModel) -> bool:
    return model.kind == "dr" and model.q not in (0, 2)


def _uncertainty_row(res: UncertaintyResult):
    ratio = res.ratio
    if not np.isfinite(ratio):
        return float("nan"), 1.0, float("nan"), 1e-8, "skip"
    verdict = "pass" if ratio >= 1.0 - 1e-8 else "fail"
    return ratio, 1.0, ratio - 1.0, 1e-8, verdict


def _uncertainty_jobs(space: str, model: DensityModel, suite: TestFunctionSuite):
    if not _heisenberg_ok(model):
        return

    def job():
        return [_uncertainty_row(res) for res in _uncertainty_results(model, suite)]

    yield _member_reports("uncertainty", space, {}, suite), job


def _rellich_jobs(space: str, model: DensityModel, suite: TestFunctionSuite):
    if not _heisenberg_ok(model):
        return

    def job():
        return [_gap_row(res) for res in _rellich_results(model, suite)]

    yield _member_reports("rellich", space, {}, suite), job


def _asymptotics_jobs(space: str, model: DensityModel):
    if model.kind == "euclidean":
        return

    def job():
        radii = np.geomspace(1e-4, 1e-2, 15)
        w = green_mod.green_weight_batch(model, 2.0, radii)["W"]
        fit = asymptotics_fit(radii, w)
        gap = fit.slope - (-2.0)
        verdict = "pass" if abs(gap) <= 0.02 else "fail"
        return [(fit.slope, -2.0, gap, 0.02, verdict)]

    yield [VerificationReport(check_id="asymptotics.green[2]", space=space, params={"P": 2.0})], job


def _collect_jobs(spaces, families, suite):
    jobs = []
    for space in spaces:
        model = build_density(space)
        for family in families:
            if family == "rayleigh":
                jobs.extend(_rayleigh_jobs(space, model, suite))
            elif family == "ode":
                jobs.extend(_ode_jobs(space, model))
            elif family == "criticality":
                jobs.extend(_criticality_jobs(space, model))
            elif family == "uncertainty":
                jobs.extend(_uncertainty_jobs(space, model, suite))
            elif family == "rellich":
                jobs.extend(_rellich_jobs(space, model, suite))
            elif family == "asymptotics":
                jobs.extend(_asymptotics_jobs(space, model))
            else:
                raise PreconditionError(f"unknown verification family: {family!r}")
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

"""Potential/weight pairs (V, W) for the radial Hardy-type inequalities.

Each builder assembles a WeightPair: a potential V, a weight W with a named
term breakdown that sums to W exactly, the ground state where one exists, and
auxiliary evaluators in ``extras``.  All evaluators accept positive scalars or
numpy arrays.

Evaluation strategy: V and W default to algebraically collapsed closed forms,
which stay accurate near the pole where the raw quotient-of-derivatives
expressions lose digits to cancellation.  The raw forms remain available (for
example ``extras["V_raw"]`` on the quadratic pair) so tests can confront the
two against each other at moderate radii.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .calculus import Jet2, RadialScalar
from .errors import DomainError, PreconditionError
from .spaces import (
    DAMEK_RICCI,
    EUCLIDEAN,
    HYPERBOLIC,
    DensityModel,
    SpaceSpec,
    build_density,
    validate_heisenberg_params,
)

__all__ = [
    "WeightPair",
    "WeightSample",
    "weight_theorem_b",
    "weight_dr_poincare",
    "weight_gamma_family",
    "weight_gamma_dr",
    "weight_weighted",
    "weight_p_dr",
    "hpw_g",
    "default_aux_h",
    "raw_density_ratio",
]


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass
class WeightSample:
    """Pointwise evaluation of a WeightPair."""

    r: float | np.ndarray
    V: float | np.ndarray
    W: float | np.ndarray
    W_total: float | np.ndarray
    terms: dict
    ground_state: float | np.ndarray | None


@dataclass
class WeightPair:
    """A Hardy-type potential/weight pair with its breakdown.

    ``terms`` lists named components of W; their sum reproduces W exactly
    because W is constructed as that very sum.  ``measure`` is an extra radial
    factor multiplying f in the underlying integrals (None means 1).
    """

    theorem_id: str
    space: str
    params: dict
    V: RadialScalar
    W: RadialScalar
    terms: tuple
    ground_state: RadialScalar | None = None
    measure: RadialScalar | None = None
    P: float = 2.0
    extras: dict = field(default_factory=dict)

    def sample(self, r) -> WeightSample:
        r = _check_radius(r)
        v = self.V.value(r)
        w = self.W.value(r)
        return WeightSample(
            r=r,
            V=v,
            W=w,
            W_total=w - v,
            terms={name: scalar.value(r) for name, scalar in self.terms},
            ground_state=None if self.ground_state is None else self.ground_state.value(r),
        )


def _check_radius(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("radius must be positive and finite")
    return float(arr) if arr.ndim == 0 else arr


def _maybe_sample(pair: WeightPair, r):
    if r is None:
        return pair
    return pair.sample(r)


# ---------------------------------------------------------------------------
# closed-form building blocks
# ---------------------------------------------------------------------------


def _inverse_square(coef: float) -> RadialScalar:
    """coef / r^2 with exact derivatives."""
    return RadialScalar.from_values(
        lambda r: coef / r**2,
        lambda r: -2.0 * coef / r**3,
        lambda r: 6.0 * coef / r**4,
    )


def _inverse_sinh_sq(coef: float, a: float) -> RadialScalar:
    """coef / sinh(a r)^2 with exact derivatives."""

    def value(r):
        return coef / np.sinh(a * r) ** 2

    def d1(r):
        s = np.sinh(a * r)
        return -2.0 * a * coef * np.cosh(a * r) / s**3

    def d2(r):
        s = np.sinh(a * r)
        return 2.0 * a * a * coef * (3.0 / s**2 + 2.0) / s**2

    return RadialScalar.from_values(value, d1, d2)


def _constant(c: float) -> RadialScalar:
    return RadialScalar.constant(c)


def _drift_scalar(model: DensityModel, coef: float) -> RadialScalar:
    """coef * (f'/f) / r with exact derivatives."""

    def value(r):
        return coef * model.log_df(r) / r

    def d1(r):
        return coef * (model.dlog_df(r) / r - model.log_df(r) / r**2)

    def d2(r):
        return coef * (
            model.d2log_df(r) / r
            - 2.0 * model.dlog_df(r) / r**2
            + 2.0 * model.log_df(r) / r**3
        )

    return RadialScalar.from_values(value, d1, d2)


def _sum_terms(terms) -> RadialScalar:
    total = terms[0][1]
    for _, scalar in terms[1:]:
        total = total + scalar
    return total


def raw_density_ratio(model: DensityModel) -> RadialScalar:
    """((f')^2 - 2 f f'') / (4 f^2) straight from density jets (value only).

    This is the defining expression of the quadratic pair's potential before
    algebraic simplification; it loses roughly six digits at r = 1e-3 to
    cancellation, so it serves as a cross-check rather than a default.
    """

    def value(r):
        j = model.f_jet(Jet2.variable(np.asarray(r, dtype=float)))
        return (j.d1**2 - 2.0 * j.val * j.d2) / (4.0 * j.val**2)

    return RadialScalar.from_value_only(value)


def _sqrt_r_over_f(model: DensityModel, P: float = 2.0) -> RadialScalar:
    """Ground state (r / f(r))^(1/P) with exact derivatives from jets."""
    inv_p = 1.0 / P
    return RadialScalar(lambda x: (x / model.f_jet(x)) ** inv_p)


def _log_sqrt_r_over_f(model: DensityModel, P: float = 2.0) -> Callable:
    def log_gs(r):
        r = np.asarray(r, dtype=float)
        return (np.log(r) - model.log_f(r)) / P

    return log_gs


def _simplified_minus_v(model: DensityModel):
    """Collapsed coefficients of -V for the quadratic pair, per family.

    Returns (constant, coef_sinh_r, coef_sinh_half, coef_inv_r2) so that
    -V = constant + coef_sinh_r/sinh(r)^2 + coef_sinh_half/sinh(r/2)^2
         + coef_inv_r2/r^2.
    """
    n = model.n
    if model.kind == EUCLIDEAN:
        return 0.0, 0.0, 0.0, (n - 1) * (n - 3) / 4.0
    if model.kind == HYPERBOLIC:
        return model.lambda0, (n - 1) * (n - 3) / 4.0, 0.0, 0.0
    p, q = model.p, model.q
    return model.lambda0, q * (q - 2.0) / 4.0, p * (p + 2.0 * q - 2.0) / 16.0, 0.0


# ---------------------------------------------------------------------------
# quadratic pair with ground state (r/f)^{1/2}
# ---------------------------------------------------------------------------


def weight_theorem_b(model: DensityModel, r=None):
    """Pair with V = ((f')^2 - 2 f f'')/(4 f^2), W = 1/(4 r^2).

    The ground state is (r/f)^(1/2).  ``extras["W_total"]`` is the combined
    density W - V; on flat space it collapses to the single classical Hardy
    coefficient (n-2)^2/4 over r^2.  With ``r`` given, returns the sample at
    that radius instead of the pair.
    """
    const, c_sr, c_sh, c_r2 = _simplified_minus_v(model)

    def v_value(rr):
        out = const + c_sr / np.sinh(rr) ** 2 + c_sh / np.sinh(rr / 2.0) ** 2 + c_r2 / rr**2
        return -out

    if model.kind == EUCLIDEAN:
        v_scalar = _inverse_square(-c_r2)
        w_total = _inverse_square((model.n - 2) ** 2 / 4.0)
        total_terms = (("(n-2)^2/(4r^2)", w_total),)
    else:
        v_scalar = RadialScalar.from_value_only(v_value)
        total_terms = (("1/(4r^2)", _inverse_square(0.25)), ("lambda0 shift", _constant(const)))
        if c_sr != 0.0:
            total_terms += (("sinh(r) term", _inverse_sinh_sq(c_sr, 1.0)),)
        if c_sh != 0.0:
            total_terms += (("sinh(r/2) term", _inverse_sinh_sq(c_sh, 0.5)),)
        w_total = _sum_terms(total_terms)

    terms = (("1/(4r^2)", _inverse_square(0.25)),)
    pair = WeightPair(
        theorem_id="B",
        space=model.spec.descriptor(),
        params={},
        V=v_scalar,
        W=_sum_terms(terms),
        terms=terms,
        ground_state=_sqrt_r_over_f(model),
        extras={
            "W_total": w_total,
            "W_total_terms": total_terms,
            "V_raw": raw_density_ratio(model),
            "log_ground_state": _log_sqrt_r_over_f(model),
        },
    )
    return _maybe_sample(pair, r)


def weight_dr_poincare(p: int, q: int, r=None):
    """Shifted pair on the two-parameter spaces: V = -lambda0, explicit W.

    W = 1/(4 r^2) + p(p+2q-2)/(16 sinh(r/2)^2) + q(q-2)/(4 sinh(r)^2), with
    ground state (r/f)^(1/2).  W is nonnegative for every admissible (p, q).
    """
    validate_heisenberg_params(p, q)
    model = build_density(SpaceSpec(kind=DAMEK_RICCI, n=p + q + 1, p=p, q=q))
    terms = (
        ("1/(4r^2)", _inverse_square(0.25)),
        ("sinh(r/2) term", _inverse_sinh_sq(p * (p + 2.0 * q - 2.0) / 16.0, 0.5)),
        ("sinh(r) term", _inverse_sinh_sq(q * (q - 2.0) / 4.0, 1.0)),
    )
    pair = WeightPair(
        theorem_id="A",
        space=model.spec.descriptor(),
        params={},
        V=_constant(-model.lambda0),
        W=_sum_terms(terms),
        terms=terms,
        ground_state=_sqrt_r_over_f(model),
        extras={"log_ground_state": _log_sqrt_r_over_f(model)},
    )
    return _maybe_sample(pair, r)


# ---------------------------------------------------------------------------
# one-parameter family with auxiliary radial function
# ---------------------------------------------------------------------------


def default_aux_h(model: DensityModel) -> RadialScalar:
    """The canonical auxiliary function f(r)^(1/(n-1)), which grows like r."""
    exponent = 1.0 / (model.n - 1)
    return RadialScalar(lambda x: model.f_jet(x) ** exponent)


def _validate_aux_h(aux_h: RadialScalar) -> None:
    probe = np.geomspace(1e-6, 60.0, 200)
    vals = np.asarray(aux_h.value(probe), dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise PreconditionError("aux_h must be finite and positive on (0, 60]")
    ratio = vals / probe
    if not np.isfinite(ratio[0]) or np.min(ratio) <= 1e-12:
        raise PreconditionError("aux_h must grow at least linearly from the pole (aux_h(r)/r bounded below)")


def weight_gamma_family(model: DensityModel, gamma: float, aux_h: RadialScalar | None = None, r=None):
    """One-parameter deformation of the quadratic pair.

    W = (1 - 4 gamma^2)/(4 r^2) and V collects the density curvature together
    with a gamma-weighted correction built from the auxiliary function:

        V = -[ f''/(2f) - (f'/f)^2/4
               + gamma ( h''/h + (1+2 gamma) h'/(r h) - (1+gamma)(h'/h)^2 ) ].

    Ground state r^(1/2+gamma) f^(-1/2) aux_h^(-gamma).  gamma = 0 reduces to
    weight_theorem_b; gamma = 1/2 kills the Hardy term entirely.
    """
    gamma = float(gamma)
    if not 0.0 <= gamma <= 0.5:
        raise PreconditionError("gamma must lie in [0, 1/2]")
    if aux_h is None:
        aux_h = default_aux_h(model)
    _validate_aux_h(aux_h)

    def v_value(rr):
        rr = np.asarray(rr, dtype=float)
        base = 0.5 * np.asarray(model.d2f_over_f(rr)) - 0.25 * np.asarray(model.log_df(rr)) ** 2
        j = aux_h.jet(rr)
        lh = j.d1 / j.val
        correction = gamma * (j.d2 / j.val + (1.0 + 2.0 * gamma) * lh / rr - (1.0 + gamma) * lh**2)
        return -(base + correction)

    half_plus = 0.5 + gamma

    def gs_fn(x: Jet2) -> Jet2:
        return x**half_plus * model.f_jet(x) ** (-0.5) * aux_h.apply(x) ** (-gamma)

    def log_gs(rr):
        rr = np.asarray(rr, dtype=float)
        return half_plus * np.log(rr) - 0.5 * np.asarray(model.log_f(rr)) - gamma * np.log(aux_h.value(rr))

    terms = (("(1-4*gamma^2)/(4r^2)", _inverse_square((1.0 - 4.0 * gamma**2) / 4.0)),)
    pair = WeightPair(
        theorem_id="gamma_family",
        space=model.spec.descriptor(),
        params={"gamma": gamma},
        V=RadialScalar.from_value_only(v_value),
        W=_sum_terms(terms),
        terms=terms,
        ground_state=RadialScalar(gs_fn),
        extras={
            "aux_h": aux_h,
            "lambda0_shift": (1.0 - 4.0 * gamma**2 / (model.n - 1.0) ** 2) * model.lambda0,
            "log_ground_state": log_gs,
        },
    )
    return _maybe_sample(pair, r)


def weight_gamma_dr(p: int, q: int, gamma: float, r=None):
    """Collapsed form of the gamma family on the two-parameter spaces.

    With m = p+q, b = 1/2 + gamma/m and d = b^2 - b the pair collapses to
    V = -(1 - (2 gamma/m)^2) lambda0 and

        W = (1-4 gamma^2)/(4 r^2) + gamma(1+2 gamma)/m * (f'/f)/r
            - q (q d + b)/sinh(r)^2 - p ((p+2q) d + b)/(4 sinh(r/2)^2),

    which agrees pointwise with weight_gamma_family at aux_h = f^(1/(n-1)).
    The ground state collapses to r^(1/2+gamma) f^(-b).
    """
    validate_heisenberg_params(p, q)
    gamma = float(gamma)
    if not 0.0 <= gamma <= 0.5:
        raise PreconditionError("gamma must lie in [0, 1/2]")
    model = build_density(SpaceSpec(kind=DAMEK_RICCI, n=p + q + 1, p=p, q=q))
    m = float(p + q)
    b = 0.5 + gamma / m
    d = b * b - b
    shift = (1.0 - (2.0 * gamma / m) ** 2) * model.lambda0
    drift_coef = gamma * (1.0 + 2.0 * gamma) / m
    coef_sinh_r = -q * (q * d + b)
    coef_sinh_half = -p * ((p + 2.0 * q) * d + b) / 4.0

    def gs_fn(x: Jet2) -> Jet2:
        return x ** (0.5 + gamma) * model.f_jet(x) ** (-b)

    def log_gs(rr):
        rr = np.asarray(rr, dtype=float)
        return (0.5 + gamma) * np.log(rr) - b * np.asarray(model.log_f(rr))

    terms = (
        ("(1-4*gamma^2)/(4r^2)", _inverse_square((1.0 - 4.0 * gamma**2) / 4.0)),
        ("drift term", _drift_scalar(model, drift_coef)),
        ("sinh(r) term", _inverse_sinh_sq(coef_sinh_r, 1.0)),
        ("sinh(r/2) term", _inverse_sinh_sq(coef_sinh_half, 0.5)),
    )
    pair = WeightPair(
        theorem_id="gamma_dr",
        space=model.spec.descriptor(),
        params={"gamma": gamma},
        V=_constant(-shift),
        W=_sum_terms(terms),
        terms=terms,
        ground_state=RadialScalar(gs_fn),
        extras={
            "lambda0_shift": shift,
            "drift_coefficient": drift_coef,
            "log_ground_state": log_gs,
        },
    )
    return _maybe_sample(pair, r)


# ---------------------------------------------------------------------------
# weighted measure variant
# ---------------------------------------------------------------------------


def weight_weighted(model: DensityModel, alpha: float, r=None):
    """Hardy density against the measure r^(-2 alpha) f dr.

    The full density is (2 f f'' - (f')^2)/(4 f^2) - alpha f'/(r f)
    + (4 alpha + 1)/(4 r^2).  On the two-parameter spaces the constant part
    lambda0 is split off into V; elsewhere V = 0 and W carries everything.
    The density may change sign (only the integral inequality is claimed),
    and there is no ground state attached.
    """
    alpha = float(alpha)
    if not alpha >= 0.0:
        raise PreconditionError("alpha must be nonnegative")
    if model.n < 2.0 * (1.0 + alpha):
        raise PreconditionError(f"weighted pair needs n >= 2(1+alpha): n={model.n}, alpha={alpha}")

    const, c_sr, c_sh, c_r2 = _simplified_minus_v(model)
    hardy_coef = (4.0 * alpha + 1.0) / 4.0
    drift = _drift_scalar(model, -alpha)

    terms: tuple = ()
    if model.kind == DAMEK_RICCI:
        v_scalar = _constant(-model.lambda0)
    else:
        v_scalar = _constant(0.0)
        if const != 0.0:
            terms += (("lambda0 shift", _constant(const)),)
    if c_r2 != 0.0:
        terms += (("flat curvature term", _inverse_square(c_r2)),)
    if c_sr != 0.0:
        terms += (("sinh(r) term", _inverse_sinh_sq(c_sr, 1.0)),)
    if c_sh != 0.0:
        terms += (("sinh(r/2) term", _inverse_sinh_sq(c_sh, 0.5)),)
    terms += (("drift term", drift), ("(4*alpha+1)/(4r^2)", _inverse_square(hardy_coef)))

    measure = RadialScalar.from_values(
        lambda rr: rr ** (-2.0 * alpha),
        lambda rr: -2.0 * alpha * rr ** (-2.0 * alpha - 1.0),
        lambda rr: 2.0 * alpha * (2.0 * alpha + 1.0) * rr ** (-2.0 * alpha - 2.0),
    )
    w_scalar = _sum_terms(terms)
    pair = WeightPair(
        theorem_id="weighted_alpha",
        space=model.spec.descriptor(),
        params={"alpha": alpha, "measure_exponent": -2.0 * alpha},
        V=v_scalar,
        W=w_scalar,
        terms=terms,
        ground_state=None,
        measure=measure,
        extras={"density": w_scalar - v_scalar},
    )
    return _maybe_sample(pair, r)


# ---------------------------------------------------------------------------
# quasi-linear pair
# ---------------------------------------------------------------------------


def _pdr_g_scalar(p: int, q: int) -> RadialScalar:
    """g(r) = coth(r/2) - (2/(p+2q)) (q/sinh r + 1/r), with derivatives."""
    k = 2.0 / (p + 2.0 * q)

    def value(rr):
        return 1.0 / np.tanh(rr / 2.0) - k * (q / np.sinh(rr) + 1.0 / rr)

    def d1(rr):
        sh = np.sinh(rr)
        return -0.5 / np.sinh(rr / 2.0) ** 2 + k * (q * np.cosh(rr) / sh**2 + 1.0 / rr**2)

    def d2(rr):
        sh, ch = np.sinh(rr), np.cosh(rr)
        shh = np.sinh(rr / 2.0)
        return (
            0.5 * np.cosh(rr / 2.0) / shh**3
            - k * (q * (ch**2 + 1.0) / sh**3 + 2.0 / rr**3)
        )

    return RadialScalar.from_values(value, d1, d2)


def weight_p_dr(p: int, q: int, P: float, r=None):
    """Quasi-linear pair with ground state (r/f)^(1/P) on the two-parameter spaces.

    V = -Lambda_P g^(P-2) with Lambda_P = (h/P)^P and the comparison function
    g(r) = coth(r/2) - (2/(p+2q))(q/sinh r + 1/r); W is the sum of the three
    right-hand-side densities, each individually nonnegative under the
    precondition p+q >= P(P-1).
    """
    validate_heisenberg_params(p, q)
    P = float(P)
    if not P >= 2.0:
        raise PreconditionError("quasi-linear pair needs P >= 2")
    if p + q < P * (P - 1.0):
        raise PreconditionError(f"quasi-linear pair needs n >= 1 + P(P-1): n={p + q + 1}, P={P}")
    model = build_density(SpaceSpec(kind=DAMEK_RICCI, n=p + q + 1, p=p, q=q))
    h = model.h
    lam_p = (h / P) ** P
    g = _pdr_g_scalar(p, q)
    pref = h ** (P - 2.0) / P**P

    def gpow(rr):
        return g.value(rr) ** (P - 2.0)

    def t1_value(rr):
        return pref * (P - 1.0) ** 2 * gpow(rr) / rr**2

    def t2_value(rr):
        gv = g.value(rr)
        return h ** (P - 1.0) * (P - 2.0) / P**P * gv ** (P - 2.0) * (gv + 1.0 / (h * rr)) / rr

    def t3_value(rr):
        bracket = q * (q - P * (P - 1.0)) / np.sinh(rr) ** 2 + p * (
            p + 2.0 * q - P * (P - 1.0)
        ) / (4.0 * np.sinh(rr / 2.0) ** 2)
        return pref * gpow(rr) * bracket

    def v_value(rr):
        return -lam_p * gpow(rr)

    terms = (
        ("Hardy term", RadialScalar.from_value_only(t1_value)),
        ("drift term", RadialScalar.from_value_only(t2_value)),
        ("sinh terms", RadialScalar.from_value_only(t3_value)),
    )
    pair = WeightPair(
        theorem_id="p_dr",
        space=model.spec.descriptor(),
        params={"P": P},
        V=RadialScalar.from_value_only(v_value),
        W=_sum_terms(terms),
        terms=terms,
        ground_state=_sqrt_r_over_f(model, P),
        P=P,
        extras={
            "Lambda_P": lam_p,
            "g": g,
            "log_ground_state": _log_sqrt_r_over_f(model, P),
        },
    )
    return _maybe_sample(pair, r)


def hpw_g(p: int, q: int, r):
    """Comparison ratio 1/(4 r^2 W(r)) against the shifted-pair weight.

    Defined for q not in {0, 2} (where W differs from the plain Hardy term);
    the value lies strictly between 0 and 1.  The ratio equals 1/(1 + s) with
    surplus s = 4 r^2 (W - 1/(4 r^2)) assembled from the sinh terms alone, so
    s stays meaningful even when it is far below the rounding unit of 1; where
    1/(1 + s) would round up to 1.0 the result is nudged to the largest double
    below 1 to keep the strict bound visible.
    """
    validate_heisenberg_params(p, q)
    if q in (0, 2):
        raise PreconditionError("ratio needs q outside {0, 2}; W reduces to the Hardy term at q = 2")
    r = _check_radius(r)
    rr = np.asarray(r, dtype=float)
    half = _inverse_sinh_sq(p * (p + 2.0 * q - 2.0) / 16.0, 0.5)
    full = _inverse_sinh_sq(q * (q - 2.0) / 4.0, 1.0)
    surplus = 4.0 * rr**2 * (np.asarray(half.value(rr)) + np.asarray(full.value(rr)))
    if not np.all(np.isfinite(surplus)) or np.any(surplus <= 0.0):
        raise DomainError("comparison ratio left (0, 1); weight evaluation is suspect")
    out = np.minimum(1.0 / (1.0 + surplus), np.nextafter(1.0, 0.0))
    return float(out) if np.ndim(r) == 0 else out

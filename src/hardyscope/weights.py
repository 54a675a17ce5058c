"""Potential/weight pairs (V, W) for the radial Hardy-type inequalities.

Each builder assembles a WeightPair: a potential V, a weight W with a named
term breakdown that sums to W exactly, the logarithm of the ground state
where one exists, the measure where it is not 1, and the order P.  Every
builder takes the space's ``DensityModel``; those of the Damek-Ricci pairs
(A, gamma_dr, p_dr) refuse any other kind.  Every evaluator takes a positive
float or a numpy array and returns what numpy does for it, the same value
either way (powers are the ufuncs ``np.power`` and ``np.square``).  V, W,
their terms and the measure are values only, sums taken in a fixed order
(reading their jet raises PreconditionError); the log ground states keep
their jets.

Every curvature coefficient comes from one collapsed identity for
c (f'/f)^2 - b (f'/f)', ``calculus.hilfe_coefficients`` on the curved density
and (n-1)(c (n-1) + b) / r^2 on flat space: (c, b) = (1/4, -1/2) for the
quadratic, shifted and weighted pairs, (b^2 - b, b) negated for the collapsed
gamma pair and (1, -P(P-1)) for the quasi-linear pair.

Every ground state is a power r^a f^(-b), written once as its logarithm
l = a log r - b log f with the closed-form jet l' = a/r - b f'/f and
l'' = -a/r^2 - b (f'/f)' (``_log_ground_state``).  A pair carries that
scalar alone, never the ground state itself, so nothing passes through f,
which overflows once log f exceeds about 709.  The gamma
family's V takes its auxiliary function h = f^(1/(n-1)) through log h too.
The sinh terms read 0 where sinh overflows (past r = 355 for sinh(r)^2),
which is their value to double precision.

Evaluation strategy: V and W default to algebraically collapsed closed forms,
which stay accurate near the pole where the raw quotient-of-derivatives
expressions lose digits to cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import Jet2, RadialScalar, check_radius, hilfe_coefficients, power_law
from .errors import PreconditionError, QuadratureError
from .spaces import DAMEK_RICCI, EUCLIDEAN, DensityModel, validate_heisenberg_params

__all__ = [
    "WeightPair",
    "weight_theorem_b",
    "weight_dr_poincare",
    "weight_gamma_family",
    "weight_gamma_dr",
    "weight_weighted",
    "weight_p_dr",
    "hpw_g",
]


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass
class WeightPair:
    """A Hardy-type potential/weight pair with its breakdown.

    ``terms`` lists named components of W; their sum reproduces W exactly
    because W is constructed as that very sum.  ``log_ground_state`` is
    log Phi with its jet (None where the pair has no ground state).
    ``measure`` is an extra radial factor multiplying f in the underlying
    integrals (None means 1).
    """

    V: RadialScalar
    W: RadialScalar
    terms: tuple
    log_ground_state: RadialScalar | None = None
    measure: RadialScalar | None = None
    P: float = 2.0


# ---------------------------------------------------------------------------
# closed-form building blocks
# ---------------------------------------------------------------------------


def _inverse_square(coef: float) -> RadialScalar:
    """coef / r^2."""
    return RadialScalar(lambda r: coef / np.square(r))


def _inverse_sinh_sq(coef: float, a: float) -> RadialScalar:
    """coef / sinh(a r)^2."""

    def value(r):
        with np.errstate(over="ignore"):
            return coef / np.square(np.sinh(a * r))

    return RadialScalar(value)


def _sinh_terms(c_sr: float, c_sh: float) -> tuple:
    """The named terms c_sr/sinh(r)^2 and c_sh/sinh(r/2)^2 whose coefficient is nonzero."""
    pieces = (("sinh(r) term", c_sr, 1.0), ("sinh(r/2) term", c_sh, 0.5))
    return tuple((name, _inverse_sinh_sq(coef, a)) for name, coef, a in pieces if coef != 0.0)


def _drift_scalar(model: DensityModel, coef: float) -> RadialScalar:
    """coef * (f'/f) / r."""
    return RadialScalar(lambda r: coef * model.log_df(r) / r)


def _sum_terms(terms) -> RadialScalar:
    """The sum of the named terms' values, taken in their order."""
    scalars = [scalar for _, scalar in terms]

    def value(r):
        total = scalars[0].value(r)
        for scalar in scalars[1:]:
            total = total + scalar.value(r)
        return total

    return RadialScalar(value)


def _log_ground_state(model: DensityModel, a: float, b: float) -> RadialScalar:
    """The logarithm l of the ground state r^a f^(-b), with its jet.

    l = a log r - b log f, l' = a/r - b f'/f and l'' = -a/r^2 - b (f'/f)'.
    """

    def value(r):
        return a * np.log(r) - b * model.log_f(r)

    def jet(r):
        return Jet2(value(r), a / r - b * model.log_df(r), -a / np.square(r) - b * model.dlog_df(r))

    return RadialScalar(value, jet)


def _curvature_coefficients(model: DensityModel, c: float, b: float):
    """Coefficients of 1, sinh(r)^-2, sinh(r/2)^-2 and r^-2 in c (f'/f)^2 - b (f'/f)'.

    Flat space has the r^-2 term (n-1)(c(n-1)+b) alone, curved spaces the
    other three, from ``hilfe_coefficients``.
    """
    if model.kind == EUCLIDEAN:
        return 0.0, 0.0, 0.0, (model.n - 1) * (c * (model.n - 1) + b)
    return *hilfe_coefficients(c, b, model.p, model.q), 0.0


def _require_dr(model: DensityModel, what: str) -> None:
    if model.kind != DAMEK_RICCI:
        raise PreconditionError(f"{what} needs a Damek-Ricci space, got {model.descriptor()}")


# ---------------------------------------------------------------------------
# quadratic pair with ground state (r/f)^{1/2}
# ---------------------------------------------------------------------------


def weight_theorem_b(model: DensityModel):
    """Pair with V = ((f')^2 - 2 f f'')/(4 f^2), W = 1/(4 r^2).

    The ground state is (r/f)^(1/2).  On flat space the combined density
    W - V collapses to the single classical Hardy coefficient (n-2)^2/4 over
    r^2.
    """
    # -V is the form at (c, b) = (1/4, -1/2)
    const, c_sr, c_sh, c_r2 = _curvature_coefficients(model, 0.25, -0.5)
    if model.kind == EUCLIDEAN:
        v_scalar = _inverse_square(-c_r2)
    else:
        curvature = (("lambda0 shift", RadialScalar.constant(const)),) + _sinh_terms(c_sr, c_sh)
        curvature_sum = _sum_terms(curvature)
        v_scalar = RadialScalar(lambda r: -curvature_sum.value(r))

    terms = (("1/(4r^2)", _inverse_square(0.25)),)
    return WeightPair(
        V=v_scalar,
        W=_sum_terms(terms),
        terms=terms,
        log_ground_state=_log_ground_state(model, 0.5, 0.5),
    )


def weight_dr_poincare(model: DensityModel):
    """Shifted pair on the two-parameter spaces: V = -lambda0, explicit W.

    W = 1/(4 r^2) + p(p+2q-2)/(16 sinh(r/2)^2) + q(q-2)/(4 sinh(r)^2), with
    ground state (r/f)^(1/2).  W is nonnegative for every admissible (p, q).
    """
    _require_dr(model, "theorem A")
    _, c_sr, c_sh, _ = _curvature_coefficients(model, 0.25, -0.5)
    terms = (
        ("1/(4r^2)", _inverse_square(0.25)),
        ("sinh(r/2) term", _inverse_sinh_sq(c_sh, 0.5)),
        ("sinh(r) term", _inverse_sinh_sq(c_sr, 1.0)),
    )
    return WeightPair(
        V=RadialScalar.constant(-model.lambda0),
        W=_sum_terms(terms),
        terms=terms,
        log_ground_state=_log_ground_state(model, 0.5, 0.5),
    )


# ---------------------------------------------------------------------------
# one-parameter family with auxiliary radial function
# ---------------------------------------------------------------------------


def weight_gamma_family(model: DensityModel, gamma: float):
    """One-parameter deformation of the quadratic pair.

    W = (1 - 4 gamma^2)/(4 r^2) and V collects the density curvature together
    with a gamma-weighted correction built from the auxiliary function
    h = f^(1/(n-1)), which grows like r near the pole:

        V = -[ f''/(2f) - (f'/f)^2/4
               + gamma ( h''/h + (1+2 gamma) h'/(r h) - (1+gamma)(h'/h)^2 ) ].

    Ground state r^(1/2+gamma) f^(-1/2) h^(-gamma) = r^(1/2+gamma) f^(-b)
    with b = 1/2 + gamma/(n-1).  V takes h through l = log h, with
    h'/h = l' and h''/h = l'' + l'^2, so it stays finite where h overflows
    with f.  gamma = 0 reduces to weight_theorem_b; gamma = 1/2 kills the
    Hardy term entirely.
    """
    gamma = float(gamma)
    if not 0.0 <= gamma <= 0.5:
        raise PreconditionError("gamma must lie in [0, 1/2]")

    def v_value(rr):
        # f'/f and (f'/f)' once; f''/f = (f'/f)' + (f'/f)^2 as in DensityModel.d2f_over_f
        log_df, dlog_df = model.log_df(rr), model.dlog_df(rr)
        base = 0.5 * (dlog_df + np.square(log_df)) - 0.25 * np.square(log_df)
        # l' and l'' of l = log h = log f / (n-1)
        d1 = log_df / (model.n - 1.0)
        d2 = dlog_df / (model.n - 1.0)
        correction = gamma * (d2 + (1.0 + 2.0 * gamma) * d1 / rr - gamma * np.square(d1))
        return -(base + correction)

    terms = (("(1-4*gamma^2)/(4r^2)", _inverse_square((1.0 - 4.0 * gamma**2) / 4.0)),)
    return WeightPair(
        V=RadialScalar(v_value),
        W=_sum_terms(terms),
        terms=terms,
        log_ground_state=_log_ground_state(model, 0.5 + gamma, 0.5 + gamma / (model.n - 1.0)),
    )


def weight_gamma_dr(model: DensityModel, gamma: float):
    """Collapsed form of the gamma family on the two-parameter spaces.

    With m = p+q, b = 1/2 + gamma/m and d = b^2 - b the pair collapses to
    V = -(1 - (2 gamma/m)^2) lambda0 and

        W = (1-4 gamma^2)/(4 r^2) + gamma(1+2 gamma)/m * (f'/f)/r
            - q (q d + b)/sinh(r)^2 - p ((p+2q) d + b)/(4 sinh(r/2)^2),

    which agrees pointwise with weight_gamma_family.
    The ground state collapses to r^(1/2+gamma) f^(-b).
    """
    _require_dr(model, "the closed-form gamma decomposition")
    gamma = float(gamma)
    if not 0.0 <= gamma <= 0.5:
        raise PreconditionError("gamma must lie in [0, 1/2]")
    m = float(model.p + model.q)
    b = 0.5 + gamma / m
    d = b * b - b
    shift = (1.0 - (2.0 * gamma / m) ** 2) * model.lambda0
    drift_coef = gamma * (1.0 + 2.0 * gamma) / m
    _, c_sr, c_sh, _ = _curvature_coefficients(model, d, b)

    terms = (
        ("(1-4*gamma^2)/(4r^2)", _inverse_square((1.0 - 4.0 * gamma**2) / 4.0)),
        ("drift term", _drift_scalar(model, drift_coef)),
        ("sinh(r) term", _inverse_sinh_sq(-c_sr, 1.0)),
        ("sinh(r/2) term", _inverse_sinh_sq(-c_sh, 0.5)),
    )
    return WeightPair(
        V=RadialScalar.constant(-shift),
        W=_sum_terms(terms),
        terms=terms,
        log_ground_state=_log_ground_state(model, 0.5 + gamma, b),
    )


# ---------------------------------------------------------------------------
# weighted measure variant
# ---------------------------------------------------------------------------


def weight_weighted(model: DensityModel, alpha: float):
    """Hardy density against the measure r^(-2 alpha) f dr.

    The full density is (2 f f'' - (f')^2)/(4 f^2) - alpha f'/(r f)
    + (4 alpha + 1)/(4 r^2).  On the two-parameter spaces the constant part
    lambda0 is split off into V; elsewhere V = 0 and W carries everything.
    The density may change sign (only the integral inequality is claimed),
    and there is no ground state attached.  At alpha = 0 the pair carries no
    measure (r^0 = 1).
    """
    alpha = float(alpha)
    if not alpha >= 0.0:
        raise PreconditionError("alpha must be nonnegative")
    if model.n < 2.0 * (1.0 + alpha):
        raise PreconditionError(f"weighted pair needs n >= 2(1+alpha): n={model.n}, alpha={alpha}")

    const, c_sr, c_sh, c_r2 = _curvature_coefficients(model, 0.25, -0.5)
    hardy_coef = (4.0 * alpha + 1.0) / 4.0
    drift = _drift_scalar(model, -alpha)

    terms: tuple = ()
    if model.kind == DAMEK_RICCI:
        v_scalar = RadialScalar.constant(-model.lambda0)
    else:
        v_scalar = RadialScalar.constant(0.0)
        if const != 0.0:
            terms += (("lambda0 shift", RadialScalar.constant(const)),)
    if c_r2 != 0.0:
        terms += (("flat curvature term", _inverse_square(c_r2)),)
    terms += _sinh_terms(c_sr, c_sh)
    terms += (("drift term", drift), ("(4*alpha+1)/(4r^2)", _inverse_square(hardy_coef)))

    return WeightPair(
        V=v_scalar,
        W=_sum_terms(terms),
        terms=terms,
        measure=RadialScalar(lambda rr: np.power(rr, -2.0 * alpha)) if alpha else None,
    )


# ---------------------------------------------------------------------------
# quasi-linear pair
# ---------------------------------------------------------------------------


def weight_p_dr(model: DensityModel, P: float):
    """Quasi-linear pair with ground state (r/f)^(1/P) on the two-parameter spaces.

    V = -Lambda_P g^(P-2) with Lambda_P = (h/P)^P and the comparison function
    g(r) = coth(r/2) - (2/(p+2q))(q/sinh r + 1/r); W is the sum of the three
    right-hand-side densities, each individually nonnegative under the
    precondition p+q >= P(P-1).  Each constant is one ``calculus.power_law``,
    from its log where a power leaves the doubles (h^(P-2) on dr:20000,1 at P = 100).
    """
    _require_dr(model, "the p-Laplacian pair")
    P = float(P)
    if not P >= 2.0:
        raise PreconditionError("quasi-linear pair needs P >= 2")
    p, q = model.p, model.q
    if p + q < P * (P - 1.0):
        raise PreconditionError(f"quasi-linear pair needs n >= 1 + P(P-1): n={model.n}, P={P}")
    h = model.h
    lam_p = power_law(h / P, P)
    pref = power_law(1.0, P, P, (h, P - 2.0))  # h^(P-2) / P^P
    c_drift = (P - 2.0) * power_law(1.0, P, P, (h, P - 1.0))  # h^(P-1) (P-2) / P^P
    k = 2.0 / (p + 2.0 * q)

    def g_powers(rr):
        # g and g^(P-2), once per evaluation of W, V or a term
        with np.errstate(over="ignore"):
            g = 1.0 / np.tanh(rr / 2.0) - k * (q / np.sinh(rr) + 1.0 / rr)
        return g, np.power(g, P - 2.0)

    _, c_sr, c_half = hilfe_coefficients(1.0, -P * (P - 1.0), p, q)

    def hardy(rr, g, gpow):
        return pref * (P - 1.0) ** 2 * gpow / np.square(rr)

    def drift(rr, g, gpow):
        return c_drift * gpow * (g + 1.0 / (h * rr)) / rr

    def sinh_terms(rr, g, gpow):
        with np.errstate(over="ignore"):
            bracket = c_sr / np.square(np.sinh(rr)) + c_half / np.square(np.sinh(rr / 2.0))
        return pref * gpow * bracket

    def w_value(rr):
        g = g_powers(rr)
        return hardy(rr, *g) + drift(rr, *g) + sinh_terms(rr, *g)

    def v_value(rr):
        return -lam_p * g_powers(rr)[1]

    parts = (("Hardy term", hardy), ("drift term", drift), ("sinh terms", sinh_terms))
    terms = tuple((name, RadialScalar(lambda rr, term=term: term(rr, *g_powers(rr)))) for name, term in parts)
    return WeightPair(
        V=RadialScalar(v_value),
        W=RadialScalar(w_value),
        terms=terms,
        log_ground_state=_log_ground_state(model, 1.0 / P, 1.0 / P),
        P=P,
    )


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
    r = check_radius(r)
    _, c_sr, c_half = hilfe_coefficients(0.25, -0.5, p, q)
    # past r of about 710 both sinh terms underflow to exactly 0 and the
    # ratio is the nudged value below 1
    with np.errstate(over="ignore"):
        surplus = 4.0 * np.square(r) * (c_half / np.square(np.sinh(r / 2.0)) + c_sr / np.square(np.sinh(r)))
    if not np.all(np.isfinite(surplus) & (surplus >= 0.0)):
        raise QuadratureError("comparison ratio left (0, 1); weight evaluation is suspect")
    return np.minimum(1.0 / (1.0 + surplus), np.nextafter(1.0, 0.0))

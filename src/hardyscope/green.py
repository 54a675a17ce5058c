"""P-Green functions with error bounds, and the induced weights.

The central quantity is I(r) = integral of f^(-1/(P-1)) from r to infinity.
Two complementary formulations are used:

* a direct quadrature of the (positive) integrand, scaled by f(r)^(1/(P-1))
  so every intermediate stays of order one, with the tail beyond a far cutoff
  bracketed through the monotonicity of f'/f;
* an excess-integral form for the logarithmic derivative: writing
  L = f'/f and h = lim L, integration by parts gives

      I(r) = (P-1)/h * f(r)^(-1/(P-1)) - J(r),
      J(r) = integral of ((L-h)/h) * f^(-1/(P-1)) from r to infinity >= 0,

  so the ratio rho = h f^(1/(P-1)) I/(P-1) = 1 - h J f^(1/(P-1))/(P-1) is
  computed as one minus a nonnegative quantity.  Since |G'/G| = h/((P-1) rho),
  the weight W = Lambda_P rho^(-P) then satisfies W >= Lambda_P by
  construction, with no cancellation at large radii.

The excess form wins for r >= 1 (where the direct form would subtract nearly
equal exponentials); the direct form wins for small r (where rho itself is
tiny).  One Gauss-Legendre engine, ``green_weight_batch``, evaluates both
over a whole radius grid and carries an error bound; ``green_value`` is that
batch with G certified.  It integrates one vectorised pass of panels per form;
radii that lie within about one e-folding of each other share a panel and
are read off its interpolant, so on a dense grid the density is evaluated
on a number of nodes set by the span of the radii, not by their count.
The near cutoff, where f'/f comes within 0.1% of h, is the root of a
quadratic in exp(-r) and taken in closed form.  So is the total integral
G(0) over (0, inf), finite for P > n, which is a Beta function; the module
imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import PanelPlan, RadialScalar, check_radius
from .errors import PreconditionError, QuadratureError
from .spaces import EUCLIDEAN, DensityModel
from .weights import WeightPair

__all__ = [
    "green_value",
    "green_weight",
    "green_weight_batch",
    "green_gamma0",
    "green_weight_supercritical",
    "AsymptoticPrediction",
    "asymptotic_prediction",
]


def __getattr__(name: str):
    # Only for the benchmark's traced pass, which wraps ``green.integrate.quad``
    # by attribute; nothing here uses scipy.  ROADMAP item 1 deletes this hook.
    if name == "integrate":
        from scipy import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: smallest P the Green engine takes: the panel width is 8 (P-1)/h, so the
#: cost grows like h/(P-1); at this floor ``green eval`` on the default grid
#: takes about 0.4 s on dr:32,8 (h = 24)
P_MIN = 1.001
#: relative slack of f'/f over its limit h defining the near cutoff
_CUTOFF_EXCESS = 1e-3
_EPS = float(np.finfo(float).eps)
#: knots of a chain that must share cells before the read-off of shared
#: panels, whose numpy calls cost about as much as a hundred panels, saves time
_MIN_SHARED = 128
#: the most panels one chain may lay, refused before any allocation; a panel
#: costs about 0.1 kB and 0.8 us (``green eval`` at P_MIN on hyperbolic:440
#: lays 3.9M and takes 3.2 s and 0.36 GB)
_MAX_PANELS = 4_000_000


def _log_unit_sphere_volume(n: int) -> float:
    """log of the unit (n-1)-sphere's volume 2 pi^(n/2) / Gamma(n/2), finite for n >= 344."""
    return math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n)


def _power(base: float, P: float) -> float:
    """base ** P, or inf past the double range, where Python's float power raises."""
    try:
        return base**P
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# cutoffs and tails
# ---------------------------------------------------------------------------


def _cutoff_radius(model: DensityModel) -> float:
    """Smallest radius where f'/f exceeds its limit h by at most 0.1%.

    With z = exp(-R) and coth x - 1 = 2 exp(-2x) / (1 - exp(-2x)), the
    equation excess(R) = c, c = 0.1% of h, is the quadratic
    (2h + c) z^2 + p z - c = 0 with the model's p (0 on hyperbolic space).
    Its positive root is taken in the form
    2c / (p + sqrt(p^2 + 4c(2h + c))), which has no cancellation.
    """
    if model.kind == EUCLIDEAN:
        raise PreconditionError("flat space has no exponential tail cutoff")
    h = model.h
    c = _CUTOFF_EXCESS * h
    p = model.p
    return -math.log(2.0 * c / (p + math.sqrt(p * p + 4.0 * c * (2.0 * h + c))))


def _far_cutoff(model: DensityModel, P: float, r: float) -> float:
    """Radius beyond which the bracketed tail is negligible at double precision.

    The tail scale decays like exp(-h (t - r)/(P-1)); 46 e-foldings push it
    below 1e-20 of the local value, and the additive 12 absorbs the slower
    decay of the excess factor in the J-form tail.  Past P = 1 + h the
    distance stops growing: the J tail's share of delta is at most
    excess(R_far)/h whatever P is, and the excess decays at least like
    exp(-(t - R_near)) beyond the near cutoff R_near, so 58 units put that
    share below 1e-3 exp(-58).
    """
    base = max(r, _cutoff_radius(model))
    return base + 46.0 * min(P - 1.0, model.h) / model.h + 12.0


def _tail_bracket_scaled(model: DensityModel, P: float, R: float, log_f_ref: float):
    """Bracket of the integral of f^(-1/(P-1)) beyond R, scaled by f(ref)^(1/(P-1)).

    Monotone decay of f'/f toward h gives
    (P-1)/L(R) <= tail * f(R)^(1/(P-1)) <= (P-1)/h.
    Returns (midpoint, half_width), both scaled by exp(log_f_ref/(P-1)).
    """
    s = 1.0 / (P - 1.0)
    scale = math.exp(-s * (model.log_f(R) - log_f_ref))
    hi = (P - 1.0) / model.h * scale
    lo = (P - 1.0) / model.log_df(R) * scale
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


# ---------------------------------------------------------------------------
# the Green engine (deterministic Gauss-Legendre panels)
# ---------------------------------------------------------------------------


def _panel_width(rate: float) -> float:
    """Panel width resolving a decay rate: at most 8 e-foldings per panel."""
    return min(0.5, 8.0 / max(rate, 1.0))


def green_weight_batch(model: DensityModel, P: float, radii) -> dict:
    """Green function and Green weight over a radius grid, with error bounds.

    Returns arrays keyed by "G", "G_err", "dlogG", "W", "Wtilde", "rho",
    "delta", in the order of ``radii`` (unsorted and repeated radii are
    allowed).  The distinct radii are the knots of two chains, the excess
    integral J from 1 up to the far cutoff and the direct integral below 1
    in log r, each one ``PanelPlan`` pass.  On a dense grid, knots that
    share a cell about one e-folding of the integrand wide share a segment,
    which starts at the first of them; the others are read off that
    segment's first panel (``_chain``).  The integrand of segment [a, b] is
    scaled by f(a)^(1/(P-1)), so every intermediate stays of order one, and
    a float recurrence chains the segments downward.  The positivity
    W >= Lambda_P survives in floating point because delta is assembled from
    nonnegative panel sums.

    G_err bounds |G - G_exact| by three parts: the null-rule panel estimates
    of ``PanelPlan`` (with the rounding of the read-off for a knot inside a
    panel) and the bracket half-width of the tail beyond the far cutoff,
    both carried through the same scaled recurrences as the integrals, plus
    a rounding floor 8 eps (1 + |log f(r) + log omega_n|/(P-1)) G.  The floor
    covers the one exponential exp(-(log f(r) + log omega_n)/(P-1)) that
    scales G: an error of a few ulps in its exponent is a relative error in G
    of that many ulps of the exponent.  Taking omega_n^(-1/(P-1)) inside that
    exponential keeps G finite near P = 1, where the factor alone underflows
    while f(r)^(-1/(P-1)) overflows; the flat closed form takes it the same
    way.  Where G overflows near the pole, G_err is infinite.  P below
    ``P_MIN`` is refused.
    """
    P = float(P)
    if not 1.0 < P < math.inf:
        raise PreconditionError("Green function needs a finite P > 1")
    if P < P_MIN:
        raise PreconditionError(
            f"Green function needs P >= {P_MIN}: its panels narrow like (P-1)/h, so the cost grows without bound as P -> 1"
        )
    radii = np.atleast_1d(check_radius(radii))
    s = 1.0 / (P - 1.0)
    n = model.n
    log_omega = _log_unit_sphere_volume(n)

    if model.kind == EUCLIDEAN:
        if P >= n:
            raise PreconditionError("flat-space Green integral diverges unless P < n")
        # G = omega_n^(-s) r^(1-k)/(k-1) as one exponential, as below
        k = (n - 1.0) * s
        exponent = s * (model.log_f(radii) + log_omega)
        with np.errstate(over="ignore"):
            G = radii * np.exp(-exponent) / (k - 1.0)
        dlog = -(n - P) / ((P - 1.0) * radii)
        with np.errstate(over="ignore", invalid="ignore"):
            W = _power((n - P) / P, P) * radii ** (-P)
            if not np.isfinite(W).all():
                # ((n-P)/P)^P or r^(-P) leaves the double range: one exponential
                W = np.where(np.isfinite(W), W, np.exp(P * (math.log((n - P) / P) - np.log(radii))))
        G_err = _rounding_floor(G, exponent)
        nan = np.full_like(radii, np.nan)
        return {"G": G, "G_err": G_err, "dlogG": dlog, "W": W, "Wtilde": W.copy(), "rho": nan, "delta": nan}

    h = model.h
    lam_p = _power(h / P, P)

    # knots: every distinct radius, the anchor 1 when radii below 1 are
    # present, and the far cutoff; at[i] is the knot of radii[i]
    knots, at = np.unique(radii, return_inverse=True)
    lo = knots[knots < 1.0]
    hi = knots[knots >= 1.0]
    if lo.size and (not hi.size or hi[0] > 1.0):
        hi = np.concatenate(([1.0], hi))
        at[at >= lo.size] += 1
    R_far = _far_cutoff(model, P, float(hi[-1]))
    points = np.concatenate((lo, hi, [R_far]))
    lf = model.log_f(points)

    # J chain: the excess integral from the knots >= 1, ending in the
    # bracketed tail beyond R_far, which is scaled to the top knot (so its
    # log f closes the chain)
    def j_integrand(t, ref):
        return model.excess(t) / h * np.exp(-s * (model.log_f(t) - ref))

    tail_mid, tail_half = _tail_bracket_scaled(model, P, R_far, float(lf[-2]))
    # the J tail lies in [0, excess(R_far)/h * (tail_mid + tail_half)]
    tail_factor = model.excess(R_far) / h
    tail, tail_err = 0.5 * tail_factor * tail_mid, tail_factor * (0.5 * tail_mid + tail_half)
    lf_j = lf[lo.size :].copy()
    lf_j[-1] = lf[-2]
    j_hat, j_err = _chain(points[lo.size :], lf_j, s * h + 1.0, s, j_integrand, tail, tail_err)
    delta = h * j_hat / (P - 1.0)
    rho = 1.0 - delta
    rho_err = h * j_err / (P - 1.0)

    if lo.size:
        # D chain: the direct integral in u = log t from the knots < 1,
        # ending at the anchor with the J chain's value there
        def d_integrand(u, ref):
            t = np.exp(u)
            return np.exp(-s * (model.log_f(t) - ref)) * t

        u_d, rate_d = np.log(points[: lo.size + 1]), 1.0 + s * (n - 1.0) * 1.2
        start, start_err = (P - 1.0) * rho[0] / h, (P - 1.0) * rho_err[0] / h
        i_hat, i_err = _chain(u_d, lf[: lo.size + 1], rate_d, s, d_integrand, start, start_err)
        rho_d = h * i_hat / (P - 1.0)
        rho = np.concatenate((rho_d, rho))
        delta = np.concatenate((1.0 - rho_d, delta))
        rho_err = np.concatenate((h * i_err / (P - 1.0), rho_err))

    # the knots below R_far are ordered like rho
    rho, delta, rho_err = rho[at], delta[at], rho_err[at]
    dlog = -h / ((P - 1.0) * rho)
    # W - Lambda_P from whichever of rho, delta = 1 - rho carries it exactly:
    # past delta = 1/2 the rounding of delta would cost P eps / rho relative
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = -P * np.where(delta < 0.5, np.log1p(-delta), np.log(rho))
        W = lam_p * rho ** (-P)
        wtilde = lam_p * np.expm1(x)
        if not (np.isfinite(W).all() and np.isfinite(wtilde).all()):
            # at large P, Lambda_P leaves the double range or its factor
            # does; there each is one exponential, from log Lambda_P, and
            # Wtilde = Lambda_P e^x (1 - e^-x)
            log_lam = P * math.log(h / P)
            W = np.where(np.isfinite(W), W, np.exp(log_lam - P * np.log(rho)))
            wtilde = np.where(np.isfinite(wtilde), wtilde, np.exp(log_lam + x + np.log(-np.expm1(-x))))
    exponent = s * (lf[at] + log_omega)
    # G overflows near the pole when the exponent is hugely negative; the
    # infinite G_err then refuses the row
    with np.errstate(over="ignore"):
        G = (P - 1.0) / h * rho * np.exp(-exponent)
    G_err = G * (rho_err / rho) + _rounding_floor(G, exponent)
    return {"G": G, "G_err": G_err, "dlogG": dlog, "W": W, "Wtilde": wtilde, "rho": rho, "delta": delta}


def _chain(x, lf, rate: float, s: float, integrand, value: float, error: float):
    """Scaled integrals from every point x[:-1] to the chain end x[-1], with bounds.

    ``lf`` holds log f at the points, and last the log f by whose power s
    ``value`` (the integral beyond the end) and its ``error`` are scaled.
    ``integrand(nodes, ref)`` is a segment's integrand scaled by exp(s ref),
    ref the log f at the segment's start.  The result at x_i is scaled by
    f(x_i)^s, so it stays of order one.

    Once at least ``_MIN_SHARED`` points share cells floor(x / c), with
    c = min(half a panel, 1 / rate) about one e-folding of the scaled
    integrand (rate also sets the panel width), the points of a cell share
    one segment, which starts at the first of them.  Below that only
    coinciding points (radii that share a logarithm) share a segment, and
    where none coincide the segments are the gaps between the points, as
    many as there are points.  A point that does not start its segment lies
    in the segment's first panel: its integral is read off that panel
    (``integrate_from``) plus the segment's later panels and the carried
    value of the next one.  The end lies past every point's cell, so it
    always closes a segment.
    """
    width = _panel_width(rate)
    lead = x[1:] != x[:-1]
    if x.size > _MIN_SHARED:
        cell = np.floor(x / min(0.5 * width, 1.0 / rate))
        in_cells = cell[1:] != cell[:-1]
        if in_cells.size - np.count_nonzero(in_cells) >= _MIN_SHARED:
            lead = in_cells
    grouped = not lead.all()
    if grouped:
        lead = np.concatenate(([True], lead))
    x_c, lf_c = (x[lead], lf[lead]) if grouped else (x, lf)
    panels = np.ceil(np.diff(x_c) / width).sum()
    if not panels <= _MAX_PANELS:
        raise QuadratureError(f"green integral needs {panels:.3g} panels of width {width:.3g}, more than {_MAX_PANELS:,}")
    carry = np.exp(-s * np.diff(lf_c))
    plan = PanelPlan(x_c[:-1], x_c[1:], width)

    def scaled(t, k):
        return integrand(t, lf_c[k])

    if not grouped:
        seg, seg_err = plan.integrate(scaled)
        values, errors = _carry_down(seg, seg_err, carry, value, error)
        return values[:-1], errors[:-1]
    inner = ~lead
    k = np.cumsum(lead)[inner] - 1
    seg, seg_err, part, part_err = plan.integrate_from(scaled, x[inner], k)
    values, errors = _carry_down(seg, seg_err, carry, value, error)
    # from the scale of the segment's start to that of the point
    scale = np.exp(s * (lf[inner] - lf_c[k]))
    out, out_err = np.empty(x.size), np.empty(x.size)
    out[lead], out_err[lead] = values, errors
    out[inner] = scale * (part + (carry * values[1:])[k])
    out_err[inner] = scale * (part_err + (carry * errors[1:])[k])
    return out[:-1], out_err[:-1]


def _carry_down(seg, seg_err, carry, value: float, error: float):
    """Backward recurrence x_k = seg_k + carry_k x_(k+1), and its error bound.

    Starts from ``value``/``error`` beyond the last segment and returns the
    values at the left end of every segment, then the starting ones.  The
    scaled carries stay at most one, so the float loop never over- or
    underflows; it runs in Python floats, which numpy scalars would slow.
    """
    value, error = float(value), float(error)
    values, errors = [value], [error]
    for x, e, c in zip(reversed(seg.tolist()), reversed(seg_err.tolist()), reversed(carry.tolist())):
        value = x + c * value
        error = e + c * error
        values.append(value)
        errors.append(error)
    return np.array(values[::-1]), np.array(errors[::-1])


def _rounding_floor(G: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    return 8.0 * _EPS * (1.0 + np.abs(exponent)) * G


def green_value(model: DensityModel, P: float, radii, tol: float = 1e-10) -> dict:
    """``green_weight_batch`` over ``radii``, once every G is certified to ``tol``.

    G(r) = omega_n^(-1/(P-1)) * integral_r^inf f(t)^(-1/(P-1)) dt.  On flat
    space the integral only converges for P < n; elsewhere the exponential
    volume growth makes it converge for every P > 1.  Raises QuadratureError
    at the first radius whose G is not a finite normal double (below that
    range it keeps too few digits for G_err to mean anything) or whose G_err
    exceeds ``tol``; NaN fails both tests.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    batch = green_weight_batch(model, P, radii)
    G, G_err = batch["G"], batch["G_err"]
    bad = ~((G >= np.finfo(float).tiny) & (G < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        state = "underflows" if np.isfinite(G[i]) else "is not finite"
        raise QuadratureError(f"green value at r={radii[i]} {state}: G={G[i]:.3e}")
    bad = ~(G_err <= tol)
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(f"green value at r={radii[i]} certified only to {G_err[i]:.3e} > tol={tol:.3e}")
    return batch


# ---------------------------------------------------------------------------
# the Green weight as a pair
# ---------------------------------------------------------------------------


def green_weight(model: DensityModel, P: float):
    """Hardy weight of the P-Laplacian built from the Green function.

    W = ((P-1)/P)^P |G'/G|^P with V = 0 and no ground state; the surplus
    W - Lambda_P is the "Wtilde" column of ``green_weight_batch``.
    """
    P = float(P)
    if not P > 1.0:
        raise PreconditionError("Green weight needs P > 1")
    if model.kind == EUCLIDEAN:
        raise PreconditionError("the Green weight construction excludes flat space")

    w_scalar = RadialScalar(lambda rr: green_weight_batch(model, P, rr)["W"])
    terms = (("((P-1)/P)^P |G'/G|^P", w_scalar),)
    return WeightPair(
        theorem_id="green_p",
        V=RadialScalar.constant(0.0),
        W=w_scalar,
        terms=terms,
        P=P,
    )


# ---------------------------------------------------------------------------
# total integral, supercritical weight, asymptotic regimes
# ---------------------------------------------------------------------------


def _total_integral(model: DensityModel, P: float) -> float:
    """Integral of f^(-1/(P-1)) over (0, inf); finite exactly when P > n.

    With s = 1/(P-1), the curved density f = 2^(p+q) sinh(t/2)^(p+q)
    cosh(t/2)^q (p = 0 on hyperbolic space) and x = tanh(t/2)^2,
    dt = dx / (sqrt(x) (1 - x)) and f^(-s) = 2^(-A) x^(-A/2) (1 - x)^((A+B)/2)
    with A = (n-1)s, B = qs.  So the integral is the Beta function

        2^(-A) B(a, b) = 2^(-A) Gamma(a) Gamma(b) / Gamma(a + b),
        a = (1 - A)/2 = (P - n)/(2(P-1)),  b = (A + B)/2,

    which converges exactly when a > 0.  The first argument is written from
    P - n because 1 - A cancels as P -> n.  For every finite P > n both
    arguments lie in (0, 1), so no Gamma value overflows; the quotient is
    taken first, so the result stays finite up to the largest double P.
    """
    P = float(P)
    n = model.n
    if not n < P < math.inf:
        raise PreconditionError("total Green integral needs a finite P > n")
    s = 1.0 / (P - 1.0)
    A = (n - 1.0) * s
    a = 0.5 * (P - n) / (P - 1.0)
    b = 0.5 * (A + model.q * s)
    return 2.0**-A * math.gamma(a) * (math.gamma(b) / math.gamma(a + b))


def green_gamma0(model: DensityModel, P: float) -> float:
    """G(0), finite for P > n; the supercritical weight's reference constant.

    G(0) = omega_n^(-1/(P-1)) times the total integral of f^(-1/(P-1)), a
    Beta function in closed form (``_total_integral``).
    """
    if model.kind == EUCLIDEAN:
        raise PreconditionError("flat-space Green function is unbounded at the pole")
    if not P > model.n:
        raise PreconditionError("G(0) is finite only for P > n")
    beta = math.exp(-_log_unit_sphere_volume(model.n) / (P - 1.0))
    return beta * _total_integral(model, P)


def green_weight_supercritical(model: DensityModel, P: float, r: float) -> float:
    """Hardy weight for P > n built from the bounded Green function.

    With gamma = G(0), returns
    ((P-1)/P)^P |G'/G|^P |gamma - 2G|^(P-2) / |gamma - G|^P
    * (gamma^2 + 2(P-2) G (gamma - G)), with G and G'/G from one
    ``green_value`` call, so G is certified to 1e-10.
    """
    P = float(P)
    if P <= model.n:
        raise PreconditionError("supercritical weight needs P > n")
    gamma = green_gamma0(model, P)
    batch = green_value(model, P, r)
    G, dlog = float(batch["G"][0]), float(batch["dlogG"][0])
    lead = ((P - 1.0) / P) ** P * abs(dlog) ** P
    return (
        lead
        * abs(gamma - 2.0 * G) ** (P - 2.0)
        / abs(gamma - G) ** P
        * (gamma**2 + 2.0 * (P - 2.0) * G * (gamma - G))
    )


@dataclass
class AsymptoticPrediction:
    """Predicted small-radius behaviour of the Green surplus weight; the
    regime "P=n" carries a logarithmic correction to the power law."""

    regime: str
    value: float | np.ndarray
    exponent: float


def asymptotic_prediction(model: DensityModel, P: float, r) -> AsymptoticPrediction:
    """Predicted Wtilde(r) as r -> 0, by exponent regime.

    P < n:  ((n-P)/P)^P r^(-P)
    P = n:  ((P-1)/P)^P |r ln r|^(-P)
    P > n:  C r^(-P(n-1)/(P-1)) with C = ((P-1)/P)^P (integral of f^(-1/(P-1)))^(-P)
    """
    P = float(P)
    if not P > 1.0:
        raise PreconditionError("Green weight needs P > 1")
    n = model.n
    r = check_radius(r)
    # past the double range a coefficient or value is inf (0 * inf is NaN)
    with np.errstate(over="ignore", invalid="ignore"):
        if abs(P - n) < 1e-9:
            return AsymptoticPrediction("P=n", ((P - 1.0) / P) ** P * np.power(np.abs(r * np.log(r)), -P), -P)
        if P < n:
            return AsymptoticPrediction("P<n", _power((n - P) / P, P) * np.power(r, -P), -P)
        coef = ((P - 1.0) / P) ** P * _power(_total_integral(model, P), -P)
        expo = -P * (n - 1.0) / (P - 1.0)
        return AsymptoticPrediction("P>n", coef * np.power(r, expo), expo)

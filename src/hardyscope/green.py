"""P-Green functions with error bounds, and the induced weights.

The central quantity is I(r) = integral of f^(-1/(P-1)) from r to infinity.
Two complementary formulations are used:

* a direct quadrature of the (positive) integrand, scaled by f(r)^(1/(P-1))
  so every intermediate stays of order one, with the tail beyond a far cutoff
  bounded through the growth bound f'/f >= h;
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
batch with G certified.  It integrates both forms in one vectorised pass of
panels; radii within about one e-folding of each other share a panel and
are read off its interpolant, so on a dense grid the density is evaluated
on a number of nodes set by the span of the radii, not by their count.
The integral of f^(-1/(P-1)) over (0, inf), finite for P > n, is a Beta
function in closed form that sets the small-radius law there; the module
imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import _TINY, PanelPlan, RadialScalar, check_radius, exp_rounding, power_law
from .errors import PreconditionError, QuadratureError
from .spaces import EUCLIDEAN, DensityModel
from .weights import WeightPair

__all__ = [
    "green_value",
    "green_weight",
    "green_weight_batch",
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
#: knots of a chain that must share cells before the read-off of shared
#: panels, whose numpy calls cost about as much as a hundred panels, saves time
_MIN_SHARED = 128
#: the most panels one chain may lay, refused before any allocation; a panel
#: costs about 0.1 kB and 0.8 us (``green eval`` at P_MIN on hyperbolic:440
#: lays 3.9M and takes 3.2 s and 0.36 GB)
_MAX_PANELS = 4_000_000
_FLAT_DIVERGES = "flat-space Green integral diverges unless P < n"


def _check_order(P: float) -> float:
    """P as a float, once it is an order the Green engine takes: a finite P >= ``P_MIN``."""
    P = float(P)
    if not 1.0 < P < math.inf:
        raise PreconditionError("Green function needs a finite P > 1")
    if P < P_MIN:
        raise PreconditionError(f"Green function needs P >= {P_MIN}: its panels narrow like (P-1)/h, so the cost grows without bound as P -> 1")
    return P


def _log_unit_sphere_volume(n: int) -> float:
    """log of the unit (n-1)-sphere's volume 2 pi^(n/2) / Gamma(n/2), finite for n >= 344."""
    return math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n)


# ---------------------------------------------------------------------------
# cutoffs and tails
# ---------------------------------------------------------------------------


def _far_cutoff(model: DensityModel, P: float, r: float) -> float:
    """Radius beyond which the bounded J tail is negligible at double precision.

    By ``_tail_bound_scaled`` the J tail's part of rho at the top radius
    r >= 1 is at most excess(R_far)/h exp(-h (R_far - r)/(P-1)).  On every
    curved space excess(R) <= 2h exp(-R)/(1 - exp(-R)), within 3e-6 of
    2h exp(-R) from R = 13 on.  Below P = 1 + h, R_far - r = 46 (P-1)/h + 12
    puts the exponential below exp(-58), and R_far >= 13 the excess factor
    below about 2 exp(-13).  From P = 1 + h on the distance stays at 58, so
    R_far >= 59 puts the excess factor alone below about 2 exp(-59).  Either
    way the tail's part of rho is below 1e-25.
    """
    return r + 46.0 * min(P - 1.0, model.h) / model.h + 12.0


def _tail_bound_scaled(model: DensityModel, P: float, R: float, log_f_ref: float) -> float:
    """Bound on the J integral beyond R, scaled by f(ref)^(1/(P-1)): the tail lies in [0, bound].

    f'/f >= h gives f(t) >= f(R) exp(h (t - R)), so the integral of
    f^(-1/(P-1)) beyond R is at most (P-1)/h f(R)^(-1/(P-1)), and the
    excess factor (f'/f - h)/h of J decreases, so it is at most excess(R)/h.
    """
    s = 1.0 / (P - 1.0)
    return model.excess(R) / model.h * (P - 1.0) / model.h * math.exp(-s * (model.log_f(R) - log_f_ref))


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
    in log r, integrated in one ``PanelPlan`` pass.  On a dense grid, knots
    that share a cell about one e-folding of the integrand wide share a
    segment, which starts at the first of them; the others are read off that
    segment's first panel (``_Chain``).  The integrand of segment [a, b] is
    scaled by f(a)^(1/(P-1)), so every intermediate stays of order one, and
    a float recurrence chains the segments downward.  The positivity
    W >= Lambda_P survives in floating point because delta is assembled from
    nonnegative panel sums.

    G_err bounds |G - G_exact| by three parts: the null-rule panel estimates
    of ``PanelPlan`` (with the rounding of the read-off for a knot inside a
    panel) and half the bound on the tail beyond the far cutoff, both
    carried through the same scaled recurrences as the integrals, plus a
    rounding floor 8 eps (1 + |log f(r) + log omega_n|/(P-1)) G.  The floor
    covers the one exponential exp(-(log f(r) + log omega_n)/(P-1)) that
    scales G: an error of a few ulps in its exponent is a relative error in G
    of that many ulps of the exponent.  Taking omega_n^(-1/(P-1)) inside that
    exponential keeps G finite near P = 1, where the factor alone underflows
    while f(r)^(-1/(P-1)) overflows; the flat closed form takes it the same
    way.  Where G overflows near the pole, G_err is infinite.  P below
    ``P_MIN`` is refused.
    """
    P = _check_order(P)
    radii = np.atleast_1d(check_radius(radii))
    s = 1.0 / (P - 1.0)
    n = model.n
    log_omega = _log_unit_sphere_volume(n)

    if model.kind == EUCLIDEAN:
        if P >= n:
            raise PreconditionError(_FLAT_DIVERGES)
        # G = omega_n^(-s) r^(1-k)/(k-1) as one exponential, as below
        k = (n - 1.0) * s
        exponent = s * (model.log_f(radii) + log_omega)
        with np.errstate(over="ignore"):
            G = radii * np.exp(-exponent) / (k - 1.0)
        dlog = -(n - P) / ((P - 1.0) * radii)
        W = power_law((n - P) / P, P, radii)
        G_err = exp_rounding(exponent) * G
        nan = np.full_like(radii, np.nan)
        return {"G": G, "G_err": G_err, "dlogG": dlog, "W": W, "Wtilde": W.copy(), "rho": nan, "delta": nan}

    if not radii.size:
        return {key: np.empty(0) for key in ("G", "G_err", "dlogG", "W", "Wtilde", "rho", "delta")}
    h = model.h
    lam_p = power_law(h / P, P)

    # knots: every distinct radius, the anchor 1 when radii below 1 are
    # present, and the far cutoff; at[i] is the knot of radii[i].  Strictly
    # increasing radii, as every grid gives them, are the knots already
    if np.all(radii[1:] > radii[:-1]):
        knots, at = radii, np.arange(radii.size)
    else:
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
    # bounded tail beyond R_far, taken as the midpoint of [0, bound] and
    # scaled to the top knot (so its log f closes the chain)
    tail = tail_err = 0.5 * _tail_bound_scaled(model, P, R_far, float(lf[-2]))
    lf_j = lf[lo.size :].copy()
    lf_j[-1] = lf[-2]
    chains = [_Chain(points[lo.size :], lf_j, s * h + 1.0, s)]
    if lo.size:
        # D chain: the direct integral in u = log t from the knots < 1,
        # ending at the anchor with the J chain's value there
        chains.append(_Chain(np.log(points[: lo.size + 1]), lf[: lo.size + 1], 1.0 + s * (n - 1.0) * 1.2, s))

    # one PanelPlan pass over the segments of both chains, the J chain's in t
    # and then the D chain's in u; each segment keeps its chain's panel width
    n_j = chains[0].ends.size - 1
    plan = PanelPlan(
        np.concatenate([chain.ends[:-1] for chain in chains]),
        np.concatenate([chain.ends[1:] for chain in chains]),
        np.repeat([chain.width for chain in chains], [chain.ends.size - 1 for chain in chains]),
    )
    ref = np.concatenate([chain.lf_ends[:-1] for chain in chains])

    def integrand(t, k):
        # in a block of panels the J nodes (in t) come first, then the D nodes (in u)
        cut = np.searchsorted(k, n_j)
        t_j, t_d = t[:cut], np.exp(t[cut:])
        j = model.excess(t_j) / h * np.exp(-s * (model.log_f(t_j) - ref[k[:cut]])) if cut else []
        d = np.exp(-s * (model.log_f(t_d) - ref[k[cut:]])) * t_d if t_d.size else []
        return np.concatenate((j, d))

    runs = [(chain.x[chain.inner], chain.k + start) for chain, start in zip(chains, (0, n_j)) if chain.grouped]
    seg, seg_err, reads = plan.integrate_from(integrand, runs)
    reads = [reads.pop(0) if chain.grouped else None for chain in chains]
    j_hat, j_err = chains[0].carry(seg[:n_j], seg_err[:n_j], reads[0], tail, tail_err)
    delta = h * j_hat / (P - 1.0)
    rho = 1.0 - delta
    rho_err = h * j_err / (P - 1.0)

    if lo.size:
        start, start_err = (P - 1.0) * rho[0] / h, (P - 1.0) * rho_err[0] / h
        i_hat, i_err = chains[1].carry(seg[n_j:], seg_err[n_j:], reads[1], start, start_err)
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
        W = power_law(h / P, P, rho)
        wtilde = lam_p * np.expm1(x)
        keep = (_TINY <= lam_p < math.inf) & np.isfinite(wtilde)
        if not keep.all():
            # where Lambda_P or its factor leaves the doubles, Wtilde = Lambda_P e^x (1 - e^-x)
            wtilde = np.where(keep, wtilde, power_law(h / P, P, 1.0, (math.e, x), (-np.expm1(-x), 1.0)))
    exponent = s * (lf[at] + log_omega)
    # G overflows near the pole when the exponent is hugely negative; the
    # infinite G_err then refuses the row
    with np.errstate(over="ignore"):
        G = (P - 1.0) / h * rho * np.exp(-exponent)
    G_err = G * (rho_err / rho) + exp_rounding(exponent) * G
    return {"G": G, "G_err": G_err, "dlogG": dlog, "W": W, "Wtilde": wtilde, "rho": rho, "delta": delta}


class _Chain:
    """Scaled integrals from every point x[:-1] to the chain end x[-1], with bounds.

    ``lf`` holds log f at the points, and last the log f by whose power s the
    integral beyond the end and its error are scaled.  Laying the chain
    groups its points into segments, whose integrands are scaled by exp(s ref),
    ref the log f at the segment's start, on panels of a width set by the
    decay rate ``rate``; ``carry`` then chains the segments down from the
    end.  The result at x_i is scaled by f(x_i)^s, so it stays of order one.

    Once at least ``_MIN_SHARED`` points share cells floor(x / c), with
    c = min(half a panel, 1 / rate) about one e-folding of the scaled
    integrand, the points of a cell share one segment, which starts at the
    first of them.  Below that only coinciding points (radii that share a
    logarithm) share a segment, and where none coincide the segments are the
    gaps between the points, as many as there are points.  A point that does
    not start its segment lies in the segment's first panel: its integral is
    read off that panel (``integrate_from``) plus the segment's later panels
    and the carried value of the next one.  The end lies past every point's
    cell, so it always closes a segment.
    """

    def __init__(self, x, lf, rate: float, s: float):
        self.x, self.lf, self.s = x, lf, s
        self.width = _panel_width(rate)
        lead = x[1:] != x[:-1]
        if x.size > _MIN_SHARED:
            cell = np.floor(x / min(0.5 * self.width, 1.0 / rate))
            in_cells = cell[1:] != cell[:-1]
            if in_cells.size - np.count_nonzero(in_cells) >= _MIN_SHARED:
                lead = in_cells
        self.grouped = not lead.all()
        if self.grouped:
            self.lead = np.concatenate(([True], lead))
            self.inner = ~self.lead
            # the segment of each point that does not start one
            self.k = np.cumsum(self.lead)[self.inner] - 1
        self.ends, self.lf_ends = (x[self.lead], lf[self.lead]) if self.grouped else (x, lf)
        panels = np.ceil(np.diff(self.ends) / self.width).sum()
        if not panels <= _MAX_PANELS:
            raise QuadratureError(f"green integral needs {panels:.3g} panels of width {self.width:.3g}, more than {_MAX_PANELS:,}")

    def carry(self, seg, seg_err, read, value: float, error: float):
        """The scaled integrals at x[:-1] and their bounds, from the segments' integrals,
        the ``read`` off ones from the points inside them and ``value``/``error`` beyond the end."""
        carry = np.exp(-self.s * np.diff(self.lf_ends))
        values, errors = _carry_down(seg, seg_err, carry, value, error)
        if not self.grouped:
            return values[:-1], errors[:-1]
        part, part_err = read
        # from the scale of the segment's start to that of the point
        scale = np.exp(self.s * (self.lf[self.inner] - self.lf_ends[self.k]))
        out, out_err = np.empty(self.x.size), np.empty(self.x.size)
        out[self.lead], out_err[self.lead] = values, errors
        out[self.inner] = scale * (part + (carry * values[1:])[self.k])
        out_err[self.inner] = scale * (part_err + (carry * errors[1:])[self.k])
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
    bad = ~((G >= _TINY) & (G < math.inf))
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
    W - Lambda_P is the "Wtilde" column of ``green_weight_batch``.  An order
    that engine refuses is refused here, with its message.
    """
    P = _check_order(P)
    if model.kind == EUCLIDEAN:
        raise PreconditionError("the Green weight construction excludes flat space")

    w_scalar = RadialScalar(lambda rr: green_weight_batch(model, P, rr)["W"])
    terms = (("((P-1)/P)^P |G'/G|^P", w_scalar),)
    return WeightPair(V=RadialScalar.constant(0.0), W=w_scalar, terms=terms, P=P)


# ---------------------------------------------------------------------------
# total integral and asymptotic regimes
# ---------------------------------------------------------------------------


def _total_integral(model: DensityModel, P: float) -> float:
    """Integral of f^(-1/(P-1)) over (0, inf) on a curved space; finite exactly when P > n.

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
    if model.kind == EUCLIDEAN:
        raise PreconditionError(_FLAT_DIVERGES)
    s = 1.0 / (P - 1.0)
    A = (n - 1.0) * s
    a = 0.5 * (P - n) / (P - 1.0)
    b = 0.5 * (A + model.q * s)
    return 2.0**-A * math.gamma(a) * (math.gamma(b) / math.gamma(a + b))


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

    Each law is one ``calculus.power_law``, taken from its log where a power
    leaves the doubles, and inf past them (|r ln r|^(-P) at r = 1).  On flat
    space the integral diverges, so P > n is refused there.
    """
    P = float(P)
    if not P > 1.0:
        raise PreconditionError("Green weight needs P > 1")
    n = model.n
    r = check_radius(r)
    if abs(P - n) < 1e-9:
        return AsymptoticPrediction("P=n", power_law((P - 1.0) / P, P, np.abs(r * np.log(r))), -P)
    if P < n:
        return AsymptoticPrediction("P<n", power_law((n - P) / P, P, r), -P)
    expo = -P * (n - 1.0) / (P - 1.0)
    return AsymptoticPrediction("P>n", power_law((P - 1.0) / P, P, _total_integral(model, P), (r, expo)), expo)

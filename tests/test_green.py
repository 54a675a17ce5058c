import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from hardyscope.errors import DomainError, PreconditionError, QuadratureError, SpaceValidationError
from hardyscope.green import (
    asymptotic_prediction,
    green_gamma0,
    green_value,
    green_weight,
    green_weight_batch,
    green_weight_supercritical,
)
from hardyscope import green as green_module
from hardyscope.green import _log_unit_sphere_volume, _panel_width
from hardyscope.calculus import PanelPlan
from hardyscope.spaces import DEFAULT_CATALOG, build_density, default_grid, validate_heisenberg_params
from hardyscope.verify import default_suite


def test_unit_sphere_volumes():
    for n, omega in ((2, 2.0 * math.pi), (3, 4.0 * math.pi), (4, 2.0 * math.pi**2), (6, math.pi**3)):
        assert math.exp(_log_unit_sphere_volume(n)) == pytest.approx(omega, rel=1e-15)
    # Gamma(n/2) leaves the doubles from n = 344 on; the log form stays finite
    for n in (344, 1000):
        with mpmath.workdps(40):
            half = mpmath.mpf(n) / 2
            exact = float(mpmath.log(2 * mpmath.pi**half / mpmath.gamma(half)))
        assert _log_unit_sphere_volume(n) == pytest.approx(exact, rel=1e-15)


def test_flat_closed_forms():
    e3 = build_density("euclidean:3")
    out = green_value(e3, 2.0, 1.0)
    assert out["G"][0] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-10)
    e4 = build_density("euclidean:4")
    assert green_value(e4, 2.0, 2.0)["G"][0] == pytest.approx(1.0 / (16.0 * math.pi**2), rel=1e-10)

    radii = np.array([0.5, 1.0, 2.0, 4.0])
    batch = green_weight_batch(e3, 2.0, radii)
    np.testing.assert_allclose(batch["G"], 1.0 / (4.0 * math.pi * radii), rtol=1e-14)
    np.testing.assert_allclose(batch["dlogG"], -1.0 / radii, rtol=1e-14)
    np.testing.assert_allclose(batch["W"], 0.25 / radii**2, rtol=1e-14)
    np.testing.assert_array_equal(batch["W"], batch["Wtilde"])
    assert np.all(np.isnan(batch["rho"]))


def test_hyperbolic3_green_closed_form_sweep():
    h3 = build_density("hyperbolic:3")
    radii = np.geomspace(0.01, 20.0, 25)
    got = green_weight_batch(h3, 2.0, radii)["G"]
    # coth(r) - 1 = 2 / (e^(2r) - 1), stable at both ends
    expected = 2.0 / np.expm1(2.0 * radii) / (4.0 * math.pi)
    np.testing.assert_allclose(got, expected, rtol=1e-8)
    single = green_value(h3, 2.0, 1.0)
    assert single["G"][0] == pytest.approx(2.0 / math.expm1(2.0) / (4.0 * math.pi), rel=1e-10)
    assert single["G_err"][0] <= 1e-10


def test_hyperbolic3_weight_identities():
    h3 = build_density("hyperbolic:3")
    radii = np.geomspace(0.05, 25.0, 30)
    batch = green_weight_batch(h3, 2.0, radii)
    coth = 1.0 / np.tanh(radii)
    np.testing.assert_allclose(batch["dlogG"], -(coth + 1.0), rtol=1e-9)
    np.testing.assert_allclose(batch["W"], 0.25 * (coth + 1.0) ** 2, rtol=1e-9)
    # the surplus stays accurate even where W - Lambda_P would cancel; the
    # reference needs coth(r) - 1 in expm1 form for the same reason
    cm1 = 2.0 / np.expm1(2.0 * radii)
    np.testing.assert_allclose(batch["Wtilde"], 0.25 * cm1 * (cm1 + 4.0), rtol=1e-8)
    assert green_weight_batch(h3, 2.0, 1.0)["dlogG"][0] == pytest.approx(-2.3130352854993315, rel=1e-10)


def _mp_green(p, q, P, r):
    """G(r) and G'/G on dr:p,q from a 30-digit mpmath quadrature.

    With a list of increasing radii, the full quadrature runs from the last
    one and the integrals over the gaps between them are added: lists of
    G and G'/G come back.
    """
    with mpmath.workdps(30):
        s = 1 / (mpmath.mpf(P) - 1)
        radii = [mpmath.mpf(x) for x in np.atleast_1d(r)]
        r = radii[-1]

        def f(t):
            return 2**p * mpmath.sinh(t / 2) ** p * mpmath.sinh(t) ** q

        # the integrand (f(t)/f(r))^(-s) is of order one, as mpmath.quad
        # stops on an absolute tolerance; breakpoints follow its decay
        rate = s * (p + 2 * q) / 2
        pts = [r * 2**k for k in range(max(1, math.ceil(math.log2(1 / r))))]
        pts += [max(r, 1) + 2**k / rate for k in range(-1, 7)] + [mpmath.inf]
        fr = f(r)
        J = mpmath.quad(lambda t: (f(t) / fr) ** -s, pts)
        omega = 2 * mpmath.pi ** (mpmath.mpf(p + q + 1) / 2) / mpmath.gamma(mpmath.mpf(p + q + 1) / 2)
        if len(radii) == 1:
            return float((omega * fr) ** -s * J), float(-1 / J)
        integrals = [fr**-s * J]
        for a, b in zip(reversed(radii[:-1]), reversed(radii[1:])):
            integrals.append(integrals[-1] + mpmath.quad(lambda t: f(t) ** -s, [a, b]))
        integrals.reverse()
        G = [float(omega**-s * I) for I in integrals]
        dlog = [float(-f(x) ** -s / I) for x, I in zip(radii, integrals)]
        return G, dlog


def test_batch_matches_mpmath_reference_and_preserves_order():
    model = build_density("dr:4,2")
    radii = np.array([3.0, 0.05, 1.0, 17.0, 0.7])
    batch = green_weight_batch(model, 2.5, radii)
    for i, r in enumerate(radii):
        G, dlog = _mp_green(4, 2, 2.5, r)
        assert batch["G"][i] == pytest.approx(G, rel=1e-12)
        assert batch["dlogG"][i] == pytest.approx(dlog, rel=1e-12)
        assert abs(batch["G"][i] - G) <= batch["G_err"][i]
        assert green_value(model, 2.5, float(r))["G"][0] == pytest.approx(G, rel=1e-12)
        assert green_weight_batch(model, 2.5, float(r))["dlogG"][0] == pytest.approx(dlog, rel=1e-12)


def test_batch_matches_mpmath_reference_on_dense_clusters(monkeypatch):
    # 40 radii in one cell of each chain: all but the first are read off
    # their cell's first panel, as in a dense grid
    monkeypatch.setattr(green_module, "_MIN_SHARED", 1)
    model = build_density("dr:4,2")
    clusters = [np.linspace(2.0, 2.05, 40), np.linspace(0.30, 0.31, 40)]
    batch = green_weight_batch(model, 2.5, np.concatenate(clusters))
    G_mp, dlog_mp = (np.concatenate(v) for v in zip(*(_mp_green(4, 2, 2.5, c) for c in clusters)))
    np.testing.assert_allclose(batch["G"], G_mp, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(batch["dlogG"], dlog_mp, rtol=1e-12, atol=0.0)
    assert np.all(np.abs(batch["G"] - G_mp) <= batch["G_err"])


def test_surplus_weight_accurate_near_the_pole():
    # at r ~ 1e-3 delta = 1 - rho is within rho ~ 1e-3 of one, so Wtilde taken
    # from delta alone would lose P eps / rho ~ 1e-13 relative
    model = build_density("dr:4,2")
    P, h = 4.0, model.h
    radii = np.geomspace(1e-3, 2e-3, 4)
    wtilde = green_weight_batch(model, P, radii)["Wtilde"]
    for r, got in zip(radii, wtilde):
        _, dlog = _mp_green(4, 2, P, r)
        rho = -h / ((P - 1.0) * dlog)  # rho^-P - 1 is well conditioned for small rho
        assert got == pytest.approx((h / P) ** P * (rho**-P - 1.0), rel=2e-14)


@pytest.mark.parametrize(
    "radii",
    [
        [3.0, 0.05, 1.0, 17.0, 0.7],  # unsorted, on both sides of the anchor
        [0.5, 2.0, 0.5, 2.0, 2.0],  # duplicates
        [3e-8, float(np.nextafter(3e-8, 1.0)), 1.0, float(np.nextafter(1.0, 2.0))],  # an ulp apart
        [1.0],
        [0.3, 1.0],
        [1.0, 4.0],
        list(np.geomspace(1e-4, 0.9, 7)),  # all below the anchor
        list(np.geomspace(1.2, 50.0, 7)),  # all above it
        [0.2],
        [7.0],
    ],
)
def test_batch_equals_per_radius_results(radii):
    for desc, P in (("dr:4,2", 2.5), ("hyperbolic:3", 2.0), ("dr:8,7", 4.0)):
        model = build_density(desc)
        batch = green_weight_batch(model, P, radii)
        assert np.all(batch["G_err"] >= 0.0)
        for i, r in enumerate(radii):
            single = green_weight_batch(model, P, [r])
            for key in ("G", "dlogG", "W", "Wtilde", "rho", "delta"):
                assert batch[key][i] == pytest.approx(single[key][0], rel=1e-13, abs=0.0), (desc, r, key)


class _CountingModel:
    """Delegates to a density model and counts calls of log_f and excess, and
    the radii they were passed."""

    def __init__(self, model):
        self._model = model
        self.calls = 0
        self.items = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def log_f(self, r):
        self.calls += 1
        self.items += np.size(r)
        return self._model.log_f(r)

    def excess(self, r):
        self.calls += 1
        self.items += np.size(r)
        return self._model.excess(r)


def test_batch_calls_the_density_a_fixed_number_of_times():
    for desc in ("dr:4,2", "hyperbolic:3"):
        counts = []
        for size in (24, 2400):
            model = _CountingModel(build_density(desc))
            green_weight_batch(model, 2.0, np.geomspace(1e-3, 60.0, size))
            counts.append(model.calls)
        assert counts[0] == counts[1] <= 8, (desc, counts)


def test_dense_batch_reads_radii_off_shared_panels():
    # the nodes of 0.25-wide panels over each suite member's support: 25,080
    # distinct radii about 0.0125 apart; one panel per gap would pass about
    # 1,000,000 items to the density
    lo, hi = np.array([m.support for m in default_suite()]).T
    radii = PanelPlan(lo, hi, 0.25, 8).nodes()[0]
    assert np.unique(radii).size == 25_080
    sample = np.random.default_rng(7).choice(radii.size, 50, replace=False)
    for desc in ("dr:8,7", "hyperbolic:3"):
        model = _CountingModel(build_density(desc))
        batch = green_weight_batch(model, 2.0, radii)
        assert model.items <= 45_000, (desc, model.items)
        for i in sample:
            single = green_weight_batch(model, 2.0, [radii[i]])
            for key in ("G", "dlogG", "W", "Wtilde", "rho", "delta"):
                assert batch[key][i] == pytest.approx(single[key][0], rel=1e-13, abs=0.0), (desc, radii[i], key)


def test_far_cutoff_stops_growing_past_P_equal_one_plus_h(monkeypatch):
    # radii >= 1 give one chain, the J chain: its panels must not grow with P
    # once P - 1 exceeds h
    plans = []

    class RecordingPlan(green_module.PanelPlan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            plans.append(self)

    monkeypatch.setattr(green_module, "PanelPlan", RecordingPlan)
    model = build_density("dr:2,1")
    panels = []
    for P in (1.0 + model.h, 1e4):
        plans.clear()
        green_weight_batch(model, P, [1.0, 2.0])
        (plan,) = plans
        panels.append(plan.nodes()[0].size)
    assert panels[0] == panels[1]


_ADMISSIBLE_DR = []
for _p in range(2, 33, 2):
    for _q in range(1, 12):
        try:
            validate_heisenberg_params(_p, _q)
        except SpaceValidationError:
            continue
        _ADMISSIBLE_DR.append(f"dr:{_p},{_q}")


def test_admissible_lattice_size():
    assert len(_ADMISSIBLE_DR) == 51


def test_closed_form_near_cutoff_matches_a_root_finder():
    # the near cutoff solves excess(R) = 1e-3 h; brentq on the same equation
    # is the reference
    for desc in _ADMISSIBLE_DR + [f"hyperbolic:{n}" for n in range(2, 31)]:
        model = build_density(desc)
        R = green_module._cutoff_radius(model)
        c = 1e-3 * model.h
        assert abs(model.excess(R) / c - 1.0) <= 1e-14, desc
        reference = brentq(lambda r: model.excess(r) - c, 1e-6, 400.0, xtol=1e-12)
        assert abs(R - reference) <= 1e-9, desc
    with pytest.raises(DomainError):
        green_module._cutoff_radius(build_density("euclidean:3"))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    desc=st.sampled_from(_ADMISSIBLE_DR + [f"hyperbolic:{n}" for n in (2, 3, 7, 30)]),
    P=st.floats(min_value=1.1, max_value=6.0),
    log_radii=st.lists(st.floats(min_value=-8.0, max_value=3.0), min_size=1, max_size=64),
)
def test_batch_outputs_finite_over_admissible_range(desc, P, log_radii):
    _check_batch_outputs(build_density(desc), P, 10.0 ** np.array(log_radii))


def _check_batch_outputs(model, P, radii):
    out = green_weight_batch(model, P, radii)
    for key in ("rho", "W", "Wtilde", "dlogG"):
        assert np.all(np.isfinite(out[key])), key
    assert np.all(out["W"] >= (model.h / P) ** P)
    assert np.all(out["Wtilde"] >= 0.0)
    assert np.all(out["G"] >= 0.0)
    assert np.all(out["G_err"] >= 0.0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    desc=st.sampled_from(_ADMISSIBLE_DR + [f"hyperbolic:{n}" for n in (2, 3, 7, 30)]),
    P=st.floats(min_value=1.1, max_value=6.0),
    log_centre=st.floats(min_value=-8.0, max_value=3.0),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=1, max_size=61),
)
def test_batch_outputs_finite_on_clustered_radii(desc, P, log_centre, fractions):
    # up to 64 radii in the cell that holds the centre (in t from 1 up, in
    # log t below), with its two edges and a radius an ulp above another,
    # read off shared panels as in a dense grid
    model = build_density(desc)
    s = 1.0 / (P - 1.0)
    centre = 10.0**log_centre
    in_log = centre < 1.0
    rate = 1.0 + s * (model.n - 1.0) * 1.2 if in_log else s * model.h + 1.0
    cell = min(0.5 * _panel_width(rate), 1.0 / rate)
    edge = math.floor((math.log(centre) if in_log else centre) / cell) * cell
    x = edge + cell * np.concatenate(([0.0, 1.0], fractions))
    radii = np.exp(x) if in_log else x
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(green_module, "_MIN_SHARED", 1)
        _check_batch_outputs(model, P, np.append(radii, np.nextafter(radii[-1], np.inf)))


def test_error_bound_covers_hyperbolic3_closed_form_on_default_grid():
    h3 = build_density("hyperbolic:3")
    grid = default_grid()
    batch = green_weight_batch(h3, 2.0, grid)
    with mpmath.workdps(30):
        exact = [2 / mpmath.expm1(2 * mpmath.mpf(r)) / (4 * mpmath.pi) for r in grid]
        miss = np.array([float(abs(mpmath.mpf(g) - e)) for g, e in zip(batch["G"], exact)])
    assert np.all(miss <= batch["G_err"])
    # a few ulps of the exponent 2 log sinh r, not a blanket tolerance
    assert np.all(batch["G_err"] <= 1e-12 * batch["G"])


def test_green_decreases_and_certifies_error():
    model = build_density("dr:2,1")
    vals = [green_value(model, 3.0, r)["G"][0] for r in (0.5, 1.0, 2.0, 6.0)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))
    with pytest.raises(QuadratureError):
        green_value(model, 3.0, 1.0, tol=1e-18)


def test_log_derivative_reproduces_exact_gradient():
    # G'(r) = -(omega_n f(r))^(-1/(P-1)) by construction; the batch engine
    # reports G and G'/G separately, so their product must recover it
    for desc, P in (("hyperbolic:3", 2.0), ("dr:4,2", 3.0)):
        model = build_density(desc)
        radii = np.geomspace(0.02, 12.0, 18)
        batch = green_weight_batch(model, P, radii)
        s = 1.0 / (P - 1.0)
        exact = -np.exp(-s * (_log_unit_sphere_volume(model.n) + np.asarray(model.log_f(radii))))
        np.testing.assert_allclose(batch["G"] * batch["dlogG"], exact, rtol=1e-9)


def test_supercritical_values():
    model = build_density("dr:2,1")
    assert green_gamma0(model, 6.0) == pytest.approx(2.4845662158269715, rel=1e-14)
    assert green_value(model, 6.0, 1.0)["G"][0] == pytest.approx(1.1189292867765177, rel=1e-10)
    assert green_weight_supercritical(model, 6.0, 1.0) == pytest.approx(
        3.732246725439097e-05, rel=1e-8
    )


@pytest.mark.parametrize("desc, P, r", [("dr:2,1", 6.0, 1.0), ("dr:4,2", 8.5, 0.03), ("hyperbolic:3", 4.0, 7.0)])
def test_supercritical_weight_runs_the_engine_once(monkeypatch, desc, P, r):
    model = build_density(desc)
    gamma = green_gamma0(model, P)
    G = green_value(model, P, r)["G"][0]
    dlog = green_weight_batch(model, P, r)["dlogG"][0]
    # the former composition of one green_value call and a second engine call for G'/G
    two_calls = (
        ((P - 1.0) / P) ** P
        * abs(dlog) ** P
        * abs(gamma - 2.0 * G) ** (P - 2.0)
        / abs(gamma - G) ** P
        * (gamma**2 + 2.0 * (P - 2.0) * G * (gamma - G))
    )
    calls = []
    real = green_module.green_weight_batch

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(green_module, "green_weight_batch", counted)
    assert green_weight_supercritical(model, P, r) == two_calls
    assert len(calls) == 1


def test_total_integral_matches_mpmath_beta():
    # 2^(-A) B((P-n)/(2(P-1)), (A+B)/2), A = (n-1)/(P-1), B = q/(P-1), from
    # the float P itself, from P = n + 1e-9 up to P = 1e300
    worst = 0.0
    with mpmath.workdps(40):
        for desc in [f"hyperbolic:{n}" for n in range(2, 31)] + _ADMISSIBLE_DR:
            model = build_density(desc)
            n = model.n
            for P in (n + 1e-9, n + 1e-3, n + 0.5, n + 1.0, 2.0 * n, 1e3, 1e300):
                Pm = mpmath.mpf(P)
                A, B = (n - 1) / (Pm - 1), model.q / (Pm - 1)
                ref = 2 ** (-A) * mpmath.beta((Pm - n) / (2 * (Pm - 1)), (A + B) / 2)
                got = green_module._total_integral(model, P)
                worst = max(worst, float(abs(got - ref) / ref))
    assert worst <= 2e-15


def test_total_integral_matches_panel_quadrature_of_the_density():
    # the closed form against the model's own log f: Gauss-Legendre panels
    # in u = log t over [log 1e-8, log R_far], the power law t^(-(n-1)s)
    # below (f = t^(n-1) (1 + O(t^2)) at the pole) and the tail bracket beyond
    for desc in DEFAULT_CATALOG:
        model = build_density(desc)
        if model.kind == "euclidean":
            continue
        for P in (model.n + 0.5, model.n + 1.0, 2.0 * model.n):
            s = 1.0 / (P - 1.0)
            a = 1.0 - (model.n - 1.0) * s
            u0 = math.log(1e-8)
            R_far = green_module._far_cutoff(model, P, 1.0)
            bulk, _ = PanelPlan(u0, math.log(R_far), 0.1).integrate(lambda u, k: np.exp(u - s * model.log_f(np.exp(u))))
            tail, _ = green_module._tail_bracket_scaled(model, P, R_far, 0.0)
            total = math.exp(a * u0) / a + float(bulk[0]) + tail
            assert total == pytest.approx(green_module._total_integral(model, P), rel=1e-13), (desc, P)


def test_green_near_P_one_takes_one_exponential():
    # omega^(-1/(P-1)) underflows and f^(-1/(P-1)) overflows at P = 1.001;
    # the reference is G = (P-1)/h rho exp(-(log f + log omega)/(P-1)) to
    # 40 digits from the engine's own rho
    model, P = build_density("dr:2,1"), 1.001
    radii = np.array([0.4, 0.45])
    batch = green_weight_batch(model, P, radii)
    for r, rho, G, G_err in zip(radii, batch["rho"], batch["G"], batch["G_err"]):
        assert math.isfinite(G) and G > 0.0
        with mpmath.workdps(40):
            rm, s = mpmath.mpf(r), 1 / (mpmath.mpf(P) - 1)
            log_f = 2 * mpmath.log(2) + 2 * mpmath.log(mpmath.sinh(rm / 2)) + mpmath.log(mpmath.sinh(rm))
            ref = mpmath.mpf(rho) / (s * model.h) * mpmath.exp(-s * (log_f + mpmath.log(2 * mpmath.pi**2)))
            assert abs(G - ref) <= G_err


def test_flat_green_near_P_one_takes_one_exponential():
    # omega^(-1/(P-1)) underflows while r^(1-k) overflows at P = 1.001; the
    # closed form log G = -s log omega + (1-k) log r - log(k-1), s = 1/(P-1),
    # k = (n-1)s, is taken to 40 digits at radii where G is a normal double
    for n, radii in ((3, np.array([0.22, 0.25, 0.3, 0.35])), (5, np.array([0.38, 0.42, 0.46, 0.5]))):
        model, P = build_density(f"euclidean:{n}"), 1.001
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G = green_weight_batch(model, P, radii)["G"]
        for r, value in zip(radii, G):
            assert np.finfo(float).tiny <= value < math.inf, (n, r)
            with mpmath.workdps(40):
                s = 1 / (mpmath.mpf(P) - 1)
                k = (n - 1) * s
                ref = -s * mpmath.log(2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2))
                ref += (1 - k) * mpmath.log(mpmath.mpf(r)) - mpmath.log(k - 1)
                assert abs(math.log(value) - ref) <= 1e-13 * abs(ref), (n, r)


def test_green_engine_refuses_P_below_the_floor():
    model = build_density("dr:2,1")
    assert green_weight_batch(model, green_module.P_MIN, np.array([0.4]))["G"][0] > 0.0
    with pytest.raises(PreconditionError, match="P >= 1.001"):
        green_weight_batch(model, np.nextafter(green_module.P_MIN, 1.0), np.array([0.4]))
    with pytest.raises(PreconditionError, match="P >= 1.001"):
        green_weight_batch(build_density("euclidean:3"), 1.0005, np.array([0.5]))


def test_green_value_refuses_nan():
    with pytest.raises(QuadratureError, match="r=0.001 is not finite"):
        green_value(build_density("dr:2,1"), 1.001, 0.001)


def test_green_preconditions():
    e3 = build_density("euclidean:3")
    dr = build_density("dr:2,1")
    with pytest.raises(DomainError):
        green_value(e3, 3.0, 1.0)  # flat integral diverges for P >= n
    with pytest.raises(DomainError):
        green_weight_batch(e3, 4.0, 1.0)
    with pytest.raises(PreconditionError):
        green_value(dr, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        green_weight(e3, 2.0)
    with pytest.raises(PreconditionError):
        green_gamma0(dr, 4.0)  # P = n is still borderline
    with pytest.raises(PreconditionError):
        green_weight_supercritical(dr, 3.0, 1.0)
    for radii in ([1.0, 0.0], [np.nan], [1.0, np.inf]):
        with pytest.raises(DomainError):
            green_weight_batch(dr, 2.0, np.array(radii))


def test_asymptotic_regimes():
    model = build_density("dr:2,1")  # n = 4
    sub = asymptotic_prediction(model, 2.0, 1e-4)
    assert sub.regime == "P<n" and sub.exponent == -2.0 and not sub.log_corrected
    assert sub.coefficient == pytest.approx(1.0)
    assert isinstance(sub.value, float)

    crit = asymptotic_prediction(model, 4.0, 1e-4)
    assert crit.regime == "P=n" and crit.log_corrected
    assert crit.coefficient == pytest.approx((3.0 / 4.0) ** 4)

    sup = asymptotic_prediction(model, 6.0, np.array([1e-6, 1e-5]))
    assert sup.regime == "P>n"
    assert sup.exponent == pytest.approx(-3.6)
    assert sup.value[0] > sup.value[1] > 0.0


def test_surplus_weight_floor_and_far_field():
    model = build_density("dr:2,1")
    grid = default_grid()
    for P in (2.0, 2.5):
        wtilde = green_weight_batch(model, P, grid)["Wtilde"]
        assert np.min(wtilde) >= -1e-12
        far = green_weight_batch(model, P, np.array([40.0]))["Wtilde"][0]
        assert abs(far) <= 1e-10


def test_green_weight_pair_shape():
    model = build_density("dr:4,3")
    pair = green_weight(model, 2.5)
    assert pair.log_ground_state is None and pair.P == 2.5
    V, W = pair.V.value(2.0), pair.W.value(2.0)
    assert V == 0.0
    assert W - V == W
    assert W >= (model.h / 2.5) ** 2.5
    radii = np.array([0.5, 2.0])
    batch = green_weight_batch(model, 2.5, radii)
    np.testing.assert_array_equal(pair.W.value(radii), batch["W"])
    assert np.all(batch["Wtilde"] >= 0.0)


def test_weights_past_the_double_range_of_lambda_p_without_overflow_error():
    # (h/P)^P = 2.72^735 passes the double range: W is inf, and Wtilde far
    # out a finite number taken from log Lambda_P, with no OverflowError
    model = build_density("hyperbolic:2000")
    P = 735.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = green_weight_batch(model, P, np.array([1.0, 30.0]))
        pair_w = green_weight(model, P).W.value(1.0)
        pred = asymptotic_prediction(build_density("hyperbolic:3000"), 900.0, np.array([1e-7, 1e-6]))
    assert pair_w == math.inf
    assert np.all(batch["W"] == math.inf)
    assert batch["Wtilde"][0] == math.inf
    with mpmath.workdps(50):
        delta = mpmath.mpf(float(batch["delta"][1]))
        exact = (mpmath.mpf(model.h) / P) ** P * mpmath.expm1(-P * mpmath.log1p(-delta))
        assert float(abs(batch["Wtilde"][1] - exact) / exact) < 1e-12
    assert pred.coefficient == math.inf and np.all(pred.value == math.inf)  # (7/3)^900
    # on flat space ((n-P)/P)^P overflows; far out W is finite again
    flat = green_weight_batch(build_density("euclidean:1000000"), 100.0, np.array([1.0, 1e5]))["W"]
    assert flat[0] == math.inf
    assert flat[1] == pytest.approx((999900.0 / 100.0 / 1e5) ** 100, rel=1e-12)

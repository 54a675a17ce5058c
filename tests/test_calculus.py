import math

import numpy as np
import pytest

from hardyscope import spaces, verify
from hardyscope.calculus import (
    Jet2,
    PanelPlan,
    RadialScalar,
    check_radius,
)
from hardyscope.errors import PreconditionError
from hardyscope.green import asymptotic_prediction
from hardyscope.spaces import build_density
from hardyscope.weights import hpw_g, weight_theorem_b

from radial_reference import hilfe_rhs, p_laplacian_radial


def _power(a):
    """r^a with its closed-form jet."""
    return RadialScalar.from_jet(lambda r: Jet2(r**a, a * r ** (a - 1.0), a * (a - 1.0) * r ** (a - 2.0)))


def _log_jet(r):
    return Jet2(np.log(r), 1.0 / r, -1.0 / r**2)


def _fd_check(scalar: RadialScalar, r: np.ndarray, rtol=1e-6):
    step = 1e-6 * np.maximum(r, 1.0)
    fd1 = (scalar.value(r + step) - scalar.value(r - step)) / (2.0 * step)
    # second differences lose half the mantissa to cancellation, so use a
    # wider step for them and a looser tolerance
    step2 = 1e-4 * np.maximum(r, 1.0)
    fd2 = (scalar.value(r + step2) - 2.0 * scalar.value(r) + scalar.value(r - step2)) / step2**2
    j = scalar.jet(r)
    np.testing.assert_allclose(j.d1, fd1, rtol=rtol)
    np.testing.assert_allclose(j.d2, fd2, rtol=1e-3, atol=1e-7)


def _exp_jet(log_scalar: RadialScalar) -> RadialScalar:
    """e^l with its jet e^l (1, l', l'' + l'^2)."""

    def jet(r):
        lj = log_scalar.jet(r)
        u = np.exp(lj.val)
        return Jet2(u, u * lj.d1, u * (lj.d2 + lj.d1 * lj.d1))

    return RadialScalar.from_jet(jet)


def test_jet_arithmetic_against_finite_differences():
    # the product rule, and the closed-form jet of every ground state's
    # logarithm
    r = np.array([0.3, 1.0, 2.7])
    _fd_check(RadialScalar.from_jet(lambda rr: Jet2(np.sinh(rr), np.cosh(rr), np.sinh(rr)) * _log_jet(rr)), r)
    checked = 0
    for space in ("hyperbolic:3", "dr:4,2"):
        for label, _, pair in verify._pairs_for(build_density(space)):
            if pair.log_ground_state is not None:
                _fd_check(pair.log_ground_state, r)
                checked += 1
    assert checked == 8


def test_radial_scalar_value_only_guards_derivatives():
    s = RadialScalar(lambda rr: rr**2)
    assert s.value(3.0) == s(3.0) == 9.0
    with pytest.raises(PreconditionError):
        s.jet(3.0)
    c = RadialScalar.constant(2.5)
    assert c.value(1.0) == 2.5
    np.testing.assert_array_equal(c.value(np.ones(3)), np.full(3, 2.5))
    with pytest.raises(PreconditionError):
        c.jet(1.0)


#: radii off and on the integers; 1..60 are also passed as an integer array
_RADII = np.concatenate((np.geomspace(1e-3, 60.0, 61), np.arange(1.0, 61.0)))


def _agree_across_input_kinds(fn, radii=_RADII, one_radius_batches=False):
    """fn on an integer array equals fn on the float array, and fn on a Python
    float, a numpy scalar and a 0-d array equals the array's entry, bit for
    bit (with ``one_radius_batches``, the value on a one-radius array)."""
    ints = np.arange(1, 61)
    assert np.array_equal(fn(ints), fn(ints.astype(float)), equal_nan=True)
    values = fn(radii)
    for i, r in enumerate(radii.tolist()):
        want = fn(np.array([r])) if one_radius_batches else values[i]
        for kind in (r, np.float64(r), np.array(r)):
            got = fn(kind)
            assert np.ndim(got) == np.ndim(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (fn, r, type(kind))


@pytest.mark.parametrize("space", ["euclidean:3", "euclidean:70", "hyperbolic:3", "hyperbolic:30", "dr:2,1", "dr:8,7"])
def test_density_methods_give_one_value_for_every_input_kind(space):
    # euclidean:70: r^69 of an integer array overflows unless the power is a
    # float; on hyperbolic:30 f itself leaves the doubles past r = 25
    model = build_density(space)
    for name in ("f", "log_f", "log_df", "dlog_df", "d2f_over_f", "excess"):
        with np.errstate(over="ignore"):
            _agree_across_input_kinds(getattr(model, name))


@pytest.mark.parametrize("space", spaces.DEFAULT_CATALOG)
def test_pair_scalars_give_one_value_for_every_input_kind(space):
    # V, W, the terms, the measure and the log ground state (value and jet)
    # of every pair the report checks; the Green weight is one engine batch
    # per call, whose radii share panels, so a scalar gives its one-radius batch
    for label, _, pair in verify._pairs_for(build_density(space)):
        scalars = [pair.V, pair.W, *(scalar for _, scalar in pair.terms)]
        scalars += [s for s in (pair.measure, pair.log_ground_state) if s is not None]
        for scalar in scalars:
            if label == "green[2]" and scalar is pair.W:
                _agree_across_input_kinds(scalar.value, _RADII[::10], one_radius_batches=True)
            else:
                _agree_across_input_kinds(scalar.value)
        if pair.log_ground_state is not None:
            for part in ("val", "d1", "d2"):
                _agree_across_input_kinds(lambda r, part=part: getattr(pair.log_ground_state.jet(r), part))


def test_comparison_ratio_and_green_prediction_give_one_value_for_every_input_kind():
    model = build_density("hyperbolic:3")
    _agree_across_input_kinds(lambda r: hpw_g(4, 3, r))
    for P in (2.0, 4.0):  # the regimes P < n and P > n
        _agree_across_input_kinds(lambda r, P=P: asymptotic_prediction(model, P, r).value)


def test_check_radius_refuses_subnormal_radii():
    tiny = np.finfo(float).tiny
    assert check_radius(tiny) == tiny and check_radius(1e-300) == 1e-300
    np.testing.assert_array_equal(check_radius(np.array([tiny, 1.0, 1e300])), [tiny, 1.0, 1e300])
    for bad in (np.nextafter(tiny, 0.0), 1e-310, 5e-324, 0.0, -1.0, math.nan, math.inf, np.array([1.0, 5e-324])):
        with pytest.raises(PreconditionError, match="finite and at least 2.2250738585072014e-308"):
            check_radius(bad)


def test_laplacian_on_known_function():
    # Delta u = u'' + (n-1)/r u' for flat space; u = r^2 gives 2n
    e5 = build_density("euclidean:5")
    grid = np.array([0.25, 1.0, 4.0])
    np.testing.assert_allclose(p_laplacian_radial(_power(2.0), e5, 2.0, grid), 2.0 * 5.0, rtol=1e-12)


def test_p_laplacian_matches_laplacian_at_p2():
    dr = build_density("dr:4,2")
    # u = sinh(r/2) + r^1.5
    u = RadialScalar.from_jet(
        lambda r: Jet2(
            np.sinh(r / 2.0) + r**1.5,
            0.5 * np.cosh(r / 2.0) + 1.5 * r**0.5,
            0.25 * np.sinh(r / 2.0) + 0.75 * r**-0.5,
        )
    )
    grid = np.geomspace(0.1, 10.0, 17)
    a = p_laplacian_radial(u, dr, 2.0, grid)
    # the Laplace-Beltrami operator on a radial function: u'' + (f'/f) u'
    j = u.jet(grid)
    b = j.d2 + dr.log_df(grid) * j.d1
    np.testing.assert_allclose(a, b, rtol=1e-14)


def test_p_laplacian_of_power_profile():
    # for u = r^a on Euclidean(n): Delta_P u = |a|^{P-2} a (a-1)(P-1) r^{(a-1)(P-1)-1}
    #   + (n-1)/r * |a|^{P-2} a r^{(a-1)(P-1)}  ... checked numerically instead
    e3 = build_density("euclidean:3")
    P = 3.0
    a = 0.75
    grid = np.array([0.5, 1.0, 2.0])
    expect = np.abs(a * grid ** (a - 1.0)) ** (P - 2.0) * (
        (P - 1.0) * a * (a - 1.0) * grid ** (a - 2.0) + (2.0 / grid) * a * grid ** (a - 1.0)
    )
    np.testing.assert_allclose(p_laplacian_radial(_power(a), e3, P, grid), expect, rtol=1e-12)


def _half_power_coefficient(model, r):
    # c(r) with Delta(r^(1/2) f^(-1/2)) = c(r) r^(1/2) f^(-1/2): the product
    # rule's alpha(alpha-1)/r^2 + alpha(2 beta + 1)(f'/f)/r + beta f''/f
    # + beta^2 (f'/f)^2 at alpha = 1/2, beta = -1/2
    return -0.25 / r**2 - 0.5 * model.d2f_over_f(r) + 0.25 * model.log_df(r) ** 2


def test_power_product_coefficient_example():
    dr = build_density("dr:2,1")
    val = _half_power_coefficient(dr, 2.0)
    assert val == pytest.approx(-1.2245099577820602, rel=1e-12)
    # alpha(alpha-1)/r^2 contributes -1/16 at r=2 on top of the density part
    assert val == pytest.approx(hilfe_rhs(0.25, 0.5, 2, 1, 2.0) - 1.0 / 16.0, rel=1e-12)


def test_product_identity_log_profile():
    # Phi = (r/f)^(1/2), h = ln r: Delta(Phi h) = c(r) Phi h with
    # c = _half_power_coefficient; relative residual <= 1e-9
    for desc in ("dr:2,1", "dr:8,7", "hyperbolic:4"):
        m = build_density(desc)
        phi = _exp_jet(weight_theorem_b(m).log_ground_state)
        phi_h = RadialScalar.from_jet(lambda r, phi=phi: phi.jet(r) * _log_jet(r))
        grid = np.geomspace(1.5, 30.0, 25)  # stay off ln r = 0
        lhs = p_laplacian_radial(phi_h, m, 2.0, grid)
        rhs = _half_power_coefficient(m, grid) * phi_h.value(grid)
        scale = np.abs(lhs) + np.abs(rhs)
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-9


def test_hilfe_rhs_examples():
    assert hilfe_rhs(0.25, 0.5, 2, 1, 2.0) == pytest.approx(-1.16200995778206, rel=1e-12)
    assert hilfe_rhs(0.0, 0.0, 4, 2, 1.7) == 0.0
    # a = 1 - P(P-1), b = -P(P-1) with P=2 recovers h^2 plus the sinh terms
    P = 2.0
    val = hilfe_rhs(1.0 - P * (P - 1.0), -P * (P - 1.0), 4, 2, 1.0)
    expect = 16.0 + 0.0 + 4.0 * (4.0 + 4.0 - 2.0) / (4.0 * np.sinh(0.5) ** 2)
    assert val == pytest.approx(expect, rel=1e-12)
    assert val == pytest.approx(38.0963, rel=1e-4)


def test_hilfe_rhs_matches_density_ratios():
    rng = np.random.default_rng(20240817)
    radii = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    for desc in ("dr:2,1", "dr:4,2", "dr:4,3", "dr:8,7"):
        m = build_density(desc)
        L2 = np.asarray(m.log_df(radii)) ** 2
        FF = np.asarray(m.d2f_over_f(radii))
        for _ in range(25):
            a, b = rng.uniform(-5.0, 5.0, size=2)
            lhs = a * L2 - b * FF
            rhs = hilfe_rhs(a, b, m.p, m.q, radii)
            scale = np.abs(a) * L2 + np.abs(b) * np.abs(FF) + 1e-300
            assert np.max(np.abs(lhs - rhs) / scale) <= 1e-10


def test_hilfe_rhs_domain_error():
    with pytest.raises(PreconditionError):
        hilfe_rhs(1.0, 1.0, 2, 1, 0.0)
    with pytest.raises(PreconditionError):
        hilfe_rhs(1.0, 1.0, 2, 1, -1.0)


def test_laplacian_radial_rejects_nonpositive_radius():
    e3 = build_density("euclidean:3")
    with pytest.raises(PreconditionError):
        p_laplacian_radial(_power(2.0), e3, 2.0, 0.0)


def test_laplacian_radial_rejects_infinite_radius():
    with pytest.raises(PreconditionError):
        p_laplacian_radial(_power(2.0), build_density("euclidean:3"), 2.0, math.inf)


def test_p_laplacian_radial_rejects_infinite_radius():
    with pytest.raises(PreconditionError):
        p_laplacian_radial(_power(2.0), build_density("hyperbolic:3"), 3.0, math.inf)


def test_panel_plan_error_estimate_bounds_the_error():
    # integral of exp(-lam t) over [0, 4] is -expm1(-4 lam)/lam
    for lam, width in ((40.0, 2.0), (40.0, 1.0), (5.0, 4.0), (1.0, 0.25)):
        (value,), (estimate,) = PanelPlan(0.0, 4.0, width).integrate(lambda t, _k: np.exp(-lam * t))
        error = abs(value + math.expm1(-4.0 * lam) / lam)
        assert error <= estimate
        if width == 2.0:  # under-resolved panels: the bounded error is real
            assert error > 1e-10
    # once resolved, the estimate falls to the rounding level of the sum
    assert estimate <= 1e-14 * value
    with pytest.raises(PreconditionError):
        PanelPlan(1.0, 1.0, 0.25)

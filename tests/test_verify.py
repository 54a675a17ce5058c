import numpy as np
import pytest

from hardyscope.errors import DomainError, PreconditionError
from hardyscope.green import green_weight
from hardyscope.spaces import build_density
from hardyscope.verify import (
    FAMILIES,
    asymptotics_fit,
    criticality_probe,
    default_suite,
    null_criticality_mass,
    ode_residual,
    p_rayleigh_gap,
    rayleigh_gap,
    rellich_gap,
    run_verification,
    uncertainty_gap,
)
from hardyscope.weights import (
    weight_dr_poincare,
    weight_gamma_family,
    weight_p_dr,
    weight_theorem_b,
)


def test_default_suite_members_and_support():
    suite = default_suite()
    assert len(suite) == 20
    names = [m.name for m in suite]
    assert names[0] == "bump_00" and names[17] == "bump_17"
    assert names[-2:] == ["gauss_lo", "gauss_hi"]
    for member in suite:
        lo, hi = member.support
        assert 0.0 < lo < hi
        outside = np.array([lo * 0.5, hi + 1.0])
        np.testing.assert_array_equal(member.scalar.value(outside), 0.0)
        inside = np.linspace(lo, hi, 31)[1:-1]
        assert np.all(np.asarray(member.scalar.value(inside)) > 0.0)


def test_suite_jets_match_finite_differences():
    member = default_suite().members[7]
    lo, hi = member.support
    r = np.linspace(lo + 0.3, hi - 0.3, 9)
    step = 1e-6
    fd1 = (member.scalar.value(r + step) - member.scalar.value(r - step)) / (2.0 * step)
    j = member.scalar.jet(r)
    np.testing.assert_allclose(j.d1, fd1, rtol=1e-6, atol=1e-12)


def test_rayleigh_gap_is_nonnegative():
    model = build_density("dr:2,1")
    suite = default_suite()
    pair = weight_theorem_b(model)
    for member in (suite.members[0], suite.members[9], suite.members[-1]):
        res = rayleigh_gap(model, pair, member)
        assert res.lhs > 0.0 and res.rhs > 0.0
        assert res.gap >= -1e-8 * res.scale

    quasi = weight_p_dr(4, 2, 3.0)
    model42 = build_density("dr:4,2")
    res = p_rayleigh_gap(model42, quasi, suite.members[9])
    assert res.gap >= -1e-8 * res.scale


def test_ode_residual_levels():
    dr = build_density("dr:4,2")
    assert ode_residual(dr, weight_theorem_b(dr)) <= 1e-10
    assert ode_residual(dr, weight_dr_poincare(4, 2)) <= 1e-10
    assert ode_residual(dr, weight_gamma_family(dr, 0.25)) <= 1e-8
    # supersolution residual is signed: it may be positive, just not negative
    assert ode_residual(dr, weight_p_dr(4, 2, 3.0)) >= -1e-10


def test_ode_residual_requires_ground_state_and_valid_grid():
    dr = build_density("dr:2,1")
    with pytest.raises(PreconditionError):
        ode_residual(dr, green_weight(dr, 2.0))
    with pytest.raises(DomainError):
        ode_residual(dr, weight_theorem_b(dr), grid=np.array([0.0, 1.0]))


def test_criticality_probe_decays_on_both_ends():
    probe = criticality_probe(build_density("hyperbolic:4"))
    (r1, v1), (r2, v2) = probe.at_origin
    assert r2 < r1 and v2 < v1 < 1.0
    (s1, w1), (s2, w2) = probe.at_infinity
    assert s2 > s1 and w2 < w1 < 1.0


def test_null_mass_log_divergence():
    model = build_density("hyperbolic:5")
    out = null_criticality_mass(model, 1e-2, 10.0)
    assert out.closed_form == pytest.approx(0.25 * np.log(1e3), rel=1e-15)
    assert out.mass == pytest.approx(out.closed_form, rel=1e-10)
    # mass over [R, eR] is the increment per unit log R
    assert out.log_slope == pytest.approx(0.25, abs=1e-6)
    with pytest.raises(PreconditionError):
        null_criticality_mass(model, 1.0, 0.5)


def test_uncertainty_ratio_dominates_one():
    member = default_suite().members[9]
    res = uncertainty_gap(2, 1, member)
    assert res.energy > 0.0 and res.weighted_moment > 0.0 and res.norm > 0.0
    assert res.ratio >= 1.0
    with pytest.raises(PreconditionError):
        uncertainty_gap(4, 2, member)  # q = 2 has no comparison weight


def test_rellich_gap_nonnegative():
    member = default_suite().members[5]
    res = rellich_gap(8, 7, member)
    assert res.gap >= -1e-8 * res.scale


def test_asymptotics_fit_recovers_exact_power_law():
    radii = np.geomspace(1e-5, 1e-2, 12)
    fit = asymptotics_fit(radii, 3.7 * radii**-2.5)
    assert fit.slope == pytest.approx(-2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-12)
    assert fit.max_residual < 1e-12


def test_asymptotics_fit_validation():
    with pytest.raises(PreconditionError):
        asymptotics_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])  # too few
    radii = np.geomspace(1.0, 5.0, 8)  # under two decades
    with pytest.raises(PreconditionError):
        asymptotics_fit(radii, radii**2)
    radii = np.geomspace(1e-3, 1.0, 8)
    with pytest.raises(PreconditionError):
        asymptotics_fit(radii, -(radii**2))


def test_run_verification_orders_reports_deterministically():
    kwargs = dict(spaces=["hyperbolic:3"], families=["criticality"])
    first = run_verification(**kwargs)
    second = run_verification(**kwargs)
    assert [r.check_id for r in first] == [
        "criticality.probe_origin",
        "criticality.probe_infinity",
        "criticality.null_mass",
        "criticality.null_mass_slope",
    ]
    assert all(r.verdict == "pass" for r in first)
    for a, b in zip(first, second):
        da, db = a.as_dict(), b.as_dict()
        da.pop("seconds"), db.pop("seconds")
        assert da == db


def test_run_verification_rejects_unknown_family():
    with pytest.raises(PreconditionError):
        run_verification(spaces=["euclidean:3"], families=["mystery"])
    assert "rayleigh" in FAMILIES


def test_report_dict_shape():
    report = run_verification(spaces=["euclidean:4"], families=["asymptotics"])
    # flat space has no Green asymptotics job, so the list is empty
    assert report == []
    out = run_verification(spaces=["hyperbolic:3"], families=["asymptotics"])[0]
    d = out.as_dict()
    assert set(d) == {
        "check_id",
        "space",
        "params",
        "lhs",
        "rhs",
        "gap",
        "tolerance",
        "verdict",
        "seconds",
    }
    assert d["verdict"] == "pass"

import dataclasses

import numpy as np
import pytest

from hardyscope import verify
from hardyscope.calculus import PanelPlan, RadialScalar, jet_where, radius
from hardyscope.errors import DomainError, PreconditionError, QuadratureError
from hardyscope.green import green_weight
from hardyscope.spaces import DEFAULT_CATALOG, build_density, default_grid
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
    hpw_g,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ode_residual_rejects_a_grid_with_nan_or_inf(bad):
    h3 = build_density("hyperbolic:3")
    with pytest.raises(DomainError):
        ode_residual(h3, weight_theorem_b(h3), grid=np.array([bad, 1.0, 2.0]))


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
    assert out.log_slope == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(PreconditionError):
        null_criticality_mass(model, 1.0, 0.5)


def test_null_mass_refuses_a_weight_with_a_jump(monkeypatch):
    # a jump at r = 2 lies inside a panel (u = log r): the null rules see it
    model = build_density("hyperbolic:5")
    pair = weight_theorem_b(model)
    step = RadialScalar.from_value_only(lambda r: np.where(r < 2.0, 1.0, 2.0))
    monkeypatch.setattr(verify, "weight_theorem_b", lambda m: dataclasses.replace(pair, W=pair.W * step))
    with pytest.raises(QuadratureError):
        null_criticality_mass(model, 1e-2, 10.0)


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


# -- the suite-wide path against the per-member integrals it replaced -------


def _per_member(fn, member):
    a, b = member.support
    return float(PanelPlan(a, b, 0.25, 8).integrate(lambda t, _k: fn(t))[0][0])


def _reference_form_gap(model, pair, member):
    """Both sides of the P-Rayleigh form, one member at a time."""
    phi, P = member.scalar, pair.P

    def weight_fn(r):
        base = np.asarray(model.f(r))
        return base if pair.measure is None else base * np.asarray(pair.measure.value(r))

    def lhs_fn(r):
        return np.abs(phi.jet(r).d1) ** P * weight_fn(r)

    def rhs_fn(r):
        net = np.asarray(pair.W.value(r)) - np.asarray(pair.V.value(r))
        return net * np.abs(phi.value(r)) ** P * weight_fn(r)

    return _per_member(lhs_fn, member), _per_member(rhs_fn, member)


def _reference_uncertainty(model, member):
    phi, p, q = member.scalar, model.p, model.q

    def energy_fn(r):
        j = phi.jet(r)
        return (j.d1**2 - model.lambda0 * j.val**2) * np.asarray(model.f(r))

    def moment_fn(r):
        return hpw_g(p, q, r) * r**2 * phi.value(r) ** 2 * np.asarray(model.f(r))

    def norm_fn(r):
        return phi.value(r) ** 2 * np.asarray(model.f(r))

    return tuple(_per_member(fn, member) for fn in (energy_fn, moment_fn, norm_fn))


def _reference_rellich(model, member):
    phi, p, q = member.scalar, model.p, model.q

    def lhs_fn(r):
        j = phi.jet(r)
        lap = j.d2 + np.asarray(model.log_df(r)) * j.d1
        return hpw_g(p, q, r) * r**2 * (lap + model.lambda0 * j.val) ** 2 * np.asarray(model.f(r))

    def rhs_fn(r):
        return phi.value(r) ** 2 / (16.0 * hpw_g(p, q, r) * r**2) * np.asarray(model.f(r))

    return _per_member(lhs_fn, member), _per_member(rhs_fn, member)


def _assert_sides_close(got, expected, context):
    scale = sum(abs(x) for x in expected)
    for g, e in zip(got, expected):
        assert abs(g - e) <= 1e-13 * scale, (context, got, expected)


@pytest.mark.parametrize("space", ["dr:4,2", "hyperbolic:3"])
def test_batched_rayleigh_gaps_match_per_member_integrals(space):
    model = build_density(space)
    suite = default_suite()
    labels = {"B", "gamma", "weighted[0.5]", "p_dr[3]", "green[2]"}
    pairs = [(label, pair) for label, _, pair in verify._pairs_for(model) if label in labels]
    assert {label for label, _ in pairs} == (labels if model.kind == "dr" else labels - {"p_dr[3]"})
    reports = {r.check_id: r for r in run_verification(spaces=[space], families=["rayleigh"], suite=suite)}
    for label, pair in pairs:
        for member in suite:
            report = reports[f"rayleigh.{label}.{member.name}"]
            expected = _reference_form_gap(model, pair, member)
            _assert_sides_close((report.lhs, report.rhs), expected, (label, member.name))


def test_batched_uncertainty_and_rellich_match_per_member_integrals():
    model = build_density("dr:8,7")
    suite = default_suite()
    reports = run_verification(spaces=["dr:8,7"], families=["uncertainty", "rellich"], suite=suite)
    by_id = {r.check_id: r for r in reports}
    for res, member in zip(verify._uncertainty_results(model, suite), suite):
        expected = _reference_uncertainty(model, member)
        _assert_sides_close((res.energy, res.weighted_moment, res.norm), expected, member.name)
        ratio = expected[0] * expected[1] / (0.25 * expected[2] ** 2)
        assert by_id[f"uncertainty.{member.name}"].lhs == pytest.approx(ratio, rel=1e-12)
    for member in suite:
        report = by_id[f"rellich.{member.name}"]
        _assert_sides_close((report.lhs, report.rhs), _reference_rellich(model, member), member.name)


def test_single_member_gaps_run_the_suite_path():
    model = build_density("dr:4,2")
    suite = default_suite()
    pair = weight_p_dr(4, 2, 3.0)
    batched = verify._form_gaps(model, pair, suite, pair.P)
    for member, res in zip(suite, batched):
        single = p_rayleigh_gap(model, pair, member)
        _assert_sides_close((single.lhs, single.rhs), (res.lhs, res.rhs), member.name)


# -- value-only evaluation ----------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_scalar_values_equal_jet_values_bit_for_bit():
    grid = default_grid()
    checked = 0
    for space in DEFAULT_CATALOG:
        model = build_density(space)
        for label, _, pair in verify._pairs_for(model):
            scalars = [("V", pair.V), ("W", pair.W)] + list(pair.terms)
            scalars += [(k, s) for k, s in (("measure", pair.measure), ("ground_state", pair.ground_state)) if s]
            for name, scalar in scalars:
                with np.errstate(all="ignore"):
                    value, full = scalar.value(grid), scalar.jet(grid).val
                assert _same_bits(value, full), (space, label, name)
                checked += 1
    assert checked > 200


def test_value_only_scalars_still_guard_and_select():
    s = RadialScalar.from_value_only(lambda r: r**2) * RadialScalar.from_values(np.exp, np.exp, np.exp)
    with pytest.raises(DomainError):
        s.d1(2.0)
    assert s.value(2.0) == 4.0 * np.exp(2.0)

    picked = RadialScalar(lambda j: jet_where(j.val < 1.0, j * j, j.sqrt()))
    grid = np.array([0.25, 0.5, 2.0, 9.0])
    np.testing.assert_array_equal(picked.value(grid), [0.0625, 0.25, np.sqrt(2.0), 3.0])
    assert _same_bits(picked.value(grid), picked.jet(grid).val)
    np.testing.assert_allclose(picked.jet(grid).d1, [0.5, 1.0, 0.5 / np.sqrt(2.0), 1.0 / 6.0], rtol=1e-15)
    assert (picked * radius()).value(4.0) == 8.0


# -- one evaluation per space, not per member -----------------------------------


class _CountingModel:
    """Delegates to a density model and counts calls of f and log_df."""

    def __init__(self, model, counts):
        self._model = model
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._model, name)

    def f(self, r):
        self._counts["f"] += 1
        return self._model.f(r)

    def log_df(self, r):
        self._counts["log_df"] += 1
        return self._model.log_df(r)


class _CountingScalar:
    def __init__(self, scalar, counts, key):
        self._scalar, self._counts, self._key = scalar, counts, key

    def value(self, r):
        self._counts[self._key] += 1
        return self._scalar.value(r)


def _counted_run(monkeypatch, space, families, suite, label=None):
    counts = {"f": 0, "log_df": 0, "W": 0, "V": 0, "hpw_g": 0}
    real_build, real_pairs, real_hpw_g = verify.build_density, verify._pairs_for, verify.hpw_g

    def pairs_for(model):
        out = []
        for lab, params, pair in real_pairs(model):
            if lab == label:
                W, V = _CountingScalar(pair.W, counts, "W"), _CountingScalar(pair.V, counts, "V")
                out.append((lab, params, dataclasses.replace(pair, W=W, V=V)))
        return out

    def counted_hpw_g(*args):
        counts["hpw_g"] += 1
        return real_hpw_g(*args)

    monkeypatch.setattr(verify, "build_density", lambda desc: _CountingModel(real_build(desc), counts))
    monkeypatch.setattr(verify, "_pairs_for", pairs_for)
    monkeypatch.setattr(verify, "hpw_g", counted_hpw_g)
    reports = run_verification(spaces=[space], families=families, suite=suite)
    assert len(reports) == len(families) * len(suite)
    assert all(r.verdict == "pass" for r in reports)
    monkeypatch.undo()
    return counts


def _small_suite():
    return verify.TestFunctionSuite(default_suite().members[5:8])


@pytest.mark.parametrize("space, label", [("dr:4,2", "green[2]"), ("dr:4,2", "weighted[0.5]"), ("hyperbolic:3", "B")])
def test_rayleigh_evaluates_each_weight_once_per_pair(monkeypatch, space, label):
    small = _counted_run(monkeypatch, space, ["rayleigh"], _small_suite(), label)
    full = _counted_run(monkeypatch, space, ["rayleigh"], default_suite(), label)
    assert small == full
    assert full["f"] == full["W"] == full["V"] == 1, full


def test_uncertainty_and_rellich_evaluate_once_per_space(monkeypatch):
    for family in ("uncertainty", "rellich"):
        small = _counted_run(monkeypatch, "dr:8,7", [family], _small_suite())
        full = _counted_run(monkeypatch, "dr:8,7", [family], default_suite())
        assert small == full
        assert full["f"] == full["hpw_g"] == 1, (family, full)
        assert full["log_df"] == (1 if family == "rellich" else 0), (family, full)


def test_report_seconds_split_the_group_time():
    reports = run_verification(spaces=["dr:8,7"], families=["rellich", "criticality"], suite=_small_suite())
    assert [r.check_id for r in reports][:3] == ["rellich.bump_05", "rellich.bump_06", "rellich.bump_07"]
    assert len({r.seconds for r in reports[:3]}) == 1
    assert len({r.seconds for r in reports[3:]}) == 1
    assert all(r.seconds > 0.0 for r in reports)

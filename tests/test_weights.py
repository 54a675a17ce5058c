import numpy as np
import pytest

from hardyscope.errors import DomainError, PreconditionError
from hardyscope.calculus import RadialScalar, radius
from hardyscope.spaces import build_density, default_grid
from hardyscope.weights import (
    WeightPair,
    WeightSample,
    default_aux_h,
    hpw_g,
    raw_density_ratio,
    weight_dr_poincare,
    weight_gamma_dr,
    weight_gamma_family,
    weight_p_dr,
    weight_theorem_b,
    weight_weighted,
)

DR_SPACES = ("dr:2,1", "dr:4,2", "dr:4,3", "dr:8,7")


def test_quadratic_pair_flat_is_single_hardy_coefficient():
    grid = default_grid()
    for n in (3, 4, 5, 6):
        pair = weight_theorem_b(build_density(f"euclidean:{n}"))
        total = pair.extras["W_total"]
        expected = (n - 2) ** 2 / 4.0 / grid**2
        # exact closure, not an approximation: the combined density must be
        # bitwise equal to the classical coefficient over r^2
        assert np.array_equal(total.value(grid), expected)
        names = [name for name, _ in pair.extras["W_total_terms"]]
        assert names == ["(n-2)^2/(4r^2)"]


def test_quadratic_pair_value_on_heisenberg_type_space():
    pair = weight_theorem_b(build_density("dr:2,1"))
    assert pair.V.value(2.0) == pytest.approx(-1.16200995778206, rel=1e-12)
    assert pair.W.value(2.0) == pytest.approx(1.0 / 16.0, rel=1e-15)
    # the un-simplified density ratio agrees away from the pole
    raw = pair.extras["V_raw"]
    for r in (0.5, 1.0, 2.0, 7.0):
        assert raw.value(r) == pytest.approx(pair.V.value(r), rel=1e-9)


def test_quadratic_pair_hyperbolic_constants():
    for n in (3, 4, 5):
        pair = weight_theorem_b(build_density(f"hyperbolic:{n}"))
        lam0 = (n - 1) ** 2 / 4.0
        c = (n - 1) * (n - 3) / 4.0
        r = 1.3
        assert pair.V.value(r) == pytest.approx(-(lam0 + c / np.sinh(r) ** 2), rel=1e-13)
        terms = dict(pair.extras["W_total_terms"])
        assert terms["1/(4r^2)"].value(2.0) == pytest.approx(1.0 / 16.0, rel=1e-15)
        assert terms["lambda0 shift"].value(2.0) == lam0
        if n == 3:
            assert "sinh(r) term" not in terms
        else:
            assert terms["sinh(r) term"].value(r) * np.sinh(r) ** 2 == pytest.approx(c, rel=1e-13)


def test_quadratic_pair_term_breakdown_skips_vanishing_coefficients():
    # q = 2 kills the sinh(r) coefficient q(q-2)/4
    terms = dict(weight_theorem_b(build_density("dr:4,2")).extras["W_total_terms"])
    assert "sinh(r) term" not in terms
    assert "sinh(r/2) term" in terms


def test_shifted_pair_weight_value_and_term_sum():
    pair = weight_dr_poincare(2, 1)
    assert pair.W.value(2.0) == pytest.approx(0.22450995778205987, rel=1e-12)
    assert pair.V.value(5.0) == -1.0  # -lambda0 = -(p+2q)^2/16
    grid = default_grid()
    acc = pair.terms[0][1].value(grid)
    for _, scalar in pair.terms[1:]:
        acc = acc + scalar.value(grid)
    assert np.array_equal(pair.W.value(grid), acc)


def test_sample_contains_breakdown_and_rejects_bad_radius():
    sample = weight_dr_poincare(4, 3).sample(1.5)
    assert isinstance(sample, WeightSample)
    assert sample.W_total == pytest.approx(sample.W - sample.V)
    assert set(sample.terms) == {"1/(4r^2)", "sinh(r/2) term", "sinh(r) term"}
    assert sample.ground_state > 0.0

    pair = weight_dr_poincare(4, 3)
    assert isinstance(pair, WeightPair)
    with pytest.raises(DomainError):
        pair.sample(0.0)
    with pytest.raises(DomainError):
        pair.sample(np.array([1.0, -2.0]))


def test_gamma_family_at_zero_reduces_to_quadratic_pair():
    grid = np.geomspace(0.05, 30.0, 40)
    for desc in ("hyperbolic:4", "dr:4,2"):
        model = build_density(desc)
        base = weight_theorem_b(model)
        fam = weight_gamma_family(model, 0.0)
        np.testing.assert_allclose(fam.V.value(grid), base.V.value(grid), rtol=1e-12)
        np.testing.assert_allclose(fam.W.value(grid), base.W.value(grid), rtol=1e-15)
        np.testing.assert_allclose(
            fam.ground_state.value(grid), base.ground_state.value(grid), rtol=1e-12
        )


def test_gamma_collapsed_form_matches_general_family():
    grid = np.geomspace(0.05, 40.0, 60)
    for p, q in ((2, 1), (4, 3)):
        model = build_density(f"dr:{p},{q}")
        for gamma in (0.1, 0.25, 0.4):
            fam = weight_gamma_family(model, gamma)
            col = weight_gamma_dr(p, q, gamma)
            # the two split V and W differently; the invariant object is the
            # combined density W - V and the ground state
            total_fam = fam.W.value(grid) - np.asarray(fam.V.value(grid))
            total_col = col.W.value(grid) - np.asarray(col.V.value(grid))
            scale = np.abs(total_fam) + 1.0
            assert np.max(np.abs(total_fam - total_col) / scale) < 1e-10
            np.testing.assert_allclose(
                col.ground_state.value(grid), fam.ground_state.value(grid), rtol=1e-12
            )


def test_gamma_collapsed_drift_and_shift_values():
    pair = weight_gamma_dr(2, 1, 0.25)
    terms = dict(pair.terms)
    assert terms["drift term"].value(1.0) == pytest.approx(0.43462358740474805, rel=1e-12)
    assert pair.extras["lambda0_shift"] == pytest.approx(35.0 / 36.0, rel=1e-15)
    assert pair.V.value(3.0) == pytest.approx(-35.0 / 36.0, rel=1e-15)


def test_gamma_parameter_and_aux_validation():
    model = build_density("dr:2,1")
    for bad in (-0.1, 0.6):
        with pytest.raises(PreconditionError):
            weight_gamma_family(model, bad)
        with pytest.raises(PreconditionError):
            weight_gamma_dr(2, 1, bad)
    with pytest.raises(PreconditionError):
        weight_gamma_family(model, 0.3, aux_h=RadialScalar.constant(-1.0))
    # the default auxiliary function grows linearly from the pole
    aux = default_aux_h(model)
    assert aux.value(1e-4) / 1e-4 == pytest.approx(1.0, rel=1e-6)


def test_weighted_pair_needs_enough_dimensions():
    with pytest.raises(PreconditionError):
        weight_weighted(build_density("dr:2,1"), 1.5)  # n = 4 < 2(1+alpha) = 5
    with pytest.raises(PreconditionError):
        weight_weighted(build_density("euclidean:3"), -0.5)
    # n = 16 clears the same alpha comfortably
    pair = weight_weighted(build_density("dr:8,7"), 1.5)
    assert pair.V.value(1.0) == -build_density("dr:8,7").lambda0


def test_weighted_pair_flat_value_and_measure():
    pair = weight_weighted(build_density("euclidean:4"), 1.0)
    sample = pair.sample(1.0)
    assert sample.W_total == pytest.approx(-1.0, rel=1e-14)
    assert pair.measure.value(2.0) == pytest.approx(0.25, rel=1e-15)
    assert pair.params["measure_exponent"] == -2.0
    assert pair.ground_state is None
    grid = np.geomspace(0.1, 10.0, 20)
    np.testing.assert_allclose(
        pair.extras["density"].value(grid),
        pair.W.value(grid) - np.asarray(pair.V.value(grid)),
        rtol=1e-15,
    )


def test_quasilinear_pair_values_and_nonnegative_terms():
    pair = weight_p_dr(4, 2, 3.0)
    assert pair.extras["Lambda_P"] == pytest.approx((4.0 / 3.0) ** 3, rel=1e-15)
    assert pair.V.value(1.0) == pytest.approx(-3.5282829028005733, rel=1e-12)
    grid = default_grid()
    for p, q, P in ((2, 1, 2.0), (4, 2, 3.0), (4, 3, 3.0), (8, 7, 4.0)):
        qp = weight_p_dr(p, q, P)
        for name, scalar in qp.terms:
            assert np.min(scalar.value(grid)) >= -1e-15, (p, q, P, name)
        gs = qp.ground_state.value(grid)
        assert np.all(np.isfinite(gs)) and np.all(gs > 0.0)


def test_quasilinear_comparison_function_profile():
    pair = weight_p_dr(2, 1, 2.0)
    g = pair.extras["g"]
    grid = np.geomspace(1e-6, 40.0, 80)
    vals = np.asarray(g.value(grid))
    # r g(r) -> 2(p+q-1)/(p+2q) at the pole; far out the coth settles on 1
    # and only the 1/r drag remains, g(r) = 1 - 2/((p+2q) r) + O(e^-r)
    assert grid[0] * vals[0] == pytest.approx(2.0 * 2.0 / 4.0, rel=1e-6)
    assert vals[-1] == pytest.approx(1.0 - 2.0 / (4.0 * 40.0), rel=1e-12)
    assert np.all(vals > 0.0)


def test_quasilinear_preconditions():
    with pytest.raises(PreconditionError):
        weight_p_dr(2, 1, 1.5)
    with pytest.raises(PreconditionError):
        weight_p_dr(2, 1, 3.0)  # p + q = 3 < P(P-1) = 6
    with pytest.raises(PreconditionError):
        weight_p_dr(8, 7, 5.0)  # 15 < 20


def test_comparison_ratio_examples_and_range():
    assert hpw_g(2, 1, 2.0) == pytest.approx(0.27838408869450265, rel=1e-12)
    with pytest.raises(PreconditionError):
        hpw_g(4, 2, 1.0)
    vals = hpw_g(8, 7, default_grid())
    assert np.all(vals > 0.0) and np.all(vals < 1.0)


def test_ground_state_jets_survive_large_radii():
    # f(60) on dr:8,7 is around e^660; the ground state jet must still come
    # back finite because the power rule works through ratios
    for pair in (weight_theorem_b(build_density("dr:8,7")), weight_gamma_dr(8, 7, 0.4)):
        jet = pair.ground_state.jet(60.0)
        assert np.isfinite(jet.val) and np.isfinite(jet.d1) and np.isfinite(jet.d2)
        assert jet.val > 0.0
    logs = weight_theorem_b(build_density("dr:8,7")).extras["log_ground_state"](60.0)
    assert logs == pytest.approx(-0.5 * (build_density("dr:8,7").log_f(60.0) - np.log(60.0)))

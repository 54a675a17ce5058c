import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyscope.errors import PreconditionError
from hardyscope.spaces import DEFAULT_CATALOG, build_density, default_grid, validate_heisenberg_params
from hardyscope.verify import SuiteDensity, _pairs_for, default_suite
from hardyscope.weights import (
    WeightPair,
    hpw_g,
    weight_dr_poincare,
    weight_gamma_dr,
    weight_gamma_family,
    weight_p_dr,
    weight_theorem_b,
    weight_weighted,
)

DR_SPACES = ("dr:2,1", "dr:4,2", "dr:4,3", "dr:8,7")


def _admissible(p, q):
    try:
        validate_heisenberg_params(p, q)
    except PreconditionError:
        return False
    return True


#: every admissible (p, q) with p <= 32 and q <= 11
ADMISSIBLE = [(p, q) for p in range(2, 33, 2) for q in range(1, 12) if _admissible(p, q)]
COEFFICIENT_RADII = np.geomspace(1e-3, 30.0, 25)


def _raw_density_ratio(model, r):
    """((f')^2 - 2 f f'') / (4 f^2) as ((f'/f)^2 - 2 f''/f) / 4: the quadratic
    pair's potential before algebraic simplification, which loses digits to
    cancellation near the pole."""
    return (model.log_df(r) ** 2 - 2.0 * model.d2f_over_f(r)) / 4.0


def test_quadratic_pair_flat_is_single_hardy_coefficient():
    grid = default_grid()
    for n in (3, 4, 5, 6):
        pair = weight_theorem_b(build_density(f"euclidean:{n}"))
        # the combined density W - V is the classical coefficient over r^2,
        # to rounding of the coefficient itself
        total = grid**2 * (pair.W.value(grid) - pair.V.value(grid))
        np.testing.assert_allclose(total, (n - 2) ** 2 / 4.0, rtol=1e-15, atol=0.0)


def test_quadratic_pair_value_on_heisenberg_type_space():
    model = build_density("dr:2,1")
    pair = weight_theorem_b(model)
    assert pair.V.value(2.0) == pytest.approx(-1.16200995778206, rel=1e-12)
    assert pair.W.value(2.0) == pytest.approx(1.0 / 16.0, rel=1e-15)
    # the un-simplified density ratio agrees away from the pole
    for r in (0.5, 1.0, 2.0, 7.0):
        assert _raw_density_ratio(model, r) == pytest.approx(pair.V.value(r), rel=1e-9)


def test_quadratic_pair_hyperbolic_constants():
    for n in (3, 4, 5):
        pair = weight_theorem_b(build_density(f"hyperbolic:{n}"))
        lam0 = (n - 1) ** 2 / 4.0
        c = (n - 1) * (n - 3) / 4.0
        r = 1.3
        assert pair.V.value(r) == pytest.approx(-(lam0 + c / np.sinh(r) ** 2), rel=1e-13)
        terms = dict(pair.terms)
        assert terms["1/(4r^2)"].value(2.0) == pytest.approx(1.0 / 16.0, rel=1e-15)
        if n == 3:
            # the sinh(r) coefficient vanishes: -V is lambda0 alone
            assert -pair.V.value(2.0) == lam0
        else:
            assert np.sinh(r) ** 2 * (-pair.V.value(r) - lam0) == pytest.approx(c, rel=1e-13)


def test_term_breakdown_skips_vanishing_coefficients():
    # q = 2 kills the sinh(r) coefficient q(q-2)/4, and n = 3 the
    # hyperbolic one (n-1)(n-3)/4
    for desc in ("dr:4,2", "hyperbolic:3"):
        terms = dict(weight_weighted(build_density(desc), 0.0).terms)
        assert "sinh(r) term" not in terms, desc
    assert "sinh(r/2) term" in dict(weight_weighted(build_density("dr:4,2"), 0.0).terms)


def test_shifted_pair_weight_value_and_term_sum():
    pair = weight_dr_poincare(build_density("dr:2,1"))
    assert pair.W.value(2.0) == pytest.approx(0.22450995778205987, rel=1e-12)
    assert pair.V.value(5.0) == -1.0  # -lambda0 = -(p+2q)^2/16
    grid = default_grid()
    acc = pair.terms[0][1].value(grid)
    for _, scalar in pair.terms[1:]:
        acc = acc + scalar.value(grid)
    assert np.array_equal(pair.W.value(grid), acc)


def test_pair_names_its_breakdown_and_ground_state():
    pair = weight_dr_poincare(build_density("dr:4,3"))
    assert isinstance(pair, WeightPair)
    terms = dict(pair.terms)
    assert set(terms) == {"1/(4r^2)", "sinh(r/2) term", "sinh(r) term"}
    assert pair.W.value(1.5) == sum(scalar.value(1.5) for scalar in terms.values())
    assert pair.V.value(1.5) == -build_density("dr:4,3").lambda0
    assert np.isfinite(pair.log_ground_state.value(1.5))


def test_gamma_family_at_zero_reduces_to_quadratic_pair():
    grid = np.geomspace(0.05, 30.0, 40)
    for desc in ("hyperbolic:4", "dr:4,2"):
        model = build_density(desc)
        base = weight_theorem_b(model)
        fam = weight_gamma_family(model, 0.0)
        np.testing.assert_allclose(fam.V.value(grid), base.V.value(grid), rtol=1e-12)
        np.testing.assert_allclose(fam.W.value(grid), base.W.value(grid), rtol=1e-15)
        # a relative tolerance on Phi is an absolute one on log Phi
        np.testing.assert_allclose(
            fam.log_ground_state.value(grid), base.log_ground_state.value(grid), rtol=0.0, atol=1e-12
        )


def test_gamma_collapsed_form_matches_general_family():
    grid = np.geomspace(0.05, 40.0, 60)
    for p, q in ((2, 1), (4, 3)):
        model = build_density(f"dr:{p},{q}")
        for gamma in (0.1, 0.25, 0.4):
            fam = weight_gamma_family(model, gamma)
            col = weight_gamma_dr(model, gamma)
            # the two split V and W differently; the invariant object is the
            # combined density W - V and the ground state
            total_fam = fam.W.value(grid) - np.asarray(fam.V.value(grid))
            total_col = col.W.value(grid) - np.asarray(col.V.value(grid))
            scale = np.abs(total_fam) + 1.0
            assert np.max(np.abs(total_fam - total_col) / scale) < 1e-10
            np.testing.assert_allclose(
                col.log_ground_state.value(grid), fam.log_ground_state.value(grid), rtol=0.0, atol=1e-12
            )


def test_gamma_collapsed_drift_and_shift_values():
    pair = weight_gamma_dr(build_density("dr:2,1"), 0.25)
    terms = dict(pair.terms)
    assert terms["drift term"].value(1.0) == pytest.approx(0.43462358740474805, rel=1e-12)
    assert pair.V.value(3.0) == pytest.approx(-35.0 / 36.0, rel=1e-15)


def test_gamma_parameter_validation():
    model = build_density("dr:2,1")
    for bad in (-0.1, 0.6):
        with pytest.raises(PreconditionError):
            weight_gamma_family(model, bad)
        with pytest.raises(PreconditionError):
            weight_gamma_dr(model, bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 100), gamma=st.floats(0.0, 0.5), r=st.floats(40.0, 1e3))
def test_gamma_pair_potential_far_out_on_hyperbolic_space(n, gamma, r):
    # past r = 40, coth r = 1 and 1/sinh(r)^2 < 1e-34 in double precision, so
    # with h = f^(1/(n-1)) = sinh r the potential is
    # V = -((n-1)^2/4 - gamma^2 + gamma (1 + 2 gamma)/r); h itself overflows
    # past r = 710, so the ends of the range are checked on every example
    radii = np.array([40.0, r, 1e3])
    V = weight_gamma_family(build_density(f"hyperbolic:{n}"), gamma).V.value(radii)
    expected = -((n - 1) ** 2 / 4.0 - gamma**2 + gamma * (1.0 + 2.0 * gamma) / radii)
    # relative to the size of the terms, as at n = 2 and gamma = 1/2 the first two cancel
    size = (n - 1) ** 2 / 4.0 + gamma**2 + gamma * (1.0 + 2.0 * gamma) / radii
    assert np.all(np.abs(V - expected) <= 1e-13 * size), (V, expected)


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
    assert pair.W.value(1.0) - pair.V.value(1.0) == pytest.approx(-1.0, rel=1e-14)
    assert pair.measure.value(2.0) == pytest.approx(0.25, rel=1e-15)
    grid = np.geomspace(0.1, 10.0, 20)
    np.testing.assert_allclose(pair.measure.value(grid), grid**-2.0, rtol=1e-15)
    assert pair.log_ground_state is None


def test_quasilinear_pair_values_and_nonnegative_terms():
    pair = weight_p_dr(build_density("dr:4,2"), 3.0)
    assert pair.V.value(1.0) == pytest.approx(-3.5282829028005733, rel=1e-12)
    grid = default_grid()
    for p, q, P in ((2, 1, 2.0), (4, 2, 3.0), (4, 3, 3.0), (8, 7, 4.0)):
        qp = weight_p_dr(build_density(f"dr:{p},{q}"), P)
        for name, scalar in qp.terms:
            assert np.min(scalar.value(grid)) >= -1e-15, (p, q, P, name)
        assert np.all(np.isfinite(qp.log_ground_state.value(grid)))


def test_quasilinear_comparison_function_profile():
    # V = -Lambda_P g^(P-2), so at P = 3 the comparison function is
    # g = -V / Lambda_3 with Lambda_3 = (h/3)^3 and h = (p+2q)/2 = 4 on dr:4,2
    pair = weight_p_dr(build_density("dr:4,2"), 3.0)
    grid = np.geomspace(1e-6, 40.0, 80)
    vals = -np.asarray(pair.V.value(grid)) / (4.0 / 3.0) ** 3
    # r g(r) -> 2(p+q-1)/(p+2q) at the pole; far out the coth settles on 1
    # and only the 1/r drag remains, g(r) = 1 - 2/((p+2q) r) + O(e^-r)
    assert grid[0] * vals[0] == pytest.approx(2.0 * 5.0 / 8.0, rel=1e-6)
    assert vals[-1] == pytest.approx(1.0 - 2.0 / (8.0 * 40.0), rel=1e-12)
    assert np.all(vals > 0.0)


def test_damek_ricci_builders_refuse_other_spaces():
    for desc in ("hyperbolic:3", "euclidean:3"):
        model = build_density(desc)
        cases = (
            ("theorem A", lambda: weight_dr_poincare(model)),
            ("the closed-form gamma decomposition", lambda: weight_gamma_dr(model, 0.25)),
            ("the p-Laplacian pair", lambda: weight_p_dr(model, 2.0)),
        )
        for what, build in cases:
            with pytest.raises(PreconditionError) as info:
                build()
            assert str(info.value) == f"{what} needs a Damek-Ricci space, got {desc}"


def test_quasilinear_preconditions():
    with pytest.raises(PreconditionError):
        weight_p_dr(build_density("dr:2,1"), 1.5)
    with pytest.raises(PreconditionError):
        weight_p_dr(build_density("dr:2,1"), 3.0)  # p + q = 3 < P(P-1) = 6
    with pytest.raises(PreconditionError):
        weight_p_dr(build_density("dr:8,7"), 5.0)  # 15 < 20


def test_comparison_ratio_examples_and_range():
    assert hpw_g(2, 1, 2.0) == pytest.approx(0.27838408869450265, rel=1e-12)
    with pytest.raises(PreconditionError):
        hpw_g(4, 2, 1.0)
    vals = hpw_g(8, 7, default_grid())
    assert np.all(vals > 0.0) and np.all(vals < 1.0)
    # out to r = 1e3, where both sinh terms underflow to 0, with no overflow
    # warning and no refusal
    radii = np.geomspace(1e-8, 1e3, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, q in ((2, 1), (4, 3), (8, 7), (32, 8)):
            vals = hpw_g(p, q, radii)
            assert np.all(vals > 0.0) and np.all(vals < 1.0), (p, q)
            assert hpw_g(p, q, 1e3) == np.nextafter(1.0, 0.0)


def test_ground_state_jets_survive_large_radii():
    # f(60) on dr:8,7 is around e^660; the jet of l = log Phi must still come
    # back finite because it is closed-form in log f and f'/f
    for pair in (weight_theorem_b(build_density("dr:8,7")), weight_gamma_dr(build_density("dr:8,7"), 0.4)):
        jet = pair.log_ground_state.jet(60.0)
        assert np.isfinite(jet.val) and np.isfinite(jet.d1) and np.isfinite(jet.d2)
    logs = weight_theorem_b(build_density("dr:8,7")).log_ground_state.value(60.0)
    assert logs == pytest.approx(-0.5 * (build_density("dr:8,7").log_f(60.0) - np.log(60.0)))


# -- curvature coefficients against the formulas as written ---------------------


def test_admissible_pairs_count():
    assert len(ADMISSIBLE) == 51


def test_shifted_pair_sinh_terms_match_written_coefficients():
    r = COEFFICIENT_RADII
    for p, q in ADMISSIBLE:
        terms = dict(weight_dr_poincare(build_density(f"dr:{p},{q}")).terms)
        half = terms["sinh(r/2) term"].value(r) * np.sinh(r / 2.0) ** 2
        full = terms["sinh(r) term"].value(r) * np.sinh(r) ** 2
        np.testing.assert_allclose(half, p * (p + 2 * q - 2) / 16.0, rtol=1e-14, err_msg=str((p, q)))
        np.testing.assert_allclose(full, q * (q - 2) / 4.0, rtol=1e-14, err_msg=str((p, q)))


def test_collapsed_gamma_sinh_terms_match_written_coefficients():
    r = COEFFICIENT_RADII
    for p, q in ADMISSIBLE:
        for gamma in (0.0, 0.2, 0.5):
            b = 0.5 + gamma / (p + q)
            d = b * b - b
            terms = dict(weight_gamma_dr(build_density(f"dr:{p},{q}"), gamma).terms)
            full = terms["sinh(r) term"].value(r) * np.sinh(r) ** 2
            half = terms["sinh(r/2) term"].value(r) * np.sinh(r / 2.0) ** 2
            np.testing.assert_allclose(full, -q * (q * d + b), rtol=1e-14, err_msg=str((p, q, gamma)))
            np.testing.assert_allclose(half, -p * ((p + 2 * q) * d + b) / 4.0, rtol=1e-14, err_msg=str((p, q, gamma)))


def test_quasilinear_sinh_terms_match_written_bracket():
    r = COEFFICIENT_RADII
    checked = 0
    for p, q in ADMISSIBLE:
        for P in (2.0, 2.5, 3.0, 4.0):
            if p + q < P * (P - 1.0):
                continue
            h = (p + 2.0 * q) / 2.0
            g = 1.0 / np.tanh(r / 2.0) - 2.0 / (p + 2.0 * q) * (q / np.sinh(r) + 1.0 / r)
            k = P * (P - 1.0)
            bracket = q * (q - k) / np.sinh(r) ** 2 + p * (p + 2 * q - k) / (4.0 * np.sinh(r / 2.0) ** 2)
            expected = h ** (P - 2.0) / P**P * g ** (P - 2.0) * bracket
            got = dict(weight_p_dr(build_density(f"dr:{p},{q}"), P).terms)["sinh terms"].value(r)
            np.testing.assert_allclose(got, expected, rtol=1e-13, err_msg=str((p, q, P)))
            checked += 1
    assert checked > 100


def test_weight_pieces_carry_values_only():
    r = np.geomspace(0.1, 10.0, 7)
    checked = 0
    for space in DEFAULT_CATALOG:
        for label, _, pair, _ in _pairs_for(build_density(space)):
            pieces = [("V", pair.V), ("W", pair.W), *pair.terms, ("measure", pair.measure)]
            for name, scalar in pieces:
                if scalar is None:
                    continue
                with pytest.raises(PreconditionError):
                    scalar.jet(r)
                checked += 1
    assert checked > 150


def _p_pair_reference(p, q, P, r):
    """V and the three terms of the quasi-linear pair at r, to 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        r, P = mpmath.mpf(r), mpmath.mpf(P)
        h = mpmath.mpf(p + 2 * q) / 2
        g = mpmath.coth(r / 2) - 2 / mpmath.mpf(p + 2 * q) * (q / mpmath.sinh(r) + 1 / r)
        pref = h ** (P - 2) / P**P * g ** (P - 2)
        k = P * (P - 1)
        bracket = q * (q - k) / mpmath.sinh(r) ** 2 + p * (p + 2 * q - k) / (4 * mpmath.sinh(r / 2) ** 2)
        terms = (pref * (P - 1) ** 2 / r**2, pref * h * (P - 2) * (g + 1 / (h * r)) / r, pref * bracket)
        return [float(x) for x in (-((h / P) ** P) * g ** (P - 2), *terms)]


@pytest.mark.parametrize("p, q, P, v1", [(20000, 1, 100.0, -7.16e232), (7482, 1, 87.0, -4.07e170)])
def test_quasilinear_pair_past_the_double_range_of_its_powers(p, q, P, v1):
    # on dr:20000,1 at P = 100, h^(P-2) = 10001^98 passes the double range
    # (a Python float power raises); on dr:7482,1 at P = 87, h^86 is finite
    # but h^86 (P-2) is inf before the division by P^P (a product overflows
    # silently).  V, its value v1 at r = 1 a double, and the terms are
    # doubles; each comes from logs, warning-free
    r = np.array([0.5, 1.0, 2.0, 10.0, 100.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = weight_p_dr(build_density(f"dr:{p},{q}"), P)
        got = np.array([pair.V.value(r)] + [scalar.value(r) for _, scalar in pair.terms])
    want = np.array([_p_pair_reference(p, q, P, x) for x in r]).T
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert abs(got[0][1] / v1 - 1.0) < 1e-2


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("space", DEFAULT_CATALOG + ("dr:32,8", "hyperbolic:30"))
def test_weight_is_the_in_order_sum_of_its_terms_bit_for_bit(space):
    # W evaluates the space's functions once per call (the quasi-linear
    # pair's g and g^(P-2) too) and must still be its terms' sum, taken in
    # their order; the gamma pair's V, which reads f'/f and (f'/f)' once, must
    # equal its written form.  On the suite's nodes and on the default grid
    model = build_density(space)
    for r in (SuiteDensity(model, default_suite()).plan.nodes, default_grid()):
        checked = 0
        for label, _, pair, _ in _pairs_for(model):
            total = pair.terms[0][1].value(r)
            for _, scalar in pair.terms[1:]:
                total = total + scalar.value(r)
            assert _same_bits(pair.W.value(r), total), (space, label)
            checked += 1
        assert checked >= 4
        for gamma in (0.0, 0.25, 0.5):
            d1, d2 = model.log_df(r) / (model.n - 1.0), model.dlog_df(r) / (model.n - 1.0)
            correction = gamma * (d2 + (1.0 + 2.0 * gamma) * d1 / r - gamma * np.square(d1))
            want = -(0.5 * model.d2f_over_f(r) - 0.25 * np.square(model.log_df(r)) + correction)
            assert _same_bits(weight_gamma_family(model, gamma).V.value(r), want), (space, gamma)

import mpmath
import numpy as np
import pytest

from hardyscope.errors import PreconditionError
from hardyscope.spaces import (
    DEFAULT_CATALOG,
    DensityModel,
    _cothm1,
    _logsinh,
    build_density,
    default_grid,
    heisenberg_exponent,
    validate_heisenberg_params,
)


def _scalar_curvature(m) -> float:
    """Scalar curvature at the pole: 0 on flat space, -n (p + 4q)/4 on the curved densities."""
    return 0.0 if m.kind == "euclidean" else -m.n * (m.p + 4.0 * m.q) / 4.0


def test_parse_space_round_trip():
    for desc in DEFAULT_CATALOG:
        assert build_density(desc).descriptor() == desc


def test_parse_rejects_bad_descriptors():
    for bad in ("dr:6,3", "dr:3,1", "foo:3", "euclidean:x", "hyperbolic:1", "dr:2", "euclidean:", "hyperbolic", "dr:a,b"):
        with pytest.raises(PreconditionError):
            build_density(bad)
    with pytest.raises(PreconditionError, match="unknown space kind 'sphere'"):
        DensityModel("sphere", 3)


def test_heisenberg_exponent_table():
    # q -> e, the power of two that must divide p
    expected = {1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 3, 7: 3, 8: 4, 9: 5, 16: 8, 24: 12}
    for q, e in expected.items():
        assert heisenberg_exponent(q) == e
    with pytest.raises(PreconditionError, match="q must be an integer >= 1, got 0"):
        heisenberg_exponent(0)


def test_admissibility_examples():
    for p, q in ((2, 1), (4, 2), (4, 3), (8, 7), (32, 9)):
        validate_heisenberg_params(p, q)
    # q = 9 forces 32 | p, so (16, 9) is out despite both entries looking tame
    for p, q in ((6, 3), (2, 2), (2, 4), (3, 1), (0, 1), (16, 9)):
        with pytest.raises(PreconditionError):
            validate_heisenberg_params(p, q)


def test_constants_per_family():
    e4 = build_density("euclidean:4")
    assert e4.h == 0.0 and e4.lambda0 == 0.0 and _scalar_curvature(e4) == 0.0

    h3 = build_density("hyperbolic:3")
    assert h3.h == 2.0
    assert h3.lambda0 == 1.0
    assert _scalar_curvature(h3) == -6.0

    dr = build_density("dr:2,1")
    assert dr.n == 4
    assert dr.h == 2.0
    assert dr.lambda0 == 1.0
    assert _scalar_curvature(dr) == -4 * (2 + 4 * 1) / 4.0

    dr87 = build_density("dr:8,7")
    assert dr87.h == 11.0
    assert dr87.lambda0 == 11.0**2 / 4.0
    assert _scalar_curvature(dr87) == -16 * (8 + 28) / 4.0 == -144.0
    assert dr87.lambda0 == dr87.h**2 / 4.0


def test_density_values():
    dr = build_density("dr:2,1")
    assert dr.f(1.0) == pytest.approx(1.2764580205594158, rel=1e-14)
    assert dr.log_df(1.0) == pytest.approx(3.4769886992379844, rel=1e-14)
    assert dr.log_df(2.0) == pytest.approx(2.3503500062268796, rel=1e-14)

    h3 = build_density("hyperbolic:3")
    assert h3.f(1.0) == pytest.approx(np.sinh(1.0) ** 2, rel=1e-15)
    e5 = build_density("euclidean:5")
    assert e5.f(2.0) == 16.0


def test_voldens_product_forms_agree():
    # 2^p sinh(r/2)^p sinh(r)^q versus 2^(p+q) sinh(r/2)^(p+q) cosh(r/2)^q
    grid = default_grid()
    for desc in ("dr:2,1", "dr:4,2", "dr:4,3", "dr:8,7"):
        m = build_density(desc)
        p, q = m.p, m.q
        alt = 2.0 ** (p + q) * np.sinh(grid / 2.0) ** (p + q) * np.cosh(grid / 2.0) ** q
        np.testing.assert_allclose(m.f(grid), alt, rtol=1e-12)


def test_derivatives_match_finite_differences():
    # below r ~ 0.5 the fixed step 1e-5 is no longer small against r and the
    # truncation term of the second difference swamps the comparison on the
    # high-dimensional spaces, so the FD cross-check runs on moderate radii
    grid = np.geomspace(0.5, 60.0, 40)
    for desc in DEFAULT_CATALOG:
        m = build_density(desc)
        step = 1e-5 * np.maximum(grid, 1.0)
        fd1 = (m.f(grid + step) - m.f(grid - step)) / (2.0 * step)
        fd2 = (m.f(grid + step) - 2.0 * m.f(grid) + m.f(grid - step)) / step**2
        # at r * step_ratio * drift ~ 1e-2 (dr:8,7 near r = 60) the central
        # difference truncation term alone reaches ~7e-6 relative
        np.testing.assert_allclose(m.f(grid) * m.log_df(grid), fd1, rtol=1e-5)
        np.testing.assert_allclose(m.f(grid) * m.d2f_over_f(grid), fd2, rtol=2e-5)


def test_log_df_identities():
    grid = np.geomspace(1e-2, 50.0, 30)
    for desc in DEFAULT_CATALOG:
        m = build_density(desc)
        step = 1e-6 * np.maximum(grid, 1.0)
        # f'/f flattens onto its limit exponentially fast, so at large radii
        # its finite difference is rounding noise near ulp(h); the atol
        # absorbs that regime while rtol still pins the mid-range values
        fd = (m.log_df(grid + step) - m.log_df(grid - step)) / (2.0 * step)
        np.testing.assert_allclose(m.dlog_df(grid), fd, rtol=1e-6, atol=1e-10)


def test_small_radius_series_band():
    # f(r)/r^(n-1) = 1 - s(o) r^2/(6n) + O(r^4); the quartic term stays
    # under 1.5e-3 r^2 for radii up to 0.025 on every catalog space
    for desc in DEFAULT_CATALOG:
        m = build_density(desc)
        for r in (0.003, 0.01, 0.025):
            ratio = m.f(r) / r ** (m.n - 1)
            series = 1.0 - _scalar_curvature(m) / (6.0 * m.n) * r**2
            assert abs(ratio - series) <= 1.5e-3 * r**2, (desc, r)


def test_drift_monotone_and_limit():
    grid = default_grid()
    for desc in DEFAULT_CATALOG:
        m = build_density(desc)
        drift = np.asarray(m.log_df(grid))
        assert np.all(np.diff(drift) <= 1e-14)
        if m.kind != "euclidean":
            assert abs(m.log_df(60.0) - m.h) <= 1e-8
        if m.kind == "dr":
            assert np.all(drift >= (m.p + m.q) / grid - 1e-12)


def test_excess_avoids_cancellation():
    m = build_density("dr:4,3")
    # excess = f'/f - h computed via expm1, so it stays relatively accurate
    # far beyond where the naive subtraction returns zero
    val = m.excess(40.0)
    assert 0.0 < val < 1e-15
    assert m.excess(500.0) >= 0.0
    # past r ~ 10 the naive subtraction is pure rounding noise around ulp(h),
    # so only compare the two on radii where it still carries signal
    grid = np.geomspace(1e-3, 10.0, 40)
    np.testing.assert_allclose(m.excess(grid), np.asarray(m.log_df(grid)) - m.h, rtol=1e-8, atol=1e-14)


def test_default_catalog_and_grid():
    assert len(DEFAULT_CATALOG) == 11
    models = [build_density(text) for text in DEFAULT_CATALOG]
    assert [m.descriptor() for m in models] == list(DEFAULT_CATALOG)
    grid = default_grid()
    assert grid.size == 400
    assert grid[0] == pytest.approx(1e-3) and grid[-1] == pytest.approx(60.0)


def test_spec_dataclass_validation():
    m = DensityModel("dr", 4, 2)
    assert (m.kind, m.n, m.p, m.q) == ("dr", 4, 2, 1)
    parsed = build_density("dr:2,1")
    assert (parsed.kind, parsed.n, parsed.p, parsed.q) == (m.kind, m.n, m.p, m.q)


def test_hyperbolic_is_the_p0_curved_density_bit_for_bit():
    # the reference is the closed form sinh(r)^(n-1) written out on its own
    r = np.geomspace(1e-8, 1e3, 3000)
    for n in (2, 3, 7, 30):
        m = build_density(f"hyperbolic:{n}")
        k = n - 1
        assert (m.p, m.q, m.h, _scalar_curvature(m)) == (0, k, float(k), -float(n * k))
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.sinh(r) ** k
            log_df = k / np.tanh(r)
            dlog_df = -k / np.sinh(r) ** 2
            d2f_over_f = dlog_df + log_df**2
            expected = {
                "f": f,
                "log_f": k * _logsinh(r),
                "log_df": log_df,
                "dlog_df": dlog_df,
                "d2f_over_f": d2f_over_f,
                "excess": k * _cothm1(r),
            }
            for name, want in expected.items():
                np.testing.assert_array_equal(getattr(m, name)(r), want, err_msg=f"{name} n={n}")


_EPS = float(np.finfo(float).eps)


def _mp_logsinh(x: float):
    return mpmath.log(mpmath.sinh(mpmath.mpf(x)))


def test_logsinh_and_log_f_within_two_ulps_of_mpmath():
    # the error counts absolutely where |log sinh| < 1 and relatively beyond;
    # log f sums such terms, so each term brings its own share of the scale
    r = np.concatenate((np.geomspace(1e-8, 1e3, 500), np.linspace(0.5, 1.5, 101)))
    with mpmath.workdps(40):
        whole = [_mp_logsinh(x) for x in r]
        half = [_mp_logsinh(x / 2.0) for x in r]
        ref = np.array([float(v) for v in whole])
        err = np.abs(_logsinh(r) - ref) / (_EPS * np.maximum(1.0, np.abs(ref)))
        assert err.max() <= 2.0, r[err.argmax()]
        for desc in ("euclidean:3", "hyperbolic:2", "hyperbolic:30", "hyperbolic:100", "dr:2,1", "dr:8,7", "dr:32,8"):
            m = build_density(desc)
            if m.kind == "euclidean":
                want = [(m.n - 1) * mpmath.log(mpmath.mpf(x)) for x in r]
                scale = (m.n - 1) * np.maximum(1.0, np.abs(np.log(r)))
            else:
                p, q = m.p, m.q
                want = [p * mpmath.log(2) + p * lh + q * lw for lh, lw in zip(half, whole)]
                lh = np.array([float(v) for v in half])
                scale = q * np.maximum(1.0, np.abs(ref)) + p * (np.log(2.0) + np.maximum(1.0, np.abs(lh)))
            err = np.abs(m.log_f(r) - np.array([float(v) for v in want])) / (_EPS * scale)
            assert err.max() <= 2.0, (desc, r[err.argmax()], err.max())

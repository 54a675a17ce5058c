import dataclasses
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal as scipy_eigh_tridiagonal
from scipy.linalg import lapack

from hardyscope import spectral
from hardyscope.errors import PreconditionError, QuadratureError
from hardyscope.spaces import build_density
from hardyscope.spectral import EigenProblem, SpectralResult, bottom_eigenvalue, eigh_tridiagonal

EPS = np.finfo(float).eps
#: the spaces of the benchmark's spectral workload
WORKLOAD_SPACES = ("euclidean:3", "hyperbolic:3", "hyperbolic:5", "dr:2,1", "dr:4,2", "dr:8,7")
#: the workload's 17 certified (space, R) balls; f overflows on dr:8,7 at R = 70
CERTIFIED_BALLS = [(space, R) for space in WORKLOAD_SPACES for R in (5.0, 20.0, 70.0) if (space, R) != ("dr:8,7", 70.0)]
#: flat, hyperbolic up to n = 100 and Damek-Ricci up to dr:32,8
SWEEP_SPACES = ("euclidean:2", "euclidean:5", "hyperbolic:2", "hyperbolic:3", "hyperbolic:10", "hyperbolic:100", "dr:2,1", "dr:8,7", "dr:32,8")


def _assemble(model, R, cells):
    """(d, e) of one mesh of R/cells cells, assembled cold from its own density grid."""
    h = R / cells
    f = spectral._density(model, h, cells)
    return spectral._assemble(f[0], f[1::2], f[2::2], h, R)


def _record_solves(monkeypatch):
    """Record every solve of ``eigh_tridiagonal`` with its matrix, bracket and ``dpttrs`` steps."""
    solves, steps = [], [0]
    dpttrs = lapack.dpttrs

    def counting(*args, **kwargs):
        steps[0] += 1
        return dpttrs(*args, **kwargs)

    eigh = spectral.eigh_tridiagonal

    def recording(d, e, shift, x=None):
        before = steps[0]
        value, lower, vec = eigh(d, e, shift, x)
        solves.append(SimpleNamespace(d=d, e=e, value=value, lower=lower, steps=steps[0] - before))
        return value, lower, vec

    monkeypatch.setattr(lapack, "dpttrs", counting)
    monkeypatch.setattr(spectral, "eigh_tridiagonal", recording)
    return solves


def test_hyperbolic3_small_ball_reference():
    # on H^3 the radial substitution u = w / f^(1/2) turns the problem into a
    # flat string of length R shifted by lambda0, so lambda(B_R) = 1 + pi^2/R^2
    h3 = build_density("hyperbolic:3")
    out = bottom_eigenvalue(EigenProblem(h3, R=5.0, mesh=0.01))
    assert out.extrapolated == pytest.approx(1.0 + math.pi**2 / 25.0, rel=1e-7)
    assert h3.lambda0 == 1.0
    assert out.extrapolated - h3.lambda0 == pytest.approx(math.pi**2 / 25.0, rel=1e-6)


def test_flat_ball_matches_bessel_eigenvalue():
    # the first Dirichlet eigenvalue of the unit ball in R^3 is pi^2
    e3 = build_density("euclidean:3")
    out = bottom_eigenvalue(EigenProblem(e3, R=1.0, mesh=0.002))
    assert out.extrapolated == pytest.approx(math.pi**2, rel=1e-6)


def test_eigenvalue_decreases_with_ball_radius():
    model = build_density("dr:4,2")
    vals = [
        bottom_eigenvalue(EigenProblem(model, R=R, mesh=0.02)).extrapolated
        for R in (3.0, 5.0, 8.0)
    ]
    assert vals[0] > vals[1] > vals[2] > model.lambda0


def test_mesh_refinement_is_second_order():
    h3 = build_density("hyperbolic:3")
    out = bottom_eigenvalue(EigenProblem(h3, R=5.0, mesh=0.02))
    exact = 1.0 + math.pi**2 / 25.0
    err_h = abs(out.eigenvalue - exact)
    err_half = abs(out.eigenvalue_half_mesh - exact)
    assert 3.0 < err_h / err_half < 5.0
    assert abs(out.extrapolated - exact) < 0.02 * err_half


def test_problem_preconditions():
    model = build_density("euclidean:3")
    with pytest.raises(PreconditionError):
        bottom_eigenvalue(EigenProblem(model, R=-1.0, mesh=0.001))
    with pytest.raises(PreconditionError):
        bottom_eigenvalue(EigenProblem(model, R=1.0, mesh=0.02))  # fewer than 100 cells
    with pytest.raises(PreconditionError):
        bottom_eigenvalue(EigenProblem(model, R=1.0, mesh=0.0))


def test_result_reports_inputs():
    model = build_density("dr:2,1")
    out = bottom_eigenvalue(EigenProblem(model, R=6.0, mesh=0.05))
    assert isinstance(out, SpectralResult)
    # the result holds the three eigenvalues alone; lambda0 is the model's
    assert [field.name for field in dataclasses.fields(out)] == ["eigenvalue", "eigenvalue_half_mesh", "extrapolated"]
    assert model.lambda0 < out.extrapolated < out.eigenvalue_half_mesh < out.eigenvalue


def _bisection(d, e, tol=0.0):
    return float(scipy_eigh_tridiagonal(d, e, select="i", select_range=(0, 0), eigvals_only=True, tol=tol)[0])


@pytest.mark.parametrize("space", WORKLOAD_SPACES)
def test_inverse_iteration_matches_bisection(space):
    model = build_density(space)
    for R in (5.0, 20.0, 70.0):
        if space == "dr:8,7" and R == 70.0:
            continue  # f overflows there; refused below
        for cells in (1_000, 10_000):
            d, e = _assemble(model, R, cells)
            value, lower, _ = eigh_tridiagonal(d, e, model.lambda0)
            # scipy's default bisection stops at an interval of eps ||T||_1
            rows = np.abs(d)
            rows[1:] += np.abs(e)
            rows[:-1] += np.abs(e)
            assert abs(value - _bisection(d, e)) <= 4.0 * EPS * rows.max(), (R, cells)
            # run to the limit of the Sturm counts instead, it lies inside
            # the certified bracket, within a quarter of its width of the top
            limit = _bisection(d, e, tol=np.finfo(float).tiny)
            assert lower <= limit, (R, cells)
            assert abs(value - limit) <= 0.25 * (value - lower), (R, cells)


@pytest.mark.parametrize("R", [5.0, 20.0])
def test_refinement_no_longer_drifts_on_dr87(R):
    # bisection moved the extrapolated value by 8e-5 relative at R = 5
    model = build_density("dr:8,7")
    coarse = bottom_eigenvalue(EigenProblem(model, R=R, mesh=R / 10_000)).extrapolated
    fine = bottom_eigenvalue(EigenProblem(model, R=R, mesh=R / 50_000)).extrapolated
    assert abs(fine - coarse) <= 1e-7 * fine


def _sweep_balls():
    """(model, R, cells, f, d, e) of every swept mesh whose matrix is finite.

    The coarse and half meshes of a 100- and a 1,000-cell request.  Left out:
    the balls on which f overflows (R = 70 past h = 10, R = 20 on
    hyperbolic:100) and those on hyperbolic:100 where f underflows at the
    pole's quarter cell.
    """
    for space in SWEEP_SPACES:
        model = build_density(space)
        for R in (0.01, 1.0, 5.0, 20.0, 70.0):
            for cells in (100, 200, 1_000, 2_000):
                try:
                    d, e = _assemble(model, R, cells)
                except QuadratureError:
                    continue
                if np.isfinite(d).all() and np.isfinite(e).all():
                    yield model, R, cells, spectral._density(model, R / cells, cells), d, e


def test_lambda0_factors_on_both_meshes_of_every_ball():
    # lambda0 lies below the Dirichlet bottom of every ball, so T - lambda0 I
    # factors at once on the coarse and on the half mesh
    factored = 0
    for model, R, cells, _, d, e in _sweep_balls():
        assert spectral._factors(d, e, model.lambda0) is not None, (model.descriptor(), R, cells)
        factored += 1
    assert factored == 158


def test_lambda0_supersolution_holds_row_by_row():
    # the positivity proof behind the single factorization at lambda0:
    # psi = sqrt(m) exp(-h r/2) makes every row of (T - lambda0 I) psi
    # nonnegative, up to the rounding of its terms (the worst row reads
    # -1.3 eps of them); the pole row needs h delta <= 4, which three of the
    # 100-cell meshes exceed
    rows = 0
    for model, R, cells, f, d, e in _sweep_balls():
        delta = R / cells
        r = np.arange(cells) * delta
        m = np.concatenate(([0.5 * delta * f[0]], delta * f[2::2]))
        psi = np.sqrt(m) * np.exp(-0.5 * model.h * r)
        terms = np.stack(((d - model.lambda0) * psi, np.zeros(cells), np.zeros(cells)))
        terms[1, 1:] = e * psi[:-1]
        terms[2, :-1] = e * psi[1:]
        scale = np.abs(terms).sum(axis=0) + model.lambda0 * psi
        ok = terms.sum(axis=0) >= -8.0 * EPS * scale
        first = 0 if model.h * delta <= 4.0 else 1
        assert ok[first:].all(), (model.descriptor(), R, cells, np.flatnonzero(~ok))
        rows += cells - first
    assert rows == 128_997


def test_non_finite_assembly_is_refused_without_warnings():
    # f overflows past r = 65 on dr:8,7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="density f is not finite from r=64.9"):
            bottom_eigenvalue(EigenProblem(build_density("dr:8,7"), R=70.0, mesh=0.07))
        # on 10k cells the rough mesh overflows first; the refusal is the coarse mesh's
        with pytest.raises(QuadratureError, match=r"^density f is not finite from r=64\.9705 on the ball of radius 70$"):
            bottom_eigenvalue(EigenProblem(build_density("dr:8,7"), R=70.0, mesh=0.007))
        with pytest.raises(QuadratureError, match="tridiagonal matrix is not finite"):
            eigh_tridiagonal(np.array([2.0, np.inf, 2.0]), np.array([-1.0, -1.0]), 0.0)


def test_shift_that_does_not_factor_is_refused():
    # T - shift I must factor at the first shift; nothing searches below one
    # that does not, whether it lies above the spectrum or T is indefinite
    model = build_density("dr:4,2")
    d, e = _assemble(model, 5.0, 1000)
    cases = [(d, e, 10.0), (d, e, 1e6), (np.array([-1e300, 1.0]), np.array([0.0]), 0.0)]
    for d, e, shift in cases:
        with pytest.raises(QuadratureError, match=rf"^T - {shift!r} I is not positive definite: the shift must lie below the spectrum$"):
            eigh_tridiagonal(d, e, shift)


@pytest.mark.parametrize(
    "d, e, shift, match",
    [
        ([], [], 0.0, "got 0 and 0"),
        ([2.0], [], 0.0, "got 1 and 0"),
        ([2.0, 2.0, 2.0], [-1.0], 0.0, "got 3 and 1"),
        ([2.0, 2.0], [-1.0, -1.0], 0.0, "got 2 and 2"),
        ([2.0, 2.0], [-1.0], math.nan, "shift must be finite, got nan"),
        ([2.0, 2.0], [-1.0], -math.inf, "shift must be finite, got -inf"),
    ],
)
def test_unusable_input_is_refused_before_any_factorization(monkeypatch, d, e, shift, match):
    factorizations = []
    monkeypatch.setattr(lapack, "dpttrf", lambda *args, **kwargs: factorizations.append(args))
    with pytest.raises(PreconditionError, match=match):
        eigh_tridiagonal(np.array(d), np.array(e), shift)
    assert factorizations == []


def test_failed_certificate_and_unsettled_iteration_are_refused(monkeypatch):
    model = build_density("hyperbolic:3")
    d, e = _assemble(model, 5.0, 100)
    factors = spectral._factors
    monkeypatch.setattr(spectral, "_factors", lambda d, e, shift: factors(d, e, shift) if shift == model.lambda0 else None)
    with pytest.raises(QuadratureError, match="not certified"):
        eigh_tridiagonal(d, e, model.lambda0)
    monkeypatch.setattr(spectral, "_factors", factors)
    monkeypatch.setattr(spectral, "_MAX_ITERATIONS", 2)
    with pytest.raises(QuadratureError, match="did not settle in 2 steps"):
        eigh_tridiagonal(d, e, model.lambda0)


@pytest.mark.parametrize("start", [None, "caller"])
def test_inverse_iteration_works_in_two_buffers(monkeypatch, start):
    # every step solves in place in one buffer and normalises into the other,
    # so no array of the matrix's size is allocated per step; a caller's start
    # vector is read, never written
    model = build_density("hyperbolic:3")
    d, e = _assemble(model, 20.0, 1_000)
    x0 = None if start is None else np.linspace(1.0, 0.0, d.size)
    kept = None if x0 is None else x0.copy()
    solves, dpttrs = [], lapack.dpttrs

    def in_place(fd, fe, b, **kwargs):
        out = dpttrs(fd, fe, b, **kwargs)
        solves.append((b.ctypes.data, out[0].ctypes.data))
        return out

    monkeypatch.setattr(lapack, "dpttrs", in_place)
    value, lower, x = eigh_tridiagonal(d, e, model.lambda0, x0)
    assert len(solves) >= 3 and lower < value
    assert {b for b, _ in solves} == {out for _, out in solves} == {solves[0][0]}
    assert x.ctypes.data != solves[0][0]
    if x0 is not None:
        assert x.ctypes.data != x0.ctypes.data
        np.testing.assert_array_equal(x0, kept)


#: start vectors eigh_tridiagonal refuses: dividing by <x, y> ended the
#: first in ZeroDivisionError; numpy raised ValueError on the second, the
#: third ran 100 steps before "did not settle" and the fourth warned.  The
#: last two have finite entries whose squares leave the double range
UNUSABLE_STARTS = {
    "zero": np.zeros(5),
    "wrong-length": np.ones(4),
    "nan": np.array([1.0, np.nan, 1.0, 1.0, 1.0]),
    "inf": np.array([1.0, np.inf, 1.0, 1.0, 1.0]),
    "norm-overflows": np.full(5, 1e200),
    "norm-underflows": np.full(5, 1e-170),
}


@pytest.mark.parametrize("start", UNUSABLE_STARTS.values(), ids=UNUSABLE_STARTS.keys())
def test_unusable_start_vectors_are_refused_before_factoring(monkeypatch, start):
    factorizations, dpttrf = [], lapack.dpttrf
    monkeypatch.setattr(lapack, "dpttrf", lambda *args, **kwargs: factorizations.append(1) or dpttrf(*args, **kwargs))
    d, e = np.full(5, 2.0), np.full(4, -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match=r"^start vector must have 5 entries and a finite nonzero squared norm$"):
            eigh_tridiagonal(d, e, 0.0, start)
    assert factorizations == []
    assert eigh_tridiagonal(d, e, 0.0, np.arange(1.0, 6.0))[1] > 0.0 and len(factorizations) == 2


def _random_spd(seed: int, n: int):
    """A random diagonally dominant, so positive definite, symmetric tridiagonal (d, e)."""
    rng = np.random.default_rng(seed)
    e = rng.uniform(-1.0, 1.0, n - 1)
    d = rng.uniform(0.0, 2.0, n)
    d[1:] += np.abs(e)
    d[:-1] += np.abs(e)
    return d, e


def test_start_quotient_bounds_the_first_quotient(monkeypatch):
    # with y = (T - shift I)^-1 x, the start's quotient shift + <x, x>/<x, y>
    # is the Rayleigh quotient of (T - shift I)^(-1/2) x: by Cauchy-Schwarz
    # it is no less than the first quotient shift + <x, y>/<y, y>, which is
    # no less than the bottom eigenvalue.  The first step of a solve is the
    # difference of the two, which a solve cut off after one step reports
    matrices = [(_assemble(build_density(space), R, 1_000), build_density(space).lambda0) for space, R in CERTIFIED_BALLS]
    matrices += [(_random_spd(seed, n), 0.0) for seed in range(3) for n in (2, 10, 200, 1_000)]
    monkeypatch.setattr(spectral, "_MAX_ITERATIONS", 1)
    for (d, e), shift in matrices:
        fd, fe = spectral._factors(d, e, shift)
        limit = _bisection(d, e, tol=np.finfo(float).tiny)
        for x in (np.full(d.size, d.size**-0.5), np.random.default_rng(d.size).uniform(0.5, 1.5, d.size)):
            y = lapack.dpttrs(fd, fe, x)[0]
            start, first = shift + float(x @ x) / float(x @ y), shift + float(x @ y) / float(y @ y)
            assert start >= first >= limit, (d.size, shift, start, first, limit)
            with pytest.raises(QuadratureError, match=re.escape(f"(last step {start - first:.3e})") + "$"):
                eigh_tridiagonal(d, e, shift, x)


def test_a_solve_from_its_own_eigenvector_takes_one_step(monkeypatch):
    # the start's quotient and the first quotient of a converged vector agree
    # to the rounding level, so the solve stops after one dpttrs step, at a
    # value inside the first solve's certified bracket
    solves = _record_solves(monkeypatch)
    for space, R in CERTIFIED_BALLS:
        model = build_density(space)
        d, e = _assemble(model, R, 1_000)
        value, lower, x = spectral.eigh_tridiagonal(d, e, model.lambda0)
        again = spectral.eigh_tridiagonal(d, e, model.lambda0, x)[0]
        assert solves[-1].steps == 1, (space, R, solves[-1].steps)
        assert lower <= again <= value, (space, R)


def test_half_mesh_solve_is_bracketed(monkeypatch):
    # the half mesh starts from the coarse eigenvector; its certified bracket
    # still holds the bisection limit of its own matrix, within a quarter of
    # its width of the top, as for a cold solve: the limit is itself only
    # good to about eps ||T||_1, and lies up to 2e-12 above a cold quotient
    solves = _record_solves(monkeypatch)
    for space, R in CERTIFIED_BALLS:
        model = build_density(space)
        out = bottom_eigenvalue(EigenProblem(model, R=R, mesh=R / 1_000))
        coarse, half = solves[-2:]
        assert (coarse.d.size, half.d.size) == (1_000, 2_000)
        assert half.value == out.eigenvalue_half_mesh
        limit = _bisection(half.d, half.e, tol=np.finfo(float).tiny)
        assert half.lower <= limit, (space, R)
        assert abs(half.value - limit) <= 0.25 * (half.value - half.lower), (space, R)


#: balls whose coarse solve from lambda0 once stalled: lambda_1 and lambda_2
#: of the matrix lie close together far above the shift (20.4201 and
#: 20.4265 against 20.25 on the first), so a step shrank the error by 0.85;
#: the last field says whether the extrapolated value lies above lambda0.
#: On three 100-cell balls the mesh is far too coarse and
#: (4 lambda_half - lambda)/3 falls below it, which is refused
STALLED_BALLS = [
    ("hyperbolic:10", 70.0, 1_000, True),
    ("hyperbolic:10", 20.0, 100, True),
    ("hyperbolic:10", 70.0, 100, False),
    ("dr:8,7", 20.0, 100, True),
    ("dr:32,8", 20.0, 100, False),
    ("hyperbolic:100", 5.0, 100, False),
]


@pytest.mark.parametrize("space, R, cells, above", STALLED_BALLS)
def test_a_slow_solve_moves_its_shift_and_certifies(monkeypatch, space, R, cells, above):
    # after 30 steps the shift moves once to just below lambda_1, and each
    # solve settles within the budget with a bracket that holds the
    # bisection limit of its own matrix; on the coarse mesh, whose shift
    # moved, the limit lies within a quarter of the bracket's width of the
    # top (on the half mesh of the first ball the limit, good to about
    # eps ||T||_1 = 2e-10, lies 2e-12 above the quotient).  An extrapolated
    # value at or below lambda0, the bottom of the whole spectrum, is wrong
    # and ends in QuadratureError, never in a negative gap
    solves = _record_solves(monkeypatch)
    model = build_density(space)
    problem = EigenProblem(model, R=R, mesh=R / cells)
    if above:
        out = bottom_eigenvalue(problem)
        coarse, half = solves
        assert coarse.value == out.eigenvalue and half.value == out.eigenvalue_half_mesh
        assert out.extrapolated > model.lambda0
    else:
        with pytest.raises(QuadratureError, match=r"is not above lambda0 = .*; the mesh is too coarse$"):
            bottom_eigenvalue(problem)
        coarse, half = solves
        assert (4.0 * half.value - coarse.value) / 3.0 <= model.lambda0 < half.value
    assert spectral._SLOW_STEPS < coarse.steps <= spectral._MAX_ITERATIONS and half.steps <= spectral._MAX_ITERATIONS
    for solve in solves:
        limit = _bisection(solve.d, solve.e, tol=np.finfo(float).tiny)
        assert solve.lower <= limit, (space, R, cells)
    limit = _bisection(coarse.d, coarse.e, tol=np.finfo(float).tiny)
    assert abs(coarse.value - limit) <= 0.25 * (coarse.value - coarse.lower), (space, R, cells)


def test_half_mesh_solve_starts_warm(monkeypatch):
    # a flat start takes 5 to 14 steps on these coarse matrices; from 1,600
    # cells on, a rough mesh's eigenvector starts the coarse solve, which then
    # takes 1 step at 50k cells (3 at most at 10k: dr:8,7 at R = 20).  The
    # interpolated coarse eigenvector is within the coarse mesh's own
    # discretization error of the half mesh's, which one step resolves from
    # 10k cells on (four at most at 1k: dr:8,7 at R = 20).  One step is
    # enough because the start vector's own quotient is the first step's
    # reference
    solves = _record_solves(monkeypatch)
    for cells, most, coarse_most in ((1_000, 4, None), (10_000, 1, 3), (50_000, 1, 1)):
        for space, R in CERTIFIED_BALLS:
            model = build_density(space)
            before = len(solves)
            bottom_eigenvalue(EigenProblem(model, R=R, mesh=R / cells))
            # the rough mesh is one more solve, before the coarse one
            assert len(solves) - before == (2 if coarse_most is None else 3), (space, R, cells)
            coarse, half = solves[-2:]
            spectral.eigh_tridiagonal(coarse.d, coarse.e, model.lambda0)  # cold and flat, recorded
            flat = solves[-1]
            assert flat.steps >= 5 and half.steps <= most, (space, R, cells, flat.steps, half.steps)
            if coarse_most is not None:
                assert coarse.steps <= coarse_most, (space, R, cells, coarse.steps)


def test_coarse_eigenvalue_matches_a_cold_solve_bit_for_bit():
    # the coarse mesh reads f off the half mesh's grid as strided views; at
    # 1,000 cells it starts flat, at 2,345 from a rough mesh of 146 cells
    for space, R in CERTIFIED_BALLS:
        model = build_density(space)
        for cells in (1_000, 2_345):
            out = bottom_eigenvalue(EigenProblem(model, R=R, mesh=R / cells))
            rough = spectral._rough_start(model, R, cells)
            assert (rough is None) == (cells == 1_000), (space, R, cells)
            start = None if rough is None else spectral._interpolate(rough, cells)
            cold = eigh_tridiagonal(*_assemble(model, R, cells), model.lambda0, start)[0]
            assert out.eigenvalue == cold, (space, R, cells)


def _refuse_rough_density(monkeypatch):
    # f overflows on the 625-cell rough mesh alone
    density = spectral._density
    monkeypatch.setattr(spectral, "_density", lambda model, h, cells: density(model, h, cells) * (math.inf if cells == 625 else 1.0))


def _refuse_rough_solve(monkeypatch):
    eigh = spectral.eigh_tridiagonal

    def refusing(d, e, shift, x=None):
        if np.size(d) == 625:
            raise QuadratureError("inverse iteration did not settle")
        return eigh(d, e, shift, x)

    monkeypatch.setattr(spectral, "eigh_tridiagonal", refusing)


@pytest.mark.parametrize("refuse", [_refuse_rough_density, _refuse_rough_solve])
def test_a_refused_rough_mesh_falls_back_to_the_flat_start(monkeypatch, refuse):
    # the rough mesh of a 10k-cell ball has 625 cells; where it is refused the
    # coarse solve starts flat and gives a cold flat solve's value bit for bit
    model, R, cells = build_density("dr:4,2"), 20.0, 10_000
    refuse(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral._rough_start(model, R, cells) is None
        out = bottom_eigenvalue(EigenProblem(model, R=R, mesh=R / cells))
    monkeypatch.undo()
    assert out.eigenvalue == eigh_tridiagonal(*_assemble(model, R, cells), model.lambda0)[0]


def test_warm_solves_agree_with_cold_flat_brackets(monkeypatch):
    # the rough-started coarse solve and the warm half-mesh solve stop at
    # values within the certified bracket's width of a cold flat solve of the
    # same matrix, and the two certified brackets overlap
    solves = _record_solves(monkeypatch)
    for space, R in CERTIFIED_BALLS:
        model = build_density(space)
        bottom_eigenvalue(EigenProblem(model, R=R, mesh=R / 10_000))
        for warm in solves[-2:]:
            value, lower, _ = eigh_tridiagonal(warm.d, warm.e, model.lambda0)
            assert warm.lower <= value and lower <= warm.value, (space, R, warm.d.size)
            assert abs(warm.value - value) <= value - lower, (space, R, warm.d.size)


@pytest.mark.parametrize("space", ["hyperbolic:11", "dr:18,1", "dr:16,2"])
def test_a_slowly_contracting_warm_solve_is_certified(monkeypatch, space):
    # at h = 10 and R = 70 on 2k cells, lambda_1 and lambda_2 lie close above
    # lambda0 = 25 and a step of the warm half-mesh solve shrinks by about
    # 0.83, so about 5 more steps' worth of error remain when it stops; its
    # lower end must still lie below the cold flat solve's certified value
    solves = _record_solves(monkeypatch)
    model = build_density(space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bottom_eigenvalue(EigenProblem(model, R=70.0, mesh=0.07))
    half = solves[-1]
    assert half.d.size == 2_000
    cold = eigh_tridiagonal(half.d, half.e, model.lambda0)[0]
    if space == "hyperbolic:11":
        assert cold == 25.066007013653344
    assert half.lower <= cold <= half.value


@pytest.mark.parametrize("space", ["hyperbolic:3", "dr:4,2"])
def test_half_mesh_halves_the_mesh_exactly(space):
    # R/mesh = 1000.3 and 999.7 round to the same 1000 cells, and the half
    # mesh has exactly 2000, so Richardson's ratio is exactly 2
    model = build_density(space)
    R = 5.0
    results = [bottom_eigenvalue(EigenProblem(model, R=R, mesh=R / ratio)) for ratio in (1000.0, 1000.3, 999.7)]
    numbers = [(r.eigenvalue, r.eigenvalue_half_mesh, r.extrapolated) for r in results]
    assert numbers[1] == numbers[0] and numbers[2] == numbers[0]
    if space == "hyperbolic:3":
        exact = 1.0 + math.pi**2 / R**2
        assert abs(results[0].extrapolated - exact) < 2e-10 * exact


def test_gap_is_positive_on_the_certified_balls(monkeypatch):
    # the Dirichlet bottom of a ball lies strictly above lambda0, and so does
    # each mesh's certified lower end
    solves = _record_solves(monkeypatch)
    for space, R in CERTIFIED_BALLS:
        model = build_density(space)
        out = bottom_eigenvalue(EigenProblem(model, R=R, mesh=R / 1_000))
        assert out.extrapolated - model.lambda0 > 0.0, (space, R)
        for solve in solves[-2:]:
            assert solve.lower > model.lambda0, (space, R)

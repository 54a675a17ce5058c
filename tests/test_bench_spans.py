"""The benchmark's tracer (bench/spans.py) against the package it wraps.

The traced benchmark pass patches names across the package; a name removed
or renamed there makes ``Tracer.install`` fail, so this runs it here too.
"""

from pathlib import Path

import pytest

from hardyscope import spectral
from hardyscope.spaces import build_density

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    # imported as bench/worker.py imports it: bench/ on the path, then by name
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    return spans


def test_tracer_installs_on_every_layer_and_restores_each_name(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = [(owner, attr, original, getattr(owner, attr)) for owner, attr, original in tracer._undo]
        # a traced solve reads the ball's R and mesh to count its cells
        spectral.bottom_eigenvalue(spectral.EigenProblem(build_density("hyperbolic:3"), R=5.0, mesh=0.05))
    finally:
        tracer.uninstall()
    assert all(wrapper is not original for _, _, original, wrapper in patched)
    assert all(getattr(owner, attr) is original for owner, attr, original, _ in patched)
    spans_by_name = tracer.aggregate()
    assert set(spans_by_name) == {
        "spaces.f", "spaces.log_f", "spaces.excess", "calculus.scalar", "weights.pair", "weights.hpw_g",
        "green.batch", "green.value", "green.asymptotic_prediction", "green.quad",
        "verify.run", "verify.gap", "spectral.bottom", "spectral.eigh",
    }
    assert spans_by_name["spectral.bottom"]["calls"] == 1
    assert spans_by_name["spectral.bottom"]["items"] == 100 + 200
    assert spans_by_name["spectral.eigh"]["items"] == 100 + 200

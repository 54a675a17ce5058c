"""Spans around the public callables of each hardyscope layer.

The library is not edited: class and module attributes are swapped for
wrappers while a ``Tracer`` is installed and restored afterwards.  Each call
records a span (name, start, end, parent, items) into flat arrays kept in
memory; ``aggregate`` turns them into calls, items, total and self time per
span name once the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

from tasks import spectral_cells


def _size(index):
    def count(args, kwargs):
        return int(np.size(args[index])) if len(args) > index else 0

    return count


def _spectral_cells(args, kwargs):
    return spectral_cells(args[0].R, args[0].mesh)


class _QuadProxy(types.ModuleType):
    """Stands in for ``scipy.integrate`` inside ``hardyscope.green`` only, so
    that ``quad`` as called from the Green engine gets its own span."""

    def __init__(self, target, quad):
        super().__init__(target.__name__)
        self._target = target
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.items = array("q")
        self._stack: list = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, items: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.items.append(items)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, items: int = 0):
        idx = self._open(self._name_id(name), items)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid, count(args, kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    # -- installing wrappers ---------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_method(self, name: str, cls, attr: str, count=None) -> None:
        self._set(cls, attr, self.wrap(name, getattr(cls, attr), count))

    def patch_function(self, name: str, module, attr: str, count=None) -> None:
        """Wrap a module-level function and every binding of it that another
        hardyscope module made with ``from .x import f``."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("hardyscope") and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapper)

    def install(self) -> None:
        from hardyscope import calculus, green, spaces, spectral, verify, weights

        for attr in ("f", "log_f", "excess"):
            self.patch_method(f"spaces.{attr}", spaces.DensityModel, attr, _size(1))
        for attr in ("value", "jet"):
            self.patch_method("calculus.scalar", calculus.RadialScalar, attr, _size(1))
        for attr in sorted(a for a in dir(weights) if a.startswith("weight_")):
            self.patch_function("weights.pair", weights, attr)
        self.patch_function("weights.hpw_g", weights, "hpw_g", _size(2))
        self.patch_function("green.batch", green, "green_weight_batch", _size(2))
        self.patch_function("green.value", green, "green_value")
        self.patch_function("green.asymptotic_prediction", green, "asymptotic_prediction")
        self._set(green, "integrate", _QuadProxy(green.integrate, self.wrap("green.quad", green.integrate.quad)))
        self.patch_function("verify.run", verify, "run_verification")
        for attr in ("rayleigh_gap", "p_rayleigh_gap", "rellich_gap", "uncertainty_gap"):
            self.patch_function("verify.gap", verify, attr)
        self.patch_function("spectral.bottom", spectral, "bottom_eigenvalue", _spectral_cells)
        self.patch_function("spectral.eigh", spectral, "eigh_tridiagonal", _size(0))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation ----------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, items, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.  Total time double counts a name that nests inside itself.
        """
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        items = np.frombuffer(self.items, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        return {
            label: {
                "calls": int(calls[i]),
                "items": int(np.sum(items[name == i])),
                "s": float(np.sum(dur[name == i])),
                "self_s": float(np.sum(self_t[name == i])),
            }
            for i, label in enumerate(self.names)
        }

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hardyscope

SRC = Path(hardyscope.__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(hardyscope.__path__) if m.name != "__main__")


def test_the_package_exposes_only_its_version_and_the_probe_names():
    # every other name is imported from its own module
    assert hardyscope.__all__ == ["__version__", "build_density", "default_suite"]
    from hardyscope.spaces import build_density
    from hardyscope.verify import default_suite

    assert hardyscope.build_density is build_density
    assert hardyscope.default_suite is default_suite
    assert isinstance(hardyscope.__version__, str)


def test_the_benchmark_probe_import_runs_warning_free():
    code = "from hardyscope import build_density, cli, default_suite"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", MODULES)
def test_every_declared_name_resolves(name):
    module = importlib.import_module(f"hardyscope.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_the_readme_library_example_runs():
    # the first python block under "## Library", run as a user would paste it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md (Library)", "exec"), namespace)
    assert namespace["reports"] and all(r.verdict == "pass" for r in namespace["reports"])


def test_errors_defines_one_class_per_exit_code():
    from hardyscope import errors

    defined = {name for name, obj in vars(errors).items() if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert defined == {"HardyscopeError", "PreconditionError", "QuadratureError"}
    assert issubclass(errors.PreconditionError, errors.HardyscopeError)
    assert issubclass(errors.QuadratureError, errors.HardyscopeError)

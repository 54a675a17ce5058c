"""One set-up probe: a fresh interpreter imports the CLI and builds the models.

    python3 bench/setup_probe.py [--suite] SPACE [SPACE ...]
    python3 bench/setup_probe.py --reference

Times, from inside the child, importing ``hardyscope.cli`` and building the
density model of each SPACE (and, with ``--suite``, the test-function suite),
and prints ``{"wall_s": ..., "cpu_s": ...}``.  Only the standard library is
imported before the clock starts, so numpy and scipy, which the CLI imports,
are timed too; the interpreter's own start-up, which no change to hardyscope
can move, is not.

``--reference`` times the reference work instead: importing numpy and the
scipy modules in REFERENCE_MODULES, a fixed list that no change to
hardyscope moves.  It is most of a probe's time and the same kind of work
(reading and linking modules), so ``run.py`` scales each probe by the
reference probe timed next to it.
"""

import time

T0 = time.perf_counter()
CPU0 = time.process_time()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE_MODULES = ("numpy", "scipy.integrate", "scipy.optimize", "scipy.linalg")


def main() -> int:
    args = sys.argv[1:]
    if args == ["--reference"]:
        for name in REFERENCE_MODULES:
            importlib.import_module(name)
    else:
        sys.path.insert(0, str(SRC))
        suite = "--suite" in args
        spaces = [a for a in args if a != "--suite"]
        from hardyscope import build_density, cli, default_suite

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"hardyscope imported from {cli.__file__}, not from {SRC}")
        for space in spaces:
            build_density(space)
        if suite:
            default_suite()
    print(json.dumps({"wall_s": time.perf_counter() - T0, "cpu_s": time.process_time() - CPU0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the hardyscope CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload runs in its own worker process with every BLAS/OpenMP thread
variable pinned to 1 and ``HARDYSCOPE_THREADS`` unset.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from a separate
traced pass.  Every metric is printed with its unit and sample count; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results, with provenance and
per-task outcomes, are written under ``bench/out/``.  The run fails with exit
code 2 and prints no result when the checkout holds no ``src/hardyscope``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
WORKLOADS = ("verify", "green", "spectral")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 13
#: the reference probe's time at the reference speed, close to the fastest
#: seen on the 2-CPU machine the seed baseline was recorded on
REFERENCE_SETUP_S = 0.40
WORKER_TIMEOUT_S = 170.0

sys.path.insert(0, str(BENCH))
import tasks as task_defs  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env.pop("HARDYSCOPE_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # same dict layouts in every worker
    return env


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(args) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned": {var: "1" for var in THREAD_VARS} | {"HARDYSCOPE_THREADS": "unset"},
        "seed": args.seed,
        "seconds": args.seconds,
        "src_lines": src_lines,
    }


def _python(script: str, args_list: list, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / script), *args_list],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
    )


def _probe_wall(args_list: list) -> float:
    proc = _python("setup_probe.py", args_list, 60.0)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout)["wall_s"]


def setup_probes(workload: str) -> list:
    """Set-up probes: fresh interpreters that import the CLI and build the
    workload's distinct density models (and, for ``verify``, the suite), each
    timing itself.  Each is paired with a reference probe (see
    setup_probe.py), run just before it in even pairs and just after it in
    odd ones; its speed is REFERENCE_SETUP_S over the reference's time.  One
    untimed pair first compiles the bytecode."""
    spaces = sorted({t.info["space"] for t in task_defs.WORKLOADS[workload]()})
    args_list = (["--suite"] if workload == "verify" else []) + spaces
    probes = []
    for i in range(SETUP_PROBES + 1):
        if i % 2:
            wall = _probe_wall(args_list)
            reference = _probe_wall(["--reference"])
        else:
            reference = _probe_wall(["--reference"])
            wall = _probe_wall(args_list)
        if i:
            probes.append({"wall_s": wall, "reference_s": reference, "speed": REFERENCE_SETUP_S / reference})
    return probes


def run_workload(workload: str, args) -> dict:
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"result-{tag}.json"
    if result_path.exists():
        result_path.unlink()
    metrics, probes = {}, []
    if not args.trace:
        probes = setup_probes(workload)
        metrics["setup_s"] = (statistics.median(p["wall_s"] * p["speed"] for p in probes), "s", len(probes))
    proc = _python(
        "worker.py",
        ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--result", str(result_path)],
        WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker for {workload} failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    metrics.update({k: tuple(v) for k, v in result["metrics"].items()})
    result["metrics"] = metrics
    result["detail"]["setup_probes"] = probes
    result["provenance"] = provenance(args) | result["detail"].pop("versions")
    result["workload"] = workload
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True))
    return result


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def line(result: dict, declared: dict) -> dict:
    """The result line; `correct` needs clean outputs and exactly the
    declared metrics, each finite and in its declared unit."""
    metrics = result["metrics"]
    summary = result["summary"]
    shape_ok = {k: v[1] for k, v in metrics.items()} == declared
    finite = all(math.isfinite(v[0]) for v in metrics.values())
    return {
        "correct": summary["failed"] == 0 and shape_ok and finite,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }


def report(result: dict, declared: dict) -> None:
    s = result["summary"]
    print(f"== {result['workload']}: {s['attempted']} tasks attempted, {s['ok']} ok, "
          f"{s['refused']} refused, {s['failed']} failed; fail_share {s['attempted'] - s['ok']}/{s['attempted']}")
    for problem in s["problems"]:
        print(f"   {problem.splitlines()[0][:160]}")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"   {name:34s} {value:>16.6g} {unit:10s} n={n}")
    missing = sorted(set(declared) - set(result["metrics"]))
    if missing:
        print(f"   missing metrics: {missing}")
    print(f"   provenance: {json.dumps(result['provenance'], sort_keys=True)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hardyscope" / "cli.py").is_file():
        print(f"error: no hardyscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for workload in names:
        result = run_workload(workload, args)
        report(result, declared)
        lines[workload] = line(result, declared)
    sys.stdout.flush()
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)

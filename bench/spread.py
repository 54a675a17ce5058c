"""Repeat ``bench/run.py`` over several seeds and summarise the spread.

    python3 bench/spread.py --workload verify --seeds 1-10 [--trace 1] [--out FILE]

For each metric it prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
(q3 - q1) / median; a metric's spread should stay below a third of its bound
in BENCHMARK.json.  In traced runs every count (unit ``count``) must repeat
exactly.  ``--out`` keeps the summary and every run, with its provenance,
task outcomes and pass times (and, when traced, the span table), as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        full = json.loads((ROOT / "bench" / "out" / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").read_text())
        runs.append({"seed": seed, **result, "provenance": full["provenance"], "summary": full["summary"], "detail": full["detail"]})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", flush=True)

    summary = {}
    ok = all(r["correct"] for r in runs)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if unit == "count" and len(set(values)) > 1:
            flag, ok = "COUNTS DIFFER", False
        elif bound is not None and spread >= bound / 3.0:
            flag = "spread >= bound/3"
        summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "n": len(values)}
        print(f"{name:34s} median {med:14.6g} {unit:10s} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {spread:8.4f} bound {bound if bound is not None else '-'} {flag}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "seconds": seconds, "summary": summary, "runs": runs},
            indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

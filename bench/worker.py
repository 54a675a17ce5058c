"""One workload in one process: warm up, then time passes over the CLI tasks.

Started by ``bench/run.py`` with the thread variables pinned to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "bench"))

import tasks as task_defs  # noqa: E402
from speed import SpeedSampler, mixed  # noqa: E402


def _import_cli():
    from hardyscope import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"hardyscope imported from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    def __init__(self, cli, sampler):
        self.cli = cli
        self.sampler = sampler
        self.caches = self._library_caches()
        self.cutoff = getattr(sys.modules["hardyscope.green"], "_near_cutoff", None)
        self.cutoff_hits = 0
        self.cutoff_misses = 0

    @staticmethod
    def _library_caches():
        found = []
        for name, mod in list(sys.modules.items()):
            if name.startswith("hardyscope"):
                found += [obj for obj in vars(mod).values() if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")]
        return found

    def run_task(self, task, tracer=None) -> dict:
        """Run one CLI call as a fresh process would see it (library caches
        cleared) and classify it as ok, refused or failed."""
        for cache in self.caches:
            cache.cache_clear()
        out_path = ROOT / task.out_file if task.out_file else None
        if out_path is not None and out_path.exists():
            out_path.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, error = None, None
        spent0, cpu_spent0 = self.sampler.spent, self.sampler.cpu_spent
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    rc = self.cli.main(list(task.argv))
                else:
                    with tracer.span("cli.task"):
                        rc = self.cli.main(list(task.argv))
        except Exception:
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0 - (self.sampler.spent - spent0)
        cpu = time.process_time() - cpu0 - (self.sampler.cpu_spent - cpu_spent0)
        if self.cutoff is not None:
            info = self.cutoff.cache_info()
            self.cutoff_hits += info.hits
            self.cutoff_misses += info.misses

        text = stdout.getvalue()
        report = None
        if out_path is not None and out_path.exists():
            report = out_path.read_bytes()
            out_path.unlink()
        result = {
            "argv": " ".join(task.argv),
            "rc": rc,
            "wall_s": wall,
            "cpu_s": cpu,
            "items": 0,
            "bytes_out": len(text.encode()) + (len(report) if report else 0),
            "doc": None,
            "uncovered": 0,
        }
        if rc == 0 and task.uncovered is not None:
            try:
                result["uncovered"] = task.uncovered(text)
            except (ValueError, IndexError):
                pass  # the output check reports the unparsable table
        if error is not None:
            result.update(outcome="failed", why=error)
        elif rc == 0:
            try:
                items, problem = task.check(text, report)
            except (ValueError, KeyError, TypeError) as exc:
                items, problem = 0, f"unparsable output: {exc!r}"
            if problem is None:
                result.update(outcome="ok", items=items)
                if "cells" in task.info:  # spectral: kept for refine_drift
                    result["doc"] = json.loads(text)
            else:
                result.update(outcome="failed", why=problem)
        else:
            lines = stderr.getvalue().strip().splitlines()
            why = lines[-1] if lines else f"exit {rc}"
            refused = rc == 1 and task.refusable and why.startswith("error: ")
            result.update(outcome="refused" if refused else "failed", why=why)
        return result

    def run_pass(self, order, tracer=None) -> dict:
        """Run every task once; ref_* are the times at reference speed."""
        start = time.perf_counter()
        results = [self.run_task(task, tracer) for task in order]
        speeds = self.sampler.mean_speeds(start, time.perf_counter())
        speed = mixed(speeds)
        wall = sum(r["wall_s"] for r in results)
        cpu = sum(r["cpu_s"] for r in results)
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "speeds": speeds,
            "speed": speed,
            "ref_wall_s": wall * speed,
            "ref_cpu_s": cpu * speed,
            "items": sum(r["items"] for r in results),
            "results": results,
        }


def _summary(passes: list) -> dict:
    results = [r for p in passes for r in p["results"]]
    return {
        "attempted": len(results),
        "ok": sum(r["outcome"] == "ok" for r in results),
        "refused": sum(r["outcome"] == "refused" for r in results),
        "failed": sum(r["outcome"] == "failed" for r in results),
        "problems": sorted({f"{r['argv']}: {r['outcome']}: {r['why']}" for r in results if r["outcome"] != "ok"}),
    }


def _end_to_end(passes: list) -> dict:
    import statistics

    rates = [p["items"] / p["ref_wall_s"] for p in passes]
    cpu = [1e3 * p["ref_cpu_s"] / p["items"] if p["items"] else float("inf") for p in passes]
    summary = _summary(passes)
    return {
        "items_per_s": (statistics.median(rates), "items/s", len(rates)),
        "cpu_ms_per_item": (statistics.median(cpu), "ms/item", len(cpu)),
        "ok_share": (summary["ok"] / summary["attempted"], "ratio", summary["attempted"]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


#: span name -> the aggregates reported for it
LAYER_FIELDS = (
    ("green.batch", ("calls", "items", "s", "self_s")),
    ("spaces.log_f", ("calls", "items", "self_s")),
    ("spaces.excess", ("calls", "items", "self_s")),
    ("spaces.f", ("calls", "items", "self_s")),
    ("calculus.scalar", ("calls", "items", "self_s")),
    ("weights.hpw_g", ("calls", "items", "self_s")),
    ("spectral.bottom", ("calls", "items", "self_s")),
    ("green.value", ("calls", "self_s")),
    ("green.quad", ("calls", "self_s")),
    ("green.asymptotic_prediction", ("calls", "self_s")),
    ("weights.pair", ("calls", "self_s")),
    ("verify.gap", ("calls", "self_s")),
    ("spectral.eigh", ("calls", "self_s")),
)


def _per_layer(tracer, traced: dict, untraced: dict, runner: Runner, tasks_in_order) -> tuple:
    """Per-layer metrics of the traced pass.  Seconds are at reference speed:
    span times are scaled with the traced pass's mean speed, and the family
    times, taken from the untraced pass, with that pass's."""
    agg = tracer.aggregate()
    k = traced["speed"]

    def span(name):
        return agg.get(name, {"calls": 0, "items": 0, "s": 0.0, "self_s": 0.0})

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit, 1)

    for layer, fields in LAYER_FIELDS:
        for f in fields:
            timed = f in ("s", "self_s")
            put(f"{layer}.{f}", span(layer)[f] * k if timed else span(layer)[f], "s" if timed else "count")
    batch, log_f = span("green.batch"), span("spaces.log_f")
    put("green.batch.us_per_item", 1e6 * k * batch["s"] / batch["items"] if batch["items"] else 0.0, "us/item")
    put("spaces.log_f.items_per_call", log_f["items"] / log_f["calls"] if log_f["calls"] else 0.0, "items/call")
    lookups = runner.cutoff_hits + runner.cutoff_misses
    put("green.cutoff.misses", runner.cutoff_misses, "count")
    put("green.cutoff.hit_ratio", runner.cutoff_hits / lookups if lookups else 0.0, "ratio")
    put("verify.run.self_s", k * span("verify.run")["self_s"], "s")
    for family in task_defs.FAMILIES:
        put(f"verify.{family}.s", untraced["speed"] * sum(
            r["wall_s"] for t, r in zip(tasks_in_order, untraced["results"]) if t.info.get("family") == family
        ), "s")
    put("spectral.assembly_s", k * (span("spectral.bottom")["s"] - span("spectral.eigh")["s"]), "s")
    drift = task_defs.refine_drift((t, r["doc"]) for t, r in zip(tasks_in_order, traced["results"]))
    put("spectral.refine_drift", max(drift.values()) if drift else 0.0, "ratio")
    put("green.err_uncovered", sum(r["uncovered"] for r in traced["results"]), "count")
    put("cli.overhead_s", k * span("cli.task")["self_s"], "s")
    put("cli.bytes_out", sum(r["bytes_out"] for r in traced["results"]), "bytes")
    summary = _summary([traced])
    put("cli.fail_share", (summary["attempted"] - summary["ok"]) / summary["attempted"], "ratio")
    put("trace.overhead_s", traced["ref_wall_s"] - untraced["ref_wall_s"], "s")
    return out, {"spans": agg, "refine_drift": drift}


def _measure(args) -> dict:
    cli = _import_cli()
    import numpy
    import scipy

    sampler = SpeedSampler()
    runner = Runner(cli, sampler)
    for argv in task_defs.WARMUP[args.workload]:
        out_file = task_defs.VERIFY_OUT if argv[0] == "verify" else None
        runner.run_task(task_defs.Task(argv=argv, check=lambda *_: (0, None), out_file=out_file))
    runner.cutoff_hits = runner.cutoff_misses = 0
    tasks = task_defs.WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    detail = {"versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}}
    keep = ("wall_s", "cpu_s", "speeds", "speed", "ref_wall_s", "ref_cpu_s", "items")

    with sampler:
        if not args.trace:
            passes = []
            begin = time.perf_counter()
            while True:
                order = list(tasks)
                rng.shuffle(order)
                passes.append(runner.run_pass(order))
                if time.perf_counter() - begin + passes[-1]["wall_s"] > args.seconds:
                    break
            metrics = _end_to_end(passes)
            summary = _summary(passes)
            detail["passes"] = [{k: p[k] for k in keep} for p in passes]
        else:
            from spans import Tracer

            order = list(tasks)
            rng.shuffle(order)
            untraced = runner.run_pass(order)
            runner.cutoff_hits = runner.cutoff_misses = 0
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.run_pass(order, tracer)
            finally:
                tracer.uninstall()
            metrics, extra = _per_layer(tracer, traced, untraced, runner, order)
            summary = _summary([traced])
            detail.update(extra)
            detail["passes"] = [{k: p[k] for k in keep} for p in (untraced, traced)]
    return {"metrics": metrics, "summary": summary, "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(task_defs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="write the result JSON here")
    args = parser.parse_args()
    result = _measure(args)
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""pelltrib benchmark: one workload, one process, one thread, a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's cells until S seconds have passed,
checks every cell's outputs, and prints a summary followed by one JSON
line {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a traced run, whose spans go to bench/out/trace-NAME.json.
See bench/README.md.
"""

import os

# One BLAS thread, set before numpy loads, so float results and timings
# do not depend on the thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("eigen-verify", "critical-scan", "exact-certify", "float-norms")
SETUP_PROBES = 5


def use_checkout_sources() -> None:
    """Import pelltrib from this checkout's src/, never from elsewhere."""
    if not (SRC / "pelltrib" / "cli.py").is_file():
        sys.exit(f"bench: no pelltrib sources at {SRC}")
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int) -> tuple:
    """Import pelltrib.cli, build the inputs and warm char_roots.

    Returns (import seconds, total seconds, workload).  Run in a fresh
    interpreter this is the start-up cost that setup_s reports.
    """
    start = time.perf_counter()
    import pelltrib.cli
    imported = time.perf_counter()
    if not Path(pelltrib.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: pelltrib imported from {pelltrib.cli.__file__}, not {SRC}")
    import workloads
    built = workloads.build(workload, seed)
    built.warm()
    return imported - start, time.perf_counter() - start, built


def probe_setup(workload: str, seed: int) -> dict:
    """Median import and setup seconds over fresh interpreters."""
    imports, totals = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--probe-setup", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"bench: setup probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        imports.append(probe["import_s"])
        totals.append(probe["setup_s"])
    return {"import_s": statistics.median(imports), "setup_s": statistics.median(totals)}


def _check(cell, out) -> list:
    try:
        return cell.check(out)
    except Exception as exc:  # malformed output fails the cell
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_rounds(workload, seconds: float, tracer=None) -> dict:
    """Whole rounds of the workload's cells until `seconds` have passed."""
    import workloads
    cells = workload.cells
    durations = []
    passed = failed = rounds = 0
    unexpected = {}
    start = time.perf_counter()
    while True:
        for i, cell in enumerate(cells):
            if tracer is not None:
                tracer.cell = rounds * len(cells) + i
            t0 = time.perf_counter_ns()
            try:
                out, error = cell.run(), None
            except Exception as exc:  # a failing cell is counted, not fatal
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            durations.append(time.perf_counter_ns() - t0)
            problems = [error] if error else _check(cell, out)
            if not problems:
                passed += 1
                continue
            failed += 1
            if cell.fault is None or workloads.tags(problems) != cell.fault_tags:
                unexpected.setdefault(cell.key, problems)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"rounds": rounds, "cells": len(cells), "durations_ns": durations,
            "passed": passed, "failed": failed, "unexpected": unexpected}


def end_to_end_metrics(result: dict, setup_s: float) -> dict:
    timed_s = sum(result["durations_ns"]) / 1e9
    return {
        "cells_per_s": {"value": result["passed"] / timed_s, "unit": "1/s"},
        "cell_p50_ms": {"value": statistics.median(result["durations_ns"]) / 1e6, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def layer_metrics(tracer, rounds: int, roots_before, roots_after, import_s: float) -> dict:
    """Per-layer figures per round, so they do not grow with the run length."""
    metrics = {name: {"value": value / rounds,
                      "unit": "count" if name.endswith(".calls") else "ms"}
               for name, value in tracer.layer_metrics().items()}
    hits = roots_after.hits - roots_before.hits
    lookups = hits + roots_after.misses - roots_before.misses
    metrics["sequence.char_roots.hit_ratio"] = {
        "value": hits / lookups if lookups else 0.0, "unit": "ratio"}
    metrics["cli.import_ms"] = {"value": import_s * 1e3, "unit": "ms"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_sources()

    if args.probe_setup:
        import_s, setup_s, _ = setup(args.workload, args.seed)
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    probe = probe_setup(args.workload, args.seed)
    _, _, workload = setup(args.workload, args.seed)
    if args.trace:
        from pelltrib import sequence
        import spans
        roots_before = sequence.char_roots.cache_info()
        with spans.Tracer() as tracer:
            result = run_rounds(workload, args.seconds, tracer)
        metrics = layer_metrics(tracer, result["rounds"], roots_before,
                                sequence.char_roots.cache_info(), probe["import_s"])
        tracer.write(OUT_DIR / f"trace-{args.workload}.json", {
            "workload": args.workload, "seed": args.seed, "rounds": result["rounds"],
            "cells": [repr(c.key) for c in workload.cells]})
    else:
        result = run_rounds(workload, args.seconds)
        metrics = end_to_end_metrics(result, probe["setup_s"])

    attempted = result["rounds"] * result["cells"]
    timed_s = sum(result["durations_ns"]) / 1e9
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['rounds']} rounds of {result['cells']} cells")
    print(f"timed: {result['passed']} passed of {attempted} in {timed_s:.3f} s "
          f"-> cells_per_s {result['passed'] / timed_s:.4f}")
    for key, problems in result["unexpected"].items():
        print(f"UNEXPECTED FAILURE {key}: {'; '.join(problems)}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": not result["unexpected"], "attempted": attempted,
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

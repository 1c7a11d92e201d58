"""Repeat the benchmark over workloads and seeds and summarise the spread.

    python3 bench/repeat.py [--seeds 1-10] [--seconds 10] [--traced]

Runs bench/run.py once per workload and seed, one run at a time, and
prints for every workload and metric the median, quartiles and quartile
spread as a share of the median (statistics.quantiles(values, n=4)), plus
the failed share of each run.  With --traced each seed is also run with
--trace 1, and the tracing overhead is the untraced median cells_per_s
over the traced one, minus 1.  `--seeds 1` runs every workload once.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"run failed (seed {seed}, trace {trace}):\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    cells_per_s = float(re.search(r"cells_per_s ([0-9.]+)", proc.stdout).group(1))
    return json.loads(lines[-1]), cells_per_s


def summarise(workload: str, seconds: int, results: list, traced_cps: list) -> None:
    print(f"\n{workload}, {len(results)} seeds, {seconds} s runs")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  correct: {all(r['correct'] for r in results)}; "
          f"attempted {[r['attempted'] for r in results]}; "
          f"failed {[r['failed'] for r in results]}; failed shares {sorted(shares)}")
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) < 2:
            print(f"  {name}: {med:.6g} {metric['unit']}")
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"  {name}: median {med:.6g} {metric['unit']}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  spread {100 * (q3 - q1) / med:.2f}%")
    if traced_cps:
        untraced = statistics.median(r["metrics"]["cells_per_s"]["value"] for r in results)
        traced = statistics.median(traced_cps)
        print(f"  traced cells_per_s median {traced:.6g}; "
              f"tracing overhead {100 * (untraced / traced - 1):.1f}%")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    for workload in WORKLOADS:
        results, traced_cps = [], []
        for seed in _seeds(args.seeds):
            report, _ = run_once(workload, seed, args.seconds, 0)
            results.append(report)
            if args.traced:
                traced_cps.append(run_once(workload, seed, args.seconds, 1)[1])
            print(f"{workload} seed {seed}: " + json.dumps(report), flush=True)
        summarise(workload, args.seconds, results, traced_cps)
    return 0


if __name__ == "__main__":
    sys.exit(main())

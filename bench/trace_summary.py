"""Summarise the traced runs' span files and estimate the tracing overhead.

    python3 bench/trace_summary.py

Reads bench/out/trace-WORKLOAD.json (written by `run.py --trace 1`) for
every workload and prints, per workload, the spans per cell, each layer's self time as a
share of the traced cell time, and the overhead the wrappers add: the
measured cost of one traced call times the spans per cell, over the
traced time per cell.
"""

import json
import sys
import time

import run

run.use_checkout_sources()

from pelltrib import sequence  # noqa: E402

import spans  # noqa: E402


def wrapper_cost_s(calls: int = 200_000) -> float:
    """Extra seconds per call that a Tracer wrapper adds (best of 5)."""
    def best():
        times = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                sequence.term(1, 5)
            times.append((time.perf_counter() - start) / calls)
        return min(times)

    plain = best()
    with spans.Tracer():
        traced = best()
    return traced - plain


def summarise(workload: str, cost_s: float) -> None:
    doc = json.loads((run.OUT_DIR / f"trace-{workload}.json").read_text())
    layers, rows = doc["layers"], doc["spans"]
    covered = {}
    for span_id, layer, start, end, parent, cell in rows:
        covered[parent] = covered.get(parent, 0) + end - start
    self_ns = [0] * len(layers)
    for span_id, layer, start, end, parent, cell in rows:
        self_ns[layer] += end - start - covered.get(span_id, 0)
    cells = len({row[5] for row in rows})
    top_ns = covered.get(-1, 0)
    per_cell = len(rows) / cells
    print(f"{workload} (seed {doc['seed']}): {cells} cells, {per_cell:.1f} spans per cell, "
          f"{top_ns / 1e9:.2f} s traced; estimated overhead "
          f"{100 * per_cell * cost_s / (top_ns / 1e9 / cells):.2f}%")
    for i in sorted(range(len(layers)), key=lambda i: -self_ns[i]):
        if self_ns[i] >= 0.005 * top_ns:
            print(f"  {layers[i]}: {100 * self_ns[i] / top_ns:.1f}% self time")


def main() -> int:
    cost = wrapper_cost_s()
    print(f"wrapper cost {cost * 1e6:.2f} us per traced call")
    for workload in run.WORKLOADS:
        summarise(workload, cost)
    return 0


if __name__ == "__main__":
    sys.exit(main())

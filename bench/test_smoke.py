"""Smoke tests of the benchmark: tiny rounds of each workload, report shape,
live output checks.  No timing assertions.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run

run.use_checkout_sources()

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str) -> workloads.Workload:
    """The workload's small cells, plus its known-fault cells when cheap."""
    wl = workloads.build(name, seed=7)
    keep = []
    for cell in wl.cells:
        kind, k = cell.key[:2]
        if kind == "norms" and cell.key[1:] in (workloads.F1_CELL, (5, 34, "0+1i")):
            keep.append(cell)
        elif kind == "matvec":
            if cell.n <= 257:
                keep.append(cell)
        elif cell.n <= 6 and cell.fault is None and (kind not in ("scan", "cert") or k <= 2):
            keep.append(cell)
    wl.cells = keep
    return wl


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_round_passes_checks(name):
    wl = _tiny(name)
    result = run.run_rounds(wl, seconds=0)
    assert result["rounds"] == 1
    assert len(result["durations_ns"]) == len(wl.cells)
    assert result["unexpected"] == {}
    faults = sum(cell.fault is not None for cell in wl.cells)
    assert result["failed"] == faults
    assert result["passed"] == len(wl.cells) - faults
    metrics = run.end_to_end_metrics(result, setup_s=0.25)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())


def test_float_norms_faults_fail_as_declared():
    wl = _tiny("float-norms")
    by_fault = {cell.fault: cell for cell in wl.cells if cell.fault}
    assert set(by_fault) == {"F1", "F2"}
    for cell in by_fault.values():
        assert workloads.tags(cell.check(cell.run())) == cell.fault_tags


def test_traced_round_reports_every_layer_metric():
    wl = _tiny("exact-certify")
    from pelltrib import cli, sequence
    before = sequence.char_roots.cache_info()
    original_main = cli.main
    with spans.Tracer() as tracer:
        result = run.run_rounds(wl, seconds=0, tracer=tracer)
    assert cli.main is original_main
    assert result["rounds"] == 1
    metrics = run.layer_metrics(tracer, result["rounds"], before,
                                sequence.char_roots.cache_info(), 0.2)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in metrics.items()}
    assert metrics["cli.main.calls"]["value"] == 2 * len(wl.cells)
    assert metrics["circulant.det_exact.calls"]["value"] == len(wl.cells)
    two_rounds = run.layer_metrics(tracer, 2, before, sequence.char_roots.cache_info(), 0.2)
    assert two_rounds["cli.main.calls"]["value"] == len(wl.cells)
    assert result["unexpected"] == {}
    ids = {span[0] for span in tracer.spans}
    assert all(span[4] == -1 or span[4] in ids for span in tracer.spans)
    assert all(span[2] <= span[3] for span in tracer.spans)


def _first(name, kind, **where):
    """The first tiny cell of a kind whose key fields match `where`."""
    fields = {"eig": ("k", "n", "r"), "scan": ("k", "n", "sign"), "cert": ("k", "n", "r"),
              "norms": ("k", "n", "r"), "matvec": ("k", "n", "r")}[kind]
    return next(c for c in _tiny(name).cells if c.key[0] == kind
                and all(dict(zip(fields, c.key[1:]))[f] == v for f, v in where.items()))


def test_checks_catch_wrong_outputs():
    cell = _first("eigen-verify", "eig")
    closed, direct, residuals = cell.run()
    wrong = dataclasses.replace(closed, lambdas=(closed.lambdas[0] + 1,) + closed.lambdas[1:])
    assert "closed_vs_direct" in workloads.tags(cell.check((wrong, direct, residuals)))

    cell = _first("critical-scan", "scan", n=4)
    (scan,) = cell.run()
    assert workloads.tags(cell.check([dataclasses.replace(scan, verdict="singular")])) \
        == {"exact_verdict"}

    cell = _first("exact-certify", "cert", r="2")
    (code, out, err), inv = cell.run()
    det = json.loads(out)
    det["result"]["det_exact"] += 1
    assert "det_mod_p" in workloads.tags(cell.check(((code, json.dumps(det), err), inv)))

    cell = _first("float-norms", "norms", n=5, r="2")
    norms, (code, out, err) = cell.run()
    bounds = json.loads(out)
    bounds["result"]["sigma"] *= 1 + 1e-6
    assert "sigma_vs_lapack" in workloads.tags(cell.check((norms, (code, json.dumps(bounds), err))))

    cell = _first("float-norms", "matvec")
    assert workloads.tags(cell.check(cell.run() * (1 + 1e-6))) == {"matvec"}


def test_oracles_decide_known_singular_matrices():
    # det Circ_r(0, 1, 2) = r (1 + 8 r) vanishes at r = -1/8
    assert oracles.singular_exact(1, 3, Fraction(-1, 8))
    assert not oracles.singular_exact(1, 3, Fraction(1, 8))
    a = oracles.pell_terms(1, 3)
    assert oracles.det_mod_p(a, Fraction(-1, 8), oracles.DET_PRIMES[0]) == 0
    assert oracles.trace_m2_over_r([0, 1, 2]) == 3 * (1 * 2 + 2 * 1)


def test_command_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "critical-scan",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0
    assert report["attempted"] == 10 * 29 * 2
    assert set(report["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "float-norms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert not re.search(r'"correct"', proc.stdout)

"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single pass/fail line on the real stdout so the
verdicts survive pytest's capture, then asserts.  Tolerances are stated
inline; none are loosened relative to the module contracts.
"""

import hashlib
import sys
import time
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from pelltrib import circulant as circ
from pelltrib import fastops as fo
from pelltrib import invertibility as inv
from pelltrib import spectral as sp
from pelltrib import sums
from pelltrib.sequence import char_roots, term, terms_upto

import reference as ref
from det_oracle import det_dense


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {name}: {status} ({detail})", flush=True)


def test_criterion_01_summation_identities(capsys):
    start = time.perf_counter()
    checked = 0
    for k in range(1, 11):
        for n in range(61):
            assert sums.s1_closed(k, n) == ref.s1_direct(k, n)
            assert sums.w1_closed(k, n) == ref.w1_direct(k, n)
            assert sums.s2_closed(k, n) == ref.s2_direct(k, n)
            assert sums.w2_closed(k, n) == ref.w2_direct(k, n)
            checked += 4
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(capsys, 1, "summation identities", ok, f"{checked} exact checks in {elapsed:.2f} s")
    assert ok, f"runtime {elapsed:.2f} s exceeds 10 s"


def test_criterion_02_norm_theorem(capsys):
    start = time.perf_counter()
    r_values = (2, -2, Fraction(1, 2), Fraction(-1, 2), 1, -1, Fraction(3, 7))
    checked = 0
    for k in range(1, 6):
        for n in range(2, 33):
            for r in r_values:
                m = circ.build_pell(k, n, r)
                assert sp.frobenius_sq_closed(k, n, r) == ref.frobenius_sq_direct(m)
                assert sp.l1_closed(k, n, r) == ref.l1_direct(m)
                checked += 2
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    _report(capsys, 2, "norm closed forms", ok, f"{checked} exact checks in {elapsed:.2f} s")
    assert ok, f"runtime {elapsed:.2f} s exceeds 30 s"


def test_criterion_03_reference_table(capsys):
    rows = sp.table1_report()
    problems = []
    erratum_row = None
    for row in rows:
        if (row.n, row.r) == (8, "4"):
            erratum_row = row
            if "upper_erratum" not in row.flags:
                problems.append("missing erratum flag on (8,4)")
            if abs(row.upper_ours - 1408.00) > 0.005:
                problems.append(f"(8,4) formula upper {row.upper_ours}")
            if abs(row.upper_published - 1498.00) > 1e-9:
                problems.append("(8,4) published upper not carried")
        elif abs(row.upper_ours - row.upper_published) > 0.005:
            problems.append(f"upper mismatch at ({row.n},{row.r})")
        if row.r == "1":
            expect_lower = 14.11 if row.n == 5 else 232.68
            expect_sigma = 21.00 if row.n == 5 else 352.00
            if abs(row.lower_ours - expect_lower) > 0.005:
                problems.append(f"lower at ({row.n},1): {row.lower_ours}")
            if abs(row.sigma_ours - expect_sigma) > 0.01:
                problems.append(f"sigma at ({row.n},1): {row.sigma_ours}")
        else:
            if "lower_mismatch" not in row.flags:
                problems.append(f"missing lower_mismatch flag at ({row.n},{row.r})")
            if not (row.lower_ours > 0 and row.lower_published > 0):
                problems.append(f"lower columns absent at ({row.n},{row.r})")
    ok = not problems and erratum_row is not None and len(rows) == 12
    _report(capsys, 3, "reference table reproduction", ok,
            "12 rows, 1 erratum, 10 lower-column discrepancies flagged"
            if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_04_sandwich_bounds(capsys):
    start = time.perf_counter()
    slack = 1e-8
    r_values = (1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2, 1.08, 5, 1j)
    worst = 0.0
    checked = 0
    for k in range(1, 6):
        for n in range(2, 65):
            for r in r_values:
                sigma = sp.spectral_numeric(circ.to_complex_list(circ.build_pell(k, n, r)))
                lower, upper = sp.spectral_bounds(k, n, r)
                fro = sp.frobenius_closed(k, n, r)
                for low, high in ((lower, sigma), (sigma, upper),
                                  (fro / n ** 0.5, sigma), (sigma, fro)):
                    violation = (low - high) / max(abs(high), 1e-300)
                    worst = max(worst, violation)
                    assert violation <= slack, (k, n, r, low, high)
                checked += 1
    elapsed = time.perf_counter() - start
    _report(capsys, 4, "spectral sandwich bounds", True,
            f"{checked} grid cells, worst violation {worst:.1e}, {elapsed:.1f} s")


def test_criterion_05_eigenvalue_closed_forms(capsys, criterion_05_closed):
    # the closed spectra, eigenvalues_closed(k, n, r, 256) for k 1..5,
    # n 3..64 and r in {1, -1, 2, -3/2, i}, come from the session fixture
    start = time.perf_counter()
    bits = 256
    tol = mpf("1e-20")
    residual_tol = mpf(2) ** -64
    worst_diff = mpf(0)
    worst_res = mpf(0)
    checked = 0
    with mp.workprec(bits + 32):
        for k, n, r, closed in criterion_05_closed:
            direct = sp.eigenvalues_direct(k, n, r, bits)
            for lam_c, lam_d in zip(closed.lambdas, direct.lambdas):
                rel = abs(lam_c - lam_d) / max(abs(lam_d), mpf(1))
                worst_diff = max(worst_diff, rel)
                assert rel <= tol, (k, n, r, rel)
            res = sp.eigenpair_residuals(k, n, r, closed, precision_bits=bits)
            peak = max(res)
            worst_res = max(worst_res, peak)
            assert peak <= residual_tol, (k, n, r, peak)
            checked += n
    elapsed = time.perf_counter() - start
    _report(capsys, 5, "eigenvalue closed forms", True,
            f"{checked} eigenvalues, worst rel diff {float(worst_diff):.1e}, "
            f"worst residual {float(worst_res):.1e}, {elapsed:.0f} s")


def test_criterion_06_degenerate_branches(capsys):
    bits = 256
    tol = mpf("1e-20")
    hits = {"alpha": 0, "beta": 0, "gamma": 0}
    with mp.workprec(bits + 32):
        for k in (1, 2):
            roots = char_roots(k, bits)
            for n in (4, 6, 8):
                for root, name in ((roots.alpha, "alpha"), (roots.beta, "beta"),
                                   (roots.gamma, "gamma")):
                    r = root ** -n
                    closed = sp.eigenvalues_closed(k, n, r, bits)
                    direct = sp.eigenvalues_direct(k, n, r, bits)
                    assert name in closed.branches, (k, n, name, closed.branches)
                    hits[name] += closed.branches.count(name)
                    for lam_c, lam_d in zip(closed.lambdas, direct.lambdas):
                        rel = abs(lam_c - lam_d) / max(abs(lam_d), mpf(1))
                        assert rel <= tol, (k, n, name, rel)
    _report(capsys, 6, "degenerate eigenvalue branches", True,
            f"branch hits {hits['alpha']}/{hits['beta']}/{hits['gamma']} "
            "over 2 sequences x 3 orders")


def test_criterion_07_determinant(capsys):
    bits = 256
    tol = mpf("1e-20")
    anchor = det_dense(circ.build_pell(1, 3, 1))
    assert anchor == 9 == circ.det_exact(1, 3, 1)
    checked = 0
    with mp.workprec(bits + 32):
        for k in range(1, 4):
            for n in range(3, 17):
                for r in (1, -1, 2, Fraction(-3, 2), Fraction(3, 7)):
                    rep = sp.determinant_closed(k, n, r, bits)
                    exact = det_dense(circ.build_pell(k, n, r))
                    assert circ.det_exact(k, n, r) == exact, (k, n, r)
                    exact_mp = mp.mpmathify(exact)
                    scale = max(abs(exact_mp), mpf(1))
                    assert abs(rep.det_closed - exact_mp) / scale <= tol, (k, n, r)
                    assert abs(rep.det_oracle - exact_mp) / scale <= tol, (k, n, r)
                    assert abs(rep.det_closed - rep.det_oracle) / scale <= tol, (k, n, r)
                    checked += 1
    _report(capsys, 7, "determinant triangulation", True,
            f"{checked} cells agree to 1e-20; anchor det = 9 exact")


def test_criterion_08_polynomial_and_shift_identities(capsys):
    start = time.perf_counter()
    checked_poly = 0
    for k in range(1, 6):
        for n in range(3, 41):
            assert ref.psi_times_Psi(k, n) == ref.telescoped_form(k, n), (k, n)
            checked_poly += 1
    checked_shift = 0
    for k in range(1, 6):
        for n in range(4, 41):
            for r in (1, -1, 2, Fraction(-3, 2)):
                assert ref.shift_identity_check(k, n, r), (k, n, r)
                checked_shift += 1
    elapsed = time.perf_counter() - start
    _report(capsys, 8, "polynomial and shift identities", True,
            f"{checked_poly} coefficient identities, {checked_shift} "
            f"shift checks, {elapsed:.0f} s")


# sha256 of the newline-joined ScanCell reprs of the 512-bit scan over
# k 1..10, n 2..30, sign +1 then -1
SCAN_DIGEST = "a99170c0b7205209fa4a921582e5591b73517a661c32923f16105c44a001fc8b"


def test_criterion_09_invertibility(capsys):
    start = time.perf_counter()
    for k in range(1, 4):
        for n in range(2, 11):
            for r in (1, -1, 2, Fraction(-3, 2), Fraction(3, 7)):
                entries = tuple(terms_upto(k, n - 1))
                invertible = det_dense(circ.build_pell(k, n, r)) != 0
                assert inv.gcd_criterion(entries, r) == invertible, (k, n, r)
                assert inv.invertible_exact(k, n, r) == invertible, (k, n, r)
    for k in range(1, 11):
        for n in range(2, 31):
            for r in (1, -1):
                min_mag, _ = ref.min_eigen_magnitude(k, n, r)
                assert min_mag > 0, (k, n, r)
    cells = {}
    reprs = []
    for sign in (1, -1):
        scan = inv.counterexample_scan(range(1, 11), range(2, 31), sign=sign,
                                       precision_bits=512)
        assert len(scan) == 10 * 29
        for cell in scan:
            assert cell.verdict in ("invertible", "singular", "undetermined")
            cells[(cell.k, cell.n, sign)] = cell.verdict
        reprs += map(repr, scan)
    # every field of all 580 cells, pinned byte for byte
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == SCAN_DIGEST, digest
    spotlight = {key: cells[key] for key in ((5, 28, 1), (5, 29, 1), (5, 30, 1))}
    elapsed = time.perf_counter() - start
    _report(capsys, 9, "invertibility criteria and scan", True,
            f"scan verdicts at k=5 n=28..30: {'/'.join(spotlight.values())}, "
            f"{elapsed:.0f} s")


def test_criterion_10_fast_matvec(capsys):
    rng = np.random.default_rng(4096)
    r_values = (0.25, 1, -2, 4, 0.3 + 0.4j, 3.5)
    worst = 0.0
    for n in (3, 12, 64, 257, 1024, 4096):
        entries = fo.bench_generator(1, n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dense = {r: fo._dense_matvec(entries, complex(r), x) for r in r_values}
        for r in r_values:
            y = fo.fast_matvec(fo.fast_operator(entries, r), x)
            rel = np.linalg.norm(y - dense[r]) / np.linalg.norm(dense[r])
            worst = max(worst, rel)
            assert rel < 1e-9, (n, r, rel)
    for n, r in ((6, 2.0), (9, -1.5)):
        gen = [0.0] * n
        gen[1] = 1.0
        op = fo.fast_operator(gen, r)
        y = np.zeros(n, dtype=np.complex128)
        y[0] = 1
        for _ in range(n):
            y = fo.fast_matvec(op, y)
        want = np.zeros(n, dtype=np.complex128)
        want[0] = r
        assert np.linalg.norm(y - want) <= 1e-8 * abs(r), (n, r)
    rows = fo.bench_matvec([4096], 1, 2)
    times = {row.path: row.mean_ns for row in rows}
    speedup = times["dense"] / times["fast"]
    _report(capsys, 10, "fast matvec", True,
            f"worst rel err {worst:.1e}; n=4096 speedup {speedup:.1f}x "
            "(informative, not asserted)")

"""The four benchmark workloads: their grids, timed calls and output checks.

A cell is one grid point's calls.  Its `run` is the only timed part; its
`check` runs afterwards and compares the outputs with the reference
computations in `oracles` or with properties the method must have.  A cell
fails when a call raises or exits non-zero, or when a check does not hold.
Two faults of the program make some cells fail in every run; those cells
carry the fault's name and the exact set of check tags it produces, so any
other failure marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np
from mpmath import mp, mpf

from pelltrib import cli, fastops, invertibility, sequence, spectral

import oracles

EIG_BITS = 256
SCAN_BITS = 512
EIG_TOL = mpf("1e-20")
RESIDUAL_TOL = mpf(2) ** -64
SLACK = 1e-8          # sandwich and sigma slack of acceptance criterion 04
MATVEC_TOL = 1e-9     # fast-matvec accuracy claim for |r| in [1/4, 4]
FLOAT_REL = 1e-12     # double results recomputed from exact values
PRINTED_REL = Fraction(1, 10**14)  # reports print mpmath values to 15 digits


@dataclass
class Cell:
    key: tuple
    n: int
    run: Callable[[], object]
    check: Callable[[object], list]
    fault: str | None = None
    fault_tags: frozenset = frozenset()


@dataclass
class Workload:
    cells: list
    warm_roots: tuple = ()   # (k, bits) pairs whose char_roots the cells use

    def warm(self) -> None:
        for k, bits in self.warm_roots:
            sequence.char_roots(k, bits)


def tags(problems: list) -> frozenset:
    """The check names of a cell's problems ("name: detail" strings)."""
    return frozenset(p.split(":", 1)[0] for p in problems)


def _rel(got, want) -> float:
    return abs(got - want) / max(abs(want), 1)


def _cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_json(name: str, result: tuple, problems: list):
    """The report of a `--format json` call, or None with the failure noted."""
    code, out, err = result
    if code != 0:
        kind = json.loads(err)["error"]["kind"] if err else "?"
        problems.append(f"{name} exit {code} {kind}: {err.strip()}")
        return None
    report = json.loads(out)
    if report["command"] != name:
        problems.append(f"{name} envelope: command {report['command']!r}")
    return report["result"]


def _exact(value) -> Fraction:
    """A report atom known to be exact: an int or a "p/q" string."""
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and re.fullmatch(r"-?\d+/\d+", value):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


_MPC_RE = re.compile(r"^\((\S+) ([+-]) (\S+)j\)$")


def _printed_complex(text: str) -> tuple:
    """(re, im) of an mpmath complex as a report prints it, as exact decimals."""
    m = _MPC_RE.match(text)
    if not m:
        raise ValueError(f"not an mpc rendering: {text!r}")
    im = Fraction(m.group(3))
    return Fraction(m.group(1)), -im if m.group(2) == "-" else im


# ---------------------------------------------------------------------------
# eigen-verify

EIG_R = (("1", 1), ("-1", -1), ("2", 2), ("-3/2", Fraction(-3, 2)), ("i", 1j))
# 25 orders spread over 3..64, one per (k, r) pair in a Latin square, so each
# k and each r meets small and large n without a 25 x 25 cross product.
EIG_N = (3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20, 22, 24, 27, 30, 33, 36, 40,
         44, 48, 52, 56, 60, 64)


def _eigen_cell(k: int, n: int, r_label: str, r) -> Cell:
    def run():
        closed = spectral.eigenvalues_closed(k, n, r, EIG_BITS)
        direct = spectral.eigenvalues_direct(k, n, r, EIG_BITS)
        residuals = spectral.eigenpair_residuals(k, n, r, closed, precision_bits=EIG_BITS)
        return closed, direct, residuals

    def check(out):
        closed, direct, residuals = out
        problems = []
        if not len(closed.lambdas) == len(direct.lambdas) == len(residuals) == n:
            return [f"shape: {len(closed.lambdas)}, {len(direct.lambdas)}, {len(residuals)} != {n}"]
        a = oracles.pell_terms(k, n)
        with mp.workprec(EIG_BITS + 32):
            worst = max(abs(c - d) / max(abs(d), 1)
                        for c, d in zip(closed.lambdas, direct.lambdas))
            if worst > EIG_TOL:
                problems.append(f"closed_vs_direct: {float(worst):.2e}")
            peak = max(residuals)
            if peak > RESIDUAL_TOL:
                problems.append(f"residual: {float(peak):.2e}")
            lam_sum = mpmath.fsum(closed.lambdas)
            abs_sum = mpmath.fsum(abs(x) for x in closed.lambdas)
            if abs(lam_sum) > EIG_TOL * max(abs_sum, 1):
                problems.append(f"trace: |sum lambda| = {float(abs(lam_sum)):.2e}")
            r_mp = mpmath.mpc(r) if isinstance(r, complex) else mpmath.mpmathify(r)
            want = r_mp * oracles.trace_m2_over_r(a)
            sq_sum = mpmath.fsum(x * x for x in closed.lambdas)
            sq_abs = mpmath.fsum(abs(x) ** 2 for x in closed.lambdas)
            if abs(sq_sum - want) > EIG_TOL * max(sq_abs, 1):
                problems.append(f"trace_sq: off by {float(abs(sq_sum - want) / max(sq_abs, 1)):.2e}")
        return problems

    return Cell(key=("eig", k, n, r_label), n=n, run=run, check=check)


def eigen_verify() -> Workload:
    cells = []
    for i, n in enumerate(EIG_N):
        k = 1 + i % 5
        r_label, r = EIG_R[(i // 5 + i) % 5]
        cells.append(_eigen_cell(k, n, r_label, r))
    return Workload(cells, tuple((k, EIG_BITS) for k in range(1, 6)))


# ---------------------------------------------------------------------------
# critical-scan

def _scan_cell(k: int, n: int, sign: int) -> Cell:
    def run():
        return invertibility.counterexample_scan([k], [n], sign=sign, precision_bits=SCAN_BITS)

    def check(cells):
        if len(cells) != 1 or (cells[0].k, cells[0].n, cells[0].sign) != (k, n, sign):
            return [f"shape: {cells!r}"]
        cell = cells[0]
        problems = []
        if cell.verdict not in ("invertible", "singular"):
            problems.append(f"verdict: {cell.verdict}")
        want = oracles.r_star_log10(k, n)
        if not abs(cell.r_star_log10 - want) <= FLOAT_REL * max(abs(want), 1):
            problems.append(f"r_star_log10: {cell.r_star_log10} != {want}")
        if n % 2 == 0:
            singular = oracles.singular_exact(k, n, oracles.scan_r_star(k, n, sign))
            if cell.verdict != ("singular" if singular else "invertible"):
                problems.append(f"exact_verdict: {cell.verdict}, exactly singular={singular}")
        return problems

    return Cell(key=("scan", k, n, sign), n=n, run=run, check=check)


def critical_scan() -> Workload:
    cells = [_scan_cell(k, n, sign)
             for sign in (1, -1) for k in range(1, 11) for n in range(2, 31)]
    return Workload(cells)


# ---------------------------------------------------------------------------
# exact-certify

CERT_R = ("2", "-3/2", "3/7", "169/25")
CERT_N = (3, 4, 6, 9, 13, 18, 24, 31, 40)


def _certify_cell(k: int, n: int, r_text: str) -> Cell:
    common = [f"--k={k}", f"--n={n}", f"--r={r_text}", f"--bits={EIG_BITS}", "--format=json"]
    r = Fraction(r_text)

    def run():
        return _cli(["det", *common]), _cli(["invert", *common])

    def check(out):
        problems = []
        det_rep = _cli_json("det", out[0], problems)
        inv_rep = _cli_json("invert", out[1], problems)
        if det_rep is None or inv_rep is None:
            return problems
        det = _exact(det_rep["det_exact"])
        a = oracles.pell_terms(k, n)
        for p in oracles.DET_PRIMES:
            if oracles.det_mod_p(a, r, p) != oracles.fraction_mod_p(det, p):
                problems.append(f"det_mod_p: det_exact disagrees modulo {p}")
        scale = max(abs(det), 1)
        for name in ("det_closed", "det_product_of_eigenvalues"):
            re_part, im_part = _printed_complex(det_rep[name])
            if abs(re_part - det) > PRINTED_REL * scale or abs(im_part) > PRINTED_REL * scale:
                problems.append(f"{name}: {det_rep[name]} vs det_exact")
        singular = oracles.singular_exact(k, n, r)
        if singular != (det == 0):
            problems.append(f"singular_exact: {singular} but det_exact = {det}")
        if inv_rep["gcd_invertible"] is not (det != 0):
            problems.append(f"gcd_invertible: {inv_rep['gcd_invertible']} with det {det}")
        if inv_rep["status"] == "guaranteed_invertible" and det == 0:
            problems.append("guaranteed_invertible: det_exact = 0")
        return problems

    return Cell(key=("cert", k, n, r_text), n=n, run=run, check=check)


def exact_certify() -> Workload:
    cells = [_certify_cell(k, n, r) for k in range(1, 4) for r in CERT_R for n in CERT_N]
    return Workload(cells, tuple((k, EIG_BITS) for k in range(1, 4)))


# ---------------------------------------------------------------------------
# float-norms

@dataclass(frozen=True)
class FloatR:
    text: str            # as passed to the CLI
    value: complex       # as a double, for the numpy reference matrix
    abs: Fraction        # |r| exactly
    exact: bool          # whether pelltrib keeps r exact (int or Fraction)


NORM_R = (
    FloatR("1", 1, Fraction(1), True),
    FloatR("-1", -1, Fraction(1), True),
    FloatR("1/2", 0.5, Fraction(1, 2), True),
    FloatR("2", 2, Fraction(2), True),
    FloatR("5", 5, Fraction(5), True),
    FloatR("1.08", 1.08, Fraction(27, 25), False),
    FloatR("0+1i", 1j, Fraction(1), False),
)
NORM_N = (2, 3, 5, 8, 13, 21, 34, 64)

# F1: norms and bounds overflow a float although the squared norm is an exact
# integer (spectral.frobenius_closed, spectral.spectral_bounds).
F1_CELL = (1, 400, "2")
F1_TAGS = frozenset({"norms exit 3 OverflowError", "bounds exit 3 OverflowError"})
# F2: spectral.spectral_numeric stops when the Rayleigh quotient stalls and
# misses the LAPACK 2-norm by more than the 1e-8 slack on these grid cells.
F2_CELLS = frozenset({(2, 64, "0+1i"), (3, 64, "0+1i"), (4, 64, "0+1i"), (5, 34, "0+1i"),
                      (5, 64, "-1"), (5, 64, "2"), (5, 64, "5"), (5, 64, "1.08"),
                      (5, 64, "0+1i")})
F2_TAGS = frozenset({"sigma_vs_lapack"})

MATVEC_N = (64, 256, 1024, 4096, 100, 257, 1000, 4097)
MATVEC_R = (0.25, -2.0, 0.3 + 0.4j, 4.0)


def _agree(problems: list, name: str, got, want, exact: bool) -> None:
    if exact:
        if _exact(got) != want:
            problems.append(f"{name}: {got} != {want}")
    elif not _rel(Fraction(str(got)), want) <= PRINTED_REL:
        problems.append(f"{name}: {got} vs {float(want)!r}")


def _norms_cell(k: int, n: int, r: FloatR) -> Cell:
    common = [f"--k={k}", f"--n={n}", f"--r={r.text}", f"--bits={EIG_BITS}", "--format=json"]

    def run():
        return _cli(["norms", *common]), _cli(["bounds", *common])

    def check(out):
        problems = []
        norms = _cli_json("norms", out[0], problems)
        bounds = _cli_json("bounds", out[1], problems)
        if norms is None or bounds is None:
            return problems
        a = oracles.pell_terms(k, n)
        fro_sq, l1 = oracles.frobenius_sq_l1(a, r.abs)
        fro = math.sqrt(fro_sq)
        _agree(problems, "frobenius_sq", norms["frobenius_sq"], fro_sq, r.exact)
        _agree(problems, "l1", norms["l1"], l1, r.exact)
        if _rel(norms["frobenius"], fro) > FLOAT_REL:
            problems.append(f"frobenius: {norms['frobenius']} vs {fro}")
        m = oracles.dense_complex(a, r.value)
        sigma = float(np.linalg.norm(m, 2))
        s1 = sum(a)
        s2 = sum(t * t for t in a)
        w2 = sum(i * t * t for i, t in enumerate(a))
        mag = np.abs(m) ** 2
        want = {
            "lower": math.sqrt(s2 + (r.abs * r.abs - 1) / n * w2),
            "upper": float(max(r.abs, 1) * s1),
            "frobenius": fro,
            "frobenius_over_sqrt_n": fro / math.sqrt(n),
            "row_length_norm": float(np.sqrt(mag.sum(axis=1).max())),
            "col_length_norm": float(np.sqrt(mag.sum(axis=0).max())),
        }
        for name, value in want.items():
            if _rel(bounds[name], value) > FLOAT_REL:
                problems.append(f"{name}: {bounds[name]} vs {value}")
        tight = 1 + SLACK
        for low, high, what in ((bounds["lower"], sigma, "lower <= sigma"),
                                (sigma, bounds["upper"], "sigma <= upper"),
                                (bounds["frobenius_over_sqrt_n"], sigma, "fro/sqrt(n) <= sigma"),
                                (sigma, bounds["frobenius"], "sigma <= fro")):
            if low > high * tight:
                problems.append(f"sandwich: {what} fails, {low} > {high}")
        if abs(bounds["sigma"] - sigma) > SLACK * sigma:
            problems.append(f"sigma_vs_lapack: {bounds['sigma']} vs {sigma}, "
                            f"rel {abs(bounds['sigma'] - sigma) / sigma:.2e}")
        return problems

    key = (k, n, r.text)
    if key == F1_CELL:
        fault, fault_tags = "F1", F1_TAGS
    elif key in F2_CELLS:
        fault, fault_tags = "F2", F2_TAGS
    else:
        fault, fault_tags = None, frozenset()
    return Cell(key=("norms", *key), n=n, run=run, check=check,
                fault=fault, fault_tags=fault_tags)


def _matvec_cell(k: int, n: int, r: complex, x: np.ndarray) -> Cell:
    entries = fastops.bench_generator(k, n)

    def run():
        return fastops.fast_matvec(fastops.fast_operator(entries, r), x)

    def check(y):
        if y.shape != (n,):
            return [f"shape: {y.shape}"]
        want = oracles.dense_matvec(entries, complex(r), x)
        rel = float(np.linalg.norm(y - want) / np.linalg.norm(want))
        return [f"matvec: rel {rel:.2e}"] if not rel <= MATVEC_TOL else []

    return Cell(key=("matvec", k, n, r), n=n, run=run, check=check)


def float_norms(seed: int) -> Workload:
    cells = [_norms_cell(k, n, r) for k in range(1, 6) for r in NORM_R for n in NORM_N]
    f1_k, f1_n, f1_r = F1_CELL
    cells.append(_norms_cell(f1_k, f1_n, next(r for r in NORM_R if r.text == f1_r)))
    rng = np.random.default_rng(seed)
    for i, n in enumerate(MATVEC_N):
        for j, r in enumerate(MATVEC_R):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            cells.append(_matvec_cell(1 + (i + j) % 5, n, r, x))
    return Workload(cells)


# ---------------------------------------------------------------------------

_GRIDS = {
    "eigen-verify": lambda seed: eigen_verify(),
    "critical-scan": lambda seed: critical_scan(),
    "exact-certify": lambda seed: exact_certify(),
    "float-norms": float_norms,
}


def build(name: str, seed: int) -> Workload:
    """The workload's cells, in an order shuffled by the seed; the seed also
    draws the matvec vectors of float-norms."""
    workload = _GRIDS[name](seed)
    random.Random(seed).shuffle(workload.cells)
    return workload

"""Fast application of r-circulant matrices by scaled-DFT diagonalization.

An r-circulant with generator row (a_0 .. a_{n-1}) factors as
D F L F^-1 D^-1 where D = diag(rho^j) for the principal n-th root
rho of r, F is the positive-exponent DFT matrix F[j, m] = w^{jm},
and L holds the eigenvalues lambda_m = sum_j a_j (rho w^m)^j.  A
matrix-vector product therefore costs a diagonal scale, two FFTs and
a pointwise multiply: O(n log n) in double precision.

The scaling diag(rho^j) spans a dynamic range of |r| across the rows,
so accuracy claims are restricted to |r| within [1/4, 4].  High
precision eigenvalue work lives in the spectral module; this one
trades digits for speed.
"""

from __future__ import annotations

import cmath
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroR
from .sequence import check_k, term


def fft(x) -> np.ndarray:
    """Forward DFT with the project-wide positive-exponent convention:
    numpy's inverse transform carries the positive exponent, so this is
    n * np.fft.ifft."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    if n == 0:
        raise DimensionMismatch("empty input")
    return n * np.fft.ifft(x)


def ifft(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    return np.fft.fft(x) / x.size


@dataclass(frozen=True)
class FastCirculantOperator:
    """Immutable double-precision spectral form of an r-circulant."""

    n: int
    r: complex
    scaled_spectrum: np.ndarray
    rho_scale: np.ndarray


def fast_operator(entries, r) -> FastCirculantOperator:
    """Spectral form of Circ_r(entries); ZeroR for r = 0, ValueError for
    |r| outside [1/4, 4], the range of the module's accuracy claim."""
    a = np.asarray([complex(e) for e in entries], dtype=np.complex128)
    n = a.size
    if n == 0:
        raise DimensionMismatch("generator row must be nonempty")
    rc = complex(r)
    if rc == 0:
        raise ZeroR("r = 0 breaks the diagonal scaling")
    if not 0.25 <= abs(rc) <= 4:
        raise ValueError(f"|r| = {abs(rc)!r} lies outside [1/4, 4], the range of the fast path")
    if rc.imag == 0 and rc.real > 0:
        rho = complex(rc.real ** (1.0 / n))
    else:
        rho = cmath.exp(cmath.log(rc) / n)
    rho_scale = rho ** np.arange(n)
    spectrum = fft(a * rho_scale)
    return FastCirculantOperator(n=n, r=rc, scaled_spectrum=spectrum, rho_scale=rho_scale)


def fast_matvec(op: FastCirculantOperator, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (op.n,):
        raise DimensionMismatch(f"expected a vector of length {op.n}, got shape {x.shape}")
    w = ifft(x / op.rho_scale)
    return fft(w * op.scaled_spectrum) * op.rho_scale


def _dense_matvec(entries: np.ndarray, r: complex, x: np.ndarray) -> np.ndarray:
    # row i of the matrix is (r*a[n-i:], a[:n-i]); each row is sliced out
    # of one doubled buffer so the dense path stays O(n) in memory
    n = entries.size
    doubled = np.concatenate([r * entries, entries])
    y = np.empty(n, dtype=np.complex128)
    for i in range(n):
        y[i] = doubled[n - i:2 * n - i] @ x
    return y


@dataclass(frozen=True)
class BenchRow:
    n: int
    path: str
    mean_ns: float
    rel_err: float


def _mean_ns(fn, reps: int) -> float:
    start = time.perf_counter_ns()
    for _ in range(reps):
        fn()
    return (time.perf_counter_ns() - start) / reps


def bench_generator(k: int, n: int) -> np.ndarray:
    """Deterministic generator row tied to k but bounded for doubles.

    The raw sequence outgrows float64 well before desk-scale n, so the
    row repeats the prefix of terms that stay below 2^40.
    """
    check_k(k)
    m = 0
    while term(k, m + 1) < 2 ** 40:
        m += 1
    return np.asarray([float(term(k, j % m)) for j in range(n)], dtype=np.complex128)


def bench_matvec(n_list, k: int, r, reps_fast: int = 30, reps_dense: int = 5) -> list[BenchRow]:
    """Wall-time fast vs dense application on deterministic inputs."""
    rng = np.random.default_rng(20240815)
    rows = []
    for n in n_list:
        entries = bench_generator(k, n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        op = fast_operator(entries, r)
        y_fast = fast_matvec(op, x)
        y_dense = _dense_matvec(entries, complex(r), x)
        scale = float(np.linalg.norm(y_dense))
        rel = float(np.linalg.norm(y_fast - y_dense)) / scale if scale else 0.0
        fast_ns = _mean_ns(lambda: fast_matvec(op, x), reps_fast)
        dense_ns = _mean_ns(lambda: _dense_matvec(entries, complex(r), x), reps_dense)
        rows.append(BenchRow(n=n, path="fast", mean_ns=fast_ns, rel_err=rel))
        rows.append(BenchRow(n=n, path="dense", mean_ns=dense_ns, rel_err=0.0))
    return rows

"""Reference computations that only the tests use.

Literal dense operations and entrywise norms of a square numpy array, such
as the object array circulant.build returns, and the Binet form of the
sequence terms from the characteristic roots: slow, obvious oracles for the
closed forms in the package.  Also the smallest eigenvalue modulus, which
only the tests read.
"""

import math

import numpy as np
from mpmath import mp, mpc, mpf

from pelltrib.circulant import abs_sq
from pelltrib.errors import DimensionMismatch
from pelltrib.invertibility import _modulus_extremes
from pelltrib.sequence import _GUARD, char_roots, check_int


def matvec_dense(m: np.ndarray, x) -> list:
    """Literal row-by-row matrix-vector product."""
    if len(x) != len(m):
        raise DimensionMismatch(f"vector length {len(x)} vs order {len(m)}")
    return [sum(e * v for e, v in zip(row, x)) for row in m]


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise DimensionMismatch(f"orders differ: {len(a)} vs {len(b)}")
    return a * b


def conj_transpose(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def frobenius_sq_direct(m: np.ndarray):
    """Sum of squared entry magnitudes; exact when the entries are exact."""
    return sum(abs_sq(e) for e in m.flat)


def frobenius_direct(m: np.ndarray) -> float:
    return math.sqrt(frobenius_sq_direct(m))


def l1_direct(m: np.ndarray):
    """Sum of entry magnitudes; exact for exact real entries."""
    return sum(abs(e) for e in m.flat)


def binet_term(k: int, n: int, precision_bits: int = 256) -> mpf:
    """Closed-form n-th term from the three roots; agrees with term() to
    relative 2^(-precision_bits/4)."""
    check_int(n, 0, "n")
    roots = char_roots(k, precision_bits)
    with mp.workprec(precision_bits + _GUARD):
        value = (
            roots.binet_a * mpc(roots.alpha) ** n
            + roots.binet_b * roots.beta**n
            + roots.binet_c * roots.gamma**n
        )
        return mpf(value.real)


def min_eigen_magnitude(k: int, n: int, r, precision_bits: int = 256) -> tuple[mpf, int]:
    """Smallest |lambda_m| and its index m over the direct eigenvalues, from
    the scan's comparison of squared moduli on the kernel's integers."""
    min_mag, idx, _ = _modulus_extremes(k, n, r, precision_bits)
    return min_mag, idx

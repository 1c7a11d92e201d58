"""Reference computations that only the tests use.

Literal dense operations and entrywise norms of a DenseMatrix, and the
Binet form of the sequence terms from the characteristic roots: slow,
obvious oracles for the closed forms in the package.
"""

import math

from mpmath import mp, mpc, mpf

from pelltrib.circulant import DenseMatrix, abs_sq
from pelltrib.errors import DimensionMismatch
from pelltrib.sequence import _GUARD, char_roots, check_int


def matvec_dense(m: DenseMatrix, x) -> list:
    """Literal row-by-row matrix-vector product."""
    if len(x) != m.n:
        raise DimensionMismatch(f"vector length {len(x)} vs order {m.n}")
    return [sum(e * v for e, v in zip(row, x)) for row in m.rows]


def hadamard(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.n != b.n:
        raise DimensionMismatch(f"orders differ: {a.n} vs {b.n}")
    rows = tuple(
        tuple(e * f for e, f in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)
    )
    return DenseMatrix(n=a.n, rows=rows)


def conj_transpose(m: DenseMatrix) -> DenseMatrix:
    rows = tuple(
        tuple(m.rows[j][i].conjugate() for j in range(m.n)) for i in range(m.n)
    )
    return DenseMatrix(n=m.n, rows=rows)


def frobenius_sq_direct(m: DenseMatrix):
    """Sum of squared entry magnitudes; exact when the entries are exact."""
    return sum(abs_sq(e) for row in m.rows for e in row)


def frobenius_direct(m: DenseMatrix) -> float:
    return math.sqrt(frobenius_sq_direct(m))


def l1_direct(m: DenseMatrix):
    """Sum of entry magnitudes; exact for exact real entries."""
    return sum(abs(e) for row in m.rows for e in row)


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

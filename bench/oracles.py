"""Reference computations the benchmark checks pelltrib's outputs against.

Nothing here imports pelltrib: terms come from the benchmark's own
recurrence, exact quantities from Fraction arithmetic, and floating-point
references from numpy/LAPACK.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Primes for the modular determinant check; none divides a denominator
# of the workloads' rational r values.
DET_PRIMES = (2**61 - 1, 2**31 - 1, 998_244_353)


def pell_terms(k: int, count: int) -> list[int]:
    """a_0 .. a_{count-1} of P(n) = 2k P(n-1) + k P(n-2) + P(n-3)."""
    terms = [0, 1, 2 * k]
    while len(terms) < count:
        terms.append(2 * k * terms[-1] + k * terms[-2] + terms[-3])
    return terms[:count]


def frobenius_sq_l1(a: list[int], r_abs: Fraction) -> tuple:
    """(sum |M_ij|^2, sum |M_ij|), summed entry by entry over the dense matrix:
    a_{j-i} on and above the diagonal, |r| a_{n+j-i} below it."""
    n = len(a)
    upper_sq = upper = lower_sq = lower = 0
    for i in range(n):
        for j in range(n):
            if j >= i:
                e = a[j - i]
                upper_sq += e * e
                upper += e
            else:
                e = a[n + j - i]
                lower_sq += e * e
                lower += e
    return upper_sq + r_abs * r_abs * lower_sq, upper + r_abs * lower


def dense_complex(a, r: complex) -> np.ndarray:
    """The r-circulant as a complex128 numpy array."""
    n = len(a)
    m = np.empty((n, n), dtype=np.complex128)
    row = np.asarray([complex(e) for e in a], dtype=np.complex128)
    for i in range(n):
        m[i, i:] = row[: n - i]
        m[i, :i] = r * row[n - i:]
    return m


def dense_matvec(a: np.ndarray, r: complex, x: np.ndarray) -> np.ndarray:
    """Row-by-row dense r-circulant product; O(n) memory even at n ~ 4097."""
    n = a.size
    doubled = np.concatenate([r * a, a])
    return np.array([doubled[n - i:2 * n - i] @ x for i in range(n)])


def trace_m2_over_r(a: list[int]) -> int:
    """trace(M^2) / r = n sum_{l=1}^{n-1} a_l a_{n-l} for the order-n r-circulant
    M of a: the r-shift C has trace(C^j) = 0 for 0 < j < 2n except
    trace(C^n) = n r, and a_0 = 0."""
    n = len(a)
    return n * sum(a[l] * a[n - l] for l in range(1, n))


def fraction_mod_p(q: Fraction, p: int) -> int:
    return q.numerator % p * pow(q.denominator, -1, p) % p


def det_mod_p(a: list[int], r: Fraction, p: int) -> int:
    """Determinant of the r-circulant over GF(p) by Gaussian elimination."""
    n = len(a)
    r_p = fraction_mod_p(r, p)
    rows = [[a[j - i] % p if j >= i else r_p * a[n + j - i] % p for j in range(n)]
            for i in range(n)]
    det = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        head = rows[col]
        det = det * head[col] % p
        inv = pow(head[col], -1, p)
        for i in range(col + 1, n):
            row = rows[i]
            f = row[col] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(row, head)]
    return det % p


def _t_coefficients(k: int, n: int, r: Fraction, terms: list[int]) -> tuple:
    # T(x) = A x^2 + B x + C from the telescoped product psi * Psi mod x^n - r
    return (-r * terms[n - 1], 1 - r * (k * terms[n - 1] + terms[n - 2]), -r * terms[n])


def _resultant_factor(a, b, c, r, n, reduce, div):
    """(t1^n - r)(t2^n - r) for the roots t1, t2 of a x^2 + b x + c, in the
    field given by reduce (normalise) and div (exact division)."""
    def mulmod(u, v):
        # (u1 x + u0)(v1 x + v0) with x^2 = -(b x + c)/a
        q2 = u[1] * v[1]
        q1 = u[1] * v[0] + u[0] * v[1]
        q0 = u[0] * v[0]
        return (reduce(q0 - div(q2 * c, a)), reduce(q1 - div(q2 * b, a)))

    result, base, e = (1, 0), (0, 1), n
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    c0, c1 = result
    d = c0 - r
    # c1^2 t1 t2 + c1 d (t1 + t2) + d^2 with t1 t2 = c/a, t1 + t2 = -b/a
    return reduce(div(c1 * c1 * c, a) - div(c1 * d * b, a) + d * d)


def singular_exact(k: int, n: int, r: Fraction) -> bool:
    """Whether the order-n r-circulant of P(k, 0..n-1) is singular, exactly.

    psi(x) Psi(x) = T(x) mod (x^n - r) with psi(x) = 1 - 2k x - k x^2 - x^3.
    psi has no root whose n-th power is rational (its roots are 1/alpha,
    1/beta, 1/gamma with |beta|, |gamma| < 1 < alpha), so for rational r
    the matrix is singular exactly when a root t of T has t^n = r, i.e.
    when (t1^n - r)(t2^n - r) = 0.  A nonzero value of that product modulo
    one prime proves it nonzero; only when every prime gives zero is it
    recomputed in rationals.
    """
    terms = pell_terms(k, n + 1)
    for p in DET_PRIMES:
        if r.numerator % p == 0 or r.denominator % p == 0:
            continue
        rp = fraction_mod_p(r, p)
        a, b, c = (fraction_mod_p(Fraction(v), p)
                   for v in _t_coefficients(k, n, Fraction(rp), terms))
        if a == 0:
            continue
        if _resultant_factor(a, b, c, rp, n, lambda v: v % p,
                             lambda u, v: u * pow(v, -1, p)) % p:
            return False
    a, b, c = _t_coefficients(k, n, r, terms)
    return _resultant_factor(a, b, c, r, n, lambda v: v, lambda u, v: u / v) == 0


def scan_r_star(k: int, n: int, sign: int) -> Fraction:
    """The scan's critical value sign (P(n)/P(n-1))^(n/2); rational for even n."""
    if n % 2:
        raise ValueError("r* is rational only for even n")
    terms = pell_terms(k, n + 1)
    return sign * Fraction(terms[n], terms[n - 1]) ** (n // 2)


def r_star_log10(k: int, n: int) -> float:
    p = pell_terms(k, n + 1)
    return n / 2 * (math.log10(p[n]) - math.log10(p[n - 1]))

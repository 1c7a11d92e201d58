"""r-circulant matrices: construction, exact dense operations, determinants.

An r-circulant of order n with generator (a_0, ..., a_{n-1}) has entries

    M[i][j] = a_{j-i}        for j >= i
    M[i][j] = r * a_{n+j-i}  for j < i

so each row is the previous one shifted right, with the wrapped entry
multiplied by r.  r = 1 is the ordinary circulant, r = -1 the skew
circulant, r = 0 an upper-triangular band.

Entries may be exact (int, Fraction) or inexact (float, complex, mpmath
scalars).  The exact determinant refuses inexact r instead of quietly
degrading.

The exact determinant of the sequence matrix never builds the matrix: it is
the resultant Res(x^n - r, f) of the generator polynomial f, which the
telescoping identity psi f = T mod (x^n - r) splits into two resultants with
a quadratic and a cubic, each an integer expression in O(log n) big-integer
products and sequence terms up to P(2n+1), from term's cache (see _resultants).
"""

from __future__ import annotations

import numbers
from fractions import Fraction

import numpy as np
from mpmath import mpc

from .sequence import check_order, t_integers, term, terms_upto

EXACT_TYPES = (int, Fraction)


def is_exact(x) -> bool:
    return isinstance(x, EXACT_TYPES)


def is_real(x) -> bool:
    """True for int, Fraction, float, mpf and numpy reals; never complex or mpc."""
    return isinstance(x, numbers.Real)


def abs_sq(x):
    """|x|^2, exact for exact input (avoids the sqrt round-trip of abs)."""
    if isinstance(x, (complex, mpc)):
        return x.real * x.real + x.imag * x.imag
    return x * x


def _doubled(r, entries) -> np.ndarray:
    """The row (r a_0, ..., r a_{n-1}, a_0, ..., a_{n-1}) as an object array."""
    return np.array([r * e for e in entries] + list(entries), dtype=object)


def _layout(doubled: np.ndarray) -> np.ndarray:
    """The n-by-n r-circulant read from its doubled row: entry (i, j) is
    a_{(j-i) mod n}, times r where i > j, found at n + j - i."""
    n = len(doubled) // 2
    return doubled[n + np.arange(n) - np.arange(n)[:, None]]


def build(r, entries) -> np.ndarray:
    """The dense r-circulant of a generator row, as an n-by-n object array
    of the entries themselves (exact entries stay int or Fraction)."""
    return _layout(_doubled(r, entries))


def build_pell(k: int, n: int, r) -> np.ndarray:
    """Dense r-circulant generated by the first n sequence terms."""
    check_order(k, n)
    return build(r, terms_upto(k, n - 1))


def build_pell_complex(k: int, n: int, r) -> np.ndarray:
    """to_complex_list(build_pell(k, n, r)), bit for bit, converting only
    the 2n entries of the doubled row.  For Fraction r = p/q the wrapped
    entries are the doubles a p / q: int true division rounds correctly,
    so each is float(Fraction(a p, q)), and past double range it raises
    the same OverflowError, without building the Fraction."""
    check_order(k, n)
    entries = terms_upto(k, n - 1)
    if isinstance(r, Fraction):
        p, q = r.numerator, r.denominator
        return _layout(to_complex_list([a * p / q for a in entries] + entries))
    return _layout(to_complex_list(_doubled(r, entries)))


# ---------------------------------------------------------------------------
# exact determinant from two resultants

def _lucas_v(a1: int, b: int, n: int) -> int:
    """X^n + Y^n for the roots X, Y of y^2 + a1 y + b, by index doubling."""
    u, u_next, b_pow = 2, -a1, 1  # U_m, U_{m+1}, b^m at m = 0
    for bit in bin(n)[2:]:
        # U_2m = U_m^2 - 2 b^m,  U_2m+1 = U_m U_m+1 + a1 b^m
        odd = u * u_next + a1 * b_pow
        if bit == "1":
            u, u_next, b_pow = odd, u_next * u_next - 2 * b_pow * b, b_pow * b_pow * b
        else:
            u, u_next, b_pow = u * u - 2 * b_pow, odd, b_pow * b_pow
    return u


def _power_sums(k: int, n: int) -> tuple[int, int]:
    """(s_n, t_n): the n-th power sums of the roots alpha, beta, gamma of
    x^3 - 2k x^2 - k x - 1 and of their reciprocals, the roots of
    x^3 + k x^2 + 2k x - 1; n >= 1.

    s_m = 3 P(m+1) - 4k P(m) - k P(m-1) for m >= 1: both sides satisfy the
    sequence recurrence x_m = 2k x_(m-1) + k x_(m-2) + x_(m-3) (each root
    does), and they agree at m = 1, 2, 3, where s_m is 2k, 4k^2 + 2k and
    8k^3 + 6k^2 + 3.  alpha beta gamma = 1, so alpha^-n = beta^n gamma^n and
    t_n is the second elementary symmetric function of alpha^n, beta^n,
    gamma^n: t_n = (s_n^2 - s_2n) / 2, an exact division.
    """
    s_n, s_2n = (3 * term(k, m + 1) - 4 * k * term(k, m) - k * term(k, m - 1) for m in (n, 2 * n))
    return s_n, (s_n * s_n - s_2n) // 2


def _resultants(k: int, n: int, r) -> tuple[int, int, int]:
    """(q^(n+2) Res(x^n - r, T), q^3 Res(x^n - r, psi), q) for r = p/q in lowest terms.

    psi = 1 - 2k x - k x^2 - x^3 and T = x - r (c0 + c1 x + c2 x^2) with
    (c0, c1, c2) = sequence.t_integers(k, n).  psi times the generator
    polynomial f telescopes to T mod (x^n - r) (tests/reference.py checks it
    coefficient by coefficient, psi_times_Psi), so det Circ_r
    = Res(x^n - r, f) = Res(x^n - r, T) / Res(x^n - r, psi).

    With q T = a0 + a1 x + a2 x^2 and U_n = X^n + Y^n for the roots X, Y of
    y^2 + a1 y + a0 a2, the first value is q^2 a0^n - p q U_n + p^2 a2^n.
    With (s_n, t_n) = _power_sums(k, n), the second is
    q^3 - p q^2 s_n + p^2 q t_n - p^3.  All integer: O(log n) big-integer
    products, plus sequence.term's cache filled up to P(2n+1).

    The second value is never 0.  Res(x^n - r, psi) is the product of
    (alpha_j^-n - r) over the roots alpha, beta, gamma of x^3 - 2k x^2 - k x - 1.
    That cubic has no rational root (+-1 are not roots), so it is irreducible
    over Q, and if alpha_j^n = 1/r for one root, every Galois conjugate
    satisfies it too, giving |alpha|^n = |beta|^n.  But alpha > 2k >= 2, and
    beta + gamma = 2k - alpha in (-1, 0), beta gamma = 1/alpha in (0, 1/2) put
    |beta| and |gamma| below 1.  A zero value is raised as ArithmeticError
    rather than divided by.
    """
    c0, c1, c2 = t_integers(k, n)  # checks k and n
    if not is_exact(r):
        raise ValueError(f"exact resultants need int or Fraction r, got {r!r}")
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    a0, a1, a2 = -p * c0, q - p * c1, -p * c2
    res_t = q * q * a0**n - p * q * _lucas_v(a1, a0 * a2, n) + p * p * a2**n
    s_n, t_n = _power_sums(k, n)
    res_psi = q**3 - p * q * q * s_n + p * p * q * t_n - p**3
    if res_psi == 0:
        raise ArithmeticError(f"Res(x^n - r, psi) = 0 at k={k}, n={n}, r={r}")
    return res_t, res_psi, q


def det_exact(k: int, n: int, r) -> Fraction:
    """Exact determinant of the order-n r-circulant of the first n sequence
    terms, for int or Fraction r, from the two resultants of _resultants.

    Multiplying rows 1..n-1 by q clears every denominator, so
    det * q^(n-1) = (q^(n+2) Res_T) / (q^3 Res_psi) is an integer.
    """
    res_t, res_psi, q = _resultants(k, n, r)
    scaled, rem = divmod(res_t, res_psi)
    if rem:
        raise ArithmeticError(f"resultant quotient is not integral at k={k}, n={n}, r={r}")
    return Fraction(scaled, q ** (n - 1))


# ---------------------------------------------------------------------------
# double conversion

def to_complex_list(m: np.ndarray) -> np.ndarray:
    """An object array or a list (a matrix, or the doubled row of
    build_pell_complex) as complex128, the one conversion on the double
    path; each entry e becomes complex(e).  OverflowError if an entry exceeds a double.  The
    name predates the array result and stays because the benchmark's span
    tracer (bench/spans.py) looks it up."""
    a = np.asarray(m, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise OverflowError("matrix entries overflow a double")
    return a

"""Reference computations that only the tests use.

Literal dense operations and entrywise norms of a square numpy array, such
as the object array circulant.build returns, the literal DFT, and the Binet
form of the sequence terms from the characteristic roots: slow, obvious
oracles for the closed forms in the package.  The telescoping product
psi * Psi and the shift identity behind the resultant determinant
(circulant._resultants), and mpmath's own mpc Horner, which
spectral._horner_mpc reproduces on integers.  Also the smallest eigenvalue
modulus, which only the tests read.
"""

import math
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf, mpmathify

from pelltrib.circulant import abs_sq, build, build_pell, is_exact
from pelltrib.errors import DimensionMismatch
from pelltrib.sequence import _GUARD, char_roots, check_int, check_k, term, terms_upto
from pelltrib.spectral import _modulus_extremes


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


def dft_naive(x) -> np.ndarray:
    """Literal O(n^2) forward DFT with the positive exponent of fastops.fft,
    which matches rho_m = r^(1/n) e^(2 pi i m / n)."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    j = np.arange(n, dtype=np.int64)
    # reduce j*m mod n in exact integers so exp never sees a large phase
    phases = np.outer(j, j) % n
    matrix = np.exp(2j * np.pi / n * phases)
    return matrix @ x


def binet_term(k: int, n: int, precision_bits: int = 256) -> mpf:
    """Closed-form n-th term from the three roots; agrees with term() to
    relative 2^(-precision_bits/4)."""
    check_int(n, 0, "n")
    alpha, beta, gamma = char_roots(k, precision_bits).all_roots()
    with mp.workprec(precision_bits + _GUARD):
        # the partial-fraction weights of P(n) = w_a alpha^n + w_b beta^n + w_c gamma^n
        w_a = mpc(alpha) / ((alpha - beta) * (alpha - gamma))
        w_b = beta / ((beta - alpha) * (beta - gamma))
        w_c = gamma / ((gamma - alpha) * (gamma - beta))
        return mpf((w_a * mpc(alpha) ** n + w_b * beta**n + w_c * gamma**n).real)


def min_eigen_magnitude(k: int, n: int, r, precision_bits: int = 256) -> tuple[mpf, int]:
    """Smallest |lambda_m| and its index m over the direct eigenvalues, from
    the scan's comparison of squared moduli on the kernel's integers."""
    min_mag, idx, _ = _modulus_extremes(k, n, r, precision_bits)
    return min_mag, idx


def horner_mpc(k: int, n: int, rhos) -> list:
    """The order-n generator polynomial at each rho by mpc Horner on mpmath
    objects at the working precision: the oracle that spectral._horner_mpc
    reproduces bit for bit on integers."""
    coeffs = [mpmathify(t) for t in terms_upto(k, n - 1)]
    lams = []
    for rho in rhos:
        acc = mpc(0)
        for c in reversed(coeffs):
            acc = acc * rho + c
        lams.append(acc)
    return lams


def psi_times_Psi(k: int, n: int) -> tuple:
    """Exact coefficients, lowest degree first, of the product of the
    reciprocal characteristic polynomial (1 - 2k x - k x^2 - x^3) with the
    generator polynomial of order n.

    The product telescopes: every interior coefficient cancels, leaving
    x - P(n) x^n - (k P(n-1) + P(n-2)) x^{n+1} - P(n-1) x^{n+2}.
    """
    check_int(n, 3, "matrix order n")
    psi = np.array((1, -2 * k, -k, -1), dtype=object)
    return tuple(np.convolve(psi, np.array(terms_upto(k, n - 1), dtype=object)))


def telescoped_form(k: int, n: int) -> tuple:
    """The four-term right-hand side that psi_times_Psi must equal."""
    coeffs = [0] * (n + 3)
    coeffs[1] = 1
    coeffs[n] = -term(k, n)
    coeffs[n + 1] = -(k * term(k, n - 1) + term(k, n - 2))
    coeffs[n + 2] = -term(k, n - 1)
    return tuple(coeffs)


def _as_int_matrix(m: np.ndarray) -> tuple[np.ndarray, int]:
    """Clear a common denominator; returns (int array, scale) with m = array/scale."""
    lcm = math.lcm(*(Fraction(e).denominator for e in m.flat))
    return np.vectorize(lambda e: int(e * lcm), otypes=[object])(m), lcm


def shift_identity_check(k: int, n: int, r) -> bool:
    """Verify that the companion-style circulant Circ_r(1, -2k, -k, -1, 0...)
    times the sequence circulant collapses to a three-term circulant:
    Circ_r(-r P(n), 1 - r k P(n-1) - r P(n-2), -r P(n-1), 0, ...).

    Exact computation; r must be an int or Fraction.
    """
    check_k(k)
    check_int(n, 4, "matrix order n")
    if not is_exact(r):
        raise ValueError("shift_identity_check requires exact rational r")
    shift_gen = (1, -2 * k, -k, -1) + (0,) * (n - 4)
    pn, pn1, pn2 = term(k, n), term(k, n - 1), term(k, n - 2)
    rhs_gen = (-r * pn, 1 - r * k * pn1 - r * pn2, -r * pn1) + (0,) * (n - 3)
    # integer products are far cheaper than Fraction ones
    a, a_scale = _as_int_matrix(build(r, shift_gen))
    b, b_scale = _as_int_matrix(build_pell(k, n, r))
    rhs, rhs_scale = _as_int_matrix(build(r, rhs_gen))
    # (a @ b) / (a_scale b_scale) must equal rhs / rhs_scale
    return bool(np.array_equal(rhs_scale * (a @ b), a_scale * b_scale * rhs))

"""Invertibility of the sequence-generated r-circulants.

Three layers, strongest first:

* invertible_exact: exact if-and-only-if test for the sequence matrices and
  rational r.  det Circ_r = Res(x^n - r, T) / Res(x^n - r, psi) with a
  denominator that never vanishes (circulant._resultants), so the matrix is
  invertible exactly when the integer q^(n+2) Res(x^n - r, T) is nonzero.
  gcd_criterion is the same decision for any exact generator: Circ_r(a) is
  invertible exactly when the generator polynomial is coprime to x^n - r
  (the eigenvalues are the generator polynomial's values on the n-th roots
  of r).  Its Euclid runs on plain lists of Fraction coefficients, costs
  O(n^2) and no report uses it; the benchmark's span tracer still names it.
* sufficient_condition: the real-r sufficient theorem.  For r > 0 the
  guarantee excludes the reciprocal dominant root and the critical magnitude
  (P(n)/P(n-1))^(n/2); for r < 0 it excludes minus the critical magnitude.
  Values inside a 2^-ceil(bits/2) relative band around an excluded point
  return an excluded verdict instead of a guarantee.  The band around the
  reciprocal root is widened to cover alpha^(-n) as well: that is where the
  eigenvalue grid actually collides with the reciprocal root, so refusing to
  certify there is the conservative reading.  The theorem misses singular
  matrices: at k=1, n=3, r=-1/8 the quadratic root -1/2 of T has
  (-1/2)^3 = r, so det = r (1 + 8r) = 0.  For int and Fraction r the exact
  decision overrides the guarantee; for float and mpf r the gap stays.
* counterexample_scan: probes the uncertified critical values r* cell by
  cell, deciding singularity twice over (quadratic-root phase alignment vs.
  smallest eigenvalue magnitude, both from spectral._critical_moduli, the
  second settled at 128 bits where its bound allows) and reporting
  "undetermined" when the two routes disagree.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .circulant import _resultants, is_exact, is_real
from .errors import ZeroR
from .sequence import (_GUARD, char_roots, check_bits, check_int, check_k, check_order, check_r,
                       tolerance_bits)
from .spectral import _critical_magnitude, _critical_moduli, _log10_double

GUARANTEED_INVERTIBLE = "guaranteed_invertible"
EXCLUDED_PARAMETER = "excluded_parameter"


@dataclass(frozen=True)
class InvertibilityVerdict:
    status: str
    reason: str
    witness: object = None
    exact_invertible: bool | None = None  # invertible_exact; None unless r is int or Fraction


# ---------------------------------------------------------------------------
# exact criteria

def invertible_exact(k: int, n: int, r) -> bool:
    """True iff the order-n r-circulant of the first n sequence terms is
    invertible; exact for int or Fraction r, O(log n) big-integer products."""
    return _resultants(k, n, r)[0] != 0


def _strip(coeffs: list) -> list:
    """coeffs without its trailing zeros, in place."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def gcd_criterion(entries, r) -> bool:
    """True iff Circ_r(entries) is invertible; exact rational arithmetic.

    Computes gcd(generator polynomial, x^n - r) by the Euclidean algorithm
    on lists of Fraction coefficients, lowest degree first with trailing
    zeros stripped; invertible exactly when the gcd is a constant.
    """
    if r == 0:
        raise ZeroR("gcd criterion needs r != 0")
    if not is_exact(r) or not all(is_exact(e) for e in entries):
        raise ValueError("gcd_criterion requires exact rational entries and r")
    n = len(entries)
    if n < 1:
        raise ValueError("generator must be nonempty")
    a = [Fraction(-r)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    b = _strip([Fraction(e) for e in entries])
    while b:
        # a mod b: cancel a's top term with a multiple of b until deg a < deg b
        while len(a) >= len(b):
            factor = a.pop() / b[-1]
            shift = len(a) - len(b) + 1
            for i, c in enumerate(b[:-1]):
                a[shift + i] -= factor * c
            _strip(a)
        a, b = b, a
    # a now holds the gcd; a zero generator leaves x^n - r (degree n).
    return len(a) == 1


# ---------------------------------------------------------------------------
# sufficient condition for real r

def _within_band(r_abs: mpf, value: mpf, tol: mpf) -> bool:
    return abs(r_abs - value) <= tol * max(abs(value), abs(r_abs))


def sufficient_condition(k: int, n: int, r, precision_bits: int = 256) -> InvertibilityVerdict:
    """Real-r sufficient invertibility theorem with conservative exclusion
    bands of relative width 2^-tolerance_bits(precision_bits).

    The theorem alone would certify some singular matrices (k=1, n=3,
    r=-1/8 is one).  For int and Fraction r the verdict carries the exact
    decision of invertible_exact, and a guarantee the exact decision
    contradicts becomes excluded_parameter with a reason naming exact
    singularity.  Float and mpf r get the theorem's verdict unchecked.  An r
    that is not circulant.is_real raises ValueError, even mpc(2, 0), and so
    does an infinite or NaN r; r = 0 raises ZeroR.
    """
    check_order(k, n)
    check_bits(precision_bits)
    if not is_real(r):
        raise ValueError("sufficient_condition covers real r only")
    check_r(r)
    verdict = _theorem_verdict(k, n, r, precision_bits)
    if not is_exact(r):
        return verdict
    invertible = invertible_exact(k, n, r)
    if verdict.status == GUARANTEED_INVERTIBLE and not invertible:
        verdict = InvertibilityVerdict(
            status=EXCLUDED_PARAMETER,
            reason="exactly singular: Res(x^n - r, T) = 0 although the theorem certifies r",
        )
    return dataclasses.replace(verdict, exact_invertible=invertible)


def _theorem_verdict(k: int, n: int, r, precision_bits: int) -> InvertibilityVerdict:
    with mp.workprec(precision_bits + _GUARD):
        r_mp = mpmath.mpmathify(r)
        tol = mpf(2) ** -tolerance_bits(precision_bits)
        r_star = _critical_magnitude(k, n)
        alpha = char_roots(k, precision_bits).alpha
        if r_mp > 0:
            excluded = (
                (1 / alpha, "reciprocal dominant root 1/alpha"),
                (alpha ** (-n), "alpha^(-n), where the root grid meets 1/alpha"),
                (r_star, "critical magnitude (P(n)/P(n-1))^(n/2)"),
            )
            away = "positive r away from all excluded values"
        else:
            excluded = ((-r_star, "minus the critical magnitude"),)
            away = "negative r away from the excluded value"
        for value, label in excluded:
            if _within_band(r_mp, value, tol):
                return InvertibilityVerdict(
                    status=EXCLUDED_PARAMETER,
                    reason=f"r within 2^-{tolerance_bits(precision_bits)} band of {label}",
                    witness=value,
                )
        return InvertibilityVerdict(status=GUARANTEED_INVERTIBLE, reason=away)


# ---------------------------------------------------------------------------
# critical-value scan

@dataclass(frozen=True)
class ScanCell:
    k: int
    n: int
    sign: int
    r_star_log10: float
    min_abs_lambda_log10: float
    closed_residual_log10: float
    closed_singular: bool | None
    eigen_singular: bool | None
    verdict: str


def _scan_cell(k: int, n: int, sign: int, precision_bits: int) -> ScanCell:
    with mp.workprec(precision_bits + _GUARD):
        tol = mpf(2) ** -tolerance_bits(precision_bits)
        r_star, closed_res, min_log10, eigen_singular = _critical_moduli(k, n, sign, precision_bits, tol)
        closed_singular = bool(closed_res <= tol)
        if closed_singular == eigen_singular:
            verdict = "singular" if closed_singular else "invertible"
        else:
            verdict = "undetermined"
        return ScanCell(
            k=k, n=n, sign=sign,
            r_star_log10=_log10_double(abs(r_star)),
            min_abs_lambda_log10=min_log10,
            closed_residual_log10=_log10_double(closed_res) if closed_res > 0 else float("-inf"),
            closed_singular=closed_singular,
            eigen_singular=eigen_singular,
            verdict=verdict,
        )


def counterexample_scan(k_values, n_values, sign: int = 1,
                        precision_bits: int = 512) -> list[ScanCell]:
    """Probe the uncertified critical value r* = sign * (P(n)/P(n-1))^(n/2)
    for every (k, n) cell.  Numeric failure in a cell is reported as an
    "undetermined" row, never raised."""
    if not isinstance(sign, int) or isinstance(sign, bool) or sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    check_bits(precision_bits)
    cells = []
    for k in k_values:
        check_k(k)
        for n in n_values:
            check_int(n, 2, "matrix order n")
            try:
                cells.append(_scan_cell(k, n, sign, precision_bits))
            except ArithmeticError:
                cells.append(ScanCell(
                    k=k, n=n, sign=sign,
                    r_star_log10=float("nan"),
                    min_abs_lambda_log10=float("nan"),
                    closed_residual_log10=float("nan"),
                    closed_singular=None, eigen_singular=None,
                    verdict="undetermined",
                ))
    return cells

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
* sufficient_condition: the whole invert verdict for any r, built on the
  real-r sufficient theorem; an r that is not real is checked like any
  other and then gets the not_covered verdict.  For r > 0 the
  guarantee excludes the reciprocal dominant root and the critical magnitude
  (P(n)/P(n-1))^(n/2); for r < 0 it excludes minus the critical magnitude.
  Values inside a 2^-ceil(bits/2) relative band around an excluded point
  return an excluded verdict instead of a guarantee.  The band around the
  reciprocal root is widened to cover alpha^(-n) as well: that is where the
  eigenvalue grid actually collides with the reciprocal root, so refusing to
  certify there is the conservative reading.  The theorem misses singular
  matrices: at k=1, n=3, r=-1/8 the quadratic root -1/2 of T has
  (-1/2)^3 = r, so det = r (1 + 8r) = 0.  For int and Fraction r the exact
  decision (gcd_invertible: Res(x^n - r, f) != 0 exactly when
  gcd(f, x^n - r) = 1) overrides the guarantee; for float and mpf r the
  gap stays.
* counterexample_scan: probes the uncertified critical values r* cell by
  cell.  spectral._critical_moduli decides every number of a cell: the
  logarithms and both singularity signals (quadratic-root phase alignment
  and smallest eigenvalue magnitude, the second settled at 128 bits where
  its bound allows).  The scan keeps only the verdict, "undetermined" when
  the two signals disagree, and the error row of a cell that raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .circulant import _resultants, is_exact, is_real
from .errors import ZeroR
from .sequence import (_GUARD, char_roots, check_bits, check_int, check_k, check_order, check_r,
                       tolerance_bits)
from .spectral import _critical_magnitude, _critical_moduli

GUARANTEED_INVERTIBLE = "guaranteed_invertible"
EXCLUDED_PARAMETER = "excluded_parameter"
NOT_COVERED = "not_covered"


@dataclass(frozen=True)
class InvertibilityVerdict:
    status: str
    reason: str
    witness: object = None
    gcd_invertible: bool | None = None  # invertible_exact; None unless r is int or Fraction


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
# sufficient condition: the invert verdict

def sufficient_condition(k: int, n: int, r, precision_bits: int = 256) -> InvertibilityVerdict:
    """The invert report for any r: the real-r sufficient invertibility
    theorem with conservative exclusion bands of relative width
    2^-tolerance_bits(precision_bits), and the exact decision.

    k, n, precision_bits and r are checked first, for every r: r = 0 raises
    ZeroR and an infinite or NaN r ValueError.  An r that is not
    circulant.is_real, even mpc(2, 0), then gets the not_covered verdict.
    The theorem alone would certify some singular matrices (k=1, n=3,
    r=-1/8 is one).  For int and Fraction r the verdict carries the exact
    decision of invertible_exact as gcd_invertible, and a guarantee the
    exact decision contradicts becomes excluded_parameter with a reason
    naming exact singularity.  Float and mpf r get the theorem's verdict
    unchecked, with gcd_invertible None.
    """
    check_order(k, n)
    check_bits(precision_bits)
    check_r(r)
    if not is_real(r):
        return InvertibilityVerdict(NOT_COVERED, "sufficient condition applies to real r only")
    bits = tolerance_bits(precision_bits)
    with mp.workprec(precision_bits + _GUARD):
        r_mp = mpmath.mpmathify(r)
        tol = mpf(2) ** -bits
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
        status, reason, witness = GUARANTEED_INVERTIBLE, away, None
        for value, label in excluded:
            if abs(r_mp - value) <= tol * max(abs(value), abs(r_mp)):
                status, witness = EXCLUDED_PARAMETER, value
                reason = f"r within 2^-{bits} band of {label}"
                break
    gcd_invertible = invertible_exact(k, n, r) if is_exact(r) else None
    if status == GUARANTEED_INVERTIBLE and gcd_invertible is False:
        status = EXCLUDED_PARAMETER
        reason = "exactly singular: Res(x^n - r, T) = 0 although the theorem certifies r"
    return InvertibilityVerdict(status, reason, witness, gcd_invertible)


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


# a cell's verdict from (closed_singular, eigen_singular); the two signals
# disagree, or a cell raised, for every other pair
_VERDICTS = {(True, True): "singular", (False, False): "invertible"}


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
                numbers = _critical_moduli(k, n, sign, precision_bits)
            except ArithmeticError:
                numbers = (float("nan"),) * 3 + (None, None)
            cells.append(ScanCell(k, n, sign, *numbers, _VERDICTS.get(numbers[3:], "undetermined")))
    return cells

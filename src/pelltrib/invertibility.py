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
  Values inside a 2^(-bits/2) relative band around an excluded point return
  an excluded verdict instead of a guarantee.  The band around the
  reciprocal root is widened to cover alpha^(-n) as well: that is where the
  eigenvalue grid actually collides with the reciprocal root, so refusing to
  certify there is the conservative reading.  The theorem misses singular
  matrices: at k=1, n=3, r=-1/8 the quadratic root -1/2 of T has
  (-1/2)^3 = r, so det = r (1 + 8r) = 0.  For int and Fraction r the exact
  decision overrides the guarantee; for float and mpf r the gap stays.
* counterexample_scan: probes the uncertified critical values r* cell by
  cell at high precision, deciding singularity twice over (quadratic-root
  phase alignment vs. smallest eigenvalue magnitude) and reporting
  "undetermined" when the two routes disagree.  r* = +-(p/q)^(n/2) with
  p = P(n) and q = P(n-1), so the grid's principal root is sqrt(p/q), times
  exp(pi i / n) for r* < 0: spectral._fixed_grid takes it from math.isqrt
  and one expjpi, and its points are the roots of the exact r*.
  spectral._modulus_extremes evaluates every head point of the grid in
  doubles first, keeps the points that a proved error bound leaves as
  candidates for the smallest and the largest modulus (usually one or
  two), and runs the fixed-point Horner on those only, comparing their
  moduli squared on the kernel's integers; a cell takes two square roots,
  on math.isqrt, whatever n is.  r* is real, so the grid's other half
  mirrors the head, and complex quadratic roots are an exact conjugate
  pair: the closed residual takes one fixed-point power per pair.  The
  three logarithms are taken at 120 bits, with the full-precision one as
  the fallback where the double could depend on the difference.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_int, mpf_div, mpf_log, round_nearest, to_float

from .circulant import _resultants, is_exact, is_real
from .errors import ZeroR
from .sequence import _GUARD, char_roots, check_bits, check_int, check_k, term
from .spectral import (_from_fixed, _modulus, _modulus_extremes, _pow_fixed, _quadratic_roots,
                       _r_to_mp, _to_fixed)

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

def _critical_magnitude(k: int, n: int) -> mpf:
    # (P(n)/P(n-1))^(n/2), always a positive real
    ratio = mpf(term(k, n)) / term(k, n - 1)
    return ratio ** (mpf(n) / 2)


def _within_band(r_abs: mpf, value: mpf, tol: mpf) -> bool:
    return abs(r_abs - value) <= tol * max(abs(value), abs(r_abs))


def sufficient_condition(k: int, n: int, r, precision_bits: int = 256) -> InvertibilityVerdict:
    """Real-r sufficient invertibility theorem with conservative exclusion
    bands of relative width 2^(-precision_bits/2).

    The theorem alone would certify some singular matrices (k=1, n=3,
    r=-1/8 is one).  For int and Fraction r the verdict carries the exact
    decision of invertible_exact, and a guarantee the exact decision
    contradicts becomes excluded_parameter with a reason naming exact
    singularity.  Float and mpf r get the theorem's verdict unchecked.  An r
    that is not circulant.is_real raises ValueError, even mpc(2, 0).
    """
    check_k(k)
    check_bits(precision_bits)
    check_int(n, 2, "matrix order n")
    if not is_real(r):
        raise ValueError("sufficient_condition covers real r only")
    if r == 0:
        raise ZeroR("r must be nonzero")
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
        r_mp = _r_to_mp(r)
        tol = mpf(2) ** (-precision_bits // 2)
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
                    reason=f"r within 2^-{precision_bits // 2} band of {label}",
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


@cache
def _ln10() -> tuple:
    return mpf_log(from_int(10), 120, round_nearest)


def _log10_double(x: mpf) -> float:
    """float(mpmath.log10(x)) for a positive mpf x at the working
    precision, which is at least 96 bits, mostly from a 120-bit logarithm.

    Proof: L~ = mpf_log(x) / ln 10 at 120 bits, each rounded to nearest,
    is within 2^-116 |L| of L = log10(x), and mpmath's log10 at p >= 96
    bits, which divides two logarithms taken at p + 20 bits, within 2^-93
    |L|.  Where L~ lies more than 2^-80 |L~| from every midpoint between
    two doubles, L lies strictly between the same two midpoints, and so do
    both values: both round to the same double.  Otherwise, and outside the
    normal double range, the full-precision value is returned."""
    log = mpf_log(x._mpf_, 120, round_nearest)
    if not log[1]:
        return 0.0  # log(1) is exactly zero
    _, man, exp, bc = value = mpf_div(log, _ln10(), 120, round_nearest)
    # the 67 bits below a double's 53, measured from the midpoint 2^66
    tail = ((man << (120 - bc)) & ((1 << 67) - 1)) - (1 << 66)
    if -1021 <= exp + bc < 1024 and abs(tail) >= 1 << 40:
        return to_float(value, rnd=round_nearest)
    return float(mpmath.log10(x))


def _scan_cell(k: int, n: int, sign: int, precision_bits: int) -> ScanCell:
    with mp.workprec(precision_bits + _GUARD):
        tol = mpf(2) ** (-precision_bits // 2)
        r_star = sign * _critical_magnitude(k, n)
        r1, r2 = _quadratic_roots(k, n, r_star)
        # r* is real: complex roots are an exact conjugate pair, one |r^n - r*|.
        # z^n in fixed point errs by less than 3 n max(1, |z|)^n 2^-frac
        # (_pow_fixed), z and r* by 2^-frac per part when they are scaled.
        pair = (r1,) if r2 == r1.conjugate() else (r1, r2)
        frac = precision_bits + _GUARD + 24
        rx, _ = _to_fixed(r_star, frac)
        powers = (_pow_fixed(*_to_fixed(z, frac), n, frac) for z in pair)
        closed_res = min(_modulus(_from_fixed(x - rx, y, frac)) for x, y in powers) / abs(r_star)
        closed_singular = bool(closed_res <= tol)
        root_sq = Fraction(term(k, n), term(k, n - 1))
        min_mag, _, max_mag = _modulus_extremes(k, n, r_star, precision_bits, root_sq)
        eigen_singular = bool(min_mag <= tol * max(mpf(1), max_mag))
        if closed_singular == eigen_singular:
            verdict = "singular" if closed_singular else "invertible"
        else:
            verdict = "undetermined"
        return ScanCell(
            k=k, n=n, sign=sign,
            r_star_log10=_log10_double(abs(r_star)),
            min_abs_lambda_log10=_log10_double(min_mag) if min_mag > 0 else float("-inf"),
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
    if sign not in (1, -1):
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

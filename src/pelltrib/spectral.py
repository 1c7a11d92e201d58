"""Norms, spectral bounds, eigenvalues and closed-form determinants of the
sequence-generated r-circulants.

Closed norm identities (sums taken over the generator indices 0..n-1, so the
sum arguments below are n-1):

    ||M||_F^2 = n * s2 + (|r|^2 - 1) * w2
    ||M||_1   = n * s1 + (|r| - 1) * w1        (entrywise 1-norm)

and the spectral sandwich

    sqrt(s2 + (|r|^2 - 1) / n * w2)  <=  sigma_max  <=  max(|r|, 1) * s1.

Eigenvalues live on the grid rho_m = r^(1/n) * omega^m (principal root,
omega = exp(2 pi i / n)); the direct path evaluates the generator polynomial
by Horner on a fixed-point grid built from one root and one omega, the
closed path uses a rational expression in rho_m with three degenerate
branches when rho_m collides with a reciprocal characteristic root.
Everything high-precision runs under mpmath workprec; everything
double-precision runs on numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul

import numpy as np
import mpmath
from mpmath import mp, mpf, mpc
from mpmath.libmp import (MPZ, from_int, from_man_exp, fzero, mpf_cos_sin_pi, mpf_div, mpf_log,
                          mpf_pow_int, pi_fixed, round_down, round_nearest, to_fixed, to_float)
from mpmath.libmp.libelefun import cos_sin_basecase

from .circulant import abs_sq, build_pell_complex, is_exact, is_real
from .errors import DegenerateCase
from .sequence import (_GUARD, char_roots, check_bits, check_int, check_k, check_order, check_r,
                       recip_poly, t_integers, term, terms_upto, tolerance_bits)
from . import sums


# ---------------------------------------------------------------------------
# closed norms and bounds

def frobenius_sq_closed(k: int, n: int, r):
    """Squared Frobenius norm; exact (int or Fraction) for exact rational r."""
    check_order(k, n)
    return n * sums.s2_closed(k, n - 1) + (abs_sq(r) - 1) * sums.w2_closed(k, n - 1)


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise OverflowError(f"{what} overflows a double")
    return value


def frobenius_closed(k: int, n: int, r) -> float:
    """Frobenius norm as a double; OverflowError when it does not fit one."""
    return _finite(math.sqrt(frobenius_sq_closed(k, n, r)), "Frobenius norm")


def l1_closed(k: int, n: int, r):
    """Entrywise 1-norm; exact for exact rational r."""
    check_order(k, n)
    return n * sums.s1_closed(k, n - 1) + (abs(r) - 1) * sums.w1_closed(k, n - 1)


def spectral_bounds(k: int, n: int, r) -> tuple[float, float]:
    """(lower, upper) enclosure of the largest singular value, as doubles;
    OverflowError when either does not fit one."""
    check_order(k, n)
    inner = sums.s2_closed(k, n - 1) + Fraction(1, n) * (abs_sq(r) - 1) * sums.w2_closed(k, n - 1) \
        if is_exact(r) else \
        sums.s2_closed(k, n - 1) + (abs_sq(r) - 1) / n * sums.w2_closed(k, n - 1)
    lower = _finite(math.sqrt(inner), "spectral lower bound")
    upper = _finite(float(max(abs(r), 1) * sums.s1_closed(k, n - 1)), "spectral upper bound")
    return lower, upper


# ---------------------------------------------------------------------------
# numeric reference norms

def spectral_numeric(a: np.ndarray) -> float:
    """Largest singular value of a complex128 matrix, from LAPACK."""
    return float(np.linalg.norm(a, 2))


def row_col_length_norms(a: np.ndarray) -> tuple[float, float]:
    """Largest Euclidean row length and column length of a complex128 matrix."""
    mag = np.abs(a)
    sq = mag * mag
    return (
        float(np.sqrt(sq.sum(axis=1).max())),
        float(np.sqrt(sq.sum(axis=0).max())),
    )


@dataclass(frozen=True)
class NormReport:
    lower: float
    upper: float
    sigma: float
    frobenius: float
    frobenius_over_sqrt_n: float
    row_length_norm: float
    col_length_norm: float


def norm_report(k: int, n: int, r) -> NormReport:
    """The bounds report's entries in its order, as doubles: the enclosure
    lower <= sigma <= upper of the largest singular value sigma (from
    LAPACK), the Frobenius norm and its quotient by sqrt(n), and the largest
    row and column lengths."""
    lower, upper = spectral_bounds(k, n, r)
    a = build_pell_complex(k, n, r)
    r1, c1 = row_col_length_norms(a)
    frobenius = frobenius_closed(k, n, r)
    return NormReport(lower=lower, upper=upper, sigma=spectral_numeric(a),
                      frobenius=frobenius, frobenius_over_sqrt_n=frobenius / n ** 0.5,
                      row_length_norm=r1, col_length_norm=c1)


# ---------------------------------------------------------------------------
# fixed-point Gaussian-integer kernel
#
# eigenvalues_direct, eigenpair_residuals and _critical_moduli, which
# answers the invertibility scan, run on complex numbers held as integer
# pairs scaled by 2^F.  eigenvalues_direct and _critical_moduli take the
# generator polynomial from _horner_fixed, eigenpair_residuals its
# telescoped closed form.  These pairs and mpmath.libmp stay in this
# module: other modules get mpf and mpc values.  _to_fixed rounds each part
# down, and every product of two pairs is shifted back by F bits, which
# rounds down again, so each conversion and each product errs by less than
# 2^-F per part and sqrt(2) 2^-F in modulus; sums of pairs are exact.
# _from_fixed rounds the result once to the working precision, and
# _modulus takes its absolute value.  The bit-exact ports of mpmath in
# this module (eigen_grid's unit roots and root product, the generic
# branch of eigenvalues_closed, _horner_mpc, _modulus, _quadratic_roots
# and _critical_magnitude) keep no rounding code of their own: each port
# of mpf_add calls _add_round, with mpmath's rounding mode as an argument,
# and each port of mpf_sqrt calls _sqrt_raw, on math.isqrt; quotients
# (eigen_grid's 2m/n, _cdiv's two) are mpmath's own mpf_div on raw
# tuples, and _cos_sin_pi rounds with mpmath's own from_man_exp.  _cmul,
# _cadd and _cdiv are mpc_mul, mpc_add or mpc_sub and mpc_div on complex
# numbers held as two _signed pairs (signed odd mantissa, exponent);
# _raw_mpf turns a rounded pair into mpmath's raw tuple, and _from_fixed's
# rounding is _add_round's too.

def _to_fixed(z, frac_bits: int) -> tuple[int, int]:
    """(re, im) of an mpc or mpf as integers scaled by 2^frac_bits, each rounded down."""
    return to_fixed(z.real._mpf_, frac_bits), to_fixed(z.imag._mpf_, frac_bits)


def _from_fixed(x: int, y: int, frac_bits: int) -> mpc:
    """(x + i y) 2^-frac_bits as an mpc, each part rounded once to the
    working precision."""
    prec = mp.prec
    return _to_mpc((_add_round(x, -frac_bits, 0, 0, prec), _add_round(y, -frac_bits, 0, 0, prec)))


def _sqrt_raw(man: int, exp: int, prec: int) -> tuple:
    """mpf_sqrt(x, prec, round_nearest) for x = man 2^exp, man > 0 and odd
    (mpmath's normal form): its sqrtrem branch, bit for bit, with the C
    math.isqrt in place of mpmath's pure-Python square root; a raw mpf."""
    if exp & 1:
        man <<= 1
        exp -= 1
    elif man == 1:
        return 0, 1, exp // 2, 1
    shift = max(4, 2 * prec - man.bit_length() + 4)
    shift += shift & 1
    man <<= shift
    root = math.isqrt(man)
    if root * root != man:
        root = (root << 1) + 1
        shift += 2
    return _raw_mpf(*_add_round(root, (exp - shift) // 2, 0, 0, prec))


def _modulus(z: mpc) -> mpf:
    """abs(z) for an mpc z, bit for bit, at the working precision under
    round-nearest, built as mpmath builds mpf_hypot: _add_round adds the
    two exact squares at prec + 4 bits with round_down (mpf_add's default
    round_fast, its far-exponent shortcut included), and _sqrt_raw takes
    the square root of that sum.  A zero or special part goes to mpmath
    itself."""
    (_, xm, xe, _), (_, ym, ye, _) = z._mpc_
    if not (xm and ym):
        return abs(z)
    prec = mp.prec
    m, e = _add_round(xm * xm, 2 * xe, ym * ym, 2 * ye, prec + 4, round_down)
    return mp.make_mpf(_sqrt_raw(m, e, prec))


def _horner_fixed(coeffs, x: int, y: int, frac: int) -> tuple[int, int]:
    """The polynomial with coefficients coeffs (highest degree first, each
    an integer scaled by 2^frac) at (x + i y) 2^-frac, by Horner with three
    products per step; the value as an integer pair scaled by 2^frac.  Each
    of the len(coeffs) - 1 products rounds down once (see above)."""
    s, d = x + y, y - x
    top, *rest = coeffs
    ax, ay = top, 0
    for a in rest:
        # (ax + i ay)(x + i y) from three products
        t = x * (ax + ay)
        ax, ay = ((t - ay * s) >> frac) + a, (t + ax * d) >> frac
    return ax, ay


# ---------------------------------------------------------------------------
# eigenvalue grid

@dataclass(frozen=True)
class EigenGrid:
    """The n-th roots of r: rho_m = rho_0 * omega^m with rho_0 the principal
    n-th root of r."""

    n: int
    r: object
    precision_bits: int
    rhos: tuple


@dataclass(frozen=True)
class EigenSpectrum:
    k: int
    grid: EigenGrid
    lambdas: tuple
    branches: tuple


def _check_grid(n: int, r, precision_bits: int) -> None:
    check_int(n, 2, "matrix order n")
    check_bits(precision_bits)
    check_r(r)


def _principal_root(n: int, r_mp) -> mpc:
    """The principal n-th root of r_mp at the working precision."""
    if isinstance(r_mp, mpf) and r_mp > 0:
        return mpc(r_mp ** (mpf(1) / n))
    return mpmath.exp(mpmath.log(mpc(r_mp)) / n)


def eigen_grid(n: int, r, precision_bits: int = 256) -> EigenGrid:
    """The grid at bits + _GUARD bits, each rho_m bit for bit
    rho_0 * mpmath.expjpi(mpf(2 * m) / n) under round-nearest, as mpmath
    1.3 computes it with its pure-Python backend, with rho_0 the principal
    root of _principal_root: x_m = 2m/n from mpf_div, (cos, sin)(pi x_m)
    from _unit_grid, and the product from _cmul.  eigenvalues_closed and
    determinant_closed evaluate on it, so the eig and det reports depend on
    these exact bytes."""
    _check_grid(n, r, precision_bits)
    with mp.workprec(precision_bits + _GUARD):
        prec = mp.prec
        root = _principal_root(n, mpmath.mpmathify(r))
        z = tuple(map(_signed, root._mpc_))
        rhos = tuple(_to_mpc(_cmul(z, unit, prec)) for unit in _unit_grid(n, prec))
    return EigenGrid(n=n, r=r, precision_bits=precision_bits, rhos=rhos)


def _round_clear(v: int, margin: int, frac: int, prec: int) -> tuple[int, int] | None:
    """v 2^-frac rounded to prec bits under round-nearest, as _add_round
    returns it, when every real strictly within margin 2^-frac of it rounds
    to the same number; None otherwise.  All of them lie in one binade and
    strictly between the same two midpoints of that binade's prec-bit
    numbers, so none is a tie either."""
    a = -v if v < 0 else v
    cut = a.bit_length() - prec
    low, high = a - margin, a + margin
    if cut < 2 or low.bit_length() != high.bit_length():
        return None
    half = 1 << (cut - 1)
    if (low + half) >> cut != (high + half) >> cut:
        return None
    return _add_round(v, -frac, 0, 0, prec)


def _pi_reduced(x: tuple, prec: int) -> tuple[int, int, int]:
    """(near, rest, wp) for a raw mpf 0 < x < 2 with exponent below -1, as
    the pi branch of mpmath 1.3's mpf_cos_sin takes them with its
    pure-Python bitcount, which counts 0 bits in a negative integer:
    x = near / 2 + rest 2^exp(x) with |rest 2^exp(x)| <= 1/4, and the
    working precision wp,
    prec + 10 - mag(rest 2^exp(x)), or prec + 10 - exp(x) when rest is
    negative."""
    _, man, exp, _ = x
    near = ((man >> (-exp - 2)) + 1) >> 1
    rest = man - (near << (-exp - 1))
    return near, rest, prec + 10 - exp - max(rest, 0).bit_length()


def _cos_sin_pi(x: tuple, prec: int) -> tuple:
    """mpf_cos_sin_pi(x, prec, round_nearest) for x as _pi_reduced takes
    it, as mpmath 1.3's pi branch computes it with its pure-Python
    bitcount: libelefun's own cos_sin_basecase at the working precision wp
    of _pi_reduced and its own from_man_exp.  x has at most prec bits and
    the remainder is below 1/4, so exp(x) + wp >= 10 and the shift is
    exact.  As a pair of _signed pairs."""
    near, rest, wp = _pi_reduced(x, prec)
    c, s = cos_sin_basecase((rest << x[2] + wp) * pi_fixed(wp) >> wp, wp)
    c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[near & 3]
    return tuple(_signed(from_man_exp(v, -wp, prec, round_nearest)) for v in (c, s))


def _unit_grid(n: int, prec: int):
    """(cos, sin)(pi x_m) for m = 0 .. n - 1, x_m = mpf_div(2m, n) at prec
    bits, each bit for bit mpf_cos_sin_pi(x_m, prec, round_nearest) as
    mpmath 1.3 computes it with its pure-Python backend, as pairs of
    _signed pairs.

    One rotation.  With W = prec + 40 + bit_length(n) and u = 2^-W,
    libelefun's cos_sin_basecase gives e = exp(pi i / n) at W + 20 bits
    (0 < pi / n < pi / 2 for n > 2), omega = exp(2 pi i / n) is e^2 floored
    to W bits (-1 at n = 2), and p_m ~ omega^m comes from sequential
    products on integers scaled by 2^W, each part floored.  x_m differs
    from 2m/n by delta_m, computed exactly and floored to W bits, and the
    point is p_m (1 + i theta_m), theta_m = pi delta_m with
    pi = pi_fixed(W), each product floored.  Points whose x_m has an exponent of -1 or more
    (m = 0, n/4, n/2, 3n/4) take mpmath's exact special values.

    Its error, per part, is below E_m = (3m + 8) u + (pi delta_m)^2 / 2.
    omega errs by less than 1.415 u in modulus: the parts of e lie within
    2^-(W+13) of the exact ones (the assumption below and the floor of
    pi / n), so e^2 within 2^-(W+12), and the floor to W bits adds less
    than u per part.  A product adds sqrt(2) u and the error of omega, so
    |p_m - omega^m| < 2.84 m u.  |delta_m| <= 2^-prec, as x_m < 2 is
    rounded to nearest.  delta_m's floor errs by less than u, which pi
    carries to 3.15 u; pi_fixed's floor, times delta_m, and the product's
    floor add less than 1.01 u, so theta_m errs by less than 4.2 u.  The
    two floored products add sqrt(2) u, and e^(i pi delta_m) - 1 -
    i pi delta_m, the dropped term, is below (pi delta_m)^2 / 2
    < 2^(3 - 2 prec).

    The Ziv test.  mpmath takes the nearest half-integer off x_m and
    computes (cos, sin) in fixed point at wp_m bits, wp_m as _pi_reduced
    gives it, then rounds each part to nearest at prec bits.  Each part is
    kept when _round_clear decides it with the margin
    E_m + 64 2^-wp_m: then mpmath's fixed-point value, which lies within
    that margin of this one, rounds to the same number.  Otherwise both
    parts come from _cos_sin_pi.  The values are at least
    sin(pi / 2n) > 2^-bit_length(n) in size away from the special points,
    so W leaves about 38 bits for the test, and about 3% of the points fall
    back (3.0% on n = 2..400 at 64, 256 and 512 bits).

    The one assumption: mpmath's fixed-point cos and sin at wp bits,
    cos_sin_basecase's and mpf_cos_sin's after its reduction of x_m, lie
    within 64 2^-wp of the exact values.  The largest errors seen were
    13.1 2^-wp over the 24 384 points x_m of n = 3..129 at 96, 288 and 544
    bits, and 11.1 2^-(W+20) for e on the same n and precisions.
    Under it the kept parts do not depend on mpmath's backend; the fallback
    points follow libelefun's cos_sin_basecase, whose table precision and
    integer square root differ between the pure-Python and gmpy backends."""
    wide = prec + 40 + n.bit_length()
    if n == 2:
        ox, oy = -1 << wide, 0
    else:  # omega = e^2, e = exp(pi i / n) from cos_sin_basecase at W + 20 bits
        ex, ey = cos_sin_basecase(pi_fixed(wide + 20) // n, wide + 20)
        ox, oy = (ex * ex - ey * ey) >> wide + 40, (ex * ey) >> wide + 39
    pi, den = pi_fixed(wide), from_int(n)
    floor = 9 + (1 << max(0, wide + 3 - 2 * prec))  # the constant part of E_m, in units of u, plus 1
    cx, cy = 1 << wide, 0
    for m in range(n):
        x = mpf_div(from_int(2 * m), den, prec, round_nearest)  # mpf(2 * m) / n
        _, man, exp, _ = x
        if exp >= -1 or not man:
            yield tuple(map(_signed, mpf_cos_sin_pi(x, prec, round_nearest)))
        else:
            wp = _pi_reduced(x, prec)[2]
            t = (((man * n << exp + wide) - (2 * m << wide)) // n) * pi >> wide  # pi delta_m
            margin = 3 * m + floor + _shifted(64, wide - wp)
            c = _round_clear(cx - (cy * t >> wide), margin, wide, prec)
            s = _round_clear(cy + (cx * t >> wide), margin, wide, prec)
            yield (c, s) if c and s else _cos_sin_pi(x, prec)
        cx, cy = (cx * ox - cy * oy) >> wide, (cx * oy + cy * ox) >> wide


def _conjugate_half(n: int, r) -> tuple[int, int]:
    """(h, s): rho_0 .. rho_(h-1) are the grid points to compute, and
    rho_m = conj rho_(s-m) for h <= m < n.

    For real r (circulant.is_real) the n-th roots of r are closed under
    conjugation: with r > 0, rho_m = |r|^(1/n) omega^m and s = n, so
    h = floor(n/2) + 1; with r < 0, rho_m = |r|^(1/n) exp((2m + 1) pi i / n)
    and s = n - 1, so h = ceil(n/2).  Complex-typed r, even with a zero
    imaginary part, gives h = s = n: every point."""
    if not is_real(r):
        return n, n
    s = n if r > 0 else n - 1
    return s // 2 + 1, s


def _closed_root(n: int, negative: bool, precision_bits: int,
                 root_sq: Fraction) -> tuple[int, int, tuple, tuple]:
    """(W, size, root, e): the principal n-th root of +-root_sq^(n/2),
    minus when negative, and e = exp(pi i / n) as integer pairs scaled by
    2^W, and size = mag(root).  The root is R = sqrt(root_sq), or R e when
    negative; R comes from math.isqrt, rounded down, and e from one mpmath
    expjpi.  When negative, size is 1 + the larger part's mag, mpmath's mag
    of a complex number with two nonzero parts, as the root of
    _principal_root has even at n = 2.

    W = bits + _GUARD + 24 + bit_length(n) + 2 |mag(R)|.  size lies in
    [mag(R), mag(R) + 2], so W >= G + max(0, mag(R)) + 4 for the G of
    _fixed_grid.  R errs by less than 2^-W; each part of e by less than
    1.07 2^-W (the floor, and mpmath's rounding at W + 4 bits); so the root
    errs by less than (2.5 + 1.52 R) 2^-W <= 0.26 2^-G."""
    p, q = root_sq.numerator, root_sq.denominator
    e = p.bit_length() - q.bit_length()
    e -= (p << max(0, -e)) < (q << max(0, e))  # floor(log2 root_sq)
    mag_mod = e // 2 + 1  # mag(R)
    wide = precision_bits + _GUARD + 24 + n.bit_length() + 2 * abs(mag_mod)
    modulus = math.isqrt((p << 2 * wide) // q)
    with mp.workprec(wide + 4):
        ex, ey = _to_fixed(mpmath.expjpi(mpf(1) / n), wide)
    if not negative:
        return wide, modulus.bit_length() - wide, (modulus, 0), (ex, ey)
    x, y = (modulus * ex) >> wide, (modulus * ey) >> wide
    return wide, 1 + max(x.bit_length(), y.bit_length()) - wide, (x, y), (ex, ey)


def _fixed_grid(n: int, r, precision_bits: int,
                root_sq: Fraction | None = None) -> tuple[int, list, int]:
    """(F, head, s): the n-th roots rho_m of r for m < h as Gaussian
    integers scaled by 2^F, F = bits + _GUARD + 8 + max(0, 3 - mag(root)),
    with root the principal n-th root of r, and (h, s) = _conjugate_half:
    rho_m = conj rho_(s-m) for h <= m < n, so the head is every point for
    complex r and about n/2 of them for real r.

    Without root_sq, mpmath computes root and omega = exp(2 pi i / n) once
    each, exact to 2^-G in absolute terms,
    G = F + bit_length(n) + 4 + max(0, mag(root)); the root's working
    precision also covers the factor |log(r) / n| by which exp(log(r) / n)
    magnifies rounding.

    root_sq, an exact Fraction, is for real r near +-root_sq^(n/2), such as
    the scan's r* = +-(P(n)/P(n-1))^(n/2): the grid then holds the n-th
    roots of the exact +-root_sq^(n/2), with the sign of r, not of r itself.
    The scan passes r* rounded to bits + _GUARD bits, about 2^-540 away
    (relative) at 512 bits, which moves the roots by more than the bound
    below.  The root comes from _closed_root, within 0.26 2^-G before its
    pair is shifted down to G bits, so within 1.7 2^-G after; omega is the
    square of e = exp(pi i / n), within 4.5 2^-G, so one expjpi serves both.

    The points are rho_{m+1} = rho_m * omega, products on integers scaled
    by 2^G, each shifted down to F bits.  The callers take the other
    points, where they need them, as the exact conjugates of their mirror
    points' integer pairs.

    Error: each point lies within 2^(1-F) of the exact rho_m.  The G-bit
    products drift by less than 5 n max(1, |root|) 2^-G <= 2^-(F+1) over
    the grid; on the closed route each of the at most n/2 steps adds less
    than (4.5 |root| + 1.42) 2^-G to the root's 1.7 2^-G.  The shift to F
    bits adds less than sqrt(2) 2^-F.  A mirrored point would err by
    exactly as much as its mirror, because the exact rho_m are conjugates
    of each other too.
    """
    if root_sq is None:
        mag_r = mpmath.mag(r)
        top = -(-mag_r // n) + 2  # >= mag(root)
        spread = ((abs(mag_r) + 5) // n + 2).bit_length() + 3  # 2^spread > 8 (|log(r) / n| + 1)
        # G + mag(root) grows with mag(root), so top bounds it from above
        with mp.workprec(precision_bits + _GUARD + 12 + n.bit_length()
                         + max(3, top) + max(0, top) + spread):
            root = _principal_root(n, mpmath.mpmathify(r))
        size = mpmath.mag(root)
    else:
        wide, size, (x, y), (ex, ey) = _closed_root(n, r < 0, precision_bits, root_sq)
    frac = precision_bits + _GUARD + 8 + max(0, 3 - size)
    guard = frac + n.bit_length() + 4 + max(0, size)
    if root_sq is None:
        with mp.workprec(guard + 4):
            wx, wy = _to_fixed(mpmath.expjpi(mpf(2) / n), guard)
        x, y = _to_fixed(root, guard)
    else:
        drop = wide - guard
        x, y, ex, ey = x >> drop, y >> drop, ex >> drop, ey >> drop
        wx, wy = ((ex + ey) * (ex - ey)) >> guard, (ex * ey) >> (guard - 1)
    head, s = _conjugate_half(n, r)
    points = [(x, y)]
    for _ in range(head - 1):
        x, y = (x * wx - y * wy) >> guard, (x * wy + y * wx) >> guard
        points.append((x, y))
    shift = guard - frac
    return frac, [(x >> shift, y >> shift) for x, y in points], s


def _add_round(sm: int, se: int, tm: int, te: int, prec: int,
               rnd: str = round_nearest) -> tuple[int, int]:
    """mpmath's mpf_add(s, t, prec, rnd) on s = sm 2^se and t = tm 2^te,
    each mantissa signed and odd (or 0, for mpmath's fzero): the sum
    rounded to prec bits, as (odd mantissa or 0, exponent).  With tm = 0
    sm may be any integer, and the call rounds sm 2^se alone, as
    from_man_exp does.  rnd is round_nearest (ties to even), as mpc
    arithmetic rounds under the default context, or round_down (toward
    zero), mpmath's round_fast, as mpf_hypot's sum of squares in _modulus
    and mpc_div's three sums in _cdiv round.

    It keeps mpmath's shortcut: when the exponents differ by more than 100
    and the magnitudes by more than prec + 4 bits, the smaller operand
    counts as +-1 at prec + 4 bits below the larger one's last bit.  Where
    the larger operand is wider than prec bits, as the exact products of
    mpc_mul are, that is not the correctly rounded sum, and the shortcut's
    value is the one returned."""
    if not tm:
        m, e = sm, se
    elif not sm:
        m, e = tm, te
    else:
        offset = se - te
        if offset > 100 and offset + sm.bit_length() - tm.bit_length() > prec + 4:
            m, e = (sm << prec + 4) + (1 if tm > 0 else -1), se - prec - 4
        elif offset < -100 and tm.bit_length() - sm.bit_length() - offset > prec + 4:
            m, e = (tm << prec + 4) + (1 if sm > 0 else -1), te - prec - 4
        elif offset >= 0:
            m, e = (sm << offset) + tm, te
        else:
            m, e = sm + (tm << -offset), se
    if not m:
        return 0, 0
    a = -m if m < 0 else m
    cut = a.bit_length() - prec
    if cut > 0:
        t = a >> (cut - 1)
        a = (t >> 1) + 1 if rnd == round_nearest and t & 1 and (t & 2 or a & ((1 << (cut - 1)) - 1)) else t >> 1
        e += cut
    if not a & 1:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        e += zeros
    return (a if m > 0 else -a), e


def _int_pair(a: int) -> tuple[int, int]:
    """The integer a as an (odd mantissa, exponent) pair, or (0, 0): from_int(a)."""
    if not a:
        return 0, 0
    zeros = (a & -a).bit_length() - 1
    return a >> zeros, zeros


def _signed(v: tuple) -> tuple[int, int]:
    """A finite raw mpf as a (signed mantissa, exponent) pair."""
    sign, man, exp, _ = v
    return (-man if sign else man), exp


def _raw_mpf(m: int, e: int) -> tuple:
    """The raw mpf (sign, man, exp, bc) of m 2^e for m odd or 0, as
    _add_round returns it; man is mpmath's MPZ, so the tuple equals
    from_man_exp's under any backend."""
    if not m:
        return fzero
    return int(m < 0), MPZ(abs(m)), e, m.bit_length()


def _to_mpc(z) -> mpc:
    """The mpc of a complex held as two pairs, each odd or 0."""
    return mp.make_mpc((_raw_mpf(*z[0]), _raw_mpf(*z[1])))


def _cmul(z, w, prec: int) -> tuple:
    """mpc_mul(z, w, prec, round_nearest) on complex numbers held as two
    _signed pairs: four exact products, the real part rounded as mpf_sub
    rounds it and the imaginary part as mpf_add."""
    (a, ae), (b, be) = z
    (c, ce), (d, de) = w
    return (_add_round(a * c, ae + ce, -b * d, be + de, prec),
            _add_round(a * d, ae + de, b * c, be + ce, prec))


def _cadd(z, w, prec: int, sign: int = 1) -> tuple:
    """mpc_add(z, w, prec, round_nearest), or mpc_sub for sign = -1, on
    pairs as _cmul takes them."""
    (a, ae), (b, be) = z
    (c, ce), (d, de) = w
    return _add_round(a, ae, sign * c, ce, prec), _add_round(b, be, sign * d, de, prec)


def _cdiv(z, w, prec: int) -> tuple:
    """mpc_div(z, w, prec, round_nearest) on pairs as _cmul takes them, as
    a raw mpc: |w|^2 and the two numerators from exact products, each sum
    rounded down to prec + 10 bits (mpf_add's default round_fast), then
    the two quotients from mpmath's own mpf_div."""
    (a, ae), (b, be) = z
    (c, ce), (d, de) = w
    wp = prec + 10
    mag = _raw_mpf(*_add_round(c * c, 2 * ce, d * d, 2 * de, wp, round_down))
    t = _raw_mpf(*_add_round(a * c, ae + ce, b * d, be + de, wp, round_down))
    u = _raw_mpf(*_add_round(b * c, be + ce, -a * d, ae + de, wp, round_down))
    return mpf_div(t, mag, prec, round_nearest), mpf_div(u, mag, prec, round_nearest)


def _horner_mpc(k: int, n: int, rhos) -> list:
    """The order-n generator polynomial at each rho (an mpc), by Horner at
    the working precision, bit for bit what mpmath gives for
    acc = acc * rho + c with acc = mpc(0) and c = mpmathify(a_l) under
    round-nearest: mpc_mul's four exact products, its real part rounded by
    mpf_sub and its imaginary part by mpf_add, then mpc_add_mpf rounding the
    real part only.  Every rounding is _add_round, on signed odd mantissas
    and exponents, mpf_add's shortcut included; the coefficients enter
    exactly, not rounded to the working precision.  determinant_closed
    multiplies these for its oracle product; the tests compare the
    fixed-point kernel with them and this port with mpmath's own Horner."""
    prec = mp.prec
    coeffs = [_int_pair(a) for a in reversed(terms_upto(k, n - 1))]
    lams = []
    for rho in rhos:
        (x, xe), (y, ye) = map(_signed, rho._mpc_)
        re = re_exp = im = im_exp = 0
        for c, c_exp in coeffs:
            # acc = acc * rho + c
            p, p_exp = _add_round(re * x, re_exp + xe, -im * y, im_exp + ye, prec)
            im, im_exp = _add_round(re * y, re_exp + ye, im * x, im_exp + xe, prec)
            re, re_exp = _add_round(p, p_exp, c, c_exp, prec)
        lams.append(_to_mpc(((re, re_exp), (im, im_exp))))
    return lams


def _direct_fixed(k: int, n: int, r, precision_bits: int) -> tuple[int, dict, dict, int]:
    """(F, points, values, s): the points the direct kernel evaluates and
    the order-n generator polynomial at each of them, as dicts from the
    index m to integer pairs scaled by 2^F; every other index m < n holds
    the conjugates of index (s - m) mod n (_conjugate_half).  See
    eigenvalues_direct for F, the indices and the error."""
    check_k(k)
    _check_grid(n, r, precision_bits)
    frac, head, s = _fixed_grid(n, r, precision_bits)
    terms = terms_upto(k, n - 1)
    if n % 2:
        coeffs = [a << frac for a in reversed(terms)]
        points = dict(enumerate(head))
        return frac, points, {m: _horner_fixed(coeffs, x, y, frac) for m, (x, y) in points.items()}, s
    half, guard = n // 2, 6 + max(0, frac + 1 - _size(*head[0]))
    wide = frac + guard
    even, odd = ([a << wide for a in reversed(terms[i::2])] for i in (0, 1))
    points, values = {}, {}
    for m in range((len(head) + 1) // 2):
        x, y = points[m] = head[m]
        points[m + half] = -x, -y
        w = (x * x - y * y) >> frac - guard, (x * y) >> frac - guard - 1  # rho^2
        ex, ey = _horner_fixed(even, *w, wide)
        ox, oy = _horner_fixed(odd, *w, wide)
        ox, oy = (ox * x - oy * y) >> frac, (ox * y + oy * x) >> frac  # rho O(rho^2)
        values[m] = (ex + ox) >> guard, (ey + oy) >> guard
        values[m + half] = (ex - ox) >> guard, (ey - oy) >> guard
    return frac, points, values, s


def _conjugate_fill(items: dict, n: int, s: int) -> tuple:
    """items, mpc values at some indices m < n, completed to n values by
    item m = conj item ((s - m) mod n); see _conjugate_half."""
    return tuple(items[m] if m in items else items[(s - m) % n].conjugate() for m in range(n))


def _extreme_candidates(terms: list, head: list, frac: int) -> tuple[list, list] | None:
    """(lows, highs): the indices into head, in increasing order, that can
    hold the smallest and the largest kernel modulus, found from
    double-precision Horner at every point of head; None when the doubles
    cannot decide.  See _modulus_extremes for the proof.

    terms are the generator row a_0 .. a_(n-1), with a_0 = 0 and a_l >= 1
    for l >= 1, and head the points of _fixed_grid (integer pairs scaled by
    2^frac) that the kernel evaluates.  With R' = |z_0| (1 + 2^-48), one
    power of two 2^-S brings the largest term a_l R'^l to about 2^900:
    c_l = a_l 2^-S rounded to a double, w_m the double Horner value of
    sum_l c_l z_m^l and Pbar_S(t) = sum_l c_l t^l in doubles.  Index m is a
    low when |w_m| <= min |w| + 2E and a high when |w_m| >= max |w| - 2E,
    with E = 2^-40 n Pbar_S(R').  None when a point or a c_l is past double
    range, R' < 2^-900, S > 1000 + min(0, log2 R') (the terms spread past
    double range), Pbar_S(R') > 2^1000 or some |w_m| is not finite."""
    scale = 1 << frac
    try:
        # int / int rounds correctly, subnormals included, and raises
        # OverflowError past double range
        points = [complex(x / scale, y / scale) for x, y in head]
        radius = abs(points[0]) * (1 + 2.0 ** -48)
        if not radius >= 2.0 ** -900:
            return None
        log_radius = math.log2(radius)
        # above log2 of the largest term a_l R'^l, by at most about 1
        top = max(a.bit_length() + l * log_radius for l, a in enumerate(terms) if a)
        shift = max(0, math.ceil(top) - 900)
        if shift > 1000 + min(0.0, log_radius):
            return None
        unit = 1 << shift
        coeffs = [a / unit for a in reversed(terms)]
        pbar = 0.0
        for c in coeffs:
            pbar = pbar * radius + c
        if not pbar <= 2.0 ** 1000:
            return None
        mods = []
        for z in points:
            acc = 0j
            for c in coeffs:
                acc = acc * z + c
            mods.append(abs(acc))
    except OverflowError:
        return None
    if not all(map(math.isfinite, mods)):
        return None
    margin = 2.0 ** -39 * len(terms) * pbar  # 2E
    low, high = min(mods) + margin, max(mods) - margin
    return ([m for m, a in enumerate(mods) if a <= low],
            [m for m, a in enumerate(mods) if a >= high])


def _modulus_extremes(k: int, n: int, r, precision_bits: int,
                      root_sq: Fraction | None = None) -> tuple[mpf, int, mpf]:
    """(smallest |lambda_m|, its index m, largest |lambda_m|) over the direct
    eigenvalues, bit for bit the exhaustive answer: the first index m whose
    kernel value lambda~_m has the smallest squared modulus x^2 + y^2 on
    the kernel's integers, and the first with the largest.  Only the two
    extremes are rounded to bits + _GUARD bits, as eigenvalues_direct
    rounds every lambda, and _modulus takes their absolute values.  The
    grid is _fixed_grid's with root_sq, so with it the eigenvalues are
    those of the exact +-root_sq^(n/2), not of r.

    _horner_fixed runs only on the candidates of _extreme_candidates,
    usually one or two points, on the same integer points as
    eigenvalues_direct; where the doubles cannot decide, every head point is
    a candidate.  Among the candidates, taken in increasing order, the
    first smallest and the first largest squared modulus are returned.

    Proof that the exhaustive argmin lo* and argmax hi* are candidates, with
    u = 2^-53, R = |r|^(1/n) the common modulus of the exact rho_m,
    P = Pbar(R') = sum_l a_l R'^l, P_S = 2^-S P and lambda~_m the kernel
    value at head point p_m.  Every value below is taken in units of 2^S;
    only underflow does not scale, and S <= 1000 + min(0, log2 R') bounds it.
    - Head suffices.  A mirrored index m >= h (_conjugate_half) has the
      exact conjugate value of its mirror s - m < m, so the same squared
      modulus; the first index on ties is never a mirrored one.
    - The kernel's point.  bits >= 64 gives F >= max(104, 107 - mag(root)),
      and |root| >= 2^(mag(root) - 2), so 2^(1-F) <= 2^-103 R.
      _fixed_grid puts p_m within 2^(1-F) of rho_m.
    - The kernel's value.  P(l) >= 1 for l >= 1, so sum_{j<n-1} R^j and
      sum_l l a_l R^(l-1) are at most n Pbar(R) / R, and the bound stated
      in eigenvalues_direct gives |lambda~_m - Psi(rho_m)| <= 2^-103 n P.
    - Rounding to doubles.  int / int rounds each part to nearest, so the
      double z_m is within u |p_m| + 2^-1074 of p_m; the check R' >= 2^-900
      makes 2^-1074 < 2^-173 R, so |z_m - rho_m| <= 1.01 u R.  abs() errs
      by at most 2u, so R' >= R (1 + 2^-49) >= max(|z_m|, |p_m|, R).  Each
      c_l is within u a_l 2^-S + 2^-1075 of a_l 2^-S; the 2^-1075 terms,
      below the normal range, add at most 2^-1075 sum_(l>=1) R'^l
      <= 2^(S-1075) P_S.  Hence
      |sum c_l z_m^l - 2^-S Psi(rho_m)| <= u P_S + 2^(S-1075) P_S
      + sum_l a_l 2^-S l R'^(l-1) 1.01 u R <= 1.02 u n P_S.
    - Double Horner.  Each complex product errs by less than 3u |x| |y|,
      with or without a fused multiply-add, and adding the real c_l rounds
      the real part once (u).  A finite |w_m| means no step overflowed:
      an inf or nan never turns finite again.  So Horner errs by less than
      ((1 + 3u)^(2n) - 1) (1 + u) P_S <= 6.1 n u P_S (n < 2^40), plus
      underflow: below 2^-1072 per product, carried by later products at
      most R'^j times, in all at most 2^-1072 sum_(l>=1) R'^(l-1)
      <= 2^(S-1072) P_S / R' <= 2^-72 P_S.
    - Together |w_m - 2^-S lambda~_m| < 2^-49 n P_S, and with abs()
      (2u |w_m|, |w_m| <= 1.01 P_S) the computed |w_m| is within
      2^-47 n P_S of 2^-S |lambda~_m|.  So |w_(lo*)| <= |w_m| + 2^-46 n P_S
      for every m, and |w_(hi*)| >= |w_m| - 2^-46 n P_S.
    - The thresholds.  Pbar_S in doubles sums positive terms, so with the
      same underflow bounds it is at least P_S (1 - 3nu - 2^-71), and
      2E >= 2^-39.1 n P_S.  Rounding
      min |w| + 2E and max |w| - 2E moves them by at most u (1.01 P_S + 2E),
      so the thresholds stay more than 2^-46 n P_S beyond min |w| and
      max |w|: lo* is a low and hi* a high.
    """
    check_k(k)
    _check_grid(n, r, precision_bits)
    frac, head, _ = _fixed_grid(n, r, precision_bits, root_sq)
    terms = terms_upto(k, n - 1)
    found = _extreme_candidates(terms, head, frac)
    lows, highs = found if found else (range(len(head)), range(len(head)))
    coeffs = [a << frac for a in reversed(terms)]
    values = {m: _horner_fixed(coeffs, *head[m], frac) for m in sorted({*lows, *highs})}
    sq = {m: x * x + y * y for m, (x, y) in values.items()}
    lo = min(lows, key=sq.__getitem__)
    hi = max(highs, key=sq.__getitem__)
    with mp.workprec(precision_bits + _GUARD):
        return (_modulus(_from_fixed(*values[lo], frac)), lo,
                _modulus(_from_fixed(*values[hi], frac)))


def eigenvalues_direct(k: int, n: int, r, precision_bits: int = 256) -> EigenSpectrum:
    """lambda_m as the generator polynomial Psi evaluated at rho_m by Horner,
    on Gaussian integers scaled by 2^F (see _to_fixed and _horner_fixed), at
    the points of _fixed_grid.  F = bits + _GUARD + 8 + max(0, 3 - mag(rho));
    the extra bits for small |rho| keep the relative error of each point
    below 2^-(bits + _GUARD + 8).  Each lambda is rounded once to
    bits + _GUARD bits, and so are the points that make up the returned
    grid.

    Error bound: with a_l the generator row, rho_m the exact n-th roots of r
    and lambda~_m the kernel's value before that rounding,

        |lambda~_m - Psi(rho_m)| <= 2^(1-F) * (sum_{j<n-1} |rho|^j + sum_l l a_l |rho|^(l-1)).

    At odd n, Horner runs at each point p_m; the first sum carries the
    floor of each product, below sqrt(2) 2^-F, and the second the error of
    each point, below 1.92 2^-F (see _fixed_grid).

    At even n, rho_(m+n/2) = -rho_m, and the kernel takes the point
    -p_m there.  With E and O the polynomials of the even and odd
    coefficients, Psi(+-p) = E(p^2) +- p O(p^2): p^2, both Horners and
    p O run at F + g fractional bits, g = 6 + max(0, F + 1 - b) with
    2^(b-1) <= the larger part of p_0 scaled by 2^F, so 2^-g <= 2^-6 R,
    R = |rho|; the two values are floored to F bits.  Floors of
    sqrt(2) 2^-(F+g) in the Horners and in p O, carried by the powers of
    p^2 and by p, cost at most
    sqrt(2) 2^-(F+g) (2 sum_{j<n-1} R^j + sum_l l a_l R^(l-1) / (2R)), the
    floor of p^2 entering through E' and O' (of degree below n/2, taken at
    R^2); 2^-g <= 2^-6 R keeps this below 2^(1-F) (0.03 sum_j R^j +
    0.006 sum_l l a_l R^(l-1)).  The final floors add
    sqrt(2) 2^-F <= 2^(1-F) 0.71, and the point 1.92 2^-F times the second
    sum, so the bound holds with room.

    For real r the kernel evaluates only part of the grid and mirrors the
    rest: rho_m = conj rho_((s - m) mod n) (_conjugate_half).  At odd n it
    evaluates the head, about n/2 points, and at even n the pairs m,
    m + n/2 for m < ceil(h/2), about n/4 + 1 of them, which with their
    mirrors cover the grid; complex r evaluates every point, in pairs at
    even n.  The a_l are real, so Psi(conj rho) = conj Psi(rho): a
    mirrored value errs by exactly as much as its mirror.  The mirrored
    lambdas and points are the conjugates of the rounded values, which
    is the same as rounding the conjugates, round-nearest being symmetric.
    They can differ in their last bits from Horner run at the mirrored
    point itself, whose floors round the other way.
    """
    frac, points, values, s = _direct_fixed(k, n, r, precision_bits)
    with mp.workprec(precision_bits + _GUARD):
        lams = _conjugate_fill({m: _from_fixed(x, y, frac) for m, (x, y) in values.items()}, n, s)
        rhos = _conjugate_fill({m: _from_fixed(x, y, frac) for m, (x, y) in points.items()}, n, s)
    grid = EigenGrid(n=n, r=r, precision_bits=precision_bits, rhos=rhos)
    return EigenSpectrum(k=k, grid=grid, lambdas=lams, branches=("direct",) * n)


def _degenerate_lambda(mu, nu, xi, n):
    # lambda at rho = 1/mu, where {mu, nu, xi} are the characteristic roots.
    head = n * mu / ((mu - nu) * (mu - xi))
    t_nu = nu * (nu**n - mu**n) / (mu ** (n - 1) * (nu - mu) ** 2 * (nu - xi))
    t_xi = xi * (xi**n - mu**n) / (mu ** (n - 1) * (xi - mu) ** 2 * (xi - nu))
    return head + t_nu + t_xi


def _clearly_generic(k: int, rho) -> bool:
    """True when a double-precision psi(rho) proves |psi(rho)| >= tol
    (1 + |rho|)^3 for every tol <= 2^-32, i.e. that _degenerate is False,
    without mpc arithmetic: |psi(z)| > 2^-20 (2k + 3) (1 + |z|)^3 in
    doubles at z, rho with each part rounded to a double.  False means undecided: inside that margin,
    for k >= 2^32 (2k is then no exact double) and when a part of rho is
    2^63 or more in size or is not finite.

    Proof, with u = 2^-53, R = |rho| and Pbar(t) = 1 + 2k t + k t^2 + t^3
    <= (2k + 3) (1 + t)^3 / 3, the absolute-value polynomial:
    - mpmath's to_float, called with round_nearest, rounds each part to 53
      bits, then scales it by ldexp; a part moves by less than 2^-52 of
      itself, plus 2^-1073 below the normal range.  So |z - rho| <
      2^-52 R + 2^-1072, and with |psi'(t)| <= (2k + 3) (1 + |t|)^2 on
      the segment, |psi(z) - psi(rho)| < 2^-51 (2k + 3) (1 + R)^3.
    - In doubles k and 2k are exact and nothing overflows (parts below
      2^63).  Each addition rounds once (u), each complex product errs by
      less than 3u |x| |y|, and underflow adds 2^-1074 per rounding, which
      the later products magnify by less than 2^128.  So Horner's two
      products and three additions err by less than
      12.1 u Pbar(|z|) + 2^-940 < 2^-50.9 (2k + 3) (1 + R)^3.
    - The double's error is thus below 2^-49 (2k + 3) (1 + R)^3, well below
      2^-44 (2k + 3) (1 + R)^3.  abs(), the threshold and 1 + |z| >=
      (1 + R)(1 - 2^-51) each round by a few u, so True gives
      |psi(rho)| > 2^-20 (1 - 2^-23) (2k + 3) (1 + R)^3.
    - At the mpc test's precision, bits + _GUARD >= 96 (bits >= 64 also
      gives tol = 2^-tolerance_bits(bits) <= 2^-32), psi(rho), |psi| and
      (1 + |rho|)^3 err by less than 2^-90 (2k + 3) (1 + R)^3, so it finds
      |psi| > 2^-18 (1 + R)^3 > tol (1 + |rho|)^3: generic.
    """
    # a part of 2^63 or more in size, inf or nan
    if k >= 1 << 32 or any(man.bit_length() + exp > 63 or (exp and not man)
                           for _, man, exp, _ in rho._mpc_):
        return False
    z = complex(*(to_float(part, rnd=round_nearest) for part in rho._mpc_))
    return abs(recip_poly(k, z)) > 2.0 ** -20 * (2 * k + 3) * (1 + abs(z)) ** 3


def _degenerate(k: int, rho, tol) -> bool:
    """True when |psi(rho)| < tol (1 + |rho|)^3: there rho is too close to
    a reciprocal characteristic root for the rational closed form.
    _clearly_generic decides most points in doubles; the others take psi
    and the two moduli in mpc."""
    return not _clearly_generic(k, rho) and abs(recip_poly(k, rho)) < tol * (1 + abs(rho)) ** 3


def eigenvalues_closed(k: int, n: int, r, precision_bits: int = 256) -> EigenSpectrum:
    """lambda_m from the rational closed form, with degenerate-branch dispatch
    when rho_m falls within 2^-tolerance_bits(bits) of a reciprocal
    characteristic root.

    The generic branch, lambda = (rho - r C(rho)) / psi(rho), runs on
    _signed pairs at bits + _GUARD bits, bit for bit the mpc value of

        (rho - r * c0 - r * rho * c1 - r * rho**2 * c2) / (1 - rho * (2k + rho * (k + rho)))

    under round-nearest, with (c0, c1, c2) = t_integers(k, n): _cmul,
    _cadd and _cdiv replay mpc_mul, mpc_add or mpc_sub and mpc_div in
    Python's order of evaluation, and r * c0, the same at every point, is
    taken once.  The degenerate branches stay in mpc.

    Proof that the generic forms give the bits of the special ones that
    mpmath dispatches to.  A real r, the integers and, where a part of rho
    is zero, that part enter as pairs (x, 0).  mpf_mul_int, mpc_mul_int and
    mpc_mul_mpf round each exact product once; mpc_mul adds an exact zero
    product to it and rounds the sum, the same number.  mpc_sub_mpf and
    mpc_add_mpf keep the imaginary part; mpc_sub and mpc_add add zero to it
    and round it, and every such part (rho's, from eigen_grid at the same
    precision, or an earlier step's result) already has at most prec
    bits, so it comes back unchanged.  mpc_square's imaginary part
    2 round(ab) is round(ab + ba), the doubling being exact and mpf_add's
    shortcut needing unequal exponents; mpc_pow_int on a zero part gives
    round(a^2) or -round(b^2) = round(-b^2), round-nearest being symmetric;
    both are mpc_mul's parts.  So no special form needs code of its own."""
    check_k(k)
    check_int(n, 3, "matrix order n")
    grid = eigen_grid(n, r, precision_bits)
    roots = char_roots(k, precision_bits)
    c0, c1, c2, k1, k2, one = ((_int_pair(c), (0, 0)) for c in (*t_integers(k, n), k, 2 * k, 1))
    tol = mpf(2) ** -tolerance_bits(precision_bits)
    lams, branches = [], []
    with mp.workprec(precision_bits + _GUARD):
        prec = mp.prec
        r_mp = mpmath.mpmathify(r)
        r_z = tuple(map(_signed, r_mp._mpc_ if isinstance(r_mp, mpc) else (r_mp._mpf_, fzero)))
        r_c0 = _cmul(r_z, c0, prec)
        for rho in grid.rhos:
            if not _degenerate(k, rho, tol):
                z = tuple(map(_signed, rho._mpc_))
                num = _cadd(_cadd(z, r_c0, prec, -1), _cmul(_cmul(r_z, z, prec), c1, prec), prec, -1)
                num = _cadd(num, _cmul(_cmul(r_z, _cmul(z, z, prec), prec), c2, prec), prec, -1)
                tail = _cmul(z, _cadd(_cmul(z, _cadd(z, k1, prec), prec), k2, prec), prec)
                lams.append(mp.make_mpc(_cdiv(num, _cadd(one, tail, prec, -1), prec)))  # num / psi(rho)
                branches.append("generic")
            else:
                # the nearest reciprocal root 1 / mu; ties go to alpha, then beta
                mus = (mpc(roots.alpha), roots.beta, roots.gamma)
                i = min(range(3), key=lambda j: abs(rho - 1 / mus[j]))
                lams.append(_degenerate_lambda(mus[i], *mus[:i], *mus[i + 1:], n))
                branches.append(("alpha", "beta", "gamma")[i])
    return EigenSpectrum(k=k, grid=grid, lambdas=tuple(lams), branches=tuple(branches))


def _pow_sum_fixed(x: int, y: int, n: int, frac: int) -> tuple[int, int, int]:
    """(p_x, p_y, w): z^n by left-to-right binary powering and
    w = sum_{i<n} |z|^(2i), all scaled by 2^frac, for z = (x + i y) 2^-frac
    and n >= 1 (at n = 1 it returns x, y and 2^frac, exactly).

    Error of z^n: with M = max(1, |z|) and n <= 2^((frac - 7) / 2), p is
    within 1.5 (2n - 1) M^n 2^-frac < 3 n M^n 2^-frac of the exact z^n.
    With d_m the error of z^m in units of M^m 2^-frac, d_1 = 0; a squaring
    gives d_2m <= d_m (2 + d_m 2^-frac) + sqrt(2) and a product by z gives
    d_(m+1) <= d_m + sqrt(2), the sqrt(2) being each floor; by induction
    d_m <= 1.5 (2m - 1) while 9 n^2 2^-frac <= 1.5 - sqrt(2).

    Error of w: within 9 n 2^-frac of the sum, relative.  With W_m the sum
    to m and p_m = z^m, a squaring takes W_2m = W_m (1 + |p_m|^2) and a
    step W_(m+1) = 1 + |z|^2 W_m.  |p_m|^2 errs by less than
    2 d_m M^m |z|^m 2^-frac <= 2 d_m (1 + |z|^(2m)) 2^-frac, and each
    floor by one unit, which W_m, W_(m+1) >= 1 and W_m <= W_(m+1) keep
    below 2^-frac relative.  So a squaring adds less than
    (3 (2m - 1) + 3) 2^-frac and a step 2.01 2^-frac to the relative
    error; the m squared are below n/2 and at least double each time, so
    the whole is below (6n + 5 log2 n) 2^-frac <= 9 n 2^-frac."""
    one = 1 << frac
    q = (x * x + y * y) >> frac
    px, py, w = x, y, one
    s, d = x + y, y - x
    for bit in bin(n)[3:]:
        w += (w * ((px * px + py * py) >> frac)) >> frac
        px, py = ((px + py) * (px - py)) >> frac, (px * py) >> (frac - 1)
        if bit == "1":
            w = one + ((w * q) >> frac)
            t = x * (px + py)
            px, py = (t - py * s) >> frac, (t + px * d) >> frac
    return px, py, w


def _telescoped(k, high, mid, low) -> tuple:
    """(P(p), k P(p-1) + P(p-2), P(p-1)) from high, mid, low = P(p),
    P(p-1), P(p-2): the coefficients of L_p, lowest degree first, which
    t_integers gives for p >= 2.  Like _boundary it takes any ring's
    elements: the tests run both on symbols."""
    return high, k * mid + low, mid


def _boundary(k, below, at, above) -> tuple:
    """(u_p, k u_p + u_(p-1), u_(p+1)) from below, at, above = u_(p-1),
    u_p, u_(p+1): the coefficients, lowest degree first, of the boundary
    polynomial beta_p of a sequence u with the recurrence (see
    eigenpair_residuals)."""
    return at, k * at + below, above


def _residual_cell(k: int, n: int) -> tuple:
    """The integers of eigenpair_residuals that depend on k and n alone:
    C = t_integers(k, n), the coefficients of L_n; G = (G_00, 2 G_01,
    G_11, 2 G_02, 2 G_12, G_22), G_ab = sum_{p=1..n} u_a u_b over the
    coefficients (u_0, u_1, u_2) of L_p, so that
    Q = sum_{a,b} G_ab rho^a z^b; and beta_n(z) = sum_{a,b} b_ab rho^a z^b,
    beta_n of the sequence L_p(rho), from L_(n-1), L_n and L_(n+1), as
    b_00, b_10 + b_01, b_11, b_20 + b_02, b_21 + b_12, b_22 (real part) and
    b_10 - b_01, b_20 - b_02, b_21 - b_12 (imaginary part)."""
    terms = terms_upto(k, n + 1)
    pn1, pn, pm1, pm2 = terms[n + 1], terms[n], terms[n - 1], terms[n - 2]
    pm3 = pn - 2 * k * pm1 - k * pm2  # P(n - 3), and P(-1) = 0 at n = 2
    ells = (_telescoped(k, pm1, pm2, pm3), _telescoped(k, pn, pm1, pm2),
            _telescoped(k, pn1, pn, pm1))
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = (
        _boundary(k, *(ell[a] for ell in ells)) for a in range(3))
    # sums over p = 1..n of P(p)^2, P(p) P(p-1) and P(p) P(p-2), P(-1) = 0
    s00 = sum(map(mul, terms[1:n + 1], terms[1:n + 1]))
    s01 = sum(map(mul, terms[1:n + 1], terms))
    s02 = sum(map(mul, terms[2:n + 1], terms))
    s11 = s00 - pn * pn  # of P(p-1)^2
    s12 = s01 - pn * pm1  # of P(p-1) P(p-2)
    s22 = s11 - pm1 * pm1  # of P(p-2)^2
    return (ells[1],
            (s00, 2 * (k * s01 + s02), k * k * s11 + 2 * k * s12 + s22, 2 * s01, 2 * (k * s11 + s12), s11),
            (b00, b10 + b01, b11, b20 + b02, b21 + b12, b22, b10 - b01, b20 - b02, b21 - b12))


def _residual_point(k: int, cell: tuple, x: int, y: int, lam: tuple, r: tuple, frac: int,
                    guard: int) -> tuple:
    """(psi, chi, e_hat, q, beta_0, beta_n) at rho = (x + i y) 2^-frac,
    z = conj(rho), lambda = lam 2^-frac and r = r 2^-frac (lam and r
    pairs), all scaled by 2^S, S = frac + guard: psi(rho), chi(z), E^,
    beta_0(z) and beta_n(z) as pairs and Q(rho) as an integer; cell is
    _residual_cell's.  chi(z) is conj(chi(rho)), and
    chi(rho) = -psi(rho) - 3k (rho + rho^2).  |rho|^2, rho^2, rho^3,
    |rho|^2 rho, |rho|^4 and each part of r C(rho) + psi lambda are
    floored to S bits; the rest is exact.  See eigenpair_residuals for
    the errors."""
    (c0, c1, c2), (g00, g01, g11, g02, g12, g22), (b00, b10, b11, b20, b21, b22, d10, d20, d21) = cell
    top = frac + guard
    xs, ys, xx, yy = x << guard, y << guard, x * x, y * y
    m, re2, im2 = (_shifted(v, guard - frac) for v in (xx + yy, xx - yy, 2 * x * y))  # |rho|^2, rho^2
    re3, im3 = (x * re2 - y * im2) >> frac, (x * im2 + y * re2) >> frac  # rho^3
    mx, my, mm = (m * x) >> frac, (m * y) >> frac, (m * m) >> top
    psi_x = (1 << top) - 2 * k * xs - k * re2 - re3
    psi_y = -2 * k * ys - k * im2 - im3
    chi = -psi_x - 3 * k * (xs + re2), psi_y + 3 * k * (ys + im2)
    cr, ci = (c0 << top) + c1 * xs + c2 * re2, c1 * ys + c2 * im2  # C(rho)
    (lr, li), (rr, ri) = lam, r
    e_hat = (xs - ((rr * cr - ri * ci + psi_x * lr - psi_y * li) >> frac),
             ys - ((rr * ci + ri * cr + psi_x * li + psi_y * lr) >> frac))
    q = (g00 << top) + g01 * xs + g11 * m + g02 * re2 + g12 * mx + g22 * mm
    beta_0 = xs + k * m + re2 + mx, ys - im2 + my
    beta_n = ((b00 << top) + b10 * xs + b11 * m + b20 * re2 + b21 * mx + b22 * mm,
              d10 * ys + d20 * im2 + d21 * my)
    return (psi_x, psi_y), chi, e_hat, q, beta_0, beta_n


def _size(x: int, y: int = 0) -> int:
    """b with 2^(b-1) <= |x + i y| < 2^(b+1/2) for a nonzero pair."""
    return max(x.bit_length(), y.bit_length())  # bit_length ignores the sign


def _shifted(v: int, shift: int) -> int:
    """v 2^shift, rounded down."""
    return v << shift if shift >= 0 else v >> -shift


def _cut(v: int, keep: int) -> tuple[int, int]:
    """(v', e): v > 0 rounded down to keep bits, v = v' 2^e within
    2^(1-keep) relative; e = 0 for a v that is already that short."""
    e = max(0, v.bit_length() - keep)
    return v >> e, e


def eigenpair_residuals(k: int, n: int, r, spectrum: EigenSpectrum,
                        precision_bits: int | None = None) -> list:
    """Relative residuals ||M v_m - lambda_m v_m|| / (||M||_F ||v_m||), v_m = (rho_m^i),
    for the given spectrum, at its precision, in O(log n) operations per
    point.  A precision_bits other than the spectrum's, or a k, n or r
    other than its own, raises ValueError; r = 0 raises ZeroR.

    With a_l the generator row and T = sum_l a_l rho^l, row i of
    M v - lambda v is exactly

        e_i = rho^i (T - lambda) + c h_i,   c = r - rho^n,   h_i = sum_{j<i} a_{n-i+j} rho^j.

    The telescoping identity.  With P(-1) = 0, P(-2) = 1 and
    L_p(x) = P(p) + (k P(p-1) + P(p-2)) x + P(p-1) x^2 (_telescoped; L_n is
    C, the quadratic of t_integers, L_0 = x and L_1 = 1), the recurrence
    gives L_p - x L_(p+1) = psi P(p), psi(x) = 1 - 2k x - k x^2 - x^3, so
    psi(x) sum_{l=p}^{n-1} a_l x^(l-p) = L_p - x^(n-p) C for 0 <= p <= n.
    At p = 0 and p = n - i,

        psi(rho) e_i = rho^i E^ + c L_(n-i)(rho),   E^ = rho - r C(rho) - psi(rho) lambda,

    and summed over i < n, with z = conj(rho),

        |psi|^2 sum_i |e_i|^2 = |E^|^2 W + 2 Re(conj(E^) c S) + |c|^2 Q,

    W = sum_{i<n} |rho|^(2i) = ||v||^2, Q = sum_{p=1..n} |L_p(rho)|^2 and
    S = sum_{i<n} z^i L_(n-i)(rho).  Q is a Hermitian form in
    (1, rho, rho^2) with six integer sums over p (_residual_cell).  For
    S: any sequence u with the recurrence has z beta_p - beta_(p+1) =
    chi(z) u_(p+1), chi(z) = z^3 - 2k z^2 - k z - 1 and beta_p(z) =
    u_p + (k u_p + u_(p-1)) z + u_(p+1) z^2 (_boundary), so
    chi(z) sum_{p=1..n} u_p z^(n-p) = z^n beta_0(z) - beta_n(z).  The
    sequence L_p(rho) has the recurrence, with L_(-1) = rho^2, so
    S = (z^n beta_0 - beta_n) / chi, beta_0 = rho + k |rho|^2 + |rho|^2 rho + z^2.
    psi and chi vanish at no Gaussian rational: x^3 - 2k x^2 - k x - 1 has
    no rational root (only +-1 could be one, where it is -3k and -k - 2),
    so it is irreducible and has no root in Q(i), nor has
    psi(x) = -x^3 chi(1/x).

    Computation.  rho, lambda and r are rounded down to Gaussian integers
    scaled by 2^F', F' = F + max(0, 3 - mag(r)), F = bits + _GUARD + 8; the
    extra bits for small |r| keep the relative error of rho and of r
    below 2^(0.5-F).  For these rho~, lambda~ and r~ the identity is
    exact.  psi, chi, E^, Q, beta_0 and beta_n come from floors at
    S = F' + g fractional bits (_residual_point), and rho~^n and W from one
    binary powering (_pow_sum_fixed) at H >= F' fractional bits, rho~^n
    within delta = 3 n M^n 2^-H, M = max(1, |rho~|), and W within
    9 n 2^-H, relative.  The sum X~ = |E^|^2 W~ + |c~|^2 Q + 2 Re(conj(E^) c~ S~),
    S~ = B~ / chi, B~ = z~^n beta_0 - beta_n floored to S bits, and the
    denominator |psi|^2 W~ ||M||_F^2, with ||M||_F^2 = n s2 + (|r~|^2 - 1) w2
    at r~, are formed from these integers, ||M||_F^2 cut to F + 10 bits
    (_cut, within 2^(-F-9) relative); the three terms of X~ are floored to
    a common unit 2^(log2 Y - K - 4); then one integer division, one isqrt
    and one rounding.

    Floors.  In units of 2^-S, each floor errs by less than one unit per
    part, times what multiplies it, so the floored values err by less than
    6k M (psi), 12k M (chi), 2 c_2 |r~| + 6k M |lambda~| + 3 (E^, c_2 of
    t_integers), (G_11 + G_02 + 2 G_12 + 4 G_22) M^2 (Q, G of
    _residual_cell), 8k M (beta_0),
    (|b_11| + |b_20| + 2 |b_21| + 4 |b_22| + |d_20| + 2 |d_21|) M^2
    (beta_n) and |z~^n| 8k M + that + sqrt(2) (B~); M and |lambda~| are
    taken at their largest over the grid.  Six checks from bit lengths
    place them in the proof.  (i) psi errs by less than 2^(-F-5) of its
    floored value, which the denominator's relative error takes, and
    (ii) chi by less than half of its own; so the floored values give
    lower bounds on |psi| and |chi|.  (iii) E^'s floor moves the vector
    rho^i E^ + c L_(n-i) by at most its error times sqrt(W), and
    ||e|| / ||v|| by at most (5) 2^(-F-2) U.  After the powering, the
    floors of (iv) Q, (v) B~ and (vi) chi change X~ by at most
    2^(-K-3) Y each.  Where a check fails, near the reciprocal
    characteristic roots (criterion 06's grids), the point is evaluated
    again with g raised by the shortfall; g starts at 24 + 2 log2 M, and
    on eigen-verify's grids no point needs a second evaluation.

    Guard bits.  With U = max(1, |r|) A, A = sum_l a_l: c~ = r~ - rho~^n
    errs by at most delta, which moves the vector rho^i E^ + c L_(n-i) by
    at most delta sqrt(Q); as sqrt(W) >= M^(n-1) that moves ||e|| / ||v||
    by at most (1) 3 n M sqrt(Q) 2^-H / |psi|.  W~ and S~ (S~ - S =
    (z~^n - z^n) beta_0 / chi) change the sum of squares by at most
    |E^|^2 |W~ - W| + 2 |E^| |c~| delta |beta_0| / |chi|, which adds at
    most (2) sqrt(9 n 2^-H) |E^| / |psi| and
    (3) sqrt(13 n M^2 2^-H |E^| |beta_0| / |chi|) / |psi|, with
    |c~| <= 2.1 M^n and W >= M^(2n-2) (|rho^n / r - 1| <= 2^-16, below).
    E^ is the floored value here, and sqrt(Q) and |beta_0| are bounded
    from above by the floored values plus their errors.  H is the least
    integer >= F' that bounds each of (1) - (3) by 2^(-F-1) U, found from
    bit lengths before the powering.  Away from the reciprocal
    characteristic roots it is F' plus about log2(n^1.5 k) bits, for (1);
    near one, where |psi(rho)| is small, (2) and (3) grow with
    2 log2(1 / |psi|).  The floors that align the three terms, the
    quotient by |chi|^2 included, change X~ by at most 2^(-K-2) Y, and
    with (iv) - (vi) by less than 2^(5-K) Y, Y a power of two above
    |E^|^2 W~ + |c~|^2 Q + 2 |E^| |c~| |B~| / |chi|, which adds at most
    (4) sqrt(2^(5-K) Y / W) / |psi|.  K is the least integer >= F + 10
    that bounds (4) by 2^(-F-2) U, from bit lengths after the powering.

    Error bound: for rho_m with |rho_m^n / r - 1| <= 2^-16 (every grid from
    eigen_grid and the grid of every spectrum from eigenvalues_direct meets
    this), A = sum_l a_l and res_m the exact residual,

        |returned_m - res_m| <= 2^(4-F) * n * (max(1, |r|) * A / ||M||_F + res_m).

    The first term bounds the error in ||M v - lambda v|| relative to
    ||M||_F ||v||, in units of U / ||M||_F.  Rounding rho moves v by
    n 2^(0.5-F) ||v||, and ||M - T|| <= 2U, which gives 2^(1.5-F) n;
    rounding lambda and r (||dM|| <= |dr| A) adds 2^(0.5-F) each, and
    (1) - (5) add 2^(1-F).  The second term is the relative error of
    ||v|| and ||M||_F: n 2^(0.5-F) from the rounded rho, as much again
    from (T - lambda) dv, 4.5 n 2^-H from W~, 2^(-F-1.5) from r~ in
    ||M||_F, 2^(-F-4.9) from psi's floor and 2^(-F-7) from the cut of
    ||M||_F^2 and the final rounding.
    """
    if precision_bits not in (None, spectrum.grid.precision_bits):
        raise ValueError(f"precision_bits {precision_bits!r} differs from the spectrum's"
                         f" {spectrum.grid.precision_bits}")
    if n != spectrum.grid.n:
        raise ValueError(f"matrix order n {n!r} differs from the spectrum's {spectrum.grid.n}")
    check_r(r)
    for name, value, own in (("k", k, spectrum.k), ("r", r, spectrum.grid.r)):
        if value != own:
            raise ValueError(f"{name} {value!r} differs from the spectrum's {own!r}")
    bits = spectrum.grid.precision_bits
    top = bits + _GUARD + 8  # F
    with mp.workprec(bits + _GUARD + 16):
        r_mp = mpmath.mpmathify(r)
        frac = top + max(0, 3 - mpmath.mag(r_mp))
        cell = _residual_cell(k, n)
        rx, ry = _to_fixed(r_mp, frac)
        one2 = 1 << 2 * frac
        # ||M||_F^2 at r~, scaled by 2^(2 frac), cut to F + 10 bits
        fro, fro_exp = _cut(n * sums.s2_closed(k, n - 1) * one2
                            + (rx * rx + ry * ry - one2) * sums.w2_closed(k, n - 1), top + 10)
        fro_exp -= 2 * frac
        log_u = term(k, n - 1).bit_length() - 1 + max(0, _size(rx, ry) - 2 - frac)  # <= log2 U
        need_1 = top + 1 + (3 * n).bit_length() - log_u
        need_2 = 2 * top + 2 + (9 * n).bit_length() - 2 * log_u
        need_3 = 2 * top + 2 + (13 * n).bit_length() - 2 * log_u
        need_4 = 2 * top + 10 - 2 * log_u
        points = [tuple(to_fixed(part, frac) for part in (*rho._mpc_, *lam._mpc_))
                  for rho, lam in zip(spectrum.grid.rhos, spectrum.lambdas)]
        # bounds on log2 of M = max(1, |rho~|) and |lambda~| over the grid,
        # and on the floors of _residual_point (see (i) - (vi)) in units of 2^-S
        log_m = max(0, max(_size(x, y) for x, y, _, _ in points) + 1 - frac)
        log_l = max(_size(lx, ly) for _, _, lx, ly in points) + 1 - frac
        (_, _, c2), g, b = cell
        d_psi, d_chi, d_b0 = ((j * k).bit_length() + log_m for j in (6, 12, 8))
        d_e = max(c2.bit_length() + _size(rx, ry) + 2 - frac, d_psi + log_l, 2) + 2
        d_q = (g[2] + g[3] + 2 * g[4] + 4 * g[5]).bit_length() + 2 * log_m
        d_bn = (abs(b[2]) + abs(b[3]) + 2 * abs(b[4]) + 4 * abs(b[5]) + abs(b[7]) + 2 * abs(b[8])
                ).bit_length() + 2 * log_m
        prec = mp.prec
        out = []
        for x, y, lx, ly in points:
            guard = 24 + 2 * log_m
            while True:
                scale = frac + guard  # S
                psi, chi, (ex, ey), q, beta_0, beta_n = _residual_point(
                    k, cell, x, y, (lx, ly), (rx, ry), frac, guard)
                # bounds on log2 of sqrt(Q), E^ and beta_0 from above and
                # of psi and chi from below
                size_psi, size_chi = _size(*psi), _size(*chi)
                log_psi, log_chi = size_psi - 2 - scale, size_chi - 2 - scale
                log_q = -((scale - 1 - max(q.bit_length(), d_q)) // 2)
                log_e = _size(ex, ey) + 1 - scale
                log_b = max(_size(*beta_0), d_b0) + 2 - scale
                # floors (i) - (iii)
                short = max(d_psi + top + 6 - size_psi, d_chi + 2 - size_chi,
                            d_e - scale + top + 2 - log_u - log_psi)
                if short > 0:
                    guard += short
                    continue
                wide = max(frac, need_1 + log_m + log_q - log_psi, need_2 + 2 * (log_e - log_psi),
                           need_3 + 2 * log_m + log_e + log_b - log_chi - 2 * log_psi)
                lift = wide - frac
                px, py, w = _pow_sum_fixed(x << lift, y << lift, n, wide)
                cx, cy = (rx << lift) - px, (ry << lift) - py  # c~, scaled by 2^H
                # B~ = z~^n beta_0 - beta_n, z~^n = conj(rho~^n), scaled by 2^S
                bx = ((px * beta_0[0] + py * beta_0[1]) >> wide) - beta_n[0]
                by = ((px * beta_0[1] - py * beta_0[0]) >> wide) - beta_n[1]
                # K from log2 Y and (4); X~ in units of 2^low
                log_c, size_b = _size(cx, cy) + 1 - wide, _size(bx, by)
                log_y = 2 + max(2 * log_e + w.bit_length() - wide, 2 * log_c + q.bit_length() - scale,
                                1 + log_e + log_c + size_b + 1 - scale - log_chi)
                keep = max(top + 10, need_4 + log_y - 2 * log_psi - (w.bit_length() - 1 - wide))
                # floors (iv) - (vi)
                d_b = max(_size(px, py) + 1 - wide + d_b0, d_bn, 1) + 2
                short = max(2 * log_c + d_q, 1 + log_e + log_c + d_b - log_chi,
                            log_e + log_c + size_b + 1 + d_chi - scale - 2 * log_chi) \
                    - scale - (log_y - keep - 3)
                if short <= 0:
                    break
                guard += short
            low = log_y - keep - 4
            hx, hy = chi
            ux, uy = ex * cx + ey * cy, ex * cy - ey * cx  # conj(E^) c~
            vx, vy = bx * hx + by * hy, by * hx - bx * hy  # B~ conj(chi)
            cross = _shifted(ux * vx - uy * vy, 1 - scale - wide - low) // (hx * hx + hy * hy)
            num = max(0, _shifted((ex * ex + ey * ey) * w, -2 * scale - wide - low)
                      + _shifted((cx * cx + cy * cy) * q, -scale - 2 * wide - low) + cross)
            den = (psi[0] * psi[0] + psi[1] * psi[1]) * w * fro
            low += 2 * scale + wide - fro_exp  # the ratio's exponent
            shift = max(0, 2 * prec + 16 + den.bit_length() - num.bit_length())
            shift += (shift - low) & 1
            root = math.isqrt((num << shift) // den)
            out.append(mp.make_mpf(_raw_mpf(*_add_round(root, (low - shift) // 2, 0, 0, prec))))
    return out


# ---------------------------------------------------------------------------
# closed determinant

@dataclass(frozen=True)
class DetReport:
    det_closed: mpc
    det_oracle: mpc
    r1: mpc
    r2: mpc


def _quadratic_roots(k: int, n: int, r_mp) -> tuple[mpc, mpc]:
    """Roots r1, r2 of x^2 - Sx + Q, the only grid points that can zero an
    eigenvalue; evaluated at the caller's working precision.

    For small |r|, |S| is large and one of S +- disc cancels: it falls
    below 2^-_GUARD |S|, and that root is taken as Q over the other one
    (Vieta), not from the difference."""
    c0, c1, c2 = t_integers(k, n)
    s = (1 - r_mp * c1) / (r_mp * c2)
    q = mpf(c0) / c2
    d = s * s - 4 * q
    if isinstance(d, mpf) and d:
        # mpc_sqrt of a real d: mpf_sqrt(|d|), real for d > 0, imaginary for d < 0
        sign, man, exp, _ = d._mpf_
        root = _sqrt_raw(man, exp, mp.prec)
        disc = mp.make_mpc((fzero, root) if sign else (root, fzero))
    else:
        disc = mpmath.sqrt(mpc(d))
    r1, r2 = (s + disc) / 2, (s - disc) / 2
    tiny = abs(s) * mpf(2) ** -_GUARD
    if _modulus(s + disc) < tiny:
        r1 = q / r2
    elif _modulus(s - disc) < tiny:
        r2 = q / r1
    return r1, r2


def determinant_closed(k: int, n: int, r, precision_bits: int = 256) -> DetReport:
    """Determinant via the quadratic-root product formula, with the product
    of the mpc Horner eigenvalues (_horner_mpc) as the attached oracle.
    _horner_mpc runs on integers but gives the same bits as mpmath's mpc
    Horner, mpf_add's shortcut included, so the printed oracle, rounding
    noise and all, is mpmath's.

    Raises DegenerateCase when some rho_m collides with a reciprocal
    characteristic root (the rational closed form degenerates there).
    """
    check_k(k)
    grid = eigen_grid(n, r, precision_bits)
    roots = char_roots(k, precision_bits)
    pn1 = term(k, n - 1)
    tol = mpf(2) ** -tolerance_bits(precision_bits)
    with mp.workprec(precision_bits + _GUARD):
        if any(_degenerate(k, rho, tol) for rho in grid.rhos):
            raise DegenerateCase(
                f"rho grid hits a reciprocal characteristic root at k={k}, n={n}, r={r!r}"
            )
        r_mp = mpmath.mpmathify(r)
        r1, r2 = _quadratic_roots(k, n, r_mp)
        alpha, beta, gamma = mpc(roots.alpha), roots.beta, roots.gamma
        denom = (alpha**-n - r_mp) * (beta**-n - r_mp) * (gamma**-n - r_mp)
        det = (
            (-1) ** n
            * r_mp**n
            * mpmath.mpmathify(pn1**n)
            * (r1**n - r_mp)
            * (r2**n - r_mp)
            / denom
        )
        oracle = mpc(1)
        for lam in _horner_mpc(k, n, grid.rhos):
            oracle *= lam
        det_closed, r1, r2 = mpc(det), mpc(r1), mpc(r2)
    return DetReport(det_closed=det_closed, det_oracle=oracle, r1=r1, r2=r2)


# ---------------------------------------------------------------------------
# critical values of the invertibility scan

def _critical_magnitude(k: int, n: int) -> mpf:
    """(P(n)/P(n-1))^(n/2), a positive real, bit for bit mpmath's
    ratio ** (mpf(n) / 2) under round-nearest: mpf_pow_int(ratio, n/2) for
    even n, and for odd n its half-integer branch,
    mpf_pow_int(mpf_sqrt(ratio, prec + 10), n), with _sqrt_raw."""
    ratio = mpf(term(k, n)) / term(k, n - 1)
    if n % 2 == 0:
        return ratio ** (n // 2)
    prec = mp.prec
    _, man, exp, _ = ratio._mpf_
    return mp.make_mpf(mpf_pow_int(_sqrt_raw(man, exp, prec + 10), n, prec, round_nearest))


def _critical_moduli(k: int, n: int, sign: int, precision_bits: int) -> tuple[mpf, mpf, mpf, mpf]:
    """(r*, closed residual, smallest |lambda_m|, largest |lambda_m|) at
    bits + _GUARD bits for r* = sign (p/q)^(n/2), p = P(n), q = P(n-1),
    which the sufficient theorem leaves uncertified: the scan's two signals.
    The closed residual is min |r_i^n - r*| / |r*| over the roots r_i of
    _quadratic_roots; complex r_i are an exact conjugate pair (r* is real)
    and take one fixed-point power.  The moduli are _modulus_extremes' on
    the grid of _fixed_grid with root_sq = p/q, the roots of the exact r*;
    Horner runs only on the candidates that its proved double-precision
    pass leaves, usually one or two points, and a cell takes two square
    roots whatever n is."""
    with mp.workprec(precision_bits + _GUARD):
        r_star = sign * _critical_magnitude(k, n)
        r1, r2 = _quadratic_roots(k, n, r_star)
        # z^n in fixed point errs by less than 3 n max(1, |z|)^n 2^-frac
        # (_pow_sum_fixed), z and r* by 2^-frac per part when they are scaled.
        pair = (r1,) if r2 == r1.conjugate() else (r1, r2)
        frac = precision_bits + _GUARD + 24
        rx, _ = _to_fixed(r_star, frac)
        powers = (_pow_sum_fixed(*_to_fixed(z, frac), n, frac)[:2] for z in pair)
        closed_res = min(_modulus(_from_fixed(x - rx, y, frac)) for x, y in powers) / abs(r_star)
        root_sq = Fraction(term(k, n), term(k, n - 1))
        min_mag, _, max_mag = _modulus_extremes(k, n, r_star, precision_bits, root_sq)
    return r_star, closed_res, min_mag, max_mag


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


# ---------------------------------------------------------------------------
# published-table reproduction

# Rows of the k=1 reference table: (n, r as decimal string, published lower
# bound, published sigma, published upper bound).  The (8, 4) upper entry is
# a known misprint: the formula max(|r|,1)*s1(7) gives 1408.00.
PUBLISHED_TABLE = (
    (5, "1", "14.11", "21.00", "21.00"),
    (5, "1.08", "14.35", "22.19", "22.68"),
    (5, "1.70", "16.68", "32.72", "35.70"),
    (5, "2", "18.03", "38.11", "42.00"),
    (5, "4", "28.79", "74.76", "84.00"),
    (5, "5", "34.74", "93.20", "105.00"),
    (8, "1", "232.68", "352.00", "352.00"),
    (8, "1.08", "239.15", "375.06", "380.16"),
    (8, "1.70", "298.02", "571.06", "598.40"),
    (8, "2", "330.42", "668.84", "704.00"),
    (8, "4", "373.88", "1326.34", "1498.00"),
    (8, "5", "703.18", "1655.92", "1760.00"),
)

LOWER_TOL = 0.005
UPPER_TOL = 0.005
SIGMA_TOL = 0.01


@dataclass(frozen=True)
class Table1Row:
    """One row of table1_report, its fields in the order of the table1 CSV columns."""

    n: int
    r: str
    lower_published: float
    lower_ours: float
    sigma_published: float
    sigma_ours: float
    upper_published: float
    upper_ours: float
    flags: tuple


def table1_report() -> list[Table1Row]:
    """Recompute the published k=1 bounds table and flag disagreements.

    The published lower-bound column for r != 1 does not match the stated
    lower-bound formula (the implied weighted sums match no quantity we can
    identify); both values are reported side by side and the difference is
    flagged rather than reconciled.
    """
    rows = []
    for n, r_str, lower_p, sigma_p, upper_p in PUBLISHED_TABLE:
        r = Fraction(r_str)
        lower, upper = spectral_bounds(1, n, r)
        sigma = spectral_numeric(build_pell_complex(1, n, r))
        lower_published, sigma_published, upper_published = (
            float(lower_p), float(sigma_p), float(upper_p))
        flags = []
        if abs(lower - lower_published) > LOWER_TOL:
            flags.append("lower_mismatch")
        if abs(sigma - sigma_published) > SIGMA_TOL:
            flags.append("sigma_mismatch")
        if abs(upper - upper_published) > UPPER_TOL:
            flags.append("upper_erratum")
        rows.append(Table1Row(
            n=n, r=r_str,
            lower_ours=lower, lower_published=lower_published,
            sigma_ours=sigma, sigma_published=sigma_published,
            upper_ours=upper, upper_published=upper_published,
            flags=tuple(flags),
        ))
    return rows

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

import numpy as np
import mpmath
from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .circulant import abs_sq, build_pell_complex, is_exact
from .errors import DegenerateCase, ZeroR
from .sequence import (_GUARD, char_roots, check_bits, check_int, check_k, recip_poly,
                       term, terms_upto)
from . import sums


# ---------------------------------------------------------------------------
# closed norms and bounds

def frobenius_sq_closed(k: int, n: int, r):
    """Squared Frobenius norm; exact (int or Fraction) for exact rational r."""
    check_k(k)
    check_int(n, 2, "matrix order n")
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
    check_k(k)
    check_int(n, 2, "matrix order n")
    return n * sums.s1_closed(k, n - 1) + (abs(r) - 1) * sums.w1_closed(k, n - 1)


def spectral_bounds(k: int, n: int, r) -> tuple[float, float]:
    """(lower, upper) enclosure of the largest singular value, as doubles;
    OverflowError when either does not fit one."""
    check_k(k)
    check_int(n, 2, "matrix order n")
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
    k: int
    n: int
    r: object
    frobenius: float
    l1: float
    spectral_lower: float
    spectral_upper: float
    sigma: float
    row_length_norm: float
    col_length_norm: float


def norm_report(k: int, n: int, r) -> NormReport:
    lower, upper = spectral_bounds(k, n, r)
    a = build_pell_complex(k, n, r)
    r1, c1 = row_col_length_norms(a)
    return NormReport(
        k=k, n=n, r=r,
        frobenius=frobenius_closed(k, n, r),
        l1=float(l1_closed(k, n, r)),
        spectral_lower=lower,
        spectral_upper=upper,
        sigma=spectral_numeric(a),
        row_length_norm=r1,
        col_length_norm=c1,
    )


# ---------------------------------------------------------------------------
# fixed-point Gaussian-integer kernel
#
# eigenvalues_direct, eigenpair_residuals and the invertibility scan (through
# _modulus_extremes) run on complex numbers held as integer pairs scaled by
# 2^F, and all three take the generator polynomial from _horner_fixed.  No
# other module sees these pairs.  _to_fixed rounds each part down, and every
# product of two pairs is shifted back by F bits, which rounds down again, so
# each conversion and each product errs by less than 2^-F per part and
# sqrt(2) 2^-F in modulus; sums of pairs are exact.  _from_fixed rounds the
# result once to the working precision.

def _to_fixed(z, frac_bits: int) -> tuple[int, int]:
    """(re, im) of an mpc or mpf as integers scaled by 2^frac_bits, each rounded down."""
    return to_fixed(z.real._mpf_, frac_bits), to_fixed(z.imag._mpf_, frac_bits)


def _from_fixed(x: int, y: int, frac_bits: int) -> mpc:
    """(x + i y) 2^-frac_bits as an mpc, each part rounded once to the
    working precision."""
    prec = mp.prec
    return mp.make_mpc((from_man_exp(x, -frac_bits, prec, round_nearest),
                        from_man_exp(y, -frac_bits, prec, round_nearest)))


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
    """The n-th roots of r: rho_m = root * omega^m with root the principal
    n-th root of r."""

    n: int
    r: object
    precision_bits: int
    root: mpc
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
    if r == 0:
        raise ZeroR("r must be nonzero")
    if not mpmath.isfinite(r):
        raise ValueError(f"r must be finite, got {r!r}")


def _r_to_mp(r):
    # Convert under the active precision context.
    if isinstance(r, complex):
        return mpc(r)
    return mpmath.mpmathify(r)


def _principal_root(n: int, r_mp) -> mpc:
    """The principal n-th root of r_mp at the working precision."""
    if isinstance(r_mp, mpf) and r_mp > 0:
        return mpc(r_mp ** (mpf(1) / n))
    return mpmath.exp(mpmath.log(mpc(r_mp)) / n)


def eigen_grid(n: int, r, precision_bits: int = 256) -> EigenGrid:
    """The grid at bits + _GUARD bits, each rho_m from its own expjpi.
    eigenvalues_closed and determinant_closed evaluate on it, so the eig and
    det reports depend on these exact bytes."""
    _check_grid(n, r, precision_bits)
    with mp.workprec(precision_bits + _GUARD):
        root = _principal_root(n, _r_to_mp(r))
        rhos = tuple(root * mpmath.expjpi(mpf(2 * m) / n) for m in range(n))
    return EigenGrid(n=n, r=r, precision_bits=precision_bits, root=root, rhos=rhos)


def _conjugate_half(n: int, r) -> tuple[int, int]:
    """(h, s): rho_0 .. rho_(h-1) are the grid points to compute, and
    rho_m = conj rho_(s-m) for h <= m < n.

    For real r (an int, Fraction, float or mpf) the n-th roots of r are
    closed under conjugation: with r > 0, rho_m = |r|^(1/n) omega^m and
    s = n, so h = floor(n/2) + 1; with r < 0, rho_m = |r|^(1/n)
    exp((2m + 1) pi i / n) and s = n - 1, so h = ceil(n/2).  Complex-typed
    r, even with a zero imaginary part, gives h = s = n: every point."""
    if not isinstance(r, (int, Fraction, float, mpf)):
        return n, n
    s = n if r > 0 else n - 1
    return s // 2 + 1, s


def _conjugate_tail(head: list, n: int, s: int) -> list:
    """head, a list of integer pairs for m < len(head), completed to n pairs
    by pair m = conj pair (s - m); see _conjugate_half."""
    return head + [(x, -y) for x, y in (head[s - m] for m in range(len(head), n))]


def _fixed_grid(n: int, r, precision_bits: int) -> tuple[int, mpc, list]:
    """(F, root, points): the n-th roots of r as Gaussian integers scaled by
    2^F, F = bits + _GUARD + 8 + max(0, 3 - mag(root)), with root the
    principal n-th root of r.

    mpmath computes root and omega = exp(2 pi i / n) once each, exact to
    2^-G in absolute terms, G = F + bit_length(n) + 4 + max(0, mag(root));
    the root's working precision also covers the factor |log(r) / n| by
    which exp(log(r) / n) magnifies rounding.  The points are
    rho_{m+1} = rho_m * omega, products on integers scaled by 2^G, each
    shifted down to F bits.  For real r only the head of _conjugate_half is
    computed so, about n/2 points; the others are the exact conjugates of
    their mirror points' integer pairs.

    Error: each point lies within 2^(1-F) of the exact rho_m.  The G-bit
    products drift by less than 5 n max(1, |root|) 2^-G <= 2^-(F+1) over
    the grid, and the shift to F bits adds less than sqrt(2) 2^-F.  A
    mirrored point errs by exactly as much as its mirror, because the
    exact rho_m are conjugates of each other too.
    """
    mag_r = mpmath.mag(r)
    top = -(-mag_r // n) + 2  # >= mag(root)
    spread = ((abs(mag_r) + 5) // n + 2).bit_length() + 3  # 2^spread > 8 (|log(r) / n| + 1)
    # G + mag(root) grows with mag(root), so top bounds it from above
    with mp.workprec(precision_bits + _GUARD + 12 + n.bit_length()
                     + max(3, top) + max(0, top) + spread):
        root = _principal_root(n, _r_to_mp(r))
    size = mpmath.mag(root)
    frac = precision_bits + _GUARD + 8 + max(0, 3 - size)
    guard = frac + n.bit_length() + 4 + max(0, size)
    with mp.workprec(guard + 4):
        wx, wy = _to_fixed(mpmath.expjpi(mpf(2) / n), guard)
    x, y = _to_fixed(root, guard)
    head, s = _conjugate_half(n, r)
    points = [(x, y)]
    for _ in range(head - 1):
        x, y = (x * wx - y * wy) >> guard, (x * wy + y * wx) >> guard
        points.append((x, y))
    shift = guard - frac
    return frac, root, _conjugate_tail([(x >> shift, y >> shift) for x, y in points], n, s)


def _add_round(sm: int, se: int, tm: int, te: int, prec: int) -> tuple[int, int]:
    """mpmath's mpf_add(s, t, prec, round_nearest) on s = sm 2^se and
    t = tm 2^te, each mantissa signed and odd (or 0, for mpmath's fzero):
    the sum rounded to prec bits, ties to even, as (odd mantissa or 0,
    exponent).

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
        a = (t >> 1) + 1 if t & 1 and (t & 2 or a & ((1 << (cut - 1)) - 1)) else t >> 1
        e += cut
    if not a & 1:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        e += zeros
    return (a if m > 0 else -a), e


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
    coeffs = []
    for a in reversed(terms_upto(k, n - 1)):
        zeros = (a & -a).bit_length() - 1 if a else 0
        coeffs.append((a >> zeros, zeros))
    lams = []
    for rho in rhos:
        (xs, x, xe, _), (ys, y, ye, _) = rho._mpc_
        x, y = -x if xs else x, -y if ys else y
        re = re_exp = im = im_exp = 0
        for c, c_exp in coeffs:
            # acc = acc * rho + c
            p, p_exp = _add_round(re * x, re_exp + xe, -im * y, im_exp + ye, prec)
            im, im_exp = _add_round(re * y, re_exp + ye, im * x, im_exp + xe, prec)
            re, re_exp = _add_round(p, p_exp, c, c_exp, prec)
        lams.append(mp.make_mpc((from_man_exp(re, re_exp), from_man_exp(im, im_exp))))
    return lams


def _direct_fixed(k: int, n: int, r, precision_bits: int) -> tuple[int, mpc, list, list]:
    """(F, root, points, values): the points of _fixed_grid and the order-n
    generator polynomial at each of them, all as integer pairs scaled by
    2^F; see eigenvalues_direct for F and the error.  _horner_fixed runs on
    the head of _conjugate_half only, and for real r the other values are
    conjugates, since the generator's coefficients are integers."""
    check_k(k)
    _check_grid(n, r, precision_bits)
    frac, root, points = _fixed_grid(n, r, precision_bits)
    head, s = _conjugate_half(n, r)
    coeffs = [a << frac for a in reversed(terms_upto(k, n - 1))]
    values = [_horner_fixed(coeffs, x, y, frac) for x, y in points[:head]]
    return frac, root, points, _conjugate_tail(values, n, s)


def _modulus_extremes(k: int, n: int, r, precision_bits: int) -> tuple[mpf, int, mpf]:
    """(smallest |lambda_m|, its index m, largest |lambda_m|) over the direct
    eigenvalues.  The moduli are compared squared on the kernel's integers,
    so only the two extremes are rounded to bits + _GUARD bits, as
    eigenvalues_direct rounds every lambda, and take a square root."""
    frac, _, _, values = _direct_fixed(k, n, r, precision_bits)
    sq = [x * x + y * y for x, y in values]
    lo = min(range(n), key=sq.__getitem__)
    hi = max(range(n), key=sq.__getitem__)
    with mp.workprec(precision_bits + _GUARD):
        return abs(_from_fixed(*values[lo], frac)), lo, abs(_from_fixed(*values[hi], frac))


def eigenvalues_direct(k: int, n: int, r, precision_bits: int = 256) -> EigenSpectrum:
    """lambda_m as the generator polynomial evaluated at rho_m by Horner,
    on Gaussian integers scaled by 2^F (see _to_fixed and _horner_fixed), at
    the points of _fixed_grid.  F = bits + _GUARD + 8 + max(0, 3 - mag(rho));
    the extra bits for small |rho| keep the relative error of each point
    below 2^-(bits + _GUARD + 8).  Each lambda is rounded once to
    bits + _GUARD bits, and so are the points and root that make up the
    returned grid.

    Error bound: with a_l the generator row, rho_m the exact n-th roots of r
    and lambda~_m the kernel's value before that rounding,

        |lambda~_m - Psi(rho_m)| <= 2^(1-F) * (sum_{j<n-1} |rho|^j + sum_l l a_l |rho|^(l-1)).

    The first sum carries the floor of each Horner product, the second the
    error of each point, which is below 2^(1-F) (see _fixed_grid).

    For real r, Horner runs on the head of the grid only, about n/2 points
    (_conjugate_half), and lambda~ at a mirrored point is the exact
    conjugate of lambda~ at its mirror.  The a_l are real, so
    Psi(conj rho) = conj Psi(rho) and |conj lambda~ - Psi(conj rho)| =
    |lambda~ - Psi(rho)|: the bound holds at every point unchanged.  The
    mirrored values can differ in their last bits from Horner run at the
    mirrored point itself, whose floors round the other way.
    """
    frac, root, points, values = _direct_fixed(k, n, r, precision_bits)
    with mp.workprec(precision_bits + _GUARD):
        lams = tuple(_from_fixed(x, y, frac) for x, y in values)
        grid = EigenGrid(n=n, r=r, precision_bits=precision_bits, root=+root,
                         rhos=tuple(_from_fixed(x, y, frac) for x, y in points))
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
    doubles at z = complex(rho).  False means undecided: inside that margin,
    for k >= 2^32 (2k is then no exact double) and when a part of z exceeds
    2^63 in size or is not finite.

    Proof, with u = 2^-53, R = |rho| and Pbar(t) = 1 + 2k t + k t^2 + t^3
    <= (2k + 3) (1 + t)^3 / 3, the absolute-value polynomial:
    - mpmath's complex() rounds each part to 53 bits, to nearest under the
      default context (round_fast would round down), then scales it by
      ldexp; either way a part moves by less than 2^-52 of itself, plus
      2^-1073 below the normal range.  So |z - rho| < 2^-52 R + 2^-1072,
      and with |psi'(t)| <= (2k + 3) (1 + |t|)^2 on the segment,
      |psi(z) - psi(rho)| < 2^-51 (2k + 3) (1 + R)^3.
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
      gives tol = 2^-(bits // 2) <= 2^-32), psi(rho), |psi| and
      (1 + |rho|)^3 err by less than 2^-90 (2k + 3) (1 + R)^3, so it finds
      |psi| > 2^-18 (1 + R)^3 > tol (1 + |rho|)^3: generic.
    """
    z = complex(rho)
    if k >= 1 << 32 or not (abs(z.real) <= 2.0 ** 63 and abs(z.imag) <= 2.0 ** 63):
        return False
    return abs(1 - z * (2 * k + z * (k + z))) > 2.0 ** -20 * (2 * k + 3) * (1 + abs(z)) ** 3


def _degenerate(k: int, rho, tol) -> bool:
    """True when |psi(rho)| < tol (1 + |rho|)^3: there rho is too close to
    a reciprocal characteristic root for the rational closed form.
    _clearly_generic decides most points in doubles; the others take psi
    and the two moduli in mpc."""
    return not _clearly_generic(k, rho) and abs(recip_poly(k, rho)) < tol * (1 + abs(rho)) ** 3


def eigenvalues_closed(k: int, n: int, r, precision_bits: int = 256) -> EigenSpectrum:
    """lambda_m from the rational closed form, with degenerate-branch dispatch
    when rho_m falls within 2^(-bits/2) of a reciprocal characteristic root."""
    check_k(k)
    check_int(n, 3, "matrix order n")
    grid = eigen_grid(n, r, precision_bits)
    roots = char_roots(k, precision_bits)
    pn, pn1, pn2 = term(k, n), term(k, n - 1), term(k, n - 2)
    tol = mpf(2) ** (-precision_bits // 2)
    lams, branches = [], []
    with mp.workprec(precision_bits + _GUARD):
        r_mp = _r_to_mp(r)
        alpha, beta, gamma = mpc(roots.alpha), roots.beta, roots.gamma
        branch_table = (
            (1 / alpha, "alpha", (alpha, beta, gamma)),
            (1 / beta, "beta", (beta, alpha, gamma)),
            (1 / gamma, "gamma", (gamma, alpha, beta)),
        )
        for rho in grid.rhos:
            if not _degenerate(k, rho, tol):
                num = rho - r_mp * pn - r_mp * rho * (k * pn1 + pn2) - r_mp * rho**2 * pn1
                lams.append(num / recip_poly(k, rho))
                branches.append("generic")
            else:
                recip, name, (mu, nu, xi) = min(
                    branch_table, key=lambda row: abs(rho - row[0])
                )
                lams.append(_degenerate_lambda(mu, nu, xi, n))
                branches.append(name)
    return EigenSpectrum(k=k, grid=grid, lambdas=tuple(lams), branches=tuple(branches))


def eigenpair_residuals(k: int, n: int, r, spectrum: EigenSpectrum | None = None,
                        precision_bits: int | None = None) -> list:
    """Relative residuals ||M v_m - lambda_m v_m|| / (||M||_F ||v_m||), v_m = (rho_m^i),
    for the given spectrum or the direct one.  precision_bits defaults to
    the spectrum's precision, or 256 without a spectrum; a value other than
    the spectrum's raises ValueError.

    With a_l the generator row and T = sum_l a_l rho^l, row i of
    M v - lambda v is exactly

        e_i = rho^i (T - lambda) + (r - rho^n) h_i,   h_i = sum_{j<i} a_{n-i+j} rho^j,

    so e_0 = T - lambda and e_i = rho e_(i-1) + a_(n-i) (r - rho^n).  It all
    runs on Gaussian integers scaled by 2^F', F' = F + max(0, 3 - mag(r))
    with F = bits + _GUARD + 8; the extra bits for small |r| keep the
    relative error of rho and of r below 2^(0.5-F).  T comes from
    _horner_fixed, rho^n and ||v||^2 = sum_{i<n} |rho|^(2i) from one binary
    powering, and the e_i are residual-sized, so each step of the recurrence
    multiplies the F'-bit rho by small integers.  The square root and the
    quotient by ||v|| are taken on integers too; mpmath divides once by
    ||M||_F.

    Error bound: for rho_m with |rho_m^n / r - 1| <= 2^-16 (every grid from
    eigen_grid and the grid of every spectrum from eigenvalues_direct meets
    this), A = sum_l a_l and res_m the exact residual,

        |returned_m - res_m| <= 2^(4-F) * n * (max(1, |r|) * A / ||M||_F + res_m).

    The first term bounds the error in ||M v - lambda v|| relative to
    ||M||_F ||v||, in units of max(1, |r|) A / ||M||_F.  Rounding rho moves
    v by n 2^(0.5-F) ||v||, and ||M - T|| <= 2 max(1, |r|) A, which gives
    2^(1.5-F) n; the floors of T, lambda, r, rho^n
    (|d rho^n| < 2^(1.5-F') n max(1, |rho|)^(n-1)) and of each step add less
    than 2^(2.7-F) n.  The second term is the relative error of ||v||:
    n 2^(0.5-F) from the rounded rho, as much again from (T - lambda) dv,
    and 3.5 n 2^-F from the floors of the powering.
    """
    if spectrum is None:
        spectrum = eigenvalues_direct(k, n, r, 256 if precision_bits is None else precision_bits)
    elif precision_bits not in (None, spectrum.grid.precision_bits):
        raise ValueError(f"precision_bits {precision_bits!r} differs from the spectrum's"
                         f" {spectrum.grid.precision_bits}")
    bits = spectrum.grid.precision_bits
    terms = terms_upto(k, n - 1)
    with mp.workprec(bits + _GUARD + 16):
        r_mp = _r_to_mp(r)
        frac = bits + _GUARD + 8 + max(0, 3 - mpmath.mag(r_mp))
        fro = mpmath.sqrt(mpmath.mpmathify(frobenius_sq_closed(k, n, abs(r_mp))))
        coeffs = [a << frac for a in reversed(terms)]
        wrapped = terms[:0:-1]  # a_(n-i) for rows i = 1 .. n-1
        rx, ry = _to_fixed(r_mp, frac)
        one = 1 << frac
        bits_n = bin(n)[3:]
        prec = mp.prec
        out = []
        for rho, lam in zip(spectrum.grid.rhos, spectrum.lambdas):
            x, y = _to_fixed(rho, frac)
            s, d = x + y, y - x
            # rho^m and w = sum_{i<m} |rho|^(2i) by binary powering up to m = n
            q = (x * x + y * y) >> frac
            px, py, w = x, y, one
            for bit in bits_n:
                w += (w * ((px * px + py * py) >> frac)) >> frac
                px, py = (px * px - py * py) >> frac, (2 * px * py) >> frac
                if bit == "1":
                    w = one + ((w * q) >> frac)
                    t = x * (px + py)
                    px, py = (t - py * s) >> frac, (t + px * d) >> frac
            cx, cy = rx - px, ry - py
            tx, ty = _horner_fixed(coeffs, x, y, frac)
            lx, ly = _to_fixed(lam, frac)
            ex, ey = tx - lx, ty - ly
            err_sq = ex * ex + ey * ey
            for a in wrapped:
                t = x * (ex + ey)
                ex, ey = ((t - ey * s) >> frac) + a * cx, ((t + ex * d) >> frac) + a * cy
                err_sq += ex * ex + ey * ey
            # sqrt(err_sq 2^-frac / w) to about prec + 8 bits, on integers
            shift = max(0, 2 * prec + 16 + w.bit_length() - err_sq.bit_length())
            shift += (shift + frac) & 1
            out.append(mpf((math.isqrt((err_sq << shift) // w), -(frac + shift) // 2)) / fro)
    return out


# ---------------------------------------------------------------------------
# closed determinant

@dataclass(frozen=True)
class DetReport:
    k: int
    n: int
    r: object
    precision_bits: int
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
    pn, pn1, pn2 = term(k, n), term(k, n - 1), term(k, n - 2)
    s = (1 - r_mp * (k * pn1 + pn2)) / (r_mp * pn1)
    q = mpf(pn) / pn1
    disc = mpmath.sqrt(mpc(s * s - 4 * q))
    r1, r2 = (s + disc) / 2, (s - disc) / 2
    tiny = abs(s) * mpf(2) ** -_GUARD
    if abs(s + disc) < tiny:
        r1 = q / r2
    elif abs(s - disc) < tiny:
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
    tol = mpf(2) ** (-precision_bits // 2)
    with mp.workprec(precision_bits + _GUARD):
        if any(_degenerate(k, rho, tol) for rho in grid.rhos):
            raise DegenerateCase(
                f"rho grid hits a reciprocal characteristic root at k={k}, n={n}, r={r!r}"
            )
        r_mp = _r_to_mp(r)
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
    return DetReport(k=k, n=n, r=r, precision_bits=precision_bits,
                     det_closed=det_closed, det_oracle=oracle, r1=r1, r2=r2)


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
    n: int
    r: str
    lower_ours: float
    lower_published: float
    sigma_ours: float
    sigma_published: float
    upper_ours: float
    upper_published: float
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

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
by Horner, the closed path uses a rational expression in rho_m with three
degenerate branches when rho_m collides with a reciprocal characteristic
root.  Everything high-precision runs under mpmath workprec; everything
double-precision runs on numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import mpmath
from mpmath import mp, mpf, mpc
from mpmath.libmp import to_fixed

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
# eigenvalues_direct and eigenpair_residuals run on complex numbers held as
# integer pairs scaled by 2^F.  _to_fixed rounds each part down, and every
# product of two pairs is shifted back by F bits, which rounds down again,
# so each conversion and each product errs by less than 2^-F per part and
# sqrt(2) 2^-F in modulus; sums of pairs are exact.  _from_fixed rounds the
# result once to the working precision.

def _to_fixed(z, frac_bits: int) -> tuple[int, int]:
    """(re, im) of an mpc as integers scaled by 2^frac_bits, each rounded down."""
    return to_fixed(z.real._mpf_, frac_bits), to_fixed(z.imag._mpf_, frac_bits)


def _from_fixed(x: int, y: int, frac_bits: int) -> mpc:
    """(x + i y) 2^-frac_bits as an mpc, each part rounded once to the
    working precision."""
    return mpc(mpf((x, -frac_bits)), mpf((y, -frac_bits)))


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


def _require_nonzero_r(r):
    if r == 0:
        raise ZeroR("r must be nonzero")


def _r_to_mp(r):
    # Convert under the active precision context.
    if isinstance(r, complex):
        return mpc(r)
    return mpmath.mpmathify(r)


def eigen_grid(n: int, r, precision_bits: int = 256) -> EigenGrid:
    check_int(n, 2, "matrix order n")
    check_bits(precision_bits)
    _require_nonzero_r(r)
    with mp.workprec(precision_bits + _GUARD):
        r_mp = _r_to_mp(r)
        if isinstance(r_mp, mpf) and r_mp > 0:
            root = mpc(r_mp ** (mpf(1) / n))
        else:
            root = mpmath.exp(mpmath.log(mpc(r_mp)) / n)
        rhos = tuple(root * mpmath.expjpi(mpf(2 * m) / n) for m in range(n))
    return EigenGrid(n=n, r=r, precision_bits=precision_bits, root=root, rhos=rhos)


def _horner_mpc(k: int, n: int, rhos) -> list:
    """The order-n generator polynomial at each rho, by mpc Horner at the
    working precision.  determinant_closed multiplies these for its oracle
    product; the tests compare the fixed-point kernel with them."""
    coeffs = [mpmath.mpmathify(t) for t in terms_upto(k, n - 1)]
    lams = []
    for rho in rhos:
        acc = mpc(0)
        for c in reversed(coeffs):
            acc = acc * rho + c
        lams.append(acc)
    return lams


def eigenvalues_direct(k: int, n: int, r, precision_bits: int = 256) -> EigenSpectrum:
    """lambda_m as the generator polynomial evaluated at rho_m by Horner,
    on Gaussian integers scaled by 2^F (see _to_fixed), with
    F = bits + _GUARD + 8 + max(0, 3 - mag(rho)); the extra bits for small
    |rho| keep the relative error of each converted rho_m below
    2^-(bits + _GUARD + 8).  Each lambda is rounded once to bits + _GUARD
    bits.

    Error bound: with a_l the generator row and lambda~_m the kernel's
    value before that rounding,

        |lambda~_m - Psi(rho_m)| <= 2^(1-F) * (sum_{j<n-1} |rho|^j + sum_l l a_l |rho|^(l-1)).

    The first sum carries the floor of each Horner product, the second the
    conversion of rho_m.
    """
    check_k(k)
    grid = eigen_grid(n, r, precision_bits)
    with mp.workprec(precision_bits + _GUARD):
        frac = precision_bits + _GUARD + 8 + max(0, 3 - mpmath.mag(grid.root))
        top, *rest = [a << frac for a in reversed(terms_upto(k, n - 1))]
        lams = []
        for rho in grid.rhos:
            x, y = _to_fixed(rho, frac)
            s, d = x + y, y - x
            ax, ay = top, 0
            for a in rest:
                # (ax + i ay)(x + i y) from three products
                t = x * (ax + ay)
                ax, ay = ((t - ay * s) >> frac) + a, (t + ax * d) >> frac
            lams.append(_from_fixed(ax, ay, frac))
    return EigenSpectrum(k=k, grid=grid, lambdas=tuple(lams), branches=("direct",) * n)


def _degenerate_lambda(mu, nu, xi, n):
    # lambda at rho = 1/mu, where {mu, nu, xi} are the characteristic roots.
    head = n * mu / ((mu - nu) * (mu - xi))
    t_nu = nu * (nu**n - mu**n) / (mu ** (n - 1) * (nu - mu) ** 2 * (nu - xi))
    t_xi = xi * (xi**n - mu**n) / (mu ** (n - 1) * (xi - mu) ** 2 * (xi - nu))
    return head + t_nu + t_xi


def _generic_psi(k: int, rho, tol):
    """psi(rho), or None when |psi(rho)| < tol (1 + |rho|)^3: there rho is
    too close to a reciprocal characteristic root for the rational closed
    form."""
    psi = recip_poly(k, rho)
    return psi if abs(psi) >= tol * (1 + abs(rho)) ** 3 else None


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
            psi = _generic_psi(k, rho, tol)
            if psi is not None:
                num = rho - r_mp * pn - r_mp * rho * (k * pn1 + pn2) - r_mp * rho**2 * pn1
                lams.append(num / psi)
                branches.append("generic")
            else:
                recip, name, (mu, nu, xi) = min(
                    branch_table, key=lambda row: abs(rho - row[0])
                )
                lams.append(_degenerate_lambda(mu, nu, xi, n))
                branches.append(name)
    return EigenSpectrum(k=k, grid=grid, lambdas=tuple(lams), branches=tuple(branches))


def eigenpair_residuals(k: int, n: int, r, spectrum: EigenSpectrum | None = None,
                        precision_bits: int = 256) -> list:
    """Relative residuals ||M v_m - lambda_m v_m|| / (||M||_F ||v_m||), v_m = (rho_m^i).

    With a_l the generator row, T = sum_l a_l rho^l and
    tail_i = sum_{l >= n-i} a_l rho^l, row i of M v - lambda v is exactly

        rho^i * ((T - lambda) + (r / rho^n - 1) * tail_i),

    so |rho|^(2i) weighs each row in both ||M v - lambda v||^2 and ||v||^2.
    Powers, T, the tails and the rows run on Gaussian integers scaled by
    2^F', F' = F + max(0, 3 - mag(r)) with F = bits + _GUARD + 8; the extra
    bits for small |r| keep every power's relative error at most
    2^(1.5-F) i.  mpmath does the one division r / rho^n per rho and the
    final square root and quotient.

    Error bound: for the given rho_m and lambda_m (|r / rho_m^n - 1| <= 1,
    which every grid from eigen_grid meets), A = sum_l a_l and res_m the
    exact residual,

        |returned_m - res_m| <= 2^(4-F) * n * (max(1, |r|) * A / ||M||_F + res_m).

    The first term is the kernel's absolute error in ||M v - lambda v||
    relative to ||M||_F ||v||; the second is the relative error of the
    weights |rho|^(2i).
    """
    if spectrum is None:
        spectrum = eigenvalues_direct(k, n, r, precision_bits)
    bits = spectrum.grid.precision_bits
    terms = terms_upto(k, n - 1)
    with mp.workprec(bits + _GUARD + 16):
        r_mp = _r_to_mp(r)
        frac = bits + _GUARD + 8 + max(0, 3 - mpmath.mag(r_mp))
        fro = mpmath.sqrt(mpmath.mpmathify(frobenius_sq_closed(k, n, abs(r_mp))))
        out = []
        for rho, lam in zip(spectrum.grid.rhos, spectrum.lambdas):
            x, y = _to_fixed(rho, frac)
            powers = []
            px, py, tx, ty = 1 << frac, 0, 0, 0
            for a in terms:
                powers.append((px, py))
                tx += a * px
                ty += a * py
                px, py = (px * x - py * y) >> frac, (px * y + py * x) >> frac
            # (px, py) is now rho^n, (tx, ty) is T; c = r / rho^n - 1, d = T - lambda
            cx, cy = _to_fixed(r_mp / _from_fixed(px, py, frac) - 1, frac)
            lx, ly = _to_fixed(lam, frac)
            dx, dy = tx - lx, ty - ly
            err_sq = v_sq = ux = uy = 0  # (ux, uy) is tail_i
            for i, (vx, vy) in enumerate(powers):
                if i:
                    a = terms[n - i]
                    qx, qy = powers[n - i]
                    ux += a * qx
                    uy += a * qy
                ex = dx + ((cx * ux - cy * uy) >> frac)
                ey = dy + ((cx * uy + cy * ux) >> frac)
                weight = vx * vx + vy * vy
                v_sq += weight
                err_sq += weight * (ex * ex + ey * ey)
            out.append(mpmath.sqrt(mpf((err_sq, -2 * frac)) / v_sq) / fro)
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
    used_generic_formula: bool


def _quadratic_roots(k: int, n: int, r_mp) -> tuple[mpc, mpc]:
    """Roots r1, r2 of x^2 - Sx + Q, the only grid points that can zero an
    eigenvalue; evaluated at the caller's working precision."""
    pn, pn1, pn2 = term(k, n), term(k, n - 1), term(k, n - 2)
    s = (1 - r_mp * (k * pn1 + pn2)) / (r_mp * pn1)
    q = mpf(pn) / pn1
    disc = mpmath.sqrt(mpc(s * s - 4 * q))
    return (s + disc) / 2, (s - disc) / 2


def determinant_closed(k: int, n: int, r, precision_bits: int = 256) -> DetReport:
    """Determinant via the quadratic-root product formula, with the product
    of the mpc Horner eigenvalues (_horner_mpc) as the attached oracle.

    Raises DegenerateCase when some rho_m collides with a reciprocal
    characteristic root (the rational closed form degenerates there).
    """
    check_k(k)
    grid = eigen_grid(n, r, precision_bits)
    roots = char_roots(k, precision_bits)
    pn1 = term(k, n - 1)
    tol = mpf(2) ** (-precision_bits // 2)
    with mp.workprec(precision_bits + _GUARD):
        if any(_generic_psi(k, rho, tol) is None for rho in grid.rhos):
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
    return DetReport(
        k=k, n=n, r=r, precision_bits=precision_bits,
        det_closed=det_closed, det_oracle=oracle, r1=r1, r2=r2,
        used_generic_formula=True,
    )


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

"""Reference computations that only the tests use.

Literal dense operations and entrywise norms of a square numpy array, such
as the object array circulant.build returns, the literal DFT, the
characteristic roots by radicals (Cardano, principal cube roots), which
sequence.char_roots finds by Newton's method and proves in place, and the
Binet form of the sequence terms from those roots: slow, obvious
oracles for the closed forms in the package.  The telescoping product
psi * Psi and the shift identity behind the resultant determinant
(circulant._resultants, which takes T's integers from sequence.t_integers
and its power sums from sequence.term), each with its own statement of T,
and mpmath's own mpc Horner, which
spectral._horner_mpc reproduces on integers, and the quadratic roots
with mpmath's own complex square root.  The eigenvalue grid from
mpmath's own expjpi, and from its mpf_cos_sin_pi at every point, and the
generic closed eigenvalue in mpc arithmetic, which spectral.eigen_grid
and spectral.eigenvalues_closed replay on integers.  Also the smallest eigenvalue
modulus, which only the tests read, from the exhaustive comparison over
every kernel value that spectral._modulus_extremes narrows to candidates,
the four partial sums of the sequence as literal O(n) loops, and the
eigenpair residual from its O(n) row recurrence, which
spectral.eigenpair_residuals replaces by the telescoped closed form, and
the exact terms of that form at a point, which spectral._residual_point
takes from floors.  And the scalar parser of two regexes and a sign
splitter that cli.parse_scalar's one regex replaced, and the entry-by-entry
benchmark row that fastops.bench_generator builds from one read of terms.
"""

import cmath
import math
import re
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mp, mpc, mpf, mpmathify
from mpmath.libmp import from_int, mpf_cos_sin_pi, mpf_div, round_nearest

from pelltrib.circulant import abs_sq, build, build_pell, is_exact
from pelltrib.errors import DimensionMismatch, ScalarParseError
from pelltrib.sequence import (_GUARD, char_roots, check_bits, check_int, check_k, recip_poly,
                               t_integers, term, terms_upto)
from pelltrib.spectral import (_cmul, _fixed_grid, _from_fixed, _horner_fixed, _modulus,
                               _principal_root, _signed, _to_fixed, _to_mpc, frobenius_sq_closed)


# The direct oracles leave the checks of k and n to terms_upto.

def s1_direct(k: int, n: int) -> int:
    return sum(terms_upto(k, n))


def w1_direct(k: int, n: int) -> int:
    return sum(i * p for i, p in enumerate(terms_upto(k, n)))


def s2_direct(k: int, n: int) -> int:
    return sum(p * p for p in terms_upto(k, n))


def w2_direct(k: int, n: int) -> int:
    return sum(i * p * p for i, p in enumerate(terms_upto(k, n)))


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


def bench_generator_loop(k: int, n: int) -> np.ndarray:
    """fastops.bench_generator one term at a time: entry j is P(k, j mod m),
    with P(k, 0) .. P(k, m-1) the terms below 2^40."""
    check_k(k)
    m = 0
    while term(k, m + 1) < 2 ** 40:
        m += 1
    return np.asarray([float(term(k, j % m)) for j in range(n)], dtype=np.complex128)


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


@dataclass(frozen=True)
class CardanoWork:
    """Radical-formula working values for the depressed characteristic cubic.

    p, q and delta are exact rationals; roots are the three radical-formula
    roots at the requested precision, in the formula's own order.
    """

    k: int
    p: Fraction
    q: Fraction
    delta: Fraction
    roots: tuple[mpc, mpc, mpc]


def cardano(k: int, precision_bits: int = 256) -> CardanoWork:
    """Solve the characteristic cubic by radicals at the given precision.

    Principal complex cube roots are used throughout; this yields correct
    roots on both sides of the discriminant sign change (delta > 0 gives one
    real root and a conjugate pair, delta < 0 gives three real roots).
    """
    check_k(k)
    check_bits(precision_bits)
    # depressed cubic t^3 + p t + q, x = t + 2k/3, and its discriminant
    p = Fraction(-(4 * k * k + 3 * k), 3)
    q = Fraction(-(16 * k**3 + 18 * k * k + 27), 27)
    delta = (q / 2) ** 2 + (p / 3) ** 3
    with mp.workprec(precision_bits + _GUARD):
        sqrt_delta = mpmath.sqrt(mpc(mpmath.mpmathify(delta)))
        half_q = mpmath.mpmathify(q) / 2
        u = (-half_q + sqrt_delta) ** (mpf(1) / 3)
        v = (-half_q - sqrt_delta) ** (mpf(1) / 3)
        shift = mpf(2 * k) / 3
        s = u + v
        t = mpmath.sqrt(mpf(3)) * (u - v) / 2
        x1 = shift + s
        x2 = shift - s / 2 + mpc(0, 1) * t
        x3 = shift - s / 2 - mpc(0, 1) * t
        # Wrap to mpc inside the precision block: the constructor rounds to
        # the active context.
        roots = (mpc(x1), mpc(x2), mpc(x3))
    return CardanoWork(k=k, p=p, q=q, delta=delta, roots=roots)


def binet_term(k: int, n: int, precision_bits: int = 256) -> mpf:
    """Closed-form n-th term from the three roots; agrees with term() to
    relative 2^(-precision_bits/4)."""
    check_int(n, 0, "n")
    roots = char_roots(k, precision_bits)
    alpha, beta, gamma = roots.alpha, roots.beta, roots.gamma
    with mp.workprec(precision_bits + _GUARD):
        # the partial-fraction weights of P(n) = w_a alpha^n + w_b beta^n + w_c gamma^n
        w_a = mpc(alpha) / ((alpha - beta) * (alpha - gamma))
        w_b = beta / ((beta - alpha) * (beta - gamma))
        w_c = gamma / ((gamma - alpha) * (gamma - beta))
        return mpf((w_a * mpc(alpha) ** n + w_b * beta**n + w_c * gamma**n).real)


def conjugate_tail(head: list, n: int, s: int) -> list:
    """head, the integer pairs of spectral._fixed_grid or their kernel
    values, completed to n pairs by pair m = conj pair (s - m); see
    spectral._conjugate_half."""
    return head + [(x, -y) for x, y in (head[s - m] for m in range(len(head), n))]


def modulus_extremes_exhaustive(k: int, n: int, r, precision_bits: int,
                                root_sq=None) -> tuple[mpf, int, mpf]:
    """(smallest |lambda_m|, its index m, largest |lambda_m|) over all n
    direct kernel values, mirrored ones included: plain Horner at every
    head point of spectral._fixed_grid with root_sq, as
    spectral._modulus_extremes runs it, each value's conjugate at its
    mirrored index, and the first index of the smallest and of the largest
    squared modulus on the kernel's integers, the two rounded to
    bits + _GUARD bits and taken in mpmath's own abs.  The
    oracle for spectral._modulus_extremes, which runs Horner on candidates
    only and takes the moduli on math.isqrt."""
    frac, head, s = _fixed_grid(n, r, precision_bits, root_sq)
    coeffs = [a << frac for a in reversed(terms_upto(k, n - 1))]
    values = conjugate_tail([_horner_fixed(coeffs, x, y, frac) for x, y in head], n, s)
    sq = [x * x + y * y for x, y in values]
    lo = min(range(n), key=sq.__getitem__)
    hi = max(range(n), key=sq.__getitem__)
    with mp.workprec(precision_bits + _GUARD):
        return abs(_from_fixed(*values[lo], frac)), lo, abs(_from_fixed(*values[hi], frac))


def min_eigen_magnitude(k: int, n: int, r, precision_bits: int = 256) -> tuple[mpf, int]:
    """Smallest |lambda_m| and its index m over the direct eigenvalues, from
    the exhaustive comparison of squared moduli on the kernel's integers."""
    min_mag, idx, _ = modulus_extremes_exhaustive(k, n, r, precision_bits)
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


def eigen_grid_expjpi(n: int, r, precision_bits: int) -> tuple:
    """The points of spectral.eigen_grid from mpmath's own expjpi, as
    root * expjpi(mpf(2 * m) / n) in mpc: the oracle that eigen_grid
    reproduces bit for bit on integers around mpmath's mpf_cos_sin_pi."""
    with mp.workprec(precision_bits + _GUARD):
        root = _principal_root(n, mpmathify(r))
        return tuple(root * mpmath.expjpi(mpf(2 * m) / n) for m in range(n))


def closed_generic_mpc(k: int, n: int, r, rhos, precision_bits: int) -> list:
    """The generic closed form (rho - r C(rho)) / psi(rho) at each rho in
    mpmath's own mpc arithmetic at bits + _GUARD bits: the oracle for the
    generic branch of spectral.eigenvalues_closed, which replays it on
    integers."""
    c0, c1, c2 = t_integers(k, n)
    with mp.workprec(precision_bits + _GUARD):
        r_mp = mpmathify(r)
        return [(rho - r_mp * c0 - r_mp * rho * c1 - r_mp * rho**2 * c2) / recip_poly(k, rho)
                for rho in rhos]


def quadratic_roots_mpmath(k: int, n: int, r_mp) -> tuple:
    """spectral._quadratic_roots with the discriminant's root from
    mpmath.sqrt(mpc(...)): the oracle for its real-discriminant branch,
    which takes that root on math.isqrt."""
    c0, c1, c2 = t_integers(k, n)
    s = (1 - r_mp * c1) / (r_mp * c2)
    q = mpf(c0) / c2
    disc = mpmath.sqrt(mpc(s * s - 4 * q))
    r1, r2 = (s + disc) / 2, (s - disc) / 2
    tiny = abs(s) * mpf(2) ** -_GUARD
    if _modulus(s + disc) < tiny:
        r1 = q / r2
    elif _modulus(s - disc) < tiny:
        r2 = q / r1
    return r1, r2


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


def eigenpair_residuals_recurrence(k: int, n: int, r, spectrum) -> list:
    """Relative residuals ||M v_m - lambda_m v_m|| / (||M||_F ||v_m||),
    v_m = (rho_m^i), from the row recurrence e_0 = T - lambda,
    e_i = rho e_(i-1) + a_(n-i) (r - rho^n), O(n) per point, on Gaussian
    integers scaled by 2^F', F' = bits + _GUARD + 8 + max(0, 3 - mag(r)):
    T from _horner_fixed, rho^n and ||v||^2 = sum_{i<n} |rho|^(2i) from
    one binary powering; the square root and the quotient by ||v|| on
    integers, and one mpmath division by ||M||_F.  The oracle for
    spectral.eigenpair_residuals, within the same stated error bound."""
    bits = spectrum.grid.precision_bits
    terms = terms_upto(k, n - 1)
    with mp.workprec(bits + _GUARD + 16):
        r_mp = mpmath.mpmathify(r)
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


def eigen_grid_mpmath(n: int, r, precision_bits: int) -> tuple:
    """The points of spectral.eigen_grid with (cos, sin)(pi x_m) from
    mpmath's own mpf_cos_sin_pi at every point, x_m = mpf_div(2m, n), and
    the product by the root from spectral._cmul: the per-point loop that
    spectral._unit_grid's rotation reproduces bit for bit."""
    with mp.workprec(precision_bits + _GUARD):
        prec = mp.prec
        z = tuple(map(_signed, _principal_root(n, mpmathify(r))._mpc_))
        return tuple(_to_mpc(_cmul(z, unit, prec)) for unit in _cos_sin_pi_mpmath(n, prec))


@cache
def _cos_sin_pi_mpmath(n: int, prec: int) -> tuple:
    """mpf_cos_sin_pi(mpf_div(2m, n), prec, round_nearest) for m < n as
    pairs of spectral._signed pairs, kept for the grids of every r."""
    den = from_int(n)
    return tuple(tuple(map(_signed, mpf_cos_sin_pi(mpf_div(from_int(2 * m), den, prec, round_nearest),
                                                   prec, round_nearest)))
                 for m in range(n))


def residual_point_exact(k: int, cell: tuple, x: int, y: int, lam: tuple, r: tuple, frac: int) -> tuple:
    """(psi, chi, e_hat, q, beta_0, beta_n) at rho = (x + i y) 2^-frac,
    z = conj(rho), lambda = lam 2^-frac and r = r 2^-frac (lam and r
    pairs), exactly: psi(rho), chi(z) and beta_0(z) as pairs scaled by
    2^(3 frac), E^ and beta_n(z) as pairs and Q(rho) as an integer scaled
    by 2^(4 frac); cell is spectral._residual_cell's.  chi(z) is
    conj(chi(rho)), and chi(rho) = -psi(rho) - 3k (rho + rho^2).  The
    oracle for spectral._residual_point, which takes the same quantities
    from floors at fewer bits; see spectral.eigenpair_residuals."""
    (c0, c1, c2), (g00, g01, g11, g02, g12, g22), (b00, b10, b11, b20, b21, b22, d10, d20, d21) = cell
    xx, yy = x * x, y * y
    m, re2, im2 = xx + yy, xx - yy, 2 * x * y  # |rho|^2 and rho^2
    re3, im3 = x * re2 - y * im2, x * im2 + y * re2  # rho^3
    mx, my, mm = m * x, m * y, m * m
    psi_x = (1 << 3 * frac) - ((2 * k * x << frac) + k * re2 << frac) - re3
    psi_y = -((2 * k * y << frac) + k * im2 << frac) - im3
    chi = (-psi_x - ((3 * k * x << frac) + 3 * k * re2 << frac),
           psi_y + ((3 * k * y << frac) + 3 * k * im2 << frac))
    cr, ci = ((c0 << frac) + c1 * x << frac) + c2 * re2, (c1 * y << frac) + c2 * im2  # C(rho)
    (lr, li), (rr, ri) = lam, r
    e_hat = ((x << 3 * frac) - (rr * cr - ri * ci << frac) - (psi_x * lr - psi_y * li),
             (y << 3 * frac) - (rr * ci + ri * cr << frac) - (psi_x * li + psi_y * lr))
    # Horner in 2^frac over the terms of degree 0 .. 4 in (rho, z)
    q = ((((g00 << frac) + g01 * x << frac) + g11 * m + g02 * re2 << frac) + g12 * mx << frac) + g22 * mm
    beta_0 = ((x << 2 * frac) + (k * m + re2 << frac) + mx, (y << 2 * frac) - (im2 << frac) + my)
    beta_n = (((((b00 << frac) + b10 * x << frac) + b11 * m + b20 * re2 << frac) + b21 * mx << frac)
              + b22 * mm,
              (((d10 * y << frac) + d20 * im2 << frac) + d21 * my) << frac)
    return (psi_x, psi_y), chi, e_hat, q, beta_0, beta_n


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_REAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


def parse_scalar(text: str, precision_bits: int = 256):
    """The r grammar as two regexes and a sign splitter: [-]int[/int], a
    real literal, or a+bi.  The oracle for cli.parse_scalar, which must
    give every string the same value, type and error message.

    Rational input stays exact (Fraction); other real literals are
    promoted to an mpf at the requested precision; a+bi yields a double
    complex.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar")
    if _RATIONAL_RE.match(s):
        try:
            return Fraction(s)
        except ZeroDivisionError as exc:
            raise ScalarParseError(f"zero denominator in {text!r}") from exc
    if _REAL_RE.fullmatch(s):
        with mp.workprec(precision_bits):
            return mp.mpf(s)
    if s.endswith("i"):
        return _parse_complex(s, text)
    raise ScalarParseError(f"cannot parse scalar {text!r}")


def _parse_complex(s: str, original: str) -> complex:
    body = s[:-1]
    # split at the last sign that is not leading and not an exponent sign
    split = -1
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            split = idx
            break
    real_text, imag_text = (body[:split], body[split:]) if split > 0 else ("0", body)
    if imag_text in ("", "+"):
        imag_text = "1"
    elif imag_text == "-":
        imag_text = "-1"
    if not _REAL_RE.fullmatch(real_text) or not _REAL_RE.fullmatch(imag_text):
        raise ScalarParseError(f"cannot parse scalar {original!r}")
    value = complex(float(real_text), float(imag_text))
    if not cmath.isfinite(value):
        raise ScalarParseError(f"complex scalar {original!r} overflows a double")
    return value

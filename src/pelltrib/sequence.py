"""k-Pell-Tribonacci sequence: exact terms and characteristic-root machinery.

The family is indexed by an integer k >= 1:

    P(k, 0) = 0,  P(k, 1) = 1,  P(k, 2) = 2k,
    P(k, n) = 2k * P(k, n-1) + k * P(k, n-2) + P(k, n-3)      for n >= 3.

Terms are exact Python ints and are memoized per k.  The characteristic
cubic x^3 - 2k x^2 - k x - 1 has one dominant real root alpha in (2k, 2k+1)
and two further roots beta, gamma which form a complex-conjugate pair for
small k and go real around k = 9.  High-precision roots are computed by
bisection plus Newton refinement with quadratic deflation, and an exact
integer certificate proves that they enclose the three distinct roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from mpmath import mp, mpf, mpc
import mpmath

from .errors import PrecisionExhausted, ZeroR

MIN_PRECISION_BITS = 64
MAX_PRECISION_BITS = 4096

# Guard bits used internally on top of the caller-visible precision.
_GUARD = 32

_terms_cache: dict[int, list[int]] = {}


def check_int(value, lo: int, name: str) -> int:
    """value itself if it is an int (not a bool) >= lo, else ValueError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")
    return value


def check_k(k) -> int:
    return check_int(k, 1, "k")


def check_order(k, n) -> int:
    """n itself if k >= 1 and n is a matrix order >= 2; checks k first."""
    check_k(k)
    return check_int(n, 2, "matrix order n")


def check_bits(precision_bits) -> int:
    if not isinstance(precision_bits, int) or isinstance(precision_bits, bool):
        raise ValueError(f"precision_bits must be an int, got {precision_bits!r}")
    if not MIN_PRECISION_BITS <= precision_bits <= MAX_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must lie in [{MIN_PRECISION_BITS}, {MAX_PRECISION_BITS}],"
            f" got {precision_bits}"
        )
    return precision_bits


def check_r(r):
    """r itself if it is nonzero (else ZeroR) and finite (else ValueError)."""
    if r == 0:
        raise ZeroR("r must be nonzero")
    if not mpmath.isfinite(r):
        raise ValueError(f"r must be finite, got {r!r}")
    return r


def tolerance_bits(precision_bits: int) -> int:
    """t = ceil(bits / 2): every check decided at bits bits accepts a relative error 2^-t."""
    return -(-precision_bits // 2)


def term(k: int, n: int) -> int:
    """Exact n-th sequence term for parameter k."""
    check_k(k)
    check_int(n, 0, "n")
    cache = _terms_cache.setdefault(k, [0, 1, 2 * k])
    while len(cache) <= n:
        cache.append(2 * k * cache[-1] + k * cache[-2] + cache[-3])
    return cache[n]


def terms_upto(k: int, n: int) -> list[int]:
    """Terms P(k, 0) .. P(k, n) inclusive, as a fresh list."""
    term(k, n)
    return _terms_cache[k][: n + 1]


def t_integers(k: int, n: int) -> tuple[int, int, int]:
    """(P(n), k P(n-1) + P(n-2), P(n-1)), the integers of the quadratic
    T = x - r (P(n) + (k P(n-1) + P(n-2)) x + P(n-1) x^2) that recip_poly
    times the order-n generator polynomial telescopes to modulo x^n - r."""
    check_order(k, n)
    pn1 = term(k, n - 1)
    return term(k, n), k * pn1 + term(k, n - 2), pn1


def char_poly(k: int, x):
    """Characteristic polynomial x^3 - 2k x^2 - k x - 1, any scalar type."""
    return ((x - 2 * k) * x - k) * x - 1


def recip_poly(k: int, x):
    """Reciprocal polynomial 1 - 2k x - k x^2 - x^3, any scalar type."""
    return 1 - x * (2 * k + x * (k + x))


@dataclass(frozen=True)
class CubicRoots:
    """Roots of the characteristic cubic at a given binary precision.

    alpha is the dominant real root; beta and gamma are the remaining two,
    stored as mpc even when real so downstream code is branch-free.  They
    come in a fixed order, on which determinant_closed's denominator and
    the closed branch names depend: beta.imag >= 0, and beta.real >=
    gamma.real when both are real.  char_roots takes them as
    (-b +- disc) / 2 with disc the mpc square root of a real number, which
    is (sqrt x, 0) or (0, sqrt -x), and rounding is monotone.
    """

    alpha: mpf
    beta: mpc
    gamma: mpc


def _newton_alpha(k: int) -> mpf:
    # Bracket (2k, 2k+1) is guaranteed: char_poly(k, 2k) = -2k^2 - 1 < 0 and
    # char_poly(k, 2k+1) = 2k^2 + 3k > 0.  Bisection seeds Newton.
    lo, hi = mpf(2 * k), mpf(2 * k + 1)
    for _ in range(30):
        mid = (lo + hi) / 2
        if char_poly(k, mid) < 0:
            lo = mid
        else:
            hi = mid
    x = (lo + hi) / 2
    eps = mpf(2) ** (-(mp.prec - 4))
    for _ in range(200):
        fx = char_poly(k, x)
        dfx = (3 * x - 4 * k) * x - k
        step = fx / dfx
        x -= step
        if abs(step) <= eps * abs(x):
            break
    else:
        raise PrecisionExhausted(f"Newton refinement stalled for k={k}")
    return x


def _rel_residual(k: int, x) -> mpf:
    return abs(char_poly(k, x)) / (1 + abs(x)) ** 3


def _certify_roots(k: int, precision_bits: int, roots) -> None:
    """Raise PrecisionExhausted unless roots, three mpf or mpc values,
    pass both comparisons of char_roots' proof, decided on integers."""
    t = tolerance_bits(precision_bits)
    e = max([0] + [-v.exp for z in roots for v in (z.real, z.imag) if v])
    s = 1 << e
    cells = []
    for z in roots:
        x, y = (int(mpmath.ldexp(v, e)) for v in (z.real, z.imag))
        # P = S^3 p(z) and D = S^2 p'(z) by Horner on Gaussian integers
        px, py = x - 2 * k * s, y
        px, py = px * x - py * y - k * s * s, px * y + py * x
        px, py = px * x - py * y - s**3, px * y + py * x
        dx, dy = 3 * x - 4 * k * s, 3 * y
        dx, dy = dx * x - dy * y - k * s * s, dx * y + dy * x
        num, den = 9 * (px * px + py * py), dx * dx + dy * dy  # r_z^2 = num / (S^2 den)
        if num << 2 * t > (s * s + x * x + y * y) * den:
            raise PrecisionExhausted(
                f"root enclosure wider than 2^-{t} sqrt(1 + |z|^2) for k={k}"
            )
        cells.append((x, y, num, den))
    for (xi, yi, ni, di), (xj, yj, nj, dj) in combinations(cells, 2):
        dist = (xi - xj) ** 2 + (yi - yj) ** 2
        if dist * di <= 4 * ni or dist * dj <= 4 * nj:
            raise PrecisionExhausted(
                f"root enclosures overlap for k={k} at {precision_bits} bits"
            )


@lru_cache(maxsize=256)
def char_roots(k: int, precision_bits: int = 256) -> CubicRoots:
    """All three characteristic roots, each proved to lie within
    2^-t (1 + |z|) of its own root, t = tolerance_bits(bits).

    Raises PrecisionExhausted if a root's residual exceeds 2^-t or if the
    proof below fails for the computed roots.

    Proof.  With p = char_poly(k, .) and roots zeta_j, p'(z)/p(z) =
    sum_j 1/(z - zeta_j), so the closed disc of radius r_z = 3|p(z)|/|p'(z)|
    about z holds a root (z itself if p(z) = 0).  _certify_roots requires
    r_z <= 2^-t sqrt(1 + |z|^2) <= 2^-t (1 + |z|) for each computed root,
    and |z_i - z_j| > 2 max(r_i, r_j) >= r_i + r_j for each pair: the three
    discs are disjoint and each holds a root, so they hold three distinct
    roots, one each.  Every comparison is exact.  The six parts of the
    roots, dyadic rationals, are scaled by one S = 2^e to integers X + iY;
    P = S^3 p(z) and D = S^2 p'(z) are then Gaussian integers, r_z^2 =
    9|P|^2 / (S^2 |D|^2), and both conditions become integer comparisons.
    p'(z) = 0 fails the first, or the second if p(z) = 0 too, so a passing
    root has a finite r_z.  The roots are simple for every k (the tests
    prove that the discriminant has no integer zero), so only roots that
    are not accurate enough fail.
    """
    check_k(k)
    check_bits(precision_bits)
    tol = mpf(2) ** -tolerance_bits(precision_bits)
    with mp.workprec(precision_bits + _GUARD):
        alpha = _newton_alpha(k)
        # Synthetic division by (x - alpha): quotient x^2 + b x + c.
        b = alpha - 2 * k
        c = alpha * alpha - 2 * k * alpha - k
        disc = mpmath.sqrt(mpc(b * b - 4 * c))
        beta = (-b + disc) / 2
        gamma = (-b - disc) / 2
        for root in (alpha, beta, gamma):
            if _rel_residual(k, root) > tol:
                raise PrecisionExhausted(
                    f"root residual above 2^-{tolerance_bits(precision_bits)} for k={k}"
                )
    _certify_roots(k, precision_bits, (alpha, beta, gamma))
    return CubicRoots(alpha=alpha, beta=beta, gamma=gamma)

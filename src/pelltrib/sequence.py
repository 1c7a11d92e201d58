"""k-Pell-Tribonacci sequence: exact terms and characteristic-root machinery.

The family is indexed by an integer k >= 1:

    P(k, 0) = 0,  P(k, 1) = 1,  P(k, 2) = 2k,
    P(k, n) = 2k * P(k, n-1) + k * P(k, n-2) + P(k, n-3)      for n >= 3.

Terms are exact Python ints and are memoized per k.  The characteristic
cubic x^3 - 2k x^2 - k x - 1 has one dominant real root alpha in (2k, 2k+1)
and two further roots beta, gamma which form a complex-conjugate pair for
small k and go real around k = 9.  High-precision roots are computed by
bisection plus Newton refinement with quadratic deflation; an independent
radical-formula evaluation (depressed cubic, principal cube roots) serves
as a cross-check, not as the primary path, because the radical route loses
its numerical innocence once the discriminant changes sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    stored as mpc even when real so downstream code is branch-free.
    """

    k: int
    precision_bits: int
    alpha: mpf
    beta: mpc
    gamma: mpc


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


@lru_cache(maxsize=None)
def char_roots(k: int, precision_bits: int = 256) -> CubicRoots:
    """All three characteristic roots, cross-checked against the radical path.

    Raises PrecisionExhausted if either the residual target
    2^-tolerance_bits(bits) or the radical cross-check cannot be met.
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
        if beta.imag < 0 or (beta.imag == 0 and beta.real < gamma.real):
            beta, gamma = gamma, beta
        for root in (alpha, beta, gamma):
            if _rel_residual(k, root) > tol:
                raise PrecisionExhausted(
                    f"root residual above 2^-{tolerance_bits(precision_bits)} for k={k}"
                )
        radical = cardano(k, precision_bits).roots
        for root in (mpc(alpha), beta, gamma):
            if min(abs(root - z) for z in radical) > tol * (1 + abs(root)):
                raise PrecisionExhausted(
                    f"radical cross-check failed for k={k} at {precision_bits} bits"
                )
    return CubicRoots(k=k, precision_bits=precision_bits, alpha=alpha, beta=beta, gamma=gamma)

"""Exact partial sums of the k-Pell-Tribonacci sequence.

Four flavours, each an O(1)-in-terms closed form (given the three terms
P(n+1), P(n+2), P(n+3)):

    s1 = sum of P(i)           for i = 0..n
    w1 = sum of i * P(i)
    s2 = sum of P(i)^2
    w2 = sum of i * P(i)^2

All values are exact integers.  The closed forms are rational expressions
whose numerators are provably divisible by their denominators; integrality
is asserted rather than assumed, so a wrong coefficient table fails loudly
instead of silently truncating.  tests/test_sums.py proves the four closed
forms for every k >= 1 and n >= 0 by induction on n, and tests/reference.py
holds the literal O(n) sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sequence import check_int, check_k, term


def _exact_div(num: int, den: int, what: str) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{what}: closed form produced a non-integer")
    return q


def _next_terms(k: int, n: int) -> tuple[int, int, int]:
    """P(n+1), P(n+2), P(n+3), after checking k and n >= 0."""
    check_k(k)
    check_int(n, 0, "n")
    return term(k, n + 1), term(k, n + 2), term(k, n + 3)


def s1_closed(k: int, n: int) -> int:
    p1, p2, p3 = _next_terms(k, n)
    num = p3 + (1 - 2 * k) * p2 + (1 - 3 * k) * p1 - 1
    return _exact_div(num, 3 * k, "s1")


def w1_closed(k: int, n: int) -> int:
    p1, p2, p3 = _next_terms(k, n)
    num = (
        (3 * k * n + 5 * k - 3) * p3
        + ((3 * k - 6 * k * k) * n + (-10 * k * k + 8 * k - 3)) * p2
        + ((3 * k - 9 * k * k) * n + (-9 * k * k + 8 * k - 3)) * p1
        + (k + 3)
    )
    return _exact_div(num, 9 * k * k, "w1")


def s2_closed(k: int, n: int) -> int:
    p1, p2, p3 = _next_terms(k, n)
    sq_part = p3 * p3 + (4 * k * k + 4 * k + 1) * p2 * p2 + (3 * k * k + 6 * k + 1) * p1 * p1
    cross_part = (2 * k - 2) * p1 * p2 + (-4 * k - 2) * p2 * p3 + (-2) * p1 * p3 - 1
    # Both groups share the denominator 3k(k+2), the squares with a minus sign.
    return _exact_div(-sq_part - cross_part, 3 * k * (k + 2), "s2")


def w2_closed(k: int, n: int) -> int:
    p1, p2, p3 = _next_terms(k, n)
    m = 3 * k * (k + 2)
    a1 = -m * n - (7 * k * k + 14 * k + 9)
    a2 = -m * (2 * k + 1) ** 2 * n - (28 * k**4 + 72 * k**3 + 60 * k * k + 20 * k + 9)
    a3 = -m * (3 * k * k + 6 * k + 1) * n - (9 * k**4 + 36 * k**3 + 46 * k * k + 20 * k + 9)
    b1 = -2 * m * (k - 1) * n - (20 * k**3 + 20 * k * k - 16 * k - 6)
    b2 = 2 * m * (2 * k + 1) * n + (28 * k**3 + 64 * k * k + 46 * k + 6)
    b3 = 2 * m * n + (14 * k * k + 22 * k + 6)
    c = k * k + 2 * k + 9
    num = (
        a1 * p3 * p3
        + a2 * p2 * p2
        + a3 * p1 * p1
        + b1 * p1 * p2
        + b2 * p2 * p3
        + b3 * p1 * p3
        + c
    )
    return _exact_div(num, 9 * k * k * (k + 2) ** 2, "w2")


@dataclass(frozen=True)
class SumsReport:
    s1: int
    w1: int
    s2: int
    w2: int


def sums_report(k: int, n: int) -> SumsReport:
    """All four closed-form sums, each checked exactly at n against the term
    it adds: closed(n) - closed(n-1) must equal P(n), n P(n), P(n)^2 or
    n P(n)^2, with closed(-1) = 0.  The check costs O(1) terms."""
    p = term(k, n)
    values = {}
    for name, closed, step, label in (
        ("s1", s1_closed, p, "P(n)"),
        ("w1", w1_closed, n * p, "n*P(n)"),
        ("s2", s2_closed, p * p, "P(n)^2"),
        ("w2", w2_closed, n * p * p, "n*P(n)^2"),
    ):
        value = closed(k, n)
        if value - (closed(k, n - 1) if n else 0) != step:
            raise ArithmeticError(
                f"{name}: step identity {name}(n) - {name}(n-1) = {label}"
                f" fails at k={k}, n={n}"
            )
        values[name] = value
    return SumsReport(**values)

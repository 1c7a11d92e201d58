"""Dense exact determinant by fraction-free (Bareiss) elimination.

The oracle for circulant.det_exact and invertibility.invertible_exact: it
works on any exact matrix, in O(n^3) big-integer operations.
"""

import math
from fractions import Fraction

from pelltrib.circulant import is_exact


def _bareiss_int(a: list[list[int]]) -> int:
    # Fraction-free elimination with row pivoting; every // division is exact.
    n = len(a)
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot_row = next((i for i in range(col, n) if a[i][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][col] * a[col][j]) // prev
            a[i][col] = 0
        prev = pivot
    return sign * a[-1][-1]


def det_dense(m) -> Fraction:
    """Exact determinant of a square array with int or Fraction entries.

    Denominators are cleared per row so the core loop runs on plain integers.
    """
    if not all(is_exact(e) for e in m.flat):
        raise ValueError("det_dense requires int or Fraction entries")
    scale = Fraction(1)
    int_rows = []
    for row in m:
        lcm = math.lcm(*(Fraction(e).denominator for e in row))
        scale *= lcm
        int_rows.append([int(e * lcm) for e in row])
    return Fraction(_bareiss_int(int_rows)) / scale

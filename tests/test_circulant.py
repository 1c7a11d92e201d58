from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from pelltrib import circulant as circ
from pelltrib.errors import DimensionMismatch
from pelltrib.sequence import term

import reference as ref
from det_oracle import det_dense


def C(entries, r):
    return circ.build(r, entries)


def test_build_ordinary():
    m = C([0, 1, 2], 1)
    assert m.tolist() == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]


def test_build_r2_wraps_scaled():
    m = C([0, 1, 2], 2)
    assert m.tolist() == [[0, 1, 2], [4, 0, 1], [2, 4, 0]]


def test_build_r0_upper_triangular():
    m = C([3, 1, 4], 0)
    assert m.tolist() == [[3, 1, 4], [0, 3, 1], [0, 0, 3]]


def test_build_pell_matches_generator():
    m = circ.build_pell(1, 3, 1)
    assert m.tolist() == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]


# the r set that the double conversion was checked against entry by entry
CONVERSION_R = (1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(3, 7), Fraction(27, 25),
                mpf("1.08"), mpf("1e-3"), 1j, 2 - 3j, 0.3 + 0.4j)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_to_complex_list_rounds_each_entry_once(k):
    for n in (2, 3, 8, 21, 64):
        for r in CONVERSION_R:
            m = circ.build_pell(k, n, r)
            want = np.array([[complex(e) for e in row] for row in m], dtype=np.complex128)
            got = circ.to_complex_list(m)
            assert np.array_equal(got.view(np.float64), want.view(np.float64)), (k, n, r)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_build_pell_complex_is_the_converted_dense_matrix(k):
    for n in (2, 3, 8, 21, 64):
        for r in CONVERSION_R:
            want = circ.to_complex_list(circ.build_pell(k, n, r))
            got = circ.build_pell_complex(k, n, r)
            assert got.dtype == np.complex128
            assert np.array_equal(got.view(np.float64), want.view(np.float64)), (k, n, r)


def test_to_complex_list_refuses_entries_past_a_double():
    for entries in ((10**400, 1), (0, Fraction(10**400, 3))):
        with pytest.raises(OverflowError):
            circ.to_complex_list(C(entries, 1))
    for r in (mpf("1e400"), Fraction(10**400, 3)):
        with pytest.raises(OverflowError):
            circ.build_pell_complex(1, 3, r)


def test_matvec_first_column():
    m = C([0, 1, 2], 1)
    assert ref.matvec_dense(m, [1, 0, 0]) == [0, 2, 1]
    m2 = C([0, 1, 2], 2)
    assert ref.matvec_dense(m2, [1, 1, 1]) == [3, 5, 6]


def test_matvec_length_mismatch():
    with pytest.raises(DimensionMismatch):
        ref.matvec_dense(C([0, 1, 2], 1), [1, 0])


def test_hadamard_and_conj_transpose():
    a = C([0, 1, 2], 1)
    b = C([1, 1, 1], 1)
    assert ref.hadamard(a, b).tolist() == a.tolist()
    c = np.array([[1 + 2j, 3], [0, 4 - 1j]], dtype=object)
    ct = ref.conj_transpose(c)
    assert ct.tolist() == [[1 - 2j, 0], [3, 4 + 1j]]
    with pytest.raises(DimensionMismatch):
        ref.hadamard(a, c)


def test_direct_norms():
    assert ref.frobenius_sq_direct(C([0, 1, 2], 1)) == 15
    assert ref.l1_direct(C([0, 1, 2], 2)) == 14
    assert ref.frobenius_direct(C([0, 1, 2], 1)) == pytest.approx(15 ** 0.5)


def test_norms_exact_types():
    # [[1/2, 1], [-1/3, 1/2]]
    m = C([Fraction(1, 2), 1], Fraction(-1, 3))
    assert ref.frobenius_sq_direct(m) == Fraction(29, 18)
    assert ref.l1_direct(m) == Fraction(7, 3)


# det values frozen from an independent symbolic computation.
@pytest.mark.parametrize("k,n,r,expect", [
    (1, 3, 1, Fraction(9)),
    (1, 4, 1, Fraction(-640)),
    (1, 5, 2, Fraction(5964198)),
    (2, 5, Fraction(-3, 2), Fraction(282327533409, 16)),
    (3, 4, Fraction(3, 7), Fraction(-62543568, 343)),
])
def test_det_exact_frozen(k, n, r, expect):
    assert circ.det_exact(k, n, r) == expect
    assert det_dense(circ.build_pell(k, n, r)) == expect


def test_det_two_by_two_anchor():
    for r in (1, -1, 2, Fraction(3, 7), Fraction(-5, 2)):
        m = C([0, 1], r)
        assert det_dense(m) == -r
        # the order-2 sequence generator is (P(0), P(1)) = (0, 1) for every k
        assert circ.det_exact(3, 2, r) == -r


def test_det_singular_and_pivoting():
    assert det_dense(C([1, 1], 1)) == 0
    # leading zeros on the diagonal force row swaps
    assert det_dense(C([0, 0, 5], 1)) == 125


def test_det_rejects_inexact():
    with pytest.raises(ValueError):
        det_dense(C([0.5, 1.0], 1.0))
    for r in (0.5, 1.0, 1j):
        with pytest.raises(ValueError):
            circ.det_exact(1, 4, r)


DET_R = (1, -1, 2, Fraction(-3, 2), Fraction(3, 7), Fraction(169, 25), Fraction(-1, 8))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
def test_det_exact_matches_bareiss(k):
    for n in range(2, 25):
        for r in DET_R:
            assert circ.det_exact(k, n, r) == det_dense(circ.build_pell(k, n, r)), (k, n, r)


def test_det_exact_singular_cell():
    # det Circ_r(0, 1, 2) = r (1 + 8 r): (-1/2)^3 = r zeroes the eigenvalue at rho = -1/2
    assert circ.det_exact(1, 3, Fraction(-1, 8)) == 0
    assert circ.det_exact(1, 3, Fraction(1, 8)) == Fraction(1, 4)


def test_det_exact_rejects_small_order():
    for n in (1, 0, -3, 2.0):
        with pytest.raises(ValueError):
            circ.det_exact(1, n, 2)
        with pytest.raises(ValueError):
            circ.build_pell(1, n, 2)


def test_det_exact_refuses_zero_psi_resultant(monkeypatch):
    # at r = 1, q^3 Res(x^n - r, psi) = t_n - s_n; equal traces would make it 0
    monkeypatch.setattr(circ, "_trace", lambda m: 7)
    with pytest.raises(ArithmeticError):
        circ.det_exact(1, 5, 1)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 70))
def test_lucas_doubling_matches_recurrence(a1, b, n):
    u = [2, -a1]
    while len(u) <= n:
        u.append(-a1 * u[-1] - b * u[-2])
    assert circ._lucas_v(a1, b, n) == u[n]


def test_companion_power_gives_terms_and_power_sums():
    k, n = 3, 11
    cn = circ._matpow(((2 * k, k, 1), (1, 0, 0), (0, 1, 0)), n)
    assert [row[2] for row in cn] == [term(k, n), term(k, n - 1), term(k, n - 2)]
    s = [3, 2 * k, 4 * k * k + 2 * k]
    t = [3, -k, k * k - 4 * k]
    while len(s) <= n:
        s.append(2 * k * s[-1] + k * s[-2] + s[-3])
        t.append(-k * t[-1] - 2 * k * t[-2] + t[-3])
    assert circ._trace(cn) == s[n]
    assert circ._trace(circ._matpow(((-k, -2 * k, 1), (1, 0, 0), (0, 1, 0)), n)) == t[n]


@settings(max_examples=40)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=-6, max_value=6).filter(lambda v: v != 0),
)
def test_det_matches_sympy(n, rnum):
    import sympy as sp

    r = Fraction(rnum, 3)
    gen = [((i * 7 + 3) % 11) - 5 for i in range(n)]
    ours = det_dense(C(gen, r))
    m = sp.Matrix(n, n, lambda i, j: gen[j - i] if j >= i else sp.Rational(rnum, 3) * gen[n + j - i])
    assert sp.Rational(ours.numerator, ours.denominator) == m.det()


def test_psi_product_small():
    p = ref.psi_times_Psi(1, 3)
    assert p == (0, 1, 0, -5, -3, -2)
    assert p == ref.telescoped_form(1, 3)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=3, max_value=50))
def test_psi_product_telescopes(k, n):
    assert ref.psi_times_Psi(k, n) == ref.telescoped_form(k, n)


def test_shift_identity_small_grid():
    for k in (1, 2, 3):
        for n in (4, 5, 9):
            for r in (1, -1, 2, Fraction(-3, 2)):
                assert ref.shift_identity_check(k, n, r)


@settings(max_examples=25)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=4, max_value=16),
    st.fractions(min_value=-4, max_value=4).filter(lambda f: f != 0),
)
def test_shift_identity_property(k, n, r):
    assert ref.shift_identity_check(k, n, r)


def test_shift_identity_rejects_inexact_r():
    with pytest.raises(ValueError):
        ref.shift_identity_check(1, 5, 1.5)


def test_shift_matrix_nth_power_is_r_identity():
    for n in (2, 3, 5):
        for r in (1, -1, Fraction(3, 7)):
            s = C([0, 1] + [0] * (n - 2), r)
            acc = s
            for _ in range(n - 1):
                acc = acc @ s
            for i in range(n):
                for j in range(n):
                    assert acc[i, j] == (r if i == j else 0)


def test_spec_validation():
    with pytest.raises(ValueError):
        circ.build_pell(1, 1, 1)

from fractions import Fraction

import pytest
from mpmath import mp, mpf
from hypothesis import given, settings, strategies as st

from pelltrib import circulant as circ
from pelltrib import invertibility as inv
from pelltrib.sequence import char_roots, terms_upto
from pelltrib.errors import ZeroR

import reference as ref
from det_oracle import det_dense


def test_gcd_identity_generator_always_invertible():
    for r in (1, -1, 2, Fraction(5, 3), Fraction(-7, 2)):
        assert inv.gcd_criterion((1, 0, 0, 0), r)


def test_gcd_small_cases():
    assert inv.gcd_criterion((0, 1, 2), 1)
    # constant generator with r = 1 shares the root 1 with x^n - 1
    assert not inv.gcd_criterion((2, 2, 2), 1)
    assert not inv.gcd_criterion((0, 0, 0), 1)


def test_gcd_rejects_bad_inputs():
    with pytest.raises(ZeroR):
        inv.gcd_criterion((1, 2), 0)
    with pytest.raises(ValueError):
        inv.gcd_criterion((1.5, 2.0), 1)
    with pytest.raises(ValueError):
        inv.gcd_criterion((), 1)


@settings(max_examples=120)
@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(lambda f: f != 0),
)
def test_gcd_agrees_with_exact_determinant(entries, r):
    entries = tuple(entries)
    m = circ.build(r, entries)
    assert inv.gcd_criterion(entries, r) == (det_dense(m) != 0)


@settings(max_examples=120)
@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=2),
    st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(lambda f: f != 0),
)
def test_gcd_agrees_with_exact_determinant_on_fraction_generators(head, zeros, r):
    # trailing zeros drop the generator polynomial below degree n - 1
    entries = tuple(head) + (Fraction(0),) * zeros
    m = circ.build(r, entries)
    assert inv.gcd_criterion(entries, r) == (det_dense(m) != 0)


def test_gcd_agrees_with_det_on_pell_matrices():
    for k in (1, 2, 3):
        for n in (2, 4, 7):
            for r in (1, -1, 2, Fraction(-3, 2), Fraction(3, 7)):
                m = circ.build_pell(k, n, r)
                entries = tuple(m[0])
                assert inv.gcd_criterion(entries, r) == (det_dense(m) != 0)


def test_invertible_exact_matches_gcd_and_bareiss():
    # acceptance criterion 09's exact grid plus the singular cell (1, 3, -1/8)
    for k in range(1, 4):
        for n in range(2, 11):
            for r in (1, -1, 2, Fraction(-3, 2), Fraction(3, 7), Fraction(-1, 8)):
                want = det_dense(circ.build_pell(k, n, r)) != 0
                assert inv.invertible_exact(k, n, r) == want, (k, n, r)
                assert inv.gcd_criterion(tuple(terms_upto(k, n - 1)), r) == want, (k, n, r)
    assert not inv.invertible_exact(1, 3, Fraction(-1, 8))


def test_invertible_exact_validation():
    with pytest.raises(ValueError):
        inv.invertible_exact(1, 1, 2)
    with pytest.raises(ValueError):
        inv.invertible_exact(1, 4, 0.5)
    with pytest.raises(ValueError):
        inv.invertible_exact(0, 4, 2)


def test_singular_cells_are_never_guaranteed():
    # every exactly singular cell of a small rational grid gets no guarantee
    singular = []
    for k in (1, 2, 3):
        for n in range(2, 8):
            for q in range(1, 9):
                for p in range(-16, 17):
                    r = Fraction(p, q)
                    if p and r.denominator == q and not inv.invertible_exact(k, n, r):
                        assert det_dense(circ.build_pell(k, n, r)) == 0
                        singular.append((k, n, r))
                        verdict = inv.sufficient_condition(k, n, r)
                        assert verdict.status == inv.EXCLUDED_PARAMETER
    assert (1, 3, Fraction(-1, 8)) in singular


def test_exactly_singular_cell_is_excluded_for_rational_r_only():
    verdict = inv.sufficient_condition(1, 3, Fraction(-1, 8))
    assert verdict.status == inv.EXCLUDED_PARAMETER
    assert "exactly singular" in verdict.reason
    assert verdict.witness is None
    assert verdict.exact_invertible is False
    assert inv.sufficient_condition(1, 3, Fraction(1, 8)).exact_invertible is True
    # float and mpf r keep the theorem's verdict: the gap the docstring names
    for r in (-0.125, mpf(-1) / 8):
        verdict = inv.sufficient_condition(1, 3, r)
        assert verdict.status == inv.GUARANTEED_INVERTIBLE
        assert verdict.exact_invertible is None


def test_sufficient_condition_unit_r():
    for k in (1, 4, 9):
        for n in (2, 9, 24):
            for r in (1, -1):
                verdict = inv.sufficient_condition(k, n, r)
                assert verdict.status == inv.GUARANTEED_INVERTIBLE


def test_sufficient_condition_soundness():
    for k in (1, 3):
        for n in (2, 6, 11):
            for r in (1, -1, 2, Fraction(1, 3), -5):
                verdict = inv.sufficient_condition(k, n, r)
                if verdict.status == inv.GUARANTEED_INVERTIBLE:
                    min_mag, _ = ref.min_eigen_magnitude(k, n, r)
                    assert min_mag > 0


def test_excluded_reciprocal_root_band():
    roots = char_roots(1, 256)
    with mp.workprec(288):
        near_recip = 1 / roots.alpha
        near_recip_n = roots.alpha ** -5
    for r in (near_recip, near_recip_n):
        verdict = inv.sufficient_condition(1, 5, r, 256)
        assert verdict.status == inv.EXCLUDED_PARAMETER


def test_float_far_from_band_is_certified():
    # a double holds only ~53 bits, far outside the 2^-128 band
    roots = char_roots(1, 256)
    with mp.workprec(288):
        r = float(1 / roots.alpha)
    assert inv.sufficient_condition(1, 5, r, 256).status == inv.GUARANTEED_INVERTIBLE
    # at 64 working bits the band is wider than double rounding error
    assert inv.sufficient_condition(1, 5, r, 64).status == inv.EXCLUDED_PARAMETER


def test_excluded_critical_magnitude_exact_even_n():
    # for even n the critical magnitude is rational: (P(4)/P(3))^2 = 169/25
    verdict = inv.sufficient_condition(1, 4, Fraction(169, 25))
    assert verdict.status == inv.EXCLUDED_PARAMETER
    assert "critical" in verdict.reason
    verdict_neg = inv.sufficient_condition(1, 4, Fraction(-169, 25))
    assert verdict_neg.status == inv.EXCLUDED_PARAMETER


def test_excluded_value_need_not_be_singular():
    # the uncertified point is usually still invertible in truth
    assert inv.gcd_criterion((0, 1, 2, 5), Fraction(169, 25))
    assert inv.invertible_exact(1, 4, Fraction(169, 25))
    assert circ.det_exact(1, 4, Fraction(169, 25)) != 0


def test_sufficient_condition_validation():
    with pytest.raises(ZeroR):
        inv.sufficient_condition(1, 4, 0)
    with pytest.raises(ValueError):
        inv.sufficient_condition(1, 4, 1j)
    with pytest.raises(ValueError):
        inv.sufficient_condition(1, 1, 1)


def test_min_eigen_magnitude_frozen():
    mag, idx = ref.min_eigen_magnitude(1, 3, 1)
    with mp.workprec(280):
        assert abs(mag - mpf(3) ** mpf("0.5")) < mpf(2) ** -200
    assert idx in (1, 2)


def test_scan_small_grid_consistent():
    for sign in (1, -1):
        cells = inv.counterexample_scan(range(1, 4), range(2, 9), sign=sign, precision_bits=512)
        assert len(cells) == 3 * 7
        for cell in cells:
            assert cell.verdict in ("invertible", "singular", "undetermined")
            if cell.verdict != "undetermined":
                assert cell.closed_singular == cell.eigen_singular
            assert cell.sign == sign


def test_scan_reports_published_counterexample_cells():
    cells = inv.counterexample_scan([5], range(28, 31), sign=1, precision_bits=512)
    keys = {(c.k, c.n) for c in cells}
    assert keys == {(5, 28), (5, 29), (5, 30)}
    for cell in cells:
        assert cell.verdict in ("invertible", "singular", "undetermined")


def test_scan_validation():
    with pytest.raises(ValueError):
        inv.counterexample_scan([1], [4], sign=2)
    with pytest.raises(ValueError):
        inv.counterexample_scan([1], [1])

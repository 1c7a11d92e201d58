"""Every entry point that takes an order or index n rejects a bad one with
the same message: `<name> must be an integer >= <lo>, got <n!r>`."""

import re
from fractions import Fraction

import pytest

from pelltrib import circulant, invertibility, sequence, spectral, sums
from pelltrib.errors import ZeroR

# (entry point, smallest accepted n, name in the message)
ENTRY_POINTS = {
    "term": (lambda n: sequence.term(1, n), 0, "n"),
    "check_order": (lambda n: sequence.check_order(1, n), 2, "matrix order n"),
    "t_integers": (lambda n: sequence.t_integers(1, n), 2, "matrix order n"),
    "s1_closed": (lambda n: sums.s1_closed(1, n), 0, "n"),
    "sums_report": (lambda n: sums.sums_report(1, n), 0, "n"),
    "frobenius_sq_closed": (lambda n: spectral.frobenius_sq_closed(1, n, 2), 2, "matrix order n"),
    "eigenvalues_closed": (lambda n: spectral.eigenvalues_closed(1, n, 2, 64), 3, "matrix order n"),
    "eigenvalues_direct": (lambda n: spectral.eigenvalues_direct(1, n, 2, 64), 2, "matrix order n"),
    "det_exact": (lambda n: circulant.det_exact(1, n, Fraction(3, 7)), 2, "matrix order n"),
    "counterexample_scan": (lambda n: invertibility.counterexample_scan([1], [n]), 2,
                            "matrix order n"),
    "sufficient_condition": (lambda n: invertibility.sufficient_condition(1, n, 2, 64), 2,
                             "matrix order n"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_n_is_rejected_with_one_message(entry):
    call, lo, name = ENTRY_POINTS[entry]
    for bad in (True, False, lo - 1, float(lo), str(lo)):
        with pytest.raises(ValueError) as info:
            call(bad)
        assert str(info.value) == f"{name} must be an integer >= {lo}, got {bad!r}"
    call(lo)  # the minimum itself is accepted


def test_check_int_returns_the_value():
    assert sequence.check_int(5, 5, "n") == 5
    with pytest.raises(ValueError, match=r"^k must be an integer >= 1, got True$"):
        sequence.check_k(True)


def test_eigenvalues_direct_rejects_zero_r_and_bad_bits():
    with pytest.raises(ZeroR):
        spectral.eigenvalues_direct(1, 4, 0)
    with pytest.raises(ValueError) as want:
        sequence.check_bits(63)
    with pytest.raises(ValueError) as info:
        spectral.eigenvalues_direct(1, 4, 2, 63)
    assert str(info.value) == str(want.value)


@pytest.mark.parametrize("r", [float("inf"), float("nan"), complex(1, float("inf"))])
def test_grids_reject_non_finite_r(r):
    with pytest.raises(ValueError, match=r"^r must be finite, got "):
        spectral.eigen_grid(4, r)
    with pytest.raises(ValueError, match=r"^r must be finite, got "):
        spectral.eigenvalues_direct(1, 4, r)


def test_eigenpair_residuals_reject_an_order_other_than_the_spectrums():
    spectrum = spectral.eigenvalues_direct(1, 5, 2, 64)
    for n in (4, 6):
        with pytest.raises(ValueError, match=rf"^matrix order n {n} differs from the spectrum's 5$"):
            spectral.eigenpair_residuals(1, n, 2, spectrum)


def test_eigenpair_residuals_reject_a_k_or_r_other_than_the_spectrums():
    # residuals against another matrix: 0.41 for k = 2 and 0.18 for r = 3
    # before this check, against the spectrum's own residuals near 2^-64
    spectrum = spectral.eigenvalues_closed(1, 5, 2, 64)
    with pytest.raises(ValueError, match=r"^k 2 differs from the spectrum's 1$"):
        spectral.eigenpair_residuals(2, 5, 2, spectrum)
    for r in (3, Fraction(1, 2), 2j):
        with pytest.raises(ValueError, match=re.escape(f"r {r!r} differs from the spectrum's 2")):
            spectral.eigenpair_residuals(1, 5, r, spectrum)
    assert max(spectral.eigenpair_residuals(1, 5, Fraction(2), spectrum)) < 2.0 ** -50


def test_eigenpair_residuals_reject_zero_r():
    spectrum = spectral.eigenvalues_direct(1, 5, 2, 64)
    with pytest.raises(ZeroR):
        spectral.eigenpair_residuals(1, 5, 0, spectrum)

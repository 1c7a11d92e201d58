import ast
import dataclasses
import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import mpmath
from mpmath import mp, mpf, mpc
from mpmath.libmp import (from_int, from_man_exp, mpf_cos_sin_pi, mpf_div, mpf_mul, mpf_sqrt,
                          mpf_sub, normalize, round_nearest, to_float)
import sympy
from hypothesis import given, settings, strategies as st

from pelltrib import circulant as circ
from pelltrib import invertibility as inv
from pelltrib import spectral as sp
from pelltrib.spectral import _critical_magnitude
from pelltrib.sequence import _GUARD, char_poly, char_roots, recip_poly, t_integers, term, terms_upto
from pelltrib.errors import DegenerateCase, ZeroR

import reference as ref


def test_closed_norms_frozen():
    assert sp.frobenius_sq_closed(1, 3, 2) == 42
    assert sp.frobenius_sq_closed(1, 2, 3) == 10  # 1 + |r|^2
    assert sp.l1_closed(1, 3, 1) == 9
    assert sp.l1_closed(1, 3, 2) == 14
    assert sp.l1_closed(1, 3, Fraction(1, 2)) == Fraction(13, 2)


def test_closed_equals_direct_exact_grid():
    for k in (1, 2, 4):
        for n in (2, 3, 7, 12):
            for r in (1, -1, 2, Fraction(-1, 2), Fraction(3, 7)):
                m = circ.build_pell(k, n, r)
                assert sp.frobenius_sq_closed(k, n, r) == ref.frobenius_sq_direct(m)
                assert sp.l1_closed(k, n, r) == ref.l1_direct(m)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=20),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)
def test_closed_equals_direct_property(k, n, r):
    m = circ.build_pell(k, n, r)
    assert sp.frobenius_sq_closed(k, n, r) == ref.frobenius_sq_direct(m)
    assert sp.l1_closed(k, n, r) == ref.l1_direct(m)


def test_complex_r_norms_match_dense():
    r = 0.3 + 1.1j
    m = circ.build_pell(2, 6, r)
    assert sp.frobenius_sq_closed(2, 6, r) == pytest.approx(
        ref.frobenius_sq_direct(m), rel=1e-12)
    assert float(sp.l1_closed(2, 6, r)) == pytest.approx(
        float(ref.l1_direct(m)), rel=1e-12)


def test_bounds_frozen():
    lower, upper = sp.spectral_bounds(1, 5, 1)
    assert lower == pytest.approx(math.sqrt(199))
    assert upper == 21.0
    lower2, upper2 = sp.spectral_bounds(1, 5, 2)
    assert lower2 == pytest.approx(math.sqrt(655))
    assert upper2 == 42.0
    assert sp.spectral_bounds(1, 8, 5)[1] == 1760.0


def test_power_iteration_matches_svd():
    for k in (1, 3):
        for n in (2, 5, 9):
            for r in (1, -1, 2, 0.5, 1j):
                m = circ.to_complex_list(circ.build_pell(k, n, r))
                ours = sp.spectral_numeric(m)
                ref = float(np.linalg.svd(m, compute_uv=False)[0])
                assert ours == pytest.approx(ref, rel=1e-8)


def test_power_iteration_zero_matrix():
    z = circ.to_complex_list(circ.build(1, (0, 0)))
    assert sp.spectral_numeric(z) == 0.0


def test_spectral_numeric_rejects_overflowing_entries():
    with pytest.raises(OverflowError):
        sp.spectral_numeric(circ.to_complex_list(circ.build_pell(1, 3, mpf("1e400"))))


@pytest.mark.parametrize("k,n,r", [(5, 64, 1j), (5, 64, -1), (2, 64, 1j), (3, 9, 1)])
def test_sigma_equals_peak_eigenvalue_for_unit_r(k, n, r):
    # |r| = 1 makes diag(rho^j) unitary, so Circ_r is normal and its largest
    # singular value is the largest eigenvalue modulus
    sigma = sp.spectral_numeric(circ.to_complex_list(circ.build_pell(k, n, r)))
    spectrum = sp.eigenvalues_direct(k, n, r, 128)
    with mp.workprec(160):
        peak = float(max(abs(lam) for lam in spectrum.lambdas))
    assert sigma == pytest.approx(peak, rel=1e-12)


def test_sandwich_bounds_small_grid():
    for k in (1, 2, 5):
        for n in (2, 8, 21):
            for r in (1, -1, Fraction(1, 2), 2, 1.08, 1j):
                lower, upper = sp.spectral_bounds(k, n, r)
                sigma = sp.spectral_numeric(circ.to_complex_list(circ.build_pell(k, n, r)))
                fro = sp.frobenius_closed(k, n, r)
                slack = 1 + 1e-8
                assert lower <= sigma * slack
                assert sigma <= upper * slack
                assert fro / math.sqrt(n) <= sigma * slack
                assert sigma <= fro * slack


def test_row_col_length_norms():
    m1 = circ.to_complex_list(circ.build(1, (0, 1, 2)))
    assert sp.row_col_length_norms(m1) == (
        pytest.approx(math.sqrt(5)), pytest.approx(math.sqrt(5)))
    m2 = circ.to_complex_list(circ.build(2, (0, 1, 2)))
    r1, c1 = sp.row_col_length_norms(m2)
    assert r1 == pytest.approx(math.sqrt(20))
    assert c1 == pytest.approx(math.sqrt(20))


def test_hadamard_factor_bound():
    # sigma(M) = sigma(M o ones) <= r1(M) * c1(ones) = r1(M) * sqrt(n)
    for k, n, r in ((1, 5, 1), (2, 7, -2), (1, 6, 0.5)):
        m = circ.to_complex_list(circ.build_pell(k, n, r))
        sigma = sp.spectral_numeric(m)
        r1, c1 = sp.row_col_length_norms(m)
        assert sigma <= r1 * math.sqrt(n) * (1 + 1e-9)
        assert sigma <= c1 * math.sqrt(n) * (1 + 1e-9)


def test_norm_report_fields():
    rep = sp.norm_report(1, 5, 2)
    # fro^2 = 5 * s2(4) + 3 * w2(4);  l1 = 5 * s1(4) + 1 * w1(4)
    assert rep.frobenius == pytest.approx(math.sqrt(5 * 199 + 3 * 760))
    assert sp.l1_closed(1, 5, 2) == 5 * 21 + 72
    assert rep.lower <= rep.sigma <= rep.upper * (1 + 1e-9)


def test_norms_and_bounds_evaluate_each_closed_sum_once(monkeypatch):
    from pelltrib import sums
    calls = []
    for name in ("s1_closed", "w1_closed", "s2_closed", "w2_closed"):
        closed = getattr(sums, name)
        monkeypatch.setattr(sums, name, lambda k, n, name=name, closed=closed:
                            calls.append(name) or closed(k, n))
    for k, n, r in ((1, 5, 2), (2, 8, Fraction(1, 2)), (3, 13, 1.08), (1, 21, 1j)):
        calls.clear()
        got = sp.norms_closed(k, n, r)
        assert sorted(calls) == ["s1_closed", "s2_closed", "w1_closed", "w2_closed"]
        calls.clear()
        rep = sp.norm_report(k, n, r)
        assert sorted(calls) == ["s1_closed", "s2_closed", "w2_closed"]
        want = {"frobenius": sp.frobenius_closed(k, n, r),
                "frobenius_sq": sp.frobenius_sq_closed(k, n, r), "l1": sp.l1_closed(k, n, r)}
        assert list(got) == list(want)
        assert all(got[key] == want[key] and type(got[key]) is type(want[key]) for key in want)
        assert (rep.lower, rep.upper) == sp.spectral_bounds(k, n, r)
        assert rep.frobenius == want["frobenius"]


# ---------------------------------------------------------------------------
# eigen grid and spectra

def test_grid_nth_powers_return_r():
    for n, r in ((3, 1), (5, -1), (4, Fraction(3, 7)), (6, 1j), (7, -2.5)):
        grid = sp.eigen_grid(n, r, 256)
        with mp.workprec(288):
            r_mp = mpmath.mpmathify(r)
            for rho in grid.rhos:
                assert abs(rho**n - r_mp) < mpf(2) ** -200 * (1 + abs(r_mp))


def test_grid_principal_branch_negative_r():
    grid = sp.eigen_grid(3, -1, 256)
    with mp.workprec(288):
        expect = mpmath.expjpi(mpf(1) / 3)
        assert abs(grid.rhos[0] - expect) < mpf(2) ** -200


def test_grid_rejects_zero_r():
    with pytest.raises(ZeroR):
        sp.eigen_grid(4, 0)


def test_direct_spectrum_frozen_small():
    spectrum = sp.eigenvalues_direct(1, 3, 1)
    with mp.workprec(288):
        assert abs(spectrum.lambdas[0] - 3) < mpf(2) ** -200
        for lam in spectrum.lambdas[1:]:
            assert abs(abs(lam) - mpmath.sqrt(3)) < mpf(2) ** -200


def test_direct_spectrum_matches_numpy_eigvals():
    for k, n, r in ((1, 4, 1), (2, 5, -1), (1, 6, 2), (3, 5, 1j)):
        spectrum = sp.eigenvalues_direct(k, n, r, 256)
        dense = circ.to_complex_list(circ.build_pell(k, n, r))
        ref = list(np.linalg.eigvals(dense))
        scale = max(abs(v) for v in ref) + 1
        for lam in spectrum.lambdas:
            lamc = complex(lam)
            nearest = min(ref, key=lambda z: abs(z - lamc))
            assert abs(nearest - lamc) < 1e-9 * scale
            ref.remove(nearest)


def test_closed_matches_direct_sample():
    for k, n, r in ((1, 5, 1), (2, 9, -1), (5, 12, 2), (1, 7, Fraction(-3, 2)), (3, 6, 1j)):
        closed = sp.eigenvalues_closed(k, n, r, 256)
        direct = sp.eigenvalues_direct(k, n, r, 256)
        assert closed.branches == ("generic",) * n
        with mp.workprec(288):
            for lc, ld in zip(closed.lambdas, direct.lambdas):
                assert abs(lc - ld) <= mpf("1e-20") * (1 + abs(ld))


def test_closed_m0_value():
    spectrum = sp.eigenvalues_closed(1, 5, 1, 256)
    with mp.workprec(288):
        assert abs(spectrum.lambdas[0] - 21) < mpf("1e-60")


def test_degenerate_branches_dispatch_and_agree():
    for k in (1, 2):
        roots = char_roots(k, 256)
        for n in (4, 6):
            with mp.workprec(288):
                cases = {
                    "alpha": roots.alpha ** -n,
                    "beta": roots.beta ** -n,
                    "gamma": roots.gamma ** -n,
                }
            for name, r in cases.items():
                closed = sp.eigenvalues_closed(k, n, r, 256)
                direct = sp.eigenvalues_direct(k, n, r, 256)
                assert closed.branches.count(name) == 1
                m = closed.branches.index(name)
                with mp.workprec(288):
                    rel = abs(closed.lambdas[m] - direct.lambdas[m]) / (1 + abs(direct.lambdas[m]))
                    assert rel <= mpf("1e-20")


def _mpc_generic(k, rho, bits):
    # the mpc degeneracy test that _clearly_generic's True must imply
    with mp.workprec(bits + _GUARD):
        return abs(recip_poly(k, rho)) >= mpf(2) ** (-bits // 2) * (1 + abs(rho)) ** 3


@pytest.mark.parametrize("bits", [64, 256])
def test_clearly_generic_implies_the_mpc_test_says_generic(bits):
    # r = mu^(-n) (1 + 2^-j) puts one grid point at relative distance about
    # 2^-j / n from the reciprocal root 1/mu, from far (j = 0) to inside the
    # mpc test's degenerate band (j >= bits / 2); 64 bits has the widest band
    decided = undecided = 0
    for k in (1, 2, 3):
        roots = char_roots(k, bits)
        for n, mu, j in itertools.product((4, 6, 8), (roots.alpha, roots.beta, roots.gamma),
                                          (0, 8, 16, 32, 64, 128, 200, 256)):
            with mp.workprec(bits + _GUARD):
                r = mu ** -n * (1 + mpf(2) ** -j)
            for rho in sp.eigen_grid(n, r, bits).rhos:
                if sp._clearly_generic(k, rho):
                    decided += 1
                    assert _mpc_generic(k, rho, bits), (k, n, mu, j, rho)
                else:
                    undecided += 1
    assert decided and undecided


def test_clearly_generic_decides_the_exact_certify_grid():
    # the det cells of the benchmark's exact-certify workload: k 1..3,
    # r in {2, -3/2, 3/7, 169/25}, n in {3, 4, 6, 9, 13, 18, 24, 31, 40},
    # 256 bits; the double prefilter decides every point without the mpc test
    for r_text, n in itertools.product(("2", "-3/2", "3/7", "169/25"),
                                       (3, 4, 6, 9, 13, 18, 24, 31, 40)):
        rhos = sp.eigen_grid(n, Fraction(r_text), 256).rhos
        for k in (1, 2, 3):
            assert all(sp._clearly_generic(k, rho) for rho in rhos), (k, n, r_text)


def test_clearly_generic_falls_back_outside_its_proof():
    with mp.workprec(96):
        assert sp._clearly_generic(1, mpc(2, 1))
        assert not sp._clearly_generic(2**32, mpc(2, 1))
        assert not sp._clearly_generic(1, mpc(mpf(2) ** 64, 0))
        assert not sp._clearly_generic(1, mpc(0, mpf("1e400")))


def _clearly_generic_to_float(k, rho):
    # _clearly_generic with each part through mpmath's to_float: the
    # reference for its conversion by ldexp
    if k >= 1 << 32 or any(man.bit_length() + exp > 63 or (exp and not man)
                           for _, man, exp, _ in rho._mpc_):
        return False
    z = complex(*(to_float(part, rnd=round_nearest) for part in rho._mpc_))
    return abs(recip_poly(k, z)) > 2.0 ** -20 * (2 * k + 3) * (1 + abs(z)) ** 3


def test_degenerate_is_unmoved_on_criteria_05_and_06(criterion_05_closed):
    # the doubles of _clearly_generic come from ldexp, not to_float; on
    # every grid point of criteria 05 and 06 at 256 bits it decides the
    # same points, and _degenerate gives what it gave with to_float.
    # Criterion 05's grids are those of its closed spectra
    bits = 256
    tol = mpf(2) ** -(bits // 2)
    grids = [(k, n, r, closed.grid.rhos) for k, n, r, closed in criterion_05_closed]
    for k in (1, 2):
        roots = char_roots(k, bits)
        with mp.workprec(bits + _GUARD):
            cells = [(n, mu ** -n) for n in (4, 6, 8) for mu in (roots.alpha, roots.beta, roots.gamma)]
        grids += [(k, n, r, sp.eigen_grid(n, r, bits).rhos) for n, r in cells]
    degenerate = 0
    for k, n, r, rhos in grids:
        with mp.workprec(bits + _GUARD):
            for rho in rhos:
                generic = _clearly_generic_to_float(k, rho)
                assert sp._clearly_generic(k, rho) == generic, (k, n, r, rho)
                got = sp._degenerate(k, rho, tol)
                assert got == (not generic and abs(recip_poly(k, rho)) < tol * (1 + abs(rho)) ** 3)
                degenerate += got
    assert degenerate >= 18


def test_double_converts_parts_past_1024_mantissa_bits():
    # at 4096 bits a part's mantissa has more bits than a double's range
    with mp.workprec(4096 + _GUARD):
        rho = mpc(mpf(2) / 3, -mpf(5) / 7)
        assert sp._clearly_generic(1, rho)
        assert complex(*map(sp._double, rho._mpc_)) == complex(rho)
        assert sp._double((0, 1, -1074, 1)) == 5e-324 and sp._double((1, 3, -1076, 2)) == -5e-324


def test_eigenpair_residuals_sample():
    bound = mpf(2) ** -64
    for k, n, r in ((1, 3, 1), (2, 8, -1), (1, 13, Fraction(3, 7)), (4, 10, 1j)):
        res = sp.eigenpair_residuals(k, n, r, sp.eigenvalues_direct(k, n, r, 256))
        assert len(res) == n
        assert max(res) <= bound


def test_eigenpair_residuals_take_the_spectrums_precision():
    spectrum = sp.eigenvalues_direct(1, 5, 2, 64)
    at_64 = sp.eigenpair_residuals(1, 5, 2, spectrum)
    assert sp.eigenpair_residuals(1, 5, 2, spectrum, precision_bits=64) == at_64
    with pytest.raises(ValueError, match=r"^precision_bits 256 differs from the spectrum's 64$"):
        sp.eigenpair_residuals(1, 5, 2, spectrum, precision_bits=256)


def _residuals_oracle(k, n, r, spectrum, extra_bits=0):
    """The residual as mpc prefix and suffix sums of a_l rho^l, with the
    wrapped part divided by rho^n row by row, at bits + _GUARD + extra_bits."""
    bits = spectrum.grid.precision_bits
    with mp.workprec(bits + _GUARD + extra_bits):
        r_mp = mpmath.mpmathify(r)
        coeffs = [mpmath.mpmathify(t) for t in terms_upto(k, n - 1)]
        fro = mpmath.sqrt(mpmath.mpmathify(sp.frobenius_sq_closed(k, n, abs(r_mp))))
        out = []
        for rho, lam in zip(spectrum.grid.rhos, spectrum.lambdas):
            powers = [mpc(1)]
            for _ in range(n - 1):
                powers.append(powers[-1] * rho)
            rho_n = powers[-1] * rho
            prefix = []
            acc = mpc(0)
            for c, p in zip(coeffs, powers):
                acc += c * p
                prefix.append(acc)
            total = prefix[-1]
            err_sq = mpf(0)
            v_sq = mpf(0)
            for i in range(n):
                head = prefix[n - 1 - i]
                tail = total - head
                mv = powers[i] * head + r_mp * (powers[i] / rho_n) * tail
                diff = mv - lam * powers[i]
                err_sq += circ.abs_sq(diff)
                v_sq += circ.abs_sq(powers[i])
            out.append(mpmath.sqrt(err_sq) / (fro * mpmath.sqrt(v_sq)))
    return out


RESIDUAL_R = (1, -1, 2, Fraction(-3, 2), Fraction(3, 7), 1j, 2 - 3j, 10**40, mpf("1e-300"))


def _root_grids(sign):
    """Criterion 06's degenerate grids (sign -1), r = root^-n for the three
    characteristic roots at k in {1, 2} and n in {4, 6, 8}, where psi(rho)
    nearly vanishes, or the grids r = root^n (sign 1), where chi(conj rho)
    does."""
    for k in (1, 2):
        roots = char_roots(k, 256)
        for n in (4, 6, 8):
            for root in (roots.alpha, roots.beta, roots.gamma):
                with mp.workprec(256 + _GUARD):
                    yield k, n, root ** (sign * n)


def _residual_cases():
    """(k, n, r, eigenvalues): the grid of RESIDUAL_R on direct and closed
    spectra, the grids of _root_grids on both, and direct spectra at n = 2."""
    yield from itertools.product((1, 2, 3), (3, 5, 8, 13, 21), RESIDUAL_R,
                                 (sp.eigenvalues_direct, sp.eigenvalues_closed))
    for sign in (-1, 1):
        for k, n, r in _root_grids(sign):
            yield k, n, r, sp.eigenvalues_direct
            yield k, n, r, sp.eigenvalues_closed
    for k, r in itertools.product((1, 2, 3), RESIDUAL_R):
        yield k, 2, r, sp.eigenvalues_direct


def _residual_unit(k, n, r, bits):
    """(2^(4-F) n, max(1, |r|) A / ||M||_F), F = bits + _GUARD + 8: the
    stated bound is unit * (scale + residual)."""
    with mp.workprec(bits + _GUARD + 64):
        fro = mpmath.sqrt(mpmath.mpmathify(sp.frobenius_sq_closed(k, n, abs(mpmath.mpmathify(r)))))
        scale = max(1, abs(mpmath.mpmathify(r))) * sum(terms_upto(k, n - 1)) / fro
        return mpf(2) ** (4 - (bits + _GUARD + 8)) * n, scale


@pytest.mark.parametrize("bits", [64, 256])
def test_eigenpair_residuals_within_stated_bound_of_oracle(bits):
    # 2^(4-F) n (max(1,|r|) A / ||M||_F + res), F = bits + _GUARD + 8, on
    # _residual_cases; the oracle runs 64 bits higher so its own rounding
    # stays far below the bound
    for k, n, r, eigenvalues in _residual_cases():
        spectrum = eigenvalues(k, n, r, bits)
        got = sp.eigenpair_residuals(k, n, r, spectrum)
        want = _residuals_oracle(k, n, r, spectrum, extra_bits=64)
        unit, scale = _residual_unit(k, n, r, bits)
        with mp.workprec(bits + _GUARD + 64):
            for g, w in zip(got, want):
                assert abs(g - w) <= unit * (scale + w), (k, n, r, eigenvalues, g, w)


def test_eigenpair_residuals_at_large_n():
    # at n = 200 and 512 bits the closed form against the O(n) row
    # recurrence of tests/reference.py; each is within the stated bound of
    # the exact residual, so they differ by at most twice the bound.  At
    # n = 1000 the recurrence took about 7 s of CPU for the timed call and
    # the closed form about 0.1 s (2-core Xeon, CPython 3.11).
    for k, r, eigenvalues in ((1, Fraction(-3, 2), sp.eigenvalues_direct), (2, 1j, sp.eigenvalues_direct),
                              (3, 2, sp.eigenvalues_closed)):
        spectrum = eigenvalues(k, 200, r, 512)
        got = sp.eigenpair_residuals(k, 200, r, spectrum)
        want = ref.eigenpair_residuals_recurrence(k, 200, r, spectrum)
        unit, scale = _residual_unit(k, 200, r, 512)
        with mp.workprec(512 + _GUARD + 64):
            for g, w in zip(got, want):
                assert abs(g - w) <= 2 * unit * (scale + w), (k, r, g, w)
    spectrum = sp.eigenvalues_direct(1, 1000, Fraction(-3, 2), 256)
    start = time.process_time()
    res = sp.eigenpair_residuals(1, 1000, Fraction(-3, 2), spectrum)
    assert time.process_time() - start < 1.0
    assert len(res) == 1000 and max(res) <= mpf(2) ** -64


def _gauss(v, scale):
    return Fraction(v[0], scale), Fraction(v[1], scale)


def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gadd(*terms):
    return sum(t[0] for t in terms), sum(t[1] for t in terms)


def _gscale(a, c):
    return a[0] * c, a[1] * c


def _gpoly(coeffs, z):
    """sum_j coeffs[j] z^j for Gaussian rationals as pairs."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        acc = _gadd(_gmul(acc, z), (Fraction(c), Fraction(0)))
    return acc


@pytest.mark.parametrize("k", [1, 3])
def test_residual_point_is_the_telescoped_sum_exactly(k):
    # at random dyadic rho, lambda and r: the exact oracle of
    # _residual_point (tests/reference.py) gives psi, chi, E^, Q,
    # beta_0 and beta_n against Gaussian rationals, and, with the exact
    # rho^n and W, |E^|^2 W + |c|^2 Q + 2 Re(conj(E^) c B / chi) equal to
    # |psi|^2 sum_i |e_i|^2 from the rows e_i = rho^i (T - lambda) + c h_i
    rng = np.random.default_rng(k)
    frac = 24
    one = 1 << frac
    for n in (2, 3, 4, 7, 12):
        a = terms_upto(k, n + 2)
        cell = sp._residual_cell(k, n)
        for _ in range(4):
            x, y, lx, ly, rx, ry = (int(v) for v in rng.integers(-2 * one, 2 * one, size=6))
            psi, chi, e_hat, q, beta_0, beta_n = ref.residual_point_exact(
                k, cell, x, y, (lx, ly), (rx, ry), frac)
            rho, lam, r = _gauss((x, y), one), _gauss((lx, ly), one), _gauss((rx, ry), one)
            z = (rho[0], -rho[1])
            powers = [(Fraction(1), Fraction(0))]
            for _ in range(n + 2):
                powers.append(_gmul(powers[-1], rho))
            want_psi = _gpoly((1, -2 * k, -k, -1), rho)
            want_chi = _gpoly((-1, -k, -2 * k, 1), z)
            c_rho = _gpoly(t_integers(k, n), rho)
            want_e = _gadd(rho, _gscale(_gmul(r, c_rho), -1), _gscale(_gmul(want_psi, lam), -1))
            assert _gauss(psi, one ** 3) == want_psi
            assert _gauss(chi, one ** 3) == want_chi
            assert _gauss(e_hat, one ** 4) == want_e

            def ell(p):  # L_p(rho), with P(-1) = 0 and P(-2) = 1
                at = {-2: 1, -1: 0, **dict(enumerate(a))}
                at[-3] = -k
                return _gpoly(sp._telescoped(k, at[p], at[p - 1], at[p - 2]), rho)

            def beta(p):
                lo, mid, hi = ell(p - 1), ell(p), ell(p + 1)
                return _gadd(mid, _gmul(_gadd(_gscale(mid, k), lo), z), _gmul(hi, _gmul(z, z)))

            want_q = sum(v[0] ** 2 + v[1] ** 2 for v in map(ell, range(1, n + 1)))
            assert Fraction(q, one ** 4) == want_q
            assert _gauss(beta_0, one ** 3) == beta(0)
            assert _gauss(beta_n, one ** 4) == beta(n)
            c = _gadd(r, _gscale(powers[n], -1))
            t = _gpoly(a[:n], rho)
            rows = []
            for i in range(n):
                h = _gpoly(a[n - i:n], rho)
                rows.append(_gadd(_gmul(powers[i], _gadd(t, _gscale(lam, -1))), _gmul(c, h)))
            w = sum(v[0] ** 2 + v[1] ** 2 for v in powers[:n])
            zn = (powers[n][0], -powers[n][1])
            b = _gadd(_gmul(zn, beta(0)), _gscale(beta(n), -1))
            chi_sq = want_chi[0] ** 2 + want_chi[1] ** 2
            cross = _gmul(_gmul((want_e[0], -want_e[1]), c), _gmul(b, (want_chi[0], -want_chi[1])))[0]
            telescoped = (want_e[0] ** 2 + want_e[1] ** 2) * w + (c[0] ** 2 + c[1] ** 2) * want_q \
                + 2 * cross / chi_sq
            psi_sq = want_psi[0] ** 2 + want_psi[1] ** 2
            assert telescoped == psi_sq * sum(v[0] ** 2 + v[1] ** 2 for v in rows), (k, n)


@pytest.mark.parametrize("k", [1, 3])
def test_residual_point_within_its_floor_bounds_of_the_exact_oracle(k):
    # _residual_point at S = frac + guard fractional bits against the exact
    # values of tests/reference.py, within the floor bounds that
    # eigenpair_residuals takes, in units of 2^-S with M = max(1, |rho|):
    # psi 6k M, chi 12k M, E^ 2 c_2 |r| + 6k M |lambda| + 3, Q
    # (G_11 + G_02 + 2 G_12 + 4 G_22) M^2, beta_0 8k M and beta_n
    # (|b_11| + |b_20| + 2 |b_21| + 4 |b_22| + |d_20| + 2 |d_21|) M^2
    rng = np.random.default_rng(10 + k)
    frac = 64
    for n, guard, size in itertools.product((2, 3, 8, 24), (0, 7, 30, 64, 90), (-20, 0, 5)):
        cell = sp._residual_cell(k, n)
        (_, _, c2), g, b = cell
        x, y, lx, ly, rx, ry = (int(v) << 2 + max(0, size) >> max(0, -size)
                                for v in rng.integers(-2**62, 2**62, size=6))
        got = sp._residual_point(k, cell, x, y, (lx, ly), (rx, ry), frac, guard)
        want = ref.residual_point_exact(k, cell, x, y, (lx, ly), (rx, ry), frac)
        unit, one = Fraction(1, 1 << frac + guard), 1 << frac
        m = max(1, Fraction(math.isqrt(x * x + y * y) + 1, one))
        lam, r = (Fraction(math.isqrt(u * u + v * v) + 1, one) for u, v in ((lx, ly), (rx, ry)))
        bounds = (6 * k * m, 12 * k * m, 2 * c2 * r + 6 * k * m * lam + 3,
                  (g[2] + g[3] + 2 * g[4] + 4 * g[5]) * m * m, 8 * k * m,
                  (abs(b[2]) + abs(b[3]) + 2 * abs(b[4]) + 4 * abs(b[5]) + abs(b[7]) + 2 * abs(b[8])) * m * m)
        for name, v, w, scale, bound in zip(("psi", "chi", "e_hat", "q", "beta_0", "beta_n"),
                                            got, want, (3, 3, 4, 4, 3, 4), bounds):
            v, w = (v, 0) if name == "q" else v, (w, 0) if name == "q" else w
            dx, dy = (Fraction(a) * unit - Fraction(c, one ** scale) for a, c in zip(v, w))
            assert dx * dx + dy * dy <= (bound * unit) ** 2, (n, guard, size, name)


def _quadratic(coeffs, x):
    return coeffs[0] + coeffs[1] * x + coeffs[2] * x**2


def test_telescoping_identity_holds_for_every_n():
    """psi(x) sum_{l=p}^{n-1} P(l) x^(l-p) = L_p - x^(n-p) L_n for every
    n >= p >= 0, by induction on n: at n = p both sides vanish, and n -> n + 1
    adds psi P(n) x^(n-p) on the left and x^(n-p) (L_n - x L_(n+1)) on the
    right.  These agree because L_n - x L_(n+1) = psi P(n), shown with the
    package's _telescoped on symbols P(n), P(n-1), P(n-2) and P(n+1) from
    the recurrence, for symbolic k.  P(-3), P(-2), P(-1) = -k, 1, 0 extend
    the recurrence to P(0) = 0 and P(1) = 1, and give L_n = t_integers(k, n),
    L_1 = 1, L_0 = x and L_(-1) = x^2."""
    k, x, p0, p1, p2 = sympy.symbols("k x p0 p1 p2")
    ell = _quadratic(sp._telescoped(k, p0, p1, p2), x)
    ell_next = _quadratic(sp._telescoped(k, 2 * k * p0 + k * p1 + p2, p0, p1), x)
    assert sympy.expand(ell - x * ell_next - recip_poly(k, x) * p0) == 0
    at = {-3: -k, -2: 1, -1: 0, 0: 0, 1: 1}
    for m in (0, 1):
        assert sympy.expand(at[m] - 2 * k * at[m - 1] - k * at[m - 2] - at[m - 3]) == 0
    for m, want in ((1, 1), (0, x), (-1, x**2)):
        assert sympy.expand(_quadratic(sp._telescoped(k, at[m], at[m - 1], at[m - 2]), x) - want) == 0
    for kk, n in itertools.product((1, 2, 7), (2, 3, 10)):
        assert sp._telescoped(kk, term(kk, n), term(kk, n - 1), term(kk, n - 2)) == t_integers(kk, n)


def test_chi_boundary_identity_holds_for_every_n():
    """chi(z) sum_{p=1..n} u_p z^(n-p) = z^n beta_0(z) - beta_n(z) for every
    n >= 0 and every sequence u with the recurrence, by induction on n: at
    n = 0 both sides vanish, and n -> n + 1 multiplies the sum by z and adds
    u_(n+1), so it needs z beta_n - beta_(n+1) = chi u_(n+1), shown with the
    package's _boundary on symbols u_(n-1), u_n, u_(n+1) and u_(n+2) from
    the recurrence.  With u_p = L_p(rho), the beta_0 of _residual_point,
    rho + k rho z + rho^2 z + z^2, is _boundary on L_(-1), L_0 and L_1."""
    k, z, rho, u0, u1, u2 = sympy.symbols("k z rho u0 u1 u2")
    beta = _quadratic(sp._boundary(k, u0, u1, u2), z)
    beta_next = _quadratic(sp._boundary(k, u1, u2, 2 * k * u2 + k * u1 + u0), z)
    assert sympy.expand(z * beta - beta_next - char_poly(k, z) * u2) == 0
    at = {-3: -k, -2: 1, -1: 0, 0: 0, 1: 1}
    ells = [sp._telescoped(k, at[m], at[m - 1], at[m - 2]) for m in (-1, 0, 1)]
    beta_0 = sum(rho**a * _quadratic(sp._boundary(k, *(e[a] for e in ells)), z) for a in range(3))
    assert sympy.expand(beta_0 - (rho + k * rho * z + rho**2 * z + z**2)) == 0


def test_row_identity_holds_for_every_row():
    """psi e_i = rho^i E^ + c L_(n-i), E^ = rho - r C - psi lambda and
    c = r - rho^n, for every row i, by induction on i, with e_0 = T - lambda
    and e_i = rho e_(i-1) + a_(n-i) c: psi T = rho - rho^n C (the telescoping
    at p = 0) gives psi e_0 = E^ + c C, and the step from row i - 1 to row i
    needs rho L_(p+1) + psi P(p) = L_p at p = n - i.  rho^n and rho^(i-1)
    are free symbols, and L and C come from the package's _telescoped."""
    k, rho, lam, r, rho_n, rho_i, p0, p1, p2, q0, q1, q2 = sympy.symbols(
        "k rho lambda r rho_n rho_i p0 p1 p2 q0 q1 q2")
    psi = recip_poly(k, rho)
    big_c = _quadratic(sp._telescoped(k, q0, q1, q2), rho)
    e_hat = rho - r * big_c - psi * lam
    c = r - rho_n
    psi_t = rho - rho_n * big_c
    assert sympy.expand(psi_t - psi * lam - (e_hat + c * big_c)) == 0
    ell = _quadratic(sp._telescoped(k, p0, p1, p2), rho)
    ell_next = _quadratic(sp._telescoped(k, 2 * k * p0 + k * p1 + p2, p0, p1), rho)
    psi_e_prev = rho_i * e_hat + c * ell_next
    assert sympy.expand(rho * psi_e_prev + psi * p0 * c - (rho * rho_i * e_hat + c * ell)) == 0


def test_eigenpair_residuals_see_a_perturbed_lambda():
    # a kernel that loses lambda below its own noise would read ~1e-87 here
    delta = mpf("1e-30")
    for k, n, r in ((1, 5, 2), (2, 13, Fraction(3, 7)), (3, 21, 1j), (2, 8, Fraction(-3, 2))):
        spectrum = sp.eigenvalues_direct(k, n, r, 256)
        with mp.workprec(256 + _GUARD):
            lambdas = tuple(lam + delta * (1 + abs(lam)) * mpc(0, 1) ** m
                            for m, lam in enumerate(spectrum.lambdas))
        perturbed = dataclasses.replace(spectrum, lambdas=lambdas)
        got = sp.eigenpair_residuals(k, n, r, perturbed)
        want = _residuals_oracle(k, n, r, perturbed)
        for g, w in zip(got, want):
            assert w > mpf("1e-40")
            assert abs(g - w) <= w / 100, (k, n, r, g, w)


DIRECT_R = (1, -1, 2, Fraction(-3, 2), Fraction(3, 7), 10**40, mpf("1e-300"), 1j, 2 - 3j)


@pytest.mark.parametrize("n", [2, 3, 8, 21, 64, 200, 1000])
@pytest.mark.parametrize("bits", [64, 512])
def test_fixed_grid_within_stated_error_of_exact_roots(bits, n):
    # every point of the direct kernel's grid lies within 2^(1-F) of the
    # exact n-th root of r, taken as eigen_grid at bits + 160, with
    # F = bits + _GUARD + 8 + max(0, 3 - mag(root)).  Without the
    # bit_length(n) guard bits the drift of the n - 1 products breaks this.
    for r in DIRECT_R:
        frac, head, s = sp._fixed_grid(n, r, bits)
        points = ref.conjugate_tail(head, n, s)
        exact = sp.eigen_grid(n, r, bits + 160)
        assert frac == bits + _GUARD + 8 + max(0, 3 - mpmath.mag(exact.rhos[0])), r
        with mp.workprec(bits + _GUARD + 160):
            tol = mpf(2) ** (1 - frac)
            for m, ((x, y), rho) in enumerate(zip(points, exact.rhos, strict=True)):
                assert abs(sp._from_fixed(x, y, frac) - rho) <= tol, (r, m)


@pytest.mark.parametrize("wide", [100, 300, 600])
def test_turn_within_stated_errors_of_expjpi(wide):
    # e = exp(pi i / n) and omega = e^2 as _turn gives them to every grid,
    # against mpmath's expjpi at W + 200 bits: each part of e within
    # 1.01 2^-W, omega within 1.415 2^-W in modulus, both exact at n = 2
    assert sp._turn(2, wide) == ((0, 1 << wide), (-1 << wide, 0))
    with mp.workprec(wide + 200):
        unit = mpf(2) ** -wide
        for n in range(2, 401):
            (ex, ey), (ox, oy) = sp._turn(n, wide)
            e, omega = mpmath.expjpi(mpf(1) / n), mpmath.expjpi(mpf(2) / n)
            assert max(abs(ex * unit - e.real), abs(ey * unit - e.imag)) < 1.01 * unit, n
            assert abs(mpc(ox, oy) * unit - omega) < 1.415 * unit, n


def test_grids_take_no_second_source_of_the_unit_roots(monkeypatch):
    # with mpmath's expjpi raising, the direct kernel and a scan cell of
    # each sign still run, and the cells are unchanged: _turn is their one
    # source of exp(pi i / n)
    cells = {sign: inv.counterexample_scan([3], [7, 8], sign=sign) for sign in (1, -1)}

    def refuse(*args):
        raise AssertionError("expjpi called")

    monkeypatch.setattr(mpmath, "expjpi", refuse)
    monkeypatch.setattr(mp, "expjpi", refuse)
    for r, n in itertools.product(DIRECT_R, (2, 7, 8)):
        sp.eigenvalues_direct(2, n, r, 128)
    for sign, want in cells.items():
        assert inv.counterexample_scan([3], [7, 8], sign=sign) == want, sign


MIRROR_R = (1, -1, 2, Fraction(-3, 2), Fraction(3, 7), Fraction(-1, 8), 10**40,
            mpf("1e-300"), -0.7)


def _psi_exact(terms, x, y, frac):
    """Psi at (x + i y) 2^-frac exactly, as a Gaussian integer pair scaled
    by 2^(frac (n - 1)), n = len(terms)."""
    ax = ay = 0
    for j, a in enumerate(reversed(terms)):
        ax, ay = ax * x - ay * y + (a << frac * j), ax * y + ay * x
    return ax, ay


def _assert_direct_values(k, n, r, bits):
    """The evaluated values of _direct_fixed, at every n within the
    arithmetic part of the stated bound,
    2^(1-F) (sum_{j<n-1} R^j + 2^-5 sum_l l a_l R^(l-1)), of Psi at the
    point, with R the largest point modulus (plus 2^-F)."""
    frac, points, values, s = sp._direct_fixed(k, n, r, bits)
    terms = terms_upto(k, n - 1)
    size = max(math.isqrt(x * x + y * y) + 1 for x, y in points.values()) + 1
    one = 1 << frac
    bound = 2 * (sum(size ** j * one ** (n - 2 - j) for j in range(n - 1)) * 32
                 + sum(l * a * size ** (l - 1) * one ** (n - 1 - l) for l, a in enumerate(terms) if l))
    for m, (x, y) in points.items():
        want = _psi_exact(terms, x, y, frac)
        u, v = values[m]
        dx, dy = (u << frac * (n - 2)) - want[0], (v << frac * (n - 2)) - want[1]
        assert math.isqrt(dx * dx + dy * dy) * 32 <= bound, (k, n, r, m)
    return frac, points, values, s


@pytest.mark.parametrize("bits", [64, 256])
def test_direct_spectrum_is_conjugate_symmetric_for_real_r(bits):
    # for real r the kernel evaluates part of the grid and mirrors the
    # rest: rho_(n-m) = conj rho_m for r > 0 and rho_(n-1-m) = conj rho_m
    # for r < 0, at odd n on the head of the grid and at even n on pairs
    # m, m + n/2 with the point -p_m at m + n/2.  The mirrored pairs are
    # exact conjugates, and every point, mirrored or not, lies within
    # 2^(1-F) of the exact root.
    for r, n in itertools.product(MIRROR_R, [*range(2, 10), 21, 64]):
        exact = sp.eigen_grid(n, r, bits + 160)
        head, mirror = (n // 2 + 1, lambda m: n - m) if r > 0 else \
            ((n + 1) // 2, lambda m: n - 1 - m)
        for k in (1, 3):
            frac, points, values, s = _assert_direct_values(k, n, r, bits)
            if n % 2:
                assert sorted(points) == list(range(head)), (r, n)
            else:
                assert len(points) == 2 * ((head + 1) // 2), (r, n)
                assert all(points[m + n // 2] == (-x, -y) for m, (x, y) in points.items()
                           if m < n // 2), (r, n)
            assert s % n == mirror(0) % n
            spectrum = sp.eigenvalues_direct(k, n, r, bits)
            with mp.workprec(bits + _GUARD):
                for m in range(n):
                    rho, lam = spectrum.grid.rhos[m], spectrum.lambdas[m]
                    if m in values:
                        assert lam._mpc_ == sp._from_fixed(*values[m], frac)._mpc_, (r, n, m)
                        continue
                    assert rho._mpc_ == spectrum.grid.rhos[mirror(m) % n].conjugate()._mpc_, (r, n, m)
                    assert lam._mpc_ == spectrum.lambdas[mirror(m) % n].conjugate()._mpc_, (r, n, m)
        with mp.workprec(bits + _GUARD + 160):  # the points do not depend on k
            tol = mpf(2) ** (1 - frac)
            for m, rho in enumerate(exact.rhos):
                x, y = points[m] if m in points else points[mirror(m) % n]
                if m not in points:
                    y = -y
                assert abs(sp._from_fixed(x, y, frac) - rho) <= tol, (r, n, m)


def test_direct_spectrum_evaluates_every_point_for_complex_typed_r():
    # complex-typed r keeps all n points, even with a zero imaginary part,
    # in pairs m, m + n/2 at even n
    for r, n in itertools.product((1j, 2 - 3j, complex(2, 0), mpc(2, 0)), (2, 5, 8, 21)):
        frac, points, values, _ = _assert_direct_values(2, n, r, 256)
        assert sorted(points) == sorted(values) == list(range(n))


def test_direct_kernel_halves_the_horner_steps():
    # at even n one pair of half-length Horners serves rho and -rho, so for
    # real r about n/4 + 1 pairs of n - 2 steps replace n/2 + 1 Horners of
    # n - 1 steps: 0.27 n^2 steps at n = 64 against 0.51 n^2 before; at odd
    # n the same pair serves rho alone, (n + 1)/2 pairs of n - 2 steps,
    # 0.49 n^2 at n = 63
    steps = []
    horner = sp._horner_fixed

    def counting(coeffs, *args):
        steps.append(len(coeffs) - 1)
        return horner(coeffs, *args)

    sp._horner_fixed = counting
    try:
        for n, share in ((64, 0.3), (63, 0.52)):
            steps.clear()
            sp.eigenvalues_direct(3, n, 2, 256)
            assert 0 < sum(steps) <= share * n ** 2, n
    finally:
        sp._horner_fixed = horner


def _same_extremes(k, n, r, bits, root_sq=None):
    got = sp._modulus_extremes(k, n, r, bits, root_sq)
    want = ref.modulus_extremes_exhaustive(k, n, r, bits, root_sq)
    return (got[0]._mpf_, got[1], got[2]._mpf_) == (want[0]._mpf_, want[1], want[2]._mpf_)


EXTREMES_R = (1, -1, 1j, 2, -3, Fraction(3, 7), 2**200, Fraction(1, 2**200), -(2**200),
              Fraction(-1, 2**200))


@pytest.mark.parametrize("bits", [64, 512])
def test_modulus_extremes_match_the_exhaustive_oracle(bits):
    # Horner on the double prefilter's candidates only returns the same
    # (min, index, max), bit for bit, as Horner on every point; at n = 2
    # with r > 0 the two |lambda| tie and the first index must win
    for r, n in itertools.product(EXTREMES_R, (2, 3, 4, 7, 16, 31)):
        for k in (1, 4):
            assert _same_extremes(k, n, r, bits), (k, n, r)
    assert sp._modulus_extremes(1, 2, 2, bits)[1] == 0
    # the singular cell: -1/2 is a root of T and (-1/2)^3 = r
    assert _same_extremes(1, 3, Fraction(-1, 8), bits)
    assert sp._modulus_extremes(1, 3, Fraction(-1, 8), bits)[0] < mpf(2) ** -bits


def test_modulus_extremes_match_the_oracle_on_critical_values():
    # a slice of criterion 09's scan grid: r* = sign (P(n)/P(n-1))^(n/2)
    for k, n, sign in itertools.product((1, 5, 10), range(2, 31), (1, -1)):
        with mp.workprec(512 + _GUARD):
            r_star = sign * _critical_magnitude(k, n)
        assert _same_extremes(k, n, r_star, 512), (k, n, sign)


@pytest.mark.parametrize("k,n,r", [
    pytest.param(2**2100, 3, 1, id="2^2100-3-1"),        # a_l from 1 to 2^2101
    (1, 2, mpf(2) ** -2000),                              # R = 2^-1000, below 2^-900
    pytest.param(1, 3, mpf(2) ** 2850, id="1-3-2^2850"),  # a_l R'^l from 2^950 to 2^1901
    (1, 2, mpf(2) ** 3000),                               # a point beyond double range
])
def test_modulus_extremes_fall_back_to_every_point(k, n, r):
    # where the doubles cannot decide, the prefilter says so instead of
    # raising, and every head point is a candidate
    frac, head, _ = sp._fixed_grid(n, r, 128)
    assert sp._extreme_candidates(terms_upto(k, n - 1), head, frac) is None
    assert _same_extremes(k, n, r, 128)


def _exact_critical_grid(k, n, sign, bits):
    # r* = sign (P(n)/P(n-1))^(n/2) and its n-th roots, both to bits + 160
    with mp.workprec(bits + _GUARD + 160):
        r_exact = sign * (mpf(term(k, n)) / term(k, n - 1)) ** (mpf(n) / 2)
    return sp.eigen_grid(n, r_exact, bits + 160)


CLOSED_N = (*range(2, 31), 200)


@pytest.mark.parametrize("bits", [64, 512])
def test_closed_grid_within_stated_error_of_exact_roots(bits):
    # with root_sq = P(n)/P(n-1), the points are the n-th roots of the exact
    # r*, not of r* rounded to bits + _GUARD bits, each within 2^(1-F), with
    # F = bits + _GUARD + 8 + max(0, 3 - mag(root)) as without root_sq
    for k, n, sign in itertools.product((1, 4, 10), CLOSED_N, (1, -1)):
        with mp.workprec(bits + _GUARD):
            r_star = sign * _critical_magnitude(k, n)
        frac, head, s = sp._fixed_grid(n, r_star, bits, Fraction(term(k, n), term(k, n - 1)))
        points = ref.conjugate_tail(head, n, s)
        exact = _exact_critical_grid(k, n, sign, bits)
        assert frac == bits + _GUARD + 8 + max(0, 3 - mpmath.mag(exact.rhos[0])), (k, n, sign)
        with mp.workprec(bits + _GUARD + 160):
            tol = mpf(2) ** (1 - frac)
            for m, ((x, y), rho) in enumerate(zip(points, exact.rhos, strict=True)):
                assert abs(sp._from_fixed(x, y, frac) - rho) <= tol, (k, n, sign, m)


@pytest.mark.parametrize("bits", [64, 512])
def test_modulus_extremes_match_the_oracle_on_the_closed_grid(bits):
    # the scan's call: r* rounded, with root_sq = P(n)/P(n-1)
    for k, n, sign in itertools.product((1, 4, 10), CLOSED_N, (1, -1)):
        with mp.workprec(bits + _GUARD):
            r_star = sign * _critical_magnitude(k, n)
        root_sq = Fraction(term(k, n), term(k, n - 1))
        assert _same_extremes(k, n, r_star, bits, root_sq), (k, n, sign)


def _wide_parts(rng, prec: int, count: int) -> list:
    """count mpc values whose parts are 1 to 200 bits wider than prec and
    whose exact squares lie prec + 5 to prec + 8 bits apart in magnitude,
    their exponents more than 100 apart.  mpf_hypot adds such squares
    exactly: mpf_add at prec + 4 bits takes its far-exponent shortcut only
    past prec + 8."""
    values = []
    while len(values) < count:
        xm, ym = (int.from_bytes(rng.bytes(w // 8 + 1), "little") % (1 << w) | 1 << (w - 1) | 1
                  for w in map(int, prec + rng.integers(1, 201, size=2)))
        xe = int(rng.integers(-300, 300))
        twice_ye = (2 * xe + (xm * xm).bit_length() - (ym * ym).bit_length()
                    - prec - int(rng.integers(5, 9)))
        if twice_ye & 1 or 2 * xe - twice_ye <= 100:
            continue
        parts = [from_man_exp(-m if rng.integers(2) else m, e) for m, e in ((xm, xe), (ym, twice_ye // 2))]
        values.append(mp.make_mpc(tuple(parts[::-1] if rng.integers(2) else parts)))
    return values


def test_modulus_is_mpmaths_abs_bit_for_bit():
    # far exponents take mpf_add's shortcut; equal ones, zeros and exact
    # squares (the sqrtrem remainder 0) the other branches; wide parts at
    # 288 and 544 bits the band just short of the shortcut
    rng, wide_rng = np.random.default_rng(7), np.random.default_rng(29)
    for prec in (96, 288, 544):
        with mp.workprec(prec):
            values = [mpc(3, 4), mpc(0, -5), mpc(2, 0), mpc(0, 0), mpc(1, 1),
                      mpc(mpf(2) ** -300, 1), mpc(1, mpf(2) ** 300), mpc(-7, mpf(3) / 2 ** 200)]
            for _ in range(300):
                parts = [from_man_exp(int(rng.integers(1, 2**62)) << prec, int(e) - prec, prec,
                                      round_nearest)
                         for e in rng.integers(-400, 400, size=2)]
                values.append(mp.make_mpc(tuple(parts)) * mpc(0, 1) ** int(rng.integers(4)))
            if prec > 96:
                values += _wide_parts(wide_rng, prec, 1500)
            for z in values:
                assert sp._modulus(z)._mpf_ == abs(z)._mpf_, (prec, z)


def test_sqrt_raw_is_mpf_sqrt_bit_for_bit():
    # random odd mantissas of 1 to 1100 bits, exponents of both parities,
    # 64 to 1000 bits of precision; exact squares and powers of two included
    rng = np.random.default_rng(35)
    cases = [(1, 0), (1, 1), (1, -7), (9, 0), (9, 3), (25, -2), (3**40, 0)]
    for _ in range(10000):
        size = int(rng.integers(1, 1100))
        man = int.from_bytes(rng.bytes(size // 8 + 1), "little") >> (7 - size % 8) | 1
        cases.append((man * man if rng.integers(8) == 0 else man, int(rng.integers(-3000, 3000))))
    for i, (man, exp) in enumerate(cases):
        prec = int(64 + i % 937)
        want = mpf_sqrt((0, man, exp, man.bit_length()), prec, round_nearest)
        assert sp._sqrt_raw(man, exp, prec) == want, (man, exp, prec)


def test_critical_magnitude_is_mpmaths_power_bit_for_bit():
    for bits in (64, 512):
        with mp.workprec(bits + _GUARD):
            for k in range(1, 11):
                for n in range(2, 120):
                    ratio = mpf(term(k, n)) / term(k, n - 1)
                    assert _critical_magnitude(k, n)._mpf_ == (ratio ** (mpf(n) / 2))._mpf_, (k, n)


def test_quadratic_roots_are_mpmaths_bit_for_bit():
    # the roots as mpmath.sqrt(mpc(...)) gives them, real discriminants of
    # both signs included
    for bits in (64, 512):
        with mp.workprec(bits + _GUARD):
            for k, n in itertools.product((1, 2, 5), (2, 3, 4, 9, 30)):
                r_star = _critical_magnitude(k, n)
                for r in (r_star, -r_star, mpf(2), mpf(-1.5), mpf("1e-30"), mpf(3) / 7, mpc(0, 1)):
                    got = sp._quadratic_roots(k, n, r)
                    want = ref.quadratic_roots_mpmath(k, n, r)
                    assert [z._mpc_ for z in got] == [z._mpc_ for z in want], (bits, k, n, r)


def test_pow_fixed_without_the_sum_keeps_every_bit_on_the_scan_grid():
    # the closed residual's powers of the roots of _quadratic_roots over
    # criterion 09's grid, at the scan's frac: z^n without the sum w is
    # the z^n of the sum-carrying call, bit for bit
    frac = 512 + _GUARD + 24
    for k, n, sign in itertools.product(range(1, 11), range(2, 31), (1, -1)):
        with mp.workprec(512 + _GUARD):
            r_star = sign * _critical_magnitude(k, n)
            for z in sp._quadratic_roots(k, n, r_star):
                x, y = sp._to_fixed(z, frac)
                px, py, w = sp._pow_sum_fixed(x, y, n, frac, False)
                assert (px, py) == sp._pow_sum_fixed(x, y, n, frac)[:2], (k, n, sign)
                assert w == 0


@pytest.mark.parametrize("frac", [128, 600])
def test_pow_fixed_within_stated_bound(frac):
    # |p - z^n| < 3 n max(1, |z|)^n 2^-frac for _pow_sum_fixed's p, z^n
    # taken in mpc at frac + 160 bits from the exact dyadic z, and its w
    # lies within 9 n 2^-frac of sum_{i<n} |z|^(2i), relative, the sum
    # taken by Horner in mpf at 2 frac + 400 bits
    rng = np.random.default_rng(frac)
    for n in (1, 2, 3, 7, 30, 200, 1001):
        for scale in (-8, 0, 1, 40):
            x, y = (int(v) << max(0, scale + frac - 60) >> max(0, 60 - frac - scale)
                    for v in rng.integers(-2**60, 2**60, size=2))
            px, py, w = sp._pow_sum_fixed(x, y, n, frac)
            with mp.workprec(frac + 160 + 64 * n.bit_length()):
                z = mpc(mpf(x), mpf(y)) / mpf(2) ** frac
                want = z ** n
                bound = 3 * n * max(1, abs(z)) ** n * mpf(2) ** -frac
                assert abs(mpc(px, py) / mpf(2) ** frac - want) < bound, (n, scale)
            with mp.workprec(2 * frac + 400):
                m = (mpf(x) ** 2 + mpf(y) ** 2) / mpf(2) ** (2 * frac)
                total = mpf(0)
                for _ in range(n):
                    total = total * m + 1
                assert abs(w / mpf(2) ** frac - total) <= 9 * n * mpf(2) ** -frac * total, (n, scale)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 21, 64, 200])
@pytest.mark.parametrize("bits", [64, 256, 512])
def test_eigenvalues_direct_within_stated_bound_of_mpc_horner(bits, n):
    # the kernel's bound 2^(1-F) (sum_{j<n-1} |rho|^j + sum_l l a_l |rho|^(l-1)),
    # F = bits + _GUARD + 8 + max(0, 3 - mag(rho)), plus the final rounding
    # to bits + _GUARD bits and the oracle's own Horner error 8 n 2^-q sum_l
    # a_l |rho|^l at q = bits + _GUARD + 64.  The oracle evaluates at the
    # exact n-th roots of r, taken as eigen_grid at bits + 160.  At n = 200
    # it runs on every 8th grid point and the last one, so the kernel, not
    # the oracle, sets the test's time.
    picks = range(n) if n <= 64 else sorted({*range(0, n, 8), n - 1})
    p, q = bits + _GUARD, bits + _GUARD + 64
    for r in DIRECT_R:
        exact = sp.eigen_grid(n, r, bits + 160)
        rhos = [exact.rhos[m] for m in picks]
        for k in range(1, 6):
            terms = terms_upto(k, n - 1)
            spectrum = sp.eigenvalues_direct(k, n, r, bits)
            with mp.workprec(q):
                want = sp._horner_mpc(k, n, rhos)
                size = max(abs(rho) for rho in exact.rhos)
                frac = p + 8 + max(0, 3 - mpmath.mag(exact.rhos[0]))
                kernel = mpf(2) ** (1 - frac) * (
                    sum(size**j for j in range(n - 1))
                    + sum(l * a * size ** (l - 1) for l, a in enumerate(terms)))
                horner = 8 * n * mpf(2) ** -q * sum(a * size**l for l, a in enumerate(terms))
                for m, w in zip(picks, want):
                    g = spectrum.lambdas[m]
                    bound = kernel + mpf(2) ** -p * (abs(w) + kernel + horner) + horner
                    assert abs(g - w) <= bound, (k, n, r, m, g, w)


@pytest.mark.parametrize("k,n,r", [
    (1, 5, 2), (2, 9, Fraction(-3, 2)), (3, 24, Fraction(3, 7)),
    (5, 40, Fraction(169, 25)), (1, 40, Fraction(-1, 8)), (2, 7, 1j),
])
def test_det_oracle_is_the_mpc_horner_product(k, n, r):
    rep = sp.determinant_closed(k, n, r, 256)
    grid = sp.eigen_grid(n, r, 256)
    with mp.workprec(256 + _GUARD):
        prod = mpc(1)
        for lam in ref.horner_mpc(k, n, grid.rhos):
            prod *= lam
    assert prod._mpc_ == rep.det_oracle._mpc_


# (k, n, r, bits, m): grid points at which mpf_add's shortcut for far-apart
# exponents rounds one Horner step differently from the exact sum
SHORTCUT_POINTS = (
    (2, 34, Fraction(-3, 2), 64, 8), (3, 18, Fraction(-3, 2), 64, 4),
    (5, 34, Fraction(-3, 2), 64, 8), (5, 18, Fraction(-1, 8), 64, 4),
    (3, 34, Fraction(-3, 2), 256, 8), (3, 34, Fraction(-1, 8), 256, 8),
    (5, 18, Fraction(-3, 2), 256, 4), (5, 34, Fraction(-1, 8), 256, 8),
    (1, 34, Fraction(-3, 2), 512, 8), (2, 34, Fraction(-1, 8), 512, 8),
    (5, 34, Fraction(-3, 2), 512, 8),
)


def test_horner_replica_is_bit_identical_to_mpmath():
    # the integer port against mpmath's own mpc Horner, tuple for tuple: at
    # the shortcut points, at k = 5, n = 100 (coefficients up to 333 bits,
    # wider than the 288-bit working precision), at a grid point with an
    # exactly zero imaginary part, and over a small grid at 64, 256 and 512 bits
    cases = [(k, n, r, bits, [m]) for k, n, r, bits, m in SHORTCUT_POINTS]
    cases.append((5, 100, 2, 256, range(0, 100, 9)))
    cases += [(k, n, r, bits, range(n)) for bits in (64, 256, 512) for k in (1, 3)
              for n in (3, 9, 24, 64) for r in (2, Fraction(-3, 2), 2 - 3j, mpf("1e-300"), 10**40)]
    assert terms_upto(5, 99)[-1].bit_length() == 333
    assert sp.eigen_grid(9, 2, 64).rhos[0].imag == 0
    for k, n, r, bits, picks in cases:
        grid = sp.eigen_grid(n, r, bits)
        rhos = [grid.rhos[m] for m in picks]
        with mp.workprec(bits + _GUARD):
            got = sp._horner_mpc(k, n, rhos)
            want = ref.horner_mpc(k, n, rhos)
        assert [g._mpc_ for g in got] == [w._mpc_ for w in want], (k, n, r, bits)


def test_add_round_takes_mpmaths_shortcut_not_the_exact_sum():
    # k = 5, n = 18, r = -3/2, rho_4 at 256 bits: in the step that adds the
    # seventh coefficient, the real part of acc * rho is p - q with
    # exponents 298 apart.  mpf_sub takes its shortcut there and lands
    # 0.519 ulp from the exact difference; _add_round returns the same tuple.
    prec = 256 + _GUARD
    rho = sp.eigen_grid(18, Fraction(-3, 2), 256).rhos[4]
    with mp.workprec(prec):
        acc = mpc(0)
        for c in terms_upto(5, 17)[:-7:-1]:
            acc = acc * rho + c
    (a, b), (c, d) = acc._mpc_, rho._mpc_
    p, q = mpf_mul(a, c), mpf_mul(b, d)
    signed = lambda t: -t[1] if t[0] else t[1]
    got = from_man_exp(*sp._add_round(signed(p), p[2], -signed(q), q[2], prec))
    assert got == mpf_sub(p, q, prec, round_nearest)
    exact = mpf_sub(p, q)
    assert got != normalize(*exact, prec, round_nearest)


def test_root_product_identity():
    # prod_m (rho_m - a) = (-1)^n (a^n - r)
    for n, r in ((4, 1), (5, -2), (6, Fraction(3, 7))):
        grid = sp.eigen_grid(n, r, 256)
        with mp.workprec(288):
            a = mpc("0.7", "-0.3")
            prod = mpc(1)
            for rho in grid.rhos:
                prod *= rho - a
            expect = (-1) ** n * (a**n - mpmath.mpmathify(r))
            assert abs(prod - expect) < mpf(2) ** -200 * (1 + abs(expect))


# ---------------------------------------------------------------------------
# determinants

@pytest.mark.parametrize("k,n,r,expect", [
    (1, 3, 1, Fraction(9)),
    (1, 4, 1, Fraction(-640)),
    (1, 5, 2, Fraction(5964198)),
    (2, 5, Fraction(-3, 2), Fraction(282327533409, 16)),
    (3, 4, Fraction(3, 7), Fraction(-62543568, 343)),
])
def test_det_closed_matches_exact(k, n, r, expect):
    rep = sp.determinant_closed(k, n, r, 256)
    with mp.workprec(288):
        target = mpmath.mpmathify(expect)
        scale = 1 + abs(target)
        assert abs(rep.det_closed - target) <= mpf("1e-20") * scale
        assert abs(rep.det_oracle - target) <= mpf("1e-20") * scale
        assert abs(rep.det_closed - rep.det_oracle) <= mpf("1e-20") * scale


def test_det_two_by_two_closed():
    for r in (1, -1, Fraction(3, 7), 2):
        rep = sp.determinant_closed(1, 2, r, 256)
        with mp.workprec(288):
            assert abs(rep.det_closed - mpmath.mpmathify(-r)) < mpf("1e-40")


def test_det_quadratic_root_vieta():
    rep = sp.determinant_closed(1, 6, 2, 256)
    with mp.workprec(288):
        s = rep.r1 + rep.r2
        q = rep.r1 * rep.r2
        expect_s = -(2 * 1 * term(1, 5) + 2 * term(1, 4) - 1) / mpmath.mpf(2 * term(1, 5))
        expect_q = mpmath.mpf(term(1, 6)) / term(1, 5)
        assert abs(s - expect_s) < mpf("1e-60")
        assert abs(q - expect_q) < mpf("1e-60")


@pytest.mark.parametrize("r", [mpf("1e-30"), mpf("1e-60"), mpf("-1e-400"), 2, Fraction(-1, 8)])
def test_quadratic_roots_keep_vieta_at_small_r(r):
    # r1 r2 = Q and r1 + r2 = S to working precision.  For small |r| one of
    # S +- disc cancels; before the root was taken as Q over the other one,
    # r = 1e-60 gave r2 = 0 and r = 1e-30 about 30 correct digits.
    prec = 256 + _GUARD
    for k in (1, 2, 5):
        for n in (2, 4, 24):
            pn, pn1, pn2 = term(k, n), term(k, n - 1), term(k, n - 2)
            with mp.workprec(prec):
                r_mp = mpmath.mpmathify(r)
                r1, r2 = sp._quadratic_roots(k, n, r_mp)
            with mp.workprec(4 * prec):
                s = (1 - r_mp * (k * pn1 + pn2)) / (r_mp * pn1)
                q = mpf(pn) / pn1
                tol = mpf(2) ** (8 - prec)
                assert abs(r1 * r2 - q) <= tol * q, (k, n)
                assert abs(r1 + r2 - s) <= tol * (abs(r1) + abs(r2)), (k, n)


def test_det_degenerate_raises():
    roots = char_roots(1, 256)
    with mp.workprec(288):
        r = roots.alpha ** -4
    with pytest.raises(DegenerateCase):
        sp.determinant_closed(1, 4, r, 256)


def test_det_zero_r_rejected():
    with pytest.raises(ZeroR):
        sp.determinant_closed(1, 4, 0, 256)


# ---------------------------------------------------------------------------
# published table

def test_table_shape_and_r1_rows():
    rows = sp.table1_report()
    assert len(rows) == 12
    by_key = {(row.n, row.r): row for row in rows}
    for n, sigma in ((5, 21.00), (8, 352.00)):
        row = by_key[(n, "1")]
        assert row.flags == ()
        assert abs(row.lower_ours - row.lower_published) <= sp.LOWER_TOL
        assert abs(row.sigma_ours - sigma) <= sp.SIGMA_TOL
        assert abs(row.upper_ours - row.upper_published) <= sp.UPPER_TOL


def test_table_known_erratum_and_mismatches():
    rows = sp.table1_report()
    for row in rows:
        if row.r == "1":
            assert "lower_mismatch" not in row.flags
        else:
            assert "lower_mismatch" in row.flags
        if (row.n, row.r) == (8, "4"):
            assert "upper_erratum" in row.flags
            assert row.upper_ours == pytest.approx(1408.0)
        else:
            assert "upper_erratum" not in row.flags
        assert "sigma_mismatch" not in row.flags


def _assert_closed_is_mpmaths(k, n, r, bits, closed=None):
    # eigen_grid against mpmath's expjpi grid and every generic lambda
    # against the mpc formula on that grid, _mpc_ for _mpc_; returns the
    # grid.  closed, when given, is eigenvalues_closed(k, n, r, bits), and
    # its grid is eigen_grid's
    closed = closed or sp.eigenvalues_closed(k, n, r, bits)
    grid = closed.grid
    want = ref.eigen_grid_expjpi(n, r, bits)
    assert [z._mpc_ for z in grid.rhos] == [z._mpc_ for z in want], (k, n, r, bits)
    oracle = ref.closed_generic_mpc(k, n, r, want, bits)
    generic = [m for m, b in enumerate(closed.branches) if b == "generic"]
    assert len(generic) >= n - 1, (k, n, r, bits)
    assert [closed.lambdas[m]._mpc_ for m in generic] == [oracle[m]._mpc_ for m in generic], \
        (k, n, r, bits)
    return grid


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_closed_spectrum_is_mpmaths_bit_for_bit(bits):
    # real, imaginary, complex and non-dyadic r; r = 1 and r = 4 at n = 4,
    # 8 and r = 1/2, -1/4 put points on the axes, with a part exactly zero
    parts_zero = set()
    cases = list(itertools.product((1, 2, 3, 7), (3, 5, 12, 31, 64),
                                   (2, -1, 0.5, 1j, -3 + 2j, 0.3 - 0.1j)))
    cases += [(k, n, r) for k in (1, 4) for n in (4, 8)
              for r in (1, 4, Fraction(1, 2), Fraction(-1, 4), Fraction(3, 7), -1j)]
    for k, n, r in cases:
        grid = _assert_closed_is_mpmaths(k, n, r, bits)
        parts_zero |= {i for z in grid.rhos for i, v in enumerate(z._mpc_) if not v[1]}
    assert parts_zero == {0, 1}


def test_closed_spectrum_is_mpmaths_bit_for_bit_on_criterion_05(criterion_05_closed):
    # acceptance criterion 05's grid at 256 bits, which holds the 25 cells
    # of the benchmark's eigen-verify workload
    assert len(criterion_05_closed) == 1550
    for k, n, r, closed in criterion_05_closed:
        _assert_closed_is_mpmaths(k, n, r, 256, closed)


GRID_R = (1, Fraction(-3, 2), 1j, 2 - 3j)


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_eigen_grid_is_the_per_point_loop_bit_for_bit(bits, monkeypatch):
    # the rotation and Ziv test of _unit_grid against mpmath's
    # mpf_cos_sin_pi at every point (tests/reference.py, pure-Python
    # bitcount), n = 2..150; at most 5% of the points fall back to
    # _cos_sin_pi.  Defect 12: on n <= 100 with r in {1, -3/2, i} the grid
    # runs with libelefun's bitcount patched to count |v| as gmpy's does,
    # which moves mpf_cos_sin_pi itself on 12 of those 891 grids;
    # r = 2 - 3i takes the same unit roots unpatched
    fallbacks = []
    port = sp._cos_sin_pi
    monkeypatch.setattr(sp, "_cos_sin_pi", lambda x, prec: fallbacks.append(x) or port(x, prec))
    points = 0
    for n, r in itertools.product(range(2, 151), GRID_R):
        want = [z._mpc_ for z in ref.eigen_grid_mpmath(n, r, bits)]
        with monkeypatch.context() as patch:
            if n <= 100 and r != 2 - 3j:
                patch.setattr(mpmath.libmp.libelefun, "bitcount", lambda v: abs(v).bit_length())
            got = [z._mpc_ for z in sp.eigen_grid(n, r, bits).rhos]
        assert got == want, (n, r)
        points += n
    assert 0 < len(fallbacks) <= 0.05 * points


def test_cos_sin_pi_port_is_mpmaths_pure_python_branch():
    # the fallback against mpmath's own mpf_cos_sin_pi on every point of
    # n = 2..64 whose x_m has an exponent below -1, both signs of the
    # remainder among them
    signs = set()
    for prec, n in itertools.product((96, 288, 544), range(2, 65)):
        for m in range(n):
            x = mpf_div(from_int(2 * m), from_int(n), prec, round_nearest)
            if x[1] and x[2] < -1:
                signs.add((x[1] >> (-x[2] - 2)) & 1)
                want = tuple(sp._signed(v) for v in mpf_cos_sin_pi(x, prec, round_nearest))
                assert sp._cos_sin_pi(x, prec) == want, (prec, n, m)
    assert signs == {0, 1}


def test_from_fixed_is_from_man_exp_bit_for_bit():
    # _add_round with a zero second operand and the tuple builder against
    # mpmath's constructor: random integers of 1 to 400 bits, both signs,
    # some with trailing zeros, zero, and values that round up to a power of two
    rng = np.random.default_rng(43)
    values = [0, 1, -1, (1 << 330) - 1, -((1 << 330) - 1), 3 << 200]
    for _ in range(3000):
        size = int(rng.integers(1, 400))
        v = int.from_bytes(rng.bytes(size // 8 + 1), "little") >> (7 - size % 8)
        values.append((-v if rng.integers(2) else v) << int(rng.integers(0, 3)) * 7)
    for prec in (96, 288, 544):
        with mp.workprec(prec):
            for v in values:
                frac = int(rng.integers(0, 700))
                got = sp._from_fixed(v, -v, frac)
                want = from_man_exp(v, -frac, prec, round_nearest)
                assert got._mpc_ == (want, from_man_exp(-v, -frac, prec, round_nearest)), (v, frac)


# ---------------------------------------------------------------------------
# module boundary

def test_only_spectral_touches_fixed_point_pairs_and_libmp():
    # the Gaussian-integer pairs and mpmath's internals have one home
    private = {"_to_fixed", "_from_fixed", "_pow_sum_fixed", "_horner_fixed", "_modulus",
               "_fixed_grid", "_add_round", "_cmul", "_cadd", "_cdiv", "_raw_mpf"}
    leaks = []
    for path in sorted(Path(sp.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} & private
                if names or (node.module or "").startswith("mpmath.libmp"):
                    leaks.append((path.name, node.module, sorted(names)))
            elif isinstance(node, ast.Import):
                leaks += [(path.name, a.name) for a in node.names if a.name.startswith("mpmath.libmp")]
            elif isinstance(node, ast.Attribute) and (node.attr in private or node.attr == "libmp"):
                leaks.append((path.name, node.attr))
    assert not leaks, leaks

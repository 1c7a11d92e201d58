import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import mpmath
from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, mpf_mul, mpf_sub, normalize, round_nearest
from hypothesis import given, settings, strategies as st

from pelltrib import circulant as circ
from pelltrib import spectral as sp
from pelltrib.sequence import _GUARD, char_roots, recip_poly, term, terms_upto
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
    assert rep.l1 == pytest.approx(float(5 * 21 + 72))
    assert rep.spectral_lower <= rep.sigma <= rep.spectral_upper * (1 + 1e-9)


# ---------------------------------------------------------------------------
# eigen grid and spectra

def test_grid_nth_powers_return_r():
    for n, r in ((3, 1), (5, -1), (4, Fraction(3, 7)), (6, 1j), (7, -2.5)):
        grid = sp.eigen_grid(n, r, 256)
        with mp.workprec(288):
            r_mp = sp._r_to_mp(r)
            for rho in grid.rhos:
                assert abs(rho**n - r_mp) < mpf(2) ** -200 * (1 + abs(r_mp))


def test_grid_principal_branch_negative_r():
    grid = sp.eigen_grid(3, -1, 256)
    with mp.workprec(288):
        expect = mpmath.expjpi(mpf(1) / 3)
        assert abs(grid.root - expect) < mpf(2) ** -200


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


def test_eigenpair_residuals_sample():
    bound = mpf(2) ** -64
    for k, n, r in ((1, 3, 1), (2, 8, -1), (1, 13, Fraction(3, 7)), (4, 10, 1j)):
        res = sp.eigenpair_residuals(k, n, r, precision_bits=256)
        assert len(res) == n
        assert max(res) <= bound


def test_eigenpair_residuals_take_the_spectrums_precision():
    spectrum = sp.eigenvalues_direct(1, 5, 2, 64)
    at_64 = sp.eigenpair_residuals(1, 5, 2, spectrum)
    assert sp.eigenpair_residuals(1, 5, 2, spectrum, precision_bits=64) == at_64
    with pytest.raises(ValueError, match=r"^precision_bits 256 differs from the spectrum's 64$"):
        sp.eigenpair_residuals(1, 5, 2, spectrum, precision_bits=256)
    # without a spectrum the default is the direct one at 256 bits
    assert sp.eigenpair_residuals(1, 5, 2) == sp.eigenpair_residuals(
        1, 5, 2, sp.eigenvalues_direct(1, 5, 2, 256))


def _residuals_oracle(k, n, r, spectrum, extra_bits=0):
    """The residual as mpc prefix and suffix sums of a_l rho^l, with the
    wrapped part divided by rho^n row by row, at bits + _GUARD + extra_bits."""
    bits = spectrum.grid.precision_bits
    with mp.workprec(bits + _GUARD + extra_bits):
        r_mp = sp._r_to_mp(r)
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


@pytest.mark.parametrize("bits", [64, 256])
def test_eigenpair_residuals_within_stated_bound_of_oracle(bits):
    # 2^(4-F) n (max(1,|r|) A / ||M||_F + res), F = bits + _GUARD + 8, on
    # direct and closed spectra; the oracle runs 64 bits higher so its own
    # rounding stays far below the bound
    with mp.workprec(bits + _GUARD + 64):
        unit = mpf(2) ** (4 - (bits + _GUARD + 8))
    for k, n, r, eigenvalues in itertools.product(
            (1, 2, 3), (3, 5, 8, 13, 21), RESIDUAL_R,
            (sp.eigenvalues_direct, sp.eigenvalues_closed)):
        spectrum = eigenvalues(k, n, r, bits)
        got = sp.eigenpair_residuals(k, n, r, spectrum)
        want = _residuals_oracle(k, n, r, spectrum, extra_bits=64)
        with mp.workprec(bits + _GUARD + 64):
            fro = mpmath.sqrt(mpmath.mpmathify(sp.frobenius_sq_closed(k, n, abs(r))))
            scale = max(1, abs(sp._r_to_mp(r))) * sum(terms_upto(k, n - 1)) / fro
            for g, w in zip(got, want):
                assert abs(g - w) <= unit * n * (scale + w), (k, n, r, eigenvalues, g, w)


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
        frac, root, points = sp._fixed_grid(n, r, bits)
        exact = sp.eigen_grid(n, r, bits + 160)
        assert frac == bits + _GUARD + 8 + max(0, 3 - mpmath.mag(exact.root)), r
        with mp.workprec(bits + _GUARD + 160):
            tol = mpf(2) ** (1 - frac)
            for m, ((x, y), rho) in enumerate(zip(points, exact.rhos)):
                assert abs(sp._from_fixed(x, y, frac) - rho) <= tol, (r, m)


MIRROR_R = (1, -1, 2, Fraction(-3, 2), Fraction(3, 7), Fraction(-1, 8), 10**40,
            mpf("1e-300"), -0.7)


@pytest.mark.parametrize("bits", [64, 256])
def test_direct_spectrum_is_conjugate_symmetric_for_real_r(bits):
    # for real r the kernel computes rho_m and lambda_m for the head of the
    # grid only and mirrors the rest: rho_(n-m) = conj rho_m for r > 0 and
    # rho_(n-1-m) = conj rho_m for r < 0.  The mirrored pairs are exact
    # conjugates, the head values are _horner_fixed at their own points, and
    # every point, mirrored or not, lies within 2^(1-F) of the exact root.
    for r, n in itertools.product(MIRROR_R, [*range(2, 10), 21, 64]):
        exact = sp.eigen_grid(n, r, bits + 160)
        head, mirror = (n // 2 + 1, lambda m: n - m) if r > 0 else \
            ((n + 1) // 2, lambda m: n - 1 - m)
        for k in (1, 3):
            frac, _, points, values = sp._direct_fixed(k, n, r, bits)
            coeffs = [a << frac for a in reversed(terms_upto(k, n - 1))]
            for m in range(head):
                assert values[m] == sp._horner_fixed(coeffs, *points[m], frac), (r, n, m)
            for m in range(head, n):
                (x, y), (u, v) = points[m], values[m]
                assert points[mirror(m)] == (x, -y), (r, n, m)
                assert values[mirror(m)] == (u, -v), (r, n, m)
        with mp.workprec(bits + _GUARD + 160):  # the points do not depend on k
            tol = mpf(2) ** (1 - frac)
            for m, ((x, y), rho) in enumerate(zip(points, exact.rhos)):
                assert abs(sp._from_fixed(x, y, frac) - rho) <= tol, (r, n, m)


def test_direct_spectrum_evaluates_every_point_for_complex_typed_r():
    # complex-typed r keeps all n points, even with a zero imaginary part
    for r, n in itertools.product((1j, 2 - 3j, complex(2, 0), mpc(2, 0)), (2, 5, 8, 21)):
        frac, _, points, values = sp._direct_fixed(2, n, r, 256)
        coeffs = [a << frac for a in reversed(terms_upto(2, n - 1))]
        assert len(points) == len(values) == n
        for m, (x, y) in enumerate(points):
            assert values[m] == sp._horner_fixed(coeffs, x, y, frac), (r, n, m)


@pytest.mark.parametrize("n", [2, 3, 8, 21, 64, 200])
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
                frac = p + 8 + max(0, 3 - mpmath.mag(exact.root))
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
            expect = (-1) ** n * (a**n - sp._r_to_mp(r))
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
                r_mp = sp._r_to_mp(r)
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

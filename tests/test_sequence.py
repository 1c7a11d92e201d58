import itertools
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, strategies as st
from mpmath import mp, mpf, mpc

from pelltrib import sequence as seq
from pelltrib.errors import PrecisionExhausted

import reference as ref


# 40-digit values computed independently with sympy nroots.  Kept as strings:
# mpf() parses at the ambient precision, so conversion happens under workprec.
ALPHA_1 = "2.546818276884082079135997508809791528811"
BETA_1_RE = "-0.2734091384420410395679987544048957644056"
BETA_1_IM = "0.5638210928291186663377083166113015938642"
ALPHA_9 = "18.48968304082839492951612627278075321380"
ALPHA_10 = "20.49041483005944598943388905108715554525"


def test_first_terms():
    assert seq.terms_upto(1, 4) == [0, 1, 2, 5, 13]
    assert seq.terms_upto(3, 3) == [0, 1, 6, 39]
    assert seq.term(1, 0) == 0
    assert seq.term(2, 3) == 18


def test_recurrence_unrolls():
    for k in (1, 2, 5, 10):
        t = seq.terms_upto(k, 40)
        assert t[0] == 0 and t[1] == 1 and t[2] == 2 * k
        for n in range(3, 41):
            assert t[n] == 2 * k * t[n - 1] + k * t[n - 2] + t[n - 3]


@given(st.integers(min_value=1, max_value=50))
def test_third_term_closed_form(k):
    assert seq.term(k, 3) == 4 * k * k + k


def test_input_validation():
    with pytest.raises(ValueError):
        seq.term(0, 3)
    with pytest.raises(ValueError):
        seq.term(1, -1)
    with pytest.raises(ValueError):
        seq.term(1.5, 3)
    with pytest.raises(ValueError):
        seq.char_roots(1, 32)
    with pytest.raises(ValueError):
        seq.char_roots(1, 8192)


def test_char_roots_cache_stays_bounded():
    # 300 (k, bits) pairs, more than the cache holds; bench/run.py reads
    # hits and misses from cache_info() for its hit ratio
    before = seq.char_roots.cache_info()
    for k, bits in itertools.product((1, 2, 3), range(64, 164)):
        seq.char_roots(k, bits)
        assert seq.char_roots.cache_info().currsize <= 256
    after = seq.char_roots.cache_info()
    assert after.maxsize == 256
    assert after.hits + after.misses - before.hits - before.misses == 300
    seq.char_roots(3, 163)
    assert seq.char_roots.cache_info().hits == after.hits + 1


def test_dominant_root_bracket_exact():
    # Integer evaluation, no rounding: sign change inside (2k, 2k+1).
    for k in range(1, 11):
        assert seq.char_poly(k, 2 * k) == -2 * k * k - 1 < 0
        assert seq.char_poly(k, 2 * k + 1) == 2 * k * k + 3 * k > 0


def test_alpha_against_frozen_oracle():
    for k, expect in ((1, ALPHA_1), (9, ALPHA_9), (10, ALPHA_10)):
        got = seq.char_roots(k, 256).alpha
        with mp.workprec(280):
            assert abs(got - mpf(expect)) < mpf("1e-38")


def test_conjugate_pair_against_frozen_oracle():
    roots = seq.char_roots(1, 256)
    with mp.workprec(280):
        oracle = mpc(mpf(BETA_1_RE), mpf(BETA_1_IM))
        assert abs(roots.beta - oracle) < mpf("1e-38")
        assert abs(roots.gamma - oracle.conjugate()) < mpf("1e-38")


def test_residuals_across_precisions():
    for bits in (64, 128, 256, 512, 1024):
        tol = mpf(2) ** (-bits // 2)
        for k in range(1, 11):
            roots = seq.char_roots(k, bits)
            assert 2 * k < roots.alpha < 2 * k + 1
            for root in (roots.alpha, roots.beta, roots.gamma):
                with mp.workprec(bits + 16):
                    res = abs(seq.char_poly(k, root)) / (1 + abs(root)) ** 3
                assert res <= tol


def test_vieta_sum():
    for k in (1, 4, 9):
        roots = seq.char_roots(k, 256)
        with mp.workprec(280):
            total = roots.alpha + roots.beta + roots.gamma
            assert abs(total - 2 * k) < mpf(2) ** -200


def test_reciprocals_solve_reciprocal_poly():
    for k in (1, 3, 9):
        roots = seq.char_roots(k, 256)
        with mp.workprec(300):
            for root in (roots.alpha, roots.beta, roots.gamma):
                val = seq.recip_poly(k, 1 / root)
                assert abs(val) < mpf(2) ** -120


def test_cardano_exact_working_values():
    w = ref.cardano(1, 128)
    assert w.p == Fraction(-7, 3)
    assert w.q == Fraction(-61, 27)
    assert w.delta == Fraction(29, 36)
    assert ref.cardano(2).delta == Fraction(331, 108)
    assert ref.cardano(8).delta == Fraction(283, 108)
    assert ref.cardano(9).delta == Fraction(-107, 4)


def test_discriminant_sign_change_at_nine():
    for k in range(1, 9):
        assert ref.cardano(k, 64).delta > 0
    for k in range(9, 20):
        assert ref.cardano(k, 64).delta < 0


def test_discriminant_never_vanishes():
    # Exact rational scan; distinct-roots assumption holds on the whole range.
    for k in range(1, 10_001):
        assert ref.cardano(k, 64).delta != 0


def test_cardano_matches_newton_both_regimes():
    for k in (1, 5, 8, 9, 12):
        bits = 256
        tol = mpf(2) ** (-bits // 2)
        roots = seq.char_roots(k, bits)
        newton = (roots.alpha, roots.beta, roots.gamma)
        radical = ref.cardano(k, bits).roots
        with mp.workprec(bits + 16):
            for root in newton:
                assert min(abs(root - z) for z in radical) <= tol * (1 + abs(root))


def test_discriminant_has_no_integer_zero():
    # -108 delta(k) is the discriminant of char_poly, and that quartic has
    # no integer zero: by the rational-root theorem an integer zero divides
    # the constant term -27, and none of +-1, +-3, +-9, +-27 is one.  So the
    # roots are simple for every k, as char_roots' certificate needs.
    k, x, t = sympy.symbols("k x t")
    depressed = sympy.Poly(sympy.expand(seq.char_poly(k, t + 2 * k / 3)), t)
    _, _, p, q = depressed.all_coeffs()
    delta = (q / 2) ** 2 + (p / 3) ** 3
    disc = sympy.discriminant(seq.char_poly(k, x), x)
    assert sympy.expand(disc - (4 * k**4 - 28 * k**3 - 36 * k**2 - 27)) == 0
    assert sympy.expand(-108 * delta - disc) == 0
    for m in (1, 2, 8, 9):
        assert ref.cardano(m, 64).delta == delta.subs(k, m)
    assert sympy.Poly(disc, k).TC() == -27
    for m in sympy.divisors(27):
        assert disc.subs(k, m) != 0 and disc.subs(k, -m) != 0


def _moved(roots, which, shift):
    """roots with roots[which] moved by shift."""
    return tuple(z + shift if i == which else z for i, z in enumerate(roots))


def test_certificate_accepts_char_roots_own_roots():
    for bits in (64, 256, 1024):
        for k in [*range(1, 41), 1000]:
            r = seq.char_roots(k, bits)
            seq._certify_roots(k, bits, (r.alpha, r.beta, r.gamma))


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("k", [1, 5, 8, 9, 12, 1000])
def test_certificate_rejects_a_moved_root(k, bits):
    # a root moved by 8 2^-t (1 + |z|), above char_roots' 2^-t (1 + |z|)
    r = seq.char_roots(k, bits)
    roots = (r.alpha, r.beta, r.gamma)
    with mp.workprec(bits + seq._GUARD):
        eps = mpf(2) ** -seq.tolerance_bits(bits)
        for which, z in enumerate(roots):
            for direction in (1, -1, 1j):
                moved = _moved(roots, which, direction * 8 * eps * (1 + abs(z)))
                with pytest.raises(PrecisionExhausted):
                    seq._certify_roots(k, bits, moved)


@pytest.mark.parametrize("k", [1, 5, 9, 1000])
def test_certificate_radius_is_three_residuals_over_the_derivative(k):
    # a root moved by c/3 of 2^-t sqrt(1 + |z|^2) has r_z = 3|p|/|p'| near c
    # times that bound: c = 0.9 passes and c = 1.1 fails, which pins r_z's
    # factor 3
    bits = 256
    r = seq.char_roots(k, bits)
    roots = (r.alpha, r.beta, r.gamma)
    with mp.workprec(bits + seq._GUARD):
        eps = mpf(2) ** -seq.tolerance_bits(bits)
        for which, z in enumerate(roots):
            bound = eps * mpmath.sqrt(1 + abs(z) ** 2)
            seq._certify_roots(k, bits, _moved(roots, which, mpf("0.9") / 3 * bound))
            with pytest.raises(PrecisionExhausted):
                seq._certify_roots(k, bits, _moved(roots, which, mpf("1.1") / 3 * bound))


def test_certificate_rejects_a_repeated_root():
    # (alpha, gamma, gamma): each root lies within tolerance of some radical
    # root, which is all the former cross-check asked; the discs overlap
    for k in (1, 5, 9, 12):
        for bits in (64, 256):
            r = seq.char_roots(k, bits)
            repeated = (r.alpha, r.gamma, r.gamma)
            radical = ref.cardano(k, bits).roots
            with mp.workprec(bits + seq._GUARD):
                tol = mpf(2) ** -seq.tolerance_bits(bits)
                for root in repeated:
                    assert min(abs(root - z) for z in radical) <= tol * (1 + abs(root))
            with pytest.raises(PrecisionExhausted, match="overlap"):
                seq._certify_roots(k, bits, repeated)


def test_binet_small_values():
    for k in (1, 2, 7):
        for n in range(0, 30):
            got = ref.binet_term(k, n, 256)
            with mp.workprec(300):
                assert abs(got - seq.term(k, n)) < mpf("1e-40") * (1 + seq.term(k, n))


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=200))
def test_binet_matches_exact_terms(k, n):
    exact = seq.term(k, n)
    got = ref.binet_term(k, n, 256)
    with mp.workprec(400):
        assert abs(got - exact) <= mpf(2) ** -64 * (1 + abs(mpf(exact)))


def test_growth_ratio_approaches_alpha():
    for k in range(1, 11):
        alpha = seq.char_roots(k, 256).alpha
        ratio = Fraction(seq.term(k, 100), seq.term(k, 99))
        with mp.workprec(320):
            diff = abs(mp.mpmathify(ratio) - alpha)
        assert diff < mpf("1e-20")

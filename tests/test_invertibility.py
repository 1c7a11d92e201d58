import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf
from hypothesis import given, settings, strategies as st

from pelltrib import circulant as circ
from pelltrib import invertibility as inv
from pelltrib import spectral as sp
from pelltrib.sequence import _GUARD, char_roots, term, terms_upto
from pelltrib.errors import ZeroR

import reference as ref
from det_oracle import det_dense
from test_acceptance import SCAN_DIGEST


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


def test_band_exponent_at_odd_bits():
    # at 65 bits the band is 2^-ceil(65/2) = 2^-33, and the reason names it
    verdict = inv.sufficient_condition(1, 2, 2, 65)  # r = (P(2)/P(1))^1 = 2
    assert verdict.status == inv.EXCLUDED_PARAMETER
    assert "2^-33 band" in verdict.reason
    # 1.5 2^-33 away from 2 (relative) lies outside that band
    far = inv.sufficient_condition(1, 2, 2 + Fraction(3, 2**33), 65)
    assert far.status == inv.GUARANTEED_INVERTIBLE


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
    for r in (mpmath.mpc(2, 0), mpmath.mpc(-2, 0), complex(2, 0)):
        with pytest.raises(ValueError, match="^sufficient_condition covers real r only$"):
            inv.sufficient_condition(1, 5, r)
    for r in (float("nan"), float("inf"), float("-inf"), mpmath.mpf("inf"), mpmath.mpf("nan")):
        with pytest.raises(ValueError, match="^r must be finite, got "):
            inv.sufficient_condition(1, 4, r)


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


def test_scan_cells_past_double_range_keep_their_verdict():
    # pins the verdicts of cells whose coefficients go past double range
    for k, n, log10 in ((10**6, 60, 551.3401340120595), (3, 400, 485.1091599437309)):
        (cell,) = inv.counterexample_scan([k], [n], sign=1, precision_bits=128)
        assert cell.verdict == "invertible", (k, n)
        assert cell.min_abs_lambda_log10 == log10, (k, n)


def test_scan_runs_horner_on_few_points(monkeypatch):
    # the program's own count of fixed-point Horner calls over criterion
    # 09's grid: at most 3 a cell, where Horner on every head point made 4930
    calls = []
    horner = sp._horner_fixed

    def counting(*args):
        calls.append(1)
        return horner(*args)

    monkeypatch.setattr(sp, "_horner_fixed", counting)
    for sign in (1, -1):
        inv.counterexample_scan(range(1, 11), range(2, 31), sign=sign, precision_bits=512)
    assert len(calls) <= 3 * 580, len(calls)


def test_scan_prefilter_covers_coefficients_past_1000_bits(monkeypatch):
    # a_399 has about 1090 bits at k = 3; one power of two brings the
    # terms into double range, so the prefilter still picks the candidates
    calls = []
    horner = sp._horner_fixed

    def counting(*args):
        calls.append(1)
        return horner(*args)

    monkeypatch.setattr(sp, "_horner_fixed", counting)
    (cell,) = inv.counterexample_scan([3], [400], sign=1, precision_bits=128)
    assert len(calls) <= 3, len(calls)
    assert cell.min_abs_lambda_log10 == 485.1091599437309


def test_scan_counts_no_principal_root_and_no_log_fallback(monkeypatch):
    # the program's own counts over criterion 09's grid: the grid root
    # comes from math.isqrt, never from _principal_root's mpmath power, and
    # none of the 1740 logarithms needs the full-precision fallback
    roots, logs = [], []
    principal_root, log10 = sp._principal_root, mpmath.log10

    def counting_root(*args):
        roots.append(args)
        return principal_root(*args)

    def counting_log10(*args):
        logs.append(args)
        return log10(*args)

    monkeypatch.setattr(sp, "_principal_root", counting_root)
    monkeypatch.setattr(mpmath, "log10", counting_log10)
    for sign in (1, -1):
        inv.counterexample_scan(range(1, 11), range(2, 31), sign=sign, precision_bits=512)
    assert len(roots) == 0, len(roots)
    assert len(logs) == 0, len(logs)


def _criterion_09_digest():
    reprs = []
    for sign in (1, -1):
        reprs += map(repr, inv.counterexample_scan(range(1, 11), range(2, 31), sign=sign,
                                                   precision_bits=512))
    return hashlib.sha256("\n".join(reprs).encode()).hexdigest()


def _counting_extremes(monkeypatch):
    # the precision of every _modulus_extremes call, first pass and full
    calls = []
    extremes = sp._modulus_extremes

    def counting(k, n, r, bits, root_sq=None):
        calls.append(bits)
        return extremes(k, n, r, bits, root_sq)

    monkeypatch.setattr(sp, "_modulus_extremes", counting)
    return calls


def test_scan_first_pass_settles_every_cell_of_criterion_09(monkeypatch):
    # the program's own count of full-pass fallbacks over criterion 09's
    # grid: none, and one 128-bit pass a cell
    calls = _counting_extremes(monkeypatch)
    assert _criterion_09_digest() == SCAN_DIGEST
    assert calls.count(sp._FIRST_BITS) == 580, calls
    assert len(calls) == 580, len(calls) - 580


def test_scan_full_pass_alone_gives_the_same_digest(monkeypatch):
    # with every first pass undecided, each cell runs the full pass, as
    # below _FIRST_BITS bits, and every byte of the scan is the same
    calls = _counting_extremes(monkeypatch)
    monkeypatch.setattr(sp, "_settle", lambda *args: None)
    assert _criterion_09_digest() == SCAN_DIGEST
    assert calls.count(512) == 580, calls


def _critical_cells():
    # criterion 09's grid at 512 bits, then the cells past double range
    # of test_scan_cells_past_double_range_keep_their_verdict
    cells = [(k, n, sign, 512) for sign in (1, -1) for k in range(1, 11) for n in range(2, 31)]
    return cells + [(10**6, 60, 1, 512), (3, 400, 1, 512), (3, 400, 1, 129)]


def test_first_pass_moduli_lie_within_both_stated_bounds(monkeypatch):
    # |low - full| <= 2^(c - 128) + 2^(c - bits) for the smallest and the
    # largest modulus, with each pass's own c, and the spread that
    # _critical_moduli hands to _settle covers both bounds
    spreads = []
    settle = sp._settle

    def recording(min_mag, max_mag, spread, tol):
        spreads.append(spread)
        return settle(min_mag, max_mag, spread, tol)

    monkeypatch.setattr(sp, "_settle", recording)
    for k, n, sign, bits in _critical_cells():
        with mp.workprec(bits + _GUARD):
            r_star = sign * sp._critical_magnitude(k, n)
            root_sq = Fraction(term(k, n), term(k, n - 1))
            low_min, _, low_max, low_c = sp._modulus_extremes(k, n, r_star, sp._FIRST_BITS, root_sq)
            full_min, _, full_max, full_c = sp._modulus_extremes(k, n, r_star, bits, root_sq)
            bound = mpf(2) ** (low_c - sp._FIRST_BITS) + mpf(2) ** (full_c - bits)
            assert abs(low_min - full_min) <= bound, (k, n, sign, bits)
            assert abs(low_max - full_max) <= bound, (k, n, sign, bits)
            spreads.clear()
            sp._critical_moduli(k, n, sign, bits, mpf(2) ** -(bits // 2))
            assert len(spreads) == 1 and spreads[0] >= bound, (k, n, sign, bits)


def test_settle_refuses_a_logarithm_the_spread_can_move():
    # mu = log10(x) lies 2^-76 |mu| above a midpoint between two doubles,
    # beyond the 120-bit margin of 2^-80 |mu|: alone, x is settled.  A
    # spread of 2^-70 |mu| x reaches a y whose log10 lies as far below the
    # midpoint, and which rounds to the other double, so x is not
    rng = random.Random(37)
    tol = mpf(2) ** -256
    for _ in range(20):
        d = rng.uniform(-300, 300)
        with mp.workprec(1000):
            mid = mpf(d) + mpf(math.ulp(d)) / 2
            offset = abs(mid) * mpf(2) ** -76
            x, y = mpf(10) ** (mid + offset), mpf(10) ** (mid - offset)
        with mp.workprec(512 + _GUARD):
            x, y = +x, +y
            want = float(mpmath.log10(x))
            assert float(mpmath.log10(y)) != want
            assert sp._settle(x, x, x * mpf(2) ** -200, tol) == (want, bool(x <= tol * max(1, x)))
            spread = x * abs(mid) * mpf(2) ** -70
            assert abs(y - x) <= spread
            assert sp._settle(x, x, spread, tol) is None
            assert sp._log10_double(x, spread) is None


def test_settle_refuses_a_logarithm_near_a_midpoint():
    # mu halfway between two doubles: undecided at any spread, where the
    # full pass alone falls back to mpmath's log10
    rng = random.Random(38)
    for _ in range(20):
        d = rng.uniform(-300, 300)
        with mp.workprec(1000):
            x = mpf(10) ** (mpf(d) + mpf(math.ulp(d)) / 2)
        with mp.workprec(512 + _GUARD):
            x = +x
            assert sp._settle(x, x, mpf(2) ** -2000, mpf(2) ** -256) is None
    with mp.workprec(512 + _GUARD):  # log10(1) = 0 has no relative margin
        assert sp._settle(mpf(1), mpf(1), mpf(2) ** -2000, mpf(2) ** -256) is None
        assert sp._settle(mpf(0), mpf(1), mpf(2) ** -2000, mpf(2) ** -256) is None


def test_settle_refuses_a_smallest_modulus_within_the_spread_of_tol():
    # eigen_singular is min <= tol max(1, max); within the spread of that
    # threshold the first pass cannot tell, away from it it can
    tol = mpf(2) ** -256
    with mp.workprec(512 + _GUARD):
        for top in (mpf(3) / 7, mpf(5) ** 40):
            edge = tol * max(mpf(1), top)
            spread = edge * mpf(2) ** -150
            for shift in (-1, 0, 1):
                assert sp._settle(edge + shift * spread / 2, top, spread, tol) is None, (top, shift)
            assert sp._settle(edge - 3 * spread, top, spread, tol)[1] is True
            assert sp._settle(edge + 3 * spread, top, spread, tol)[1] is False


def _log10_cases():
    rng = random.Random(544)
    yield mpf(1)
    for j in range(-30, 31):
        yield mpf(10) ** j
    yield from (mpf("1e300"), mpf("1e-300"), mpf(2) ** 3000, mpf(2) ** -3000)
    for _ in range(400):
        yield mpf((rng.getrandbits(544) | 1 << 543, rng.randrange(-4000, 3000)))
    for _ in range(50):  # near 1, where log10 is small
        yield 1 + mpf((rng.getrandbits(64) | 1, -rng.randrange(70, 500)))


def test_log10_double_is_the_full_precision_double():
    with mp.workprec(512 + 32):
        for x in _log10_cases():
            assert sp._log10_double(x) == float(mpmath.log10(x)), x


def test_log10_double_falls_back_near_a_midpoint(monkeypatch):
    # x = 10^mu with mu halfway between two doubles, to 2^-540: the 120-bit
    # value cannot tell which way mu rounds, so the full-precision one does
    rng = random.Random(90)
    cases = []
    for _ in range(40):
        d = rng.uniform(-300, 300)
        with mp.workprec(1000):
            mu = mpf(d) + mpf(math.ulp(d)) / 2
            cases.append(mpf(10) ** mu)
    want = []
    with mp.workprec(512 + 32):
        cases = [+x for x in cases]
        want = [float(mpmath.log10(x)) for x in cases]
    calls = []
    log10 = mpmath.log10

    def counting(*args):
        calls.append(args)
        return log10(*args)

    monkeypatch.setattr(mpmath, "log10", counting)
    with mp.workprec(512 + 32):
        got = [sp._log10_double(x) for x in cases]
    assert got == want
    assert len(calls) == len(cases)


def test_scan_validation():
    for sign in (2, 0, True, False, 1.0):
        with pytest.raises(ValueError, match=f"^sign must be \\+1 or -1, got {sign!r}$"):
            inv.counterexample_scan([1], [4], sign=sign)
    with pytest.raises(ValueError):
        inv.counterexample_scan([1], [1])

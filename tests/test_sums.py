import json
import time

import pytest
import sympy
from hypothesis import given, strategies as st

from pelltrib import cli, sums

import reference as ref


def test_frozen_small_values():
    assert sums.s1_closed(1, 0) == 0
    assert sums.s1_closed(1, 4) == 21
    assert sums.s1_closed(1, 7) == 352
    assert sums.w1_closed(1, 0) == 0
    assert sums.w1_closed(1, 2) == 5
    assert sums.w1_closed(2, 3) == 63
    assert sums.s2_closed(1, 1) == 1
    assert sums.s2_closed(1, 4) == 199
    assert sums.s2_closed(1, 7) == 54140
    assert sums.w2_closed(1, 1) == 1
    assert sums.w2_closed(1, 4) == 760


def test_direct_oracles_are_plain_sums():
    assert ref.s1_direct(1, 4) == 0 + 1 + 2 + 5 + 13
    assert ref.w1_direct(1, 2) == 0 * 0 + 1 * 1 + 2 * 2
    assert ref.s2_direct(1, 4) == 0 + 1 + 4 + 25 + 169
    assert ref.w2_direct(1, 4) == 1 * 1 + 2 * 4 + 3 * 25 + 4 * 169


@pytest.mark.parametrize("closed,direct", [
    (sums.s1_closed, ref.s1_direct),
    (sums.w1_closed, ref.w1_direct),
    (sums.s2_closed, ref.s2_direct),
    (sums.w2_closed, ref.w2_direct),
])
def test_closed_equals_direct_on_grid(closed, direct):
    for k in (1, 2, 3, 7, 12):
        for n in range(0, 40):
            assert closed(k, n) == direct(k, n)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=300))
def test_closed_equals_direct_property(k, n):
    assert sums.s1_closed(k, n) == ref.s1_direct(k, n)
    assert sums.w1_closed(k, n) == ref.w1_direct(k, n)
    assert sums.s2_closed(k, n) == ref.s2_direct(k, n)
    assert sums.w2_closed(k, n) == ref.w2_direct(k, n)


def test_results_are_ints():
    for value in (sums.s1_closed(3, 17), sums.w1_closed(3, 17),
                  sums.s2_closed(3, 17), sums.w2_closed(3, 17)):
        assert type(value) is int


def test_report_consistent():
    # n = 0 and n = 1 exercise the base case and the first step of the check
    for k in (1, 2, 7):
        for n in (0, 1, 2, 5, 40, 300):
            rep = sums.sums_report(k, n)
            assert rep.s1 == ref.s1_direct(k, n)
            assert rep.w1 == ref.w1_direct(k, n)
            assert rep.s2 == ref.s2_direct(k, n)
            assert rep.w2 == ref.w2_direct(k, n)


def test_closed_forms_hold_for_every_k_and_n_by_induction(monkeypatch):
    """The package's own closed forms, on symbols: closed(0) = 0 from
    (P(1), P(2), P(3)) = (1, 2k, 4k^2 + k), and closed(n) - closed(n-1) is
    the term the sum adds at n, where closed(n-1) reads (P(n), P(n+1),
    P(n+2)) and P(n) = P(n+3) - 2k P(n+2) - k P(n+1).  Both are identities
    in k, so the closed forms hold for every k >= 1 and n >= 0."""
    k, n, p1, p2, p3 = sympy.symbols("k n p1 p2 p3")
    p0 = p3 - 2 * k * p2 - k * p1
    next_terms = {0: (1, 2 * k, 4 * k**2 + k), n: (p1, p2, p3), n - 1: (p0, p1, p2)}
    monkeypatch.setattr(sums, "_next_terms", lambda _k, m: next_terms[m])
    monkeypatch.setattr(sums, "_exact_div", lambda num, den, what: num / den)
    steps = {sums.s1_closed: p0, sums.w1_closed: n * p0,
             sums.s2_closed: p0**2, sums.w2_closed: n * p0**2}
    for closed, step in steps.items():
        assert sympy.cancel(closed(k, 0)) == 0, closed.__name__
        assert sympy.cancel(closed(k, n) - closed(k, n - 1) - step) == 0, closed.__name__


def test_report_check_fires_on_a_wrong_closed_form(monkeypatch, capsys):
    w2_closed = sums.w2_closed
    monkeypatch.setattr(sums, "w2_closed", lambda k, n: w2_closed(k, n) + (n == 7))
    sums.sums_report(2, 6)
    for n in (7, 8):
        with pytest.raises(ArithmeticError, match=r"^w2: step identity .* = n\*P\(n\)\^2 "):
            sums.sums_report(2, n)
    assert cli.main(["sums", "--k", "2", "--n", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "ArithmeticError"


def test_report_costs_no_pass_over_the_terms():
    # at n = 20 000 the literal sums of squares take about 7 s of CPU and the
    # closed forms about 0.1 s (2-core Xeon, CPython 3.11); k = 1 keeps the
    # term cache near 30 MB
    start = time.process_time()
    sums.sums_report(1, 20000)
    assert time.process_time() - start < 1.0


def test_validation():
    with pytest.raises(ValueError):
        sums.s1_closed(0, 4)
    with pytest.raises(ValueError):
        ref.s2_direct(1, -2)

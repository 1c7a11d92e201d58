import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pelltrib import fastops as fo
from pelltrib import circulant as circ
from pelltrib.errors import DimensionMismatch, ZeroR
from pelltrib.sequence import term

import reference as ref


def test_dft_naive_delta_and_constant():
    assert np.allclose(ref.dft_naive([1, 0, 0, 0]), np.ones(4))
    assert np.allclose(ref.dft_naive([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-12)


def test_dft_naive_shifted_delta_positive_exponent():
    got = ref.dft_naive([0, 1, 0, 0])
    assert np.allclose(got, [1, 1j, -1, -1j], atol=1e-12)


def test_fft_identity_n1():
    assert np.allclose(fo.fft([3.5 + 1j]), [3.5 + 1j])


def test_fft_delta_pow2():
    assert np.allclose(fo.fft([1, 0, 0, 0, 0, 0, 0, 0]), np.ones(8))


@pytest.mark.parametrize("n", [2, 3, 8, 12, 27, 100, 257, 331, 512])
def test_fft_matches_naive(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    err = np.linalg.norm(fo.fft(x) - ref.dft_naive(x)) / np.linalg.norm(x)
    assert err < 1e-12


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40))
def test_fft_matches_naive_property(values):
    x = np.asarray(values, dtype=np.complex128)
    scale = max(np.linalg.norm(x), 1.0)
    assert np.linalg.norm(fo.fft(x) - ref.dft_naive(x)) / scale < 1e-11


@pytest.mark.parametrize("n", [1, 2, 12, 100, 1024, 4096])
def test_round_trip(n):
    rng = np.random.default_rng(n + 1)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.linalg.norm(fo.ifft(fo.fft(x)) - x) / np.linalg.norm(x) < 1e-12


def test_fft_rejects_empty():
    with pytest.raises(DimensionMismatch):
        fo.fft([])


def test_operator_identity_generator():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    op = fo.fast_operator([1] + [0] * 15, 3)
    assert np.linalg.norm(fo.fast_matvec(op, x) - x) < 1e-10 * np.linalg.norm(x)


def test_fast_matvec_small_oracles():
    op = fo.fast_operator([0, 1, 2], 1)
    assert np.allclose(fo.fast_matvec(op, [1, 0, 0]), [0, 2, 1], atol=1e-10)
    op2 = fo.fast_operator([0, 1, 2], 2)
    assert np.allclose(fo.fast_matvec(op2, [1, 1, 1]), [3, 5, 6], atol=1e-10)


def test_operator_first_column_invariant():
    for n, r in ((5, 2), (8, 0.25), (6, -1.5), (7, 0.3 + 0.4j)):
        entries = tuple(range(1, n + 1))
        op = fo.fast_operator(entries, r)
        e0 = np.zeros(n)
        e0[0] = 1
        col = fo.fast_matvec(op, e0)
        dense = circ.build(r, entries)
        want = np.asarray([complex(dense[i, 0]) for i in range(n)])
        assert np.linalg.norm(col - want) < 1e-10 * max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize("n", [3, 12, 64, 257])
@pytest.mark.parametrize("r", [1, -1, 0.25, 4, -3.5, 0.3 + 0.4j])
def test_fast_matches_dense(n, r):
    rng = np.random.default_rng(n)
    entries = fo.bench_generator(2, n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y_fast = fo.fast_matvec(fo.fast_operator(entries, r), x)
    y_dense = fo._dense_matvec(entries, complex(r), x)
    assert np.linalg.norm(y_fast - y_dense) / np.linalg.norm(y_dense) < 1e-9


def test_linearity():
    rng = np.random.default_rng(33)
    op = fo.fast_operator(rng.standard_normal(24), 1.5)
    x, y = rng.standard_normal(24), rng.standard_normal(24)
    lhs = fo.fast_matvec(op, 2 * x + 3 * y)
    rhs = 2 * fo.fast_matvec(op, x) + 3 * fo.fast_matvec(op, y)
    assert np.linalg.norm(lhs - rhs) < 1e-9 * max(1.0, np.linalg.norm(rhs))


@pytest.mark.parametrize("n,r", [(5, 2.0), (6, -1.5), (8, 0.5)])
def test_shift_composition_returns_r_times_identity(n, r):
    gen = [0.0] * n
    gen[1] = 1.0
    op = fo.fast_operator(gen, r)
    y = np.zeros(n, dtype=np.complex128)
    y[0] = 1
    for _ in range(n):
        y = fo.fast_matvec(op, y)
    want = np.zeros(n, dtype=np.complex128)
    want[0] = r
    assert np.linalg.norm(y - want) < 1e-8 * abs(r)


def test_fast_matvec_validation():
    op = fo.fast_operator([0, 1, 2], 1)
    with pytest.raises(DimensionMismatch):
        fo.fast_matvec(op, [1, 0])
    with pytest.raises(ZeroR):
        fo.fast_operator([0, 1, 2], 0)
    with pytest.raises(DimensionMismatch):
        fo.fast_operator([], 1)


def test_fast_operator_refuses_r_outside_its_accuracy_range():
    for r in (5, 0.2, -4.5, 4.5j, 0.1 + 0.1j):
        with pytest.raises(ValueError, match=r"outside \[1/4, 4\]"):
            fo.fast_operator([0, 1, 2], r)
    for r in (0.25, 4, -0.25, -4j, 0.3 + 0.4j):
        assert fo.fast_operator([0, 1, 2], r).r == complex(r)


def test_bench_generator_bounded_and_deterministic():
    a = fo.bench_generator(1, 200)
    assert np.all(np.abs(a) < 2 ** 40)
    assert a[0] == 0 and a[1] == 1 and a[2] == 2
    assert a[3] == float(term(1, 3))
    again = fo.bench_generator(1, 200)
    assert np.array_equal(a, again)


def test_bench_rows():
    rows = fo.bench_matvec([2, 64], 1, 2, reps_fast=3, reps_dense=2)
    assert len(rows) == 4
    by_path = {(row.n, row.path): row for row in rows}
    assert by_path[(64, "fast")].rel_err < 1e-9
    assert by_path[(2, "fast")].rel_err < 1e-12
    for row in rows:
        assert row.mean_ns > 0

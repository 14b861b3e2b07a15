import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilinlab import signals
from bilinlab.signals import SparseVector


def test_sparse_vector_roundtrip():
    v = np.array([0, 1.5, 0, -2j, 0.25], dtype=complex)
    sv = SparseVector.from_dense(v)
    assert sv.support == (1, 3, 4)
    assert np.array_equal(sv.dense(), v)
    assert sv.sparsity() == 3


def test_sparse_vector_validation():
    with pytest.raises(ValueError):
        SparseVector(0, (), ())
    with pytest.raises(ValueError):
        SparseVector(4, (0, 0), (1.0, 1.0))
    with pytest.raises(ValueError):
        SparseVector(4, (2, 1), (1.0, 1.0))
    with pytest.raises(ValueError):
        SparseVector(4, (0, 4), (1.0, 1.0))
    with pytest.raises(ValueError):
        SparseVector(4, (0,), (0.0,))
    with pytest.raises(ValueError):
        SparseVector(4, (0, 1), (1.0,))


def test_norm_and_conj():
    sv = SparseVector(5, (0, 2), (3.0, 4.0j))
    assert sv.norm() == pytest.approx(5.0)
    assert sv.conj().values == (3.0 - 0j, -4.0j)


def test_linear_convolve_identity_element():
    rng = np.random.default_rng(0)
    y = SparseVector.from_dense(rng.standard_normal(4)
                                + 1j * rng.standard_normal(4))
    z = signals.linear_convolve(SparseVector.basis(4, 0), y)
    assert z.n == 7
    expect = np.concatenate([y.dense(), np.zeros(3)])
    assert np.allclose(z.dense(), expect, atol=1e-14)


def test_linear_convolve_cancellation():
    # (1,1) * (1,-1) = (1, 0, -1); the exact zero must be pruned.
    x = SparseVector(2, (0, 1), (1.0, 1.0))
    y = SparseVector(2, (0, 1), (1.0, -1.0))
    z = signals.linear_convolve(x, y)
    assert z.support == (0, 2)
    assert z.values == (1.0 + 0j, -1.0 + 0j)


def test_linear_convolve_young_bound():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = signals.random_sparse_vector(16, 3, rng)
        y = signals.random_sparse_vector(16, 3, rng)
        z = signals.linear_convolve(x, y)
        assert z.norm() <= math.sqrt(3) * x.norm() * y.norm() + 1e-9


def test_circular_convolve_frozen_example():
    x = SparseVector.from_dense([1, 1, 0, 0])
    y = SparseVector.from_dense([1, 0, 1, 0])
    z = signals.circular_convolve(x, y)
    assert np.allclose(z.dense(), np.ones(4), atol=1e-14)


def test_circular_convolve_shift():
    rng = np.random.default_rng(2)
    y = SparseVector.from_dense(rng.standard_normal(6)
                                + 1j * rng.standard_normal(6))
    for j in range(6):
        z = signals.circular_convolve(SparseVector.basis(6, j), y)
        assert np.allclose(z.dense(), np.roll(y.dense(), j), atol=1e-12)


def test_circular_equals_linear_when_zero_padded():
    """Supports inside [0, n') with ambient 2n'-1 leave no room to wrap."""
    rng = np.random.default_rng(3)
    nprime = 5
    n = 2 * nprime - 1
    for _ in range(20):
        xd = np.zeros(n, dtype=complex)
        yd = np.zeros(n, dtype=complex)
        xd[:nprime] = rng.standard_normal(nprime)
        yd[:nprime] = rng.standard_normal(nprime)
        x = SparseVector.from_dense(xd)
        y = SparseVector.from_dense(yd)
        circ = signals.circular_convolve(x, y)
        lin = signals.linear_convolve(
            SparseVector.from_dense(xd[:nprime]),
            SparseVector.from_dense(yd[:nprime]))
        assert np.allclose(circ.dense(), lin.dense()[:n], atol=1e-12)


def test_circular_convolve_dimension_mismatch():
    x = SparseVector.basis(4, 0)
    y = SparseVector.basis(5, 0)
    with pytest.raises(ValueError):
        signals.circular_convolve(x, y)
    with pytest.raises(ValueError):
        signals.circular_correlate(x, y)


def test_correlate_with_delta_is_identity():
    rng = np.random.default_rng(4)
    x = signals.random_sparse_vector(8, 3, rng)
    z = signals.circular_correlate(x, SparseVector.basis(8, 0))
    assert np.allclose(z.dense(), x.dense(), atol=1e-12)


def test_correlate_frozen_example():
    x = SparseVector.from_dense([1, 1j, 0])
    y = SparseVector.basis(3, 0)
    z = signals.circular_correlate(x, y)
    assert np.allclose(z.dense(), x.dense(), atol=1e-14)


def test_autocorrelation_fourier_identity():
    # F(x corr x) = sqrt(n) |Fx|^2
    rng = np.random.default_rng(5)
    for n in (4, 7, 12):
        x = signals.random_sparse_vector(n, min(3, n), rng)
        lhs = signals.dft(signals.circular_correlate(x, x))
        rhs = math.sqrt(n) * np.abs(signals.dft(x)) ** 2
        assert np.allclose(lhs, rhs, atol=1e-11)


def test_correlate_fourier_formula_agreement():
    rng = np.random.default_rng(6)
    n = 11
    x = signals.random_sparse_vector(n, 4, rng)
    y = signals.random_sparse_vector(n, 3, rng)
    time_domain = signals.circular_correlate(x, y).dense()
    fourier = math.sqrt(n) * signals.idft(
        signals.dft(x) * np.conj(signals.dft(y)))
    assert np.linalg.norm(time_domain - fourier) <= 1e-12 * max(
        1.0, np.linalg.norm(time_domain))


def test_time_reverse():
    assert signals.time_reverse(SparseVector.basis(4, 0)).support == (0,)
    x = SparseVector.from_dense([1, 2, 3, 4])
    assert np.allclose(signals.time_reverse(x).dense(), [1, 4, 3, 2])
    rng = np.random.default_rng(7)
    v = signals.random_sparse_vector(9, 4, rng)
    rev = signals.time_reverse(v)
    assert rev.norm() == pytest.approx(v.norm())
    assert np.array_equal(signals.time_reverse(rev).dense(), v.dense())


def test_time_reverse_is_dft_squared():
    rng = np.random.default_rng(8)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    gamma = signals.time_reverse(SparseVector.from_dense(v)).dense()
    ff = signals.dft(signals.dft(v))
    assert np.allclose(gamma, ff, atol=1e-12)


def test_dft_unitary_and_inverse():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    fv = signals.dft(v)
    assert np.linalg.norm(fv) == pytest.approx(np.linalg.norm(v), rel=1e-12)
    assert np.allclose(signals.idft(fv), v, atol=1e-12)


def test_dft_of_delta():
    n = 6
    fv = signals.dft(SparseVector.basis(n, 0))
    assert np.allclose(fv, np.full(n, 1 / math.sqrt(n)), atol=1e-14)


def test_convolution_theorem():
    rng = np.random.default_rng(10)
    n = 8
    x = signals.random_sparse_vector(n, 3, rng)
    y = signals.random_sparse_vector(n, 3, rng)
    lhs = signals.dft(signals.circular_convolve(x, y))
    rhs = math.sqrt(n) * signals.dft(x) * signals.dft(y)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_dense_circular_convolve_matches_direct_sum():
    """Fully dense inputs against the dense double sum."""
    rng = np.random.default_rng(11)
    for n in (40, 64):
        xd = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        yd = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = SparseVector.from_dense(xd)
        y = SparseVector.from_dense(yd)
        z = signals.circular_convolve(x, y).dense()
        oracle = np.array([
            sum(xd[i] * yd[(k - i) % n] for i in range(n)) for k in range(n)])
        assert np.linalg.norm(z - oracle) <= 1e-11 * np.linalg.norm(oracle)


def _double_sum(support_x, values_x, support_y, values_y, modulus=None):
    """Brute-force convolution: {key: sum of x_i y_j}, pairs in row-major
    order."""
    acc = {}
    for i, a in zip(support_x, values_x):
        for j, b in zip(support_y, values_y):
            k = i + j if modulus is None else (i + j) % modulus
            acc[k] = acc.get(k, 0) + a * b
    return acc


def _assert_kernel_matches(support_x, values_x, support_y, values_y,
                           modulus=None):
    """Keys exactly; real values bit for bit, complex ones to rounding
    (numpy's complex product may differ from Python's in the last bit)."""
    keys, values = signals.sparse_convolve(support_x, values_x, support_y,
                                           values_y, modulus)
    want = _double_sum(support_x, values_x, support_y, values_y, modulus)
    assert keys.tolist() == sorted(want)
    want = np.array([want[k] for k in sorted(want)])
    if values.dtype == float:
        assert np.array_equal(values, want)
    else:
        assert np.allclose(values, want, rtol=1e-14, atol=1e-15)
    return keys, values


def test_sparse_convolve_matches_double_sum():
    rng = np.random.default_rng(17)
    for trial in range(200):
        n = int(rng.integers(1, 13))
        sx = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                replace=False)).tolist()
        sy = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                replace=False)).tolist()
        vx = rng.standard_normal(len(sx))
        vy = rng.standard_normal(len(sy))
        if trial % 2:
            vx = vx + 1j * rng.standard_normal(len(sx))
            vy = vy + 1j * rng.standard_normal(len(sy))
        _, values = _assert_kernel_matches(sx, vx.tolist(), sy, vy.tolist())
        assert values.dtype == (complex if trial % 2 else float)
        _assert_kernel_matches(sx, vx.tolist(), sy, vy.tolist(), modulus=n)


def test_sparse_convolve_edge_cases():
    # wrap-around: 3 + 4 = 7 = 2 mod 5 collides with 0 + 2
    keys, values = _assert_kernel_matches((0, 3), (1.0, 2.0), (2, 4),
                                          (1.0, 1.0), modulus=5)
    assert keys.tolist() == [0, 2, 4] and values.tolist() == [2.0, 3.0, 1.0]
    # exact cancellation stays in the kernel as a zero
    keys, values = _assert_kernel_matches((0, 1), (1.0, 1.0), (0, 1),
                                          (1.0, -1.0))
    assert keys.tolist() == [0, 1, 2] and values.tolist() == [1.0, 0.0, -1.0]
    # far-apart supports: no dense array over the span
    keys, values = _assert_kernel_matches((0, 10 ** 6), (1.0, 2j),
                                          (0, 10 ** 6), (3.0, 1.0))
    assert keys.tolist() == [0, 10 ** 6, 2 * 10 ** 6]
    keys, values = signals.sparse_convolve((), (), (1,), (1.0,))
    assert keys.size == 0 and values.size == 0


def test_convolve_matches_double_sum_and_prunes_zeros():
    rng = np.random.default_rng(18)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        x = signals.random_sparse_vector(n, int(rng.integers(1, n + 1)), rng)
        y = signals.random_sparse_vector(n, int(rng.integers(1, n + 1)), rng)
        for z, modulus in ((signals.linear_convolve(x, y), None),
                           (signals.circular_convolve(x, y), n)):
            want = _double_sum(x.support, x.values, y.support, y.values,
                               modulus)
            assert z.n == (2 * n - 1 if modulus is None else n)
            assert z.support == tuple(sorted(want))
            assert np.allclose(z.values, [want[k] for k in sorted(want)],
                               rtol=1e-14, atol=1e-15)
    # (1, 1) circ (1, -1) on Z_2 cancels everywhere; on Z_3 only at 1
    x = SparseVector(3, (0, 1), (1.0, 1.0))
    y = SparseVector(3, (0, 1), (1.0, -1.0))
    z = signals.circular_convolve(x, y)
    assert z.support == (0, 2) and z.values == (1.0, -1.0)
    z = signals.circular_convolve(SparseVector(2, (0, 1), (1.0, 1.0)),
                                  SparseVector(2, (0, 1), (1.0, -1.0)))
    assert z.support == () and z.n == 2
    big = SparseVector(10 ** 6 + 1, (0, 10 ** 6), (1.0, 1j))
    z = signals.linear_convolve(big, big)
    assert z.n == 2 * 10 ** 6 + 1
    assert z.support == (0, 10 ** 6, 2 * 10 ** 6)
    assert z.values == (1.0, 2j, -1.0)


def test_support_shift_invariance():
    rng = np.random.default_rng(12)
    x = signals.random_sparse_vector(10, 3, rng)
    y = signals.random_sparse_vector(10, 3, rng)
    base = signals.linear_convolve(x, y).norm()
    for shift in (1, 3, 7):
        xs = SparseVector(x.n + shift,
                          tuple(i + shift for i in x.support), x.values)
        assert signals.linear_convolve(xs, y).norm() == pytest.approx(
            base, abs=1e-12)


@st.composite
def small_sparse_pair(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    s = draw(st.integers(min_value=1, max_value=n))
    f = draw(st.integers(min_value=1, max_value=n))
    return (signals.random_sparse_vector(n, s, rng),
            signals.random_sparse_vector(n, f, rng))


@settings(max_examples=40, deadline=None)
@given(small_sparse_pair())
def test_convolution_commutes(pair):
    x, y = pair
    xy = signals.circular_convolve(x, y).dense()
    yx = signals.circular_convolve(y, x).dense()
    assert np.linalg.norm(xy - yx) <= 1e-13 * max(1.0, np.linalg.norm(xy))
    lxy = signals.linear_convolve(x, y).dense()
    lyx = signals.linear_convolve(y, x).dense()
    assert np.linalg.norm(lxy - lyx) <= 1e-13 * max(1.0, np.linalg.norm(lxy))

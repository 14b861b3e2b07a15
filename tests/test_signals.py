import math
from pathlib import Path

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


def _zero_padded(x: SparseVector, n: int) -> SparseVector:
    """x embedded in C^n, n >= x.n.  Circular convolution of two vectors
    embedded so that n >= x.n + y.n - 1 is linear convolution."""
    return SparseVector(n, x.support, x.values)


def test_norm_and_conj():
    sv = SparseVector(5, (0, 2), (3.0, 4.0j))
    assert sv.norm() == pytest.approx(5.0)


def test_linear_convolve_identity_element():
    rng = np.random.default_rng(0)
    yd = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y = SparseVector.from_dense(np.concatenate([yd, np.zeros(3)]))
    z = signals.circular_convolve(SparseVector.basis(7, 0), y)
    assert np.allclose(z.dense(), y.dense(), atol=1e-14)


def test_linear_convolve_cancellation():
    # (1,1) * (1,-1) = (1, 0, -1); the exact zero must be pruned.
    x = SparseVector(3, (0, 1), (1.0, 1.0))
    y = SparseVector(3, (0, 1), (1.0, -1.0))
    z = signals.circular_convolve(x, y)
    assert z.support == (0, 2)
    assert z.values == (1.0 + 0j, -1.0 + 0j)
    assert np.array_equal(z.dense(), np.convolve([1, 1], [1, -1]))


def test_linear_convolve_young_bound():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = _zero_padded(signals.random_sparse_vector(16, 3, rng), 31)
        y = _zero_padded(signals.random_sparse_vector(16, 3, rng), 31)
        z = signals.circular_convolve(x, y)
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
        lin = np.convolve(xd[:nprime], yd[:nprime])
        assert np.allclose(circ.dense(), lin, atol=1e-12)


def test_circular_convolve_dimension_mismatch():
    x = SparseVector.basis(4, 0)
    y = SparseVector.basis(5, 0)
    with pytest.raises(ValueError):
        signals.circular_convolve(x, y)


def test_convolution_theorem():
    rng = np.random.default_rng(10)
    n = 8
    x = signals.random_sparse_vector(n, 3, rng)
    y = signals.random_sparse_vector(n, 3, rng)
    lhs = np.fft.fft(signals.circular_convolve(x, y).dense(), norm="ortho")
    rhs = (math.sqrt(n) * np.fft.fft(x.dense(), norm="ortho")
           * np.fft.fft(y.dense(), norm="ortho"))
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


@pytest.mark.parametrize("size,count", [(1, 40), (5, 200), (50, 30),
                                        (7, 0)])
def test_keyed_sums_match_add_at(size, count):
    # Bit for bit np.add.at into zeros, real and complex: every key of a
    # small size repeats, some of a large one do not occur, no terms give
    # zeros, and bins past the largest key stay zero.
    rng = np.random.default_rng(size + count)
    keys = rng.integers(0, size, count)
    real = rng.standard_normal(count)
    for terms in (real, real + 1j * rng.standard_normal(count)):
        for bins in (size, size + 3):
            want = np.zeros(bins, dtype=terms.dtype)
            np.add.at(want, keys, terms)
            got = signals.keyed_sums(keys, terms, bins)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    # Keys and terms of any shape are taken in row-major order.
    got = signals.keyed_sums(keys.reshape(2, -1), terms.reshape(2, -1), size)
    assert got.tobytes() == want[:size].tobytes()


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
        for z, modulus in ((signals.circular_convolve(
                                _zero_padded(x, 2 * n - 1),
                                _zero_padded(y, 2 * n - 1)), None),
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
    big = SparseVector(2 * 10 ** 6 + 1, (0, 10 ** 6), (1.0, 1j))
    z = signals.circular_convolve(big, big)
    assert z.n == 2 * 10 ** 6 + 1
    assert z.support == (0, 10 ** 6, 2 * 10 ** 6)
    assert z.values == (1.0, 2j, -1.0)


def test_support_shift_invariance():
    rng = np.random.default_rng(12)
    x = _zero_padded(signals.random_sparse_vector(10, 3, rng), 26)
    y = _zero_padded(signals.random_sparse_vector(10, 3, rng), 26)
    base = signals.circular_convolve(x, y).norm()
    for shift in (1, 3, 7):
        xs = SparseVector(x.n, tuple(i + shift for i in x.support), x.values)
        assert signals.circular_convolve(xs, y).norm() == pytest.approx(
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
    x, y = (_zero_padded(v, 2 * v.n - 1) for v in pair)
    lxy = signals.circular_convolve(x, y).dense()
    lyx = signals.circular_convolve(y, x).dense()
    assert np.linalg.norm(lxy - lyx) <= 1e-13 * max(1.0, np.linalg.norm(lxy))


@pytest.mark.parametrize("t,k", [(1, 1), (1, 7), (5, 3), (12, 1)])
def test_complex_normals_one_stream_in_any_stack(t, k):
    # One t-row call, t one-row calls and, per row, the real then the
    # imaginary draw of k entries give the same bits and generator state.
    rngs = [np.random.default_rng(17) for _ in range(3)]
    whole = signals.complex_normals(rngs[0], t, k)
    rows = np.concatenate([signals.complex_normals(rngs[1], 1, k)
                           for _ in range(t)])
    pairs = np.array([rngs[2].standard_normal(k)
                      + 1j * rngs[2].standard_normal(k) for _ in range(t)])
    assert whole.shape == (t, k) and whole.dtype == complex
    for got in (rows, pairs):
        assert np.array_equal(got.view(float), whole.view(float))
    states = [g.bit_generator.state for g in rngs]
    assert states[0] == states[1] == states[2]


def test_source_has_one_gaussian_draw_and_no_unbuffered_sums():
    # Every dense or sparse Gaussian draw goes through signals
    # (complex_normals, sparse_draws), every grouped sum through
    # keyed_sums, and the restart searches walk arrays, not row streams.
    src = Path(signals.__file__).parent
    texts = {p.name: p.read_text() for p in src.glob("*.py")}
    assert [name for name, text in texts.items()
            if "standard_normal(" in text] == ["signals.py"]
    assert not [name for name, text in texts.items() if "np.add.at" in text]
    assert "islice" not in texts["rnmp.py"]

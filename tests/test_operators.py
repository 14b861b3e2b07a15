import numpy as np
import pytest

from bilinlab import operators, signals


def _adjoint_error(op, rng):
    x = rng.standard_normal(op.cols) + 1j * rng.standard_normal(op.cols)
    w = rng.standard_normal(op.rows) + 1j * rng.standard_normal(op.rows)
    lhs = np.vdot(w, op.apply(x))
    rhs = np.vdot(op.adjoint(w), x)
    return abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(w))


@pytest.mark.parametrize("factory", [
    lambda: operators.identity_operator(12),
    lambda: operators.gaussian_operator(8, 20, seed=3),
    lambda: operators.sign_diagonal(16, seed=4),
    lambda: operators.partial_circulant_demodulator(9, 16, seed_eta=5, omega=6),
    lambda: operators.universal_random_demodulator(9, 16, seed_eta=5,
                                                   seed_xi=7, omega=6),
])
def test_adjoint(factory):
    rng = np.random.default_rng(0)
    op = factory()
    for _ in range(5):
        assert _adjoint_error(op, rng) < 1e-10


@pytest.mark.parametrize("factory", [
    lambda: operators.gaussian_operator(8, 20, seed=3),
    lambda: operators.sign_diagonal(16, seed=4),
    lambda: operators.partial_circulant_demodulator(9, 16, seed_eta=5, omega=6),
    lambda: operators.universal_random_demodulator(9, 16, seed_eta=5,
                                                   seed_xi=7, omega=6),
])
def test_descriptor_determinism(factory):
    op = factory()
    rebuilt = operators.operator_from_descriptor(op.descriptor)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(op.cols) + 1j * rng.standard_normal(op.cols)
    assert np.array_equal(op.apply(x), rebuilt.apply(x))


def test_gaussian_expected_isometry():
    """E ||Phi x||^2 = ||x||^2 over 2000 operator draws, within 3 SE."""
    rng = np.random.default_rng(2)
    x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    x /= np.linalg.norm(x)
    vals = np.array([
        np.linalg.norm(operators.gaussian_operator(32, 10, seed=k).apply(x)) ** 2
        for k in range(2000)])
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) <= 3 * se


def test_gaussian_cloud_distortion():
    rng = np.random.default_rng(3)
    cloud = rng.standard_normal((100, 256)) + 1j * rng.standard_normal((100, 256))
    cloud /= np.linalg.norm(cloud, axis=1, keepdims=True)
    phi = operators.gaussian_operator(96, 256, seed=11)
    ratios = [np.linalg.norm(phi.apply(v)) for v in cloud]
    assert max(abs(r - 1.0) for r in ratios) <= 0.5


def test_sign_diagonal_unitary_involution():
    rng = np.random.default_rng(4)
    d = operators.sign_diagonal(12, seed=0)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    assert np.linalg.norm(d.apply(x)) == pytest.approx(np.linalg.norm(x))
    assert np.allclose(d.apply(d.apply(x)), x, atol=1e-14)
    for j in range(12):
        e = np.zeros(12)
        e[j] = 1.0
        out = d.apply(e)
        assert abs(abs(out[j]) - 1.0) < 1e-15
        assert np.count_nonzero(out) == 1


def test_sign_composition_preserves_distortion_statistics():
    """D_xi before a Gaussian map leaves the norm-ratio law unchanged.

    Coarse two-sample check: empirical CDFs of ||A x|| and ||A D x|| over
    a shared point cloud should be close (the laws are identical).
    """
    rng = np.random.default_rng(5)
    n, m, k = 24, 16, 400
    cloud = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    cloud /= np.linalg.norm(cloud, axis=1, keepdims=True)
    a = operators.gaussian_operator(m, n, seed=21)
    d = operators.sign_diagonal(n, seed=22)
    s1 = np.sort([np.linalg.norm(a.apply(v)) for v in cloud])
    s2 = np.sort([np.linalg.norm(a.apply(d.apply(v))) for v in cloud])
    grid = np.linspace(min(s1[0], s2[0]), max(s1[-1], s2[-1]), 200)
    cdf1 = np.searchsorted(s1, grid) / k
    cdf2 = np.searchsorted(s2, grid) / k
    assert np.max(np.abs(cdf1 - cdf2)) < 0.15


def test_demodulator_expected_isometry():
    rng = np.random.default_rng(6)
    n, m = 16, 9
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    vals = np.array([
        np.linalg.norm(operators.partial_circulant_demodulator(
            m, n, seed_eta=k, omega=list(range(m))).apply(x)) ** 2
        for k in range(2000)])
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) <= 3 * se


def test_demodulator_full_rows_unitary():
    rng = np.random.default_rng(7)
    n = 8
    op = operators.partial_circulant_demodulator(n, n, seed_eta=1,
                                                 omega=list(range(n)))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.linalg.norm(op.apply(x)) == pytest.approx(np.linalg.norm(x),
                                                        rel=1e-12)
    dense = op.materialize()
    assert np.allclose(dense.conj().T @ dense, np.eye(n), atol=1e-12)


def test_demodulator_circulant_rows():
    n = 8
    op = operators.partial_circulant_demodulator(n, n, seed_eta=2,
                                                 omega=list(range(n)))
    dense = op.materialize()
    for k in range(1, n):
        assert np.allclose(dense[k], np.roll(dense[0], k), atol=1e-12)


def test_omega_validation():
    with pytest.raises(ValueError):
        operators.partial_circulant_demodulator(3, 8, 0, omega=[0, 1])
    with pytest.raises(ValueError):
        operators.partial_circulant_demodulator(3, 8, 0, omega=[0, 1, 1])
    with pytest.raises(ValueError):
        operators.partial_circulant_demodulator(3, 8, 0, omega=[0, 1, 8])
    with pytest.raises(ValueError):
        operators.partial_circulant_demodulator(9, 8, 0, omega=0)


def test_universal_demodulator_matches_dense():
    rng = np.random.default_rng(8)
    for n in (4, 16, 32):
        m = n // 2 + 1
        op = operators.universal_random_demodulator(m, n, seed_eta=1,
                                                    seed_xi=2, omega=3)
        dense = op.materialize()
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(dense @ x - op.apply(x)) <= 1e-10 * np.linalg.norm(x)


def test_bilinear_lift_consistency():
    rng = np.random.default_rng(12)
    n = 6
    b = operators.convolution_lift(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pair = b.apply_pair(x, y)
    assert np.allclose(pair, b.apply_matrix(np.outer(x, y)), atol=1e-12)
    assert np.allclose(b.apply_matrix(np.zeros((n, n))), 0.0)
    # rank-two matrix = sum of its rank-one parts
    x2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m2 = np.outer(x, y) + np.outer(x2, y2)
    assert np.allclose(b.apply_matrix(m2),
                       b.apply_pair(x, y) + b.apply_pair(x2, y2), atol=1e-12)


def test_zero_padded_lift_equals_linear_convolution():
    rng = np.random.default_rng(14)
    n = 5
    b = operators.convolution_lift(n, zero_padded=True)
    assert b.n == 2 * n - 1
    x = signals.random_sparse_vector(n, 3, rng)
    y = signals.random_sparse_vector(n, 2, rng)
    got = b.apply_pair(x.dense(), y.dense())
    want = np.convolve(x.dense(), y.dense())
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("zero_padded", [False, True])
def test_lifted_convolution_is_index_scatter(zero_padded):
    """The convolution of basis vectors e_i and e_j is e_{(i+j) mod n_out}.

    The lift goes through the FFT, so entries carry rounding of a few
    ulp; the 0/1 pattern itself must be exact.
    """
    for n in range(1, 7):
        b = operators.convolution_lift(n, zero_padded=zero_padded)
        n_out = 2 * n - 1 if zero_padded else n
        i, j = np.divmod(np.arange(n * n), n)
        want = np.zeros((n * n, n_out))
        want[np.arange(n * n), (i + j) % n_out] = 1.0
        basis = np.eye(n, dtype=complex)
        got = b.pair_apply(basis[i], basis[j])
        assert got.shape == want.shape
        assert np.array_equal(np.round(got.real), want)
        assert np.abs(got - want).max() <= 4 * np.finfo(float).eps


def test_bilinearity_probe_of_convolution_lift():
    rng = np.random.default_rng(16)
    b = operators.convolution_lift(7)
    x, x2, y = (rng.standard_normal(7) + 1j * rng.standard_normal(7)
                for _ in range(3))
    lhs = b.apply_pair(2.0 * x - 1j * x2, y)
    rhs = 2.0 * b.apply_pair(x, y) - 1j * b.apply_pair(x2, y)
    assert np.allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("factory", [
    lambda: operators.identity_operator(12),
    lambda: operators.gaussian_operator(8, 20, seed=3),
    lambda: operators.gaussian_operator(20, 8, seed=3),
    lambda: operators.sign_diagonal(16, seed=4),
    lambda: operators.partial_circulant_demodulator(9, 16, seed_eta=5, omega=6),
    lambda: operators.universal_random_demodulator(9, 16, seed_eta=5,
                                                   seed_xi=7, omega=6),
])
def test_stacked_apply_and_adjoint_equal_row_by_row(factory):
    """apply and adjoint act on (..., cols) and (..., rows) stacks along
    the last axis, every row bit for bit the one-row result."""
    op = factory()
    rng = np.random.default_rng(11)
    for action, width in ((op.apply, op.cols), (op.adjoint, op.rows)):
        stack = (rng.standard_normal((2, 3, width))
                 + 1j * rng.standard_normal((2, 3, width)))
        rows = np.array([[action(v) for v in block] for block in stack])
        assert np.array_equal(action(stack), rows)
        assert np.array_equal(action(stack[0]), rows[0])


@pytest.mark.parametrize("n, zero_padded", [(4, False), (3, True)])
def test_stacked_pair_apply_equals_row_by_row(n, zero_padded):
    b = operators.convolution_lift(n, zero_padded=zero_padded)
    rng = np.random.default_rng(11)
    x, y = (rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
            for _ in range(2))
    rows = np.array([[b.pair_apply(u, v) for u, v in zip(xs, ys)]
                     for xs, ys in zip(x, y)])
    assert np.array_equal(b.pair_apply(x, y), rows)


def test_stacked_apply_matrix_equals_one_by_one():
    b = operators.convolution_lift(5)
    rng = np.random.default_rng(12)
    mats = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    mats[1, :, 2] = 0.0
    assert np.array_equal(b.apply_matrix(mats),
                          np.array([b.apply_matrix(m) for m in mats]))

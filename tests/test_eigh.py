"""The Hermitian eigenvalue wrapper and its Jacobi fallback against numpy
and closed forms."""

import numpy as np
import pytest

from bilinlab import eigh


def _random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_eigvalsh_rejects_non_square():
    with pytest.raises(ValueError):
        eigh.eigvalsh(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigh.eigvalsh(np.zeros(3))


def test_eigvalsh_stack_matches_single_calls():
    rng = np.random.default_rng(4)
    stack = np.array([_random_hermitian(5, rng) for _ in range(7)])
    got = eigh.eigvalsh(stack)
    assert got.shape == (7, 5)
    for a, row in zip(stack, got):
        assert np.allclose(row, eigh.eigvalsh(a), atol=1e-12)
    assert eigh.eigvalsh(stack[:0]).shape == (0, 5)


def test_jacobi_fallback_on_lapack_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    rng = np.random.default_rng(5)
    stack = np.array([_random_hermitian(4, rng) for _ in range(3)])
    want = np.linalg.eigvalsh(stack)
    calls = []
    jacobi = eigh.jacobi_eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    monkeypatch.setattr(eigh, "jacobi_eigvalsh",
                        lambda a: calls.append(a) or jacobi(a))
    got = eigh.eigvalsh(stack)
    assert len(calls) == 3
    assert np.allclose(got, want, atol=1e-10)


def test_eigvalsh_matches_numpy():
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (1, 2, 3, 4, 7, 12, 24, 48, 64):
        for _ in range(4):
            a = _random_hermitian(n, rng)
            got = eigh.eigvalsh(a)
            want = np.linalg.eigvalsh(a)
            scale = max(1.0, float(np.abs(want).max()))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    assert worst < 1e-10


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(2)
    for n in (2, 5, 10, 20):
        a = _random_hermitian(n, rng)
        got = eigh.jacobi_eigvalsh(a)
        want = np.linalg.eigvalsh(a)
        assert np.allclose(got, want, atol=1e-10 * max(1.0, abs(want).max()))


def test_closed_form_two_by_two():
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert np.allclose(eigh.eigvalsh(a), [0.5, 1.5], atol=1e-12)


def test_closed_form_tridiagonal_toeplitz():
    # Eigenvalues of the n=3 Toeplitz with diagonal 1, off-diagonal 1/2
    # are 1 + cos(k pi / 4), k = 1, 2, 3.
    a = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
    want = np.sort(1.0 + np.cos(np.array([1, 2, 3]) * np.pi / 4))
    assert np.allclose(eigh.eigvalsh(a), want, atol=1e-12)


def test_degenerate_sizes():
    assert eigh.eigvalsh(np.zeros((0, 0))).size == 0
    assert eigh.eigvalsh(np.array([[3.0 + 0j]])) == pytest.approx(3.0)


def test_repeated_eigenvalues():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(_random_hermitian(6, rng))
    a = q @ np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 5.0]) @ q.conj().T
    got = eigh.eigvalsh((a + a.conj().T) / 2)
    assert np.allclose(got, [1, 1, 1, 2, 2, 5], atol=1e-10)

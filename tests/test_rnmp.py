import itertools
import math
import tracemalloc

import numpy as np
import pytest

from bilinlab import rnmp, signals
from bilinlab.rnmp import HermitianToeplitz
from bilinlab.signals import SparseVector


def test_toeplitz_construction():
    t = HermitianToeplitz(3, (1.0, 0.5 + 0.25j, -0.1))
    mat = t.to_matrix()
    assert np.allclose(mat, mat.conj().T)
    assert mat[0, 1] == 0.5 + 0.25j
    assert mat[1, 0] == 0.5 - 0.25j
    with pytest.raises(ValueError):
        HermitianToeplitz(2, (1j, 0.5))
    with pytest.raises(ValueError):
        HermitianToeplitz(3, (1.0, 0.5))


def test_autocorrelation_of_delta_is_identity():
    t = rnmp.autocorrelation_toeplitz(SparseVector.basis(4, 0), 4)
    assert np.allclose(t.to_matrix(), np.eye(4), atol=1e-14)


def test_autocorrelation_frozen_two_by_two():
    v = SparseVector(2, (0, 1), (1 / math.sqrt(2), 1 / math.sqrt(2)))
    t = rnmp.autocorrelation_toeplitz(v, 2)
    assert np.allclose(t.to_matrix(), [[1.0, 0.5], [0.5, 1.0]], atol=1e-12)


def test_autocorrelation_normalizes_and_rejects_zero():
    v = SparseVector(3, (0, 1), (2.0, 2.0))
    t = rnmp.autocorrelation_toeplitz(v, 2)
    assert t.first_row[0] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="zero vector"):
        rnmp.autocorrelation_toeplitz(SparseVector(3, (), ()), 3)
    for n in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1"):
            rnmp.autocorrelation_toeplitz(v, n)


def test_autocorrelation_energy_bound():
    # sum_k |b_k|^2 <= f for unit f-sparse t (counting both signs of k)
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = int(rng.integers(1, 5))
        t = signals.random_sparse_vector(12, f, rng)
        row = np.asarray(rnmp.autocorrelation_toeplitz(t, 12).first_row)
        energy = abs(row[0]) ** 2 + 2 * np.sum(np.abs(row[1:]) ** 2)
        assert energy <= f + 1e-9


def test_restricted_toeplitz_matches_definition():
    # B[i, j] = b_{j-i}, b_k = sum_m conj(y_m) y_{m+k} on Z; y is zero
    # padded to 9 entries, so rows past its 5 exercise the padding.
    rng = np.random.default_rng(8)
    y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    padded = np.concatenate([y, np.zeros(4)])
    lags = np.correlate(padded, padded, "full")[None]

    def b(k):
        return sum(np.conj(y[m]) * y[m + k] for m in range(5)
                   if 0 <= m + k < 5)

    for rows in ([0, 2, 3], [1, 4, 8], list(range(9))):
        want = np.array([[b(j - i) for j in rows] for i in rows])
        got = rnmp._toeplitz(lags, np.array([rows]))
        assert got.shape == (1, len(rows), len(rows))
        assert np.allclose(got[0], want, atol=1e-12)


def test_restricted_toeplitz_stack_equals_one_by_one():
    rng = np.random.default_rng(12)
    v = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    lags = np.array([np.correlate(row, row, "full") for row in v])
    supports = np.array([[0, 2, 6], [1, 2, 3], [0, 5, 6], [4, 5, 6]])
    got = rnmp._toeplitz(lags, supports)
    for r in range(4):
        one = rnmp._toeplitz(lags[r:r + 1], supports[r:r + 1])
        assert np.array_equal(got[r], one[0])


def test_det_objective_stack_matches_public_path():
    # Both paths normalize the raw coefficients themselves.
    rng = np.random.default_rng(9)
    support = (0, 2, 5)
    coeffs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    got, mats = rnmp._det_objective(7, support, coeffs)
    assert np.array_equal(mats, np.conj(mats.transpose(0, 2, 1)))
    for c, value, want in zip(coeffs, got, mats):
        t = SparseVector(7, support, tuple(c.tolist()))
        mat = rnmp.autocorrelation_toeplitz(t, 7).to_matrix()
        assert np.array_equal(mat, want)
        assert value == abs(np.linalg.det(mat))


def _unit_rows(rng, r, k):
    c = rng.standard_normal((r, k)) + 1j * rng.standard_normal((r, k))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_det_gradient_matches_central_differences(k):
    # Adjacent supports and supports spread over the whole dimension; the
    # objective normalizes its input, so central differences of it see the
    # gradient on the sphere.
    rng = np.random.default_rng(20 + k)
    h = 1e-5
    for n in (k + 1, 2 * k + 3, 16):
        spread = np.round(np.linspace(0, n - 1, k)).astype(int)
        for support in (np.arange(k), spread):
            c = _unit_rows(rng, 1, k)
            val, mats = rnmp._det_objective(n, support, c)
            grad = rnmp._det_gradient(mats, support[None], c, val)[0]
            want = np.zeros(k, dtype=complex)
            for p in range(k):
                for unit in (1.0, 1j):
                    e = np.zeros((1, k), dtype=complex)
                    e[0, p] = h * unit
                    diff = (rnmp._det_objective(n, support, c + e)[0]
                            - rnmp._det_objective(n, support, c - e)[0])
                    want[p] += unit * diff[0] / (2 * h)
            assert np.abs(grad - want).max() <= 1e-6 * np.abs(want).max()
            # Scaling c leaves the objective unchanged.
            assert abs(np.vdot(c[0], grad).real) <= 1e-12 * np.abs(grad).max()


def test_det_gradient_stack_equals_one_by_one():
    rng = np.random.default_rng(13)
    supports = np.array([[0, 1, 2], [0, 4, 11], [0, 2, 7], [0, 10, 11],
                         [0, 1, 2]])
    c = _unit_rows(rng, 5, 3)
    val, mats = rnmp._det_objective(12, supports, c)
    got = rnmp._det_gradient(mats, supports, c, val)
    for r in range(5):
        one = rnmp._det_gradient(mats[r:r + 1], supports[r:r + 1],
                                 c[r:r + 1], val[r:r + 1])
        assert np.array_equal(got[r], one[0])


def _reference_lags(n, support, c):
    """Lag row of c on support in dimension n: np.add.at of the np.outer
    products into their lags, then mirrored to be Hermitian."""
    c = c / np.linalg.norm(c)
    b = np.zeros(2 * n - 1, dtype=complex)
    np.add.at(b, n - 1 - np.subtract.outer(support, support),
              np.outer(np.conj(c), c))
    b[n - 1] = b[n - 1].real
    b[:n - 1] = np.conj(b[:n - 1:-1])
    return b


@pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
def test_autocorr_rows_match_correlate(n):
    # The lag rows of dense rows (one shared support) and of rows with a
    # few nonzeros are the np.add.at reference's bit for bit, exactly
    # Hermitian and np.correlate(v, v, "full") of the normalized row to
    # rounding; so is autocorrelation_toeplitz of a sparse row in a
    # dimension below, at and above its own.
    rng = np.random.default_rng(10)
    k = min(n, 3)
    dense = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
    supports = np.sort([rng.choice(n, size=k, replace=False)
                        for _ in range(6)], axis=1)
    coeffs = rng.standard_normal((6, k)) + 1j * rng.standard_normal((6, k))
    sparse = np.zeros((6, n), dtype=complex)
    sparse[np.arange(6)[:, None], supports] = coeffs
    for got, rows, sup, c in (
            (rnmp._lag_rows(n, np.arange(n), dense), dense,
             [np.arange(n)] * 6, dense),
            (rnmp._lag_rows(n, supports, coeffs), sparse, supports, coeffs)):
        assert got.shape == (6, 2 * n - 1)
        assert np.array_equal(got[:, ::-1], np.conj(got))
        for v, out, sup_r, c_r in zip(rows, got, sup, c):
            assert out.tobytes() == _reference_lags(n, sup_r, c_r).tobytes()
            v = v / np.linalg.norm(v)
            assert np.abs(out - np.correlate(v, v, "full")).max() <= 1e-14
    for v in sparse:
        t = SparseVector.from_dense(v)
        full = np.correlate(v, v, "full") / np.vdot(v, v).real
        for m in (max(n - 2, 1), n, n + 3):
            row = np.asarray(rnmp.autocorrelation_toeplitz(t, m).first_row)
            want = np.pad(full, m)[n - 1 + m:n - 1 + 2 * m]
            assert row[0].imag == 0
            assert np.abs(row - want).max() <= 1e-14


def test_min_eigenvalue_closed_forms():
    two = HermitianToeplitz(2, (1.0, 0.5))
    assert rnmp.min_eigenvalue(two) == pytest.approx(0.5, abs=1e-12)
    tri = HermitianToeplitz(3, (1.0, 0.5, 0.0))
    assert rnmp.min_eigenvalue(tri) == pytest.approx(1 - math.sqrt(2) / 2,
                                                     abs=1e-10)
    ident = HermitianToeplitz(5, (1.0, 0, 0, 0, 0))
    assert rnmp.min_eigenvalue(ident) == pytest.approx(1.0, abs=1e-12)


def test_min_eigenvalue_matches_charpoly_roots():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        t = signals.random_sparse_vector(6, 3, rng)
        mat = rnmp.autocorrelation_toeplitz(t, n).to_matrix()
        # roots of the characteristic polynomial as an independent oracle
        roots = np.roots(np.poly(mat))
        assert rnmp.min_eigenvalue(
            rnmp.autocorrelation_toeplitz(t, n)) == pytest.approx(
                float(np.min(roots.real)), abs=1e-10)


def test_restricted_min_eigenvalue():
    t = HermitianToeplitz(3, (1.0, 0.5, 0.0))
    assert rnmp.restricted_min_eigenvalue(t, 2) == pytest.approx(0.5,
                                                                 abs=1e-12)
    assert rnmp.restricted_min_eigenvalue(t, 3) == pytest.approx(
        rnmp.min_eigenvalue(t), abs=1e-12)
    assert rnmp.restricted_min_eigenvalue(t, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rnmp.restricted_min_eigenvalue(t, 0)


def test_restricted_min_eigenvalue_rejects_no_restarts():
    # C(30, 8) > 1e5 takes the greedy path, where no restart leaves no
    # value to return; the exhaustive path rejects it alike.
    t = HermitianToeplitz(30, (1.0, 0.5) + (0.0,) * 28)
    for s in (8, 2):
        with pytest.raises(ValueError, match="restarts must be positive"):
            rnmp.restricted_min_eigenvalue(t, s, restarts=0)


def test_restricted_min_eigenvalue_independent_of_chunk(monkeypatch):
    # The minimum over chunks of 7 and 256 submatrices is the brute-force
    # minimum over all C(10, 4) = 210 of them.
    rng = np.random.default_rng(14)
    t = rnmp.autocorrelation_toeplitz(
        signals.random_sparse_vector(10, 3, rng), 10)
    mat = t.to_matrix()
    idx = np.array(list(itertools.combinations(range(10), 4)))
    want = float(np.linalg.eigvalsh(
        mat[idx[:, :, None], idx[:, None, :]])[:, 0].min())
    for chunk in (7, 256):
        monkeypatch.setattr(rnmp, "CHUNK", chunk)
        assert rnmp.restricted_min_eigenvalue(t, 4) == want



@pytest.mark.parametrize("n, s", [(16, 5), (8, 1), (8, 8), (12, 3)])
def test_restricted_min_eigenvalue_exhaustive_is_all_subsets_minimum(
        monkeypatch, n, s):
    # The exhaustive path scores one support per translation class.  Every
    # s x s principal submatrix must be among the matrices it scores, and
    # its value is the minimum over all C(n, s) of them, bit for bit.  The
    # lags of the dense matrix all differ, so no two classes share a
    # matrix; the autocorrelation matrix is the benchmark's kind.
    rng = np.random.default_rng(n + s)
    lags = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dense = HermitianToeplitz(n, (1.0,) + tuple(lags[1:]))
    autocorr = rnmp.autocorrelation_toeplitz(
        signals.random_sparse_vector(n, 3, rng), n)
    idx = np.array(list(itertools.combinations(range(n), s)))
    eigvalsh = rnmp.eigh.eigvalsh
    for t in (dense, autocorr):
        mat = t.to_matrix()
        subs = mat[idx[:, :, None], idx[:, None, :]]
        scored = set()

        def spy(a):
            scored.update(m.tobytes() for m in a)
            return eigvalsh(a)

        monkeypatch.setattr(rnmp.eigh, "eigvalsh", spy)
        assert rnmp.restricted_min_eigenvalue(t, s) == float(
            np.linalg.eigvalsh(subs)[:, 0].min())
        assert scored >= {m.tobytes() for m in subs}


@pytest.mark.parametrize("kind", ["autocorr", "random_lags"])
def test_eigvalsh_receives_exactly_hermitian_stacks(monkeypatch, kind):
    # eigh.eigvalsh does not check symmetry (LAPACK reads the lower
    # triangle), so every caller must hand it exactly Hermitian stacks:
    # gathers of a mirrored lag row with a real b_0 are.
    rng = np.random.default_rng(34)
    eigvalsh = rnmp.eigh.eigvalsh
    received = []

    def spy(a):
        assert np.array_equal(a, a.conj().swapaxes(-1, -2))
        received.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(rnmp.eigh, "eigvalsh", spy)
    # (16, 5) takes the exhaustive path, (22, 7) the greedy one.
    for n, s in ((16, 5), (22, 7)):
        if kind == "autocorr":
            t = rnmp.autocorrelation_toeplitz(
                signals.random_sparse_vector(n, 3, rng), n)
        else:
            lags = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            t = HermitianToeplitz(n, (float(lags[0].real),) + tuple(lags[1:]))
        assert t.first_row[0].imag == 0.0
        received.clear()
        rnmp.min_eigenvalue(t)
        assert received == [(n, n)]
        received.clear()
        rnmp.restricted_min_eigenvalue(t, s, restarts=2)
        assert received and all(shape[1:] == (s, s) for shape in received)


def test_restricted_eigenvalue_monotonicity():
    rng = np.random.default_rng(3)
    t = rnmp.autocorrelation_toeplitz(
        signals.random_sparse_vector(8, 4, rng), 8)
    vals = [rnmp.restricted_min_eigenvalue(t, s) for s in range(1, 9)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12
    # interlacing: every restriction is at least the full minimum
    assert vals[-1] == pytest.approx(rnmp.min_eigenvalue(t), abs=1e-12)
    assert all(v >= vals[-1] - 1e-12 for v in vals)


def test_eigen_det_bound_frozen_example():
    t = HermitianToeplitz(2, (1.0, 0.5))
    bound = rnmp.eigen_det_lower_bound(t)
    assert bound == pytest.approx(0.75 / (math.sqrt(2) * math.sqrt(1.5)),
                                  abs=1e-12)
    assert bound == pytest.approx(0.4330, abs=5e-5)
    assert bound <= rnmp.min_eigenvalue(t) == pytest.approx(0.5)


def test_eigen_det_bound_identity():
    for n in (2, 4, 9):
        t = HermitianToeplitz(n, (1.0,) + (0.0,) * (n - 1))
        assert rnmp.eigen_det_lower_bound(t) == pytest.approx(1 / math.sqrt(n))


def test_eigen_det_bound_below_min_eigenvalue():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(1, 5))
        t = rnmp.autocorrelation_toeplitz(
            signals.random_sparse_vector(10, s, rng), n)
        assert rnmp.eigen_det_lower_bound(t) <= rnmp.min_eigenvalue(t) + 1e-10


def test_restricted_determinant_singleton():
    est = rnmp.restricted_determinant(5, 1)
    assert est.value == 1.0


def test_restricted_determinant_two_by_two():
    # det = 1 - |b_1|^2 with |b_1| <= 1/2 for unit 2-sparse t, so D = 3/4.
    est = rnmp.restricted_determinant(2, 2, search_budget=8, seed=0)
    assert est.value == pytest.approx(0.75, abs=1e-4)
    t = SparseVector(2, est.argmin_support, est.argmin_values)
    recheck = abs(np.linalg.det(
        rnmp.autocorrelation_toeplitz(t, 2).to_matrix()))
    assert recheck == pytest.approx(est.value, abs=1e-10)


@pytest.mark.parametrize("n", range(2, 9))
def test_restricted_determinant_two_sparse_oracle(n):
    # D_{n,2} = (n + 1) / 2^n exactly.
    est = rnmp.restricted_determinant(n, 2, search_budget=2, seed=0)
    assert est.value == pytest.approx((n + 1) / 2 ** n, rel=1e-9)


# Reference for the lockstep search: the per-descent loop, one objective
# call per point on the lags of _reference_lags, sharing no code with the
# batched objective.  The gradient comes from the kernel on one row, which
# the gradient tests pin to central differences; a one-row call gives the
# bits of a stacked one.

def _reference_objective(n, support, coeffs):
    lags = np.subtract.outer(np.arange(n), np.arange(n))
    mats = [_reference_lags(n, support, c)[n - 1 - lags] for c in coeffs]
    return np.abs(np.linalg.det(np.array(mats)))


def _gaps(support):
    return tuple(b - a for a, b in zip(support, support[1:]))


def _reference_determinant(n, k, search_budget, seed,
                           objective=_reference_objective):
    supports = [(0,) + rest
                for rest in itertools.combinations(range(1, n), k - 1)]
    supports = [sup for sup in supports if not _gaps(sup)[::-1] < _gaps(sup)]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best = math.inf
    best_support = supports[0]
    best_coeffs = np.ones(k, dtype=complex) / math.sqrt(k)
    for support in supports:
        for _ in range(search_budget):
            c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            c /= np.linalg.norm(c)
            val = objective(n, support, c[None])[0]
            step = 0.3
            grad = None
            for _ in range(120):
                if step < 1e-6:
                    break
                if grad is None:
                    rows = np.array([support])
                    grad = rnmp._det_gradient(
                        rnmp._det_objective(n, rows, c[None])[1], rows,
                        c[None], np.array([val]))[0]
                gn = np.linalg.norm(grad)
                if gn < 1e-12:
                    break
                tc = c - step * grad / gn
                tc /= np.linalg.norm(tc)
                tval = objective(n, support, tc[None])[0]
                if tval < val:
                    c, val, grad = tc, tval, None
                else:
                    step *= 0.5
            if val < best:
                best = val
                best_support = support
                best_coeffs = c / np.linalg.norm(c)
    return rnmp.DeterminantEstimate(n, k, float(best), tuple(best_support),
                                    tuple(best_coeffs.tolist()), seed)


# (n, budget, seed) per k: one support with many restarts, more supports
# with few; MAX_RESTARTS (64) is the largest budget.
_DETERMINANT_CASES = [(k, n, budget, seed)
                      for k in (2, 3, 4, 5)
                      for n, budget, seed in ((k, 16, 0), (k + 1, 3, 1),
                                              (k + 2, 1, 2), (k + 1, 5, 4),
                                              (k + 3, 1, 5))]
_DETERMINANT_CASES += [(2, 2, 64, 3), (3, 3, 64, 3)]


@pytest.mark.parametrize("k,n,budget,seed", _DETERMINANT_CASES)
def test_restricted_determinant_matches_per_descent_reference(k, n, budget,
                                                              seed):
    assert rnmp.restricted_determinant(n, k, budget, seed) == \
        _reference_determinant(n, k, budget, seed)


def test_restricted_determinant_matches_reference_across_chunks(monkeypatch):
    # Chunks of 3 and 7 descents split the restarts of one support and
    # leave a short last chunk.
    for chunk in (3, 7):
        monkeypatch.setattr(rnmp, "CHUNK", chunk)
        for n, k, budget, seed in ((5, 3, 2, 0), (6, 2, 5, 1), (4, 4, 4, 2)):
            assert rnmp.restricted_determinant(n, k, budget, seed) == \
                _reference_determinant(n, k, budget, seed)


def test_restricted_determinant_matches_reference_on_ties(monkeypatch):
    # A coarsely rounded objective stops most descents at their start
    # point with equal values: of tied descents the first in (support,
    # restart) order wins, within a chunk and across chunks.
    kernel = rnmp._det_objective
    def rounded_kernel(n, supports, coeffs):
        val, mats = kernel(n, supports, coeffs)
        return np.round(val, 1), mats

    monkeypatch.setattr(rnmp, "_det_objective", rounded_kernel)
    monkeypatch.setattr(rnmp, "CHUNK", 4)

    def rounded(n, support, coeffs):
        return np.round(_reference_objective(n, support, coeffs), 1)

    for n, k, budget, seed in ((4, 2, 3, 0), (5, 3, 2, 1), (6, 3, 1, 2)):
        assert rnmp.restricted_determinant(n, k, budget, seed) == \
            _reference_determinant(n, k, budget, seed, rounded)


def test_restricted_determinant_monotone_in_n():
    d2 = rnmp.restricted_determinant(2, 2, search_budget=4, seed=1).value
    d3 = rnmp.restricted_determinant(3, 2, search_budget=4, seed=1).value
    assert d3 <= d2 + 1e-6


def test_restricted_determinant_validation():
    with pytest.raises(ValueError):
        rnmp.restricted_determinant(4, 2, search_budget=0)
    with pytest.raises(ValueError, match="MAX_RESTARTS = 64"):
        rnmp.restricted_determinant(4, 2, search_budget=rnmp.MAX_RESTARTS + 1)
    with pytest.raises(ValueError):
        rnmp.restricted_determinant(2, 3)


def _mirror(support):
    """The anchored mirror image u -> max(S) - u of an anchored support."""
    return tuple(sorted(max(support) - u for u in support))


def test_canonical_supports_are_a_reflection_transversal():
    for n in range(1, 17):
        for k in range(1, min(n, 5) + 1):
            anchored = [tuple(r) for r in rnmp._anchored_supports(n, k)]
            kept = [tuple(r) for r in rnmp._canonical_supports(n, k)]
            keep = set(kept)
            # a subsequence of the anchored order, with no row repeated
            assert kept == [sup for sup in anchored if sup in keep]
            assert len(keep) == len(kept)
            for sup in anchored:
                assert len({sup, _mirror(sup)} & keep) == 1
            assert not any(_mirror(sup) in keep - {sup} for sup in kept)
    counts = {(n, k): len(rnmp._canonical_supports(n, k))
              for n, k in ((12, 3), (16, 3), (12, 4))}
    assert counts == {(12, 3): 30, (16, 3): 56, (12, 4): 95}


@pytest.mark.parametrize("n,k", [(5, 2), (8, 3), (12, 3), (12, 4), (16, 5)])
def test_det_objective_is_mirror_invariant(n, k):
    # t'_j = conj(t_{L-j}) on the mirrored support has the lags of t.
    rng = np.random.default_rng(n * k)
    for _ in range(10):
        support = np.sort(rng.choice(n, size=k, replace=False))
        support -= support[0]
        c = signals.complex_normals(rng, 1, k)
        mirrored = np.array([_mirror(support.tolist())])
        val = rnmp._det_objective(n, support[None], c)[0]
        val_m = rnmp._det_objective(n, mirrored, np.conj(c[:, ::-1]))[0]
        assert abs(val_m[0] - val[0]) <= 1e-14 * val[0]


@pytest.mark.parametrize("s,f,n", [(2, 3, 8), (3, 3, 9), (3, 4, 12),
                                   (4, 3, 10)])
def test_alt_min_is_invariant_under_joint_mirroring(s, f, n):
    # Mirroring both supports mirrors x * y; y starts reversed.
    rng = np.random.default_rng(s * f * n)
    sx = np.sort([rng.choice(n, size=s, replace=False) for _ in range(8)])
    sy = np.sort([rng.choice(n, size=f, replace=False) for _ in range(8)])
    y = signals.complex_normals(rng, 8, f)
    y /= signals.row_norms(y)[:, None]
    mx = np.array([_mirror(row) for row in (sx - sx[:, :1]).tolist()])
    my = np.array([_mirror(row) for row in (sy - sy[:, :1]).tolist()])
    got = rnmp._alt_min(mx, my, y[:, ::-1].copy())
    want = rnmp._alt_min(sx, sy, y)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_exhaustive_pairs_count_anchored_supports(monkeypatch):
    # The exhaustive/sampled choice counts translation-normalized pairs,
    # C(9, 2)^2 = 1296 and C(10, 2)^2 = 2025, while the enumeration pairs
    # x's reflection classes with every y support: 16 x 28 at (3, 3, 9).
    assert rnmp._exhaustive_pairs(3, 3, 10)
    assert not rnmp._exhaustive_pairs(3, 3, 11)
    scored = []
    engine = rnmp._min_norm
    monkeypatch.setattr(rnmp, "_min_norm", lambda sx, sy, rng, starts: (
        scored.append(len(sx)) or engine(sx, sy, rng, starts)))
    rnmp.alpha_empirical(3, 3, 9, seed=0)
    rnmp.alpha_empirical(2, 3, 9, seed=0)
    assert scored == [16 * 28, 8 * 28]


def test_compressed_dimension():
    assert rnmp.compressed_dimension(2, 2) == 16
    assert rnmp.compressed_dimension(2, 3) == 729
    assert rnmp.compressed_dimension(1, 1, 8) == 1
    assert rnmp.compressed_dimension(1, 2, 64) == 2
    assert rnmp.compressed_dimension(2, 2, 10) == 10
    # m2^(2 m2) in exact integers, m2 = s + f - 2
    assert rnmp.compressed_dimension(5, 5) == 8 ** 16 == 281474976710656
    assert rnmp.compressed_dimension(5, 6) == 9 ** 18
    assert rnmp.compressed_dimension(50, 50, 60) == 60
    with pytest.raises(ValueError):
        rnmp.compressed_dimension(0, 2)


def test_alpha_lower_bound_equality_case():
    assert rnmp.alpha_lower_bound(1, 5, 32) == 1.0
    assert rnmp.alpha_lower_bound(7, 1, 32) == 1.0


def _chain_alpha_two(nt):
    """The chain value sqrt(D_{nt,2} / sqrt(nt 2^(nt-1))) with the closed
    form D_{nt,2} = (nt+1)/2^nt."""
    return math.sqrt((nt + 1) / 2.0 ** nt / math.sqrt(nt * 2.0 ** (nt - 1)))


@pytest.mark.parametrize("s,f,n,nt", [(2, 2, 6, 6), (2, 4, 16, 16),
                                      (5, 2, 40, 16), (2, 3, 4, 4)])
def test_alpha_lower_bound_takes_closed_form_for_two_sparse(monkeypatch, s,
                                                            f, n, nt):
    def no_search(*args):
        raise AssertionError("the determinant search ran")

    monkeypatch.setattr(rnmp, "restricted_determinant", no_search)
    assert rnmp.alpha_lower_bound(s, f, n, det_budget=3, seed=7) == \
        _chain_alpha_two(nt)


@pytest.mark.parametrize("n", range(2, 17))
def test_alpha_lower_closed_form_matches_search(n):
    # The descent's D_{n,2} is an upper estimate within 1.1e-12 of the
    # closed form, so the chain values agree within 1e-12 relative.
    est = rnmp.restricted_determinant(n, 2, 16, 0)
    searched = math.sqrt(est.value / math.sqrt(n * 2.0 ** (n - 1)))
    closed = rnmp.alpha_lower_bound(2, 2, n)
    assert abs(closed - searched) <= 1e-12 * closed


def test_alpha_lower_below_empirical():
    lower = rnmp.alpha_lower_bound(2, 2, 8, det_budget=4, seed=0)
    emp = rnmp.alpha_empirical(2, 2, 8, trials=8, seed=0)
    assert 0.0 <= lower <= emp + 1e-9


def test_alpha_empirical_equality_and_frozen_values():
    assert rnmp.alpha_empirical(1, 3, 16) == 1.0
    for n in (2, 4, 5):
        assert rnmp.alpha_empirical(2, 2, n, trials=8, seed=0) == \
            pytest.approx(1 / math.sqrt(2), abs=1e-6)
    with pytest.raises(ValueError):
        rnmp.alpha_empirical(2, 2, 4, trials=0)
    with pytest.raises(ValueError):
        rnmp.alpha_empirical(5, 2, 4)


def test_alpha_empirical_three_sparse():
    assert rnmp.alpha_empirical(3, 3, 9, trials=8, seed=0) == \
        pytest.approx(1 / 3, abs=1e-5)


def test_alpha_empirical_nonincreasing_in_sparsity():
    a22 = rnmp.alpha_empirical(2, 2, 5, trials=8, seed=0)
    a23 = rnmp.alpha_empirical(2, 3, 5, trials=8, seed=0)
    assert a23 <= a22 + 1e-9


# Reference for the lockstep alternating minimization: the per-pair,
# per-start loop with np.correlate and one eigh per matrix, sharing no
# code with the stacked engine.  The engine sums each lag over the pairs
# of a support in its own order, not as a dot product over a dense row,
# so it matches the reference to within 1e-12 relative, not bit for bit.

def _close(got, want):
    return abs(got - want) <= 1e-12 * want


def _reference_toeplitz(v, rows):
    lags = np.subtract.outer(rows, rows)
    return np.correlate(v, v, "full")[v.size - 1 - lags]


def _reference_pair_min_norm(support_x, support_y, n, rng, starts):
    support_x = sorted(int(i) for i in support_x)
    support_y = sorted(int(j) for j in support_y)
    f = len(support_y)
    best = math.inf
    for _ in range(starts):
        yv = rng.standard_normal(f) + 1j * rng.standard_normal(f)
        yv /= np.linalg.norm(yv)
        val = math.inf
        for _ in range(rnmp.ALT_MIN_MAX_ITERS):
            ydense = np.zeros(n, dtype=complex)
            ydense[support_y] = yv
            _, vx = np.linalg.eigh(_reference_toeplitz(ydense, support_x))
            xdense = np.zeros(n, dtype=complex)
            xdense[support_x] = vx[:, 0]
            wy, vy = np.linalg.eigh(_reference_toeplitz(xdense, support_y))
            yv = vy[:, 0]
            new_val = float(wy[0])
            if (val - new_val < rnmp.ALT_MIN_STALL * abs(val)
                    or new_val == 0):
                val = new_val
                break
            val = new_val
        best = min(best, val)
    return math.sqrt(max(best, 0.0))


def _reference_alpha_empirical(s, f, n, trials, seed):
    if min(s, f) == 1:
        return 1.0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best = math.inf
    sx_list = [(0,) + r for r in itertools.combinations(range(1, n), s - 1)]
    sy_list = [(0,) + r for r in itertools.combinations(range(1, n), f - 1)]
    if len(sx_list) * len(sy_list) <= 2000:
        # x's support up to reflection: mirroring both supports keeps the
        # norm, so every y support pairs with one orientation of x's
        sx_list = [sx for sx in sx_list if not _gaps(sx)[::-1] < _gaps(sx)]
        for sx in sx_list:
            for sy in sy_list:
                best = min(best, _reference_pair_min_norm(sx, sy, n, rng, 2))
    else:
        # supports from their own x and y streams, one pair at a time: the
        # s smallest of n keys; the starts stay on the root generator
        rng_x, rng_y = (np.random.default_rng(g)
                        for g in np.random.SeedSequence(seed).spawn(2))
        for _ in range(trials):
            sx = np.sort(np.argsort(rng_x.standard_normal(n),
                                    kind="stable")[:s])
            sy = np.sort(np.argsort(rng_y.standard_normal(n),
                                    kind="stable")[:f])
            best = min(best, _reference_pair_min_norm(sx, sy, n, rng, 2))
        # then the consecutive pair, x on {0..s-1} and y on {0..f-1}
        best = min(best, _reference_pair_min_norm(range(s), range(f), n,
                                                  rng, 2))
    return min(best, math.sqrt(min(s, f)))


def _exhaustive_pairs(s, f, n):
    return math.comb(n - 1, s - 1) * math.comb(n - 1, f - 1) <= 2000


# (s, f, n, trials): exhaustive pairs first, then sampled ones.
_ALPHA_CASES = [(2, 2, 8, 10), (2, 3, 6, 4), (3, 2, 9, 30), (2, 2, 5, 1),
                (3, 3, 12, 4), (2, 4, 16, 40), (4, 3, 14, 25)]


@pytest.mark.parametrize("s,f,n,trials", _ALPHA_CASES)
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_alpha_empirical_matches_per_pair_reference(s, f, n, trials, seed):
    assert _exhaustive_pairs(s, f, n) == (n <= 9)
    assert _close(rnmp.alpha_empirical(s, f, n, trials, seed),
                  _reference_alpha_empirical(s, f, n, trials, seed))


def test_alpha_empirical_matches_reference_across_chunks(monkeypatch):
    # Chunks of 3 and 7 rows split the two starts of one pair and leave a
    # short last chunk (or only a short one); every stack but the last is
    # one full chunk.
    engine = rnmp._alt_min
    stacked = []

    def recording(sx, sy, y):
        stacked.append(len(y))
        return engine(sx, sy, y)

    monkeypatch.setattr(rnmp, "_alt_min", recording)
    for chunk in (3, 7):
        monkeypatch.setattr(rnmp, "CHUNK", chunk)
        for s, f, n, trials, seed in ((2, 2, 5, 1, 0), (2, 3, 6, 1, 2),
                                      (2, 4, 16, 1, 1), (2, 4, 16, 3, 3),
                                      (3, 3, 12, 7, 4), (2, 4, 16, 10, 0)):
            stacked.clear()
            assert _close(rnmp.alpha_empirical(s, f, n, trials, seed),
                          _reference_alpha_empirical(s, f, n, trials, seed))
            assert stacked[:-1] == [chunk] * (len(stacked) - 1)
            assert 0 < stacked[-1] <= chunk


def test_alpha_empirical_matches_reference_at_iteration_cap(monkeypatch):
    # Caps of 1 to 3 rounds stop rows before they stall, while other rows
    # of the same stack stall earlier.
    for cap in (1, 2, 3):
        monkeypatch.setattr(rnmp, "ALT_MIN_MAX_ITERS", cap)
        for case in ((3, 3, 12, 6, 0), (2, 4, 16, 5, 1), (2, 3, 6, 1, 2)):
            assert _close(rnmp.alpha_empirical(*case),
                          _reference_alpha_empirical(*case))


def test_alpha_empirical_stacks_at_most_one_chunk(monkeypatch):
    # 1500 sampled pairs and the consecutive pair, two starts each: eleven
    # full default chunks of rows and a short one.
    engine = rnmp._alt_min
    stacked = []
    monkeypatch.setattr(rnmp, "_alt_min", lambda sx, sy, y: (
        stacked.append(len(y)) or engine(sx, sy, y)))
    rnmp.alpha_empirical(2, 4, 16, trials=1500, seed=0)
    chunk = rnmp.CHUNK
    assert stacked == [chunk] * (3002 // chunk) + [3002 % chunk]


@pytest.mark.parametrize("starts", [1, 2, 5])
def test_pair_min_norm_matches_reference_and_leaves_rng_state(monkeypatch,
                                                              starts):
    monkeypatch.setattr(rnmp, "CHUNK", 3)
    for sx, sy, n in (((5, 0, 2), (1, 3, 4, 9), 12), ((3, 4), (1, 3), 8),
                      ((0, 1, 2), (0, 2), 4), ((1, 6), (0, 1, 2, 3, 4), 7)):
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        assert _close(rnmp.pair_min_norm(sx, sy, n, ours, starts),
                      _reference_pair_min_norm(sx, sy, n, theirs, starts))
        assert ours.bit_generator.state == theirs.bit_generator.state
    assert _close(rnmp.pair_min_norm((0, 2), (0, 1), 5),
                  _reference_pair_min_norm((0, 2), (0, 1), 5,
                                           np.random.default_rng(0), 4))


def _root_state_after(monkeypatch, search, *args):
    """The state of the first generator that ``search(*args)`` makes, once
    the search has returned."""
    real = np.random.default_rng
    made = []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: made.append(real(*a)) or made[-1])
    search(*args)
    monkeypatch.setattr(np.random, "default_rng", real)
    return made[0].bit_generator.state


def test_searches_leave_rng_state_of_per_item_references(monkeypatch):
    # One start per (pair or support, restart) row is drawn, in row order,
    # also when chunks of 3 rows split the starts of one item.
    monkeypatch.setattr(rnmp, "CHUNK", 3)
    for case in ((2, 3, 6, 4, 1), (2, 4, 16, 5, 0), (3, 3, 12, 4, 2)):
        assert _root_state_after(monkeypatch, rnmp.alpha_empirical, *case) \
            == _root_state_after(monkeypatch, _reference_alpha_empirical,
                                 *case)
    for case in ((5, 3, 2, 0), (6, 2, 5, 1), (4, 4, 4, 2)):
        assert _root_state_after(monkeypatch, rnmp.restricted_determinant,
                                 *case) \
            == _root_state_after(monkeypatch, _reference_determinant, *case)


def _supports(rng, rows, n, k):
    """Sorted k-subsets of range(n), row 0 holding both 0 and n - 1."""
    out = np.sort([rng.permutation(n)[:k] for _ in range(rows)], axis=1)
    out[0] = np.r_[0, np.arange(n - k + 1, n)]
    return out


@pytest.mark.parametrize("s,f,n", [(2, 5, 9), (4, 3, 12), (3, 3, 7),
                                   (5, 2, 30)])
def test_pair_form_matches_dense_autocorrelation(s, f, n):
    # Both halves of the lag-index kernel against the dense
    # autocorrelation of the factor, restricted to the other support.
    rng = np.random.default_rng(s * 100 + f)
    rows = 12
    sx, sy = _supports(rng, rows, n, s), _supports(rng, rows, n, f)
    size, slots = rnmp._lag_slots(sx, sy)
    assert [a.shape for a in slots] == [(rows, s, s), (rows, f, f)]
    for half, on, other in ((0, sy, sx), (1, sx, sy)):
        v = rng.standard_normal((rows, on.shape[1], 2)) @ [1, 1j]
        v /= np.linalg.norm(v, axis=1)[:, None]
        dense = np.zeros((rows, n), dtype=complex)
        dense[np.arange(rows)[:, None], on] = v
        want = np.array([_reference_toeplitz(d, o)
                         for d, o in zip(dense, other)])
        got = rnmp._pair_form(half, v, *slots, size=size)
        assert got.shape == want.shape == (rows, other.shape[1],
                                           other.shape[1])
        assert np.abs(got - want).max() <= 1e-14


def test_pair_min_norm_does_not_depend_on_n():
    # The dense build would need rows of 10^6 entries per start here.
    for sx, sy in (((0, 3, 17, 39), (1, 2, 30)), ((5, 6), (0, 9, 10, 38))):
        small = rnmp.pair_min_norm(sx, sy, 40, np.random.default_rng(2))
        large = rnmp.pair_min_norm(sx, sy, 10 ** 6,
                                   np.random.default_rng(2))
        assert abs(small - large) <= 1e-12 * small


def test_alt_min_rows_do_not_depend_on_their_stack(monkeypatch):
    engine = rnmp._alt_min
    stacked = []
    monkeypatch.setattr(rnmp, "_alt_min", lambda sx, sy, y: (
        stacked.append(len(y)) or engine(sx, sy, y)))
    # The lag index grows with s^2 + f^2, so s = f = 16 still stacks a
    # full CHUNK of starts.
    rnmp.pair_min_norm(range(16), range(0, 32, 2), 32,
                       starts=rnmp.CHUNK + 1)
    assert stacked == [rnmp.CHUNK, 1]
    # Each row sums only its own slots, so stacking 2 rows at a time does
    # not move a bit.
    want = rnmp.alpha_empirical(3, 3, 12, 4, 0)
    stacked.clear()
    monkeypatch.setattr(rnmp, "CHUNK", 2)
    assert rnmp.alpha_empirical(3, 3, 12, 4, 0) == want
    assert stacked == [2] * 5


def test_pair_min_norm_rejects_indices_outside_dimension():
    for sx, sy in (((0, 4), (0, 1)), ((0, 1), (-1, 2))):
        with pytest.raises(ValueError, match=r"\[0, n\)"):
            rnmp.pair_min_norm(sx, sy, 4)


def test_pair_min_norm_rejects_repeated_indices():
    # A repeated index would stand for the support {0} (minimum 1.0) and
    # place two coefficients on one entry.
    for sx, sy in (((0, 0), (0, 1)), ((0, 1), (2, 1, 2))):
        with pytest.raises(ValueError, match="distinct"):
            rnmp.pair_min_norm(sx, sy, 4)


@pytest.mark.parametrize("sx, sy, starts, message", [
    ((), (0,), 4, "support_x is empty"),
    ((0,), (), 4, "support_y is empty"),
    ((0, 1), (0, 2), 0, "starts must be positive"),
], ids=["empty_x", "empty_y", "no_starts"])
def test_pair_min_norm_rejects_empty_supports_and_no_starts(sx, sy, starts,
                                                            message):
    with pytest.raises(ValueError, match=message):
        rnmp.pair_min_norm(sx, sy, 4, starts=starts)


def _alpha_two(f):
    """Least eigenvalue 1 - cos(pi/(f+1)) of the f x f tridiagonal Toeplitz
    matrix (1, 1/2), attained with x = (1, 1)/sqrt(2) on adjacent indices;
    alpha(2, f) is its square root."""
    return math.sqrt(1.0 - math.cos(math.pi / (f + 1)))


@pytest.mark.parametrize("f, n", [(2, 8), (3, 8), (4, 8), (5, 8),
                                  (2, 10), (3, 10), (4, 10)])
def test_alpha_empirical_meets_closed_form_for_s_two(f, n):
    assert rnmp._exhaustive_pairs(2, f, n)
    assert abs(rnmp.alpha_empirical(2, f, n) - _alpha_two(f)) <= 1e-12


# The benchmark's rnmp-altmin config first; sampled support pairs need not
# hold an adjacent pair, the consecutive pair scored after them does.
@pytest.mark.parametrize("f, n, trials", [(4, 16, 500), (5, 12, 200),
                                          (3, 20, 100)])
@pytest.mark.parametrize("seed", [0, 1, 1000])
def test_sampled_alpha_empirical_meets_closed_form_for_s_two(f, n, trials,
                                                             seed):
    assert not rnmp._exhaustive_pairs(2, f, n)
    assert abs(rnmp.alpha_empirical(2, f, n, trials, seed)
               - _alpha_two(f)) <= 1e-12


def test_alpha_empirical_meets_closed_form_at_large_n():
    # The ROADMAP's n-independence gate config: 500 sampled pairs and the
    # consecutive one at n = 4000.
    assert abs(rnmp.alpha_empirical(2, 4, 4000, 500) - _alpha_two(4)) <= 1e-12


def test_sampled_pairs_memory_is_bounded_at_large_n():
    # Each sparse_draws call takes at most CHUNK ** 2 keys; a CHUNK of
    # rows of n keys per call peaked at 164 MB here.
    tracemalloc.start()
    try:
        value = rnmp.alpha_empirical(2, 4, 4 * 10 ** 4, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert abs(value - _alpha_two(4)) <= 1e-12


@pytest.mark.parametrize("f", [2, 3, 4, 5])
def test_pair_min_norm_meets_closed_form_on_adjacent_pair(f):
    assert abs(rnmp.pair_min_norm([0, 1], range(f), 12)
               - _alpha_two(f)) <= 1e-12


@pytest.mark.parametrize("s,f,n", [(1, 5, 4), (5, 1, 4), (0, 2, 4),
                                   (2, 0, 4), (1, 1, 0)])
def test_alpha_empirical_rejects_out_of_range_sizes(s, f, n):
    with pytest.raises(ValueError, match="1 <= s, f <= n"):
        rnmp.alpha_empirical(s, f, n)


def test_pair_min_norm_shift_invariance():
    rng = np.random.default_rng(5)
    base = rnmp.pair_min_norm((0, 1), (0, 2), 8, rng, starts=3)
    shifted = rnmp.pair_min_norm((3, 4), (1, 3), 8, rng, starts=3)
    assert shifted == pytest.approx(base, abs=1e-6)


def test_norm_between_bounds_for_random_pairs():
    rng = np.random.default_rng(6)
    emp = rnmp.alpha_empirical(2, 2, 6, trials=8, seed=0)
    for _ in range(50):
        x = signals.random_sparse_vector(6, 2, rng)
        y = signals.random_sparse_vector(6, 2, rng)
        norm = np.linalg.norm(np.convolve(x.dense(), y.dense()))
        assert emp - 1e-9 <= norm <= math.sqrt(2) + 1e-9


def test_beta_upper():
    assert rnmp.beta_upper(3, 5) == pytest.approx(math.sqrt(3))
    assert rnmp.beta_upper(1, 9) == 1.0


def test_bounds_ordering_enforced():
    with pytest.raises(ValueError):
        rnmp.RnmpBounds(2, 2, 16, alpha_lower=0.9, alpha_empirical=0.5,
                        beta=math.sqrt(2))
    with pytest.raises(ValueError):
        rnmp.RnmpBounds(2, 2, 16, alpha_lower=0.1, alpha_empirical=2.0,
                        beta=math.sqrt(2))


def test_compute_bounds_certificates():
    bounds = rnmp.compute_bounds(2, 2, 8, trials=8, seed=0, det_budget=4)
    assert bounds.beta == pytest.approx(math.sqrt(2))
    assert bounds.alpha_lower <= bounds.alpha_empirical <= bounds.beta + 1e-9
    lower = bounds.certificates["alpha_lower"]
    assert lower["toeplitz_dim"] == 8
    assert not lower["capped"]
    # k = 2 takes the exact D_{8,2} in an uncapped dimension, so no search
    # runs and the value is a proven bound.
    assert lower["method"] == "closed form D_{n,2} = (n+1)/2^n"
    assert lower["proven"] is True
    assert not {"det_budget", "seed", "exhaustive_supports"} & lower.keys()
    assert bounds.certificates["alpha_empirical"]["upper_estimate"]
    assert bounds.certificates["alpha_empirical"]["exhaustive_pairs"]


@pytest.mark.parametrize("s,f,n", [(1, 1, 1), (1, 5, 32), (7, 1, 8)])
def test_compute_bounds_proven_only_for_singleton_sparsity(s, f, n):
    cert = rnmp.compute_bounds(s, f, n, trials=1, det_budget=1).certificates
    assert cert["alpha_lower"]["proven"] is True
    assert cert["alpha_lower"]["exhaustive_supports"]
    assert cert["alpha_empirical"]["exhaustive_pairs"]
    # Both values are the exact 1, so no search's settings are reported.
    for name in ("alpha_lower", "alpha_empirical"):
        assert cert[name]["method"] == "exact (min(s, f) = 1)"
        assert not {"toeplitz_dim", "toeplitz_dim_uncapped", "capped",
                    "det_budget", "trials", "seed"} & cert[name].keys()


def test_compute_bounds_records_sampled_pairs_and_supports(monkeypatch):
    # C(15, 1) * C(15, 3) = 6825 support pairs at (2, 4, 16) are sampled,
    # so trials count; the C(8, 2)^2 = 784 pairs at (3, 3, 9) are all
    # enumerated, so they do not.
    cert = rnmp.compute_bounds(2, 4, 16, trials=3, det_budget=1).certificates
    assert not cert["alpha_empirical"]["exhaustive_pairs"]
    cert = rnmp.compute_bounds(3, 3, 9, trials=3, det_budget=1).certificates
    assert cert["alpha_empirical"]["exhaustive_pairs"]
    # A search value, even over every support, is not a proven bound.
    assert cert["alpha_lower"]["exhaustive_supports"]
    assert rnmp.alpha_empirical(3, 3, 9, 1) == rnmp.alpha_empirical(3, 3, 9,
                                                                     500)
    assert cert["alpha_lower"]["proven"] is False
    # The determinant search covers every support or refuses: a limit of
    # 20 lies below the C(8, 2) = 28 determinant supports at (3, 3, 9).
    monkeypatch.setattr(rnmp, "EXHAUSTIVE_SUPPORT_LIMIT", 20)
    with pytest.raises(ValueError, match="EXHAUSTIVE_SUPPORT_LIMIT = 20"):
        rnmp.compute_bounds(3, 3, 9, trials=3, det_budget=1)


@pytest.mark.parametrize("s,f,n", [(1, 1, 0), (5, 1, 2), (1, 5, 2),
                                   (0, 2, 4), (2, 0, 4)])
def test_compute_bounds_rejects_out_of_range_sizes(s, f, n):
    with pytest.raises(ValueError):
        rnmp.compute_bounds(s, f, n, trials=1, det_budget=1)


@pytest.mark.parametrize("s,f,n,det_budget,match", [
    (17, 17, 40, 1, r"min\(s, f\) = 17 exceeds .* MAX_TOEPLITZ_DIM = 16"),
    (3, 3, 2, 1, "1 <= s, f <= n"),
    (1, 3, 8, 0, "det_budget must be positive"),
    (3, 3, 12, 0, "det_budget must be positive"),
    (1, 3, 8, 65, "det_budget = 65 exceeds .* MAX_RESTARTS = 64"),
    (2, 2, 8, 100, "det_budget = 100 exceeds .* MAX_RESTARTS = 64"),
], ids=["cap", "sizes", "budget-exact", "budget-search", "restarts-exact",
        "restarts-search"])
def test_bounds_reject_before_any_search(monkeypatch, s, f, n, det_budget,
                                         match):
    def no_search(*args):
        raise AssertionError("a search ran before the arguments were checked")

    monkeypatch.setattr(rnmp, "alpha_empirical", no_search)
    monkeypatch.setattr(rnmp, "restricted_determinant", no_search)
    with pytest.raises(ValueError, match=match):
        rnmp.compute_bounds(s, f, n, trials=1, det_budget=det_budget)
    with pytest.raises(ValueError, match=match):
        rnmp.alpha_lower_bound(s, f, n, det_budget)


def test_compute_bounds_records_dimension_cap(monkeypatch):
    bounds = rnmp.compute_bounds(2, 3, 729, trials=4, seed=0, det_budget=2)
    cert = bounds.certificates["alpha_lower"]
    assert cert["capped"]
    assert cert["toeplitz_dim"] == 16
    assert cert["toeplitz_dim_uncapped"] == 729
    assert cert["proven"] is False
    # The cap is read at call time.
    monkeypatch.setattr(rnmp, "MAX_TOEPLITZ_DIM", 6)
    bounds = rnmp.compute_bounds(2, 3, 729, trials=4, seed=0, det_budget=2)
    assert bounds.certificates["alpha_lower"]["toeplitz_dim"] == 6
    assert bounds.n_effective == 6
    assert bounds.alpha_lower == rnmp.alpha_lower_bound(2, 3, 729, 2, 0)


def test_restricted_min_eigenvalue_heuristic_path():
    # C(24, 8) > 1e5 forces the greedy-descent branch; the heuristic is an
    # upper bound on the exhaustive answer and at least the full minimum.
    rng = np.random.default_rng(7)
    t = rnmp.autocorrelation_toeplitz(
        signals.random_sparse_vector(12, 4, rng), 24)
    assert math.comb(24, 8) > rnmp.EXHAUSTIVE_SUPPORT_LIMIT
    val = rnmp.restricted_min_eigenvalue(t, 8, seed=0, restarts=2)
    assert rnmp.min_eigenvalue(t) - 1e-10 <= val
    sub = itertools.islice(itertools.combinations(range(24), 8), 50)
    mat = t.to_matrix()
    some = min(float(np.linalg.eigvalsh(mat[np.ix_(i, i)])[0]) for i in sub)
    assert val <= some + 1e-9


def _reference_greedy(t, s, seed, restarts):
    # The full-neighbourhood greedy: every sweep scores all s (n - s)
    # single swaps in one call and moves to the first improving one in
    # scan order (outgoing index, then incoming index ascending).
    mat = t.to_matrix()
    starts = signals.sparse_draws(np.random.default_rng(seed), restarts,
                                  t.n, s)[0]
    best = math.inf
    for idx in starts.tolist():
        val = float(rnmp.eigh.eigvalsh(mat[np.ix_(idx, idx)])[0])
        while True:
            swaps = np.array([sorted(set(idx) - {out} | {inc})
                              for out in idx for inc in range(t.n)
                              if inc not in idx])
            vals = rnmp.eigh.eigvalsh(
                mat[swaps[:, :, None], swaps[:, None, :]])[:, 0]
            better = np.flatnonzero(vals < val - 1e-15)
            if better.size == 0:
                break
            idx, val = swaps[better[0]].tolist(), float(vals[better[0]])
        best = min(best, val)
    return best


def _greedy_cases():
    # The benchmark's (22, 7) autocorrelations with one restart, the
    # (24, 8) case of the heuristic-path test with two, and dense random
    # lags at (30, 6) with three.
    for seed in range(1000, 1004):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        yield rnmp.autocorrelation_toeplitz(
            signals.random_sparse_vector(22, 3, rng), 22), 7, seed, 1
    rng = np.random.default_rng(7)
    yield rnmp.autocorrelation_toeplitz(
        signals.random_sparse_vector(12, 4, rng), 24), 8, 0, 2
    rng = np.random.default_rng(30)
    lags = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    yield HermitianToeplitz(30, (1.0,) + tuple(lags[1:])), 6, 5, 3


def _counting_eigvalsh(monkeypatch):
    # Spy on rnmp.eigh.eigvalsh; returns the list of stack heights.
    eigvalsh = rnmp.eigh.eigvalsh
    heights = []

    def spy(a):
        heights.append(len(a) if np.ndim(a) == 3 else 1)
        return eigvalsh(a)

    monkeypatch.setattr(rnmp.eigh, "eigvalsh", spy)
    return heights


def test_restricted_min_eigenvalue_greedy_matches_full_scan_reference(
        monkeypatch):
    # The early stop scores fewer rows than the full scan's
    # sweeps x s (n - s) plus one per start, and returns the same float.
    heights = _counting_eigvalsh(monkeypatch)
    for t, s, seed, restarts in _greedy_cases():
        assert math.comb(t.n, s) > rnmp.EXHAUSTIVE_SUPPORT_LIMIT
        heights.clear()
        want = _reference_greedy(t, s, seed, restarts)
        full = sum(heights)
        heights.clear()
        assert rnmp.restricted_min_eigenvalue(t, s, seed=seed,
                                              restarts=restarts) == want
        if t.n == 22:
            assert sum(heights) < full


def test_restricted_min_eigenvalue_greedy_stacks_at_most_one_chunk(
        monkeypatch):
    # At (70, 6) a sweep has 6 * 64 = 384 swaps, more than CHUNK; each
    # stack holds at most CHUNK of them, and the value does not depend on
    # CHUNK.
    rng = np.random.default_rng(70)
    t = rnmp.autocorrelation_toeplitz(
        signals.random_sparse_vector(70, 3, rng), 70)
    heights = _counting_eigvalsh(monkeypatch)
    want = rnmp.restricted_min_eigenvalue(t, 6, seed=1, restarts=2)
    assert 6 * 64 > rnmp.CHUNK >= max(heights)
    heights.clear()
    monkeypatch.setattr(rnmp, "CHUNK", 7)
    assert rnmp.restricted_min_eigenvalue(t, 6, seed=1, restarts=2) == want
    assert max(heights) == 7


@pytest.mark.parametrize("n, s", [(24, 8), (30, 6), (70, 6)])
def test_restricted_min_eigenvalue_greedy_tridiagonal_oracle(n, s):
    # The principal submatrices of the tridiagonal Toeplitz (1, 1/2, 0, ..)
    # are block diagonal over the runs of their support; a run of length s
    # has the smallest eigenvalue, 1 - cos(pi / (s + 1)).
    t = HermitianToeplitz(n, (1.0, 0.5) + (0.0,) * (n - 2))
    assert math.comb(n, s) > rnmp.EXHAUSTIVE_SUPPORT_LIMIT
    want = 1.0 - math.cos(math.pi / (s + 1))
    for seed in range(5):
        assert abs(rnmp.restricted_min_eigenvalue(t, s, seed=seed)
                   - want) <= 1e-12

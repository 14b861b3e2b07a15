"""Sparse complex vectors and convolution primitives.

A :class:`SparseVector` stores a complex vector of ambient dimension ``n``
as a strictly increasing support index list plus the values on the support.
On top of that the module provides the exact grouped sum of every
convolution and autocorrelation (:func:`keyed_sums`) and on it the sparse
convolution kernel (:func:`sparse_convolve`), which serves circular
convolution on Z_n; with supports in ``[0, n')`` and ``n >= 2n' - 1``
that is linear convolution.  All operations are pure functions; vectors
are immutable after construction and safe to share between concurrent
trial workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Entries whose magnitude falls below PRUNE_REL * ||x|| * ||y|| after a
# product operation are dropped from the support, so genuine cancellation
# (e.g. (1,1) * (1,-1)) produces an honest sumset support.
PRUNE_REL = 1e-14


@dataclass(frozen=True)
class SparseVector:
    """Complex vector given by ambient dimension, support and values.

    Parameters
    ----------
    n : int
        Ambient dimension, positive.
    support : tuple of int
        Strictly increasing indices in ``[0, n)``.
    values : tuple of complex
        One nonzero value per support index.
    """

    n: int
    support: tuple
    values: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient dimension must be positive")
        support = tuple(int(k) for k in self.support)
        values = tuple(complex(v) for v in self.values)
        if len(support) != len(values):
            raise ValueError("support and values length mismatch")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise ValueError("support must be strictly increasing")
        if support and (support[0] < 0 or support[-1] >= self.n):
            raise ValueError("support index out of range")
        if any(v == 0 for v in values):
            raise ValueError("explicit zeros are not stored")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_dense(cls, v) -> "SparseVector":
        """Sparsify a dense vector, dropping its zero entries."""
        v = np.asarray(v, dtype=complex).ravel()
        idx = np.flatnonzero(np.abs(v) > 0)
        return cls(v.size, tuple(idx.tolist()), tuple(v[idx].tolist()))

    @classmethod
    def basis(cls, n: int, j: int) -> "SparseVector":
        """Standard basis vector ``e_j`` in dimension ``n``."""
        return cls(n, (j,), (1.0 + 0.0j,))

    def dense(self) -> np.ndarray:
        out = np.zeros(self.n, dtype=complex)
        if self.support:
            out[list(self.support)] = self.values
        return out

    def sparsity(self) -> int:
        return len(self.support)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def keyed_sums(keys, terms, size: int) -> np.ndarray:
    """Sums of ``terms`` by integer key in ``[0, size)``: ``np.bincount``,
    which adds each key's terms in index order, the bits of the unbuffered
    ``ufunc.at`` of ``np.add``.  Complex terms are summed as their real
    and their imaginary parts; real terms stay real."""
    keys = np.asarray(keys).ravel()
    terms = np.asarray(terms).ravel()
    if not np.iscomplexobj(terms):
        # astype: no terms at all give integer zeros.
        return np.bincount(keys, terms, size).astype(float)
    sums = np.empty(size, dtype=complex)
    sums.real = np.bincount(keys, terms.real, size)
    sums.imag = np.bincount(keys, terms.imag, size)
    return sums


def sparse_convolve(support_x, values_x, support_y, values_y,
                    modulus: int | None = None):
    """Exact convolution of two sparse vectors given as (support, values).

    Returns ``(keys, values)``: the distinct pair sums ``i + j`` (reduced
    mod ``modulus`` when given), sorted, and the sum of ``x_i y_j`` over
    the pairs hitting each key in row-major pair order (``keyed_sums``).
    Pair sums are grouped with ``np.unique``, so no dense array over the
    span of the supports is built; an exact cancellation stays as a zero.
    """
    sums = np.add.outer(np.asarray(support_x, dtype=np.int64),
                        np.asarray(support_y, dtype=np.int64)).ravel()
    if modulus is not None:
        sums %= modulus
    products = np.outer(values_x, values_y).ravel()
    keys, inverse = np.unique(sums, return_inverse=True)
    return keys, keyed_sums(inverse, products, keys.size)


def circular_convolve(x: SparseVector, y: SparseVector) -> SparseVector:
    """Circular convolution on Z_n: ``z_k = sum_i x_i y_{(k-i) mod n}``."""
    if y.n != x.n:
        raise ValueError("ambient dimensions must be equal")
    keys, values = sparse_convolve(x.support, x.values, y.support, y.values,
                                   x.n)
    kept = np.abs(values) > PRUNE_REL * x.norm() * y.norm()
    return SparseVector(x.n, tuple(keys[kept].tolist()),
                        tuple(values[kept].tolist()))


def row_norms(v: np.ndarray) -> np.ndarray:
    """Norm over the last axis, bit for bit ``np.linalg.norm`` of each row:
    ``vecdot`` makes the same BLAS dot calls, ``einsum`` and ``sum(axis)``
    do not."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def complex_normals(rng: np.random.Generator, t: int, k: int) -> np.ndarray:
    """t rows of k standard complex Gaussians from one
    ``standard_normal((t, 2, k))`` call: per row the real, then the
    imaginary parts.  t one-row calls draw the same as one t-row call."""
    g = rng.standard_normal((t, 2, k))
    return g[:, 0] + 1j * g[:, 1]


def sparse_draws(rng: np.random.Generator, t: int, n: int, s: int,
                 w: int = 0):
    """t uniform s-subsets of ``range(n)`` (sorted, as (t, s) indices) and
    t rows of w complex Gaussian coefficients, from one
    ``standard_normal((t, n + 2w))`` call: per row n keys, whose s smallest
    give the support, then the real and the imaginary parts.  t one-row
    calls draw the same as one t-row call."""
    g = rng.standard_normal((t, n + 2 * w))
    support = np.sort(np.argpartition(g[:, :n], s - 1, axis=1)[:, :s], axis=1)
    return support, g[:, n:n + w] + 1j * g[:, n + w:]


def random_sparse_vector(n: int, s: int,
                         rng: np.random.Generator) -> SparseVector:
    """Random unit s-sparse vector: the normalized one-row case of
    ``sparse_draws``, a uniform support with complex Gaussian values."""
    if not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n")
    (support,), (vals,) = sparse_draws(rng, 1, n, s, s)
    return SparseVector(n, tuple(support.tolist()),
                        tuple((vals / np.linalg.norm(vals)).tolist()))

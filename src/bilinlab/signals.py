"""Sparse complex vectors and convolution primitives.

A :class:`SparseVector` stores a complex vector of ambient dimension ``n``
as a strictly increasing support index list plus the values on the support.
On top of that the module provides one exact array kernel for sparse
convolution (:func:`sparse_convolve`), which serves circular convolution
on Z_n; with supports in ``[0, n')`` and ``n >= 2n' - 1`` that is linear
convolution.  All operations are pure functions; vectors are immutable
after construction and safe to share between concurrent trial workers.
"""

from __future__ import annotations

import math
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
    def from_dense(cls, v, tol: float = 0.0) -> "SparseVector":
        """Sparsify a dense vector, dropping entries with ``|v_k| <= tol``."""
        v = np.asarray(v, dtype=complex).ravel()
        idx = np.flatnonzero(np.abs(v) > tol)
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
        # Summed left to right on every Python version (sum() compensates
        # from 3.12 on); rnmp._det_matrices reproduces this order.
        total = 0.0
        for v in self.values:
            total += abs(v) ** 2
        return math.sqrt(total)


def sparse_convolve(support_x, values_x, support_y, values_y,
                    modulus: int | None = None):
    """Exact convolution of two sparse vectors given as (support, values).

    Returns ``(keys, values)``: the distinct pair sums ``i + j`` (reduced
    mod ``modulus`` when given), sorted, and the sum of ``x_i y_j`` over
    the pairs hitting each key, accumulated in row-major pair order.
    Pair sums are grouped with ``np.unique``, so no dense array over the
    span of the supports is built; an exact cancellation stays as a zero.
    """
    sums = np.add.outer(np.asarray(support_x, dtype=np.int64),
                        np.asarray(support_y, dtype=np.int64)).ravel()
    if modulus is not None:
        sums %= modulus
    products = np.outer(values_x, values_y).ravel()
    keys, inverse = np.unique(sums, return_inverse=True)
    acc = np.zeros(keys.size, dtype=products.dtype)
    np.add.at(acc, inverse, products)
    return keys, acc


def circular_convolve(x: SparseVector, y: SparseVector,
                      n: int | None = None) -> SparseVector:
    """Circular convolution on Z_n: ``z_k = sum_i x_i y_{(k-i) mod n}``."""
    if n is None:
        n = x.n
    if x.n != n or y.n != n:
        raise ValueError("ambient dimensions must equal n")
    keys, values = sparse_convolve(x.support, x.values, y.support, y.values,
                                   n)
    kept = np.abs(values) > PRUNE_REL * x.norm() * y.norm()
    return SparseVector(n, tuple(keys[kept].tolist()),
                        tuple(values[kept].tolist()))


def row_norms(v: np.ndarray) -> np.ndarray:
    """Norm over the last axis, bit for bit ``np.linalg.norm`` of each row:
    ``vecdot`` makes the same BLAS dot calls, ``einsum`` and ``sum(axis)``
    do not."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def random_sparse_vector(n: int, s: int, rng: np.random.Generator,
                         unit: bool = True) -> SparseVector:
    """Random s-sparse vector: uniform support, complex Gaussian values."""
    if not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n")
    support = np.sort(rng.choice(n, size=s, replace=False))
    vals = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    while np.any(vals == 0):  # pragma: no cover - probability zero
        vals = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    if unit:
        vals = vals / np.linalg.norm(vals)
    return SparseVector(n, tuple(support.tolist()), tuple(vals.tolist()))

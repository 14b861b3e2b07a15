"""Measurement operator ensembles and bilinear maps.

Provides :class:`LinearOperator` (apply/adjoint pairs with a descriptor for
deterministic reconstruction) for the Gaussian ensemble, random sign
diagonal, partial circulant demodulator and their composition (the
universal random demodulator), plus :class:`BilinearMap` and the
convolution as one.

Randomness is drawn from ``np.random.default_rng(seed)`` (PCG64); the
descriptor of every operator records the ensemble name, dimensions and
seeds, and rebuilding from the same descriptor reproduces the action bit
for bit.

Every action works on stacks along the last axis: ``apply`` maps
``(..., cols) -> (..., rows)``, ``adjoint`` maps ``(..., rows) -> (..., cols)``
and ``BilinearMap.pair_apply`` maps ``(..., n1), (..., n2) -> (..., n)``,
each row bit for bit equal to the one-row result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .signals import complex_normals


@dataclass
class LinearOperator:
    """m x n complex linear operator with explicit adjoint, both acting
    on stacks of vectors along the last axis."""

    rows: int
    cols: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    descriptor: dict = field(default_factory=dict)

    def materialize(self) -> np.ndarray:
        """Dense matrix obtained by applying the operator to the basis, in
        C order: a transposed view would change the summation order, and
        so the last bits, of products with it."""
        return np.ascontiguousarray(
            self.apply(np.eye(self.cols, dtype=complex)).T)


def identity_operator(n: int) -> LinearOperator:
    return LinearOperator(
        rows=n, cols=n,
        apply=lambda x: np.asarray(x, dtype=complex).copy(),
        adjoint=lambda w: np.asarray(w, dtype=complex).copy(),
        descriptor={"ensemble": "identity", "m": n, "n": n},
    )


def gaussian_operator(m: int, n: int, seed: int) -> LinearOperator:
    """i.i.d. complex Gaussian matrix scaled so that E||Ax||^2 = ||x||^2."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    a = complex_normals(rng, 1, m * n).reshape(m, n) / math.sqrt(2 * m)
    return LinearOperator(
        rows=m, cols=n,
        apply=lambda x: np.matvec(a, np.asarray(x, dtype=complex)),
        adjoint=lambda w: np.matvec(a.conj().T, np.asarray(w, dtype=complex)),
        descriptor={"ensemble": "gaussian", "m": m, "n": n, "seed": seed,
                    "rng": "pcg64"},
    )


def sign_diagonal(n: int, seed: int) -> LinearOperator:
    """Diagonal multiplier D_xi with i.i.d. +-1 entries (unitary)."""
    xi = np.random.default_rng(seed).choice([-1.0, 1.0], size=n)
    return LinearOperator(
        rows=n, cols=n,
        apply=lambda x: xi * np.asarray(x, dtype=complex),
        adjoint=lambda w: xi * np.asarray(w, dtype=complex),
        descriptor={"ensemble": "sign_diagonal", "m": n, "n": n,
                    "seed": seed, "rng": "pcg64"},
    )


def _resolve_omega(m: int, n: int, omega) -> np.ndarray:
    if np.isscalar(omega):
        rng = np.random.default_rng(int(omega))
        idx = np.sort(rng.choice(n, size=m, replace=False))
    else:
        idx = np.asarray(sorted(int(k) for k in omega))
        if idx.size != m:
            raise ValueError("row index set must have m entries")
        if idx.size != np.unique(idx).size:
            raise ValueError("row indices must be distinct")
        if idx.size and (idx[0] < 0 or idx[-1] >= n):
            raise ValueError("row index out of range")
    return idx


def partial_circulant_demodulator(m: int, n: int, seed_eta: int,
                                  omega) -> LinearOperator:
    """Row subsampling of a random-multiplier circulant.

    The circulant is ``F* D_eta F`` with i.i.d. +-1 Fourier multiplier
    ``eta``, so it is unitary.  Selecting ``m`` of its ``n`` rows and
    scaling by ``sqrt(n/m)`` gives ``E||Phi x||^2 = ||x||^2`` over eta
    draws; for m = n the operator is exactly unitary.

    ``omega`` is either an explicit index set of size m or an integer seed
    from which the rows are drawn uniformly without replacement.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    eta = np.random.default_rng(seed_eta).choice([-1.0, 1.0], size=n)
    idx = _resolve_omega(m, n, omega)
    scale = math.sqrt(n / m)

    def apply(x):
        y = np.fft.ifft(eta * np.fft.fft(np.asarray(x, dtype=complex)))
        return scale * y[..., idx]

    def adjoint(w):
        w = np.asarray(w, dtype=complex)
        y = np.zeros(w.shape[:-1] + (n,), dtype=complex)
        y[..., idx] = scale * w
        return np.fft.ifft(np.conj(eta) * np.fft.fft(y))

    return LinearOperator(
        rows=m, cols=n, apply=apply, adjoint=adjoint,
        descriptor={"ensemble": "partial_circulant_demodulator", "m": m,
                    "n": n, "seed_eta": seed_eta,
                    "omega": [int(k) for k in idx], "rng": "pcg64"},
    )


def universal_random_demodulator(m: int, n: int, seed_eta: int, seed_xi: int,
                                 omega) -> LinearOperator:
    """Partial circulant demodulator composed with a random sign flip.

    Apply cost is O(n log n): one sign multiply plus two FFTs.
    """
    circ = partial_circulant_demodulator(m, n, seed_eta, omega)
    signs = sign_diagonal(n, seed_xi)
    return LinearOperator(
        rows=m, cols=n,
        apply=lambda x: circ.apply(signs.apply(x)),
        adjoint=lambda w: signs.adjoint(circ.adjoint(w)),
        descriptor={"ensemble": "universal_random_demodulator", "m": m,
                    "n": n, "seed_eta": seed_eta, "seed_xi": seed_xi,
                    "omega": circ.descriptor["omega"], "rng": "pcg64"},
    )


def operator_from_descriptor(desc: dict) -> LinearOperator:
    """Rebuild an operator from its descriptor (seed determinism hook)."""
    kind = desc["ensemble"]
    if kind == "identity":
        return identity_operator(desc["n"])
    if kind == "gaussian":
        return gaussian_operator(desc["m"], desc["n"], desc["seed"])
    if kind == "sign_diagonal":
        return sign_diagonal(desc["n"], desc["seed"])
    if kind == "partial_circulant_demodulator":
        return partial_circulant_demodulator(
            desc["m"], desc["n"], desc["seed_eta"], desc["omega"])
    if kind == "universal_random_demodulator":
        return universal_random_demodulator(
            desc["m"], desc["n"], desc["seed_eta"], desc["seed_xi"],
            desc["omega"])
    raise ValueError(f"unknown ensemble {kind!r}")


@dataclass
class BilinearMap:
    """Bilinear map C^{n1} x C^{n2} -> C^n.

    ``pair_apply`` takes stacks ``(..., n1)`` and ``(..., n2)`` whose leading
    axes broadcast, and returns ``(..., n)``.
    """

    n1: int
    n2: int
    n: int
    pair_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def apply_pair(self, x, y) -> np.ndarray:
        return self.pair_apply(np.asarray(x, dtype=complex),
                               np.asarray(y, dtype=complex))


def convolution_lift(n: int, zero_padded: bool = False) -> BilinearMap:
    """Convolution as a bilinear map on C^n x C^n.

    Circular by default (output dimension n); with ``zero_padded`` the
    output lives in C^{2n-1} and circular equals ordinary convolution.
    """
    n_out = 2 * n - 1 if zero_padded else n

    def pair(x, y):
        return np.fft.ifft(np.fft.fft(x, n_out) * np.fft.fft(y, n_out))

    return BilinearMap(n, n, n_out, pair)

"""Dense Hermitian eigenvalues.

LAPACK through ``np.linalg.eigvalsh``, for one matrix or a stack of them,
with a cyclic Jacobi sweep as fallback if LAPACK fails to converge.
Intended for the small dense matrices of this package (n <= 64).
"""

from __future__ import annotations

import math

import numpy as np


def jacobi_eigvalsh(a: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """Cyclic Jacobi eigenvalues for complex Hermitian matrices."""
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= 1e-14 * max(1.0, np.linalg.norm(a)):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r == 0.0:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                phase = apq / r
                # Plane rotation V with V[p,p]=V[q,q]=c, V[p,q]=-s*phase,
                # V[q,p]=s*conj(phase) annihilates a[p,q] under V^H a V
                # when tan(2 theta) = 2|a_pq| / (a_pp - a_qq).
                theta = 0.5 * math.atan2(2.0 * r, app - aqq)
                c = math.cos(theta)
                s = math.sin(theta)
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp + s * phase * rq
                a[q, :] = -s * np.conj(phase) * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp + s * np.conj(phase) * cq
                a[:, q] = -s * phase * cp + c * cq
    return np.sort(np.real(np.diag(a)))


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, or of each matrix in a stack
    of shape ``(..., n, n)``, ascending along the last axis."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    skew = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))
    if np.any(skew > 1e-8 * scale):
        raise ValueError("matrix is not Hermitian")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError:
        flat = a.reshape((-1,) + a.shape[-2:])
        vals = [jacobi_eigvalsh(m) for m in flat]
        return np.reshape(vals, a.shape[:-1])

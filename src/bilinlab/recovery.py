"""l1 recovery for the lifted bilinear problem.

``bpdn_synthesis`` solves  min ||u||_1  s.t.  ||A u - b|| <= eps  by
proximal gradient descent on the penalized problem with continuation on
the penalty, followed by a least-squares polish on the detected support.
Complex l1 means the sum of magnitudes; the soft threshold shrinks the
magnitude and preserves the phase.  At a fixed penalty the iteration is a
descent method, so the penalized objective is monotonically nonincreasing.

``bpdn_analysis`` solves  min ||B* z||_1  s.t.  ||Phi z - b|| <= eps
with a primal-dual (Chambolle-Pock) scheme; for unitary B the two
programs' optima coincide.

``rank_one_factor`` extracts the top rank-one factor pair from a
recovered matrix under a canonical gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import BilinearMap, LinearOperator, lifted_operator


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 5000
    tolerance: float = 1e-8
    penalty: float | None = None  # fixed l1 penalty; None = continuation
    penalty_floor_rel: float = 1e-8
    debias: bool = True

    def __post_init__(self):
        if self.max_iterations < 1 or self.tolerance <= 0:
            raise ValueError("solver options must be positive")


@dataclass(frozen=True)
class SolverResult:
    solution: np.ndarray
    converged: bool
    residual_norm: float
    objective: float
    objective_history: tuple
    iterations: int


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Magnitude shrinkage preserving phase."""
    mag = np.abs(v)
    scale = np.maximum(mag - tau, 0.0) / np.where(mag > 0, mag, 1.0)
    return v * scale


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, LinearOperator):
        return a.materialize()
    return np.asarray(a, dtype=complex)


def _ista(a: np.ndarray, b: np.ndarray, u0: np.ndarray, lam: float,
          lipschitz: float, max_iters: int, tol: float, history: list):
    """Monotone proximal gradient steps at fixed penalty lam."""
    u = u0
    r = a @ u - b
    obj = lam * np.sum(np.abs(u)) + 0.5 * np.vdot(r, r).real
    history.append(float(obj))
    ah = a.conj().T
    used = 0
    for _ in range(max_iters):
        used += 1
        grad = ah @ r
        u_new = soft_threshold(u - grad / lipschitz, lam / lipschitz)
        r_new = a @ u_new - b
        obj_new = lam * np.sum(np.abs(u_new)) + 0.5 * np.vdot(r_new, r_new).real
        history.append(float(obj_new))
        change = np.linalg.norm(u_new - u) / max(1.0, np.linalg.norm(u))
        u, r, obj = u_new, r_new, obj_new
        if change < tol:
            break
    return u, r, used


def bpdn_synthesis(a, b, eps: float = 0.0,
                   opts: SolverOptions = SolverOptions()) -> SolverResult:
    """Basis pursuit denoising in synthesis form.

    ``a`` may be a LinearOperator (materialized internally; instances here
    are desk scale) or a dense matrix.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    amat = _as_matrix(a)
    m, n = amat.shape
    b = np.asarray(b, dtype=complex).ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolverResult(np.zeros(n, dtype=complex), True, 0.0, 0.0,
                            (0.0,), 0)
    lipschitz = np.linalg.norm(amat, 2) ** 2
    lam_max = np.max(np.abs(amat.conj().T @ b))
    history: list = []
    u = np.zeros(n, dtype=complex)
    total_iters = 0

    if opts.penalty is not None:
        u, r, used = _ista(amat, b, u, opts.penalty, lipschitz,
                           opts.max_iterations, opts.tolerance, history)
        total_iters = used
    else:
        lam = 0.5 * lam_max
        lam_floor = opts.penalty_floor_rel * lam_max
        stage_iters = max(50, opts.max_iterations // 20)
        res = bnorm
        while total_iters < opts.max_iterations:
            u, r, used = _ista(amat, b, u, lam, lipschitz, stage_iters,
                               opts.tolerance, history)
            total_iters += used
            res = np.linalg.norm(r)
            if eps > 0 and res <= eps:
                break
            if lam <= lam_floor:
                break
            lam = max(lam * 0.25, lam_floor)
        if eps > 0 and res <= eps:
            # Bisection on the penalty so the residual lands just inside
            # the constraint; the penalized minimizer with residual eps is
            # the constrained optimum.
            lo, hi = lam, lam * 4.0
            for _ in range(30):
                if total_iters >= opts.max_iterations:
                    break
                mid = 0.5 * (lo + hi)
                u_mid, r_mid, used = _ista(amat, b, u, mid, lipschitz,
                                           stage_iters, opts.tolerance,
                                           history)
                total_iters += used
                if np.linalg.norm(r_mid) <= eps:
                    lo = mid
                    u, r = u_mid, r_mid
                else:
                    hi = mid
                if (hi - lo) / hi < 1e-3:
                    break

    if opts.debias and opts.penalty is None and eps == 0.0:
        support = np.flatnonzero(np.abs(u) > 1e-6 * np.max(np.abs(u), initial=0))
        if 0 < support.size <= m:
            sub, *_ = np.linalg.lstsq(amat[:, support], b, rcond=None)
            u_db = np.zeros(n, dtype=complex)
            u_db[support] = sub
            r_db = amat @ u_db - b
            if np.linalg.norm(r_db) <= max(eps, np.linalg.norm(amat @ u - b)):
                u, r = u_db, r_db

    res = float(np.linalg.norm(amat @ u - b))
    feasible = res <= eps * (1 + 1e-6) + 1e-8 * bnorm
    objective = float(np.sum(np.abs(u)))
    return SolverResult(u, bool(feasible), res, objective,
                        tuple(history), total_iters)


def bpdn_analysis(phi, b_map: BilinearMap, b, eps: float = 0.0,
                  opts: SolverOptions = SolverOptions()) -> SolverResult:
    """Basis pursuit denoising in analysis form.

    When the lifted map is square and well conditioned the program is
    solved exactly through the substitution ``w = B* z`` (for unitary B
    this is the statement that analysis and synthesis coincide);
    otherwise a primal-dual (Chambolle-Pock) scheme runs on the original
    variables.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    phi_mat = _as_matrix(phi)
    b_mat = lifted_operator(b_map).materialize()
    m, n = phi_mat.shape
    if b_mat.shape[0] != n:
        raise ValueError("Phi columns must match the lifted output dimension")
    b = np.asarray(b, dtype=complex).ravel()
    if np.linalg.norm(b) == 0.0:
        return SolverResult(np.zeros(n, dtype=complex), True, 0.0, 0.0,
                            (0.0,), 0)
    if b_mat.shape[0] == b_mat.shape[1] \
            and np.linalg.cond(b_mat) < 1e6:
        # min ||w||_1 s.t. ||Phi B^{-*} w - b|| <= eps, then z = B^{-*} w.
        b_inv_adj = np.linalg.inv(b_mat.conj().T)
        res = bpdn_synthesis(phi_mat @ b_inv_adj, b, eps, opts)
        z = b_inv_adj @ res.solution
        res_norm = float(np.linalg.norm(phi_mat @ z - b))
        return SolverResult(z, res.converged, res_norm, res.objective,
                            res.objective_history, res.iterations)
    analysis = b_mat.conj().T  # maps z to the sparse coefficient domain
    op_norm_sq = np.linalg.norm(analysis, 2) ** 2 + np.linalg.norm(phi_mat, 2) ** 2
    tau = sigma = 0.99 / math.sqrt(op_norm_sq)
    z = np.zeros(n, dtype=complex)
    zbar = z.copy()
    p = np.zeros(analysis.shape[0], dtype=complex)
    q = np.zeros(m, dtype=complex)
    history = []
    used = 0
    for _ in range(opts.max_iterations):
        used += 1
        p_t = p + sigma * (analysis @ zbar)
        mag = np.abs(p_t)
        p = p_t / np.maximum(mag, 1.0)
        q_t = q + sigma * (phi_mat @ zbar)
        r = q_t - sigma * b
        rnorm = np.linalg.norm(r)
        q = r * max(0.0, 1.0 - sigma * eps / rnorm) if rnorm > 0 else r * 0
        z_new = z - tau * (analysis.conj().T @ p + phi_mat.conj().T @ q)
        history.append(float(np.sum(np.abs(analysis @ z_new))))
        change = np.linalg.norm(z_new - z) / max(1.0, np.linalg.norm(z))
        zbar = 2 * z_new - z
        z = z_new
        if change < opts.tolerance:
            break
    res = float(np.linalg.norm(phi_mat @ z - b))
    feasible = res <= eps * (1 + 1e-6) + 1e-6 * np.linalg.norm(b)
    return SolverResult(z, bool(feasible), res,
                        float(np.sum(np.abs(analysis @ z))),
                        tuple(history), used)


def rank_one_factor(m):
    """Top rank-one factor pair of a matrix under a canonical gauge.

    Returns ``(x, y, residual)`` with ``m ~ outer(x, y)``, ``||x|| = ||y||``,
    the largest-magnitude entry of x real positive, and
    ``residual = ||m - outer(x, y)||_F / ||m||_F``.
    """
    m = np.asarray(m, dtype=complex)
    fro = np.linalg.norm(m)
    if fro == 0.0:
        raise ValueError("cannot factor the zero matrix")
    u_svd, s_svd, vh_svd = np.linalg.svd(m)
    scale = math.sqrt(s_svd[0])
    x = scale * u_svd[:, 0]
    y = scale * vh_svd[0, :]
    lead = np.argmax(np.abs(x))
    phase = x[lead] / abs(x[lead])
    x = x / phase
    y = y * phase
    residual = float(np.linalg.norm(m - np.outer(x, y)) / fro)
    return x, y, residual

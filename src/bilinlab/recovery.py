"""l1 recovery for the lifted bilinear problem.

``bpdn_synthesis`` solves  min ||u||_1  s.t.  ||A u - b|| <= eps  by
proximal gradient descent on the penalized problem with continuation on
the penalty, followed by a least-squares polish on the detected support.
``bpdn_synthesis_stack`` solves a stack of such problems with every
problem's schedule run in lockstep on stacked matrices; a single problem
is its one-row case.
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
from .signals import row_norms


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
        if self.penalty is not None and not self.penalty >= 0:
            raise ValueError("penalty must be nonnegative")
        if not 0 < self.penalty_floor_rel <= 1:
            raise ValueError("penalty_floor_rel must lie in (0, 1]")


@dataclass(frozen=True)
class SolverResult:
    solution: np.ndarray
    converged: bool
    residual_norm: float
    objective: float
    objective_history: tuple
    iterations: int


# Matrix entries (T * m * n) in one lockstep stack of bpdn_synthesis_stack:
# 512 KiB of complex values plus their conjugates, whatever the number of
# problems or their shape.
STACK_ENTRIES = 2 ** 15
_TINY = np.finfo(float).smallest_subnormal


def soft_threshold(v: np.ndarray, tau) -> np.ndarray:
    """Magnitude shrinkage preserving phase (``tau`` broadcasts against
    ``v``, so a column of thresholds serves a stack of rows)."""
    mag = np.abs(v)
    # max(mag, tiny) is mag wherever mag > 0, and 0 / tiny = 0 where it is 0
    scale = np.maximum(mag - tau, 0.0) / np.maximum(mag, _TINY)
    return v * scale


def stack_rows(m: int, n: int) -> int:
    """Problems of shape (m, n) that one lockstep stack holds."""
    return max(1, STACK_ENTRIES // max(1, m * n))


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, LinearOperator):
        return a.materialize()
    return np.asarray(a, dtype=complex)


def _schedule(u, lam_max, eps: float, opts: SolverOptions):
    """Penalty schedule of one problem, as a generator.

    Yields ``(start point, penalty, step cap)`` for each stage of monotone
    proximal gradient steps at a fixed penalty, and is sent back the
    stage's ``(u, r, steps)``: a stage ends after ``step cap`` steps or at
    the first step that moves u by less than the tolerance (relative to
    max(1, ||u||)).  Returns the final point and the total step count.
    """
    if opts.penalty is not None:
        u, _, used = yield u, opts.penalty, opts.max_iterations
        return u, used
    lam = 0.5 * lam_max
    lam_floor = opts.penalty_floor_rel * lam_max
    stage_iters = max(50, opts.max_iterations // 20)
    total = 0
    while True:
        u, r, used = yield u, lam, stage_iters
        total += used
        res = np.linalg.norm(r)
        if eps > 0 and res <= eps:
            break
        if lam <= lam_floor or total >= opts.max_iterations:
            return u, total
        lam = max(lam * 0.25, lam_floor)
    # Bisection on the penalty so the residual lands just inside the
    # constraint; the penalized minimizer with residual eps is the
    # constrained optimum.
    lo, hi = lam, lam * 4.0
    for _ in range(30):
        if total >= opts.max_iterations:
            break
        mid = 0.5 * (lo + hi)
        u_mid, r_mid, used = yield u, mid, stage_iters
        total += used
        if np.linalg.norm(r_mid) <= eps:
            lo = mid
            u = u_mid
        else:
            hi = mid
        if (hi - lo) / hi < 1e-3:
            break
    return u, total


def _finish(a, b, u, bnorm, history, total, eps, opts) -> SolverResult:
    """Least-squares polish on the detected support, then the result."""
    m, n = a.shape
    if opts.debias and opts.penalty is None and eps == 0.0:
        support = np.flatnonzero(np.abs(u) > 1e-6 * np.max(np.abs(u), initial=0))
        if 0 < support.size <= m:
            sub, *_ = np.linalg.lstsq(a[:, support], b, rcond=None)
            u_db = np.zeros(n, dtype=complex)
            u_db[support] = sub
            r_db = a @ u_db - b
            if np.linalg.norm(r_db) <= max(eps, np.linalg.norm(a @ u - b)):
                u = u_db
    res = float(np.linalg.norm(a @ u - b))
    feasible = res <= eps * (1 + 1e-6) + 1e-8 * bnorm
    objective = float(np.sum(np.abs(u)))
    return SolverResult(u, bool(feasible), res, objective, tuple(history),
                        total)


def _solve_stack(a: np.ndarray, b: np.ndarray, eps: float,
                 opts: SolverOptions) -> list:
    """Run every row's ``_schedule`` in lockstep on the stack (a, b).

    Each step is one proximal gradient step of every live row: one stacked
    matrix-vector product for A^H r and one for A u, the soft threshold,
    the objective and the row norms over the whole stack, each row at its
    own penalty.
    Only rows whose stage just ended return to their schedule; the stack
    is gathered again when a row finishes.
    """
    t, m, n = a.shape
    bnorm = row_norms(b)
    results = [SolverResult(np.zeros(n, dtype=complex), True, 0.0, 0.0,
                            (0.0,), 0) for _ in range(t)]
    ids = np.flatnonzero(bnorm != 0.0)
    if ids.size == 0:
        return results
    a_in = a
    if ids.size < t:
        a, b = a[ids], b[ids]
    ah = a.conj().transpose(0, 2, 1)
    lip = np.linalg.norm(a, 2, axis=(1, 2))[:, None] ** 2
    lam_max = np.abs(np.matvec(ah, b)).max(axis=1)
    rows = ids.size
    schedules = [_schedule(np.zeros(n, dtype=complex), lam_max[p], eps, opts)
                 for p in range(rows)]
    histories = [[] for _ in range(rows)]
    # w[1] is u; w[0] takes the step's change, so that one row_norms call
    # gives both norms of the stopping test.
    w = np.zeros((2, rows, n), dtype=complex)
    u = w[1]
    r = np.empty((rows, m), dtype=complex)
    lam = np.empty(rows)
    tau = np.empty((rows, 1))
    start = np.zeros(rows, dtype=np.int64)  # step at which the stage began
    end = np.zeros(rows, dtype=np.int64)  # step at which its cap is hit
    step = 0
    tol = opts.tolerance

    def begin(p, u0, penalty, cap):
        rp = a[p] @ u0 - b[p]
        u[p], r[p], lam[p], tau[p] = u0, rp, penalty, penalty / lip[p, 0]
        histories[p].append(float(penalty * np.sum(np.abs(u0))
                                  + 0.5 * np.vdot(rp, rp).real))
        start[p], end[p] = step, step + cap

    for p in range(rows):
        begin(p, *next(schedules[p]))
    next_end = int(end.min())
    while rows:
        u_new = soft_threshold(u - np.matvec(ah, r) / lip, tau)
        r_new = np.matvec(a, u_new) - b
        objective = (lam * np.add.reduce(np.abs(u_new), axis=1)
                     + 0.5 * np.vecdot(r_new, r_new).real)
        for history, value in zip(histories, objective.tolist()):
            history.append(value)
        np.subtract(u_new, u, out=w[0])
        norms = row_norms(w)
        done = norms[0] / np.maximum(1.0, norms[1]) < tol
        u[...] = u_new
        r = r_new
        step += 1
        if step >= next_end:
            done |= end <= step
        if not np.count_nonzero(done):
            continue
        finished = []
        for p in np.flatnonzero(done):
            try:
                begin(p, *schedules[p].send((u[p].copy(), r[p].copy(),
                                             int(step - start[p]))))
            except StopIteration as stop:
                u_p, total = stop.value
                results[ids[p]] = _finish(a[p], b[p], u_p, bnorm[ids[p]],
                                          histories[p], total, eps, opts)
                finished.append(p)
        if finished:
            keep = [p for p in range(rows) if p not in finished]
            ids, b, r, lam, tau, lip, start, end = (
                x[keep] for x in (ids, b, r, lam, tau, lip, start, end))
            w = w[:, keep]
            u = w[1]
            a = ah = None  # freed before the smaller stacks are built
            a = a_in[ids]
            ah = a.conj().transpose(0, 2, 1)
            schedules = [schedules[p] for p in keep]
            histories = [histories[p] for p in keep]
            rows = len(keep)
        if rows:
            next_end = int(end.min())
    return results


def bpdn_synthesis_stack(a, b, eps: float = 0.0,
                         opts: SolverOptions = SolverOptions()) -> list:
    """Basis pursuit denoising of a stack of problems, one per row.

    ``a`` has shape (T, m, n) and ``b`` shape (T, m); returns one
    ``SolverResult`` per row, each equal bit for bit to solving that row
    alone.  Rows run in lockstep, ``stack_rows(m, n)`` at a time.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 3 or b.shape != a.shape[:2]:
        raise ValueError("need a of shape (T, m, n) and b of shape (T, m)")
    rows = stack_rows(*a.shape[1:])
    results = []
    for lo in range(0, len(a), rows):
        results += _solve_stack(a[lo:lo + rows], b[lo:lo + rows], eps, opts)
    return results


def bpdn_synthesis(a, b, eps: float = 0.0,
                   opts: SolverOptions = SolverOptions()) -> SolverResult:
    """Basis pursuit denoising in synthesis form.

    ``a`` may be a LinearOperator (materialized internally; instances here
    are desk scale) or a dense matrix.  This is the one-row case of
    ``bpdn_synthesis_stack``.
    """
    b = np.asarray(b, dtype=complex).ravel()
    return bpdn_synthesis_stack(_as_matrix(a)[None], b[None], eps, opts)[0]


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

"""l1 recovery of sparse vectors from linear measurements.

``bpdn_synthesis`` solves  min ||u||_1  s.t.  ||A u - b|| <= eps  by
accelerated proximal gradient steps on the penalized problem with
continuation on the penalty (then, for eps > 0, a root search on it),
followed for exact data by a least-squares polish on the detected support.
``bpdn_synthesis_stack`` solves a stack of such problems with every
problem's schedule run in lockstep on stacked matrices; a single problem
is its one-row case.
Complex l1 means the sum of magnitudes; the soft threshold shrinks the
magnitude and preserves the phase.  At each penalty the steps are
monotone FISTA (Beck & Teboulle 2009): a step is kept only if it does not
raise the penalized objective, and a rejected step restarts the momentum
from the best point so far (O'Donoghue & Candes 2015), so the objective
is monotonically nonincreasing.  A stage at one penalty ends when the
proximal gradient residual at the extrapolated point y, ||z - y|| for the
step z, falls below ``TOLERANCE`` relative to max(1, ||z||), or after
max(50, MAX_ITERATIONS // 20) steps; a solve ends once its stages have
taken ``MAX_ITERATIONS`` steps.

For eps > 0 continuation divides the penalty by 4 until a stage ends with
||r|| <= eps, and an Illinois regula falsi on log(||r|| / eps) against
log(penalty) then narrows that bracket to 1e-3 relative, at most 30
stages, returning the feasible end (van den Berg & Friedlander 2008 on the
smooth residual curve); it takes the midpoint where an end has no
residual of a stage run to its end, or where the secant point leaves the
bracket.  A continuation stage also ends on a duality-gap bound (Fercoq,
Gramfort & Salmon 2015): theta = c r_y, with c = min(1, lam / ||A^H
r_y||_inf), is dual feasible, and the dual D(theta) = -||theta||^2 / 2 -
Re <theta, b> is 1-strongly concave with maximizer r*, the residual of
the stage minimizer, so ||r*|| >= ||theta|| - sqrt(2 G) for the gap
G = F(u) - D(theta).  Once that bound exceeds eps, the stage goes on to
the next penalty without reading its residual.

``dual_certificate`` decides an exact-data problem without solving it.
For a planted u0 with support S, u0 is the unique l1 minimizer when
V = min over w with A_S^H w = sgn(u0_S) of max_{j not in S} |(A^H w)_j|
is below 1, and not a minimizer when V > 1 (Fuchs 2004; Tropp 2005 for
complex signals).  With w = w_LS + N z, w_LS the least-squares solution
and N a basis of null(A_S^H), that is the complex linear minimax problem
min_z max |c + M z| off S, for c = A^H w_LS and M = A^H N.  Lawson's
reweighted least squares (Rice & Usow 1968) brackets V from both sides:
each round solves min_z ||W^{1/2} (c + M z)|| for weights W off S, the
residual r = c + M z gives the upper bound max |r| off S, and y = W r,
which M^H y = 0 makes dual feasible, the lower bound Re(y^H c) / ||y||_1;
the weights then move to W |r| / sum W |r|.  Round 0 (z = 0) is the
least-squares certificate.  A bound decides once it clears 1 by
``CERTIFICATE_MARGIN`` relative.

``recovered`` decides planted trials, the rule behind ``recover-sweep``'s
rates.  On exact data (eps = 0) a trial is recovered when u0 is the unique
l1 minimizer, and ``dual_certificate`` decides it without a solve where a
bound clears 1.  Every other trial is solved and counts as recovered when
the solution lies within 1e-3 relative error of u0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import row_norms


@dataclass(frozen=True)
class SolverResult:
    solution: np.ndarray
    converged: bool  # feasible: the residual is within eps (plus rounding)
    residual_norm: float
    iterations: int


# Matrix entries (T * m * n) in one lockstep stack of bpdn_synthesis_stack:
# 512 KiB of complex values plus their conjugates, whatever the number of
# problems or their shape.
STACK_ENTRIES = 2 ** 15
_TINY = np.finfo(float).smallest_subnormal
# Continuation stops lowering the penalty at this fraction of lam_max.
PENALTY_FLOOR_REL = 1e-8
# The step budget of one solve and the stopping tolerance of its stages
# (see the module docstring), read at call time.
MAX_ITERATIONS = 5000
TOLERANCE = 1e-8
# Relative margin by which a certificate clears its bound; the rounding in
# the least-squares solves is many orders below it.
CERTIFICATE_MARGIN = 1e-9
# Lawson rounds of ``dual_certificate`` after the least-squares round.
CERTIFICATE_ROUNDS = 1000


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


def _schedule(u, lam_max, eps: float, max_iterations: int):
    """Penalty schedule of one problem, as a generator.

    Yields ``(start point, penalty, probe)`` for each stage of monotone
    accelerated proximal gradient steps at a fixed penalty, where
    ``probe`` marks a continuation stage of an eps > 0 problem, which the
    duality-gap bound may end early.  It is sent back the stage's
    ``(u, r, steps, above)``, ``above`` set when the bound proved the
    stage minimizer's residual above eps (see the module docstring for
    where a stage ends).  Returns the final point and the total step
    count.
    """
    lam = 0.5 * lam_max
    lam_floor = PENALTY_FLOOR_REL * lam_max
    total = 0
    # log(||r|| / eps) of the last stage at the penalty ``tight_at``, when
    # that stage ran to its end; None where no tight residual is known.
    tight_at, f_tight = None, None
    while True:
        u, r, used, above = yield u, lam, eps > 0
        total += used
        if not above:
            res = np.linalg.norm(r)
            if eps > 0 and res <= eps:
                break
            tight_at, f_tight = lam, _log_ratio(res, eps)
        if lam <= lam_floor or total >= max_iterations:
            return u, total
        lam = max(lam * 0.25, lam_floor)
    # Illinois regula falsi on log(||r|| / eps) against log(penalty), so
    # that the residual lands just inside the constraint; the penalized
    # minimizer with residual eps is the constrained optimum.  The low end
    # is feasible, the high end not.
    lo, hi = lam, lam * 4.0
    f_lo = _log_ratio(res, eps)
    f_hi = f_tight if tight_at == hi else None
    side = 0  # the end the last stage moved: -1 low, 1 high
    for _ in range(30):
        if total >= max_iterations:
            break
        mid = 0.5 * (lo + hi)
        if f_lo is not None and f_hi is not None:
            x_lo, x_hi = math.log(lo), math.log(hi)
            secant = math.exp(x_lo + (x_hi - x_lo) * f_lo / (f_lo - f_hi))
            if lo < secant < hi:
                mid = secant
        u_mid, r_mid, used, _ = yield u, mid, False
        total += used
        res = np.linalg.norm(r_mid)
        if res <= eps:
            lo, f_lo, u = mid, _log_ratio(res, eps), u_mid
            if side < 0 and f_hi is not None:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = mid, _log_ratio(res, eps)
            if side > 0 and f_lo is not None:
                f_lo *= 0.5
            side = 1
        if (hi - lo) / hi < 1e-3:
            break
    return u, total


def _log_ratio(res, eps: float):
    """log(res / eps), or None where it is undefined."""
    return math.log(res / eps) if res > 0 and eps > 0 else None


def _finish(a, b, u, bnorm, total, eps) -> SolverResult:
    """Least-squares polish on the detected support, then the result."""
    m, n = a.shape
    if eps == 0.0:
        support = np.flatnonzero(np.abs(u) > 1e-6 * np.max(np.abs(u), initial=0))
        if 0 < support.size <= m:
            sub, *_ = np.linalg.lstsq(a[:, support], b, rcond=None)
            u_db = np.zeros(n, dtype=complex)
            u_db[support] = sub
            r_db = a @ u_db - b
            if np.linalg.norm(r_db) <= np.linalg.norm(a @ u - b):
                u = u_db
    res = float(np.linalg.norm(a @ u - b))
    feasible = res <= eps * (1 + 1e-6) + 1e-8 * bnorm
    return SolverResult(u, bool(feasible), res, total)


def _momentum_weights(count: int) -> np.ndarray:
    """FISTA's extrapolation weights beta_k = (t_k - 1) / t_{k+1} for
    k < count, with t_0 = 1 and t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2."""
    out = np.empty(count)
    t = 1.0
    for k in range(count):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        out[k] = (t - 1.0) / t_next
        t = t_next
    return out


def dual_certificate(a, u0) -> tuple:
    """Bounds on the minimax dual certificate V of each planted row.

    ``a`` has shape (T, m, n) and ``u0`` shape (T, n), with the same
    number s of nonzeros in every row.  Returns ``(upper, lower, z)``: per
    row the bracket lower <= V <= upper of the round at which a bound
    cleared 1 by ``CERTIFICATE_MARGIN`` (lower is 0 after round 0), or of
    the last round (``CERTIFICATE_ROUNDS``), and the z of the upper bound,
    whose certificate is w = w_LS + N z with N the last m - s left
    singular vectors of ``np.linalg.svd(A_S)``.  Rows where A_S lacks full
    column rank (numpy's ``matrix_rank`` tolerance) decide nothing: upper
    inf, lower 0 and z NaN.  With m > n only round 0 runs.
    """
    a = np.asarray(a, dtype=complex)
    u0 = np.asarray(u0, dtype=complex)
    t, m, n = a.shape
    counts = np.count_nonzero(u0, axis=1)
    s = int(counts[0]) if t else 0
    if np.any(counts != s):
        raise ValueError("every row of u0 needs the same number of nonzeros")
    upper, lower = np.full(t, np.inf), np.zeros(t)
    z = np.full((t, max(m - s, 0)), np.nan, dtype=complex)
    if not 0 < s <= m:
        return upper, lower, z
    support = np.nonzero(u0)[1].reshape(t, s)
    a_s = np.take_along_axis(a, support[:, None, :], axis=2)
    left, sv, right = np.linalg.svd(a_s, full_matrices=False)
    full = sv[:, -1] > sv[:, 0] * max(m, s) * np.finfo(float).eps
    ids = np.flatnonzero(full)
    sgn = np.take_along_axis(u0, support, axis=1)[ids]
    sgn /= np.abs(sgn)
    ah = a[ids].conj().transpose(0, 2, 1)
    # Round 0: w_LS = A_S (A_S^H A_S)^{-1} sgn = U diag(1/sigma) V^H sgn
    c = np.matvec(ah, np.matvec(left[ids], np.matvec(right[ids], sgn)
                                / sv[ids]))
    off = np.ones((ids.size, n))
    np.put_along_axis(off, support[ids], 0.0, axis=1)
    upper[ids] = (np.abs(c) * off).max(axis=1, initial=0.0)
    z[ids] = 0.0
    live = upper[ids] >= 1 - CERTIFICATE_MARGIN
    if m > n or not live.any():  # with m > n, A^H N has rank < m - s
        return upper, lower, z
    ids, ah, c, off = (v[live] for v in (ids, ah, c, off))
    mat = ah @ np.linalg.svd(a_s[ids])[0][:, :, s:]  # A^H N, 0 on S
    weights = off / max(n - s, 1)
    for _ in range(CERTIFICATE_ROUNDS):
        root = np.sqrt(weights)
        q, tri = np.linalg.qr(root[:, :, None] * mat)
        rhs = np.matvec(q.conj().transpose(0, 2, 1), root * c)
        z[ids] = -np.linalg.solve(tri, rhs[..., None])[..., 0]
        r = c + np.matvec(mat, z[ids])
        mag = np.abs(r) * off
        upper[ids] = mag.max(axis=1, initial=0.0)
        y = weights * r
        lower[ids] = np.vecdot(y, c).real / np.maximum(
            np.abs(y).sum(axis=1), _TINY)
        live = ((upper[ids] >= 1 - CERTIFICATE_MARGIN)
                & (lower[ids] <= 1 + CERTIFICATE_MARGIN))
        if not live.any():
            break
        ids, c, mat, off, weights, mag = (
            v[live] for v in (ids, c, mat, off, weights, mag))
        weights *= mag
        weights /= weights.sum(axis=1, keepdims=True)
        # any weights give a valid lower bound; the floor keeps R regular
        np.maximum(weights, np.finfo(float).tiny * off, out=weights)
    return upper, lower, z


def _solve_stack(a: np.ndarray, b: np.ndarray, eps: float) -> list:
    """Run every row's ``_schedule`` in lockstep on the stack (a, b).

    Each step is one monotone FISTA step of every live row, each at its own
    penalty: the proximal gradient step z from the extrapolated point y is
    accepted as the row's point u if it does not raise the objective, and
    y moves on to z + beta_k (z - u); otherwise u stays, the momentum
    restarts (k = 0) and y = u.  A step costs one stacked matrix-vector
    product for A^H r_y and one for A z; the residual r_y = A y - b is
    carried by linearity from those of z and u.
    While any row is in a continuation stage of an eps > 0 stack, a step
    also forms the duality-gap bound of every row from A^H r_y and r_y,
    and ends the stages whose bound clears eps by ``CERTIFICATE_MARGIN``.
    Only rows whose stage just ended return to their schedule; the stack
    is gathered again when a row finishes.
    """
    t, m, n = a.shape
    bnorm = row_norms(b)
    results = [SolverResult(np.zeros(n, dtype=complex), True, 0.0, 0)
               for _ in range(t)]
    ids = np.flatnonzero(bnorm != 0.0)
    if ids.size == 0:
        return results
    a_in = a
    if ids.size < t:
        a, b = a[ids], b[ids]
    ah = a.conj().transpose(0, 2, 1)
    lip = np.linalg.norm(a, 2, axis=(1, 2))[:, None] ** 2
    lam_max = np.abs(np.matvec(ah, b)).max(axis=1)
    ah /= lip[:, :, None]  # the gradient step's matrix A^H / L
    rows = ids.size
    cap = max(50, MAX_ITERATIONS // 20)  # steps of one stage
    betas = _momentum_weights(cap)
    tol_sq = TOLERANCE ** 2
    schedules = [_schedule(np.zeros(n, dtype=complex), lam_max[p], eps,
                           MAX_ITERATIONS) for p in range(rows)]
    # A point and its residual share a row of n + m entries, so that one
    # call updates both: pts[0] is (y, r_y), pts[1] is (u, r_u) and zr is
    # (z, r_z).
    pts = np.zeros((2, rows, n + m), dtype=complex)
    zr = np.empty((rows, n + m), dtype=complex)
    # w[0] takes z - y and w[1] z, so that one vecdot call gives both
    # squared norms of the stopping test.
    w = np.empty((2, rows, n), dtype=complex)
    fu = np.empty(rows)  # objective at u
    k = np.zeros(rows, dtype=np.int64)  # steps since the momentum restart
    lam = np.empty(rows)
    tau = np.empty((rows, 1))
    start = np.zeros(rows, dtype=np.int64)  # step at which the stage began
    end = np.zeros(rows, dtype=np.int64)  # step at which its cap is hit
    probe = np.zeros(rows, dtype=bool)  # the duality-gap bound may end it
    cut = eps * (1 + CERTIFICATE_MARGIN)
    step = 0

    def begin(p, u0, penalty, probe_p):
        rp = a[p] @ u0 - b[p]
        fp = float(penalty * np.sum(np.abs(u0)) + 0.5 * np.vdot(rp, rp).real)
        pts[:, p, :n], pts[:, p, n:], fu[p], k[p] = u0, rp, fp, 0
        lam[p], tau[p], probe[p] = penalty, penalty / lip[p, 0], probe_p
        start[p], end[p] = step, step + cap

    for p in range(rows):
        begin(p, *next(schedules[p]))
    next_end = int(end.min())
    while rows:
        y, ry = pts[0, :, :n], pts[0, :, n:]
        z, rz = zr[:, :n], zr[:, n:]
        g = np.matvec(ah, ry)  # A^H r_y / L
        z[...] = soft_threshold(y - g, tau)
        gap = eps > 0 and probe.any()
        if gap:
            # The dual point theta = c r_y, scaled into ||A^H theta||_inf
            # <= lam, its norm and its dual value D(theta) = -||theta||^2 / 2
            # - Re <theta, b>.
            c = np.minimum(1.0, tau[:, 0] / np.maximum(
                np.abs(g).max(axis=1), _TINY))
            theta = c * np.sqrt(np.vecdot(ry, ry).real)
            dual = -0.5 * theta * theta - c * np.vecdot(b, ry).real
        np.matvec(a, z, out=rz)
        rz -= b
        fz = (lam * np.add.reduce(np.abs(z), axis=1)
              + 0.5 * np.vecdot(rz, rz).real)
        # The stage ends at ||z - y|| / max(1, ||z||) < tolerance, squared.
        np.subtract(z, y, out=w[0])
        w[1] = z
        sq = np.vecdot(w, w).real
        done = sq[0] < tol_sq * np.maximum(1.0, sq[1])
        accept = fz <= fu
        beta = betas[k] * accept
        k = (k + 1) * accept
        np.subtract(zr, pts[1], out=pts[0])
        np.copyto(pts[1], zr, where=accept[:, None])
        np.copyto(fu, fz, where=accept)
        pts[0] *= beta[:, None]
        pts[0] += pts[1]
        if gap:
            # ||r*|| >= ||theta|| - sqrt(2 G) for the gap G = F(u) - D(theta)
            # (D is 1-strongly concave with maximizer r*, and D(r*) = F(u*)
            # <= F(u)); the stage ends once that bound exceeds eps.
            bound = theta - np.sqrt(2.0 * np.maximum(fu - dual, 0.0))
            above = probe & (bound > cut)
            done |= above
        step += 1
        if step >= next_end:
            done |= end <= step
        if not np.count_nonzero(done):
            continue
        finished = []
        for p in np.flatnonzero(done):
            i = ids[p]
            try:
                begin(p, *schedules[p].send((pts[1, p, :n].copy(),
                                             pts[1, p, n:].copy(),
                                             int(step - start[p]),
                                             bool(gap and above[p]))))
            except StopIteration as end_of_schedule:
                u_p, total = end_of_schedule.value
                results[i] = _finish(a[p], b[p], u_p, bnorm[i], total, eps)
                finished.append(p)
        if finished:
            keep = [p for p in range(rows) if p not in finished]
            ids, b, fu, k, lam, tau, lip, start, end, probe, zr = (
                v[keep] for v in (ids, b, fu, k, lam, tau, lip, start, end,
                                  probe, zr))
            pts, w = pts[:, keep], w[:, keep]
            a = ah = None  # freed before the smaller stacks are built
            a = a_in[ids]
            ah = a.conj().transpose(0, 2, 1)
            ah /= lip[:, :, None]
            schedules = [schedules[p] for p in keep]
            rows = len(keep)
        if rows:
            next_end = int(end.min())
    return results


def bpdn_synthesis_stack(a, b, eps: float = 0.0) -> list:
    """Basis pursuit denoising of a stack of problems, one per row.

    ``a`` has shape (T, m, n) and ``b`` shape (T, m); returns one
    ``SolverResult`` per row, each equal bit for bit to solving that row
    alone.  Rows run in lockstep, ``stack_rows(m, n)`` at a time.
    """
    if not 0 <= eps < math.inf:
        raise ValueError("eps must be a finite nonnegative number")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 3 or b.shape != a.shape[:2]:
        raise ValueError("need a of shape (T, m, n) and b of shape (T, m)")
    rows = stack_rows(*a.shape[1:])
    results = []
    for lo in range(0, len(a), rows):
        results += _solve_stack(a[lo:lo + rows], b[lo:lo + rows], eps)
    return results


def bpdn_synthesis(a, b, eps: float = 0.0) -> SolverResult:
    """Basis pursuit denoising in synthesis form of one dense (m, n)
    problem: the one-row case of ``bpdn_synthesis_stack``."""
    b = np.asarray(b, dtype=complex).ravel()
    return bpdn_synthesis_stack(np.asarray(a)[None], b[None], eps)[0]


def recovered(a, b, u0, eps: float) -> np.ndarray:
    """Whether each planted row of the stack (a, b) recovers its u0, in
    row order, by the rule in the module docstring.

    ``a`` has shape (T, m, n), ``b`` shape (T, m) and ``u0`` shape (T, n);
    ``eps`` bounds the noise in b.  Only the rows that ``dual_certificate``
    leaves undecided, or all rows for eps > 0, reach the solver.
    """
    a, b, u0 = np.asarray(a), np.asarray(b), np.asarray(u0)
    won = np.zeros(len(u0), dtype=bool)
    todo = slice(None)
    if eps == 0:
        upper, lower, _ = dual_certificate(a, u0)
        won = upper < 1 - CERTIFICATE_MARGIN
        todo = ~won & (lower <= 1 + CERTIFICATE_MARGIN)
    a, b, u0 = a[todo], b[todo], u0[todo]
    if len(u0):
        solutions = np.array([res.solution
                              for res in bpdn_synthesis_stack(a, b, eps)])
        won[todo] = row_norms(solutions - u0) / row_norms(u0) <= 1e-3
    return won

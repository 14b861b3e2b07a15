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

``dual_certificate`` decides a planted problem without solving it.
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
least-squares certificate.  A bound on V decides once it clears 1 by
``CERTIFICATE_MARGIN`` relative.

With noise, a witness w of a round, with V_w = max_{j not in S}
|(A^H w)_j| < 1, bounds the error h = u - u0 of every minimizer u (Fuchs
2005; Candes & Plan 2011).  Where ||A u0 - b|| <= eps, u0 is feasible, so
||u||_1 <= ||u0||_1 and ||A h|| <= 2 eps; then ||h_Sc||_1 <= B_Sc = 2 eps
||w|| / (1 - V_w) and ||h_S|| <= B_S = 2 eps / sigma_min(A_S) +
max_{j not in S} ||A_S^+ a_j|| B_Sc, so ||h|| <= hypot(B_S, B_Sc) as
||h_Sc|| <= ||h_Sc||_1.  N is orthonormal and orthogonal to w_LS, so
||w||^2 = ||w_LS||^2 + ||z||^2.  A row is certified once its witness's
bound is at most ``TRIAL_TOLERANCE`` ||u0||, so that every minimizer lies
within that relative error of u0; at eps = 0 the bound is 0 wherever
V_w < 1, which is the exact-data rule.  A row leaves undecided
once the bound at (lower, ||w||) already exceeds that limit: every
witness has V_w >= lower, so only a witness shorter than the round's
could still certify it, and the rounds move towards the minimax witness,
not a shorter one; the solver then decides the row.  At round 0 that is
the bound at (0, ||w_LS||), and no witness is shorter than w_LS, so a row
that stops there has no certificate at all.

``recovered`` decides planted trials, the rule behind ``recover-sweep``'s
rates.  A trial is recovered when every l1 minimizer lies within
``TRIAL_TOLERANCE`` (1e-3) relative error of u0; on exact data (eps = 0)
that is u0 being the unique minimizer.  ``dual_certificate`` decides the
rows it can, the rows of each support size together, where u0 fits the
data to ``CERTIFICATE_MARGIN`` (||A u0 - b|| <= eps (1 + margin)); on
exact data it also proves failures.  Every other trial is solved and
counts as recovered when the solution lies within ``TRIAL_TOLERANCE``
relative error of u0.
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
# A planted trial is recovered within this error relative to ||u0||: every
# minimizer's, by the certificate, or the solution's, by a solve.
TRIAL_TOLERANCE = 1e-3


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


def dual_certificate(a, u0, eps: float = 0.0) -> tuple:
    """Bounds on the minimax dual certificate V of each planted row, and
    on the distance of every l1 minimizer from u0 at noise level ``eps``.

    ``a`` has shape (T, m, n) and ``u0`` shape (T, n), with the same
    number s of nonzeros in every row.  Returns ``(upper, lower, z,
    bound)``: per row the bracket lower <= V <= upper of the round at which
    the row left the rounds (see the module docstring), at the latest the
    last (``CERTIFICATE_ROUNDS``), the z of the upper bound, whose witness
    is w = w_LS + N z with N the last m - s left singular vectors of
    ``np.linalg.svd(A_S)``, and that witness's bound hypot(B_S, B_Sc) /
    ||u0|| on the relative error ||u - u0|| / ||u0|| of every minimizer u
    (0 for eps = 0; inf where upper has not cleared 1).  Rows
    where A_S lacks full column rank (numpy's ``matrix_rank`` tolerance)
    decide nothing: upper and bound inf, lower 0 and z NaN.  With m > n
    only round 0 runs.
    """
    a = np.asarray(a, dtype=complex)
    u0 = np.asarray(u0, dtype=complex)
    t, m, n = a.shape
    counts = np.count_nonzero(u0, axis=1)
    s = int(counts[0]) if t else 0
    if np.any(counts != s):
        raise ValueError("every row of u0 needs the same number of nonzeros")
    upper, lower, bound = np.full(t, np.inf), np.zeros(t), np.full(t, np.inf)
    z = np.full((t, max(m - s, 0)), np.nan, dtype=complex)
    if not 0 < s <= m:
        return upper, lower, z, bound
    support = np.nonzero(u0)[1].reshape(t, s)
    a_s = np.take_along_axis(a, support[:, None, :], axis=2)
    # One full SVD: its first s left singular vectors U serve round 0, and
    # the last m - s are the null basis N of the Lawson rounds.
    left, sv, right = np.linalg.svd(a_s)
    left, null = left[..., :s], left[..., s:]
    full = sv[:, -1] > sv[:, 0] * max(m, s) * np.finfo(float).eps
    ids = np.flatnonzero(full)
    sgn = np.take_along_axis(u0, support, axis=1)[ids]
    sgn /= np.abs(sgn)
    ah = a[ids].conj().transpose(0, 2, 1)
    off = np.ones((ids.size, n))
    np.put_along_axis(off, support[ids], 0.0, axis=1)
    # Round 0: w_LS = A_S (A_S^H A_S)^{-1} sgn = U x for x = diag(1/sigma)
    # V^H sgn, so that a witness w = U x + N z has ||w||^2 = ||x||^2 + ||z||^2
    x = np.matvec(right[ids], sgn) / sv[ids]
    c = np.matvec(ah, np.matvec(left[ids], x))
    # Per row, over ||u0||: 2 eps and B_S's first term 2 eps /
    # sigma_min(A_S); then ||w_LS|| and max ||A_S^+ a_j|| = ||diag(1/sigma)
    # U^H a_j|| off S.  The bound is 0 on exact data, which reads none.
    scale, on, w_ls, spill = np.zeros((4, t))
    if eps > 0:
        scale[ids] = 2 * eps / row_norms(u0[ids])
        on[ids] = scale[ids] / sv[ids, -1]
        w_ls[ids] = row_norms(x)
        spill[ids] = (row_norms((ah @ left[ids]) / sv[ids][:, None, :])
                      * off).max(axis=1, initial=0.0)

    # Both read the live rows ids, which the rounds narrow.
    def error_bound(v, z_live):
        # hypot(B_S, B_Sc) / ||u0|| at off-support maximum v for the
        # witness with z z_live; 1 - v is floored at the margin, which only
        # lowers it
        if eps == 0:
            return 0.0
        b_off = (scale[ids] * np.hypot(w_ls[ids], row_norms(z_live))
                 / np.maximum(1 - v, CERTIFICATE_MARGIN))
        return np.hypot(on[ids] + spill[ids] * b_off, b_off)

    def witness_bound(v, z_live):
        return np.where(v < 1 - CERTIFICATE_MARGIN, error_bound(v, z_live),
                        np.inf)

    upper[ids] = (np.abs(c) * off).max(axis=1, initial=0.0)
    z[ids] = 0.0
    bound[ids] = witness_bound(upper[ids], z[ids])
    live = ((bound[ids] > TRIAL_TOLERANCE)
            & (error_bound(0.0, z[ids]) <= TRIAL_TOLERANCE))
    if m > n or not live.any():  # with m > n, A^H N has rank < m - s
        return upper, lower, z, bound
    ids, ah, c, off = (v[live] for v in (ids, ah, c, off))
    mat = ah @ null[ids]  # A^H N, 0 on S
    weights = off / max(n - s, 1)
    for _ in range(CERTIFICATE_ROUNDS):
        root = np.sqrt(weights)
        q, tri = np.linalg.qr(root[:, :, None] * mat)
        rhs = np.matvec(q.conj().transpose(0, 2, 1), root * c)
        z_live = -np.linalg.solve(tri, rhs[..., None])[..., 0]
        r = c + np.matvec(mat, z_live)
        mag = np.abs(r) * off
        up = mag.max(axis=1, initial=0.0)
        y = weights * r
        lo = np.vecdot(y, c).real / np.maximum(np.abs(y).sum(axis=1), _TINY)
        b = witness_bound(up, z_live)
        upper[ids], lower[ids], z[ids], bound[ids] = up, lo, z_live, b
        # a row leaves certified, proved no minimizer, or left undecided
        live = ((b > TRIAL_TOLERANCE) & (lo <= 1 + CERTIFICATE_MARGIN)
                & (error_bound(lo, z_live) <= TRIAL_TOLERANCE))
        if not live.any():
            break
        ids, c, mat, off, weights, mag = (
            v[live] for v in (ids, c, mat, off, weights, mag))
        weights *= mag
        weights /= weights.sum(axis=1, keepdims=True)
        # any weights give a valid lower bound; the floor keeps R regular
        np.maximum(weights, np.finfo(float).tiny * off, out=weights)
    return upper, lower, z, bound


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
    ``eps`` bounds the noise in b.  ``dual_certificate`` decides the rows
    of each support size apart, and only the rows it leaves open reach the
    solver.
    """
    a, b, u0 = np.asarray(a), np.asarray(b), np.asarray(u0)
    won = np.zeros(len(u0), dtype=bool)
    todo = np.ones(len(u0), dtype=bool)
    counts = np.count_nonzero(u0, axis=1)
    # the bound needs u0 feasible, ||A u0 - b|| <= eps
    fits = eps == 0 or (row_norms(np.matvec(a, u0) - b)
                        <= eps * (1 + CERTIFICATE_MARGIN))
    for s in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero((counts == s) & fits)
        if rows.size == len(u0):  # no copy of the stack for a single group
            rows = slice(None)
        _, lower, _, bound = dual_certificate(a[rows], u0[rows], eps)
        won[rows] = bound <= TRIAL_TOLERANCE
        # on exact data, lower > 1 proves u0 not a minimizer
        todo[rows] = ~won[rows] & ((eps > 0)
                                   | (lower <= 1 + CERTIFICATE_MARGIN))
    if todo.any():
        solutions = np.array([res.solution for res in bpdn_synthesis_stack(
            a[todo], b[todo], eps)])
        won[todo] = (row_norms(solutions - u0[todo]) / row_norms(u0[todo])
                     <= TRIAL_TOLERANCE)
    return won
